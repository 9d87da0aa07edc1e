"""Tests for the content-addressed compiled-result cache."""

import dataclasses
import json

import pytest

from repro.benchmarks.ising import ising_model_circuit
from repro.benchmarks.qaoa import line_graph, maxcut_qaoa_circuit
from repro.compiler.batch import BatchCompiler, BatchJob
from repro.compiler.pipeline import compile_circuit
from repro.compiler.result_cache import (
    RESULT_CACHE_FORMAT,
    DiskResultCache,
    ResultCache,
    engine_component,
    result_key,
)
from repro.compiler.strategies import CLS, CLS_AGGREGATION
from repro.config import DEFAULT_COMPILER
from repro.control.cache import PulseCache
from repro.errors import VerificationError
from repro.ir import canonical_result_dict
from repro.ir.serialize import (
    batch_job_from_dict,
    batch_job_to_dict,
    circuit_to_dict,
    result_to_dict,
)


def _circuit(name="rc", nodes=4):
    return maxcut_qaoa_circuit(line_graph(nodes), name=name)


def _job(name="rc", nodes=4, strategy="cls"):
    return BatchJob(circuit=_circuit(name, nodes), strategy=strategy)


#: CLS under a key that was never registered: its envelope cannot name
#: it, so a job under it has no result key.
UNREGISTERED = dataclasses.replace(
    CLS, key="rc-unregistered", description="never registered"
)


class TestKeying:
    def test_label_never_changes_the_key(self):
        plain = batch_job_to_dict(_job())
        labelled = batch_job_to_dict(
            BatchJob(circuit=_circuit(), strategy="cls", label="renamed")
        )
        assert result_key(plain) == result_key(labelled)

    def test_circuit_and_strategy_change_the_key(self):
        base = batch_job_to_dict(_job())
        other_circuit = batch_job_to_dict(_job(name="other"))
        other_strategy = batch_job_to_dict(_job(strategy="isa"))
        assert result_key(base) != result_key(other_circuit)
        assert result_key(base) != result_key(other_strategy)

    def test_engine_component_partitions_the_store(self):
        """Same envelope under different engine settings never collides:
        a model-priced result must not serve a grape-priced lookup."""
        envelope = batch_job_to_dict(_job())
        engine = BatchCompiler()
        probe = engine.make_ocu(cache=PulseCache())
        model = engine_component(
            engine.device, DEFAULT_COMPILER, "model", probe.fingerprint
        )
        grape = engine_component(
            engine.device, DEFAULT_COMPILER, "grape", probe.fingerprint
        )
        assert model != grape
        assert result_key(envelope, model) != result_key(envelope, grape)
        assert result_key(envelope, model) != result_key(envelope)

    # BatchCompiler.result_key is the compile service's job identity:
    # its breaker, coalescing, journal signature and result lookups.

    def test_engine_key_ignores_the_label(self):
        engine = BatchCompiler()
        one = BatchJob(circuit=_circuit(), label="one")
        two = BatchJob(circuit=_circuit(), label="two")
        assert engine.result_key(one) == engine.result_key(two)

    def test_engine_key_changes_with_circuit_and_strategy(self):
        engine = BatchCompiler()
        base = engine.result_key(_job())
        assert base != engine.result_key(_job(nodes=5))
        assert base != engine.result_key(_job(strategy="isa"))

    def test_engine_key_changes_with_the_default_device(self):
        """A job without a pinned device compiles differently on another
        engine default, so it must not share that engine's identity."""
        assert BatchCompiler().result_key(_job()) != BatchCompiler(
            device="line-4"
        ).result_key(_job())

    def test_engine_key_survives_the_wire(self):
        engine = BatchCompiler()
        job = BatchJob(circuit=_circuit(), device="line-4")
        rebuilt = batch_job_from_dict(batch_job_to_dict(job))
        assert rebuilt.device is not job.device
        assert engine.result_key(rebuilt) == engine.result_key(job)

    def test_uncacheable_job_has_no_key(self):
        unregistered = BatchJob(circuit=_circuit(), strategy=UNREGISTERED)
        assert BatchCompiler().result_key(unregistered) is None

    def test_engine_component_memo_is_keyed_by_device_value(self):
        """Every deserialization builds a fresh Device; an identity-keyed
        memo grew one entry (and one throwaway OCU) per submission."""
        engine = BatchCompiler()
        envelope = batch_job_to_dict(
            BatchJob(circuit=_circuit(), device="line-4")
        )
        keys = {
            engine.result_key(batch_job_from_dict(envelope))
            for _ in range(20)
        }
        assert len(keys) == 1
        assert len(engine._result_components) == 1


class TestStore:
    def test_round_trip_returns_a_fresh_equal_result(self):
        cache = ResultCache()
        result = compile_circuit(_circuit(), CLS)
        cache.put("k", result)
        loaded = cache.get("k")
        assert loaded is not result
        assert canonical_result_dict(loaded) == canonical_result_dict(result)
        # Every hit deserializes anew: callers never share mutable state.
        assert cache.get("k") is not loaded

    def test_miss_and_hit_counters(self):
        cache = ResultCache()
        assert cache.get("absent") is None
        cache.put("k", compile_circuit(_circuit(), CLS))
        assert cache.get("k") is not None
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["stores"] == 1
        assert stats["entries"] == 1
        assert stats["total_bytes"] > 0
        assert stats["lookup_seconds"] > 0

    def test_get_dict_is_the_stored_wire_payload(self):
        """The compile service's result op sends this dict as is."""
        cache = ResultCache()
        result = compile_circuit(_circuit(), CLS)
        cache.put("k", result)
        assert cache.get_dict("absent") is None
        assert cache.get_dict("k") == json.loads(
            json.dumps(result_to_dict(result, include_source=True))
        )
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)

    def test_verify_on_load_accepts_a_genuine_entry(self):
        cache = ResultCache()
        cache.put("k", compile_circuit(_circuit(), CLS))
        loaded = cache.get("k", verify=True)
        assert loaded is not None
        assert cache.stats()["verified_loads"] == 1

    def test_verify_on_load_rejects_a_forged_entry(self, tmp_path):
        """A disk entry whose schedule does not implement its embedded
        source circuit raises at load instead of serving garbage."""
        cache = DiskResultCache(tmp_path / "store")
        result = compile_circuit(_circuit(), CLS)
        cache.put("forged", result)
        # Forge: swap the embedded source for a different program.
        tampered = result.to_dict(include_source=True)
        tampered["source_circuit"] = circuit_to_dict(
            ising_model_circuit(result.logical_qubits)
        )
        path = tmp_path / "store" / "forged.json"
        path.write_text(
            json.dumps(
                {
                    "format": RESULT_CACHE_FORMAT,
                    "key": "forged",
                    "result": tampered,
                }
            )
        )
        fresh = DiskResultCache(tmp_path / "store")
        with pytest.raises(VerificationError):
            fresh.get("forged", verify=True)


class TestEviction:
    def test_lru_eviction_under_a_tight_budget(self):
        entries = {
            f"k{i}": compile_circuit(_circuit(f"evict{i}"), CLS)
            for i in range(3)
        }
        unbounded = ResultCache()
        for key, result in entries.items():
            unbounded.put(key, result)
        one_entry = unbounded.stats()["total_bytes"] // 3
        cache = ResultCache(max_bytes=2 * one_entry + one_entry // 2)
        for key, result in entries.items():
            cache.put(key, result)
        stats = cache.stats()
        assert stats["evictions"] >= 1
        assert stats["evicted_bytes"] > 0
        assert stats["total_bytes"] <= cache.max_bytes
        # Least-recently-used went first; the newest entry survives.
        assert cache.get("k0") is None
        assert cache.get("k2") is not None

    def test_get_refreshes_recency(self):
        entries = {
            f"k{i}": compile_circuit(_circuit(f"lru{i}"), CLS)
            for i in range(3)
        }
        unbounded = ResultCache()
        for key, result in entries.items():
            unbounded.put(key, result)
        one_entry = unbounded.stats()["total_bytes"] // 3
        cache = ResultCache(max_bytes=2 * one_entry + one_entry // 2)
        cache.put("k0", entries["k0"])
        cache.put("k1", entries["k1"])
        assert cache.get("k0") is not None  # k1 becomes the LRU victim
        cache.put("k2", entries["k2"])
        assert cache.get("k1") is None
        assert cache.get("k0") is not None

    def test_one_oversized_entry_still_caches(self):
        cache = ResultCache(max_bytes=1)
        cache.put("big", compile_circuit(_circuit(), CLS))
        assert cache.get("big") is not None
        assert cache.stats()["evictions"] == 0


class TestDiskRestart:
    def test_restart_serves_every_job_with_zero_model_evals(self, tmp_path):
        """The kill-and-restart contract: a fresh engine over the same
        directory re-serves the whole batch without compiling."""
        directory = tmp_path / "results"
        jobs = [
            BatchJob(circuit=_circuit(f"disk{i}"), strategy=strategy)
            for i in range(2)
            for strategy in (CLS, CLS_AGGREGATION)
        ]
        first = BatchCompiler(result_cache=DiskResultCache(directory))
        cold = first.compile_batch(jobs)
        assert cold.result_cache["stores"] == len(jobs)

        # "Kill": everything in-memory is gone; only the directory lives.
        reborn = BatchCompiler(result_cache=DiskResultCache(directory))
        warm = reborn.compile_batch(jobs)
        assert warm.result_cache["hits"] == len(jobs)
        assert warm.result_cache["compiled"] == 0
        assert reborn.lifetime_info["model_evals"] == 0
        for a, b in zip(cold, warm):
            assert canonical_result_dict(a) == canonical_result_dict(b)

    def test_torn_or_foreign_files_read_as_misses(self, tmp_path):
        directory = tmp_path / "store"
        DiskResultCache(directory).put(
            "good", compile_circuit(_circuit(), CLS)
        )
        (directory / "torn.json").write_text(
            '{"format": "%s", "key": "torn", "res' % RESULT_CACHE_FORMAT
        )
        (directory / "foreign.json").write_text(
            json.dumps({"format": "repro-ir-v1", "kind": "result"})
        )
        reborn = DiskResultCache(directory)
        assert "torn" not in reborn
        assert reborn.get("torn") is None
        assert reborn.get("foreign") is None
        assert reborn.get("good") is not None
        assert len(reborn) == 1
        assert reborn.stats()["disk_hits"] == 1

    def test_membership_reads_through_to_disk(self, tmp_path):
        """An entry another process wrote after this store loaded is
        found by ``in`` exactly as ``get`` would find it."""
        directory = tmp_path / "store"
        early = DiskResultCache(directory)
        DiskResultCache(directory).put("late", compile_circuit(_circuit(), CLS))
        assert "late" in early
        assert early.stats()["disk_hits"] == 1

    def test_string_spec_mounts_a_disk_store(self, tmp_path):
        directory = str(tmp_path / "spec")
        engine = BatchCompiler(result_cache=directory)
        assert isinstance(engine.result_cache, DiskResultCache)
        engine.compile_batch([_job()])
        reborn = BatchCompiler(result_cache=directory)
        report = reborn.compile_batch([_job()])
        assert report.result_cache["hits"] == 1


class TestDiskReadThrough:
    def test_construction_reads_no_entry_file(self, tmp_path, monkeypatch):
        directory = tmp_path / "store"
        writer = DiskResultCache(directory)
        for key in ("a", "b"):
            writer.put(key, compile_circuit(_circuit(key), CLS))

        def unexpected_read(self, key):
            raise AssertionError(f"entry {key!r} read at construction")

        monkeypatch.setattr(DiskResultCache, "_read_file", unexpected_read)
        reborn = DiskResultCache(directory)
        monkeypatch.undo()
        assert len(reborn) == 0
        assert reborn.stats()["total_bytes"] == 0
        assert reborn.get("a") is not None
        assert len(reborn) == 1
        assert reborn.stats()["disk_hits"] == 1


class TestOneShotCompile:
    def test_second_call_is_served_from_the_cache(self):
        cache = ResultCache()
        engine = BatchCompiler(result_cache=cache)
        fresh = engine.compile(_circuit(), CLS)
        served = engine.compile(_circuit(), CLS)
        assert cache.stats()["hits"] == 1
        assert cache.stats()["stores"] == 1
        assert canonical_result_dict(fresh) == canonical_result_dict(served)

    def test_different_strategy_misses(self):
        cache = ResultCache()
        engine = BatchCompiler(result_cache=cache)
        engine.compile(_circuit(), CLS)
        engine.compile(_circuit(), CLS_AGGREGATION)
        assert cache.stats()["hits"] == 0
        assert cache.stats()["stores"] == 2

    def test_cross_layer_parity_with_the_batch_engine(self):
        """compile() and compile_batch on separate engines resolve the
        same job to the same key, so either entry point can serve the
        other."""
        cache = ResultCache()
        BatchCompiler(result_cache=cache).compile(_circuit(), CLS)
        report = BatchCompiler(result_cache=cache).compile_batch([_job()])
        assert report.result_cache["hits"] == 1
        assert report.cache_info["model_evals"] == 0


class TestBatchIntegration:
    def test_in_batch_duplicates_compile_once(self):
        engine = BatchCompiler(result_cache=ResultCache())
        jobs = [
            BatchJob(circuit=_circuit(), strategy="cls", label="a"),
            BatchJob(circuit=_circuit(), strategy="cls", label="b"),
            _job(name="distinct"),
        ]
        report = engine.compile_batch(jobs)
        assert report.result_cache["deduped"] == 1
        assert report.result_cache["compiled"] == 2
        assert report.seconds[1] == 0.0
        assert canonical_result_dict(report[0]) == canonical_result_dict(
            report[1]
        )

    def test_uncacheable_jobs_still_compile(self):
        engine = BatchCompiler(result_cache=ResultCache())
        unregistered = BatchJob(circuit=_circuit(), strategy=UNREGISTERED)
        report = engine.compile_batch([unregistered, unregistered])
        assert report.result_cache["uncacheable"] == 2
        assert report.result_cache["compiled"] == 2
        assert len(report) == 2
        # Same flags as CLS, so the same schedule under its own label.
        reference = compile_circuit(_circuit(), CLS)
        assert report[0].strategy_key == "rc-unregistered"
        assert report[0].latency_ns == reference.latency_ns

    def test_run_job_single_serves_from_the_store(self):
        engine = BatchCompiler(result_cache=ResultCache())
        first, _, counters = engine.run_job(_job())
        again, seconds, counters = engine.run_job(_job())
        assert counters["model_evals"] == 0
        assert canonical_result_dict(first) == canonical_result_dict(again)


class TestPassBilling:
    """A batch and the engine bill pass time only for the jobs whose
    passes ran: served and deduplicated jobs add nothing."""

    def test_served_batch_bills_no_pass_time(self):
        engine = BatchCompiler(result_cache=ResultCache())
        jobs = [_job(), _job(strategy="cls+aggregation")]
        cold = engine.compile_batch(jobs)
        assert cold.pass_seconds
        assert engine.lifetime_pass_seconds == cold.pass_seconds
        lifetime = dict(engine.lifetime_pass_seconds)
        warm = engine.compile_batch(jobs)
        assert warm.result_cache["compiled"] == 0
        assert warm.pass_seconds == {}
        assert engine.lifetime_pass_seconds == lifetime
        # The served results still carry their one compile's timing.
        assert all(result.pass_seconds for result in warm)

    def test_duplicate_job_is_billed_one_compile(self):
        engine = BatchCompiler(result_cache=ResultCache())
        jobs = [
            BatchJob(circuit=_circuit(), strategy="cls+aggregation", label=label)
            for label in ("a", "b")
        ]
        report = engine.compile_batch(jobs)
        assert report.result_cache["deduped"] == 1
        assert report.pass_seconds == report[0].pass_seconds
        assert engine.lifetime_pass_seconds == report[0].pass_seconds

    def test_run_job_bills_misses_only(self):
        engine = BatchCompiler(result_cache=ResultCache())
        first, _, _ = engine.run_job(_job())
        assert engine.lifetime_pass_seconds == first.pass_seconds
        engine.run_job(_job())
        assert engine.lifetime_pass_seconds == first.pass_seconds

    def test_lifetime_sums_every_compiled_batch(self):
        engine = BatchCompiler()
        first = engine.compile_batch([_job()])
        second = engine.compile_batch([_job()])
        assert set(engine.lifetime_pass_seconds) == set(first.pass_seconds)
        for name, seconds in engine.lifetime_pass_seconds.items():
            assert seconds == pytest.approx(
                first.pass_seconds[name] + second.pass_seconds[name]
            )
