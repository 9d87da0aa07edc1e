"""Tests for the shared pulse/latency cache backends."""

import contextlib
import json
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.compiler.result_cache import DiskResultCache, ResultCache
from repro.config import CompilerConfig, DeviceConfig
from repro.control.cache import (
    CacheDelta,
    PulseCache,
    RemotePulseCache,
    ShardedDiskPulseCache,
    config_fingerprint,
)
from repro.control.grape import GrapeResult
from repro.control.latency_model import AnalyticLatencyModel
from repro.control.pulse import Pulse
from repro.control.unit import OptimalControlUnit
from repro.errors import ControlError
from repro.gates import library as lib
from repro.ir.serialize import cache_delta_from_dict


def _fingerprint(device=None, compiler=None, **overrides):
    kwargs = {
        "device": device or DeviceConfig(),
        "compiler": compiler or CompilerConfig(),
        "grape_qubit_limit": 3,
        "seed": 20190413,
    }
    kwargs.update(overrides)
    return config_fingerprint(**kwargs)


def _grape_result(steps=4, controls=2, seed=7) -> GrapeResult:
    rng = np.random.default_rng(seed)
    pulse = Pulse(
        control_names=[f"c{i}" for i in range(controls)],
        amplitudes=rng.standard_normal((steps, controls)),
        dt=0.5,
    )
    unitary = np.eye(2, dtype=complex) * np.exp(1j * 0.25)
    return GrapeResult(
        fidelity=0.9991,
        converged=True,
        iterations=17,
        pulse=pulse,
        final_unitary=unitary,
        loss_history=[0.5, 0.1, 0.0009],
    )


class TestFingerprint:
    def test_deterministic(self):
        assert _fingerprint() == _fingerprint()

    def test_device_changes_fingerprint(self):
        assert _fingerprint() != _fingerprint(
            device=DeviceConfig(coupling_limit_ghz=0.04)
        )

    def test_compiler_changes_fingerprint(self):
        assert _fingerprint() != _fingerprint(
            compiler=CompilerConfig(fidelity_threshold=0.99)
        )

    def test_grape_settings_change_fingerprint(self):
        assert _fingerprint() != _fingerprint(
            compiler=CompilerConfig(grape_dt_ns=0.25)
        )
        assert _fingerprint() != _fingerprint(seed=1)
        assert _fingerprint() != _fingerprint(grape_qubit_limit=4)

    def test_settings_after_the_compiler_are_keyword_only(self):
        # The GRAPE step is read from the compiler config, so a caller
        # still passing it positionally fails loudly instead of hashing
        # the step as the seed.
        with pytest.raises(TypeError):
            config_fingerprint(DeviceConfig(), CompilerConfig(), 3, 0.5, 20190413)
        with pytest.raises(TypeError):
            _fingerprint(grape_dt=0.5)

    def test_aggregation_rounds_do_not_change_fingerprint(self):
        # The round cap shapes which merges execute, never the latency
        # or pulse of a given instruction; an ablation sweep over it
        # must keep hitting the same cache entries.
        assert _fingerprint() == _fingerprint(
            compiler=CompilerConfig(max_aggregation_rounds=1)
        )


class TestPulseCache:
    def test_latency_round_trip(self):
        cache = PulseCache()
        key = ("fp", "model", (1, ()))
        assert cache.get_latency(key) is None
        cache.put_latency(key, 47.1)
        assert cache.get_latency(key) == 47.1
        assert cache.latency_count == 1

    def test_pulse_round_trip(self):
        cache = PulseCache()
        key = ("fp", (2, ()))
        assert cache.get_pulse(key) is None
        result = _grape_result()
        cache.put_pulse(key, result)
        assert cache.get_pulse(key) is result
        assert cache.pulse_count == 1

    def test_stats_track_hits_and_misses(self):
        cache = PulseCache()
        cache.get_latency(("a",))
        cache.put_latency(("a",), 1.0)
        cache.get_latency(("a",))
        stats = cache.stats()
        assert stats["store_hits"] == 1
        assert stats["store_misses"] == 1
        assert stats["store_writes"] == 1

    def test_merge_delta_counts_new_entries(self):
        cache = PulseCache()
        cache.put_latency(("old",), 1.0)
        delta = CacheDelta(
            latencies={("old",): 1.0, ("new",): 2.0},
            pulses={("p",): _grape_result()},
        )
        assert cache.merge_delta(delta) == 2
        assert cache.get_latency(("new",)) == 2.0


class TestEviction:
    """LRU byte-budget eviction (shared by every cache backend)."""

    def _latency_budget(self, *keys):
        from repro.control.cache.store import latency_entry_bytes

        return sum(latency_entry_bytes(key) for key in keys)

    def test_unbounded_by_default(self):
        cache = PulseCache()
        for i in range(100):
            cache.put_latency((f"k{i}",), float(i))
        assert cache.latency_count == 100
        assert cache.stats()["evictions"] == 0

    def test_budget_evicts_least_recently_used(self):
        keys = [("a",), ("b",), ("c",)]
        cache = PulseCache(max_bytes=self._latency_budget(*keys[:2]))
        cache.put_latency(keys[0], 1.0)
        cache.put_latency(keys[1], 2.0)
        cache.put_latency(keys[2], 3.0)  # evicts ("a",), the LRU
        assert cache.get_latency(keys[0]) is None
        assert cache.get_latency(keys[1]) == 2.0
        assert cache.get_latency(keys[2]) == 3.0
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["total_bytes"] <= stats["max_bytes"]

    def test_get_refreshes_recency(self):
        keys = [("a",), ("b",), ("c",)]
        cache = PulseCache(max_bytes=self._latency_budget(*keys[:2]))
        cache.put_latency(keys[0], 1.0)
        cache.put_latency(keys[1], 2.0)
        cache.get_latency(keys[0])  # ("a",) is now the most recent
        cache.put_latency(keys[2], 3.0)  # so ("b",) is the victim
        assert cache.get_latency(keys[0]) == 1.0
        assert cache.get_latency(keys[1]) is None

    def test_entry_being_written_is_never_the_victim(self):
        # One pulse entry dwarfs the whole budget; it must still
        # round-trip (put-then-get hits) and evict everything *else*.
        cache = PulseCache(max_bytes=16)
        cache.put_latency(("small",), 1.0)
        result = _grape_result()
        cache.put_pulse(("fp", (1, ())), result)
        assert cache.get_pulse(("fp", (1, ()))) is result
        assert cache.get_latency(("small",)) is None

    def test_recency_is_global_across_latencies_and_pulses(self):
        result = _grape_result()
        from repro.control.cache.store import pulse_entry_bytes

        budget = pulse_entry_bytes(("fp", (1, ())), result) + self._latency_budget(
            ("b",)
        )
        cache = PulseCache(max_bytes=budget)
        cache.put_pulse(("fp", (1, ())), result)
        cache.put_latency(("b",), 2.0)
        cache.get_pulse(("fp", (1, ())))  # pulse most recent
        cache.put_latency(("c",), 3.0)  # latency ("b",) is the global LRU
        assert cache.get_latency(("b",)) is None
        assert cache.get_pulse(("fp", (1, ()))) is result

    def test_merge_delta_respects_budget(self):
        keys = [(f"k{i}",) for i in range(6)]
        cache = PulseCache(max_bytes=self._latency_budget(*keys[:3]))
        cache.merge_delta(
            CacheDelta(latencies={key: float(i) for i, key in enumerate(keys)})
        )
        assert cache.latency_count == 3
        assert cache.stats()["evictions"] == 3

    def test_disk_cache_budget_applies_on_load(self, tmp_path):
        directory = tmp_path / "cache"
        big = ShardedDiskPulseCache(directory, shards=1)
        keys = [("fp", "model", (i, ())) for i in range(4)]
        for i, key in enumerate(keys):
            big.put_latency(key, float(i))
        big.save()
        bounded = ShardedDiskPulseCache(
            directory, max_bytes=self._latency_budget(*keys[:2])
        )
        assert bounded.latency_count == 2
        # The budget governs the persisted shard too: the next flush
        # writes only what fits in max_bytes // shards.
        bounded.put_latency(keys[3], 3.0)
        bounded.save()
        assert ShardedDiskPulseCache(directory).loaded_entries == 2


class TestBudgetValidation:
    """One budget rule for every store: ``max_bytes`` is None or positive."""

    BACKENDS = {
        "memory": lambda path, budget: PulseCache(max_bytes=budget),
        "sharded": lambda path, budget: ShardedDiskPulseCache(
            path, max_bytes=budget
        ),
        # Never connects: the budget is checked before any round trip.
        "remote": lambda path, budget: RemotePulseCache(
            "127.0.0.1:1", max_bytes=budget
        ),
        "result": lambda path, budget: ResultCache(max_bytes=budget),
        "disk-result": lambda path, budget: DiskResultCache(
            path, max_bytes=budget
        ),
    }

    @pytest.mark.parametrize("budget", [0, -1])
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_non_positive_budget_rejected(self, backend, budget, tmp_path):
        # A zero budget would leave a pulse store keeping nothing (every
        # merge evicted at once); the result caches always refused it.
        with pytest.raises(ValueError, match="max_bytes"):
            self.BACKENDS[backend](tmp_path / "store", budget)

    def test_unbounded_and_positive_budgets_accepted(self, tmp_path):
        for name, build in self.BACKENDS.items():
            assert build(tmp_path / name / "none", None).max_bytes is None
            assert build(tmp_path / name / "one", 1).max_bytes == 1


class TestMergeDeltaProperties:
    """The algebra the fleet-wide delta sync relies on."""

    def _snapshot(self, cache):
        snapshot = cache.snapshot_delta()
        return (snapshot.latencies, snapshot.pulses)

    def test_merging_same_delta_twice_changes_nothing(self):
        cache = PulseCache()
        delta = CacheDelta(
            latencies={("a",): 1.0, ("b",): 2.0},
            pulses={("fp", (1, ())): _grape_result()},
        )
        assert cache.merge_delta(delta) == 3
        before = self._snapshot(cache)
        assert cache.merge_delta(delta) == 0  # idempotent: nothing new
        assert self._snapshot(cache) == before

    def test_interleaved_merges_commute(self):
        delta_a = CacheDelta(
            latencies={("a",): 1.0, ("shared",): 5.0},
            pulses={("fp", (1, ())): _grape_result(seed=1)},
        )
        delta_b = CacheDelta(
            latencies={("b",): 2.0, ("shared",): 5.0},
            pulses={("fp", (2, ())): _grape_result(seed=2)},
        )
        forward, backward = PulseCache(), PulseCache()
        forward.merge_delta(delta_a)
        forward.merge_delta(delta_b)
        backward.merge_delta(delta_b)
        backward.merge_delta(delta_a)
        forward_snapshot = forward.snapshot_delta()
        backward_snapshot = backward.snapshot_delta()
        assert forward_snapshot.latencies == backward_snapshot.latencies
        assert set(forward_snapshot.pulses) == set(backward_snapshot.pulses)
        assert forward.latency_count == 3

    def test_new_entry_counts_sum_to_distinct_keys(self):
        # However merges interleave, the per-merge "new" counts total
        # the number of distinct keys — the invariant the exactly-once
        # accounting in the benchmarks is built on.
        delta_a = CacheDelta(latencies={("a",): 1.0, ("shared",): 5.0})
        delta_b = CacheDelta(latencies={("b",): 2.0, ("shared",): 5.0})
        cache = PulseCache()
        total = cache.merge_delta(delta_a) + cache.merge_delta(delta_b)
        assert total == 3 == cache.latency_count

    def test_extend_is_last_write_wins(self):
        base = CacheDelta(latencies={("a",): 1.0})
        base.extend(CacheDelta(latencies={("a",): 1.0, ("b",): 2.0}))
        assert len(base) == 2


class TestCrashSafety:
    def test_save_leaves_no_temp_files(self, tmp_path):
        cache = ShardedDiskPulseCache(tmp_path / "cache", shards=1)
        cache.put_latency(("fp", "model", (1, ())), 1.0)
        cache.put_pulse(("fp", (1, ())), _grape_result())
        cache.save()
        cache.put_latency(("fp", "model", (2, ())), 2.0)
        cache.save()  # overwrite path too
        leftovers = [
            name for name in os.listdir(tmp_path / "cache") if ".tmp" in name
        ]
        assert leftovers == []

    def test_failed_write_preserves_old_file_and_cleans_temp(self, tmp_path):
        from repro.control.cache.disk import replace_into

        final = tmp_path / "cache.json"
        final.write_text("precious")

        def exploding_writer(handle):
            handle.write(b"partial")
            raise OSError("disk full")

        with pytest.raises(OSError):
            replace_into(exploding_writer, str(final), ".tmp.json")
        assert final.read_text() == "precious"
        assert list(tmp_path.iterdir()) == [final]


class TestSingleFlight:
    def test_threads_missing_one_latency_evaluate_the_model_once(
        self, monkeypatch
    ):
        store = PulseCache()
        units = [OptimalControlUnit(cache=store) for _ in range(2)]
        both_missed = threading.Event()
        misses = []
        lookup = store.get_latency

        def counted_lookup(key):
            value = lookup(key)
            if value is None:
                misses.append(key)
                if len(misses) == 2:
                    both_missed.set()
            return value

        evaluate = AnalyticLatencyModel.sequence_latency
        evaluations = []

        def held_evaluate(model, gates):
            evaluations.append(gates)
            # The first evaluation waits until the other thread's lookup
            # has missed too, so the two misses overlap; the guard then
            # keeps the second thread out of the model.
            both_missed.wait(timeout=10)
            return evaluate(model, gates)

        monkeypatch.setattr(store, "get_latency", counted_lookup)
        monkeypatch.setattr(AnalyticLatencyModel, "sequence_latency", held_evaluate)
        gate = lib.CNOT(0, 1)
        with ThreadPoolExecutor(max_workers=2) as pool:
            values = list(pool.map(lambda unit: unit.latency(gate), units))
        assert len(misses) == 2
        assert len(evaluations) == 1
        assert values[0] == values[1]
        assert sorted(unit.model_evals for unit in units) == [0, 1]
        assert sorted(unit.cache_hits for unit in units) == [0, 1]
        assert store._key_locks == {}

    def test_thread_stress_evaluates_each_latency_once(self):
        # More threads than cores, switching often, every thread wanting
        # every key from its own offset: each latency is evaluated once.
        store = PulseCache()
        gates = [lib.RZ(0.1 * (k + 1), 0) for k in range(24)]
        units = [OptimalControlUnit(cache=store) for _ in range(8)]
        start = threading.Barrier(len(units))

        def worker(index: int) -> int:
            start.wait(timeout=30)
            for step in range(len(gates)):
                units[index].latency(gates[(3 * index + step) % len(gates)])
            return units[index].model_evals

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(units)) as pool:
                futures = [pool.submit(worker, i) for i in range(len(units))]
                evaluations = sum(future.result(timeout=60) for future in futures)
        finally:
            sys.setswitchinterval(interval)
        assert evaluations == store.latency_count == len(gates)
        assert store._key_locks == {}


class TestWrittenRecord:
    def test_a_hit_records_nothing(self):
        store = PulseCache()
        gate = lib.CNOT(0, 1)
        first = OptimalControlUnit(cache=store)
        first.latency(gate)
        first.model_latency(gate)  # same model key: a hit
        assert list(first.written.latencies.values()) == [first.latency(gate)]
        second = OptimalControlUnit(cache=store)
        second.latency(gate)
        assert len(second.written) == 0

    def test_a_grape_miss_records_its_latency_and_pulse(self):
        store = PulseCache()
        unit = OptimalControlUnit(backend="grape", seed=11, cache=store)
        latency = unit.latency(lib.H(0))
        assert unit.grape_calls == 1
        ((latency_key, value),) = unit.written.latencies.items()
        assert value == latency == store.get_latency(latency_key)
        ((pulse_key, pulse),) = unit.written.pulses.items()
        assert store.get_pulse(pulse_key) is pulse


class TestExclusivePublishing:
    def test_synthesized_pulse_is_stored_before_exclusive_releases(self):
        class Recording(PulseCache):
            @contextlib.contextmanager
            def exclusive(self, key):
                with super().exclusive(key):
                    yield
                    # Still inside the guard: peers blocked on it must
                    # find the pulse on their re-check.
                    self.held_at_release = self.pulse_count

        store = Recording()
        unit = OptimalControlUnit(backend="grape", seed=11, cache=store)
        unit.synthesize_pulse(lib.H(0))
        assert unit.grape_calls == 1
        assert store.held_at_release == 1

    def test_recheck_hit_under_the_guard_writes_nothing(self):
        published = _grape_result()

        class PeerPublishes(PulseCache):
            def exclusive(self, key):
                # A peer synthesized and published while we waited.
                self.put_pulse(key, published)
                self.writes_before = self.stores
                return super().exclusive(key)

        store = PeerPublishes()
        unit = OptimalControlUnit(backend="grape", seed=11, cache=store)
        assert unit.synthesize_pulse(lib.H(0)) is published
        assert store.stores == store.writes_before
        assert unit.grape_calls == 0
        assert len(unit.written) == 0


class TestDiskStore:
    def test_round_trip_latencies_and_pulses(self, tmp_path):
        directory = tmp_path / "cache"
        cache = ShardedDiskPulseCache(directory)
        latency_key = ("fp", "model", (2, (("CNOT", (), (0, 1)),)))
        pulse_key = ("fp", (2, (("CNOT", (), (0, 1)),)))
        cache.put_latency(latency_key, 47.1)
        original = _grape_result()
        cache.put_pulse(pulse_key, original)
        assert cache.save() == 2

        reloaded = ShardedDiskPulseCache(directory)
        assert reloaded.loaded_entries == 2
        assert reloaded.get_latency(latency_key) == 47.1
        restored = reloaded.get_pulse(pulse_key)
        assert restored.fidelity == original.fidelity
        assert restored.converged == original.converged
        assert restored.iterations == original.iterations
        assert restored.pulse.dt == original.pulse.dt
        assert restored.pulse.control_names == original.pulse.control_names
        np.testing.assert_array_equal(
            restored.pulse.amplitudes, original.pulse.amplitudes
        )
        np.testing.assert_array_equal(
            restored.final_unitary, original.final_unitary
        )
        assert restored.loss_history == pytest.approx(original.loss_history)

    def test_missing_files_load_empty(self, tmp_path):
        cache = ShardedDiskPulseCache(tmp_path / "nothing")
        assert cache.loaded_entries == 0
        assert cache.latency_count == 0

    def test_unknown_format_rejected(self, tmp_path):
        # A directory from before single-file shards: a v1 manifest.
        old = tmp_path / "old"
        old.mkdir()
        (old / "sharding.json").write_text(
            '{"format": "repro-pulse-cache-sharded-v1", "shards": 8}'
        )
        with pytest.raises(ControlError, match="repro-pulse-cache-sharded-v1"):
            ShardedDiskPulseCache(old)
        # A shard file that is not a cache_delta envelope.
        ShardedDiskPulseCache(tmp_path / "cache", shards=1)
        (tmp_path / "cache" / "shard-000.json").write_text('{"format": "bogus"}')
        with pytest.raises(ControlError, match="shard-000.json"):
            ShardedDiskPulseCache(tmp_path / "cache")

    @pytest.mark.parametrize(
        "text",
        [
            "",
            '{"format": "repro-pulse-cache-sharded-v2", "sha',
            "[8]",
            '{"format": "repro-pulse-cache-sharded-v2"}',
            '{"format": "repro-pulse-cache-sharded-v2", "shards": 0}',
            '{"format": "repro-pulse-cache-sharded-v2", "shards": "8"}',
            '{"format": "repro-pulse-cache-sharded-v2", "shards": 8.0}',
            '{"format": "repro-pulse-cache-sharded-v2", "shards": true}',
        ],
        ids=[
            "empty",
            "truncated",
            "list",
            "no-shards",
            "zero-shards",
            "string-shards",
            "float-shards",
            "bool-shards",
        ],
    )
    def test_damaged_manifest_rejected(self, tmp_path, text):
        directory = tmp_path / "cache"
        directory.mkdir()
        (directory / "sharding.json").write_text(text)
        with pytest.raises(ControlError, match="sharding.json"):
            ShardedDiskPulseCache(directory)

    def test_failed_manifest_write_leaves_nothing_behind(
        self, tmp_path, monkeypatch
    ):
        directory = tmp_path / "cache"

        def fail(fd):
            raise OSError("injected fsync failure")

        monkeypatch.setattr(os, "fsync", fail)
        with pytest.raises(OSError, match="injected"):
            ShardedDiskPulseCache(directory, shards=2)
        monkeypatch.undo()
        files = [name for name in os.listdir(directory) if name != "locks"]
        assert files == []
        assert ShardedDiskPulseCache(directory, shards=2).shards == 2
        assert ShardedDiskPulseCache(directory).shards == 2

    def test_shard_is_one_cache_delta_file(self, tmp_path):
        directory = tmp_path / "cache"
        cache = ShardedDiskPulseCache(directory, shards=1)
        latency_key = ("fp", "model", (1, (("H", (), (0,)),)))
        pulse_key = ("fp", (1, (("H", (), (0,)),)))
        cache.put_latency(latency_key, 5.0)
        cache.put_pulse(pulse_key, _grape_result())
        cache.save()
        files = sorted(
            name for name in os.listdir(directory) if os.path.isfile(directory / name)
        )
        assert files == ["shard-000.json", "sharding.json"]
        with open(cache.shard_path(0), encoding="utf-8") as handle:
            shard = cache_delta_from_dict(json.load(handle))
        assert shard.latencies == {latency_key: 5.0}
        assert list(shard.pulses) == [pulse_key]

    def test_same_keys_different_insertion_order_not_crossed(self, tmp_path):
        """Two saves of the same pulse set in different insertion order
        must each restore every key to its own pulse."""
        key_a = ("fp", (1, (("H", (), (0,)),)))
        key_b = ("fp", (1, (("X", (), (0,)),)))
        result_a = _grape_result(seed=1)
        result_b = _grape_result(seed=2)

        first = ShardedDiskPulseCache(tmp_path / "first", shards=1)
        first.put_pulse(key_a, result_a)
        first.put_pulse(key_b, result_b)
        first.save()
        second = ShardedDiskPulseCache(tmp_path / "second", shards=1)
        second.put_pulse(key_b, result_b)
        second.put_pulse(key_a, result_a)
        second.save()

        for directory in ("first", "second"):
            reloaded = ShardedDiskPulseCache(tmp_path / directory)
            for key, result in ((key_a, result_a), (key_b, result_b)):
                np.testing.assert_array_equal(
                    reloaded.get_pulse(key).pulse.amplitudes,
                    result.pulse.amplitudes,
                )

    def test_missing_shard_file_is_an_empty_shard(self, tmp_path):
        directory = tmp_path / "cache"
        cache = ShardedDiskPulseCache(directory, shards=4)
        keys = [("fp", "model", (1, ((f"G{i}", (), (0,)),))) for i in range(32)]
        for index, key in enumerate(keys):
            cache.put_latency(key, float(index))
        cache.save()
        lost = cache.shard_of(keys[0])
        os.unlink(cache.shard_path(lost))

        reloaded = ShardedDiskPulseCache(directory)
        for index, key in enumerate(keys):
            expected = None if cache.shard_of(key) == lost else float(index)
            assert reloaded.get_latency(key) == expected
        assert 0 < reloaded.loaded_entries < len(keys)


class TestSharedCacheAcrossUnits:
    def test_units_with_same_config_share_entries(self):
        store = PulseCache()
        first = OptimalControlUnit(cache=store)
        second = OptimalControlUnit(cache=store)
        first.latency(lib.CNOT(0, 1))
        assert first.model_evals == 1
        second.latency(lib.CNOT(0, 1))
        assert second.model_evals == 0
        assert second.cache_hits == 1

    def test_different_device_does_not_share(self):
        store = PulseCache()
        first = OptimalControlUnit(cache=store)
        other_device = DeviceConfig(coupling_limit_ghz=0.04)
        second = OptimalControlUnit(device=other_device, cache=store)
        first.latency(lib.CNOT(0, 1))
        second.latency(lib.CNOT(0, 1))
        assert second.model_evals == 1
        assert store.latency_count == 2

    def test_warm_disk_cache_skips_model(self, tmp_path):
        directory = tmp_path / "cache"
        cold_cache = ShardedDiskPulseCache(directory)
        cold = OptimalControlUnit(cache=cold_cache)
        gates = [lib.CNOT(0, 1), lib.SWAP(1, 2), lib.H(0), lib.RZ(0.3, 2)]
        cold_values = [cold.latency(gate) for gate in gates]
        assert cold.model_evals == len(gates)
        cold_cache.save()

        warm = OptimalControlUnit(cache=ShardedDiskPulseCache(directory))
        warm_values = [warm.latency(gate) for gate in gates]
        assert warm_values == cold_values  # bit-identical through JSON
        assert warm.model_evals == 0

    def test_warm_disk_cache_skips_grape(self, tmp_path):
        directory = tmp_path / "cache"
        cold_cache = ShardedDiskPulseCache(directory)
        cold = OptimalControlUnit(backend="grape", seed=11, cache=cold_cache)
        cold_latency = cold.latency(lib.H(0))
        assert cold.grape_calls == 1
        cold_cache.save()

        warm = OptimalControlUnit(
            backend="grape", seed=11, cache=ShardedDiskPulseCache(directory)
        )
        assert warm.latency(lib.H(0)) == cold_latency
        assert warm.grape_calls == 0
        pulse = warm.synthesize_pulse(lib.H(0))
        assert pulse.converged
        assert warm.grape_calls == 0
