"""Tests for the shared pulse/latency cache backends."""

import json
import os
import pickle

import numpy as np
import pytest

from repro.compiler.result_cache import DiskResultCache, ResultCache
from repro.config import CompilerConfig, DeviceConfig
from repro.control.cache import (
    CacheDelta,
    CacheSession,
    PulseCache,
    RemotePulseCache,
    ShardedDiskPulseCache,
    config_fingerprint,
)
from repro.control.grape import GrapeResult
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
        "grape_dt": 0.5,
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
        assert _fingerprint() != _fingerprint(grape_dt=0.25)
        assert _fingerprint() != _fingerprint(seed=1)
        assert _fingerprint() != _fingerprint(grape_qubit_limit=4)

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

    def test_picklable_across_processes(self):
        cache = PulseCache()
        cache.put_latency(("k",), 3.5)
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.get_latency(("k",)) == 3.5
        clone.put_latency(("k2",), 4.5)  # lock was reconstructed


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


class TestCacheSession:
    def test_reads_fall_through_to_store(self):
        store = PulseCache()
        store.put_latency(("k",), 9.0)
        session = CacheSession(store)
        assert session.get_latency(("k",)) == 9.0

    def test_writes_buffer_into_delta(self):
        store = PulseCache()
        session = CacheSession(store)
        session.put_latency(("k",), 5.0)
        assert session.get_latency(("k",)) == 5.0
        assert store.get_latency(("k",)) is None
        assert len(session.delta) == 1
        store.merge_delta(session.delta)
        assert store.get_latency(("k",)) == 5.0

    def test_counts_include_both_layers(self):
        store = PulseCache()
        store.put_latency(("a",), 1.0)
        session = CacheSession(store)
        session.put_latency(("b",), 2.0)
        assert session.latency_count == 2

    def test_hit_miss_counters_cover_both_layers(self):
        store = PulseCache()
        store.put_latency(("stored",), 1.0)
        session = CacheSession(store)
        session.put_latency(("buffered",), 2.0)
        session.get_latency(("stored",))  # store layer answers
        session.get_latency(("buffered",))  # delta layer answers
        session.get_latency(("absent",))  # neither does
        session.get_pulse(("fp", (1, ())))  # pulse misses count too
        assert session.hits == 2
        assert session.misses == 2
        stats = session.stats()
        assert stats["session_hits"] == 2
        assert stats["session_misses"] == 2
        assert stats["session_buffered"] == 1

    def test_exclusive_writes_synthesized_pulse_through_to_store(self):
        store = PulseCache()
        session = CacheSession(store)
        key = ("fp", (1, ()))
        with session.exclusive(key):
            assert store.get_pulse(key) is None
            session.put_pulse(key, _grape_result())
        # Published before the guard released: peers blocked on the
        # store's single-flight lock must find it on their re-check.
        assert store.get_pulse(key) is not None

    def test_exclusive_without_synthesis_writes_nothing(self):
        store = PulseCache()
        session = CacheSession(store)
        with session.exclusive(("fp", (1, ()))):
            pass  # re-check found it elsewhere; nothing synthesized
        assert store.pulse_count == 0


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
