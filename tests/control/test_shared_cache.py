"""Tests for the fleet-shared cache: sharded store, wire protocol, server.

The multiprocess stress classes are the PR's load-bearing guarantee:
N worker processes hammering one shared store (sharded directory, then
the socket server) with overlapping signatures must lose no writes,
corrupt no shard files, and synthesize each distinct signature exactly
once *fleet-wide*.  Synthesis is stubbed (a deterministic GrapeResult
built from the key) so the stress stays in the tier-1 time budget —
the real-GRAPE path is covered by the benchmarks.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np
import pytest

from repro.control.cache import (
    DEFAULT_SHARDS,
    CacheDelta,
    CacheServer,
    ProtocolError,
    PulseCache,
    RemotePulseCache,
    ShardedDiskPulseCache,
    parse_cache_url,
    resolve_cache,
)
from repro.control.cache.client import DEFAULT_FLUSH_THRESHOLD
from repro.control.cache.metrics import cache_summary, format_bytes, hit_rate
from repro.control.cache.protocol import (
    decode_latency_key,
    decode_pulse_key,
    encode_latency_key,
    encode_pulse_key,
    recv_message,
    send_message,
)
from repro.control.cache.store import LATENCY, entry_bytes, latency_entry_bytes
from repro.control.grape import GrapeResult
from repro.control.pulse import Pulse
from repro.errors import ControlError
from repro.ir.serialize import cache_delta_from_dict


def _result(seed: int = 7, steps: int = 4) -> GrapeResult:
    rng = np.random.default_rng(seed)
    return GrapeResult(
        fidelity=0.999,
        converged=True,
        iterations=9,
        pulse=Pulse(
            control_names=["c0", "c1"],
            amplitudes=rng.standard_normal((steps, 2)),
            dt=0.5,
        ),
        final_unitary=np.eye(2, dtype=complex),
        loss_history=[0.4, 0.01],
    )


def _pulse_key(index: int) -> tuple:
    return ("fp", (1, ((f"G{index}", (), (0,)),)))


def _latency_key(index: int) -> tuple:
    return ("fp", "model", (1, ((f"G{index}", (), (0,)),)))


# ----------------------------------------------------------------------
# Sharded directory store


class TestShardedStore:
    def test_round_trip_across_instances(self, tmp_path):
        first = ShardedDiskPulseCache(tmp_path / "cache", shards=4)
        first.put_latency(_latency_key(0), 12.5)
        first.put_pulse(_pulse_key(0), _result())
        first.save()

        second = ShardedDiskPulseCache(tmp_path / "cache")
        assert second.shards == 4  # adopted from sharding.json
        assert second.get_latency(_latency_key(0)) == 12.5
        restored = second.get_pulse(_pulse_key(0))
        np.testing.assert_array_equal(
            restored.pulse.amplitudes, _result().pulse.amplitudes
        )

    def test_conflicting_shard_count_rejected(self, tmp_path):
        ShardedDiskPulseCache(tmp_path / "cache", shards=4)
        with pytest.raises(ControlError, match="sharded 4 ways"):
            ShardedDiskPulseCache(tmp_path / "cache", shards=8)

    def test_entries_spread_across_shard_files(self, tmp_path):
        cache = ShardedDiskPulseCache(tmp_path / "cache", shards=4)
        for index in range(32):
            cache.put_latency(_latency_key(index), float(index))
        cache.save()
        shard_files = [
            name
            for name in os.listdir(tmp_path / "cache")
            if name.startswith("shard-") and name.endswith(".json")
        ]
        assert len(shard_files) > 1

    def test_miss_read_through_sees_other_writers(self, tmp_path):
        reader = ShardedDiskPulseCache(tmp_path / "cache", shards=2)
        writer = ShardedDiskPulseCache(tmp_path / "cache")
        assert reader.get_latency(_latency_key(1)) is None
        writer.put_latency(_latency_key(1), 8.0)
        writer.save()
        # No restart, no explicit reload: the miss stats the shard file,
        # notices the replace, and reloads it.
        assert reader.get_latency(_latency_key(1)) == 8.0
        assert reader.shard_loads >= 1

    def test_unchanged_shard_not_reloaded(self, tmp_path):
        reader = ShardedDiskPulseCache(tmp_path / "cache", shards=2)
        reader.get_latency(_latency_key(1))
        loads = reader.shard_loads
        reader.get_latency(_latency_key(1))  # same miss, file unchanged
        assert reader.shard_loads == loads

    def test_concurrent_flushes_merge_not_clobber(self, tmp_path):
        # Two instances write different keys (some sharing shards),
        # both flush; the union must survive.
        a = ShardedDiskPulseCache(tmp_path / "cache", shards=2)
        b = ShardedDiskPulseCache(tmp_path / "cache")
        for index in range(0, 10, 2):
            a.put_latency(_latency_key(index), float(index))
        for index in range(1, 10, 2):
            b.put_latency(_latency_key(index), float(index))
        a.save()
        b.save()
        merged = ShardedDiskPulseCache(tmp_path / "cache")
        assert merged.loaded_entries == 10
        for index in range(10):
            assert merged.get_latency(_latency_key(index)) == float(index)

    def test_exclusive_publishes_before_release(self, tmp_path):
        writer = ShardedDiskPulseCache(tmp_path / "cache", shards=2)
        peer = ShardedDiskPulseCache(tmp_path / "cache")
        key = _pulse_key(3)
        with writer.exclusive(key):
            writer.put_pulse(key, _result())
        # The guard flushed on release; a peer's re-check read-through
        # finds the published pulse instead of re-synthesizing.
        assert peer.get_pulse(key) is not None

    def test_exclusive_publishes_only_its_own_shard(self, tmp_path):
        # A peer blocked on the key needs only the key's shard: the
        # release flushes that one, and the other dirty shards wait.
        cache = ShardedDiskPulseCache(tmp_path / "cache", shards=8)
        for index in range(200):
            cache.put_latency(_latency_key(index), float(index))
        assert len(cache._dirty) == 8
        key = _pulse_key(200)
        with cache.exclusive(key):
            cache.put_pulse(key, _result())
        assert cache.shard_flushes == 1
        assert ShardedDiskPulseCache(tmp_path / "cache").get_pulse(key) is not None
        assert len(cache._dirty) == 7
        cache.save()
        assert cache.shard_flushes == 8
        assert not cache._dirty

    def _fill(self, directory, count: int, shards: int = 1) -> None:
        """An unbounded peer flushes ``count`` latencies into the store."""
        writer = ShardedDiskPulseCache(directory, shards=shards)
        for index in range(count):
            writer.put_latency(_latency_key(index), float(index))
        writer.save()

    def test_max_bytes_trims_on_flush(self, tmp_path):
        budget = sum(latency_entry_bytes(_latency_key(i)) for i in range(3))
        self._fill(tmp_path / "cache", 12)
        cache = ShardedDiskPulseCache(tmp_path / "cache", max_bytes=budget)
        cache.put_latency(_latency_key(0), 0.0)
        cache.save()
        assert cache.disk_evictions > 0
        reloaded = ShardedDiskPulseCache(tmp_path / "cache")
        assert 0 < reloaded.loaded_entries <= 3

    def test_flush_keeps_every_shard_within_its_budget(self, tmp_path):
        budget = 4 * sum(latency_entry_bytes(_latency_key(i)) for i in range(4))
        self._fill(tmp_path / "cache", 64, shards=4)
        cache = ShardedDiskPulseCache(tmp_path / "cache", max_bytes=budget)
        for index in range(64, 128):
            cache.put_latency(_latency_key(index), float(index))
        cache.save()
        assert cache.disk_evictions > 0
        for index in range(cache.shards):
            with open(cache.shard_path(index), encoding="utf-8") as handle:
                shard = cache_delta_from_dict(json.load(handle))
            size = sum(
                entry_bytes(LATENCY, key, value)
                for key, value in shard.latencies.items()
            )
            assert 0 < size <= budget // cache.shards

    def test_trim_never_evicts_pulse_mid_exclusive(self, tmp_path):
        # The flush that *publishes* a synthesized pulse must not also
        # evict it, or peers blocked on the key lock re-synthesize and
        # the exactly-once guarantee silently breaks under tight budgets.
        key = _pulse_key(0)
        budget = latency_entry_bytes(_latency_key(0))  # << one pulse
        self._fill(tmp_path / "cache", 8)  # entries the flush must trim
        cache = ShardedDiskPulseCache(tmp_path / "cache", max_bytes=budget)
        with cache.exclusive(key):
            cache.put_pulse(key, _result())
        assert cache.disk_evictions > 0  # the budget did bite
        peer = ShardedDiskPulseCache(tmp_path / "cache")
        assert peer.get_pulse(key) is not None

    def test_reader_never_sees_a_partial_shard(self, tmp_path):
        # A reader opening the directory while a writer keeps flushing
        # pulses sees every pulse flushed before it opened and never
        # raises: each shard is one file, replaced atomically.
        writer = ShardedDiskPulseCache(tmp_path / "cache", shards=2)
        flushed = []

        def keep_flushing():
            for index in range(40):
                writer.put_pulse(_pulse_key(index), _result(seed=index))
                writer.save()
                flushed.append(index)

        thread = threading.Thread(target=keep_flushing)
        thread.start()
        try:
            while thread.is_alive():
                expected = len(flushed)
                reader = ShardedDiskPulseCache(tmp_path / "cache")
                assert reader.pulse_count >= expected
                for index in range(expected):
                    assert reader.get_pulse(_pulse_key(index)) is not None
        finally:
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert ShardedDiskPulseCache(tmp_path / "cache").pulse_count == 40

    def test_threaded_misses_reload_shard_once(self, tmp_path):
        writer = ShardedDiskPulseCache(tmp_path / "cache", shards=1)
        reader = ShardedDiskPulseCache(tmp_path / "cache")  # before the save
        for index in range(4):
            writer.put_latency(_latency_key(index), float(index))
        writer.save()
        with ThreadPoolExecutor(max_workers=4) as pool:
            values = list(
                pool.map(lambda i: reader.get_latency(_latency_key(i)), range(4))
            )
        assert values == [0.0, 1.0, 2.0, 3.0]
        # Concurrent misses on one shard coalesce into a single load.
        assert reader.shard_loads == 1

    def test_miss_overtaken_by_a_peer_load_is_retried(self, tmp_path, monkeypatch):
        """The interleaving that made the threaded test flaky, forced: a
        peer thread loads the shard right after this lookup misses in
        memory, so the freshness check finds nothing left to load — the
        miss must still be retried against the now-loaded shard."""
        writer = ShardedDiskPulseCache(tmp_path / "cache", shards=1)
        reader = ShardedDiskPulseCache(tmp_path / "cache")  # before the save
        writer.put_latency(_latency_key(0), 1.0)
        writer.save()
        in_memory = PulseCache._get
        overtaken = []

        def miss_then_peer_loads(self, kind, key):
            value = in_memory(self, kind, key)
            if value is None and not overtaken:
                overtaken.append(key)
                reader.load()
            return value

        monkeypatch.setattr(PulseCache, "_get", miss_then_peer_loads)
        assert reader.get_latency(_latency_key(0)) == 1.0
        assert overtaken and reader.shard_loads == 1

    def test_save_returns_after_a_peer_threads_flush_lands(
        self, tmp_path, monkeypatch
    ):
        # One shard, two dirty entries; the first save stalls in its
        # write.  A second save must not return before its entry is on
        # disk: a peer process blocked on a key lock file re-reads the
        # shard as soon as that save's exclusive releases.
        cache = ShardedDiskPulseCache(tmp_path / "cache", shards=1)
        cache.put_latency(_latency_key(0), 0.0)
        cache.put_latency(_latency_key(1), 1.0)
        write = cache._write_shard
        writing, stalled = threading.Event(), threading.Event()

        def stalled_write(index, delta):
            if not writing.is_set():
                writing.set()
                stalled.wait(timeout=0.5)
            write(index, delta)

        monkeypatch.setattr(cache, "_write_shard", stalled_write)
        first = threading.Thread(target=cache.save)
        first.start()
        try:
            assert writing.wait(timeout=30)
            cache.save()
            fresh = ShardedDiskPulseCache(tmp_path / "cache")
            assert fresh.get_latency(_latency_key(1)) == 1.0
        finally:
            stalled.set()
            first.join(timeout=30)
        assert not first.is_alive()

    def test_save_hashes_each_resident_entry_once(self, tmp_path, monkeypatch):
        cache = ShardedDiskPulseCache(tmp_path / "cache", shards=8)
        for index in range(200):
            cache.put_latency(_latency_key(index), float(index))
        assert len(cache._dirty) == 8
        shard_of = cache.shard_of
        calls = []

        def counted_shard_of(key):
            calls.append(key)
            return shard_of(key)

        monkeypatch.setattr(cache, "shard_of", counted_shard_of)
        assert cache.save() == 200
        assert len(calls) <= 200

    def test_stats_report_backend_fields(self, tmp_path):
        cache = ShardedDiskPulseCache(tmp_path / "cache", shards=2)
        cache.put_latency(_latency_key(0), 1.0)
        cache.save()
        stats = cache.stats()
        assert stats["backend"] == "sharded-disk"
        assert stats["shards"] == 2
        assert stats["shard_flushes"] == 1
        assert "lock_wait_seconds" in stats


# ----------------------------------------------------------------------
# Wire protocol


class TestProtocol:
    def test_framing_round_trip(self):
        left, right = socket.socketpair()
        try:
            payload = {"op": "ping", "nested": {"a": [1, 2.5, "x"]}}
            send_message(left, payload)
            assert recv_message(right) == payload
        finally:
            left.close()
            right.close()

    def test_clean_eof_returns_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert recv_message(right) is None
        finally:
            right.close()

    def test_eof_mid_frame_raises(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"\x00\x00\x01\x00partial")
            left.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_message(right)
        finally:
            right.close()

    def test_oversized_announcement_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"\xff\xff\xff\xff")
            with pytest.raises(ProtocolError, match="cap"):
                recv_message(right)
        finally:
            left.close()
            right.close()

    def test_non_object_frame_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"\x00\x00\x00\x02[]")
            with pytest.raises(ProtocolError, match="object"):
                recv_message(right)
        finally:
            left.close()
            right.close()

    def test_key_wire_forms_round_trip_exactly(self):
        latency_key = ("fp", "grape", (2, (("CNOT", (0.5,), (0, 1)),)))
        pulse_key = ("fp", (2, (("CNOT", (0.5,), (0, 1)),)))
        assert decode_latency_key(encode_latency_key(latency_key)) == latency_key
        assert decode_pulse_key(encode_pulse_key(pulse_key)) == pulse_key

    def test_parse_cache_url(self):
        assert parse_cache_url("127.0.0.1:7777") == ("127.0.0.1", 7777)
        assert parse_cache_url("tcp://box:80") == ("box", 80)
        with pytest.raises(ProtocolError):
            parse_cache_url("no-port")
        with pytest.raises(ProtocolError):
            parse_cache_url("host:abc")


# ----------------------------------------------------------------------
# Cache server + remote client


@pytest.fixture()
def server():
    with CacheServer() as running:
        yield running


class TestCacheServer:
    def test_latency_round_trip_between_clients(self, server):
        writer = RemotePulseCache(server.url)
        reader = RemotePulseCache(server.url)
        writer.put_latency(_latency_key(0), 4.5)
        writer.flush()
        assert reader.get_latency(_latency_key(0)) == 4.5
        assert reader.remote_hits == 1

    def test_pulse_round_trip_between_clients(self, server):
        writer = RemotePulseCache(server.url)
        reader = RemotePulseCache(server.url)
        original = _result(seed=3)
        writer.put_pulse(_pulse_key(0), original)
        writer.flush()
        restored = reader.get_pulse(_pulse_key(0))
        np.testing.assert_array_equal(
            restored.pulse.amplitudes, original.pulse.amplitudes
        )
        # Second read answers from the local L1, no extra round trip.
        requests = reader.remote_requests
        reader.get_pulse(_pulse_key(0))
        assert reader.remote_requests == requests

    def test_write_behind_batches_until_threshold(self, server):
        client = RemotePulseCache(server.url)
        for index in range(DEFAULT_FLUSH_THRESHOLD):
            client.put_latency(_latency_key(index), float(index))
        assert client.flushes == 0  # still buffered
        assert server.store.latency_count == 0
        # One more crosses the threshold.
        client.put_latency(_latency_key(DEFAULT_FLUSH_THRESHOLD), 1.0)
        assert client.flushes == 1
        assert server.store.latency_count == DEFAULT_FLUSH_THRESHOLD + 1

    def test_save_flushes_pending(self, server):
        client = RemotePulseCache(server.url)
        client.put_latency(_latency_key(0), 1.0)
        assert client.save() == 1
        assert server.store.latency_count == 1

    def test_merge_delta_stays_in_the_local_store(self, server):
        # The process executor merges the deltas its workers return; each
        # worker has already uploaded its own, so the client keeps them.
        client = RemotePulseCache(server.url)
        entries = DEFAULT_FLUSH_THRESHOLD + 1
        client.merge_delta(
            CacheDelta(
                latencies={_latency_key(i): float(i) for i in range(entries)}
            )
        )
        assert client.latency_count == entries
        assert client.get_latency(_latency_key(0)) == 0.0
        assert client.flush() == 0
        assert client.flushes == 0
        assert server.store.latency_count == 0

    def test_client_settings_are_the_url_and_the_budget(self, server):
        # Write-behind size, socket timeout and lease length are fixed
        # client-side; the lease length is the server's lock_ttl.
        for keyword in ("flush_threshold", "timeout", "lock_ttl"):
            with pytest.raises(TypeError):
                RemotePulseCache(server.url, **{keyword: 1})

    def test_exclusive_lease_excludes_other_owners(self, server):
        key = _pulse_key(9)
        holder = RemotePulseCache(server.url)
        with holder.exclusive(key):
            assert not server.leases.acquire(key, "someone-else")
        assert server.leases.acquire(key, "someone-else")  # released

    def test_expired_lease_is_grantable(self):
        with CacheServer(lock_ttl=0.0) as fast:
            key = _pulse_key(1)
            assert fast.leases.acquire(key, "a")
            assert fast.leases.acquire(key, "b")  # a's lease expired
            assert fast.leases.expired == 1

    def test_lock_op_ignores_a_requested_ttl(self):
        # An older client may still send ``ttl``; the lease lasts the
        # server's lock_ttl whatever it asks for.
        with CacheServer(lock_ttl=1234.0) as served:
            for key, ttl in ((_pulse_key(6), 0.0), (_pulse_key(7), 1e12)):
                wire = encode_pulse_key(key)
                assert served.dispatch(
                    {"op": "lock", "key": wire, "owner": "a", "ttl": ttl}
                )["granted"]
                _, deadline = served.leases._leases[key]
                assert 1200 < deadline - time.monotonic() <= 1234
                assert not served.leases.acquire(key, "b")

    def test_client_lease_lasts_the_server_lock_ttl(self):
        with CacheServer(lock_ttl=1234.0) as served:
            client = RemotePulseCache(served.url)
            key = _pulse_key(8)
            with client.exclusive(key):
                _, deadline = served.leases._leases[key]
                assert 1200 < deadline - time.monotonic() <= 1234

    def test_threads_share_one_client_without_crossing_responses(self, server):
        seeder = RemotePulseCache(server.url)
        for index in range(32):
            seeder.put_latency(_latency_key(index), float(index))
        seeder.flush()
        # A tiny L1 keeps every lookup a real socket round trip, so
        # interleaved frames would hand threads each other's responses.
        client = RemotePulseCache(server.url, max_bytes=1)
        with ThreadPoolExecutor(max_workers=8) as pool:
            values = list(
                pool.map(
                    lambda i: client.get_latency(_latency_key(i % 32)),
                    range(256),
                )
            )
        assert values == [float(i % 32) for i in range(256)]

    def test_threaded_writers_lose_no_pending_entries(self, server):
        client = RemotePulseCache(server.url)
        entries = 8 * DEFAULT_FLUSH_THRESHOLD  # several threshold flushes
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(
                pool.map(
                    lambda i: client.put_latency(_latency_key(i), float(i)),
                    range(entries),
                )
            )
        assert client.flushes >= 1
        client.flush()
        assert server.store.latency_count == entries

    def test_unknown_op_is_protocol_error(self, server):
        client = RemotePulseCache(server.url)
        with pytest.raises(ProtocolError, match="unknown op"):
            client._wire.request({"op": "bogus"})

    def test_server_side_eviction_budget(self):
        budget = sum(latency_entry_bytes(_latency_key(i)) for i in range(2))
        with CacheServer(store=PulseCache(max_bytes=budget)) as bounded:
            client = RemotePulseCache(bounded.url)
            for index in range(6):
                client.put_latency(_latency_key(index), float(index))
                client.flush()
            assert bounded.store.latency_count == 2
            assert bounded.store.stats()["evictions"] == 4

    def test_server_stats_envelope(self, server):
        client = RemotePulseCache(server.url)
        client.put_latency(_latency_key(0), 1.0)
        client.flush()
        client.get_latency(_latency_key(1))
        stats = client.server_stats()
        assert stats["backend"] == "memory"
        assert stats["server_requests"]["push_delta"] == 1
        assert stats["server_errors"] == 0

    def test_disk_backed_server_persists_on_stop(self, tmp_path):
        directory = tmp_path / "served"
        server = CacheServer(store=ShardedDiskPulseCache(directory)).start()
        client = RemotePulseCache(server.url)
        client.put_latency(_latency_key(0), 2.5)
        client.flush()
        assert server.stop() == 1
        restarted = ShardedDiskPulseCache(directory)
        assert restarted.get_latency(_latency_key(0)) == 2.5


# ----------------------------------------------------------------------
# resolve_cache backend selection


class TestResolveCache:
    def test_none_when_nothing_requested(self):
        assert resolve_cache() is None

    def test_bare_path_mounts_directory_store(self, tmp_path):
        cache = resolve_cache(path=str(tmp_path / "cache"))
        assert type(cache) is ShardedDiskPulseCache
        assert cache.shards == DEFAULT_SHARDS
        assert (tmp_path / "cache" / "sharding.json").is_file()

    def test_existing_file_path_rejected(self, tmp_path):
        # e.g. the <stem>.json of a pre-directory cache
        (tmp_path / "cache.json").write_text("{}")
        with pytest.raises(ControlError, match="directories"):
            resolve_cache(path=str(tmp_path / "cache.json"))

    def test_shards_mount_sharded_store(self, tmp_path):
        cache = resolve_cache(path=str(tmp_path / "cache"), shards=4)
        assert isinstance(cache, ShardedDiskPulseCache)
        assert cache.shards == 4

    def test_existing_sharded_dir_auto_detected(self, tmp_path):
        ShardedDiskPulseCache(tmp_path / "cache", shards=2)
        cache = resolve_cache(path=str(tmp_path / "cache"))
        assert isinstance(cache, ShardedDiskPulseCache)
        assert cache.shards == 2

    def test_url_mounts_remote_client(self):
        cache = resolve_cache(url="127.0.0.1:1", max_bytes=512)
        assert isinstance(cache, RemotePulseCache)
        assert cache.max_bytes == 512


# ----------------------------------------------------------------------
# Metrics helpers


class TestMetrics:
    def test_hit_rate(self):
        assert hit_rate(3, 1) == 0.75
        assert hit_rate(0, 0) is None

    def test_format_bytes(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(1536) == "1.5 KiB"

    def test_summary_mentions_backend_specifics(self, tmp_path):
        sharded = ShardedDiskPulseCache(tmp_path / "cache", shards=2)
        sharded.put_latency(_latency_key(0), 1.0)
        sharded.get_latency(_latency_key(0))
        line = cache_summary(sharded.stats())
        assert "cache[sharded-disk]" in line
        assert "2 shards" in line
        remote_line = cache_summary(
            {"backend": "remote", "url": "h:1", "latency_entries": 0,
             "pulse_entries": 0, "remote_hits": 1, "remote_misses": 1,
             "remote_requests": 2}
        )
        assert "remote h:1" in remote_line
        assert "remote 1/2 (50%)" in remote_line


# ----------------------------------------------------------------------
# Multiprocess stress: N workers, one shared store, exactly-once synthesis


STRESS_WORKERS = 4
STRESS_SIGNATURES = 12


def _stress_keys(worker: int) -> list[int]:
    # Overlapping, worker-dependent orderings: every worker wants every
    # signature, starting from a different offset so the workers collide.
    return [
        (worker * 3 + step) % STRESS_SIGNATURES
        for step in range(STRESS_SIGNATURES)
    ]


def _stub_synthesize(cache, index: int) -> int:
    """Cache-check / lock / re-check / synthesize, as the OCU does.

    Returns 1 when this call actually synthesized (the stub GrapeResult
    is deterministic per signature, mirroring real GRAPE determinism).
    """
    key = _pulse_key(index)
    if cache.get_pulse(key) is not None:
        return 0
    with cache.exclusive(key):
        if cache.get_pulse(key) is not None:
            return 0
        cache.put_pulse(key, _result(seed=index))
        return 1


def _sharded_stress_worker(args) -> int:
    worker, directory = args
    cache = ShardedDiskPulseCache(directory)
    synthesized = 0
    for index in _stress_keys(worker):
        synthesized += _stub_synthesize(cache, index)
        cache.put_latency(_latency_key(index), float(index))
    cache.save()
    return synthesized


def _server_stress_worker(args) -> int:
    worker, url = args
    cache = RemotePulseCache(url)
    synthesized = 0
    for index in _stress_keys(worker):
        synthesized += _stub_synthesize(cache, index)
        cache.put_latency(_latency_key(index), float(index))
    cache.close()
    return synthesized


def _race_one_signature(cache) -> int:
    """Two threads of one process want one signature; returns syntheses.

    The second thread starts only once the first is inside the guard (an
    event, not timing luck), so its first lookup always misses.  The
    first then holds the guard until the second has finished or half a
    second has passed: a working guard keeps the second out until the
    first has published, and its re-check hits.
    """
    key = _pulse_key(0)
    inside = threading.Event()
    second_done = threading.Event()

    def first() -> int:
        with cache.exclusive(key):
            inside.set()
            second_done.wait(timeout=0.5)
            cache.put_pulse(key, _result(seed=0))
        return 1

    def second() -> int:
        assert inside.wait(timeout=30)
        try:
            return _stub_synthesize(cache, 0)
        finally:
            second_done.set()

    with ThreadPoolExecutor(max_workers=2) as pool:
        results = [pool.submit(first), pool.submit(second)]
        return sum(future.result(timeout=60) for future in results)


class TestThreadSingleFlight:
    def test_threads_sharing_a_store_synthesize_once(self):
        assert _race_one_signature(PulseCache()) == 1

    def test_threads_sharing_a_remote_client_synthesize_once(self, server):
        with RemotePulseCache(server.url) as client:
            assert _race_one_signature(client) == 1

    def test_thread_stress_synthesizes_each_signature_once(self):
        # More threads than cores, switching often, every thread wanting
        # every signature: each is synthesized once and no key lock leaks.
        cache = PulseCache()
        threads = 2 * STRESS_WORKERS
        start = threading.Barrier(threads)

        def worker(index: int) -> int:
            start.wait(timeout=30)
            return sum(_stub_synthesize(cache, key) for key in _stress_keys(index))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                futures = [pool.submit(worker, index) for index in range(threads)]
                synthesized = sum(future.result(timeout=60) for future in futures)
        finally:
            sys.setswitchinterval(interval)
        assert synthesized == STRESS_SIGNATURES
        assert cache.pulse_count == STRESS_SIGNATURES
        assert cache._key_locks == {}


class TestMultiprocessStress:
    def test_sharded_store_exactly_once_no_lost_writes(self, tmp_path):
        directory = str(tmp_path / "fleet")
        ShardedDiskPulseCache(directory, shards=4)  # pin the layout
        with ProcessPoolExecutor(max_workers=STRESS_WORKERS) as pool:
            synth_counts = list(
                pool.map(
                    _sharded_stress_worker,
                    [(w, directory) for w in range(STRESS_WORKERS)],
                )
            )
        # Exactly-once synthesis fleet-wide, not once per process.
        assert sum(synth_counts) == STRESS_SIGNATURES
        # No lost writes and no corrupt shards: a cold load parses every
        # shard pair and finds every entry every worker wrote.
        merged = ShardedDiskPulseCache(directory)
        for index in range(STRESS_SIGNATURES):
            assert merged.get_latency(_latency_key(index)) == float(index)
            restored = merged.get_pulse(_pulse_key(index))
            np.testing.assert_array_equal(
                restored.pulse.amplitudes,
                _result(seed=index).pulse.amplitudes,
            )

    def test_cache_server_exactly_once_no_lost_writes(self):
        with CacheServer() as server:
            with ProcessPoolExecutor(max_workers=STRESS_WORKERS) as pool:
                synth_counts = list(
                    pool.map(
                        _server_stress_worker,
                        [(w, server.url) for w in range(STRESS_WORKERS)],
                    )
                )
            assert sum(synth_counts) == STRESS_SIGNATURES
            assert server.store.latency_count == STRESS_SIGNATURES
            assert server.store.pulse_count == STRESS_SIGNATURES
            assert server.leases.expired == 0
            for index in range(STRESS_SIGNATURES):
                restored = server.store.get_pulse(_pulse_key(index))
                np.testing.assert_array_equal(
                    restored.pulse.amplitudes,
                    _result(seed=index).pulse.amplitudes,
                )
