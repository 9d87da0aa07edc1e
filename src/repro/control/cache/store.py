"""In-memory pulse/latency store: fingerprints, deltas, LRU eviction.

The base layer of the shared-cache stack (see the package docstring).
:class:`PulseCache` is the thread-safe store every other backend builds
on; units write straight into it and single-flight their misses.
:class:`CacheDelta` carries entries between stores.  Everything
cross-process — the sharded directory, the socket server — lives in
sibling modules and subclasses :class:`PulseCache`.

Eviction
--------
Pass a positive ``max_bytes`` to bound the store.  Entries (latencies
*and* pulses, one recency order across both — the
:class:`ByteBudgetLRU` the result cache uses too) are tracked with an
approximate byte size (:func:`latency_entry_bytes` /
:func:`pulse_entry_bytes`) and the least recently used entries are
dropped whenever the total exceeds the budget.
Keys are content-addressed — a structural signature plus a configuration
fingerprint fully determines the value — so eviction is always *correct*:
a dropped entry is recomputed on the next miss, never answered wrong.
The entry being written is never the eviction victim, so ``put`` followed
by ``get`` always hits even when one entry exceeds the whole budget.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import threading
import time
from collections import OrderedDict

import numpy as np

from repro.config import CompilerConfig, DeviceConfig
from repro.control.grape import GrapeResult

#: A latency entry key: (fingerprint, backend tag, structural signature).
LatencyKey = tuple
#: A pulse entry key: (fingerprint, structural signature).
PulseKey = tuple

#: Flat bookkeeping charge per entry (key objects, dict slots).
_ENTRY_OVERHEAD_BYTES = 64


def config_fingerprint(
    device: DeviceConfig,
    compiler: CompilerConfig,
    *,
    grape_qubit_limit: int,
    seed: int,
    target=None,
) -> str:
    """Digest of everything that changes cached latencies or pulses.

    Two units agree on every cache entry iff their fingerprints match, so
    entries from incompatible configurations can coexist in one store
    without ever being confused.

    Args:
        device: Homogeneous baseline physics.
        compiler: Compiler settings, the GRAPE time step
            (``grape_dt_ns``) among them.
        target: Optional full :class:`~repro.device.device.Device`.  Its
            :meth:`~repro.device.device.Device.coupling_signature` —
            topology wiring plus the per-edge coupling overrides — is
            folded in whenever the device carries such overrides, so entries
            computed for heterogeneously-priced devices can never
            collide with another device's.  Any other target hashes
            identically to a bare ``DeviceConfig``: latencies and pulses
            then depend only on instruction structure and the baseline
            physics (t1/t2 overrides feed the decoherence model, never
            the cache), so sharing entries across topologies is free
            warm-cache coverage, not a collision.
    """
    compiler_payload = dataclasses.asdict(compiler)
    # The aggregation-loop round cap shapes which merges execute, never
    # the latency or pulse of a given instruction — hashing it would
    # cold-start the cache on every ablation of the cap.
    compiler_payload.pop("max_aggregation_rounds", None)
    payload = {
        "device": dataclasses.asdict(device),
        "compiler": compiler_payload,
        "grape_qubit_limit": int(grape_qubit_limit),
        "grape_dt": float(compiler.grape_dt_ns),
        "seed": int(seed),
    }
    if target is not None and target.has_heterogeneous_couplings:
        payload["target"] = repr(target.coupling_signature())
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def latency_entry_bytes(key: LatencyKey) -> int:
    """Approximate resident size of one latency entry."""
    return _ENTRY_OVERHEAD_BYTES + len(repr(key)) + 8


def pulse_entry_bytes(key: PulseKey, result: GrapeResult) -> int:
    """Approximate resident size of one pulse entry (array-dominated)."""
    arrays = (
        np.asarray(result.pulse.amplitudes).nbytes
        + np.asarray(result.final_unitary).nbytes
        + 8 * len(result.loss_history)
    )
    return _ENTRY_OVERHEAD_BYTES + len(repr(key)) + arrays


@dataclasses.dataclass
class CacheDelta:
    """Entries in transit: a unit's new work, a snapshot, a shard file."""

    latencies: dict[LatencyKey, float] = dataclasses.field(default_factory=dict)
    pulses: dict[PulseKey, GrapeResult] = dataclasses.field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.latencies) + len(self.pulses)

    def extend(self, other: CacheDelta) -> None:
        """Fold another delta's entries into this one (last write wins)."""
        self.latencies.update(other.latencies)
        self.pulses.update(other.pulses)


#: Tags of the two entry kinds in a :class:`PulseCache`'s one recency
#: order (its keys are ``(kind, key)`` pairs).
LATENCY = "latency"
PULSE = "pulse"


def entry_bytes(kind: str, key: tuple, value) -> int:
    """Approximate resident size of one latency or pulse entry."""
    if kind == LATENCY:
        return latency_entry_bytes(key)
    return pulse_entry_bytes(key, value)


class ByteBudgetLRU:
    """Entries in one recency order under an optional byte budget.

    The one LRU of both cache families: :class:`PulseCache` keeps its
    latencies and pulses here, and
    :class:`~repro.compiler.result_cache.ResultCache` its serialized
    results.  ``_entries`` maps each key to ``(value, size)``, least
    recently used first, and ``total_bytes`` sums the sizes.  Nothing
    here locks: subclasses call these methods under their own lock.

    Args:
        max_bytes: Byte budget; ``None`` (default) means unbounded.  A
            zero or negative budget is rejected — a store that evicts
            everything it is given is a misconfiguration, not a cache.
    """

    def __init__(self, max_bytes: int | None = None) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be None or positive, got {max_bytes}")
        self.max_bytes = max_bytes
        self._entries: OrderedDict = OrderedDict()
        self.total_bytes = 0
        self.evictions = 0
        self.evicted_bytes = 0

    def _lookup(self, key):
        """The value under ``key``, now the most recent entry; else None."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def _store(self, key, value, size: int) -> bool:
        """Insert or overwrite as the most recent entry; True when new."""
        previous = self._entries.pop(key, None)
        if previous is not None:
            self.total_bytes -= previous[1]
        self._entries[key] = (value, size)
        self.total_bytes += size
        return previous is None

    def _evict_over_budget(self, protect=None) -> list:
        """Drop least recently used entries until the budget is met;
        returns the keys dropped.

        ``protect`` names the entry being written right now: it is never
        the victim, so a single oversized entry still round-trips.
        """
        evicted: list = []
        while self.max_bytes is not None and self.total_bytes > self.max_bytes:
            victim = next((key for key in self._entries if key != protect), None)
            if victim is None:
                break
            _, size = self._entries.pop(victim)
            self.total_bytes -= size
            self.evictions += 1
            self.evicted_bytes += size
            evicted.append(victim)
        return evicted


class PulseCache(ByteBudgetLRU):
    """Thread-safe in-memory latency/pulse store.

    The same store may back many optimal-control units at once (the batch
    engine's workers, each writing straight through); all mutation
    happens under one lock.

    Args:
        max_bytes: Optional LRU eviction budget (see the module
            docstring).  ``None`` (default) means unbounded.
    """

    def __init__(self, max_bytes: int | None = None) -> None:
        super().__init__(max_bytes)
        self._lock = threading.Lock()
        #: Key -> [lock, holders] for every key some thread holds or
        #: awaits :meth:`single_flight` on, guarded by ``_lock``; latency
        #: keys (three items) never equal pulse keys (two items).
        self._key_locks: dict[tuple, list] = {}
        #: Resident entries per kind, so counting never scans the store.
        self._counts = {LATENCY: 0, PULSE: 0}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.lookup_seconds = 0.0

    # -- lookups ---------------------------------------------------------

    def get_latency(self, key: LatencyKey) -> float | None:
        return self._get(LATENCY, key)

    def put_latency(self, key: LatencyKey, value: float) -> None:
        self._put(LATENCY, key, float(value))

    def get_pulse(self, key: PulseKey) -> GrapeResult | None:
        return self._get(PULSE, key)

    def put_pulse(self, key: PulseKey, result: GrapeResult) -> None:
        self._put(PULSE, key, result)

    # -- single-flight ----------------------------------------------------

    @contextlib.contextmanager
    def single_flight(self, kind: str, key: tuple):
        """Per-key in-process lock around computing one missed entry.

        ``with cache.single_flight(kind, key) as cached:`` blocks while
        another thread of this process holds the same key, then yields
        the entry resident in memory — the value that thread wrote while
        this one waited — or None, when the caller computes and puts it.
        Threads sharing the store therefore compute each missed entry
        once.  The check reads memory only: a peer thread's write always
        lands there first, so it needs no disk ``stat`` or server round
        trip.
        """
        with self._lock:
            entry = self._key_locks.setdefault(key, [threading.Lock(), 0])
            entry[1] += 1
        try:
            with entry[0]:
                with self._lock:
                    cached = self._lookup((kind, key))
                yield cached
        finally:
            with self._lock:
                entry[1] -= 1
                if not entry[1]:
                    del self._key_locks[key]

    @contextlib.contextmanager
    def exclusive(self, key: PulseKey):
        """Single-flight guard around one expensive synthesis.

        The optimal-control unit wraps GRAPE synthesis in
        ``with cache.exclusive(key): re-check; synthesize; put``.  Here
        that holds :meth:`single_flight` on the pulse key, so two threads
        that miss the same signature synthesize it once: the second
        blocks until the first has put the pulse, and its re-check then
        hits.  Backends with cross-process peers (the sharded directory
        store, the remote client) take their fleet-wide guard inside this
        one and publish the result before releasing.
        """
        with self.single_flight(PULSE, key):
            yield

    # -- bulk operations -------------------------------------------------

    def merge_delta(self, delta: CacheDelta) -> int:
        """Fold a worker's delta in; returns how many entries were *new*.

        Last write wins on keys both sides hold — safe because keys are
        content-addressed, so both sides hold the same value (modulo
        recomputation of bit-identical results).  The count covers keys
        the store had never seen: merging the same delta twice reports
        the second merge as 0, and interleaved merges from two workers
        commute (``tests/control/test_cache.py`` pins both properties).
        """
        added = 0
        with self._lock:
            for key, value in delta.latencies.items():
                added += self._set(LATENCY, key, float(value))
            for key, result in delta.pulses.items():
                added += self._set(PULSE, key, result)
            self.stores += len(delta)
            self._evict_over_budget()
        return added

    def snapshot_delta(self) -> CacheDelta:
        """The whole store as one :class:`CacheDelta` (copied under lock).

        This is how a warm store travels: serialize the snapshot
        (:func:`repro.ir.serialize.cache_delta_to_dict`), ship it across
        the process boundary, and ``merge_delta`` it into the far store —
        the batch engine seeds each worker process this way so warm
        caches skip optimal-control work in process mode too.  Each map
        lists its entries least recently used first.
        """
        delta = CacheDelta()
        with self._lock:
            for (kind, key), (value, _) in self._entries.items():
                (delta.latencies if kind == LATENCY else delta.pulses)[key] = value
        return delta

    def save(self) -> int:
        """Persist the store where the backend supports it.

        The in-memory base has nothing to persist; the sharded directory
        and remote subclasses override.  Always safe to call — drivers
        can ``engine.save_cache()`` without caring which backend is
        mounted.
        """
        return 0

    @property
    def latency_count(self) -> int:
        return self._counts[LATENCY]

    @property
    def pulse_count(self) -> int:
        return self._counts[PULSE]

    def stats(self) -> dict:
        """Store-level counters (per-unit counters live on the OCU).

        Every backend reports at least these fields; subclasses add
        their own (shard loads, remote round trips, ...) on top.
        ``lookup_seconds`` is the cumulative wall-clock spent answering
        ``get_*`` calls — microseconds here, but the same field measures
        real network round trips on the remote backend.
        """
        return {
            "backend": "memory",
            "latency_entries": self.latency_count,
            "pulse_entries": self.pulse_count,
            "store_hits": self.hits,
            "store_misses": self.misses,
            "store_writes": self.stores,
            "evictions": self.evictions,
            "evicted_bytes": self.evicted_bytes,
            "total_bytes": self.total_bytes,
            "max_bytes": self.max_bytes,
            "lookup_seconds": self.lookup_seconds,
        }

    # -- internals -------------------------------------------------------

    def _get(self, kind: str, key: tuple):
        """One counted lookup — the hook backends extend to read through
        on a miss (the sharded store's shard reload, the remote
        client's server round trip)."""
        started = time.perf_counter()
        with self._lock:
            value = self._lookup((kind, key))
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
            self.lookup_seconds += time.perf_counter() - started
            return value

    def _put(self, kind: str, key: tuple, value) -> None:
        """One counted write — the hook backends extend to mark a shard
        dirty or buffer an upload."""
        with self._lock:
            self._set(kind, key, value)
            self.stores += 1
            self._evict_over_budget(protect=(kind, key))

    def _set(self, kind: str, key: tuple, value) -> bool:
        """Insert/overwrite one entry (lock held); True when the key is new."""
        fresh = self._store((kind, key), value, entry_bytes(kind, key, value))
        self._counts[kind] += fresh
        return fresh

    def _evict_over_budget(self, protect=None) -> list:
        evicted = super()._evict_over_budget(protect)
        for kind, _ in evicted:
            self._counts[kind] -= 1
        return evicted

    def _absorb(self, loaded: dict[str, dict], protect=None) -> None:
        """Add entries loaded from elsewhere, then evict over budget.

        The one fill step of every backend that reads entries in — a
        shard file, the cache server.  ``loaded`` maps a kind
        (:data:`LATENCY` / :data:`PULSE`) to its entries.  Only keys the
        store lacks are added: a resident entry holds the same value
        under the content-addressed key contract, and its recency is
        real use.  ``protect`` is as for :meth:`_evict_over_budget`.
        Call with the lock held.
        """
        for kind, entries in loaded.items():
            for key, value in entries.items():
                if (kind, key) not in self._entries:
                    self._set(kind, key, value)
        self._evict_over_budget(protect)

