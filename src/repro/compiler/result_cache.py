"""Content-addressed compiled-result cache (the warm-path front door).

PR 7/8 made optimal-control work shareable; this module does the same
one level up, at whole-:class:`~repro.compiler.result.CompilationResult`
granularity.  A :class:`ResultCache` maps the canonical *job signature*
— the label-stripped ``repro-ir-v1`` batch-job envelope plus the engine
settings (:meth:`BatchCompiler.result_key
<repro.compiler.batch.BatchCompiler.result_key>`) — to the serialized
result envelope, so byte-identical resubmissions skip the whole pass
pipeline.  It is also the compile service's one store of finished jobs:
the service keys its jobs, its circuit breaker and its coalescing on the
same digest and serves results straight from here.

Keying rules
------------
The envelope alone does not pin a compilation: jobs without an explicit
``device`` inherit the engine's default target, and the engine's
compiler config, pricing backend and GRAPE knobs all shape the result.
:func:`result_key` therefore folds an *engine component* — a canonical
JSON string of those settings (see :func:`engine_component`) — into the
digest.  Two engines with different configurations sharing one store can
never serve each other's entries (a false miss recompiles; a false hit
would be a miscompilation, so the key errs toward missing).

Entries are stored as serialized bytes and deserialized fresh on every
:meth:`ResultCache.get`, so callers can never corrupt the store (or each
other) through a shared mutable schedule.  Results are stored with their
source circuit embedded (``include_source=True``), so a loaded artifact
can still be re-verified against the program it claims to implement —
:meth:`get` takes ``verify=True`` for callers who want that on the load
path, and the test suite pins it.

The memory store uses the same LRU as the pulse cache
(:class:`~repro.control.cache.store.ByteBudgetLRU`); the
:class:`DiskResultCache` backend persists one crash-safe JSON file per
entry (unique temp + fsync + atomic replace, the pulse store's
``replace_into`` discipline) and trims the directory to the same budget
under an advisory file lock, so many processes can share one directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time

from repro.control.cache.disk import replace_into
from repro.control.cache.locking import FileLock
from repro.control.cache.store import ByteBudgetLRU

RESULT_CACHE_FORMAT = "repro-result-cache-v1"

__all__ = [
    "RESULT_CACHE_FORMAT",
    "DiskResultCache",
    "ResultCache",
    "engine_component",
    "result_key",
    "target_payload",
]


def target_payload(device) -> dict:
    """Wire form of a compilation target: a full
    :class:`~repro.device.device.Device` or a bare
    :class:`~repro.config.DeviceConfig`."""
    from repro.device.device import Device
    from repro.ir.serialize import device_config_to_dict, device_to_dict

    if isinstance(device, Device):
        return device_to_dict(device)
    return device_config_to_dict(device)


def engine_component(
    device,
    compiler_config,
    backend: str,
    fingerprint: str,
) -> str:
    """Canonical string of the engine settings a job envelope omits.

    Args:
        device: The default compilation target jobs without a pinned
            device inherit (a :class:`~repro.device.device.Device` or a
            bare :class:`~repro.config.DeviceConfig`).
        compiler_config: The engine's :class:`~repro.config.CompilerConfig`
            (serialized whole — unlike the pulse-cache fingerprint it
            must include aggregation-round limits, which change results
            without changing any pulse).
        backend: Pricing backend (``"model"`` / ``"grape"``).
        fingerprint: The OCU's :func:`~repro.control.cache.store.
            config_fingerprint` (covers GRAPE knobs, seed, and
            heterogeneous-coupling targets).
    """
    from repro.ir.serialize import compiler_config_to_dict

    return json.dumps(
        {
            "device": target_payload(device),
            "compiler": compiler_config_to_dict(compiler_config),
            "backend": backend,
            "fingerprint": fingerprint,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def result_key(envelope: dict, engine: str = "") -> str:
    """Content digest of one job envelope under one engine configuration.

    The envelope part is its canonical JSON with the display label
    stripped; ``engine`` is an :func:`engine_component` string folded in
    behind a separator so envelope bytes can never collide with engine
    bytes.
    """
    payload = {k: v for k, v in envelope.items() if k != "label"}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8"))
    if engine:
        digest.update(b"\x00engine\x00")
        digest.update(engine.encode("utf-8"))
    return digest.hexdigest()


class ResultCache(ByteBudgetLRU):
    """In-memory LRU store of serialized compilation results.

    Args:
        max_bytes: Optional byte budget over the serialized entries;
            least-recently-used entries are evicted when a store pushes
            the total over it.  The entry being written is never evicted
            (the LRU's protect rule), so one oversized result still
            caches — and is the next eviction candidate.
    """

    def __init__(self, max_bytes: int | None = None) -> None:
        super().__init__(max_bytes)
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.verified_loads = 0
        self.lookup_seconds = 0.0

    # -- encoding ------------------------------------------------------

    @staticmethod
    def _encode(key: str, result) -> bytes:
        from repro.ir.serialize import result_to_dict

        return json.dumps(
            {
                "format": RESULT_CACHE_FORMAT,
                "key": key,
                "result": result_to_dict(result, include_source=True),
            },
            sort_keys=True,
        ).encode("utf-8")

    @staticmethod
    def _decode(payload: bytes, key: str, source: str) -> dict:
        """The entry's stored result dict, once its format and key check."""
        from repro.errors import SerializationError

        try:
            envelope = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise SerializationError(
                f"{source}: result-cache entry is not valid JSON: {error}"
            ) from error
        if envelope.get("format") != RESULT_CACHE_FORMAT:
            raise SerializationError(
                f"{source}: unknown result-cache format "
                f"{envelope.get('format')!r} (expected "
                f"{RESULT_CACHE_FORMAT!r})"
            )
        if envelope.get("key") != key:
            raise SerializationError(
                f"{source}: entry claims key {envelope.get('key')!r}, "
                f"looked up as {key!r}"
            )
        return envelope["result"]

    # -- store API -----------------------------------------------------

    def get(self, key: str, verify: bool = False):
        """A fresh :class:`CompilationResult` for ``key``, or None.

        Every hit deserializes a new result object, so callers own what
        they get.  ``verify=True`` additionally re-checks the loaded
        result against its embedded source circuit
        (:meth:`CompilationResult.verify_equivalence`) before returning
        it — a corrupt or forged entry raises instead of serving.
        """
        from repro.ir.serialize import result_from_dict

        stored = self.get_dict(key)
        if stored is None:
            return None
        result = result_from_dict(stored)
        if verify:
            result.verify_equivalence(raise_on_failure=True)
            with self._lock:
                self.verified_loads += 1
        return result

    def get_dict(self, key: str) -> dict | None:
        """The stored result dict for ``key``, or None.

        That is the ``result_to_dict(result, include_source=True)``
        payload a wire response carries, parsed but never rebuilt into a
        :class:`CompilationResult` (which costs many times the parse).
        Every lookup, :meth:`get`'s included, is counted here.
        """
        started = time.perf_counter()
        payload = self._payload(key)
        stored = None
        if payload is not None:
            stored = self._decode(payload, key, source=type(self).__name__)
        with self._lock:
            if stored is None:
                self.misses += 1
            else:
                self.hits += 1
            self.lookup_seconds += time.perf_counter() - started
        return stored

    def put(self, key: str, result) -> None:
        """Serialize and store one result under ``key``."""
        payload = self._encode(key, result)
        self._insert(key, payload, count_store=True)
        self._write_backend(key, payload)

    def __contains__(self, key: str) -> bool:
        """Whether :meth:`get` would hit; a backend entry is loaded on
        the way, uncounted."""
        return self._payload(key) is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every resident entry (backend files are untouched)."""
        with self._lock:
            self._entries.clear()
            self.total_bytes = 0

    def stats(self) -> dict:
        """Hit/miss/eviction/latency counters plus current occupancy."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "total_bytes": self.total_bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "evictions": self.evictions,
                "evicted_bytes": self.evicted_bytes,
                "verified_loads": self.verified_loads,
                "lookup_seconds": self.lookup_seconds,
            }

    # -- internals -----------------------------------------------------

    def _payload(self, key: str) -> bytes | None:
        """Resident bytes for ``key`` (refreshing recency), else the
        backend's, which become resident."""
        with self._lock:
            payload = self._lookup(key)
        if payload is not None:
            return payload
        payload = self._read_backend(key)
        if payload is not None:
            self._insert(key, payload, count_store=False)
        return payload

    def _insert(self, key: str, payload: bytes, count_store: bool) -> None:
        with self._lock:
            self._store(key, payload, len(payload))
            if count_store:
                self.stores += 1
            self._evict_over_budget(protect=key)

    # Backend hooks (no-ops for the pure in-memory store) --------------

    def _read_backend(self, key: str) -> bytes | None:
        return None

    def _write_backend(self, key: str, payload: bytes) -> None:
        return None


class DiskResultCache(ResultCache):
    """A :class:`ResultCache` persisted as one JSON file per entry.

    Args:
        directory: Entry directory (created on first write).  Each entry
            lives at ``<key>.json``, written crash-safely, so a killed
            writer can never corrupt the store and concurrent writers of
            the same key both leave a complete file.
        max_bytes: LRU byte budget over the resident set *and* the
            directory: memory evictions fall through to memory only,
            while :meth:`put` additionally trims the directory (oldest
            modification time first) under an advisory file lock.

    Construction reads no entry file: each entry loads on its first
    lookup, so reopening a directory costs nothing per stored result.
    """

    _LOCK_NAME = ".result-cache.lock"

    def __init__(
        self,
        directory: str | os.PathLike,
        max_bytes: int | None = None,
    ) -> None:
        super().__init__(max_bytes=max_bytes)
        self.directory = os.fspath(directory)
        self.disk_hits = 0

    def _entry_path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def _read_file(self, key: str) -> bytes | None:
        from repro.ir.serialize import result_from_dict

        try:
            with open(self._entry_path(key), "rb") as handle:
                payload = handle.read()
        except OSError:
            return None
        try:
            result_from_dict(
                self._decode(payload, key, source=self._entry_path(key))
            )
        except Exception:
            return None  # torn/foreign file: treat as a miss
        return payload

    # -- backend hooks --------------------------------------------------

    def _read_backend(self, key: str) -> bytes | None:
        payload = self._read_file(key)
        if payload is not None:
            with self._lock:
                self.disk_hits += 1
            # Freshen the mtime so the disk trim's LRU tracks real use.
            try:
                os.utime(self._entry_path(key))
            except OSError:
                pass
        return payload

    def _write_backend(self, key: str, payload: bytes) -> None:
        os.makedirs(self.directory, exist_ok=True)
        replace_into(
            lambda handle: handle.write(payload),
            self._entry_path(key),
            ".tmp",
        )
        if self.max_bytes is not None:
            self._trim_disk(protect=key)

    def _trim_disk(self, protect: str) -> None:
        """Delete oldest entry files until the directory fits the budget.

        Cross-process safe: the advisory lock serializes concurrent
        trimmers, and a file another process deleted first is simply
        skipped.
        """
        with FileLock(os.path.join(self.directory, self._LOCK_NAME)):
            entries = []
            total = 0
            for name in os.listdir(self.directory):
                if not name.endswith(".json") or name.startswith("."):
                    continue
                path = os.path.join(self.directory, name)
                try:
                    info = os.stat(path)
                except OSError:
                    continue
                entries.append((info.st_mtime, info.st_size, name))
                total += info.st_size
            entries.sort()
            for _mtime, size, name in entries:
                if total <= self.max_bytes:
                    break
                if name[: -len(".json")] == protect:
                    continue
                try:
                    os.unlink(os.path.join(self.directory, name))
                except OSError:
                    continue
                total -= size

    def stats(self) -> dict:
        stats = super().stats()
        with self._lock:
            stats["disk_hits"] = self.disk_hits
        return stats
