"""Sharded on-disk pulse store: many processes, one box, no server.

A directory of ``shard-NNN.json`` files, a ``locks/`` directory of
advisory lock files and a ``sharding.json`` manifest pinning the shard
count.  Each shard is one ``repro-ir-v1`` ``cache_delta`` envelope
(:func:`repro.ir.serialize.cache_delta_to_dict`) — the codec the cache
server's ``push_delta`` and the process executor speak too.  Keys hash
into shards by their structural signature, so the latency and pulse
entries of one control problem co-locate and concurrent writers rarely
touch the same file.

Safety model:

* **Readers never lock.**  A shard is one file, only ever replaced
  atomically (:func:`~repro.control.cache.disk.replace_into`), so a
  reader sees either the old complete shard or the new complete shard.
* **Writers merge under the shard lock.**  :meth:`save` re-reads each
  dirty shard from disk, overlays this process's entries, and writes the
  union — two processes flushing interleaved entries cannot lose each
  other's writes.  Last-write-wins on shared keys is safe because keys
  are content-addressed.
* **Synthesis is single-flighted.**  :meth:`exclusive` takes the
  in-process key lock and then a per-key lock file; the winner
  synthesizes, flushes the key's shard (not everything buffered), and
  releases, and the losers' re-check then reads the published entry
  from the refreshed shard — each distinct signature is synthesized
  once per *fleet*, not once per process or thread.
* **One budget.**  ``max_bytes`` bounds memory and, split evenly, each
  shard file: a flush trims the union it writes to
  ``max_bytes // shards`` in the same entry-size units.

Misses consult the disk: a lookup that misses in memory stats the key's
shard file and reloads it when another process has replaced it since the
last load (one ``stat`` per cold miss, no reload when nothing changed).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading

from repro.control.cache.disk import replace_into
from repro.control.cache.locking import FileLock
from repro.control.cache.store import (
    LATENCY,
    PULSE,
    CacheDelta,
    PulseCache,
    PulseKey,
    entry_bytes,
)
from repro.errors import ControlError, SerializationError

SHARDED_FORMAT = "repro-pulse-cache-sharded-v2"
DEFAULT_SHARDS = 8


class ShardedDiskPulseCache(PulseCache):
    """A pulse store sharded across per-signature files in one directory.

    Every existing shard loads at construction.

    Args:
        path: Cache directory (created on demand).  Holds one
            ``shard-NNN.json`` file per shard, a ``locks/``
            subdirectory, and a ``sharding.json`` manifest pinning the
            shard count.  A path naming an existing file is refused.
        shards: Shard count for a *new* directory; ``None`` adopts an
            existing directory's count (default ``8`` when creating).
            Opening an existing directory with a conflicting explicit
            count raises — processes disagreeing on the hash ring would
            silently miss each other's entries.
        max_bytes: LRU budget of memory (see :class:`PulseCache`) and
            of the directory: a flush trims each shard file to
            ``max_bytes // shards`` — disk-only entries (least recently
            seen by anyone here) first, then this process's LRU — and
            counts the trimmed entries as ``disk_evictions``.  Entries
            evicted from memory may still live in their shard file and
            come back on a later miss via the disk read-through.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        shards: int | None = None,
        max_bytes: int | None = None,
    ) -> None:
        super().__init__(max_bytes=max_bytes)
        self.directory = os.fspath(path)
        if os.path.isfile(self.directory):
            raise ControlError(
                f"{self.directory} is a file; pulse caches are directories"
            )
        self.shards = self._resolve_shard_count(shards)
        self._dirty: set[int] = set()
        #: (st_mtime_ns, st_size) of each shard manifest at last load;
        #: None = known absent.  Missing key = never looked.  Guarded by
        #: the inherited ``_lock``.
        self._shard_states: dict[int, tuple | None] = {}
        #: Serializes disk reloads so two threads missing on one shard
        #: do one load, not two (held around disk I/O, so it is separate
        #: from the short-critical-section ``_lock``).
        self._refresh_lock = threading.Lock()
        #: Serializes :meth:`save` (see there).
        self._save_lock = threading.Lock()
        self.loaded_entries = 0
        self.shard_loads = 0
        self.shard_flushes = 0
        self.disk_evictions = 0
        self.lock_wait_seconds = 0.0
        self.load()

    # -- layout ----------------------------------------------------------

    def shard_path(self, index: int) -> str:
        return os.path.join(self.directory, f"shard-{index:03d}.json")

    def _manifest_path(self) -> str:
        return os.path.join(self.directory, "sharding.json")

    def _lock_path(self, name: str) -> str:
        return os.path.join(self.directory, "locks", name)

    def _read_manifest(self) -> int | None:
        """The shard count ``sharding.json`` pins; None when it is absent.

        Raises ControlError naming the file when it does not parse,
        names another format, or lacks a positive integer ``shards``.
        """
        manifest = self._manifest_path()
        try:
            with open(manifest, encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return None
        except ValueError as error:
            raise ControlError(
                f"{manifest}: not a sharding manifest ({error})"
            ) from error
        if not isinstance(payload, dict):
            raise ControlError(
                f"{manifest}: not a sharding manifest (expected a JSON "
                f"object, got {type(payload).__name__})"
            )
        if payload.get("format") != SHARDED_FORMAT:
            raise ControlError(
                f"{manifest}: unknown sharded-cache format "
                f"{payload.get('format')!r} (expected {SHARDED_FORMAT!r})"
            )
        shards = payload.get("shards")
        if type(shards) is not int or shards < 1:
            raise ControlError(
                f"{manifest}: 'shards' must be a positive integer, "
                f"got {shards!r}"
            )
        return shards

    def _resolve_shard_count(self, requested: int | None) -> int:
        """Pin the shard count in ``sharding.json`` (first writer wins)."""
        existing = self._read_manifest()
        if existing is not None:
            if requested is not None and requested != existing:
                raise ControlError(
                    f"{self.directory} is sharded {existing} ways but "
                    f"shards={requested} was requested; processes must "
                    f"agree on the hash ring"
                )
            return existing
        count = DEFAULT_SHARDS if requested is None else int(requested)
        if count < 1:
            raise ControlError(f"shards must be >= 1, got {count}")
        os.makedirs(self.directory, exist_ok=True)
        with FileLock(self._lock_path("sharding.lock")):
            # Re-check under the lock: another process may have won.
            winner = self._read_manifest()
            if winner is not None:
                if requested is not None and winner != requested:
                    raise ControlError(
                        f"{self.directory} was concurrently sharded "
                        f"{winner} ways (requested {requested})"
                    )
                return winner
            payload = json.dumps({"format": SHARDED_FORMAT, "shards": count})
            replace_into(
                lambda handle: handle.write(payload.encode("utf-8")),
                self._manifest_path(),
                ".tmp",
            )
        return count

    def shard_of(self, key: tuple) -> int:
        """Which shard a key lives in.

        Hashes the (fingerprint, signature) pair — the first and last
        elements of both key shapes — so a control problem's latency and
        pulse entries land in the same shard.
        """
        token = repr((key[0], key[-1])).encode()
        return int.from_bytes(
            hashlib.sha256(token).digest()[:8], "big"
        ) % self.shards

    # -- lookups with disk read-through ----------------------------------

    def _get(self, kind: str, key: tuple):
        loads = self.shard_loads
        value = super()._get(kind, key)
        if value is None and self._refresh_shard(self.shard_of(key), loads):
            value = super()._get(kind, key)
        return value

    def _put(self, kind: str, key: tuple, value) -> None:
        super()._put(kind, key, value)
        with self._lock:
            self._dirty.add(self.shard_of(key))

    def merge_delta(self, delta: CacheDelta) -> int:
        added = super().merge_delta(delta)
        shards = {self.shard_of(key) for key in delta.latencies}
        shards.update(self.shard_of(key) for key in delta.pulses)
        with self._lock:
            self._dirty.update(shards)
        return added

    # -- disk traffic ----------------------------------------------------

    def _stat_shard(self, index: int) -> tuple | None:
        try:
            info = os.stat(self.shard_path(index))
        except FileNotFoundError:
            return None
        return (info.st_mtime_ns, info.st_size)

    def _read_shard(self, index: int) -> CacheDelta:
        """One shard file's entries; a missing file is an empty shard."""
        from repro.ir.serialize import cache_delta_from_dict

        path = self.shard_path(index)
        try:
            with open(path, encoding="utf-8") as handle:
                return cache_delta_from_dict(json.load(handle))
        except FileNotFoundError:
            return CacheDelta()
        except (ValueError, SerializationError) as error:
            raise ControlError(
                f"{path}: not a pulse-cache shard ({error})"
            ) from error

    def _write_shard(self, index: int, delta: CacheDelta) -> None:
        from repro.ir.serialize import cache_delta_to_dict

        payload = json.dumps(cache_delta_to_dict(delta)).encode("utf-8")
        replace_into(
            lambda handle: handle.write(payload), self.shard_path(index), ".tmp"
        )

    def _refresh_shard(self, index: int, loads_seen: int) -> bool:
        """Reload one shard if its file changed since we last read it.

        Returns True when a reload happened (the caller's miss is worth
        retrying) — including one a peer thread finished after the
        caller read ``loads_seen`` off :attr:`shard_loads`, just before
        its in-memory miss.  The stat is taken *before* the read, so a
        replace racing the read at worst causes one redundant reload
        later; the read itself always sees one whole shard file.

        Reloads serialize on ``_refresh_lock``: two threads missing on
        one shard do a single disk load (the loser re-checks the
        freshness marker and just retries its in-memory miss), and the
        ``shard_loads`` counter only ever moves under ``_lock``.
        """
        state = self._stat_shard(index)
        with self._lock:
            if state == self._shard_states.get(index, ()):  # () = never looked
                return self.shard_loads != loads_seen
            if state is None:
                self._shard_states[index] = None
                return False
        with self._refresh_lock:
            with self._lock:
                if state == self._shard_states.get(index, ()):
                    return True  # a peer thread just loaded this version
            shard = self._read_shard(index)
            with self._lock:
                self._absorb({LATENCY: shard.latencies, PULSE: shard.pulses})
                self._shard_states[index] = state
                self.shard_loads += 1
        return True

    def load(self) -> int:
        """Read every shard into memory; returns entries loaded."""
        before = len(self._entries)
        for index in range(self.shards):
            with self._lock:
                self._shard_states.pop(index, None)
            self._refresh_shard(index, self.shard_loads)
        self.loaded_entries = len(self._entries) - before
        return self.loaded_entries

    def save(self) -> int:
        """Flush every dirty shard: lock, merge with disk, atomic replace.

        Returns the total entry count of the shards written (union of
        disk and memory, post-trim).  Saves serialize, so one returns only
        once every entry dirty at its call is on disk, even when a peer
        thread's save took that entry's shard.  Flushers of one shard in
        other processes serialize on its lock and each write the union,
        so no entry is ever lost to an interleaved flush.
        """
        return self._flush_dirty(range(self.shards))

    def _flush_dirty(self, shards) -> int:
        """Flush the dirty shards among ``shards``; see :meth:`save`."""
        with self._save_lock:
            with self._lock:
                ours: dict[int, list] = {
                    index: [] for index in sorted(self._dirty.intersection(shards))
                }
                if not ours:
                    return 0
                self._dirty.difference_update(ours)
                # Bucket the resident entries once, under the same hold
                # that clears the dirty flags: an entry written after this
                # snapshot marks its shard dirty again for the next flush.
                for entry, (value, _) in self._entries.items():
                    bucket = ours.get(self.shard_of(entry[1]))
                    if bucket is not None:
                        bucket.append((entry, value))
            return sum(
                self._flush_shard(index, entries) for index, entries in ours.items()
            )

    def _flush_shard(self, index: int, ours: list) -> int:
        """Write our entries of one shard (``ours``: resident entries,
        least recently used first) merged with its file on disk."""
        lock = FileLock(self._lock_path(f"shard-{index:03d}.lock"))
        with lock:
            merged = self._read_shard(index)
            recency = {}  # our entries' ranks in the recency order, LRU first
            for rank, ((kind, key), value) in enumerate(ours):
                (merged.latencies if kind == LATENCY else merged.pulses)[key] = value
                recency[(kind, key)] = rank
            self._trim_shard(merged, recency)
            self._write_shard(index, merged)
            # Invalidate (never update) the freshness marker: the file we
            # just wrote contains disk entries merged through from *other*
            # processes that were never loaded into memory.  Marking it
            # "seen" would make those entries permanently invisible to the
            # read-through (a miss would compare stats, conclude nothing
            # changed, and skip the reload) — the next miss must re-read.
            with self._lock:
                self._shard_states.pop(index, None)
        self.lock_wait_seconds += lock.waited_seconds
        self.shard_flushes += 1
        return len(merged)

    def _trim_shard(self, shard: CacheDelta, recency) -> None:
        """Trim the about-to-be-written union to ``max_bytes // shards``.

        Disk-only entries go first (no one here has used them since the
        last load), then this process's LRU order (``recency`` ranks our
        resident entries, least recently used first); the trim mutates the
        merged shard in place and counts ``disk_evictions``.  Correct for
        the same reason memory eviction is: content-addressed entries
        are recomputed on miss, never answered wrong.  Pulses a thread
        holds or awaits :meth:`exclusive` for are exempt — evicting a
        pulse in the flush that publishes it would make the peers
        blocked on its key lock re-synthesize it, silently voiding the
        exactly-once-per-fleet guarantee even under a tight budget.
        """
        if self.max_bytes is None:
            return
        budget = self.max_bytes // self.shards
        with self._lock:
            protected = set(self._key_locks)
        sized = []  # (rank, size, kind, key) — evict low rank first
        for kind, entries in ((LATENCY, shard.latencies), (PULSE, shard.pulses)):
            for key, value in entries.items():
                rank = recency.get((kind, key), -1)  # -1: disk-only
                sized.append((rank, entry_bytes(kind, key, value), kind, key))
        total = sum(size for _, size, _, _ in sized)
        for _, size, kind, key in sorted(sized, key=lambda x: x[0]):
            if total <= budget or len(sized) == 1:
                break
            if kind == PULSE and key in protected:
                continue
            del (shard.latencies if kind == LATENCY else shard.pulses)[key]
            total -= size
            self.disk_evictions += 1

    # -- single-flight ---------------------------------------------------

    @contextlib.contextmanager
    def exclusive(self, key: PulseKey):
        """Fleet-wide single-flight on one signature via a key lock file.

        Threads of this process queue on the in-process key lock first
        (:meth:`PulseCache.exclusive`), then the holder takes the lock
        file.  While we blocked on it, the previous holder synthesized
        and flushed; the caller's re-check then misses in memory and
        read-throughs to the refreshed shard.  On release, the key's own
        shard (its pulse and latency entries co-locate) is flushed so
        *our* synthesis is visible before any blocked peer re-checks;
        other dirty shards wait for :meth:`save`.
        """
        digest = hashlib.sha256(repr(key).encode()).hexdigest()[:24]
        lock = FileLock(self._lock_path(f"key-{digest}.lock"))
        with super().exclusive(key), lock:
            try:
                yield
            finally:
                self._flush_dirty((self.shard_of(key),))
        self.lock_wait_seconds += lock.waited_seconds

    # -- metrics ---------------------------------------------------------

    def stats(self) -> dict:
        info = super().stats()
        info.update(
            backend="sharded-disk",
            shards=self.shards,
            shard_loads=self.shard_loads,
            shard_flushes=self.shard_flushes,
            disk_evictions=self.disk_evictions,
            lock_wait_seconds=self.lock_wait_seconds,
        )
        return info
