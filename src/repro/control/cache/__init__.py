"""The shared pulse cache: one warm store, however many processes.

Layering (each module builds on the previous):

* :mod:`.store` — :class:`~.store.ByteBudgetLRU` (the one recency order
  and byte budget of every store here and of the compiled-result cache),
  in-memory :class:`PulseCache` (thread-safe, latencies and pulses in
  one LRU, units write straight through and single-flight their
  misses), :class:`CacheDelta` (the transfer unit between stores),
  :func:`config_fingerprint`.
* :mod:`.disk` — :func:`~.disk.replace_into`, the crash-safe file
  write every on-disk store uses.
* :mod:`.locking` — advisory ``flock`` file locks.
* :mod:`.sharded` — :class:`ShardedDiskPulseCache`, the one disk store:
  many processes on one box share a directory of single-file
  ``cache_delta`` shards, no server needed.
* :mod:`.protocol` / :mod:`.server` / :mod:`.client` — the socket
  protocol; the framed-TCP core, :class:`~.server.FramedServer` and
  :class:`~.client.FramedClient`, that the compile service
  (:mod:`repro.service`) subclasses too; and on it :class:`CacheServer`
  (``python -m repro.control.cache_server``) and
  :class:`RemotePulseCache` for sharing across boxes.
* :mod:`.metrics` — hit-rate helpers and the exit-bill summary line.

The memory, directory and remote stores are drop-in :class:`PulseCache`
backends; use :func:`resolve_cache` to build one from CLI-style flags.
"""

from __future__ import annotations

from repro.control.cache.client import RemotePulseCache, parse_cache_url
from repro.control.cache.locking import HAVE_FILE_LOCKS, FileLock
from repro.control.cache.metrics import cache_summary, hit_rate
from repro.control.cache.protocol import PROTOCOL_FORMAT, ProtocolError
from repro.control.cache.server import CacheServer
from repro.control.cache.sharded import DEFAULT_SHARDS, ShardedDiskPulseCache
from repro.control.cache.store import (
    CacheDelta,
    PulseCache,
    config_fingerprint,
)

__all__ = [
    "DEFAULT_SHARDS",
    "HAVE_FILE_LOCKS",
    "PROTOCOL_FORMAT",
    "CacheDelta",
    "CacheServer",
    "FileLock",
    "ProtocolError",
    "PulseCache",
    "RemotePulseCache",
    "ShardedDiskPulseCache",
    "cache_summary",
    "config_fingerprint",
    "hit_rate",
    "parse_cache_url",
    "resolve_cache",
]


def resolve_cache(
    path: str | None = None,
    url: str | None = None,
    shards: int | None = None,
    max_bytes: int | None = None,
) -> PulseCache | None:
    """Build the right cache backend from CLI-style flags.

    Precedence: ``url`` mounts a :class:`RemotePulseCache`; ``path``
    mounts the :class:`ShardedDiskPulseCache` directory there
    (``shards`` sizes a new one); nothing returns ``None`` (fully
    in-memory compilation, the historical default).  ``max_bytes``
    bounds the local store.
    """
    if url:
        return RemotePulseCache(url, max_bytes=max_bytes)
    if path is None:
        return None
    return ShardedDiskPulseCache(path, shards=shards, max_bytes=max_bytes)
