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
backends.  :func:`resolve_cache` is the one way to build one from a
setting, and :func:`add_cache_arguments` the one definition of the flags
(``--cache``, ``--shards``, ``--max-bytes``) that every command line
passes to it.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:
    import argparse

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
    "add_cache_arguments",
    "cache_summary",
    "config_fingerprint",
    "hit_rate",
    "parse_cache_url",
    "resolve_cache",
]


def resolve_cache(
    path: str | os.PathLike | None = None,
    shards: int | None = None,
    max_bytes: int | None = None,
) -> PulseCache:
    """Build the pulse store a setting names.

    ``tcp://HOST:PORT`` mounts a :class:`RemotePulseCache` on that cache
    server; any other ``path`` mounts the :class:`ShardedDiskPulseCache`
    directory there (``shards`` sizes a new one); ``None`` is an
    in-memory :class:`PulseCache`.  ``max_bytes`` bounds whichever store
    is built (a remote client's local copy; the server keeps its own).
    """
    if path is None:
        return PulseCache(max_bytes=max_bytes)
    path = os.fspath(path)
    if path.startswith("tcp://"):
        return RemotePulseCache(path, max_bytes=max_bytes)
    return ShardedDiskPulseCache(path, shards=shards, max_bytes=max_bytes)


def add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    """Add the pulse-store flags, whose values go to :func:`resolve_cache`."""
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR|tcp://HOST:PORT",
        help="pulse store: a cache directory, created on first use, that "
        "many processes can share (loaded at start, saved on exit), or a "
        "cache server (python -m repro.control.cache_server); a server "
        "needs the tcp:// scheme, because a bare HOST:PORT names a "
        "directory; default: in memory",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help=f"shard count when --cache creates a new directory (default "
        f"{DEFAULT_SHARDS}; an existing directory keeps its pinned count)",
    )
    parser.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="LRU eviction budget of the pulse store, in bytes: its memory, "
        "and the disk of a --cache directory (for a cache server, the "
        "local copy)",
    )
