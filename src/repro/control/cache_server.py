"""Run a shared pulse-cache server: ``python -m repro.control.cache_server``.

Serves one pulse store to any number of compile processes over the
length-prefixed JSON protocol (see :mod:`repro.control.cache.protocol`).
Typical fleet setup::

    python -m repro.control.cache_server --port 7777 --cache fleet_cache &
    python -m repro.experiments.runner --cache-url 127.0.0.1:7777 ...

The store is persisted (the ``--cache`` directory) on clean shutdown
(SIGINT/SIGTERM), after every client connection has closed, so no write
is acknowledged that the saved store lacks; ``--max-bytes`` (positive)
bounds it, in memory and on disk, with fleet-wide LRU eviction.
"""

from __future__ import annotations

import argparse
import signal
import sys

from repro.control.cache import CacheServer, PulseCache, resolve_cache
from repro.control.cache.server import DEFAULT_LOCK_TTL_SECONDS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.control.cache_server",
        description="Shared pulse-cache server for fleet compilation.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=7777, help="bind port (0 picks a free one)"
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="PATH",
        help="persistent store: a cache directory, created on first use "
        "(loaded at start, saved on shutdown)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard count when --cache creates a new directory",
    )
    parser.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="LRU eviction budget for the served store and its --cache "
        "directory, in bytes",
    )
    parser.add_argument(
        "--lock-ttl",
        type=float,
        default=DEFAULT_LOCK_TTL_SECONDS,
        help="seconds before an unreleased synthesis lease expires",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    store = resolve_cache(
        path=args.cache, shards=args.shards, max_bytes=args.max_bytes
    )
    if store is None:
        store = PulseCache(max_bytes=args.max_bytes)
    server = CacheServer(
        store=store, host=args.host, port=args.port, lock_ttl=args.lock_ttl
    )
    print(
        f"cache server listening on {server.url} "
        f"({store.latency_count} latencies + {store.pulse_count} pulses warm)",
        flush=True,
    )
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        saved = server.stop()
        stats = server.stats()
        print(
            f"cache server stopped: {saved} entries persisted, "
            f"{sum(stats['server_requests'].values())} requests served",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
