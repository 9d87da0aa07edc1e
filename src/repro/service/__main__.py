"""Run a compile service: ``python -m repro.service``.

One resident engine, one warm pulse cache, any number of submitting
clients.  Typical deployment::

    python -m repro.service --port 7788 --cache fleet_cache --journal jobs &
    python -m repro.experiments.runner --submit-url 127.0.0.1:7788 ...

The pulse-store flags are the runner's and the cache server's:
``--cache DIR`` mounts a cache directory, ``--cache tcp://HOST:PORT`` a
``python -m repro.control.cache_server`` fleet cache, and ``--max-bytes``
bounds whichever store the service compiles over, the default in-memory
one included.  With
``--journal DIR`` the server restarts without losing accepted work:
completed results are re-served from the result cache (``--result-cache
DIR``, else one kept inside the journal directory), interrupted jobs
re-run against the still-warm cache.  Clean shutdown on SIGINT/SIGTERM
persists the cache.
"""

from __future__ import annotations

import argparse
import signal
import sys

from repro.compiler.batch import BatchCompiler
from repro.control.cache import add_cache_arguments, resolve_cache
from repro.service.breaker import (
    DEFAULT_BREAKER_COOLDOWN,
    DEFAULT_BREAKER_THRESHOLD,
)
from repro.service.server import DEFAULT_QUEUE_LIMIT, CompileService


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Resident compile-job server over the repro wire format.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=7788, help="bind port (0 picks a free one)"
    )
    add_cache_arguments(parser)
    parser.add_argument(
        "--backend",
        choices=("model", "grape"),
        default="model",
        help="optimal-control backend for the resident engine",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="compile worker threads (0 queues jobs without running them)",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=DEFAULT_QUEUE_LIMIT,
        help="queued-job bound before submissions get backpressure",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        help="per-job wall-clock budget in seconds (cancelled past it)",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=DEFAULT_BREAKER_THRESHOLD,
        help="consecutive failures that quarantine a job signature",
    )
    parser.add_argument(
        "--breaker-cooldown",
        type=float,
        default=DEFAULT_BREAKER_COOLDOWN,
        help="quarantine seconds before a half-open probe is admitted",
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="DIR",
        help="crash-safe job journal directory (restarts resume work)",
    )
    parser.add_argument(
        "--result-cache",
        default=None,
        metavar="DIR",
        help="content-addressed compiled-result cache directory: repeat "
        "jobs are served whole without recompiling, across restarts "
        "(default: inside --journal, or in memory without one)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cache = resolve_cache(args.cache, args.shards, args.max_bytes)
    engine = BatchCompiler(
        cache=cache, backend=args.backend, result_cache=args.result_cache
    )
    service = CompileService(
        engine=engine,
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        workers=args.workers,
        job_timeout=args.job_timeout,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        journal=args.journal,
    )
    resumed = f", {service.resumed} jobs resumed" if service.resumed else ""
    print(
        f"compile service listening on {service.url} "
        f"({args.workers} workers, {args.backend} backend{resumed})",
        flush=True,
    )
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
        stats = service.stats()
        print(
            f"compile service stopped: {stats['completed']} jobs completed, "
            f"{stats['failed']} failed, "
            f"{sum(stats['requests'].values())} requests served",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
