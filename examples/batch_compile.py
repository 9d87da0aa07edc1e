"""Batch compilation with a persistent pulse cache: a strategy sweep.

Compiles a small benchmark suite under every Figure 9 strategy through
the batch engine, twice over the same disk cache, and reports how much
optimal-control work the warm run skipped.  This is the "partial
compilation" scenario the paper's future-work section proposes: repeated
instruction structures are optimized once and reused forever.

Run:  python examples/batch_compile.py [--cache /tmp/repro_pulse_cache]
"""

from __future__ import annotations

import argparse
import tempfile
import os
import time

from repro.benchmarks.registry import table3_suite
from repro.compiler import BatchCompiler, BatchJob, all_strategies
from repro.control.cache import ShardedDiskPulseCache


def build_jobs() -> list[BatchJob]:
    """Every small-scale Table 3 benchmark under every strategy."""
    jobs: list[BatchJob] = []
    for spec in table3_suite("small"):
        circuit = spec.build()
        jobs.extend(
            BatchJob(
                circuit=circuit,
                strategy=strategy,
                label=f"{spec.key}/{strategy.key}",
            )
            for strategy in all_strategies()
        )
    return jobs


def run_once(directory: str, jobs: list[BatchJob], workers: int):
    """One engine lifetime: load cache, compile the batch, save cache."""
    engine = BatchCompiler(
        cache=ShardedDiskPulseCache(directory), max_workers=workers
    )
    started = time.perf_counter()
    report = engine.compile_batch(jobs)
    elapsed = time.perf_counter() - started
    engine.save_cache()
    return report, elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--cache",
        default=os.path.join(tempfile.gettempdir(), "repro_pulse_cache"),
        help="cache directory, created on first use (default: a temp-dir "
        "location)",
    )
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    jobs = build_jobs()
    print(f"{len(jobs)} jobs (10 benchmarks x 5 strategies), "
          f"{args.workers} workers, cache directory {args.cache}")

    cold_report, cold_seconds = run_once(args.cache, jobs, args.workers)
    warm_report, warm_seconds = run_once(args.cache, jobs, args.workers)

    for label, report, elapsed in (
        ("cold", cold_report, cold_seconds),
        ("warm", warm_report, warm_seconds),
    ):
        info = report.cache_info
        print(f"{label}: {elapsed:6.2f}s wall, "
              f"{info['model_evals']:5d} model evals, "
              f"{info['grape_calls']:3d} GRAPE calls, "
              f"{info['cache_hits']:6d} cache hits")

    mismatch = sum(
        1
        for cold, warm in zip(cold_report, warm_report)
        if cold.latency_ns != warm.latency_ns
    )
    print(f"result parity: {len(jobs) - mismatch}/{len(jobs)} identical")

    cold_evals = cold_report.cache_info["model_evals"]
    warm_evals = warm_report.cache_info["model_evals"]
    if mismatch or warm_evals * 5 > max(cold_evals, 1):
        print("FAIL: warm run did not reuse the cache as expected")
        return 1
    saved = cold_evals - warm_evals
    print(f"OK: warm run skipped {saved} of {cold_evals} model evaluations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
