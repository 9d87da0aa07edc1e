"""Shared fixtures for the benchmark harness.

Every paper table/figure has one ``bench_*`` module here that regenerates
it and prints the rows the paper reports.  The default scale is the
reduced ("small") suite so ``pytest benchmarks/ --benchmark-only``
finishes in minutes; set ``REPRO_BENCH_SCALE=paper`` for the full Table 3
sizes (the committed ``results/paper_scale_report.txt`` was produced at
paper scale).

All benchmarks share one pulse/latency cache through the batch engine.
Set ``REPRO_BENCH_CACHE=<dir>`` to persist it across pytest sessions
(warm runs skip every cached optimal-control query); by default the
cache lives in memory for the session only.  ``REPRO_BENCH_WORKERS=N``
sets the batch engine's worker-thread count (default: 2).
"""

from __future__ import annotations

import os

import pytest

from repro.benchmarks.registry import table3_suite
from repro.compiler.batch import BatchCompiler, BatchJob
from repro.compiler.strategies import all_strategies
from repro.control.cache import PulseCache, ShardedDiskPulseCache
from repro.control.unit import OptimalControlUnit

_SWEEP_KEYS_SMALL = ("maxcut-line-6", "ising-6", "sqrt-9", "uccsd-4")


def build_strategy_sweep_jobs(scale: str) -> list[BatchJob]:
    """The shared benchmark workload: a multi-benchmark strategy sweep.

    At small scale a four-benchmark subset keeps the sweep fast; at
    paper scale the full Table 3 suite runs.  One definition serves
    every bench module so the CI jobs measure the same suite.
    """
    jobs: list[BatchJob] = []
    for spec in table3_suite(scale):
        if scale == "small" and spec.key not in _SWEEP_KEYS_SMALL:
            continue
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


@pytest.fixture(scope="session")
def bench_scale() -> str:
    """Benchmark suite scale: "small" (default) or "paper"."""
    return os.environ.get("REPRO_BENCH_SCALE", "small")


@pytest.fixture(scope="session")
def shared_cache():
    """One pulse/latency store for the whole session.

    Disk-persistent when ``REPRO_BENCH_CACHE`` names a cache directory;
    saved back at session end so the next benchmark run starts warm.
    """
    directory = os.environ.get("REPRO_BENCH_CACHE")
    if directory:
        cache = ShardedDiskPulseCache(directory)
        yield cache
        cache.save()
    else:
        yield PulseCache()


@pytest.fixture(scope="session")
def sweep_jobs(bench_scale) -> list[BatchJob]:
    """The shared strategy-sweep workload at the session's scale."""
    return build_strategy_sweep_jobs(bench_scale)


@pytest.fixture(scope="session")
def batch_engine(shared_cache) -> BatchCompiler:
    """Batch compilation engine over the session-shared cache."""
    workers = os.environ.get("REPRO_BENCH_WORKERS")
    return BatchCompiler(
        cache=shared_cache,
        max_workers=int(workers) if workers else 2,
    )


@pytest.fixture(scope="session")
def shared_ocu(shared_cache) -> OptimalControlUnit:
    """One latency oracle for the whole session (shared pulse cache)."""
    return OptimalControlUnit(backend="model", cache=shared_cache)
