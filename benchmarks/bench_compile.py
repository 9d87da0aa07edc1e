"""Warm-path pass profile: where the sweep's compile time actually goes.

Runs the standard strategy sweep twice against one engine — the first
pass warms the pulse/latency cache, the second is the *warm path* every
resident deployment (compile service, shared-cache fleet) lives on —
and prints :attr:`BatchReport.pass_seconds` as a per-pass table.

This is the measurement behind the hot-path optimization work: the
aggregation search (candidate enumeration, monotonicity checks, GDG
bookkeeping) dominates the warm sweep, with scheduling a distant
second.  The table prints on every run so a regression in any single
pass is visible at a glance; ``pytest benchmarks/bench_compile.py -s``
is the quickest way to re-profile after touching a pass.
"""

import time

from repro.compiler.batch import BatchCompiler, format_pass_table
from repro.control.cache import PulseCache


def _pass_table(report, wall: float) -> str:
    return f"{format_pass_table(report.pass_seconds)}  of {wall:.3f}s wall"


def test_warm_path_pass_profile(sweep_jobs, capsys):
    """Per-pass timing of the warm sweep (cold run shown for contrast)."""
    engine = BatchCompiler(cache=PulseCache(), max_workers=1)

    started = time.perf_counter()
    cold = engine.compile_batch(sweep_jobs)
    cold_wall = time.perf_counter() - started

    started = time.perf_counter()
    warm = engine.compile_batch(sweep_jobs)
    warm_wall = time.perf_counter() - started

    assert warm.pass_seconds, "per-pass instrumentation went missing"
    # Every job ran the pipeline (no result cache here), so each pass
    # name from the cold run shows up warm too.
    assert set(warm.pass_seconds) == set(cold.pass_seconds)
    # The warm sweep answers every optimal-control query from cache.
    assert warm.cache_info["model_evals"] == 0

    with capsys.disabled():
        print()
        print(
            f"warm-path profile ({len(sweep_jobs)} jobs): "
            f"cold {cold_wall:.2f}s, warm {warm_wall:.2f}s"
        )
        print(_pass_table(warm, warm_wall))
