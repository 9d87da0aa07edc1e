"""Regenerates paper Figure 10: instruction width vs normalized latency."""

from repro.experiments.figure10 import format_figure10, run_figure10


def _benchmarks_for(scale: str) -> dict[str, str]:
    if scale == "paper":
        return {
            "maxcut-line-20": "parallel",
            "maxcut-reg4-30": "parallel",
            "ising-30": "parallel",
            "sqrt-17": "serial",
            "uccsd-4": "serial",
            "uccsd-6-b": "serial",
        }
    return {
        "maxcut-line-6": "parallel",
        "ising-6": "parallel",
        "sqrt-9": "serial",
        "uccsd-4": "serial",
    }


def test_figure10(benchmark, bench_scale, batch_engine, capsys):
    widths = range(2, 11) if bench_scale == "paper" else range(2, 7)
    series = benchmark.pedantic(
        run_figure10,
        kwargs={
            "benchmarks": _benchmarks_for(bench_scale),
            "widths": widths,
            "scale": bench_scale,
            "engine": batch_engine,
        },
        rounds=1,
        iterations=1,
    )
    with capsys.disabled():
        print()
        print(format_figure10(series))
    # Paper shape: serial applications keep improving with width, and
    # gain more from the largest widths than parallel ones do.
    for entry in series:
        first = entry.points[0].normalized_latency
        last = entry.points[-1].normalized_latency
        assert last <= first + 1e-9
    serial_gains = [
        s.points[0].normalized_latency - s.points[-1].normalized_latency
        for s in series
        if s.classification == "serial"
    ]
    parallel_saturations = [
        s.saturation_width()
        for s in series
        if s.classification == "parallel"
    ]
    assert max(serial_gains) > 0.01
    # Parallel applications saturate before the maximum width.
    assert min(parallel_saturations) < max(widths)
