"""Regenerates paper Figure 11: spatial locality vs aggregation benefit."""

from repro.experiments.figure11 import format_figure11, run_figure11


def test_figure11(benchmark, bench_scale, batch_engine, capsys):
    rows = benchmark.pedantic(
        run_figure11,
        kwargs={"scale": bench_scale, "engine": batch_engine},
        rounds=1,
        iterations=1,
    )
    with capsys.disabled():
        print()
        print(format_figure11(rows))
    by_locality = {row.locality: row for row in rows}
    # Paper shape: aggregation helps each instance, and the low-locality
    # cluster instance gains at least as much as the line instance.
    for row in rows:
        assert row.normalized <= 1.0 + 1e-9
    assert by_locality["low"].normalized <= by_locality["high"].normalized + 1e-9
    # Lower locality must show up as more routing SWAPs.
    assert by_locality["low"].swap_count >= by_locality["high"].swap_count
