"""Regenerates paper Figure 9: normalized latency per strategy.

The headline result.  At ``REPRO_BENCH_SCALE=paper`` this compiles the
full Table 3 suite under all five strategies (takes tens of minutes); the
default small scale preserves every structural relationship the
assertions below pin down.
"""

from repro.experiments.figure9 import (
    format_figure9,
    geometric_mean_speedups,
    max_speedup,
    run_figure9,
)


def test_figure9(benchmark, bench_scale, batch_engine, capsys):
    rows = benchmark.pedantic(
        run_figure9,
        kwargs={"scale": bench_scale, "engine": batch_engine},
        rounds=1,
        iterations=1,
    )
    with capsys.disabled():
        print()
        print(format_figure9(rows))
    means = geometric_mean_speedups(rows)
    # Paper shape: the full flow wins on every benchmark; geomean beats
    # CLS+hand; somewhere in the suite a large speedup appears.
    for row in rows:
        assert row.normalized()["cls+aggregation"] <= 1.0 + 1e-9, row.benchmark
    assert means["cls+aggregation"] > means["cls+hand"] > 1.0
    assert means["cls+aggregation"] >= 2.0
    assert max_speedup(rows, "cls+aggregation") >= 3.0
    # CLS helps the commutative QAOA circuits far more than square root.
    by_name = {row.benchmark: row for row in rows}
    qaoa = next(k for k in by_name if k.startswith("maxcut-line"))
    sqrt = next(k for k in by_name if k.startswith("sqrt"))
    assert by_name[qaoa].speedup("cls") > by_name[sqrt].speedup("cls")
