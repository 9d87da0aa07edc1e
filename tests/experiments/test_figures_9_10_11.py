"""Tests for the Figure 9/10/11 experiments (small scale)."""

import pytest

from repro.compiler.batch import BatchCompiler
from repro.experiments.figure9 import (
    format_figure9,
    geometric_mean_speedups,
    max_speedup,
    run_figure9,
)
from repro.experiments.figure10 import (
    format_figure10,
    run_figure10,
)
from repro.experiments.figure11 import format_figure11, run_figure11
from repro.experiments.table3 import format_table3, run_table3


@pytest.fixture(scope="module")
def engine():
    return BatchCompiler()


@pytest.fixture(scope="module")
def figure9_rows(engine):
    keys = ["maxcut-line-6", "maxcut-cluster-8", "ising-6", "uccsd-4"]
    return run_figure9(scale="small", engine=engine, benchmark_keys=keys)


class TestFigure9:
    def test_row_per_benchmark(self, figure9_rows):
        assert len(figure9_rows) == 4

    def test_baseline_normalizes_to_one(self, figure9_rows):
        for row in figure9_rows:
            assert row.normalized()["isa"] == pytest.approx(1.0)

    def test_full_flow_always_wins(self, figure9_rows):
        for row in figure9_rows:
            assert row.normalized()["cls+aggregation"] < 1.0

    def test_cls_helps_commutative_benchmarks_most(self, figure9_rows):
        by_name = {row.benchmark: row for row in figure9_rows}
        qaoa_gain = by_name["maxcut-line-6"].speedup("cls")
        uccsd_gain = by_name["uccsd-4"].speedup("cls")
        assert qaoa_gain > uccsd_gain

    def test_geomean_speedups_positive(self, figure9_rows):
        means = geometric_mean_speedups(figure9_rows)
        assert means["cls+aggregation"] > 1.5
        assert means["cls+hand"] > 1.0
        assert means["cls+aggregation"] > means["cls+hand"]

    def test_max_speedup(self, figure9_rows):
        assert max_speedup(figure9_rows, "cls+aggregation") >= geometric_mean_speedups(
            figure9_rows
        )["cls+aggregation"]

    def test_format(self, figure9_rows):
        text = format_figure9(figure9_rows)
        assert "geomean" in text
        assert "maxcut-line-6" in text


class TestFigure10:
    @pytest.fixture(scope="class")
    def series(self, engine):
        benchmarks = {"maxcut-line-6": "parallel", "sqrt-9": "serial"}
        return run_figure10(
            benchmarks=benchmarks,
            widths=range(2, 7),
            scale="small",
            engine=engine,
        )

    def test_one_series_per_benchmark(self, series):
        assert len(series) == 2

    def test_latency_non_increasing_with_width(self, series):
        for entry in series:
            latencies = [p.normalized_latency for p in entry.points]
            for earlier, later in zip(latencies, latencies[1:]):
                assert later <= earlier * 1.05  # small tolerance

    def test_serial_benchmark_keeps_improving(self, series):
        serial = next(s for s in series if s.classification == "serial")
        first = serial.points[0].normalized_latency
        last = serial.points[-1].normalized_latency
        assert last < first

    def test_band_edges_ordered(self, series):
        for entry in series:
            for point in entry.points:
                assert point.most_optimized <= point.least_optimized + 1e-9

    def test_format(self, series):
        text = format_figure10(series)
        assert "width" in text and "saturates" in text


class TestFigure11:
    @pytest.fixture(scope="class")
    def rows(self, engine):
        return run_figure11(scale="small", engine=engine)

    def test_three_instances(self, rows):
        assert [row.locality for row in rows] == ["high", "medium", "low"]

    def test_normalized_at_most_one(self, rows):
        for row in rows:
            assert row.normalized <= 1.0 + 1e-9

    def test_lower_locality_more_aggregation_benefit(self, rows):
        by_locality = {row.locality: row.normalized for row in rows}
        # The paper's headline shape: cluster (low locality) gains most.
        assert by_locality["low"] <= by_locality["high"] + 1e-9

    def test_format(self, rows):
        text = format_figure11(run_figure11(scale="small"))
        assert "locality" in text


class TestTable3Experiment:
    def test_rows_and_format(self):
        rows = run_table3(scale="small")
        assert len(rows) == 10
        text = format_table3(rows)
        assert "benchmark" in text
        for row in rows:
            assert row.key in text

    def test_labels_are_valid(self):
        for row in run_table3(scale="small"):
            for label in (
                row.parallelism_label,
                row.locality_label,
                row.commutativity_label,
            ):
                assert label in ("Low", "Medium", "High")
