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

Beside the table it prints the aggregation loop's work on the warm
sweep, counted through wrappers, and gates two count invariants that
hold on any machine: within one ``aggregate()`` call the model prices
each ``(earlier, later)`` pair once, and the graph is sorted at most
once per round plus once for each makespan.
"""

import time

import repro.compiler.passes as passes
from repro.circuit.dag import GateDependenceGraph
from repro.compiler.batch import BatchCompiler, format_pass_table
from repro.control.cache import PulseCache
from repro.control.unit import OptimalControlUnit


def _pass_table(report, wall: float) -> str:
    return f"{format_pass_table(report.pass_seconds)}  of {wall:.3f}s wall"


class _AggregationWork:
    """Model probes and topological sorts inside each ``aggregate()``.

    Sequential batches only: the per-call state is not thread-local.
    """

    def __init__(self, monkeypatch) -> None:
        self.calls = self.rounds = self.merges = 0
        self.probes = self.sorts = 0
        self.repeated_probes = 0
        self.sort_overruns = 0
        self._pairs: set | None = None
        self._call_sorts = 0
        aggregate = passes.aggregate
        model_latency = OptimalControlUnit.model_latency
        topological_order = GateDependenceGraph.topological_order

        def counted_aggregate(*args, **kwargs):
            self._pairs, self._call_sorts = set(), 0
            try:
                report = aggregate(*args, **kwargs)
            finally:
                self._pairs = None
            self.calls += 1
            self.rounds += report.rounds
            self.merges += report.merges
            if self._call_sorts > report.rounds + 2:
                self.sort_overruns += 1
            return report

        def counted_model_latency(unit, node):
            if self._pairs is not None:
                # A probe's member gates name its pair: nodes only ever
                # merge, so no two pairs of one run split the same run.
                key = tuple(node.gates)
                self.probes += 1
                if key in self._pairs:
                    self.repeated_probes += 1
                self._pairs.add(key)
            return model_latency(unit, node)

        def counted_topological_order(dag):
            if self._pairs is not None:
                self._call_sorts += 1
                self.sorts += 1
            return topological_order(dag)

        monkeypatch.setattr(passes, "aggregate", counted_aggregate)
        monkeypatch.setattr(
            OptimalControlUnit, "model_latency", counted_model_latency
        )
        monkeypatch.setattr(
            GateDependenceGraph, "topological_order", counted_topological_order
        )

    def summary(self) -> str:
        return (
            f"aggregation work: {self.calls} calls, {self.rounds} rounds, "
            f"{self.merges} merges, {self.probes} model probes "
            f"({self.repeated_probes} repeated), {self.sorts} topological sorts"
        )


def test_warm_path_pass_profile(sweep_jobs, capsys, monkeypatch):
    """Per-pass timing of the warm sweep (cold run shown for contrast)."""
    engine = BatchCompiler(cache=PulseCache(), max_workers=1)

    started = time.perf_counter()
    cold = engine.compile_batch(sweep_jobs)
    cold_wall = time.perf_counter() - started

    work = _AggregationWork(monkeypatch)
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
        print(work.summary())

    assert work.calls > 0 and work.rounds > 0
    assert work.repeated_probes == 0, "a pair was priced twice in one run"
    assert work.sort_overruns == 0, "more than rounds + 2 sorts in one run"
