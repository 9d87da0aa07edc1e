"""Tests for exactly-once GRAPE synthesis in both executors.

Thread batches share one store whose single-flight synthesizes each
control problem once.  Process batches, whose worker stores cannot see
each other, run the pre-warm planner: it dry-runs every job against the
analytic model, extracts the batch's distinct GRAPE worklist by cache
signature, synthesizes each distinct problem exactly once across
workers, and only then dispatches the jobs, which run entirely warm.
These tests pin the worklist dedup arithmetic, which batches plan, the
"exactly one synthesis per problem" guarantee in both executors
(asserted through the ``cache_info`` counters), and bit-level canonical
parity between them.
"""

import pytest

from repro.circuit.circuit import Circuit
from repro.compiler.batch import BatchCompiler, BatchJob, _PlanningUnit
from repro.control.cache import PulseCache
from repro.ir import canonical_result_dict


def _jobs(n=3):
    """``n`` structurally identical two-qubit jobs (distinct names)."""
    jobs = []
    for i in range(n):
        circuit = Circuit(2, name=f"job{i}")
        circuit.h(0)
        circuit.cnot(0, 1)
        circuit.rz(0.4, 1)
        circuit.cnot(0, 1)
        jobs.append(BatchJob(circuit=circuit, strategy="aggregation"))
    return jobs


def _canon(report):
    return [canonical_result_dict(result) for result in report.results]


class TestPlanner:
    def test_identical_jobs_collapse_to_one_worklist(self):
        engine = BatchCompiler(backend="model")
        worklist, demand, counters = engine.plan_prewarm(_jobs(3))
        assert len(worklist) >= 1
        # Three structurally identical jobs demand every signature three
        # times but contribute it to the worklist once.
        assert demand == 3 * len(worklist)
        # The dry-runs priced through the model, and say so.
        assert counters["model_evals"] == engine.cache.latency_count
        assert counters["grape_calls"] == 0

    def test_planning_unit_respects_qubit_limit(self):
        circuit = Circuit(2)
        circuit.h(0)
        circuit.cnot(0, 1)
        one_qubit, two_qubit = circuit.gates
        recorded = {}
        unit = _PlanningUnit(
            recorded,
            grape_qubit_limit=1,
            cache=PulseCache(),
        )
        unit.latency(two_qubit)
        assert not recorded  # above the GRAPE width limit: never recorded
        unit.latency(one_qubit)
        assert len(recorded) == 1
        (key,) = recorded
        assert key == (unit.fingerprint, unit._node_signature(one_qubit))
        assert recorded[key] == (one_qubit, True)
        # The planning unit prices through the model regardless of the
        # recorded worklist.
        assert unit.backend == "model"
        assert unit.grape_calls == 0

    def test_report_prewarm_none_when_inactive(self):
        report = BatchCompiler(backend="model").compile_batch(_jobs(1))
        assert report.prewarm is None

    def test_process_model_batch_does_not_plan(self):
        report = BatchCompiler(
            backend="model", executor="process", max_workers=1
        ).compile_batch(_jobs(2))
        assert report.prewarm is None

    def test_lifetime_info_accumulates(self):
        engine = BatchCompiler(backend="model")
        engine.compile_batch(_jobs(2))
        first = dict(engine.lifetime_info)
        engine.compile_batch(_jobs(2))
        assert engine.lifetime_info["model_evals"] >= first["model_evals"]
        assert engine.lifetime_info["cache_hits"] > first["cache_hits"]


class TestThreadBatches:
    """Threads share one store, so its single-flight alone keeps GRAPE
    synthesis exactly-once; the planner never runs."""

    @pytest.fixture(scope="class")
    def serial(self):
        return _canon(
            BatchCompiler(
                backend="grape", grape_qubit_limit=1, max_workers=1
            ).compile_batch(_jobs(3))
        )

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_each_problem_is_synthesized_once(self, workers, serial):
        engine = BatchCompiler(
            backend="grape", grape_qubit_limit=1, max_workers=workers
        )
        report = engine.compile_batch(_jobs(3))
        assert report.prewarm is None
        assert report.cache_info["grape_calls"] == engine.cache.pulse_count
        assert engine.cache.pulse_count > 0
        assert _canon(report) == serial


@pytest.mark.slow
class TestPrewarmGrape:
    """End-to-end guarantees with real GRAPE synthesis (tier-2)."""

    @pytest.fixture(scope="class")
    def cold_report(self):
        return BatchCompiler(backend="grape").compile_batch(_jobs(3))

    def test_thread_single_synthesis_and_parity(self, cold_report):
        engine = BatchCompiler(backend="grape", max_workers=2)
        report = engine.compile_batch(_jobs(3))
        assert report.prewarm is None
        # Every distinct problem was synthesized exactly once, by
        # whichever job missed it first.
        assert report.cache_info["grape_calls"] == engine.cache.pulse_count
        assert _canon(report) == _canon(cold_report)

    def test_process_single_synthesis_and_parity(self, cold_report):
        engine = BatchCompiler(
            backend="grape", executor="process", max_workers=2
        )
        report = engine.compile_batch(_jobs(3))
        stats = report.prewarm
        assert stats["synthesized"] == stats["signatures"]
        assert stats["dedup_ratio"] == pytest.approx(3.0)
        assert report.cache_info["grape_calls"] == stats["signatures"]
        assert report.cache_info["grape_evals"] > 0
        assert report.cache_info["grape_wall_seconds"] > 0.0
        assert _canon(report) == _canon(cold_report)

    def test_warm_cache_skips_synthesis_entirely(self, cold_report):
        cache = PulseCache()
        engine = BatchCompiler(backend="grape", cache=cache, max_workers=2)
        engine.compile_batch(_jobs(3))
        again = engine.compile_batch(_jobs(3))
        assert again.prewarm is None
        assert again.cache_info["grape_calls"] == 0
        assert _canon(again) == _canon(cold_report)
