"""Tests for the batch pre-warm planner.

The planner dry-runs every job against the analytic model, extracts the
batch's distinct GRAPE worklist by cache signature, synthesizes each
distinct control problem exactly once across workers, and only then
dispatches the jobs — which run entirely warm.  These tests pin the
three contracts that matter: the worklist dedup arithmetic, the
"exactly one synthesis per signature" guarantee (thread AND process
executors, asserted through the ``cache_info`` counters), and bit-level
canonical parity between the pre-warmed and cold paths.
"""

import pytest

from repro.circuit.circuit import Circuit
from repro.compiler.batch import BatchCompiler, BatchJob, _PlanningUnit
from repro.control.cache import PulseCache
from repro.errors import ConfigError
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


class TestPrewarmMode:
    def test_auto_tracks_backend(self):
        assert not BatchCompiler(backend="model").prewarm_active()
        assert BatchCompiler(backend="grape").prewarm_active()

    def test_explicit_override_wins(self):
        assert BatchCompiler(backend="model", prewarm=True).prewarm_active()
        assert not BatchCompiler(
            backend="grape", prewarm=False
        ).prewarm_active()

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigError, match="prewarm"):
            BatchCompiler(prewarm="sometimes")


class TestPlanner:
    def test_identical_jobs_collapse_to_one_worklist(self):
        engine = BatchCompiler(backend="model", prewarm=True)
        worklist, demand = engine.plan_prewarm(_jobs(3))
        assert len(worklist) >= 1
        # Three structurally identical jobs demand every signature three
        # times but contribute it to the worklist once.
        assert demand == 3 * len(worklist)

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
        assert key == (unit.fingerprint, unit.node_signature(one_qubit))
        assert recorded[key] == (one_qubit, True)
        # The planning unit prices through the model regardless of the
        # recorded worklist.
        assert unit.backend == "model"
        assert unit.grape_calls == 0

    def test_model_backend_prewarm_has_nothing_to_synthesize(self):
        # The dry-run itself caches every model latency, so the
        # synthesis stage of a model-backend pre-warm finds only hits.
        engine = BatchCompiler(backend="model", prewarm=True)
        report = engine.compile_batch(_jobs(3))
        assert report.prewarm is not None
        assert report.prewarm["synthesized"] == 0
        assert report.prewarm["dedup_ratio"] == pytest.approx(3.0)

    def test_model_backend_canonical_parity(self):
        cold = BatchCompiler(backend="model", prewarm=False).compile_batch(
            _jobs(3)
        )
        warm = BatchCompiler(backend="model", prewarm=True).compile_batch(
            _jobs(3)
        )
        assert _canon(cold) == _canon(warm)

    def test_report_prewarm_none_when_inactive(self):
        report = BatchCompiler(backend="model").compile_batch(_jobs(1))
        assert report.prewarm is None

    def test_lifetime_info_accumulates(self):
        engine = BatchCompiler(backend="model", prewarm=True)
        engine.compile_batch(_jobs(2))
        first = dict(engine.lifetime_info)
        engine.compile_batch(_jobs(2))
        assert engine.lifetime_info["model_evals"] >= first["model_evals"]
        assert engine.lifetime_info["cache_hits"] > first["cache_hits"]


@pytest.mark.slow
class TestPrewarmGrape:
    """End-to-end guarantees with real GRAPE synthesis (tier-2)."""

    @pytest.fixture(scope="class")
    def cold_report(self):
        return BatchCompiler(backend="grape", prewarm=False).compile_batch(
            _jobs(3)
        )

    def test_thread_single_synthesis_and_parity(self, cold_report):
        engine = BatchCompiler(backend="grape", max_workers=2)
        assert engine.prewarm_active()  # auto mode follows the backend
        report = engine.compile_batch(_jobs(3))
        stats = report.prewarm
        assert stats["signatures"] >= 1
        assert stats["dedup_ratio"] == pytest.approx(3.0)
        # Every distinct problem was synthesized exactly once, by the
        # pre-warm stage; the jobs themselves ran entirely from cache.
        assert stats["synthesized"] == stats["signatures"]
        assert report.cache_info["grape_calls"] == stats["signatures"]
        assert report.cache_info["grape_evals"] > 0
        assert report.cache_info["grape_wall_seconds"] > 0.0
        assert _canon(report) == _canon(cold_report)

    def test_process_single_synthesis_and_parity(self, cold_report):
        engine = BatchCompiler(
            backend="grape", executor="process", max_workers=2
        )
        report = engine.compile_batch(_jobs(3))
        stats = report.prewarm
        assert stats["synthesized"] == stats["signatures"]
        assert report.cache_info["grape_calls"] == stats["signatures"]
        assert _canon(report) == _canon(cold_report)

    def test_warm_cache_skips_synthesis_entirely(self, cold_report):
        cache = PulseCache()
        engine = BatchCompiler(backend="grape", cache=cache, max_workers=2)
        engine.compile_batch(_jobs(3))
        again = engine.compile_batch(_jobs(3))
        assert again.prewarm["synthesized"] == 0
        assert again.cache_info["grape_calls"] == 0
        assert _canon(again) == _canon(cold_report)
