"""Whole-program equivalence checker tests (the PR-4 tentpole).

Covers the positive direction (every strategy, several devices, all
three methods) and — critically — the negative direction: a compiler
sabotaged to drop a routing SWAP or inject a stray gate must be caught.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CLS_AGGREGATION,
    Circuit,
    ISA,
    OptimalControlUnit,
    VerifyEquivalencePass,
    all_strategies,
    compile_circuit,
    compile_with_pipeline,
    verify_equivalence,
)
from repro.compiler.passes import Pass, PlaceAndRoutePass
from repro.errors import VerificationError
from repro.gates.gate import Gate
from repro.testing import random_circuit


@pytest.fixture(scope="module")
def ocu():
    return OptimalControlUnit(backend="model")


def _routed_circuit(seed: int = 3, num_qubits: int = 5) -> Circuit:
    """A circuit wide and tangled enough that routing must insert SWAPs."""
    rng = np.random.default_rng(seed)
    circuit = Circuit(num_qubits, name="routed")
    for _ in range(18):
        a, b = rng.choice(num_qubits, size=2, replace=False)
        circuit.cnot(int(a), int(b))
        circuit.rz(0.3, int(rng.integers(num_qubits)))
    return circuit


class _DropFirstSwapPass(Pass):
    """Sabotage: silently delete the first routed SWAP gate."""

    def run(self, context) -> None:
        nodes = context.require("physical_nodes", self.name, "route first")
        for index, node in enumerate(nodes):
            if isinstance(node, Gate) and node.name == "SWAP":
                context.physical_nodes = nodes[:index] + nodes[index + 1:]
                context.invalidate_physical_dag()
                return


class _InjectStrayGatePass(Pass):
    """Sabotage: append a phase kick the source program never had."""

    def run(self, context) -> None:
        from repro.gates import library

        nodes = context.require("physical_nodes", self.name, "route first")
        context.physical_nodes = nodes + [library.RZ(0.5, 0)]
        context.invalidate_physical_dag()


def _sabotaged_pipeline(sabotage: Pass) -> list[Pass]:
    passes = ISA.pipeline()
    index = max(
        i for i, p in enumerate(passes) if isinstance(p, PlaceAndRoutePass)
    )
    return passes[: index + 1] + [sabotage] + passes[index + 1:]


class TestPositive:
    @pytest.mark.parametrize("strategy", all_strategies(), ids=lambda s: s.key)
    def test_every_strategy_verifies(self, ocu, strategy):
        circuit = random_circuit(4, 14, 11, "soup")
        result = compile_circuit(circuit, strategy, ocu=ocu)
        report = result.verify_equivalence()
        assert report.equivalent, report.summary()
        assert report.method == "unitary"
        assert report.states_checked == 16

    @pytest.mark.parametrize(
        "device", ["line-4", "ring-4", "all-to-all-4", "paper-grid-2x2"]
    )
    def test_devices_with_and_without_ancillas(self, device):
        circuit = random_circuit(4, 12, 23, "diagonal")
        result = compile_circuit(
            circuit, CLS_AGGREGATION, device=device, ocu=OptimalControlUnit()
        )
        report = result.verify_equivalence()
        assert report.equivalent, report.summary()
        assert report.device_name == device

    def test_ancilla_register_wider_than_circuit(self, ocu):
        # 3 logical qubits on a 6-cell ring: three ancilla cells that
        # routing SWAPs may shuffle; they must come back to |0>.
        circuit = random_circuit(3, 10, 5, "soup")
        result = compile_circuit(circuit, CLS_AGGREGATION, device="ring-6")
        report = result.verify_equivalence()
        assert report.equivalent, report.summary()
        assert report.ancilla_leakage <= report.atol

    def test_statevector_method_matches_unitary_verdict(self, ocu):
        circuit = random_circuit(4, 14, 17, "layered")
        result = compile_circuit(circuit, CLS_AGGREGATION, ocu=ocu)
        by_states = result.verify_equivalence(method="statevector", states=5)
        assert by_states.equivalent
        assert by_states.states_checked == 5
        assert by_states.method == "statevector"

    def test_auto_switches_to_statevector_on_wide_circuits(self, ocu):
        circuit = random_circuit(6, 12, 2, "soup")
        result = compile_circuit(circuit, ISA, ocu=ocu)
        report = result.verify_equivalence()
        assert report.method == "statevector"
        assert report.equivalent, report.summary()

    def test_explicit_circuit_argument_wins(self, ocu):
        circuit = random_circuit(3, 8, 9, "soup")
        result = compile_circuit(circuit, ISA, ocu=ocu)
        other = Circuit(3, name="other").h(0).cnot(0, 1).cnot(1, 2)
        assert verify_equivalence(result, circuit).equivalent
        assert not verify_equivalence(result, other).equivalent

    def test_report_is_truthy_and_summarizable(self, ocu):
        circuit = random_circuit(2, 6, 1, "soup")
        result = compile_circuit(circuit, ISA, ocu=ocu)
        report = result.verify_equivalence()
        assert bool(report)
        assert "equivalent" in report.summary()


class TestNegative:
    def test_dropped_swap_is_caught(self):
        circuit = _routed_circuit()
        baseline = compile_circuit(circuit, ISA)
        assert baseline.swap_count > 0, "need routing SWAPs to drop"
        result = compile_with_pipeline(
            circuit,
            _sabotaged_pipeline(_DropFirstSwapPass()),
            strategy_key="sabotaged",
        )
        report = result.verify_equivalence()
        assert not report.equivalent
        assert report.max_deviation > 0.1

    def test_injected_gate_is_caught(self, ocu):
        circuit = random_circuit(3, 10, 13, "soup")
        result = compile_with_pipeline(
            circuit,
            _sabotaged_pipeline(_InjectStrayGatePass()),
            strategy_key="sabotaged",
        )
        assert not result.verify_equivalence().equivalent

    def test_raise_on_failure(self):
        circuit = _routed_circuit()
        result = compile_with_pipeline(
            circuit,
            _sabotaged_pipeline(_DropFirstSwapPass()),
            strategy_key="sabotaged",
        )
        with pytest.raises(VerificationError, match="not equivalent"):
            result.verify_equivalence(raise_on_failure=True)

    def test_missing_source_circuit_is_an_error(self, ocu):
        circuit = random_circuit(2, 5, 2, "soup")
        result = compile_circuit(circuit, ISA, ocu=ocu)
        result.source_circuit = None
        with pytest.raises(VerificationError, match="source circuit"):
            result.verify_equivalence()

    def test_unknown_method_is_an_error(self, ocu):
        circuit = random_circuit(2, 5, 2, "soup")
        result = compile_circuit(circuit, ISA, ocu=ocu)
        with pytest.raises(VerificationError, match="unknown equivalence"):
            result.verify_equivalence(method="telepathy")


class TestVerifyEquivalencePassBehaviour:
    def test_appended_pass_verifies_and_records_metrics(self, ocu):
        circuit = random_circuit(3, 10, 29, "diagonal")
        pipeline = CLS_AGGREGATION.pipeline() + [VerifyEquivalencePass()]
        metrics = {}

        def capture(pass_, context, elapsed):
            metrics.update(context.metrics)

        result = compile_with_pipeline(
            circuit,
            pipeline,
            strategy_key="cls+aggregation",
            callbacks=[capture],
        )
        recorded = metrics["VerifyEquivalencePass"]
        assert recorded["equivalent"] is True
        assert recorded["states_checked"] == 8
        assert result.pass_seconds["VerifyEquivalencePass"] >= 0.0

    def test_pass_raises_on_sabotage(self):
        circuit = _routed_circuit()
        pipeline = _sabotaged_pipeline(_DropFirstSwapPass())
        pipeline.append(VerifyEquivalencePass())
        with pytest.raises(VerificationError, match="diverged"):
            compile_with_pipeline(circuit, pipeline, strategy_key="sabotaged")

    def test_pass_can_record_instead_of_raise(self):
        circuit = _routed_circuit()
        pipeline = _sabotaged_pipeline(_DropFirstSwapPass())
        pipeline.append(VerifyEquivalencePass(raise_on_failure=False))
        result = compile_with_pipeline(
            circuit, pipeline, strategy_key="sabotaged"
        )
        assert result.latency_ns > 0  # compilation itself completed

    def test_pass_needs_a_schedule(self):
        from repro.errors import PassOrderingError

        circuit = random_circuit(2, 4, 3, "soup")
        with pytest.raises(PassOrderingError):
            compile_with_pipeline(
                circuit, [VerifyEquivalencePass()], strategy_key="broken"
            )


@pytest.mark.slow
class TestPropagatorMethod:
    def test_aggregated_pulses_verify_through_the_propagator(self):
        ocu = OptimalControlUnit(backend="model")
        circuit = (
            Circuit(2, name="tiny").h(0).cnot(0, 1).rz(0.7, 1).cnot(0, 1)
        )
        result = compile_circuit(circuit, CLS_AGGREGATION, ocu=ocu)
        report = result.verify_equivalence(method="propagator", ocu=ocu)
        assert report.equivalent, report.summary()
        assert report.propagated_instructions >= 1

    def test_propagator_needs_an_ocu(self):
        ocu = OptimalControlUnit(backend="model")
        circuit = Circuit(2, name="tiny").h(0).cnot(0, 1)
        result = compile_circuit(circuit, ISA, ocu=ocu)
        with pytest.raises(VerificationError, match="needs ocu"):
            result.verify_equivalence(method="propagator")
