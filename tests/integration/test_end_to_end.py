"""End-to-end integration tests: semantics, invariants, paper shapes.

These tests run complete circuits through the whole pipeline and check
the one property everything else depends on: compilation must preserve
the circuit's unitary (up to the routing permutation and global phase).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AGGREGATION,
    CLS,
    CLS_AGGREGATION,
    CLS_HAND,
    ISA,
    Circuit,
    OptimalControlUnit,
    all_strategies,
    compile_circuit,
)
from repro.linalg.embed import embed_operator
from repro.linalg.predicates import allclose_up_to_global_phase
from repro.mapping.router import permutation_restore_gates
from repro.mapping.placement import Placement
from repro.device.topology import grid_for


@pytest.fixture(scope="module")
def ocu():
    return OptimalControlUnit(backend="model")


def _schedule_unitary(result) -> np.ndarray:
    """Unitary realized by a compilation result, conjugated back to the
    logical frame: apply the initial placement, run the schedule, undo
    the final placement.  Idle physical qubits only see identity."""
    n = result.physical_qubits
    topology = grid_for(result.physical_qubits)
    total = np.eye(2**n, dtype=complex)
    # Move logical values from identity positions to their placed homes
    # (inverse of restoring the initial placement; SWAPs are involutions).
    initial = Placement(dict(result.initial_mapping), topology)
    for gate in reversed(permutation_restore_gates(initial)):
        total = embed_operator(gate.matrix, gate.qubits, n) @ total
    ordered = sorted(
        enumerate(result.schedule.operations),
        key=lambda pair: (pair[1].start, pair[0]),
    )
    for _, operation in ordered:
        node = operation.node
        matrix = node.matrix
        assert matrix is not None, "instruction too wide to verify"
        total = embed_operator(matrix, node.qubits, n) @ total
    # Undo the final logical->physical permutation.
    final = Placement(dict(result.final_mapping), topology)
    for gate in permutation_restore_gates(final):
        total = embed_operator(gate.matrix, gate.qubits, n) @ total
    return total


def _embed_reference(circuit: Circuit, physical_qubits: int) -> np.ndarray:
    total = np.eye(2**physical_qubits, dtype=complex)
    for gate in circuit.gates:
        total = embed_operator(gate.matrix, gate.qubits, physical_qubits) @ total
    return total


def _random_circuit(seed: int, num_qubits: int = 4, length: int = 12) -> Circuit:
    rng = np.random.default_rng(seed)
    circuit = Circuit(num_qubits, name=f"random-{seed}")
    for _ in range(length):
        kind = rng.integers(0, 5)
        if kind == 0:
            circuit.h(int(rng.integers(num_qubits)))
        elif kind == 1:
            circuit.rz(float(rng.uniform(0.1, 3.0)), int(rng.integers(num_qubits)))
        elif kind == 2:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.cnot(int(a), int(b))
        elif kind == 3:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.rzz(float(rng.uniform(0.1, 2.0)), int(a), int(b))
        else:
            circuit.rx(float(rng.uniform(0.1, 3.0)), int(rng.integers(num_qubits)))
    return circuit


class TestSemanticsPreservation:
    @pytest.mark.parametrize("strategy", all_strategies(), ids=lambda s: s.key)
    def test_random_circuits_preserved_under_every_strategy(self, ocu, strategy):
        for seed in range(3):
            circuit = _random_circuit(seed)
            result = compile_circuit(circuit, strategy, ocu=ocu)
            actual = _schedule_unitary(result)
            expected = _embed_reference(circuit, result.physical_qubits)
            assert allclose_up_to_global_phase(actual, expected, atol=1e-6), (
                f"{strategy.key} broke semantics on seed {seed}"
            )

    @given(seed=st.integers(min_value=100, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_property_full_flow_preserves_unitary(self, seed):
        ocu = OptimalControlUnit(backend="model")
        circuit = _random_circuit(seed, num_qubits=3, length=10)
        result = compile_circuit(circuit, CLS_AGGREGATION, ocu=ocu)
        actual = _schedule_unitary(result)
        expected = _embed_reference(circuit, result.physical_qubits)
        assert allclose_up_to_global_phase(actual, expected, atol=1e-6)


class TestPaperShapes:
    def test_strategy_ordering_on_qaoa(self, ocu):
        import networkx as nx

        from repro.benchmarks.qaoa import maxcut_qaoa_circuit

        circuit = maxcut_qaoa_circuit(nx.cycle_graph(8), name="ring8")
        latencies = {
            s.key: compile_circuit(circuit, s, ocu=ocu).latency_ns
            for s in all_strategies()
        }
        # Full flow best; baseline worst; hand between CLS and full.
        assert latencies["cls+aggregation"] <= min(
            latencies["cls"], latencies["cls+hand"]
        )
        assert max(latencies.values()) == latencies["isa"]
        assert latencies["cls+hand"] <= latencies["cls"]

    def test_speedup_grows_with_commutativity(self, ocu):
        """QAOA (commutative) gains more from CLS than Grover (serial)."""
        import networkx as nx

        from repro.benchmarks.grover import grover_sqrt_circuit
        from repro.benchmarks.qaoa import maxcut_qaoa_circuit

        qaoa = maxcut_qaoa_circuit(nx.cycle_graph(6), name="ring6")
        grover = grover_sqrt_circuit(2)

        def cls_gain(circuit):
            isa = compile_circuit(circuit, ISA, ocu=ocu).latency_ns
            cls = compile_circuit(circuit, CLS, ocu=ocu).latency_ns
            return isa / cls

        assert cls_gain(qaoa) > cls_gain(grover)

    def test_decoherence_story(self, ocu):
        """The paper's motivation: speedup converts into survival odds."""
        from repro.benchmarks.uccsd import uccsd_ansatz_circuit
        from repro.noise.decoherence import schedule_survival_probability

        circuit = uccsd_ansatz_circuit(4)
        isa = compile_circuit(circuit, ISA, ocu=ocu)
        full = compile_circuit(circuit, CLS_AGGREGATION, ocu=ocu)
        assert schedule_survival_probability(
            full.schedule
        ) > schedule_survival_probability(isa.schedule)


class TestPermutationRestore:
    def test_restores_identity_mapping(self):
        from repro.device.topology import LineTopology

        placement = Placement({0: 2, 1: 0, 2: 1}, LineTopology(3))
        gates = permutation_restore_gates(placement)
        # Simulate the permutation tracking.
        position = placement.as_dict()
        occupant = {p: l for l, p in position.items()}
        for gate in gates:
            a, b = gate.qubits
            la, lb = occupant.get(a), occupant.get(b)
            if la is not None:
                position[la] = b
            if lb is not None:
                position[lb] = a
            occupant[a], occupant[b] = lb, la
        assert all(position[q] == q for q in position)

    def test_identity_placement_needs_no_gates(self):
        from repro.device.topology import LineTopology

        placement = Placement({0: 0, 1: 1}, LineTopology(2))
        assert permutation_restore_gates(placement) == []
