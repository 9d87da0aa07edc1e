"""Tests for SWAP-insertion routing."""

import numpy as np
import pytest

from repro.circuit.circuit import Circuit
from repro.errors import MappingError
from repro.gates import library as lib
from repro.linalg.predicates import allclose_up_to_global_phase
from repro.mapping.placement import Placement, initial_placement
from repro.mapping.router import route
from repro.device.topology import GridTopology, LineTopology

from tests.conftest import sequence_unitary


def identity_placement(n, topology):
    return Placement({q: q for q in range(n)}, topology)


class TestRouting:
    def test_adjacent_gates_unchanged(self):
        topology = LineTopology(3)
        placement = identity_placement(3, topology)
        result = route([lib.CNOT(0, 1), lib.CNOT(1, 2)], placement)
        assert result.swap_count == 0
        assert [n.qubits for n in result.nodes] == [(0, 1), (1, 2)]

    def test_distant_pair_gets_swaps(self):
        topology = LineTopology(4)
        placement = identity_placement(4, topology)
        result = route([lib.CNOT(0, 3)], placement)
        assert result.swap_count == 2
        # Final gate acts on adjacent physical qubits.
        final_gate = result.nodes[-1]
        assert topology.are_adjacent(*final_gate.qubits)

    def test_all_multiqubit_nodes_adjacent_after_routing(self):
        topology = GridTopology(3, 3)
        circuit = Circuit(9)
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b = rng.choice(9, size=2, replace=False)
            circuit.cnot(int(a), int(b))
        placement = initial_placement(circuit, topology)
        result = route(circuit.gates, placement)
        for node in result.nodes:
            if len(node.qubits) == 2:
                assert topology.are_adjacent(*node.qubits)

    def test_placement_updates_persist(self):
        topology = LineTopology(4)
        placement = identity_placement(4, topology)
        result = route([lib.CNOT(0, 3), lib.CNOT(0, 3)], placement)
        # After the first routed CNOT the operands stay adjacent, so the
        # second needs no new SWAPs.
        assert result.swap_count == 2

    def test_input_placement_not_mutated(self):
        topology = LineTopology(4)
        placement = identity_placement(4, topology)
        route([lib.CNOT(0, 3)], placement)
        assert placement.physical(0) == 0

    def test_single_qubit_gates_follow_moves(self):
        topology = LineTopology(3)
        placement = identity_placement(3, topology)
        result = route([lib.CNOT(0, 2), lib.H(0)], placement)
        moved_h = result.nodes[-1]
        assert moved_h.name == "H"
        assert moved_h.qubits == (result.placement.physical(0),)

    def test_wide_node_rejected(self):
        topology = LineTopology(3)
        placement = identity_placement(3, topology)
        with pytest.raises(MappingError):
            route([lib.TOFFOLI(0, 1, 2)], placement)

    def test_routing_preserves_semantics_on_line(self):
        # Simulate: routed circuit + final permutation == original circuit.
        circuit = Circuit(4).h(0).cnot(0, 3).cnot(1, 2).cnot(0, 1).rz(0.7, 3)
        topology = LineTopology(4)
        placement = identity_placement(4, topology)
        result = route(circuit.gates, placement)
        routed_unitary = sequence_unitary(result.nodes, 4)
        # Undo the final logical->physical permutation with SWAP matrices.
        permutation = sequence_unitary(
            _unpermute_gates(result.placement), 4
        )
        expected = sequence_unitary(circuit.gates, 4)
        assert allclose_up_to_global_phase(
            permutation @ routed_unitary, expected, atol=1e-8
        )

    def test_grid_routing_preserves_semantics(self):
        circuit = Circuit(6).h(0).cnot(0, 5).cnot(2, 3).cnot(1, 4).cz(0, 2)
        topology = GridTopology(2, 3)
        placement = identity_placement(6, topology)
        result = route(circuit.gates, placement)
        routed_unitary = sequence_unitary(result.nodes, 6)
        permutation = sequence_unitary(_unpermute_gates(result.placement), 6)
        expected = sequence_unitary(circuit.gates, 6)
        assert allclose_up_to_global_phase(
            permutation @ routed_unitary, expected, atol=1e-8
        )


def _unpermute_gates(placement):
    """SWAP gates that map each logical qubit's final physical position
    back to its index (for semantics checks)."""
    gates = []
    current = {q: placement.physical(q) for q in placement.as_dict()}
    position_of = dict(current)
    occupant = {phys: log for log, phys in position_of.items()}
    for logical in sorted(position_of):
        target = logical
        source = position_of[logical]
        if source == target:
            continue
        gates.append(lib.SWAP(source, target))
        other = occupant.get(target)
        occupant[source] = other
        if other is not None:
            position_of[other] = source
        occupant[target] = logical
        position_of[logical] = target
    return gates
