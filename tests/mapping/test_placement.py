"""Tests for initial placement."""

import networkx as nx
import pytest

from repro.circuit.circuit import Circuit
from repro.errors import MappingError
from repro.mapping.placement import (
    Placement,
    initial_placement,
    interaction_graph_of,
)
from repro.device.topology import GridTopology, LineTopology


class TestPlacementObject:
    def test_bijection(self):
        placement = Placement({0: 2, 1: 0}, LineTopology(3))
        assert placement.physical(0) == 2
        assert placement.logical(2) == 0
        assert placement.logical(1) is None

    def test_non_injective_rejected(self):
        with pytest.raises(MappingError):
            Placement({0: 1, 1: 1}, LineTopology(3))

    def test_unplaced_lookup(self):
        placement = Placement({0: 0}, LineTopology(2))
        with pytest.raises(MappingError):
            placement.physical(5)

    def test_swap_physical_occupied_cells(self):
        placement = Placement({0: 0, 1: 1}, LineTopology(2))
        placement.swap_physical(0, 1)
        assert placement.physical(0) == 1
        assert placement.physical(1) == 0

    def test_swap_physical_with_empty_cell(self):
        placement = Placement({0: 0}, LineTopology(3))
        placement.swap_physical(0, 1)
        assert placement.physical(0) == 1
        assert placement.logical(0) is None

    def test_copy_is_independent(self):
        placement = Placement({0: 0, 1: 1}, LineTopology(2))
        clone = placement.copy()
        clone.swap_physical(0, 1)
        assert placement.physical(0) == 0

    def test_average_distance(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=1.0)
        placement = Placement({0: 0, 1: 2}, LineTopology(3))
        assert placement.average_distance(graph) == pytest.approx(2.0)


class TestInteractionGraph:
    def test_weights_count_interactions(self):
        circuit = Circuit(3).cnot(0, 1).cnot(0, 1).cnot(1, 2)
        graph = interaction_graph_of(circuit)
        assert graph[0][1]["weight"] == 2.0
        assert graph[1][2]["weight"] == 1.0

    def test_all_qubits_present(self):
        circuit = Circuit(5).cnot(0, 1)
        assert set(interaction_graph_of(circuit).nodes) == set(range(5))


class TestInitialPlacement:
    def test_all_logical_qubits_placed_distinctly(self):
        circuit = Circuit(6)
        for i in range(5):
            circuit.cnot(i, i + 1)
        placement = initial_placement(circuit)
        physical = [placement.physical(q) for q in range(6)]
        assert len(set(physical)) == 6

    def test_chain_neighbors_stay_close(self):
        # A 1-D interaction chain placed on a grid: adjacent logical
        # qubits should be much closer than random placement.
        circuit = Circuit(16)
        for i in range(15):
            for _ in range(3):
                circuit.cnot(i, i + 1)
        placement = initial_placement(circuit)
        graph = interaction_graph_of(circuit)
        assert placement.average_distance(graph) <= 2.0

    def test_two_cliques_land_in_separate_regions(self):
        circuit = Circuit(8)
        for base in (0, 4):
            for i in range(base, base + 4):
                for j in range(i + 1, base + 4):
                    circuit.cz(i, j)
        circuit.cnot(0, 4)
        placement = initial_placement(circuit)
        topology = placement.topology
        # Compute the spread of each clique: cliques should be compact.
        for base in (0, 4):
            cells = [placement.physical(q) for q in range(base, base + 4)]
            spread = max(
                topology.distance(a, b) for a in cells for b in cells
            )
            assert spread <= 2

    def test_custom_topology_capacity_check(self):
        circuit = Circuit(5)
        with pytest.raises(MappingError):
            initial_placement(circuit, GridTopology(2, 2))

    def test_line_topology_placement(self):
        circuit = Circuit(4).cnot(0, 1).cnot(2, 3)
        placement = initial_placement(circuit, LineTopology(4))
        assert len({placement.physical(q) for q in range(4)}) == 4

    def test_deterministic(self):
        circuit = Circuit(9)
        for i in range(8):
            circuit.cnot(i, (i + 3) % 9)
        first = initial_placement(circuit).as_dict()
        second = initial_placement(circuit).as_dict()
        assert first == second
