"""Tests for matching-based conflict resolution."""

import pytest

from repro.errors import SchedulingError
from repro.gates import library as lib
from repro.scheduling.matching import resolve_conflicts


class TestResolveConflicts:
    def test_empty(self):
        assert resolve_conflicts([]) == []

    def test_disjoint_gates_all_selected(self):
        gates = [lib.CNOT(0, 1), lib.CNOT(2, 3), lib.H(4)]
        assert len(resolve_conflicts(gates)) == 3

    def test_conflicting_pair_resolved(self):
        gates = [lib.CNOT(0, 1), lib.CNOT(1, 2)]
        selected = resolve_conflicts(gates)
        assert len(selected) == 1

    def test_matching_beats_greedy_on_paper_figure7_shape(self):
        # Path graph a-b-c-d: greedy picking the middle edge yields 1,
        # matching picks the two outer edges.
        gates = [lib.CNOT(0, 1), lib.CNOT(1, 2), lib.CNOT(2, 3)]
        selected = resolve_conflicts(gates)
        assert len(selected) == 2
        names = {tuple(g.qubits) for g in selected}
        assert names == {(0, 1), (2, 3)}

    def test_six_qubit_ring(self):
        # A 6-cycle admits a perfect matching of 3 edges.
        gates = [lib.CNOT(i, (i + 1) % 6) for i in range(6)]
        assert len(resolve_conflicts(gates)) == 3

    def test_one_qubit_gates_fill_free_qubits(self):
        gates = [lib.CNOT(0, 1), lib.H(2), lib.H(3)]
        assert len(resolve_conflicts(gates)) == 3

    def test_one_qubit_gate_conflicts_with_two_qubit(self):
        gates = [lib.CNOT(0, 1), lib.H(0)]
        selected = resolve_conflicts(gates)
        assert len(selected) == 1

    def test_priority_breaks_ties(self):
        critical = lib.H(0)
        cheap = lib.CNOT(0, 1)
        priorities = {id(critical): 100.0, id(cheap): 1.0}
        selected = resolve_conflicts(
            [cheap, critical], lambda node: priorities[id(node)]
        )
        assert selected == [critical]

    def test_parallel_candidates_on_same_pair(self):
        first = lib.CNOT(0, 1)
        second = lib.CNOT(0, 1)
        priorities = {id(first): 1.0, id(second): 5.0}
        selected = resolve_conflicts(
            [first, second], lambda node: priorities[id(node)]
        )
        assert selected == [second]

    def test_two_one_qubit_gates_same_qubit(self):
        first = lib.H(0)
        second = lib.X(0)
        priorities = {id(first): 1.0, id(second): 5.0}
        selected = resolve_conflicts(
            [first, second], lambda node: priorities[id(node)]
        )
        assert selected == [second]

    def test_wide_node_rejected(self):
        with pytest.raises(SchedulingError):
            resolve_conflicts([lib.TOFFOLI(0, 1, 2)])

    def test_equal_looking_candidates_still_conflict(self):
        first, second = lib.RZ(0.1, 0), lib.RZ(0.1, 0)
        assert first.signature == second.signature
        priorities = {first: 1.0, second: 5.0}
        selected = resolve_conflicts([first, second], priorities.__getitem__)
        assert len(selected) == 1
        assert selected[0] is second
