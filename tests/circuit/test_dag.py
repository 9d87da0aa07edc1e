"""Tests for the gate-dependence graph."""

import pytest

from repro.aggregation.action_space import candidate_actions
from repro.aggregation.aggregator import aggregate
from repro.aggregation.instruction import AggregatedInstruction
from repro.circuit.circuit import Circuit
from repro.circuit.commutation import CommutationChecker
from repro.circuit.dag import GateDependenceGraph
from repro.control.unit import OptimalControlUnit
from repro.errors import CircuitError, SchedulingError
from repro.gates import library as lib
from repro.gates.decompositions import lower_to_standard_set
from repro.testing.generators import CIRCUIT_FAMILIES, random_circuit


def build_dag(circuit):
    return GateDependenceGraph.from_circuit(circuit, CommutationChecker())


def unit_latency(_node) -> float:
    return 1.0


class TestConstruction:
    def test_qubit_sequences(self):
        circuit = Circuit(2).h(0).cnot(0, 1).rz(0.3, 1)
        dag = build_dag(circuit)
        assert [g.name for g in dag.qubit_sequence(0)] == ["H", "CNOT"]
        assert [g.name for g in dag.qubit_sequence(1)] == ["CNOT", "RZ"]

    def test_out_of_range_node_rejected(self):
        with pytest.raises(CircuitError):
            GateDependenceGraph(1, [lib.CNOT(0, 1)], lambda a, b: False)

    def test_len(self):
        circuit = Circuit(2).h(0).h(1)
        assert len(build_dag(circuit)) == 2


class TestCommutationGroups:
    def test_noncommuting_chain_gives_singleton_groups(self):
        circuit = Circuit(1).h(0).t(0).h(0)
        dag = build_dag(circuit)
        groups = dag.commutation_groups(0)
        assert [len(g) for g in groups] == [1, 1, 1]

    def test_commuting_rz_run_is_one_group(self):
        circuit = Circuit(1).rz(0.1, 0).rz(0.2, 0).rz(0.3, 0)
        dag = build_dag(circuit)
        assert [len(g) for g in dag.commutation_groups(0)] == [3]

    def test_cnot_rz_cnot_groups_on_control_and_target(self):
        # Paper example: the two CNOTs share a commutation group on the
        # control qubit but not on the target qubit (Rz intervenes).
        circuit = Circuit(2).cnot(0, 1).rz(0.5, 1).cnot(0, 1)
        dag = build_dag(circuit)
        cnot_a, rz, cnot_b = circuit.gates
        assert dag.same_group(cnot_a, cnot_b, 0)
        assert not dag.same_group(cnot_a, cnot_b, 1)
        assert dag.group_index(rz, 1) == 1

    def test_rz_travels_through_cnot_control(self):
        circuit = Circuit(2).cnot(0, 1).rz(0.5, 0)
        dag = build_dag(circuit)
        cnot, rz = circuit.gates
        assert dag.same_group(cnot, rz, 0)

    def test_group_index_for_absent_qubit(self):
        circuit = Circuit(2).h(0)
        dag = build_dag(circuit)
        with pytest.raises(SchedulingError):
            dag.group_index(circuit.gates[0], 1)

    def test_commute_nodes_requires_all_shared_groups(self):
        circuit = Circuit(2).cnot(0, 1).rz(0.5, 1).cnot(0, 1)
        dag = build_dag(circuit)
        cnot_a, _rz, cnot_b = circuit.gates
        # Same group on qubit 0 but not qubit 1 -> do not commute.
        assert not dag.commute_nodes(cnot_a, cnot_b)


class TestTiming:
    def test_predecessors_follow_qubit_chains(self):
        circuit = Circuit(2).h(0).cnot(0, 1).rz(0.3, 1)
        dag = build_dag(circuit)
        h, cnot, rz = circuit.gates
        assert dag.predecessors(h) == []
        assert dag.predecessors(cnot) == [h]
        assert dag.predecessors(rz) == [cnot]
        assert dag.successors(h) == [cnot]

    def test_topological_order_is_consistent(self):
        circuit = Circuit(3).h(0).cnot(0, 1).cnot(1, 2).h(2)
        dag = build_dag(circuit)
        order = dag.topological_order()
        position = {id(node): i for i, node in enumerate(order)}
        for node in dag.nodes:
            for successor in dag.successors(node):
                assert position[id(node)] < position[id(successor)]

    def test_makespan_serial(self):
        circuit = Circuit(1).h(0).t(0).h(0)
        dag = build_dag(circuit)
        assert dag.makespan(unit_latency) == pytest.approx(3.0)

    def test_makespan_parallel(self):
        circuit = Circuit(3).h(0).h(1).h(2)
        dag = build_dag(circuit)
        assert dag.makespan(unit_latency) == pytest.approx(1.0)

    def test_makespan_weighted(self):
        circuit = Circuit(2).h(0).cnot(0, 1)
        dag = build_dag(circuit)
        latency = {id(circuit.gates[0]): 2.0, id(circuit.gates[1]): 5.0}
        assert dag.makespan(lambda n: latency[id(n)]) == pytest.approx(7.0)

    def test_commuting_gates_on_same_qubit_still_serialize(self):
        # Chain edges model hardware resource exclusivity.
        circuit = Circuit(1).rz(0.1, 0).rz(0.2, 0)
        dag = build_dag(circuit)
        assert dag.makespan(unit_latency) == pytest.approx(2.0)

    def test_empty_dag_makespan(self):
        dag = build_dag(Circuit(2))
        assert dag.makespan(unit_latency) == 0.0


class TestReorder:
    def test_reorder_within_group_allowed(self):
        circuit = Circuit(1).rz(0.1, 0).rz(0.2, 0)
        dag = build_dag(circuit)
        a, b = circuit.gates
        dag.reorder([b, a])
        assert [g for g in dag.qubit_sequence(0)] == [b, a]

    def test_reorder_across_group_rejected(self):
        circuit = Circuit(1).h(0).t(0)
        dag = build_dag(circuit)
        h, t = circuit.gates
        with pytest.raises(SchedulingError):
            dag.reorder([t, h])

    def test_reorder_wrong_nodes_rejected(self):
        circuit = Circuit(1).h(0)
        dag = build_dag(circuit)
        with pytest.raises(SchedulingError):
            dag.reorder([lib.H(0)])

    def test_reorder_preserves_makespan_semantics(self):
        circuit = Circuit(2).rzz(0.1, 0, 1).rzz(0.2, 0, 1)
        dag = build_dag(circuit)
        a, b = circuit.gates
        dag.reorder([b, a])
        assert dag.makespan(unit_latency) == pytest.approx(2.0)


class TestMerge:
    def _diagonal_instruction(self, gates, qubits):
        """Minimal stand-in for an aggregated instruction."""

        class Node:
            def __init__(self):
                self.qubits = tuple(qubits)
                self.is_diagonal = all(g.is_diagonal for g in gates)
                self.signature = ("MERGED",) + tuple(g.signature for g in gates)
                self.matrix = None

            def __repr__(self):
                return f"Merged{self.qubits}"

        return Node()

    def test_merge_adjacent_pair(self):
        circuit = Circuit(2).cnot(0, 1).rz(0.5, 1)
        dag = build_dag(circuit)
        cnot, rz = circuit.gates
        merged = self._diagonal_instruction([cnot, rz], [0, 1])
        dag.merge(cnot, rz, merged)
        assert len(dag) == 1
        assert dag.qubit_sequence(0) == [merged]
        assert dag.qubit_sequence(1) == [merged]

    def test_merge_disjoint_rejected(self):
        circuit = Circuit(4).cnot(0, 1).cnot(2, 3)
        dag = build_dag(circuit)
        a, b = circuit.gates
        assert not dag.can_merge(a, b)
        with pytest.raises(SchedulingError):
            dag.merge(a, b, self._diagonal_instruction([a, b], [0, 1, 2, 3]))

    def test_merge_distant_groups_rejected(self):
        circuit = Circuit(2).cnot(0, 1).h(1).x(1).cnot(0, 1)
        dag = build_dag(circuit)
        first, *_rest, last = circuit.gates
        # H then X put the CNOTs three groups apart on qubit 1 and the
        # CNOTs share a group on qubit 0, so group distance on qubit 1 > 1.
        assert not dag.can_merge(first, last)

    def test_merge_wrong_union_rejected(self):
        circuit = Circuit(3).cnot(0, 1).rz(0.5, 1)
        dag = build_dag(circuit)
        cnot, rz = circuit.gates
        with pytest.raises(SchedulingError):
            dag.merge(cnot, rz, self._diagonal_instruction([cnot, rz], [0, 1, 2]))

    def test_merge_reduces_makespan_with_unit_latency(self):
        circuit = Circuit(2).cnot(0, 1).rz(0.5, 1).cnot(0, 1)
        dag = build_dag(circuit)
        before = dag.makespan(unit_latency)
        cnot_a, rz, _ = circuit.gates
        merged = self._diagonal_instruction([cnot_a, rz], [0, 1])
        dag.merge(cnot_a, rz, merged)
        assert dag.makespan(unit_latency) < before

    def test_merge_preserves_other_dependencies(self):
        circuit = Circuit(3).cnot(0, 1).rz(0.5, 1).cnot(1, 2)
        dag = build_dag(circuit)
        cnot_a, rz, cnot_b = circuit.gates
        merged = self._diagonal_instruction([cnot_a, rz], [0, 1])
        dag.merge(cnot_a, rz, merged)
        assert dag.predecessors(cnot_b) == [merged]

    def test_cycle_inducing_merge_rejected_and_rolled_back(self):
        # A -> C on qubit 1, C -> B on qubit 2; merging A and B would
        # need the merged node both before and after C: a cycle.
        circuit = Circuit(3).cnot(0, 1).cnot(1, 2).cnot(2, 0)
        dag = build_dag(circuit)
        a, c, b = circuit.gates
        assert dag.can_merge(a, b)  # structurally adjacent on qubit 0
        merged = self._diagonal_instruction([a, b], [0, 1, 2])
        with pytest.raises(SchedulingError):
            dag.merge(a, b, merged)
        # Original structure intact after the failure.
        assert len(dag) == 3
        assert dag.predecessors(c) == [a]
        assert set(map(id, dag.predecessors(b))) == {id(a), id(c)}
        dag.topological_order()  # still acyclic and consistent


class TestMergeCycleCheckIsExact:
    """``merge`` searches for a cycle from the merged node only.  On
    random graphs, before and part-way through aggregation, it must
    refuse a pair exactly when splicing the pair and sorting the whole
    graph finds a cycle, and a refusal must leave the graph as it was."""

    @staticmethod
    def _twin(dag):
        # Building from a topological order reproduces every qubit
        # sequence (the chain edges are exactly the per-qubit orders).
        return GateDependenceGraph(
            dag.num_qubits, dag.topological_order(), dag.commute_fn
        )

    @staticmethod
    def _graph_states():
        ocu = OptimalControlUnit(backend="model")
        for family in CIRCUIT_FAMILIES:
            for index in range(4):
                circuit = random_circuit(4 + index % 3, 18, 3100 + index, family)
                gates = lower_to_standard_set(circuit.gates)
                for rounds in (0, 1):
                    dag = GateDependenceGraph(
                        circuit.num_qubits, gates, CommutationChecker().commute
                    )
                    if rounds:
                        aggregate(dag, ocu, max_rounds=rounds, monotonic_only=False)
                    yield dag

    def test_refuses_exactly_the_pairs_a_full_sort_refuses(self):
        outcomes = {True: 0, False: 0}
        for dag in self._graph_states():
            for a, b in candidate_actions(dag, width_limit=10):
                merged = AggregatedInstruction.from_nodes(a, b)
                reference = self._twin(dag)
                reference._splice_merge(a, b, merged)
                try:
                    reference.topological_order()
                    cyclic = False
                except SchedulingError:
                    cyclic = True
                trial = self._twin(dag)
                nodes = list(trial.nodes)
                sequences = [
                    trial.qubit_sequence(q) for q in range(trial.num_qubits)
                ]
                try:
                    trial.merge(a, b, merged)
                    refused = False
                except SchedulingError:
                    refused = True
                assert refused == cyclic, (a, b)
                if refused:
                    assert len(trial.nodes) == len(nodes)
                    assert all(x is y for x, y in zip(trial.nodes, nodes))
                    for q, sequence in enumerate(sequences):
                        after = trial.qubit_sequence(q)
                        assert len(after) == len(sequence)
                        assert all(x is y for x, y in zip(after, sequence))
                outcomes[refused] += 1
        assert outcomes[True] > 0 and outcomes[False] > 0, outcomes


class TestNodeIdentity:
    """Every per-node map is keyed by the node object itself: nodes that
    look alike (same name, qubits and signature) are still distinct
    nodes, and a node object sits at exactly one position."""

    def test_equal_looking_gates_are_distinct_nodes(self):
        circuit = Circuit(2).cnot(0, 1).rz(0.5, 1).cnot(0, 1)
        dag = build_dag(circuit)
        cnot_a, rz, cnot_b = circuit.gates
        assert cnot_a.signature == cnot_b.signature
        lookup = dag.group_lookup(1)
        assert len(lookup) == 3
        assert (lookup[cnot_a], lookup[rz], lookup[cnot_b]) == (0, 1, 2)
        assert dag.predecessors(cnot_b) == [cnot_a, rz]
        assert dag.successors(cnot_a) == [cnot_b, rz]

    def test_asap_times_keep_one_entry_per_node(self):
        circuit = Circuit(1).h(0).t(0).h(0)
        dag = build_dag(circuit)
        first_h, t, second_h = circuit.gates
        starts = dag.asap_times(unit_latency)
        assert len(starts) == 3
        assert (starts[first_h], starts[t], starts[second_h]) == (0.0, 1.0, 2.0)

    def test_retired_nodes_leave_the_group_lookups(self):
        circuit = Circuit(3).cnot(0, 1).rz(0.5, 1).cnot(1, 2)
        dag = build_dag(circuit)
        cnot_a, rz, cnot_b = circuit.gates
        merged = AggregatedInstruction([cnot_a, rz])
        dag.merge(cnot_a, rz, merged)
        for retired in (cnot_a, rz):
            with pytest.raises(SchedulingError, match="does not act"):
                dag.group_index(retired, 1)
        assert dag.group_lookup(1) == {merged: 0, cnot_b: 1}
        assert dag.group_lookup(0) == {merged: 0}

    def test_one_instance_twice_is_a_cycle(self):
        # A node is its own key, so one object cannot hold two positions:
        # its chain link points at itself.  Lowering therefore gives a
        # repeated gate instance one node per occurrence.
        gate = lib.H(0)
        dag = GateDependenceGraph(1, [gate, gate], lambda a, b: False)
        with pytest.raises(SchedulingError, match="cycle"):
            dag.topological_order()
        with pytest.raises(SchedulingError, match="cycle"):
            dag.stable_topological_order()

    def test_stable_topological_order_follows_the_node_list(self):
        circuit = Circuit(3).h(2).h(0).cnot(0, 1).h(1).h(2)
        dag = build_dag(circuit)
        assert dag.stable_topological_order() == circuit.gates
        h2, h0, cnot, h1, h2_again = circuit.gates
        dag.reorder([h0, h2, cnot, h2_again, h1])
        assert dag.stable_topological_order() == [h0, h2, cnot, h2_again, h1]
