"""Tests for the action space and the monotonic aggregator."""

import gc
import weakref

import numpy as np
import pytest

from repro.aggregation.action_space import candidate_actions
from repro.aggregation.aggregator import aggregate
from repro.aggregation.diagonal import detect_diagonal_blocks
from repro.aggregation.instruction import AggregatedInstruction
from repro.benchmarks.uccsd import uccsd_ansatz_circuit
from repro.circuit.circuit import Circuit
from repro.circuit.commutation import CommutationChecker
from repro.circuit.dag import GateDependenceGraph
from repro.control.unit import OptimalControlUnit, gates_of
from repro.gates.decompositions import lower_to_standard_set
from repro.linalg.embed import embed_operator
from repro.linalg.predicates import allclose_up_to_global_phase


def build_dag(circuit, detect=False):
    checker = CommutationChecker()
    nodes = detect_diagonal_blocks(circuit.gates) if detect else circuit.gates
    return GateDependenceGraph(circuit.num_qubits, nodes, checker.commute)


@pytest.fixture(scope="module")
def ocu():
    return OptimalControlUnit(backend="model")


def dag_unitary(dag, num_qubits):
    total = np.eye(2**num_qubits, dtype=complex)
    for node in dag.stable_topological_order():
        total = embed_operator(node.matrix, node.qubits, num_qubits) @ total
    return total


def test_diagonal_family_circuit_whose_block_stalls_the_eigensolver():
    """This seed aggregates a phased SWAP whose Weyl coordinates once
    raised ``LinAlgError: Eigenvalues did not converge``."""
    from repro.compiler.pipeline import compile_circuit
    from repro.testing.generators import random_circuit

    circuit = random_circuit(4, 30, 1197971220, "diagonal")
    result = compile_circuit(circuit, "cls+aggregation")
    assert result.verify_equivalence()


class TestCandidateActions:
    def test_adjacent_pair_found(self):
        dag = build_dag(Circuit(2).cnot(0, 1).rz(0.5, 1))
        actions = candidate_actions(dag, width_limit=10)
        assert len(actions) == 1

    def test_orientation_earlier_first(self):
        circuit = Circuit(2).cnot(0, 1).rz(0.5, 1)
        dag = build_dag(circuit)
        (earlier, later), = candidate_actions(dag, width_limit=10)
        assert earlier is circuit.gates[0]
        assert later is circuit.gates[1]

    def test_disjoint_gates_not_candidates(self):
        dag = build_dag(Circuit(4).cnot(0, 1).cnot(2, 3))
        assert candidate_actions(dag, width_limit=10) == []

    def test_width_limit_filters(self):
        circuit = Circuit(3).cnot(0, 1).cnot(1, 2)
        dag = build_dag(circuit)
        assert len(candidate_actions(dag, width_limit=3)) == 1
        assert len(candidate_actions(dag, width_limit=2)) == 0

    def test_each_pair_reported_once(self):
        # The CNOTs share two qubits; the pair must appear once.
        circuit = Circuit(2).cnot(0, 1).cnot(0, 1)
        dag = build_dag(circuit)
        assert len(candidate_actions(dag, width_limit=10)) == 1

    def test_distant_groups_excluded(self):
        circuit = Circuit(2).cnot(0, 1).h(1).x(1).cnot(0, 1)
        dag = build_dag(circuit)
        actions = candidate_actions(dag, width_limit=10)
        pairs = {
            frozenset((id(a), id(b))) for a, b in actions
        }
        first, h, x, last = circuit.gates
        assert frozenset((id(first), id(last))) not in pairs


class TestAggregate:
    def test_triangle_qaoa_improves_makespan(self, ocu):
        gamma = 5.67
        circuit = Circuit(3)
        for a, b in [(0, 1), (1, 2)]:
            circuit.cnot(a, b).rz(2 * gamma, b).cnot(a, b)
        dag = build_dag(circuit, detect=True)
        report = aggregate(dag, ocu)
        assert report.final_makespan < report.initial_makespan
        assert report.merges >= 1

    def test_unitary_preserved(self, ocu):
        circuit = (
            Circuit(3)
            .h(0)
            .cnot(0, 1)
            .rz(0.9, 1)
            .cnot(0, 1)
            .cnot(1, 2)
            .rx(0.4, 2)
            .swap(0, 1)
        )
        reference = circuit.unitary()
        dag = build_dag(circuit, detect=True)
        aggregate(dag, ocu)
        assert allclose_up_to_global_phase(
            dag_unitary(dag, 3), reference, atol=1e-7
        )

    def test_width_limit_respected(self, ocu):
        circuit = Circuit(6)
        for i in range(5):
            circuit.cnot(i, i + 1)
        dag = build_dag(circuit)
        aggregate(dag, ocu, width_limit=3)
        for node in dag.nodes:
            assert len(set(node.qubits)) <= 3

    def test_serial_chain_fully_aggregates_with_wide_limit(self, ocu):
        circuit = Circuit(4)
        for i in range(3):
            circuit.cnot(i, i + 1)
        dag = build_dag(circuit)
        report = aggregate(dag, ocu, width_limit=10)
        # The whole chain folds into one instruction: one setup charge.
        assert len(dag.nodes) == 1
        assert report.merges == 2

    def test_no_profitable_actions_no_merges(self, ocu):
        # Disjoint parallel gates: nothing to aggregate.
        circuit = Circuit(4).cnot(0, 1).cnot(2, 3)
        dag = build_dag(circuit)
        report = aggregate(dag, ocu)
        assert report.merges == 0
        assert report.final_makespan == pytest.approx(report.initial_makespan)

    def test_monotonic_protection_of_parallelism(self, ocu):
        # Paper Fig. 8 scenario: merging across the critical path would
        # serialize independent work; the aggregator must not regress
        # the makespan.
        circuit = Circuit(4)
        circuit.cnot(0, 1)
        circuit.cnot(2, 3)
        circuit.cnot(1, 2)
        circuit.cnot(0, 1)
        circuit.cnot(2, 3)
        dag = build_dag(circuit)
        before = dag.makespan(ocu.latency)
        report = aggregate(dag, ocu)
        assert report.final_makespan <= before + 1e-6

    def test_makespan_never_increases(self, ocu):
        rng = np.random.default_rng(11)
        for _ in range(3):
            circuit = Circuit(5)
            for _ in range(14):
                a, b = rng.choice(5, size=2, replace=False)
                kind = rng.integers(0, 3)
                if kind == 0:
                    circuit.cnot(int(a), int(b))
                elif kind == 1:
                    circuit.rzz(float(rng.uniform(0.2, 2.0)), int(a), int(b))
                else:
                    circuit.h(int(a))
            dag = build_dag(circuit, detect=True)
            report = aggregate(dag, ocu)
            assert report.final_makespan <= report.initial_makespan + 1e-6

    def test_instructions_in_dag_are_aggregates(self, ocu):
        circuit = Circuit(2).cnot(0, 1).rz(0.4, 1).cnot(0, 1).rx(0.2, 0)
        dag = build_dag(circuit, detect=True)
        aggregate(dag, ocu)
        assert any(
            isinstance(node, AggregatedInstruction) for node in dag.nodes
        )


class TestPairJoinedByAnOutsidePath:
    """CNOT(0,1) and CNOT(0,2) meet on qubit 0, but CNOT(1,2) joins them
    through qubits 1 and 2: merging the pair alone would need the merged
    node both before and after CNOT(1,2).  The slack on qubits 3-4 lets
    the pair pass the monotonic filter, so only the cycle check stops it."""

    @pytest.mark.parametrize("monotonic_only", [True, False])
    def test_pair_never_merges_without_the_node_between(
        self, ocu, monotonic_only
    ):
        circuit = Circuit(5).cnot(0, 1).cnot(1, 2).cnot(0, 2)
        for _ in range(12):
            circuit.cnot(3, 4).rx(0.3, 4)
        first, between, last = circuit.gates[:3]
        dag = build_dag(circuit)
        aggregate(dag, ocu, monotonic_only=monotonic_only)
        dag.topological_order()  # raises on a cycle
        for node in dag.nodes:
            members = gates_of(node)
            if first in members and last in members:
                assert between in members
        assert allclose_up_to_global_phase(
            dag_unitary(dag, 5), circuit.unitary(), atol=1e-7
        )


class TestAggregationReportImprovement:
    def _report(self, initial, final):
        from repro.aggregation.aggregator import AggregationReport

        return AggregationReport(
            merges=0, rounds=1, initial_makespan=initial, final_makespan=final
        )

    def test_normal_ratio(self):
        assert self._report(100.0, 50.0).improvement == pytest.approx(2.0)

    def test_collapse_to_zero_is_infinite(self):
        assert self._report(100.0, 0.0).improvement == float("inf")

    def test_empty_circuit_is_neutral(self):
        assert self._report(0.0, 0.0).improvement == 1.0


class TestFinalMakespan:
    """Every node is priced with its own latency: re-pricing the final
    graph with a fresh oracle reproduces the reported makespan, so no
    merged instruction inherited another node's latency."""

    def test_aggregate_final_makespan_consistent_with_fresh_oracle(self, ocu):
        circuit = Circuit(4)
        for i in range(3):
            circuit.cnot(i, i + 1)
            circuit.rz(0.4, i + 1)
            circuit.cnot(i, i + 1)
        dag = build_dag(circuit, detect=True)
        report = aggregate(dag, ocu)
        fresh = OptimalControlUnit(backend="model")
        assert dag.makespan(fresh.latency) == pytest.approx(
            report.final_makespan
        )


class TestLatencyMemoLifetime:
    """The latency memo is a plain dict local to ``aggregate()``: it holds
    the instructions it priced only until the call returns."""

    class _RecordingOcu:
        def __init__(self, ocu):
            self.ocu = ocu
            self.priced = []

        def latency(self, node):
            if isinstance(node, AggregatedInstruction):
                self.priced.append(weakref.ref(node))
            return self.ocu.latency(node)

        def model_latency(self, node):
            return self.ocu.model_latency(node)

    def test_merged_away_instructions_are_freed(self, ocu):
        circuit = Circuit(4)
        for i in range(3):
            circuit.cnot(i, i + 1)
            circuit.rz(0.4, i + 1)
            circuit.cnot(i, i + 1)
        # One checker per query: a shared checker's pair memo would pin
        # every node it compared for as long as the graph lives.
        dag = GateDependenceGraph(
            circuit.num_qubits,
            detect_diagonal_blocks(circuit.gates),
            lambda a, b: CommutationChecker().commute(a, b),
        )
        recording = self._RecordingOcu(ocu)
        report = aggregate(dag, recording)
        assert report.merges > 1
        gc.collect()
        alive = [ref() for ref in recording.priced if ref() is not None]
        assert alive
        assert all(any(node is live for live in dag.nodes) for node in alive)
        assert len(alive) < len(recording.priced)


class TestWorkCounts:
    """Within one ``aggregate()`` the model prices each ``(earlier,
    later)`` pair once, scoring and series prepass together, and the
    graph is sorted once per round plus once for each makespan.  Counted
    through wrappers: the loop keeps no counters of its own."""

    class _CountingOcu:
        def __init__(self, ocu):
            self.ocu = ocu
            self.probes = []

        def latency(self, node):
            return self.ocu.latency(node)

        def model_latency(self, node):
            # A probe's member gates name its pair: nodes only ever
            # merge, so no two pairs of one run split the same gate run.
            self.probes.append(tuple(node.gates))
            return self.ocu.model_latency(node)

    def test_each_pair_probed_once_and_one_sort_per_round(self, ocu, monkeypatch):
        sorts = []
        original_sort = GateDependenceGraph.topological_order

        def counting_sort(dag):
            sorts.append(dag)
            return original_sort(dag)

        monkeypatch.setattr(
            GateDependenceGraph, "topological_order", counting_sort
        )
        circuit = uccsd_ansatz_circuit(4)
        nodes = detect_diagonal_blocks(lower_to_standard_set(circuit.gates))
        dag = GateDependenceGraph(
            circuit.num_qubits, nodes, CommutationChecker().commute
        )
        counting = self._CountingOcu(ocu)
        report = aggregate(dag, counting)
        assert report.rounds > 10 and report.merges > 50
        assert len(counting.probes) == len(set(counting.probes))
        assert len(sorts) <= report.rounds + 2
