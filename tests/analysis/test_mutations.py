"""Seeded-mutation suite: corrupt each IR kind, assert the right rule.

Every test builds a *clean* artifact, verifies analysis accepts it,
applies one targeted corruption (often through the same internal
surfaces a buggy pass would touch), and asserts the matching rule ID —
and only a sensible set of rules — fires.
"""

import numpy as np
import pytest

from repro.aggregation.instruction import AggregatedInstruction
from repro.analysis import (
    analyze_aggregation,
    analyze_dag,
    analyze_nodes,
    analyze_result,
    analyze_routing,
    analyze_schedule,
)
from repro.circuit.circuit import Circuit
from repro.circuit.commutation import CommutationChecker
from repro.circuit.dag import GateDependenceGraph
from repro.compiler.result import CompilationResult
from repro.device import device_by_key
from repro.gates import library as lib
from repro.ir.timed import TimedInstruction
from repro.scheduling.schedule import Schedule


def build_dag(gates, num_qubits):
    checker = CommutationChecker()
    return GateDependenceGraph(num_qubits, gates, checker.commute)


# ----------------------------------------------------------------------
# Circuit rules (REP10x)


class TestCircuitMutations:
    def test_clean_nodes_pass(self):
        report = analyze_nodes([lib.H(0), lib.CNOT(0, 1)], 2)
        assert report.ok and not report.violations

    def test_out_of_range_qubit_fires_rep101(self):
        report = analyze_nodes([lib.H(0), lib.CNOT(0, 5)], 2)
        assert not report.ok
        assert report.fired_rule_ids() == ("REP101",)

    def test_nan_parameter_fires_rep102(self):
        gate = lib.RZ(0.5, 0)
        object.__setattr__(gate, "params", (float("nan"),))
        report = analyze_nodes([gate], 1)
        assert "REP102" in report.fired_rule_ids()

    def test_non_unitary_matrix_fires_rep103(self):
        gate = lib.H(0)
        broken = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex)
        object.__setattr__(gate, "matrix", broken)
        report = analyze_nodes([gate], 1)
        assert "REP103" in report.fired_rule_ids()

    def test_wrong_matrix_shape_fires_rep103(self):
        gate = lib.CNOT(0, 1)
        object.__setattr__(gate, "matrix", np.eye(2, dtype=complex))
        report = analyze_nodes([gate], 2)
        assert "REP103" in report.fired_rule_ids()


# ----------------------------------------------------------------------
# DAG rules (REP11x)


class TestDagMutations:
    def test_clean_dag_passes(self):
        circuit = Circuit(2).h(0).cnot(0, 1).rz(0.3, 1)
        dag = build_dag(circuit.gates, 2)
        assert analyze_dag(dag).ok

    def test_inconsistent_chain_order_fires_rep111(self):
        # Two qubit chains ordering the same node pair oppositely is a
        # dependence cycle — exactly what an unsound splice produces.
        a, b = lib.CNOT(0, 1), lib.CNOT(1, 0)
        dag = build_dag([a, b], 2)
        dag._qubit_order[1] = [b, a]
        dag._relink(1)
        report = analyze_dag(dag)
        assert "REP111" in report.fired_rule_ids()

    def test_stale_commutation_groups_fire_rep112(self):
        h, rz = lib.H(0), lib.RZ(0.4, 0)
        dag = build_dag([h, rz], 1)
        dag.commutation_groups(0)  # populate the cache, clear dirty
        assert 0 not in dag._groups_dirty
        # A buggy pass merges the groups without marking the qubit
        # dirty; H and RZ do not commute, so the cache now lies.
        dag._groups[0] = [[h, rz]]
        dag._group_of[0] = {h: 0, rz: 0}
        report = analyze_dag(dag)
        assert "REP112" in report.fired_rule_ids()

    def test_dropped_chain_entry_fires_rep113(self):
        circuit = Circuit(2).h(0).cnot(0, 1)
        dag = build_dag(circuit.gates, 2)
        dag._qubit_order[0] = dag._qubit_order[0][:-1]
        dag._relink(0)
        report = analyze_dag(dag)
        assert "REP113" in report.fired_rule_ids()

    def test_one_instance_at_two_positions_fires_rep111_and_rep113(self):
        # What lowering would hand over without its per-occurrence copy:
        # one node object twice, which chains to itself.
        h = lib.H(0)
        dag = build_dag([h, lib.RZ(0.4, 0), h], 1)
        fired = analyze_dag(dag).fired_rule_ids()
        assert "REP111" in fired
        assert "REP113" in fired


# ----------------------------------------------------------------------
# Routing rules (REP12x)


class TestRoutingMutations:
    def topology(self):
        return device_by_key("line-3").topology

    def test_clean_routed_nodes_pass(self):
        nodes = [lib.CNOT(0, 1), lib.SWAP(1, 2), lib.H(2)]
        assert analyze_routing(nodes, self.topology()).ok

    def test_uncoupled_operation_fires_rep121(self):
        report = analyze_routing([lib.CNOT(0, 2)], self.topology())
        assert report.fired_rule_ids() == ("REP121",)

    def test_uncoupled_swap_fires_rep122(self):
        report = analyze_routing([lib.SWAP(0, 2)], self.topology())
        assert report.fired_rule_ids() == ("REP122",)

    def test_off_device_qubit_fires_rep123(self):
        report = analyze_routing([lib.H(7)], self.topology())
        assert report.fired_rule_ids() == ("REP123",)

    def test_disconnected_block_fires_rep121(self):
        block = AggregatedInstruction([lib.RZ(0.1, 0), lib.RZ(0.2, 2)])
        report = analyze_routing([block], self.topology())
        assert "REP121" in report.fired_rule_ids()


# ----------------------------------------------------------------------
# Aggregation rules (REP13x)


class TestAggregationMutations:
    def test_clean_block_passes(self):
        block = AggregatedInstruction([lib.CNOT(0, 1), lib.RZ(0.3, 1)])
        assert analyze_aggregation([block], width_limit=2).ok

    def test_overwide_block_fires_rep131(self):
        block = AggregatedInstruction(
            [lib.CNOT(0, 1), lib.CNOT(1, 2), lib.CNOT(2, 3)]
        )
        report = analyze_aggregation([block], width_limit=2)
        assert "REP131" in report.fired_rule_ids()

    def test_width_limit_none_disables_rep131(self):
        block = AggregatedInstruction(
            [lib.CNOT(0, 1), lib.CNOT(1, 2), lib.CNOT(2, 3)]
        )
        assert analyze_aggregation([block], width_limit=None).ok

    def test_false_diagonality_claim_fires_rep132(self):
        block = AggregatedInstruction([lib.H(0)])
        # Poison the memoized diagonality the schedulers trust.
        block.__dict__["is_diagonal"] = True
        report = analyze_aggregation([block])
        assert "REP132" in report.fired_rule_ids()


# ----------------------------------------------------------------------
# Schedule rules (REP14x)


class TestScheduleMutations:
    def clean_schedule(self):
        schedule = Schedule(2)
        schedule.add(lib.H(0), 0.0, 10.0)
        schedule.add(lib.CNOT(0, 1), 10.0, 40.0)
        return schedule

    def test_clean_schedule_passes(self):
        assert analyze_schedule(self.clean_schedule()).ok

    def test_same_qubit_overlap_fires_rep141(self):
        schedule = Schedule(1)
        schedule.add(lib.H(0), 0.0, 10.0)
        schedule.add(lib.RZ(0.2, 0), 5.0, 10.0)
        report = analyze_schedule(schedule)
        assert "REP141" in report.fired_rule_ids()

    def test_noncommuting_dependence_break_fires_rep142(self):
        h, rz = lib.H(0), lib.RZ(0.4, 0)
        dag = build_dag([h, rz], 1)
        schedule = Schedule(1)
        schedule.add(rz, 0.0, 10.0)  # chain says H first; they don't commute
        schedule.add(h, 10.0, 10.0)
        report = analyze_schedule(schedule, dag=dag)
        assert "REP142" in report.fired_rule_ids()

    def test_equal_looking_nodes_checked_separately_for_rep142(self):
        first_h, t, second_h = lib.H(0), lib.T(0), lib.H(0)
        dag = build_dag([first_h, t, second_h], 1)
        in_order = Schedule(1)
        in_order.add(first_h, 0.0, 10.0)
        in_order.add(t, 10.0, 10.0)
        in_order.add(second_h, 20.0, 10.0)
        assert analyze_schedule(in_order, dag=dag).ok
        # Swap the two look-alike H gates: T now starts before its
        # predecessor finishes.
        swapped = Schedule(1)
        swapped.add(second_h, 0.0, 10.0)
        swapped.add(t, 10.0, 10.0)
        swapped.add(first_h, 20.0, 10.0)
        report = analyze_schedule(swapped, dag=dag)
        assert report.fired_rule_ids() == ("REP142",)

    def test_commuting_reorder_is_legal_for_rep142(self):
        # CLS may flip commuting ops without touching the DAG's chains.
        rz1, rz2 = lib.RZ(0.1, 0), lib.RZ(0.2, 0)
        dag = build_dag([rz1, rz2], 1)
        schedule = Schedule(1)
        schedule.add(rz2, 0.0, 10.0)
        schedule.add(rz1, 10.0, 10.0)
        assert analyze_schedule(schedule, dag=dag).ok

    def test_duplicate_node_id_fires_rep143(self):
        schedule = self.clean_schedule()
        schedule.operations.append(
            TimedInstruction(lib.RZ(0.1, 1), 50.0, 5.0, node_id=0)
        )
        report = analyze_schedule(schedule)
        assert "REP143" in report.fired_rule_ids()

    def test_negative_start_fires_rep144(self):
        schedule = Schedule(1)
        schedule.operations.append(
            TimedInstruction(lib.H(0), -5.0, 5.0, node_id=0)
        )
        report = analyze_schedule(schedule)
        assert "REP144" in report.fired_rule_ids()

    def test_off_register_qubit_fires_rep145(self):
        schedule = Schedule(1)
        schedule.operations.append(
            TimedInstruction(lib.H(3), 0.0, 5.0, node_id=0)
        )
        report = analyze_schedule(schedule)
        assert "REP145" in report.fired_rule_ids()


# ----------------------------------------------------------------------
# Result rules (REP15x)


class TestResultMutations:
    def clean_result(self, **overrides):
        schedule = Schedule(2)
        schedule.add(lib.H(0), 0.0, 10.0)
        schedule.add(lib.CNOT(0, 1), 10.0, 40.0)
        fields = dict(
            strategy_key="isa",
            circuit_name="probe",
            logical_qubits=2,
            physical_qubits=2,
            schedule=schedule,
            latency_ns=schedule.makespan,
            swap_count=0,
            lowered_gate_count=2,
            aggregation_merges=0,
            initial_mapping={0: 0, 1: 1},
            final_mapping={0: 0, 1: 1},
        )
        fields.update(overrides)
        return CompilationResult(**fields)

    def test_clean_result_passes(self):
        report = analyze_result(self.clean_result())
        assert report.ok
        # No device name: the routing coverage gap is noted, not erred.
        assert report.by_rule("REP120")

    def test_latency_mismatch_fires_rep151(self):
        report = analyze_result(self.clean_result(latency_ns=1.0))
        assert "REP151" in report.fired_rule_ids()

    def test_off_device_mapping_fires_rep152(self):
        report = analyze_result(
            self.clean_result(final_mapping={0: 99, 1: 1})
        )
        assert "REP152" in report.fired_rule_ids()

    def test_colliding_mapping_fires_rep152(self):
        report = analyze_result(
            self.clean_result(final_mapping={0: 1, 1: 1})
        )
        assert "REP152" in report.fired_rule_ids()

    def test_too_narrow_device_fires_rep153(self):
        report = analyze_result(self.clean_result(physical_qubits=1))
        assert "REP153" in report.fired_rule_ids()

    def test_resolvable_device_checks_routing(self):
        result = self.clean_result(device_name="line-2")
        report = analyze_result(result)
        assert report.ok
        assert not report.by_rule("REP120")
        assert "REP121" in report.checked_rules

    def test_mutation_suite_covers_ten_distinct_rules(self):
        # The acceptance floor: this module corrupts its way through at
        # least ten distinct rule IDs.  Counted from the class-level
        # assertions above rather than re-run here.
        covered = {
            "REP101", "REP102", "REP103", "REP111", "REP112", "REP113",
            "REP121", "REP122", "REP123", "REP131", "REP132", "REP141",
            "REP142", "REP143", "REP144", "REP145", "REP151", "REP152",
            "REP153",
        }
        assert len(covered) >= 10


@pytest.mark.parametrize("key", ["line-3", "ring-4"])
def test_presets_resolve_for_routing_rules(key):
    topology = device_by_key(key).topology
    assert analyze_routing([lib.H(0)], topology).ok
