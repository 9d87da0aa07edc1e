"""Tests for the list scheduler and CLS, including schedule invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.circuit import Circuit
from repro.circuit.commutation import CommutationChecker
from repro.circuit.dag import GateDependenceGraph
from repro.scheduling.cls import cls_schedule
from repro.scheduling.list_scheduler import list_schedule


def build_dag(circuit):
    return GateDependenceGraph.from_circuit(circuit, CommutationChecker())


def unit_latency(_node) -> float:
    return 1.0


class TestListScheduler:
    def test_serial_chain(self):
        circuit = Circuit(1).h(0).t(0).h(0)
        schedule = list_schedule(build_dag(circuit), unit_latency)
        assert schedule.makespan == pytest.approx(3.0)
        schedule.validate()

    def test_parallel_layer(self):
        circuit = Circuit(4).h(0).h(1).h(2).h(3)
        schedule = list_schedule(build_dag(circuit), unit_latency)
        assert schedule.makespan == pytest.approx(1.0)

    def test_matches_dag_makespan(self):
        circuit = Circuit(3).h(0).cnot(0, 1).cnot(1, 2).rz(0.3, 0)
        dag = build_dag(circuit)
        schedule = list_schedule(dag, unit_latency)
        assert schedule.makespan == pytest.approx(dag.makespan(unit_latency))

    def test_respects_dependencies(self):
        circuit = Circuit(2).h(0).cnot(0, 1).h(1)
        dag = build_dag(circuit)
        schedule = list_schedule(dag, unit_latency)
        schedule.validate(dag)

    def test_weighted_latencies(self):
        circuit = Circuit(2).h(0).cnot(0, 1)
        dag = build_dag(circuit)
        latencies = {"H": 13.7, "CNOT": 47.1}
        schedule = list_schedule(dag, lambda n: latencies[n.name])
        assert schedule.makespan == pytest.approx(60.8)

    def test_empty_circuit(self):
        schedule = list_schedule(build_dag(Circuit(2)), unit_latency)
        assert schedule.makespan == 0.0


class TestClsScheduler:
    def test_no_commutativity_matches_list_schedule(self):
        # Serial Grover-like chain: CLS cannot improve anything.
        circuit = Circuit(2).h(0).cnot(0, 1).h(1).cnot(0, 1).h(0)
        dag = build_dag(circuit)
        cls = cls_schedule(dag, unit_latency)
        plain = list_schedule(dag, unit_latency)
        assert cls.makespan == pytest.approx(plain.makespan)
        cls.validate()

    def test_commuting_rzz_chain_parallelizes(self):
        # Three ZZ interactions on a path 0-1-2-3: program order serializes
        # the middle one, but they all commute, so CLS packs (0,1) and
        # (2,3) together.
        circuit = (
            Circuit(4).rzz(0.3, 1, 2).rzz(0.3, 0, 1).rzz(0.3, 2, 3)
        )
        dag = build_dag(circuit)
        plain = list_schedule(dag, unit_latency)
        cls = cls_schedule(dag, unit_latency)
        assert plain.makespan == pytest.approx(2.0)
        assert cls.makespan == pytest.approx(2.0)
        # On a 6-ring the gain is visible:
        ring = Circuit(6)
        for i in range(6):
            ring.rzz(0.3, i, (i + 1) % 6)
        ring_dag = build_dag(ring)
        assert list_schedule(ring_dag, unit_latency).makespan >= 3.0
        assert cls_schedule(ring_dag, unit_latency).makespan == pytest.approx(2.0)

    def test_cls_never_worse_than_list_on_commutative_circuits(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            circuit = Circuit(6)
            for _ in range(12):
                a, b = rng.choice(6, size=2, replace=False)
                circuit.rzz(float(rng.uniform(0.1, 1.0)), int(a), int(b))
            dag = build_dag(circuit)
            cls = cls_schedule(dag, unit_latency)
            plain = list_schedule(dag, unit_latency)
            assert cls.makespan <= plain.makespan + 1e-9
            cls.validate()

    def test_schedule_order_is_valid_reorder(self):
        circuit = Circuit(4)
        for i in range(4):
            circuit.rzz(0.2, i, (i + 1) % 4)
        dag = build_dag(circuit)
        schedule = cls_schedule(dag, unit_latency)
        dag.reorder(schedule.ordered_nodes())  # must not raise
        assert dag.makespan(unit_latency) <= schedule.makespan + 1e-9

    def test_qaoa_triangle_with_swap_structure(self):
        # Shape of the paper's Fig. 4 circuit: H layer, three ZZ blocks
        # (one needs the SWAP), Rx layer.
        gamma, beta = 5.67, 1.26
        circuit = Circuit(3)
        for q in range(3):
            circuit.h(q)
        for (a, b) in [(0, 1), (1, 2), (0, 2)]:
            circuit.cnot(a, b).rz(2 * gamma, b).cnot(a, b)
        for q in range(3):
            circuit.rx(2 * beta, q)
        dag = build_dag(circuit)
        cls = cls_schedule(dag, unit_latency)
        plain = list_schedule(dag, unit_latency)
        cls.validate()
        assert cls.makespan <= plain.makespan

    def test_single_gate(self):
        circuit = Circuit(1).h(0)
        schedule = cls_schedule(build_dag(circuit), unit_latency)
        assert schedule.makespan == pytest.approx(1.0)

    def test_empty(self):
        schedule = cls_schedule(build_dag(Circuit(2)), unit_latency)
        assert schedule.makespan == 0.0

    def test_wide_nodes_scheduled_greedily(self):
        circuit = Circuit(3).toffoli(0, 1, 2).h(0)
        dag = build_dag(circuit)
        schedule = cls_schedule(dag, unit_latency)
        schedule.validate()
        assert schedule.makespan == pytest.approx(2.0)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_property_valid_schedules_on_random_circuits(self, seed):
        rng = np.random.default_rng(seed)
        circuit = Circuit(5)
        for _ in range(15):
            kind = rng.integers(0, 3)
            if kind == 0:
                circuit.h(int(rng.integers(0, 5)))
            elif kind == 1:
                a, b = rng.choice(5, size=2, replace=False)
                circuit.cnot(int(a), int(b))
            else:
                a, b = rng.choice(5, size=2, replace=False)
                circuit.rzz(float(rng.uniform(0.1, 2.0)), int(a), int(b))
        dag = build_dag(circuit)
        for scheduler in (list_schedule, cls_schedule):
            schedule = scheduler(dag, unit_latency)
            schedule.validate()
            assert len(schedule) == len(circuit)
            # Makespan is bounded by the serial sum and at least the depth.
            assert schedule.makespan <= len(circuit)
            assert schedule.makespan >= circuit.depth / 2


class TestEqualLookingNodes:
    """Schedulers key their per-node state by the node object, so gates
    that look alike are still scheduled once each, in dependence order."""

    def test_cls_schedules_each_equal_looking_node_once(self):
        circuit = Circuit(2).cnot(0, 1).rz(0.5, 1).cnot(0, 1)
        dag = build_dag(circuit)
        cnot_a, rz, cnot_b = circuit.gates
        schedule = cls_schedule(dag, unit_latency)
        schedule.validate()
        assert schedule.ordered_nodes() == [cnot_a, rz, cnot_b]
        assert schedule.makespan == pytest.approx(3.0)
