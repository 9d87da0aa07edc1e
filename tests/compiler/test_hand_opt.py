"""Tests for the hand-optimization rules."""

import itertools

import numpy as np
import pytest

from repro.aggregation.instruction import AggregatedInstruction
from repro.benchmarks.registry import table3_suite
from repro.compiler.hand_opt import (
    HandOptimizedInstruction,
    hand_optimize,
    hand_zz_latency,
)
from repro.compiler.passes import PlaceAndRoutePass
from repro.compiler.pipeline import compile_circuit
from repro.config import CompilerConfig, DEFAULT_DEVICE
from repro.control.latency_model import AnalyticLatencyModel
from repro.device.device import Device
from repro.device.topology import LineTopology
from repro.gates import library as lib
from repro.gates.decompositions import lower_to_standard_set
from repro.gates.gate import Gate
from repro.linalg.embed import embed_operator
from repro.linalg.kak import interaction_time, weyl_decomposition
from repro.linalg.predicates import is_diagonal
from repro.linalg.su2 import rotation_content
from repro.testing.generators import CIRCUIT_FAMILIES, random_circuit


@pytest.fixture(scope="module")
def model():
    return AnalyticLatencyModel()


class TestHandZzRule:
    def test_cnot_rz_cnot_replaced(self):
        nodes = [lib.CNOT(0, 1), lib.RZ(0.7, 1), lib.CNOT(0, 1)]
        optimized = hand_optimize(nodes)
        assert len(optimized) == 1
        assert isinstance(optimized[0], HandOptimizedInstruction)

    def test_hand_latency_between_serial_and_optimal(self, model):
        nodes = [lib.CNOT(0, 1), lib.RZ(0.7, 1), lib.CNOT(0, 1)]
        optimized = hand_optimize(nodes)
        hand = optimized[0].hand_latency_ns
        serial = sum(model.gate_latency(g) for g in nodes)
        optimal = model.sequence_latency(nodes)
        assert optimal < hand < serial

    def test_two_setup_charges(self, model):
        block = AggregatedInstruction(
            [lib.CNOT(0, 1), lib.RZ(0.7, 1), lib.CNOT(0, 1)], name="p"
        )
        latency = hand_zz_latency(block, model)
        assert latency >= 2 * DEFAULT_DEVICE.setup_time_2q_ns

    def test_detected_diagonal_block_converted(self):
        block = AggregatedInstruction(
            [lib.CNOT(0, 1), lib.RZ(0.7, 1), lib.CNOT(0, 1)]
        )
        optimized = hand_optimize([block])
        assert isinstance(optimized[0], HandOptimizedInstruction)
        assert optimized[0].hand_latency_ns > 0

    def test_wide_instruction_passes_through(self):
        wide = AggregatedInstruction(
            [lib.CNOT(i, i + 1) for i in range(4)]
        )
        optimized = hand_optimize([wide])
        assert optimized[0] is wide

    def test_non_diagonal_pattern_untouched(self):
        nodes = [lib.CNOT(0, 1), lib.RX(0.7, 1), lib.CNOT(0, 1)]
        optimized = hand_optimize(nodes)
        two_qubit = [n for n in optimized if len(n.qubits) == 2]
        assert len(two_qubit) == 2


class TestSingleQubitFusion:
    def test_consecutive_run_fused(self):
        nodes = [lib.H(0), lib.T(0), lib.H(0)]
        optimized = hand_optimize(nodes)
        assert len(optimized) == 1
        assert isinstance(optimized[0], HandOptimizedInstruction)

    def test_fused_latency_collapses_rotations(self, model):
        # H then H cancels: almost free after fusion.
        optimized = hand_optimize([lib.H(0), lib.H(0)])
        assert optimized[0].hand_latency_ns <= (
            DEFAULT_DEVICE.setup_time_1q_ns + 1e-6
        )

    def test_runs_on_different_qubits_not_fused(self):
        nodes = [lib.H(0), lib.H(1)]
        optimized = hand_optimize(nodes)
        assert len(optimized) == 2

    def test_two_qubit_gate_breaks_run(self):
        nodes = [lib.H(0), lib.CNOT(0, 1), lib.H(0)]
        optimized = hand_optimize(nodes)
        assert len(optimized) == 3

    def test_retarget_preserves_hand_latency(self):
        optimized = hand_optimize([lib.H(0), lib.T(0)])
        moved = optimized[0].on((5,))
        assert isinstance(moved, HandOptimizedInstruction)
        assert moved.hand_latency_ns == pytest.approx(
            optimized[0].hand_latency_ns
        )
        assert moved.qubits == (5,)


class TestBlockDepth:
    """Rule 1 finds its blocks with the commutativity detector, so it
    honors ``CompilerConfig.diagonal_block_depth`` like the detector."""

    NODES = (
        lib.CNOT(0, 1),
        lib.RZ(0.7, 1),
        lib.CNOT(0, 1),
        lib.RZ(0.3, 0),
        lib.RZ(0.5, 1),
    )

    def test_default_depth_takes_the_whole_diagonal_run(self):
        optimized = hand_optimize(list(self.NODES))
        assert len(optimized) == 1
        assert isinstance(optimized[0], HandOptimizedInstruction)
        assert optimized[0].gates == list(self.NODES)

    def test_a_short_depth_cuts_the_block(self):
        optimized = hand_optimize(
            list(self.NODES), config=CompilerConfig(diagonal_block_depth=3)
        )
        assert len(optimized) == 3
        assert isinstance(optimized[0], HandOptimizedInstruction)
        assert optimized[0].gates == list(self.NODES[:3])
        assert optimized[1:] == list(self.NODES[3:])


# -- frozen reference ------------------------------------------------------
# The rule-1 scan and the rule-1/rule-2 pricing as hand_opt.py spelled
# them out itself before it reused the detector and the latency model.
# The rewrite must reproduce them node for node and bit for bit.


def _reference_hand_optimize(nodes, device, target=None):
    with_zz = _reference_pair_blocks(list(nodes), device, target)
    return _reference_fuse(with_zz, device)


def _reference_zz_latency(unitary, device, coupling_rate=None):
    if coupling_rate is None:
        coupling_rate = device.coupling_rate
    busy = interaction_time(unitary, coupling_rate)
    try:
        qubit_a, qubit_b = weyl_decomposition(unitary).local_rotation_content
        local = max(qubit_a, qubit_b) / device.drive_rate
    except Exception:
        local = 0.0
    return 2.0 * device.setup_time_2q_ns + busy + local


def _reference_rate(target, support):
    if target is None or len(support) != 2:
        return None
    return target.coupling_rate_of(support[0], support[1])


def _reference_pair_blocks(nodes, device, target):
    output = []
    index = 0
    while index < len(nodes):
        node = nodes[index]
        if isinstance(node, AggregatedInstruction):
            if node.width == 2 and node.matrix is not None:
                support = tuple(sorted(set(node.qubits)))
                latency = _reference_zz_latency(
                    node.matrix, device, _reference_rate(target, support)
                )
                output.append(
                    HandOptimizedInstruction(node.gates, latency, name=node.name)
                )
            else:
                output.append(node)
            index += 1
            continue
        if not isinstance(node, Gate):
            output.append(node)
            index += 1
            continue
        window, support = _reference_window(nodes, index)
        best = _reference_prefix(window, support)
        if best >= 3:
            block = nodes[index : index + best]
            unitary = AggregatedInstruction(block, name="probe").matrix
            latency = _reference_zz_latency(
                unitary, device, _reference_rate(target, support)
            )
            output.append(HandOptimizedInstruction(block, latency, name=None))
            index += best
        else:
            output.append(node)
            index += 1
    return output


def _reference_window(nodes, start, depth_limit=10):
    support = set(nodes[start].qubits)
    window = [nodes[start]]
    position = start + 1
    while position < len(nodes) and len(window) < depth_limit:
        node = nodes[position]
        if not isinstance(node, Gate):
            break
        union = support | set(node.qubits)
        if len(union) > 2:
            break
        support = union
        window.append(node)
        position += 1
    return window, tuple(sorted(support))


def _reference_prefix(window, support):
    if len(support) > 2 or len(window) < 3:
        return 0
    width = len(support)
    index = {qubit: position for position, qubit in enumerate(support)}
    total = np.eye(2**width, dtype=complex)
    best = 0
    has_pair_gate = False
    for length, gate in enumerate(window, start=1):
        positions = [index[q] for q in gate.qubits]
        total = embed_operator(gate.matrix, positions, width) @ total
        has_pair_gate = has_pair_gate or gate.num_qubits == 2
        if length >= 3 and has_pair_gate and is_diagonal(total):
            best = length
    return best


def _reference_fuse(nodes, device):
    output = []
    index = 0
    while index < len(nodes):
        node = nodes[index]
        if not (isinstance(node, Gate) and node.num_qubits == 1):
            output.append(node)
            index += 1
            continue
        qubit = node.qubits[0]
        run = [node]
        probe = index + 1
        while probe < len(nodes):
            candidate = nodes[probe]
            if not (
                isinstance(candidate, Gate)
                and candidate.num_qubits == 1
                and candidate.qubits[0] == qubit
            ):
                break
            run.append(candidate)
            probe += 1
        if len(run) > 1:
            total = np.eye(2, dtype=complex)
            for gate in run:
                total = gate.matrix @ total
            latency = (
                device.setup_time_1q_ns
                + rotation_content(total) / device.drive_rate
            )
            output.append(HandOptimizedInstruction(run, latency, name=None))
            index += len(run)
        else:
            output.append(node)
            index += 1
    return output


def _routed_streams(circuits, device):
    """``(nodes, device_config, target)`` as the hand pass receives them:
    each circuit's routed stream under ``cls+hand``."""
    streams = []

    def grab(pass_, context, elapsed):
        if isinstance(pass_, PlaceAndRoutePass):
            streams.append(
                (list(context.physical_nodes), context.device_config, context.device)
            )

    for circuit in circuits:
        compile_circuit(circuit, "cls+hand", device=device, callbacks=[grab])
    return streams


def _fresh_names(monkeypatch):
    """Restart the auto-name counter, so two runs minting names in the
    same order mint the same names."""
    monkeypatch.setattr(AggregatedInstruction, "_counter", itertools.count(1))


def _assert_matches_reference(monkeypatch, nodes, device, target):
    _fresh_names(monkeypatch)
    expected = _reference_hand_optimize(nodes, device, target)
    _fresh_names(monkeypatch)
    actual = hand_optimize(nodes, device, target=target)
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert type(got) is type(want)
        assert got.name == want.name
        if isinstance(want, Gate):
            assert got is want
        else:
            assert len(got.gates) == len(want.gates)
            assert all(a is b for a, b in zip(got.gates, want.gates))
        if isinstance(want, HandOptimizedInstruction):
            assert got.hand_latency_ns.hex() == want.hand_latency_ns.hex()
    return actual


class TestFrozenReference:
    def test_small_table3_suite(self, monkeypatch):
        circuits = [spec.build() for spec in table3_suite("small")]
        streams = _routed_streams(circuits, DEFAULT_DEVICE)
        fused = 0
        for nodes, device, target in streams:
            actual = _assert_matches_reference(monkeypatch, nodes, device, target)
            fused += sum(isinstance(n, HandOptimizedInstruction) for n in actual)
        assert fused > 0

    @pytest.mark.parametrize("family", CIRCUIT_FAMILIES)
    def test_seeded_random_circuits(self, monkeypatch, family):
        circuits = [random_circuit(4, 40, seed, family) for seed in range(4)]
        for nodes, device, target in _routed_streams(circuits, DEFAULT_DEVICE):
            _assert_matches_reference(monkeypatch, nodes, device, target)
        # The bare lowered streams: no frontend detection, so every block
        # comes from rule 1's own scan.
        for circuit in circuits:
            nodes = lower_to_standard_set(circuit.gates)
            _assert_matches_reference(monkeypatch, nodes, DEFAULT_DEVICE, None)

    def test_per_edge_coupling_overrides(self, monkeypatch):
        overrides = {(0, 1): 0.015, (2, 3): 0.03}
        machine = Device(topology=LineTopology(5), coupling_limits_ghz=overrides)
        circuits = [
            random_circuit(5, 60, seed, "diagonal") for seed in range(6)
        ]
        streams = _routed_streams(circuits, machine) + [
            (lower_to_standard_set(c.gates), machine.config, machine)
            for c in circuits
        ]
        on_overridden_edges = 0
        for nodes, device, target in streams:
            actual = _assert_matches_reference(monkeypatch, nodes, device, target)
            on_overridden_edges += sum(
                isinstance(n, HandOptimizedInstruction) and n.qubits in overrides
                for n in actual
            )
        # The edge-rate path ran, not just the homogeneous one.
        assert on_overridden_edges > 0
