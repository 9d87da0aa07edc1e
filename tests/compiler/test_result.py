"""Tests for CompilationResult metrics."""

import pytest

from repro.compiler.result import CompilationResult
from repro.gates import library as lib
from repro.scheduling.schedule import Schedule


def _result(latency=100.0):
    schedule = Schedule(3)
    schedule.add(lib.H(0), 0.0, 10.0)
    schedule.add(lib.CNOT(0, 1), 10.0, 40.0)
    schedule.add(lib.SWAP(1, 2), 50.0, 50.0)
    return CompilationResult(
        strategy_key="isa",
        circuit_name="demo",
        logical_qubits=3,
        physical_qubits=3,
        schedule=schedule,
        latency_ns=latency,
        swap_count=1,
        lowered_gate_count=3,
        aggregation_merges=0,
        final_mapping={0: 0, 1: 1, 2: 2},
        initial_mapping={0: 0, 1: 1, 2: 2},
    )


class TestCompilationResult:
    def test_node_count(self):
        assert _result().node_count == 3

    def test_width_histogram(self):
        histogram = _result().instruction_width_histogram()
        assert histogram[1] == 1
        assert histogram[2] == 2

    def test_widest_instruction(self):
        assert _result().widest_instruction() == 2

    def test_no_aggregates_in_plain_result(self):
        assert _result().aggregated_instructions() == []

    def test_speedup_over(self):
        fast = _result(latency=50.0)
        slow = _result(latency=200.0)
        assert fast.speedup_over(slow) == pytest.approx(4.0)
        assert slow.speedup_over(fast) == pytest.approx(0.25)

    def test_speedup_over_zero_latency(self):
        zero = _result(latency=0.0)
        other = _result(latency=10.0)
        assert zero.speedup_over(other) == float("inf")

    def test_summary_contains_key_facts(self):
        text = _result().summary()
        assert "demo" in text and "isa" in text and "swaps" in text
