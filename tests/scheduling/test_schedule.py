"""Tests for the Schedule data structure."""

import pytest

from repro.errors import SchedulingError
from repro.gates import library as lib
from repro.ir.timed import (
    DEPENDENCE_EPSILON_NS,
    OVERLAP_EPSILON_NS,
    TimedInstruction,
)
from repro.scheduling.schedule import Schedule


class TestTimedInstruction:
    def test_end_time(self):
        op = TimedInstruction(lib.H(0), 1.0, 2.5)
        assert op.end == pytest.approx(3.5)

    def test_overlap_detection(self):
        a = TimedInstruction(lib.H(0), 0.0, 2.0)
        b = TimedInstruction(lib.X(0), 1.0, 2.0)
        c = TimedInstruction(lib.Z(0), 2.0, 1.0)
        assert a.overlaps(b)
        assert not a.overlaps(c)  # touching intervals do not overlap


class TestSchedule:
    def test_makespan(self):
        schedule = Schedule(2)
        schedule.add(lib.H(0), 0.0, 2.0)
        schedule.add(lib.H(1), 1.0, 5.0)
        assert schedule.makespan == pytest.approx(6.0)

    def test_empty_makespan(self):
        assert Schedule(1).makespan == 0.0

    def test_negative_time_rejected(self):
        schedule = Schedule(1)
        with pytest.raises(SchedulingError):
            schedule.add(lib.H(0), -1.0, 1.0)
        with pytest.raises(SchedulingError):
            schedule.add(lib.H(0), 0.0, -1.0)

    def test_qubit_timeline_sorted(self):
        schedule = Schedule(2)
        schedule.add(lib.X(0), 5.0, 1.0)
        schedule.add(lib.H(0), 0.0, 1.0)
        schedule.add(lib.H(1), 0.0, 1.0)
        timeline = schedule.qubit_timeline(0)
        assert [op.start for op in timeline] == [0.0, 5.0]

    def test_validate_detects_qubit_overlap(self):
        schedule = Schedule(2)
        schedule.add(lib.H(0), 0.0, 2.0)
        schedule.add(lib.CNOT(0, 1), 1.0, 2.0)
        with pytest.raises(SchedulingError, match="overlap"):
            schedule.validate()

    def test_validate_accepts_disjoint(self):
        schedule = Schedule(2)
        schedule.add(lib.H(0), 0.0, 2.0)
        schedule.add(lib.H(1), 0.0, 2.0)
        schedule.add(lib.CNOT(0, 1), 2.0, 3.0)
        schedule.validate()

    def test_utilization(self):
        schedule = Schedule(2)
        schedule.add(lib.H(0), 0.0, 1.0)
        schedule.add(lib.H(1), 0.0, 1.0)
        assert schedule.utilization() == pytest.approx(1.0)

    def test_utilization_empty(self):
        assert Schedule(3).utilization() == 0.0

    def test_busy_time_counts_qubit_time(self):
        schedule = Schedule(2)
        schedule.add(lib.CNOT(0, 1), 0.0, 3.0)
        assert schedule.busy_time() == pytest.approx(6.0)

    def test_ordered_nodes(self):
        schedule = Schedule(2)
        a = lib.H(0)
        b = lib.H(1)
        schedule.add(b, 2.0, 1.0)
        schedule.add(a, 0.0, 1.0)
        assert schedule.ordered_nodes() == [a, b]

    def test_ordered_nodes_ties_follow_insertion_order(self):
        schedule = Schedule(2)
        first = lib.H(0)
        second = lib.H(1)
        schedule.add(first, 0.0, 1.0)
        schedule.add(second, 0.0, 1.0)
        assert schedule.ordered_nodes() == [first, second]


class TestTypedIR:
    def test_add_assigns_stable_node_ids(self):
        schedule = Schedule(2)
        ops = [
            schedule.add(lib.H(0), 0.0, 1.0),
            schedule.add(lib.H(1), 0.0, 1.0),
            schedule.add(lib.CNOT(0, 1), 1.0, 2.0),
        ]
        assert [op.node_id for op in ops] == [0, 1, 2]
        assert all(isinstance(op, TimedInstruction) for op in schedule)

    def test_free_standing_instruction_has_no_node_id(self):
        free = TimedInstruction(lib.H(0), 1.0, 2.0)
        assert free.node_id == -1  # free-standing, not schedule-owned

    def test_epsilon_constants_documented_and_ordered(self):
        # The overlap tolerance is the tight numerical one; the
        # dependence tolerance absorbs whole latency-chain accumulation.
        assert OVERLAP_EPSILON_NS == 1e-12
        assert DEPENDENCE_EPSILON_NS == 1e-9
        assert OVERLAP_EPSILON_NS < DEPENDENCE_EPSILON_NS

    def test_overlap_uses_named_epsilon(self):
        a = TimedInstruction(lib.H(0), 0.0, 1.0)
        b = TimedInstruction(lib.X(0), 1.0 - OVERLAP_EPSILON_NS / 2, 1.0)
        assert not a.overlaps(b)

    def test_qubit_index_invalidated_by_add(self):
        schedule = Schedule(2)
        schedule.add(lib.H(0), 0.0, 1.0)
        assert [op.start for op in schedule.qubit_timeline(0)] == [0.0]
        # The cached index must not go stale when new work is placed.
        schedule.add(lib.X(0), 2.0, 1.0)
        assert [op.start for op in schedule.qubit_timeline(0)] == [0.0, 2.0]
        assert schedule.busy_time() == pytest.approx(2.0)

    def test_timeline_returns_copy(self):
        schedule = Schedule(1)
        schedule.add(lib.H(0), 0.0, 1.0)
        schedule.qubit_timeline(0).append("junk")
        assert len(schedule.qubit_timeline(0)) == 1
