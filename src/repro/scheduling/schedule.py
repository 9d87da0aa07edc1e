"""Schedule data structures: timed operations with validation.

The schedule atom is the typed :class:`~repro.ir.timed.TimedInstruction`:
every placed node carries a stable integer ``node_id`` assigned in
insertion order, which is what the wire format
(:mod:`repro.ir.serialize`) references instead of process-local ``id()``
values.

Per-qubit queries (:meth:`Schedule.qubit_timeline`, overlap validation,
:meth:`Schedule.busy_time`) share one lazily built per-qubit index
instead of rescanning the full operation list per qubit; the index is
invalidated on :meth:`Schedule.add` and rebuilt on the next query.
"""

from __future__ import annotations

from collections import defaultdict

from repro.errors import SchedulingError
from repro.ir.timed import (
    DEPENDENCE_EPSILON_NS,
    OVERLAP_EPSILON_NS,
    TimedInstruction,
)

__all__ = [
    "DEPENDENCE_EPSILON_NS",
    "OVERLAP_EPSILON_NS",
    "Schedule",
    "TimedInstruction",
]


class Schedule:
    """An ordered collection of timed operations on a qubit register."""

    def __init__(self, num_qubits: int) -> None:
        self.num_qubits = int(num_qubits)
        self.operations: list[TimedInstruction] = []
        self._per_qubit: dict[int, list[TimedInstruction]] | None = None

    def add(self, node, start: float, duration: float) -> TimedInstruction:
        """Place a node; durations must be non-negative.

        The operation's ``node_id`` is its insertion index — stable for
        the schedule's lifetime and across serialization round trips.
        """
        if start < 0 or duration < 0:
            raise SchedulingError(
                f"negative time placing {node}: start={start}, duration={duration}"
            )
        operation = TimedInstruction(
            node, float(start), float(duration), node_id=len(self.operations)
        )
        self.operations.append(operation)
        self._per_qubit = None
        return operation

    @property
    def makespan(self) -> float:
        """Completion time of the last operation."""
        return max((op.end for op in self.operations), default=0.0)

    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self):
        return iter(self.operations)

    def _qubit_index(self) -> dict[int, list[TimedInstruction]]:
        """Operations per qubit, each list sorted by start time.

        Built once and reused by every per-qubit query until the next
        :meth:`add` invalidates it — the structure ``validate`` needs is
        exactly the one ``qubit_timeline`` and ``busy_time`` need.
        """
        if self._per_qubit is None:
            per_qubit: dict[int, list[TimedInstruction]] = defaultdict(list)
            for operation in self.operations:
                for q in operation.node.qubits:
                    per_qubit[q].append(operation)
            for timeline in per_qubit.values():
                timeline.sort(key=lambda op: (op.start, op.node_id))
            self._per_qubit = dict(per_qubit)
        return self._per_qubit

    def qubit_timeline(self, qubit: int) -> list[TimedInstruction]:
        """Operations touching ``qubit``, sorted by start time."""
        return list(self._qubit_index().get(qubit, ()))

    def busy_time(self) -> float:
        """Total qubit-time occupied by operations."""
        return sum(
            op.duration
            for timeline in self._qubit_index().values()
            for op in timeline
        )

    def utilization(self) -> float:
        """Busy qubit-time over total qubit-time (0 for empty schedules)."""
        span = self.makespan
        if span <= 0:
            return 0.0
        return self.busy_time() / (span * self.num_qubits)

    def validate(self, dag=None) -> None:
        """Check physical consistency; raises SchedulingError on violation.

        Verifies that no two operations overlap on a qubit and — when a
        DAG is given — that every chain dependence is respected.  The
        overlap check uses :data:`~repro.ir.timed.OVERLAP_EPSILON_NS`,
        the dependence check the looser
        :data:`~repro.ir.timed.DEPENDENCE_EPSILON_NS` (see their docs
        for why the two tolerances differ).
        """
        for qubit, timeline in self._qubit_index().items():
            for first, second in zip(timeline, timeline[1:]):
                if first.overlaps(second):
                    raise SchedulingError(
                        f"operations overlap on qubit {qubit}: "
                        f"{first.node} and {second.node}"
                    )
        if dag is not None:
            # Nodes hash by identity (gates and instructions never
            # define value equality), so keying by the node itself is
            # the sound replacement for the old id() maps — and it
            # cannot be confused by id() reuse after garbage collection.
            finish = {op.node: op.end for op in self.operations}
            start = {op.node: op.start for op in self.operations}
            for operation in self.operations:
                for predecessor in dag.predecessors(operation.node):
                    if predecessor not in finish:
                        raise SchedulingError(
                            f"{operation.node} scheduled without its "
                            f"predecessor {predecessor}"
                        )
                    if (
                        finish[predecessor]
                        > start[operation.node] + DEPENDENCE_EPSILON_NS
                    ):
                        raise SchedulingError(
                            f"{operation.node} starts before predecessor "
                            f"{predecessor} finishes"
                        )

    def ordered_nodes(self) -> list:
        """Nodes sorted by (start time, insertion order)."""
        ordered = sorted(
            self.operations, key=lambda op: (op.start, op.node_id)
        )
        return [operation.node for operation in ordered]
