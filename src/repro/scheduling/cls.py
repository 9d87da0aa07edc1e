"""Commutativity-aware Logical Scheduling — Algorithm 1 of the paper.

CLS walks the per-qubit commutation groups of the GDG: at every time step
the *candidate* gates are those whose commutation group is current on all
of their qubits; candidates whose qubits are all idle form a computational
graph whose conflicts are resolved by maximal-cardinality matching
(weighted by critical-path tails), and the winners are scheduled greedily.

The scheduler returns a :class:`~repro.scheduling.schedule.Schedule`; the
schedule's node order is a legal reordering of the GDG (it never moves a
gate across a commutation-group boundary), so callers typically follow up
with ``dag.reorder(schedule.ordered_nodes())``.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import SchedulingError
from repro.scheduling.matching import resolve_conflicts
from repro.scheduling.schedule import Schedule

_EPSILON = 1e-9


def cls_schedule(
    dag,
    latency_fn: Callable[[object], float],
    use_matching: bool = True,
) -> Schedule:
    """Schedule the GDG with commutativity-aware greedy matching.

    ``use_matching=False`` replaces the maximal-cardinality matching with
    naive first-fit selection (the ablation of paper Fig. 7).
    """
    schedule = Schedule(dag.num_qubits)
    if not dag.nodes:
        return schedule

    group_lists = {q: dag.commutation_groups(q) for q in range(dag.num_qubits)}
    pointer = {q: 0 for q in range(dag.num_qubits)}
    remaining_in_group = {
        q: len(groups[0]) if groups else 0 for q, groups in group_lists.items()
    }
    tails = _critical_tails(dag, group_lists, latency_fn)

    # A node is a candidate once its commutation group is current on all
    # of its qubits.  Pointers only advance past a group after every
    # member is scheduled, so each node's not-yet-current qubit count
    # (``waiting``) decrements monotonically to zero and stays there:
    # the candidate check reduces to ``waiting == 0``.
    waiting: dict = {}
    for qubit, groups in group_lists.items():
        for index, group in enumerate(groups):
            if index == 0:
                for member in group:
                    waiting.setdefault(member, 0)
            else:
                for member in group:
                    waiting[member] = waiting.get(member, 0) + 1

    unscheduled = dict.fromkeys(dag.nodes)
    qubit_free = [0.0] * dag.num_qubits
    now = 0.0

    while unscheduled:
        ready = [node for node in unscheduled if waiting[node] == 0]
        if not ready:
            raise SchedulingError("CLS deadlock: no group-current candidate")
        schedulable = [
            node
            for node in ready
            if all(qubit_free[q] <= now + _EPSILON for q in node.qubits)
        ]
        selected = _select(schedulable, tails, use_matching)
        if selected:
            for node in selected:
                duration = latency_fn(node)
                schedule.add(node, now, duration)
                for q in node.qubits:
                    qubit_free[q] = now + duration
                del unscheduled[node]
                _advance_pointers(
                    node, group_lists, pointer, remaining_in_group, waiting,
                )
            continue
        # Nothing fits at `now`: jump to the next time a candidate could run.
        next_time = min(
            max(qubit_free[q] for q in node.qubits) for node in ready
        )
        if next_time <= now + _EPSILON:
            raise SchedulingError("CLS failed to advance time")
        now = next_time
    return schedule


def _select(schedulable: list, tails: dict, use_matching: bool = True) -> list:
    """Pick a conflict-free subset, matching-based when possible."""
    if not schedulable:
        return []
    priority = tails.__getitem__
    if use_matching and all(len(node.qubits) <= 2 for node in schedulable):
        return resolve_conflicts(schedulable, priority)
    # Wide (aggregated) nodes present: greedy by priority.
    chosen: list = []
    taken: set[int] = set()
    for node in sorted(schedulable, key=priority, reverse=True):
        if not taken.intersection(node.qubits):
            chosen.append(node)
            taken.update(node.qubits)
    return chosen


def _advance_pointers(node, group_lists, pointer, remaining, waiting) -> None:
    for q in node.qubits:
        remaining[q] -= 1
        while remaining[q] == 0 and pointer[q] + 1 < len(group_lists[q]):
            pointer[q] += 1
            group = group_lists[q][pointer[q]]
            remaining[q] = len(group)
            for member in group:
                waiting[member] -= 1


def _critical_tails(dag, group_lists, latency_fn) -> dict:
    """Longest dependence path from each node to a sink.

    Uses the *group-level* dependence edges (every member of group ``i``
    precedes every member of group ``i+1`` on a qubit), which captures the
    true ordering freedom rather than the current arbitrary chain order.
    """
    successors: dict = {node: set() for node in dag.nodes}
    for groups in group_lists.values():
        for earlier, later in zip(groups, groups[1:]):
            for a in earlier:
                successors[a].update(later)
    tails: dict = {}
    for node in reversed(dag.topological_order()):
        best_successor = max(
            (tails[s] for s in successors[node]),
            default=0.0,
        )
        tails[node] = latency_fn(node) + best_successor
    return tails
