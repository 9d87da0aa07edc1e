"""The action space for instruction aggregation (paper Sec. 4.1).

Two nodes may aggregate when they (1) overlap on at least one qubit,
(2) sit in the same or consecutive commutation groups on *every* shared
qubit (parent/child or siblings — either way a legal reorder makes them
adjacent, keeping the merged pulse continuous), and (3) the merged width
stays within the optimal-control unit's limit.  Acyclicity after the
merge is checked transactionally by the GDG itself.
"""

from __future__ import annotations

import itertools


def candidate_actions(dag, width_limit: int) -> list[tuple]:
    """Enumerate mergeable node pairs ``(earlier, later)``.

    Pairs are found per qubit: all pairs within one commutation group
    (siblings) plus all pairs across consecutive groups (parent/child),
    then filtered through the same-or-consecutive-groups rule
    (:meth:`GateDependenceGraph.can_merge`, inlined against prefetched
    group lookups) and the width limit.  Each unordered pair is
    reported once, oriented so the first node runs no later than the
    second on their first shared qubit.
    """
    # No merge happens during enumeration, so one prefetch of the
    # per-qubit group-index and position tables serves every pair.
    lookups = [dag.group_lookup(q) for q in range(dag.num_qubits)]
    positions = [
        {node: index for index, node in enumerate(dag.qubit_sequence(q))}
        for q in range(dag.num_qubits)
    ]
    seen: set[frozenset] = set()
    actions: list[tuple] = []
    for qubit in range(dag.num_qubits):
        groups = dag.group_view(qubit)
        for group_index, group in enumerate(groups):
            pair_iter = itertools.chain(
                itertools.combinations(group, 2),
                (
                    (a, b)
                    for a in group
                    for b in groups[group_index + 1]
                )
                if group_index + 1 < len(groups)
                else (),
            )
            for a, b in pair_iter:
                key = frozenset((a, b))
                if key in seen:
                    continue
                seen.add(key)
                a_qubits = set(a.qubits)
                if len(a_qubits | set(b.qubits)) > width_limit:
                    continue
                shared = a_qubits.intersection(b.qubits)
                mergeable = True
                for q in shared:
                    lookup = lookups[q]
                    if abs(lookup[a] - lookup[b]) > 1:
                        mergeable = False
                        break
                if not mergeable:
                    continue
                # Orientation: current execution order on the pair's
                # first shared qubit (same qubit choice as the historical
                # _oriented helper — set iteration order is stable for
                # equal contents).
                pos = positions[next(iter(shared))]
                if pos[a] < pos[b]:
                    actions.append((a, b))
                else:
                    actions.append((b, a))
    return actions
