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

    Pairs are generated per qubit, in ascending qubit order: all pairs
    within one commutation group (siblings) plus all pairs across
    consecutive groups (parent/child), then filtered through the
    same-or-consecutive-groups rule (:meth:`GateDependenceGraph.can_merge`,
    inlined against prefetched group lookups) and the width limit.

    Each pair is generated at most once per shared qubit, so a pair
    sharing one qubit needs no de-duplication; a pair sharing several is
    reported from its lowest shared qubit, where a mergeable pair is
    generated first.  Generation already orients the pair: ``earlier``
    runs first on the generating qubit, and because the chain graph is
    acyclic two nodes run in the same order on every qubit they share.
    """
    # No merge happens during enumeration, so one prefetch of the
    # per-qubit group-index tables serves every pair.
    lookups = [dag.group_lookup(q) for q in range(dag.num_qubits)]
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
                a_qubits = set(a.qubits)
                if len(a_qubits | set(b.qubits)) > width_limit:
                    continue
                shared = a_qubits.intersection(b.qubits)
                if len(shared) > 1:
                    if min(shared) != qubit:
                        continue
                    if any(
                        abs(lookups[q][a] - lookups[q][b]) > 1 for q in shared
                    ):
                        continue
                actions.append((a, b))
    return actions
