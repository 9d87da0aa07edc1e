"""Conflict resolution by maximal-cardinality matching (paper Fig. 7).

Candidate gates ready at a time step form a *computational graph* with
qubits as vertices and gates as edges; gates sharing a qubit conflict.
The scheduler picks a maximal-cardinality matching, using a priority
(typically critical-path tail length) as the tie-breaking weight.

Single-qubit gates are modeled as edges to a per-qubit dummy vertex so
that the matching can weigh a critical 1-qubit gate against a 2-qubit
gate competing for the same qubit.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import networkx as nx

from repro.errors import SchedulingError


def resolve_conflicts(
    candidates: Sequence,
    priority_fn: Callable[[object], float] | None = None,
) -> list:
    """Select a non-conflicting, maximal-cardinality subset of gates.

    Args:
        candidates: Nodes with a ``qubits`` attribute, each on 1 or 2
            qubits (wider nodes are scheduled alone by the caller).
        priority_fn: Higher values win ties; defaults to uniform.

    Returns:
        The selected nodes (order follows the input sequence).
    """
    if not candidates:
        return []
    priority_fn = priority_fn or (lambda _node: 1.0)
    graph = nx.Graph()
    best_for_slot: dict[tuple, object] = {}
    for node in candidates:
        qubits = tuple(sorted(node.qubits))
        if len(qubits) == 1:
            slot = (qubits[0], f"dummy_{qubits[0]}")
        elif len(qubits) == 2:
            slot = qubits
        else:
            raise SchedulingError(
                f"matching only handles 1- and 2-qubit nodes, got {node}"
            )
        # Parallel candidates on the same endpoint pair: keep the best.
        current = best_for_slot.get(slot)
        if current is None or priority_fn(node) > priority_fn(current):
            best_for_slot[slot] = node
    for (vertex_a, vertex_b), node in best_for_slot.items():
        graph.add_edge(vertex_a, vertex_b, node=node, weight=priority_fn(node))
    matching = nx.max_weight_matching(graph, maxcardinality=True)
    chosen = {graph.edges[edge]["node"] for edge in matching}
    return [node for node in candidates if node in chosen]
