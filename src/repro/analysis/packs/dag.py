"""Gate-dependence-graph invariants (REP11x).

The ``"dag"`` kind runs over a
:class:`~repro.circuit.dag.GateDependenceGraph`.  These rules inspect
the GDG's internal representation (per-qubit order lists, cached
commutation groups) on purpose: the verifier's job is exactly to catch
a pass that corrupted that representation, so going through the public
accessors — which recompute lazily — would hide the corruption.
"""

from __future__ import annotations

from repro.analysis.core import Severity, rule


@rule("REP111", "dag", Severity.ERROR, "dependence graph acyclic")
def _acyclic(rule_obj, dag, options):
    # Kahn's algorithm over the per-qubit chain edges.  A well-formed
    # GDG is trivially acyclic (every qubit chain orders nodes the same
    # way the global list does); a cycle means two qubit chains order a
    # pair of nodes inconsistently.
    indegree: dict = {node: 0 for node in dag.nodes}
    successors: dict = {node: [] for node in dag.nodes}
    for qubit in range(dag.num_qubits):
        chain = dag._qubit_order[qubit]
        for first, second in zip(chain, chain[1:]):
            successors[first].append(second)
            indegree[second] += 1
    ready = [node for node in dag.nodes if indegree[node] == 0]
    visited = 0
    while ready:
        node = ready.pop()
        visited += 1
        for successor in successors[node]:
            indegree[successor] -= 1
            if indegree[successor] == 0:
                ready.append(successor)
    if visited != len(dag.nodes):
        stuck = [node for node, d in indegree.items() if d > 0]
        yield rule_obj.violation(
            f"dependence edges form a cycle through {len(stuck)} node(s): "
            f"{', '.join(repr(node) for node in stuck[:4])}"
            f"{', ...' if len(stuck) > 4 else ''}",
        )


@rule(
    "REP112",
    "dag",
    Severity.ERROR,
    "cached commutation groups consistent with the commutation table",
)
def _groups_consistent(rule_obj, dag, options):
    # Only qubits with a *trusted* cache are checkable: a dirty qubit
    # recomputes from commute_fn on access, which is tautologically
    # consistent.  A pass that pokes ``_groups`` without marking the
    # qubit dirty is exactly the corruption this rule exists to catch.
    for qubit, groups in dag._groups.items():
        if qubit in dag._groups_dirty:
            continue
        flattened = [node for group in groups for node in group]
        if flattened != dag._qubit_order[qubit]:
            yield rule_obj.violation(
                f"cached groups on qubit {qubit} do not partition the "
                f"qubit's node order",
                location=f"qubit {qubit}",
            )
            continue
        for index, group in enumerate(groups):
            for position, node in enumerate(group):
                for other in group[position + 1 :]:
                    if not dag.commute_fn(node, other):
                        yield rule_obj.violation(
                            f"group {index} on qubit {qubit} holds "
                            f"non-commuting nodes {node!r} and {other!r}",
                            location=f"qubit {qubit}",
                        )
        mapping = dag._group_of.get(qubit, {})
        for index, group in enumerate(groups):
            for node in group:
                recorded = mapping.get(node)
                if recorded != index:
                    yield rule_obj.violation(
                        f"{node!r} sits in group {index} on qubit {qubit} "
                        f"but the group index map says {recorded}",
                        location=f"qubit {qubit}",
                    )


@rule(
    "REP113",
    "dag",
    Severity.ERROR,
    "per-qubit order lists consistent with the node list and chain links",
)
def _order_consistent(rule_obj, dag, options):
    # Membership, not order: after splice-merges the global ``nodes``
    # list is only a bag of the live nodes (the per-qubit chains are the
    # source of truth for order, and ``topological_order()`` the valid
    # linearization), so each chain must hold exactly the global nodes
    # touching its qubit — once each — without prescribing their
    # position in the global list.
    nodes = set(dag.nodes)
    for qubit in range(dag.num_qubits):
        chain = dag._qubit_order[qubit]
        if len(chain) != len(set(chain)):
            yield rule_obj.violation(
                f"qubit {qubit} order list repeats a node",
                location=f"qubit {qubit}",
            )
        expected = {node for node in dag.nodes if qubit in node.qubits}
        missing = expected.difference(chain)
        if missing:
            yield rule_obj.violation(
                f"qubit {qubit} order list is missing {len(missing)} "
                f"node(s) that act on it",
                location=f"qubit {qubit}",
            )
        for node in chain:
            if node not in nodes:
                yield rule_obj.violation(
                    f"qubit {qubit} order list holds {node!r}, which is "
                    f"not in the node list",
                    location=f"qubit {qubit}",
                )
        for first, second in zip(chain, chain[1:]):
            if dag._next[qubit].get(first) is not second or (
                dag._prev[qubit].get(second) is not first
            ):
                yield rule_obj.violation(
                    f"chain links on qubit {qubit} disagree with the order "
                    f"list between {first!r} and {second!r}",
                    location=f"qubit {qubit}",
                )
