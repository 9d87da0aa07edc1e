"""The gate-dependence graph (GDG) with commutation groups (paper Sec. 3.3).

Representation
--------------
The GDG stores, for every qubit, the *ordered* list of nodes acting on it
(the execution order chosen so far) plus that list's partition into
*commutation groups*: maximal runs of consecutive nodes that pairwise
commute.  Nodes in the same group on every shared qubit can be reordered
freely; nodes in consecutive groups can be made adjacent (the parent can
always be scheduled last in its group and the child first in its group,
because group members mutually commute).

Timing edges are the per-qubit chains: consecutive nodes on a qubit cannot
overlap in time even when they commute, because they share control
hardware.  The makespan of the current order is therefore the longest path
through the chain DAG with node weights given by a latency function —
schedulers improve the makespan by *reordering* within the freedom the
commutation groups describe, and instruction aggregation *merges* adjacent
nodes.

Implementation notes: adjacency is kept as per-qubit prev/next links and
updated locally on merges; commutation groups are recomputed lazily per
qubit (the aggregator executes hundreds of merges between group queries).
Nodes are any objects exposing ``qubits``, ``is_diagonal`` and
``signature`` and hashable by identity (:class:`~repro.gates.gate.Gate`
and aggregated instructions both qualify).  Every per-node map — chain
links, group lookups, in-degrees, ASAP times — is keyed by the node
itself, so an entry holds its node alive and can never be handed to a
node created later.  Being its own key, a node object can sit at only
one position in the graph (lowering gives a gate instance that a
circuit repeats one node per occurrence).
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable, Sequence

from repro.errors import CircuitError, SchedulingError

CommuteFn = Callable[[object, object], bool]


class GateDependenceGraph:
    """Commutation-aware dependence structure over an ordered node list."""

    def __init__(
        self,
        num_qubits: int,
        nodes: Iterable,
        commute_fn: CommuteFn,
    ) -> None:
        self.num_qubits = int(num_qubits)
        self.commute_fn = commute_fn
        self.nodes: list = list(nodes)
        for node in self.nodes:
            if any(q < 0 or q >= self.num_qubits for q in node.qubits):
                raise CircuitError(f"{node} exceeds register width {num_qubits}")
        self._qubit_order: dict[int, list] = {q: [] for q in range(self.num_qubits)}
        for node in self.nodes:
            for q in node.qubits:
                self._qubit_order[q].append(node)
        self._prev: dict[int, dict] = {}
        self._next: dict[int, dict] = {}
        for q in range(self.num_qubits):
            self._relink(q)
        self._groups: dict[int, list[list]] = {}
        self._group_of: dict[int, dict] = {}
        self._groups_dirty: set[int] = set(range(self.num_qubits))

    @classmethod
    def from_circuit(cls, circuit, checker) -> GateDependenceGraph:
        """Build the GDG of a circuit using a commutation checker."""
        return cls(circuit.num_qubits, circuit.gates, checker.commute)

    # ------------------------------------------------------------------
    # Structure queries

    def qubit_sequence(self, qubit: int) -> list:
        """Nodes acting on ``qubit`` in current execution order."""
        return list(self._qubit_order[qubit])

    def commutation_groups(self, qubit: int) -> list[list]:
        """The qubit's ordered partition into commutation groups."""
        return [list(group) for group in self._groups_for(qubit)]

    def group_view(self, qubit: int) -> list[list]:
        """The live (no-copy) commutation groups on ``qubit``.

        The hot-path form of :meth:`commutation_groups`: callers must
        not mutate the lists and must re-fetch after any merge/reorder
        (group recomputation replaces them)."""
        return self._groups_for(qubit)

    def group_index(self, node, qubit: int) -> int:
        """Index of the commutation group containing ``node`` on ``qubit``."""
        self._groups_for(qubit)
        try:
            return self._group_of[qubit][node]
        except KeyError:
            raise SchedulingError(
                f"{node} does not act on qubit {qubit}"
            ) from None

    def same_group(self, a, b, qubit: int) -> bool:
        """True when both nodes share a commutation group on ``qubit``."""
        return self.group_index(a, qubit) == self.group_index(b, qubit)

    def commute_nodes(self, a, b) -> bool:
        """Paper rule: two nodes commute iff they are in the same
        commutation group on every qubit they share."""
        shared = set(a.qubits) & set(b.qubits)
        if not shared:
            return True
        return all(self.same_group(a, b, q) for q in shared)

    def predecessors(self, node) -> list:
        """Immediate timing predecessors (previous node on each qubit)."""
        result: list = []
        for q in node.qubits:
            predecessor = self._prev[q].get(node)
            if predecessor is not None and predecessor not in result:
                result.append(predecessor)
        return result

    def successors(self, node) -> list:
        """Immediate timing successors (next node on each qubit)."""
        result: list = []
        for q in node.qubits:
            successor = self._next[q].get(node)
            if successor is not None and successor not in result:
                result.append(successor)
        return result

    def source_nodes(self) -> list:
        """Nodes with no timing predecessor."""
        prev_maps = self._prev
        return [
            node
            for node in self.nodes
            if not any(node in prev_maps[q] for q in node.qubits)
        ]

    def group_lookup(self, qubit: int) -> dict:
        """Read-only map node -> commutation-group index on
        ``qubit`` — the no-copy bulk form of :meth:`group_index`.  Stale
        after the next merge/reorder; re-fetch per round."""
        self._groups_for(qubit)
        return self._group_of[qubit]

    def __len__(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------------
    # Timing

    def _chain_in_degrees(self) -> dict:
        """Per-node incoming chain-edge counts.

        Every dependence edge is a per-qubit chain edge, so in-degrees
        are edge counts: a predecessor shared across several qubits is
        counted once per chain and decremented once per chain — the node
        still unblocks exactly when its last predecessor is emitted, and
        no per-node predecessor list is ever allocated.
        """
        prev_maps = self._prev
        in_degree: dict = {}
        for node in self.nodes:
            count = 0
            for q in node.qubits:
                if node in prev_maps[q]:
                    count += 1
            in_degree[node] = count
        return in_degree

    def topological_order(self) -> list:
        """Kahn topological sort; raises SchedulingError on a cycle."""
        next_maps = self._next
        in_degree = self._chain_in_degrees()
        ready = [node for node in self.nodes if in_degree[node] == 0]
        order: list = []
        while ready:
            node = ready.pop()
            order.append(node)
            for q in node.qubits:
                successor = next_maps[q].get(node)
                if successor is not None:
                    in_degree[successor] -= 1
                    if in_degree[successor] == 0:
                        ready.append(successor)
        if len(order) != len(self.nodes):
            raise SchedulingError("dependence graph contains a cycle")
        return order

    def stable_topological_order(self) -> list:
        """Topological order that follows ``self.nodes`` order where legal.

        Kahn's algorithm with a min-heap keyed by each node's position in
        the current node list, so the result is deterministic and stays as
        close to program order as the dependencies allow.
        """
        nodes = self.nodes
        position = {node: index for index, node in enumerate(nodes)}
        next_maps = self._next
        in_degree = self._chain_in_degrees()
        # Positions are unique, so the heap holds just them.
        heap = [index for index, node in enumerate(nodes) if in_degree[node] == 0]
        order: list = []
        while heap:
            node = nodes[heapq.heappop(heap)]
            order.append(node)
            for q in node.qubits:
                successor = next_maps[q].get(node)
                if successor is not None:
                    in_degree[successor] -= 1
                    if in_degree[successor] == 0:
                        heapq.heappush(heap, position[successor])
        if len(order) != len(self.nodes):
            raise SchedulingError("dependence graph contains a cycle")
        return order

    def asap_times(self, latency_fn: Callable[[object], float]) -> dict:
        """Earliest start time of every node (keyed by node)."""
        starts: dict = {}
        finishes: dict = {}
        prev_maps = self._prev
        for node in self.topological_order():
            start = 0.0
            for q in node.qubits:
                predecessor = prev_maps[q].get(node)
                if predecessor is not None:
                    finish = finishes[predecessor]
                    if finish > start:
                        start = finish
            starts[node] = start
            finishes[node] = start + latency_fn(node)
        return starts

    def makespan(self, latency_fn: Callable[[object], float]) -> float:
        """Total latency of the current execution order."""
        if not self.nodes:
            return 0.0
        starts = self.asap_times(latency_fn)
        return max(starts[node] + latency_fn(node) for node in self.nodes)

    def critical_path(self, latency_fn: Callable[[object], float]) -> list:
        """One longest path (as a node list) through the chain DAG."""
        if not self.nodes:
            return []
        starts = self.asap_times(latency_fn)
        finish = {node: starts[node] + latency_fn(node) for node in self.nodes}
        node = max(self.nodes, key=finish.__getitem__)
        path = [node]
        while True:
            candidates = [
                p
                for p in self.predecessors(node)
                if abs(finish[p] - starts[node]) < 1e-9
            ]
            if not candidates:
                break
            node = candidates[0]
            path.append(node)
        path.reverse()
        return path

    # ------------------------------------------------------------------
    # Reordering (used by CLS)

    def reorder(self, new_order: Sequence) -> None:
        """Replace the execution order with ``new_order``.

        The new order must contain exactly the same node instances and,
        on every qubit, must not move a node across a commutation-group
        boundary (group indices must be non-decreasing along each qubit's
        new sequence).
        """
        if len(new_order) != len(self.nodes) or set(new_order) != set(self.nodes):
            raise SchedulingError("reorder must permute the existing nodes")
        new_qubit_order: dict[int, list] = {
            q: [] for q in range(self.num_qubits)
        }
        for node in new_order:
            for q in node.qubits:
                new_qubit_order[q].append(node)
        for q in range(self.num_qubits):
            indices = [self.group_index(node, q) for node in new_qubit_order[q]]
            if any(b < a for a, b in zip(indices, indices[1:])):
                raise SchedulingError(
                    f"reorder moves a node across a commutation group on qubit {q}"
                )
        self.nodes = list(new_order)
        self._qubit_order = new_qubit_order
        for q in range(self.num_qubits):
            self._relink(q)
        self._groups_dirty.update(range(self.num_qubits))

    # ------------------------------------------------------------------
    # Merging (used by instruction aggregation)

    def can_merge(self, a, b) -> bool:
        """Paper Sec. 4.1 action-space test (cheap structural part).

        True when the nodes overlap and, on every shared qubit, sit in
        the same or in consecutive commutation groups (so they can be
        made adjacent by a legal reorder).  The full test additionally
        requires acyclicity after the merge, which :meth:`merge` checks
        transactionally.
        """
        shared = set(a.qubits) & set(b.qubits)
        if not shared:
            return False
        for q in shared:
            if abs(self.group_index(a, q) - self.group_index(b, q)) > 1:
                return False
        return True

    def merge(
        self,
        a,
        b,
        merged,
        validated: bool = False,
        check_cycles: bool = True,
    ) -> None:
        """Replace nodes ``a`` and ``b`` with ``merged``.

        Args:
            validated: Skip the structural :meth:`can_merge` test (the
                caller already established it).
            check_cycles: Run the transactional acyclicity check.  Only
                the aggregator's series prepass, whose pure series pairs
                cannot close a cycle, passes False.

        The graph is acyclic before the merge, and every edge the splice
        adds either touches ``merged`` or shortcuts a path that already
        existed, so any cycle it closes passes through ``merged``: the
        check searches successor links from ``merged`` alone instead of
        sorting the whole graph.

        Raises SchedulingError (and leaves the graph unchanged) when the
        merge is structurally invalid or would create a cycle.
        """
        if not validated and not self.can_merge(a, b):
            raise SchedulingError(f"cannot merge {a} and {b}: not adjacent-able")
        expected = set(a.qubits) | set(b.qubits)
        if set(merged.qubits) != expected:
            raise SchedulingError(
                f"merged node must act on {sorted(expected)}, "
                f"got {sorted(merged.qubits)}"
            )
        saved_orders = {q: list(self._qubit_order[q]) for q in expected}
        saved_nodes = list(self.nodes)
        try:
            self._splice_merge(a, b, merged)
            if check_cycles and self._reaches_itself(merged):
                raise SchedulingError("dependence graph contains a cycle")
        except SchedulingError:
            self._qubit_order.update(saved_orders)
            self.nodes = saved_nodes
            for q in expected:
                self._relink(q)
                self._groups_dirty.add(q)
            raise

    def _splice_merge(self, a, b, merged) -> None:
        shared = set(a.qubits) & set(b.qubits)
        probe = next(iter(shared))
        first, second = (a, b)
        if self._position(probe, a) > self._position(probe, b):
            first, second = (b, a)
        # The merged node sits at the *commutation-group boundary* on
        # every shared qubit: in-between members of ``first``'s group
        # commute with ``first`` and slide before the merged node, but
        # members of ``second``'s group only commute with ``second`` —
        # sliding them before the merged node (which contains ``first``'s
        # gates) would silently reorder non-commuting operations, so
        # they must slide after it.  Placement is decided for all shared
        # qubits before any sequence mutates (group indices are
        # positional and go stale mid-splice).
        placements: dict[int, list] = {}
        for q in shared:
            sequence = self._qubit_order[q]
            first_at = self._position(q, first)
            second_at = self._position(q, second)
            between = sequence[first_at + 1 : second_at]
            boundary = self.group_index(second, q)
            if between and self.group_index(first, q) != boundary:
                before = [
                    m for m in between if self.group_index(m, q) < boundary
                ]
                after = [
                    m for m in between if self.group_index(m, q) >= boundary
                ]
            else:
                # Same group: everything in between commutes with both
                # nodes, so the historical placement (all before) stands.
                before, after = list(between), []
            placements[q] = (
                sequence[:first_at]
                + before
                + [merged]
                + after
                + sequence[second_at + 1 :]
            )
        for q in set(a.qubits) | set(b.qubits):
            if q in shared:
                self._qubit_order[q] = placements[q]
            else:
                sequence = self._qubit_order[q]
                owner = a if q in a.qubits else b
                index = next(
                    i for i, node in enumerate(sequence) if node is owner
                )
                sequence[index] = merged
            self._relink(q)
            self._groups_dirty.add(q)
        new_nodes = []
        for node in self.nodes:
            if node is first:
                continue
            if node is second:
                new_nodes.append(merged)
            else:
                new_nodes.append(node)
        self.nodes = new_nodes

    # ------------------------------------------------------------------
    # Internals

    def _reaches_itself(self, node) -> bool:
        """True when a chain path leads from ``node`` back to it."""
        next_maps = self._next
        stack = [node]
        visited = {node}
        while stack:
            current = stack.pop()
            for q in current.qubits:
                successor = next_maps[q].get(current)
                if successor is node:
                    return True
                if successor is not None and successor not in visited:
                    visited.add(successor)
                    stack.append(successor)
        return False

    def _position(self, qubit: int, node) -> int:
        for index, candidate in enumerate(self._qubit_order[qubit]):
            if candidate is node:
                return index
        raise SchedulingError(f"{node} does not act on qubit {qubit}")

    def _relink(self, qubit: int) -> None:
        """Rebuild the prev/next chain links of one qubit."""
        sequence = self._qubit_order[qubit]
        prev_map: dict = {}
        next_map: dict = {}
        previous = None
        for node in sequence:
            if previous is not None:
                prev_map[node] = previous
                next_map[previous] = node
            previous = node
        self._prev[qubit] = prev_map
        self._next[qubit] = next_map

    def _groups_for(self, qubit: int) -> list[list]:
        if qubit in self._groups_dirty or qubit not in self._groups:
            groups = self._compute_groups(self._qubit_order[qubit])
            self._groups[qubit] = groups
            lookup: dict = {}
            for index, group in enumerate(groups):
                for member in group:
                    lookup[member] = index
            self._group_of[qubit] = lookup
            self._groups_dirty.discard(qubit)
        return self._groups[qubit]

    def _compute_groups(self, sequence: list) -> list[list]:
        groups: list[list] = []
        for node in sequence:
            if groups and all(
                self.commute_fn(node, member) for member in groups[-1]
            ):
                groups[-1].append(node)
            else:
                groups.append([node])
        return groups
