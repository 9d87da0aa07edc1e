"""Iterative monotonic instruction aggregation (paper Sec. 4.3).

Each round scores every legal action (pair merge) in the current GDG:

* **Monotonic filter** — an action must not lengthen the critical path
  even under the pessimistic assumption that the merged pulse takes as
  long as its two parts in sequence.  This is evaluated incrementally
  from the round's ASAP times and critical tails (one topological sort
  per round), so candidates cost O(neighbourhood) instead of a full
  re-schedule.
* **Reward** — the latency the optimal-control unit is expected to save,
  ``lat(a) + lat(b) - model_latency(merged)`` (setup amortization plus
  interaction folding).

Each round opens by folding pure series pairs in linear time.  The
best-rewarded monotonic actions then execute (greedily, skipping actions
that touch qubits already modified this round, so the incremental timing
data stays valid); a merge that would close a cycle is rolled back by
the GDG's own transactional check, which searches only from the merged
node, and skipped.  Merged instructions get their real latency from the
OCU, and rounds repeat until no profitable monotonic action remains —
the "iterate until the GDG converges" loop of the paper.

Most pairs a round scores were scored the round before, so the model's
estimate for a pair is kept for the whole run: it depends only on the
pair's two nodes, and nodes are immutable.  Scoring and the series
prepass read the same estimates, each with its own threshold.

Every per-node map here (the latency memo, the pair estimates,
est/finish/tails, positions, the alive set) is keyed by the node itself,
like the GDG's own maps: an entry holds its node alive, so a node merged
away can never lend its entry to an instruction created later.
"""

from __future__ import annotations

import dataclasses

from repro.aggregation.action_space import candidate_actions
from repro.aggregation.instruction import AggregatedInstruction
from repro.errors import SchedulingError

_EPSILON = 1e-6


@dataclasses.dataclass
class AggregationReport:
    """Statistics of one aggregation run."""

    merges: int
    rounds: int
    initial_makespan: float
    final_makespan: float

    @property
    def improvement(self) -> float:
        """Makespan reduction factor (>= 1 means no regression).

        ``inf`` when a positive makespan collapsed to zero; ``1.0`` only
        when both makespans are already zero (empty circuit).
        """
        if self.final_makespan <= 0:
            return float("inf") if self.initial_makespan > 0 else 1.0
        return self.initial_makespan / self.final_makespan


def aggregate(
    dag,
    ocu,
    width_limit: int = 10,
    max_rounds: int = 10_000,
    monotonic_only: bool = True,
) -> AggregationReport:
    """Run the aggregation loop on a GDG in place.

    Every round first folds pure series pairs (:func:`_series_prepass`;
    each round's merges expose new ones), then scores the remaining
    actions and executes the qubit-disjoint profitable ones.

    Args:
        dag: The (routed, physical) gate-dependence graph; mutated.
        ocu: Latency oracle (:class:`~repro.control.unit.OptimalControlUnit`).
        width_limit: Maximum qubits per aggregated instruction.
        max_rounds: Safety cap on aggregate/re-latency rounds.
        monotonic_only: Keep the paper's parallelism-protecting filter;
            False greedily merges by reward alone (the Sec. 4.3
            ablation — expect serialized circuits on parallel workloads).

    Returns:
        An :class:`AggregationReport`.
    """
    latencies: dict = {}

    def latency(node) -> float:
        value = latencies.get(node)
        if value is None:
            value = latencies[node] = ocu.latency(node)
        return value

    estimates: dict = {}

    def estimate(earlier, later) -> float:
        """Model latency of the pair merged, ``earlier`` first."""
        key = (earlier, later)
        value = estimates.get(key)
        if value is None:
            value = estimates[key] = ocu.model_latency(
                AggregatedInstruction.from_nodes(earlier, later, name="probe")
            )
        return value

    initial_makespan = dag.makespan(latency)
    merges = 0
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        merges += _series_prepass(dag, estimate, latency, width_limit)
        timing = _RoundTiming(dag, latency)
        scored = []
        for earlier, later in candidate_actions(dag, width_limit):
            if monotonic_only and not timing.is_monotonic(earlier, later):
                continue
            reward = latency(earlier) + latency(later) - estimate(earlier, later)
            if reward > _EPSILON:
                scored.append((reward, earlier, later))
        scored.sort(key=lambda item: item[0], reverse=True)

        executed = 0
        # A node merged this round has all its qubits touched, so this
        # check also skips every later action on a merged-away node, and
        # the adjacency candidate_actions found at round start still holds.
        touched_qubits: set[int] = set()
        for _reward, earlier, later in scored:
            qubits = set(earlier.qubits) | set(later.qubits)
            if touched_qubits & qubits:
                continue
            # A pair joined by a path through other nodes would need the
            # merged node both before and after that path: merge's cycle
            # check rolls such a merge back.
            merged = AggregatedInstruction.from_nodes(earlier, later)
            try:
                dag.merge(earlier, later, merged, validated=True)
            except SchedulingError:
                continue
            touched_qubits.update(qubits)
            executed += 1
            merges += 1
        if executed == 0:
            break
    return AggregationReport(
        merges=merges,
        rounds=rounds,
        initial_makespan=initial_makespan,
        final_makespan=dag.makespan(latency),
    )


def _series_prepass(dag, estimate, latency, width_limit: int) -> int:
    """Chain-merge pure series pairs in amortized linear time.

    When node ``B`` is ``A``'s only timing successor and ``A`` is ``B``'s
    only predecessor, merging them cannot lengthen any path even with the
    pessimistic summed latency, so the monotonic check is satisfied by
    construction.  Serial regions (the square-root benchmarks' Toffoli
    chains) collapse here in one pass instead of one aggregation round
    per gate.
    """
    merges = 0
    worklist = list(dag.nodes)
    alive = set(dag.nodes)
    # The outer _prev/_next dicts are stable across merges (relinking
    # swaps the per-qubit inner maps in place), so one fetch serves the
    # whole pass while staying live.
    prev_maps = dag._prev
    next_maps = dag._next
    while worklist:
        node = worklist.pop()
        if node not in alive:
            continue
        while True:
            follower = None
            branched = False
            for q in node.qubits:
                successor = next_maps[q].get(node)
                if successor is None:
                    continue
                if follower is None:
                    follower = successor
                elif successor is not follower:
                    branched = True
                    break
            if follower is None or branched:
                break
            # Sole-predecessor test: every chain into the follower must
            # come from ``node`` (the node->follower edge exists, so at
            # least one does).
            sole = True
            for q in follower.qubits:
                predecessor = prev_maps[q].get(follower)
                if predecessor is not None and predecessor is not node:
                    sole = False
                    break
            if not sole:
                break
            merged_width = len(set(node.qubits) | set(follower.qubits))
            if merged_width > width_limit:
                break
            if estimate(node, follower) >= (
                latency(node) + latency(follower) - _EPSILON
            ):
                break
            # A pure series pair cannot create a cycle (the follower has
            # no other predecessor to route a path around), so both the
            # structural and the acyclicity checks are skipped.
            merged = AggregatedInstruction.from_nodes(node, follower)
            try:
                dag.merge(
                    node, follower, merged, validated=True, check_cycles=False
                )
            except SchedulingError:
                break
            alive.discard(node)
            alive.discard(follower)
            alive.add(merged)
            merges += 1
            node = merged
    return merges


class _RoundTiming:
    """Per-round ASAP times and critical tails for monotonic checks.

    One topological sort serves the latency table, the forward pass
    (est, finish) and the backward pass (tails).
    """

    def __init__(self, dag, latency) -> None:
        self.dag = dag
        order = dag.topological_order()
        prev_maps = dag._prev
        next_maps = dag._next
        self.latencies = latencies = {}
        self.est = est = {}
        self.finish = finish = {}
        for node in order:
            start = 0.0
            for q in node.qubits:
                predecessor = prev_maps[q].get(node)
                if predecessor is not None:
                    predecessor_finish = finish[predecessor]
                    if predecessor_finish > start:
                        start = predecessor_finish
            value = latencies[node] = latency(node)
            est[node] = start
            finish[node] = start + value
        self.makespan = max(finish.values(), default=0.0)
        self.tails = tails = {}
        for node in reversed(order):
            best = 0.0
            for q in node.qubits:
                successor = next_maps[q].get(node)
                if successor is not None:
                    tail = tails[successor]
                    if tail > best:
                        best = tail
            tails[node] = latencies[node] + best
        # One qubit_sequence copy per qubit serves both the round-start
        # sequence snapshot and its position index.
        self.positions = {}
        self.sequences = {}
        for q in range(dag.num_qubits):
            sequence = dag.qubit_sequence(q)
            self.sequences[q] = sequence
            self.positions[q] = {node: index for index, node in enumerate(sequence)}

    def is_monotonic(self, earlier, later) -> bool:
        """Conservative check: merged critical path within the old one.

        Uses the pessimistic merged latency ``lat(a) + lat(b)``; paper
        Sec. 4.3 calls actions passing this test *monotonic* because the
        real optimized pulse can only be faster.

        Called only during scoring — before this round's first merge —
        so the chain links it walks are identical to the round-start
        snapshot the times were computed from.
        """
        finish = self.finish
        pessimistic = self.latencies[earlier] + self.latencies[later]
        start = self.est[earlier]
        for q in earlier.qubits:
            pos = self.positions[q]
            ib = pos.get(later)
            if ib is None:
                continue  # not a shared qubit
            ia = pos[earlier]
            low, high = (ia, ib) if ia < ib else (ib, ia)
            sequence = self.sequences[q]
            for index in range(low + 1, high):
                member_finish = finish[sequence[index]]
                if member_finish > start:
                    start = member_finish
        prev_maps = self.dag._prev
        for q in later.qubits:
            predecessor = prev_maps[q].get(later)
            if predecessor is not None and predecessor is not earlier:
                predecessor_finish = finish[predecessor]
                if predecessor_finish > start:
                    start = predecessor_finish
        merged_finish = start + pessimistic
        worst = merged_finish
        tails = self.tails
        next_maps = self.dag._next
        for node in (earlier, later):
            for q in node.qubits:
                successor = next_maps[q].get(node)
                if (
                    successor is None
                    or successor is earlier
                    or successor is later
                ):
                    continue
                candidate = merged_finish + tails[successor]
                if candidate > worst:
                    worst = candidate
        return worst <= self.makespan + _EPSILON
