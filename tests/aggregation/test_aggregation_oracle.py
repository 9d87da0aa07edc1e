"""Parity of the aggregation loop with a frozen copy of its earlier form.

The live loop keeps each pair's model estimate for the whole run, sorts
the graph once per round, enumerates candidates without per-round
position tables, checks a merge for cycles from the merged node only and
reads commutation verdicts before building matrices.  None of that may
change a decision: the frozen copy below (the loop before those cuts,
with the GDG merge's full-sort cycle check) must produce the same
report and the same node sequence, member gate for member gate.
"""

import itertools

import pytest

from repro.aggregation.action_space import candidate_actions
from repro.aggregation.aggregator import AggregationReport, aggregate
from repro.aggregation.diagonal import detect_diagonal_blocks
from repro.aggregation.instruction import AggregatedInstruction
from repro.benchmarks.grover import grover_sqrt_circuit
from repro.benchmarks.uccsd import uccsd_ansatz_circuit
from repro.circuit.commutation import CommutationChecker
from repro.circuit.dag import GateDependenceGraph
from repro.control.unit import OptimalControlUnit, gates_of
from repro.errors import SchedulingError
from repro.gates.decompositions import lower_to_standard_set
from repro.testing.generators import CIRCUIT_FAMILIES, random_circuit

_EPSILON = 1e-6


# ----------------------------------------------------------------------
# Frozen copy of the aggregation loop before the per-round cuts


def _frozen_merge(dag, a, b, merged, check_cycles=True):
    """``GateDependenceGraph.merge(validated=True)`` with its full-sort
    cycle check: splice, run a whole Kahn sort, roll back on a cycle."""
    expected = set(a.qubits) | set(b.qubits)
    saved_orders = {q: list(dag._qubit_order[q]) for q in expected}
    saved_nodes = list(dag.nodes)
    try:
        dag._splice_merge(a, b, merged)
        if check_cycles:
            dag.topological_order()
    except SchedulingError:
        dag._qubit_order.update(saved_orders)
        dag.nodes = saved_nodes
        for q in expected:
            dag._relink(q)
            dag._groups_dirty.add(q)
        raise


def _frozen_aggregate(
    dag, ocu, width_limit=10, max_rounds=10_000, monotonic_only=True
):
    latencies = {}

    def latency(node):
        value = latencies.get(node)
        if value is None:
            value = latencies[node] = ocu.latency(node)
        return value

    initial_makespan = dag.makespan(latency)
    merges = 0
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        merges += _frozen_series_prepass(dag, ocu, latency, width_limit)
        timing = _FrozenRoundTiming(dag, latency)
        scored = []
        for earlier, later in _frozen_candidate_actions(dag, width_limit):
            if monotonic_only and not timing.is_monotonic(earlier, later):
                continue
            merged_estimate = ocu.model_latency(
                AggregatedInstruction.from_nodes(earlier, later, name="probe")
            )
            reward = latency(earlier) + latency(later) - merged_estimate
            if reward > _EPSILON:
                scored.append((reward, earlier, later))
        scored.sort(key=lambda item: item[0], reverse=True)

        executed = 0
        touched_qubits = set()
        for _reward, earlier, later in scored:
            qubits = set(earlier.qubits) | set(later.qubits)
            if touched_qubits & qubits:
                continue
            merged = AggregatedInstruction.from_nodes(earlier, later)
            try:
                _frozen_merge(dag, earlier, later, merged)
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


def _frozen_series_prepass(dag, ocu, latency, width_limit):
    merges = 0
    worklist = list(dag.nodes)
    alive = set(dag.nodes)
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
            probe = AggregatedInstruction.from_nodes(node, follower, name="probe")
            estimate = ocu.model_latency(probe)
            if estimate >= latency(node) + latency(follower) - _EPSILON:
                break
            merged = AggregatedInstruction.from_nodes(node, follower)
            try:
                _frozen_merge(dag, node, follower, merged, check_cycles=False)
            except SchedulingError:
                break
            alive.discard(node)
            alive.discard(follower)
            alive.add(merged)
            merges += 1
            node = merged
    return merges


class _FrozenRoundTiming:
    def __init__(self, dag, latency):
        self.dag = dag
        self.latency = latency
        self.est = dag.asap_times(latency)
        self.finish = {node: self.est[node] + latency(node) for node in dag.nodes}
        self.makespan = max(self.finish.values(), default=0.0)
        self.tails = self._compute_tails()
        self.positions = {}
        self.sequences = {}
        for q in range(dag.num_qubits):
            sequence = dag.qubit_sequence(q)
            self.sequences[q] = sequence
            self.positions[q] = {node: index for index, node in enumerate(sequence)}

    def _compute_tails(self):
        tails = {}
        next_maps = self.dag._next
        for node in reversed(self.dag.topological_order()):
            best = 0.0
            for q in node.qubits:
                successor = next_maps[q].get(node)
                if successor is not None:
                    tail = tails[successor]
                    if tail > best:
                        best = tail
            tails[node] = self.latency(node) + best
        return tails

    def is_monotonic(self, earlier, later):
        finish = self.finish
        pessimistic = self.latency(earlier) + self.latency(later)
        start = self.est[earlier]
        for q in earlier.qubits:
            pos = self.positions[q]
            ib = pos.get(later)
            if ib is None:
                continue
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


def _frozen_candidate_actions(dag, width_limit):
    lookups = [dag.group_lookup(q) for q in range(dag.num_qubits)]
    positions = [
        {node: index for index, node in enumerate(dag.qubit_sequence(q))}
        for q in range(dag.num_qubits)
    ]
    seen = set()
    actions = []
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
                pos = positions[next(iter(shared))]
                if pos[a] < pos[b]:
                    actions.append((a, b))
                else:
                    actions.append((b, a))
    return actions


# ----------------------------------------------------------------------
# Inputs


def _random_inputs():
    """30 seeded ``(circuit, detect diagonal blocks?)`` inputs, ten per
    family, over 4-6 qubits."""
    return [
        (random_circuit(4 + index % 3, 16, 7000 + index, family), index % 2 == 1)
        for family in CIRCUIT_FAMILIES
        for index in range(10)
    ]


def _benchmark_inputs():
    return {
        "sqrt-9": (grover_sqrt_circuit(2, name="sqrt-9"), False),
        "uccsd-4": (uccsd_ansatz_circuit(4, seed=7, name="uccsd-4"), True),
    }


def _nodes_of(circuit, detect):
    lowered = lower_to_standard_set(circuit.gates)
    return detect_diagonal_blocks(lowered) if detect else lowered


def _dag(num_qubits, nodes):
    return GateDependenceGraph(num_qubits, nodes, CommutationChecker().commute)


_PRICE = {1: 10.0, 2: 25.0, 3: 40.0}


class _TallyOcu:
    """A cheap latency oracle priced from a node's contents alone.

    A merged block costs 0.8x its gates' prices plus a width charge
    that grows quadratically, so narrow merges pay and wide ones may
    not; whole-number prices make reward ties common, and the
    candidate order breaks them.  The analytic model spends most of a
    run evaluating distinct probes, so the tier-1 sweep uses this one
    and the slow tier reruns every input against the model.
    """

    def latency(self, node):
        if isinstance(node, AggregatedInstruction):
            return self.model_latency(node)
        width = len(node.qubits)
        return _PRICE[width] + 5.0 * width + 3.0 * width**2

    def model_latency(self, node):
        width = len(node.qubits)
        price = sum(_PRICE[len(gate.qubits)] for gate in gates_of(node))
        return 0.8 * price + 5.0 * width + 3.0 * width**2


@pytest.fixture(scope="module")
def ocu():
    return OptimalControlUnit(backend="model")


def _assert_same_run(circuit, detect, ocu, **settings):
    nodes = _nodes_of(circuit, detect)
    frozen_dag = _dag(circuit.num_qubits, nodes)
    live_dag = _dag(circuit.num_qubits, nodes)
    expected = _frozen_aggregate(frozen_dag, ocu, **settings)
    report = aggregate(live_dag, ocu, **settings)
    assert report == expected
    assert len(live_dag.nodes) == len(frozen_dag.nodes)
    for live, frozen in zip(live_dag.nodes, frozen_dag.nodes):
        live_gates, frozen_gates = gates_of(live), gates_of(frozen)
        assert len(live_gates) == len(frozen_gates)
        assert all(x is y for x, y in zip(live_gates, frozen_gates))
    return report


_SETTINGS = [
    {"width_limit": width, "monotonic_only": monotonic}
    for width in (3, 10)
    for monotonic in (True, False)
]


def _settings_id(settings):
    mode = "monotonic" if settings["monotonic_only"] else "greedy"
    return f"w{settings['width_limit']}-{mode}"


class TestLoopParity:
    @pytest.mark.parametrize("settings", _SETTINGS, ids=_settings_id)
    def test_random_circuits(self, settings):
        merges = 0
        for circuit, detect in _random_inputs():
            report = _assert_same_run(circuit, detect, _TallyOcu(), **settings)
            merges += report.merges
        assert merges > 0

    @pytest.mark.parametrize("settings", _SETTINGS, ids=_settings_id)
    @pytest.mark.parametrize("name", ["sqrt-9", "uccsd-4"])
    def test_benchmark_circuits(self, settings, name):
        """The first 12 rounds: sqrt-9 runs 130-230 rounds in all, and
        the slow tier runs both circuits to convergence."""
        circuit, detect = _benchmark_inputs()[name]
        report = _assert_same_run(
            circuit, detect, _TallyOcu(), max_rounds=12, **settings
        )
        assert report.merges > 0

    def test_uccsd_under_the_model_to_convergence(self, ocu):
        circuit, detect = _benchmark_inputs()["uccsd-4"]
        assert _assert_same_run(circuit, detect, ocu).merges > 0


@pytest.mark.slow
class TestLoopParityUnderTheModel:
    @pytest.mark.parametrize("settings", _SETTINGS, ids=_settings_id)
    def test_every_input_to_convergence(self, ocu, settings):
        inputs = list(_benchmark_inputs().values()) + _random_inputs()
        for circuit, detect in inputs:
            _assert_same_run(circuit, detect, ocu, **settings)


# ----------------------------------------------------------------------
# Enumeration exactness


def _graph_states(ocu):
    """Random GDGs before aggregation and part-way through it."""
    for circuit, detect in _random_inputs():
        for rounds in (0, 2):
            dag = _dag(circuit.num_qubits, _nodes_of(circuit, detect))
            if rounds:
                aggregate(dag, ocu, max_rounds=rounds)
            yield dag


class TestCandidateActions:
    @pytest.mark.parametrize("width_limit", [3, 10])
    def test_matches_frozen_enumeration(self, ocu, width_limit):
        total = 0
        for dag in _graph_states(ocu):
            actions = candidate_actions(dag, width_limit)
            expected = _frozen_candidate_actions(dag, width_limit)
            assert len(actions) == len(expected)
            for (a, b), (x, y) in zip(actions, expected):
                assert a is x and b is y
            pairs = {frozenset(pair) for pair in actions}
            assert len(pairs) == len(actions), "a pair repeats"
            for earlier, later in actions:
                for q in set(earlier.qubits) & set(later.qubits):
                    sequence = dag.qubit_sequence(q)
                    assert sequence.index(earlier) < sequence.index(later)
            total += len(actions)
        assert total > 0
