"""Between-pass transition rules (REP133/REP134) and IR snapshots.

These rules compare a *snapshot* of the evolving IR taken before a pass
with the state after it, for passes that declare
``preserves_gates = True`` (rewrites allowed to reorder and regroup the
underlying gates but not change them).  This is where the PR 4 bug
class lives: the splice-merge reordered gates across a commutation-group
boundary, which no single-artifact invariant can see — only the
before/after pair shows the illegal move.

The ``"transition"`` kind's subject is a ``(before, after)`` snapshot
pair; ``options`` carries the ``checker``
(:class:`~repro.verification.commutation.CommutationChecker`) and the
``pass_name`` for messages.

Soundness over completeness: a reorder is accepted when the two gates'
*pre-pass owning nodes* commute as blocks (the paper's legality rule —
member gates of commuting blocks may interleave arbitrarily), when the
gates themselves commute, or when the whole register is narrow enough
that the flattened before/after unitaries can be compared exactly.  An
unjustified reorder on a register too wide for the unitary backstop
downgrades to WARNING rather than ERROR.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.core import Severity, rule
from repro.errors import SchedulingError
from repro.linalg.embed import embed_operator
from repro.linalg.predicates import allclose_up_to_global_phase

#: Widest register whose flattened unitary the backstop computes.
UNITARY_BACKSTOP_QUBIT_LIMIT = 10


def _flatten(node) -> list:
    """The plain gates under a node (a gate, or an aggregated block)."""
    gates = getattr(node, "gates", None)
    if gates is None:
        return [node]
    flat: list = []
    for member in gates:
        flat.extend(_flatten(member))
    return flat


@dataclasses.dataclass
class IRSnapshot:
    """The gate-level view of one side of a pass boundary.

    Attributes:
        domain: ``"logical"`` or ``"physical"`` — snapshots from
            different domains are never compared (placement legitimately
            renumbers every qubit).
        num_qubits: Register width of the domain.
        nodes: The node list at snapshot time (gates or blocks).
        gates: Flattened plain gates, global program order.
        owner: ``gate -> owning node`` at snapshot time.
        qubit_gates: Per-qubit flattened gate sequences.
    """

    domain: str
    num_qubits: int
    nodes: list
    gates: list
    owner: dict
    qubit_gates: dict[int, list]

    @classmethod
    def of_nodes(cls, domain: str, num_qubits: int, nodes: list) -> IRSnapshot:
        gates: list = []
        owner: dict = {}
        for node in nodes:
            for gate in _flatten(node):
                gates.append(gate)
                owner[gate] = node
        qubit_gates: dict[int, list] = {q: [] for q in range(num_qubits)}
        for gate in gates:
            for q in gate.qubits:
                if 0 <= q < num_qubits:
                    qubit_gates[q].append(gate)
        return cls(
            domain=domain,
            num_qubits=num_qubits,
            nodes=list(nodes),
            gates=gates,
            owner=owner,
            qubit_gates=qubit_gates,
        )

    def unitary(self) -> np.ndarray | None:
        if self.num_qubits > UNITARY_BACKSTOP_QUBIT_LIMIT:
            return None
        total = np.eye(2**self.num_qubits, dtype=complex)
        for gate in self.gates:
            total = (
                embed_operator(gate.matrix, gate.qubits, self.num_qubits)
                @ total
            )
        return total


def snapshot_context(context) -> IRSnapshot | None:
    """Snapshot the gate-bearing state of a compilation context.

    Prefers the physical DAG (after aggregation it is the only holder of
    the merged truth — ``physical_nodes`` goes stale), then the physical
    node list, then the logical node list.  Returns None before lowering.
    """
    if context.physical_dag is not None:
        # ``dag.nodes`` is not a valid linearization after splice-merges
        # (the per-qubit chains are the source of truth); snapshot a
        # topological order so gate order reflects actual execution
        # order.  A cyclic (corrupt) graph falls back to the raw list —
        # REP111 reports the cycle itself.
        dag = context.physical_dag
        try:
            nodes = dag.stable_topological_order()
        except SchedulingError:
            nodes = dag.nodes
        return IRSnapshot.of_nodes("physical", dag.num_qubits, nodes)
    if context.physical_nodes is not None:
        width = (
            context.topology.num_qubits
            if context.topology is not None
            else context.circuit.num_qubits
        )
        return IRSnapshot.of_nodes("physical", width, context.physical_nodes)
    if context.nodes is not None:
        return IRSnapshot.of_nodes(
            "logical", context.circuit.num_qubits, context.nodes
        )
    return None


def _comparable(subject) -> tuple[IRSnapshot, IRSnapshot] | None:
    before, after = subject
    if before is None or after is None:
        return None
    if before.domain != after.domain or before.num_qubits != after.num_qubits:
        return None
    return before, after


@rule(
    "REP133",
    "transition",
    Severity.ERROR,
    "gate-preserving passes reorder only across commuting blocks",
)
def _reorders_justified(rule_obj, subject, options):
    pair = _comparable(subject)
    if pair is None:
        return
    before, after = pair
    checker = options.get("checker")
    pass_name = options.get("pass_name", "pass")

    suspects: list[tuple[int, object, object]] = []
    for qubit in range(before.num_qubits):
        position = {g: i for i, g in enumerate(after.qubit_gates[qubit])}
        pre_seq = [g for g in before.qubit_gates[qubit] if g in position]
        for i, first in enumerate(pre_seq):
            for second in pre_seq[i + 1 :]:
                if position[first] <= position[second]:
                    continue
                # Flipped on this qubit.  Justified iff the *pre-pass
                # owning blocks* were distinct and commute (block-level
                # reorder), or the gates themselves commute.
                owner_a = before.owner[first]
                owner_b = before.owner[second]
                if (
                    owner_a is not owner_b
                    and checker is not None
                    and checker.commute(owner_a, owner_b)
                ):
                    continue
                if checker is not None and checker.commute(first, second):
                    continue
                suspects.append((qubit, first, second))

    if not suspects:
        return

    # Unitary backstop: a reorder no local rule can justify may still be
    # globally sound (e.g. conjugation patterns).  Only when the whole
    # program unitary changed is the transition reported as an ERROR.
    matrix_before = before.unitary()
    matrix_after = after.unitary() if matrix_before is not None else None
    if matrix_before is not None and matrix_after is not None:
        if allclose_up_to_global_phase(matrix_before, matrix_after):
            return
        severity = Severity.ERROR
        note = "and the program unitary changed"
    else:
        severity = Severity.WARNING
        note = (
            f"and the register is too wide "
            f"(> {UNITARY_BACKSTOP_QUBIT_LIMIT} qubits) to verify exactly"
        )
    for qubit, first, second in suspects[:8]:
        yield rule_obj.violation(
            f"{pass_name} moved {second!r} before {first!r} on qubit "
            f"{qubit}; neither the gates nor their pre-pass blocks "
            f"commute, {note}",
            location=f"qubit {qubit}",
            severity=severity,
        )


@rule(
    "REP134",
    "transition",
    Severity.ERROR,
    "gate-preserving passes keep the gate multiset",
)
def _gates_preserved(rule_obj, subject, options):
    pair = _comparable(subject)
    if pair is None:
        return
    before, after = pair
    pass_name = options.get("pass_name", "pass")
    gates_before = set(before.gates)
    gates_after = set(after.gates)
    dropped = [g for g in before.gates if g not in gates_after]
    invented = [g for g in after.gates if g not in gates_before]
    if dropped:
        yield rule_obj.violation(
            f"{pass_name} dropped {len(dropped)} gate(s): "
            f"{', '.join(repr(g) for g in dropped[:4])}"
            f"{', ...' if len(dropped) > 4 else ''}",
        )
    if invented:
        yield rule_obj.violation(
            f"{pass_name} introduced {len(invented)} gate(s): "
            f"{', '.join(repr(g) for g in invented[:4])}"
            f"{', ...' if len(invented) > 4 else ''}",
        )
    if len(after.gates) != len(gates_after):
        yield rule_obj.violation(
            f"{pass_name} duplicated gate objects in the node list",
        )
