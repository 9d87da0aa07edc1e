"""Schedule invariants (REP14x).

The ``"schedule"`` kind runs over a
:class:`~repro.scheduling.schedule.Schedule`.  ``options["dag"]``, when
present, supplies the dependence structure for REP142 (standalone lint
of a bare schedule artifact has no DAG, so that rule reports nothing).
"""

from __future__ import annotations

from collections import Counter

from repro.analysis.core import Severity, rule
from repro.ir.timed import DEPENDENCE_EPSILON_NS


@rule("REP141", "schedule", Severity.ERROR, "no same-qubit overlap")
def _no_overlap(rule_obj, schedule, options):
    for qubit in range(schedule.num_qubits):
        timeline = schedule.qubit_timeline(qubit)
        for first, second in zip(timeline, timeline[1:]):
            if first.overlaps(second):
                yield rule_obj.violation(
                    f"{first.node!r} [{first.start}, {first.end}) overlaps "
                    f"{second.node!r} [{second.start}, {second.end}) on "
                    f"qubit {qubit}",
                    location=f"qubit {qubit}",
                )


@rule("REP142", "schedule", Severity.ERROR, "dependence edges respected")
def _dependences_respected(rule_obj, schedule, options):
    dag = options.get("dag")
    if dag is None:
        return
    finish = {op.node: op.end for op in schedule.operations}
    start = {op.node: op.start for op in schedule.operations}
    dag_nodes = set(dag.nodes)
    commute = getattr(dag, "commute_fn", None)
    for operation in schedule.operations:
        if operation.node not in dag_nodes:
            continue  # node outside the DAG: nothing to order against
        for predecessor in dag.predecessors(operation.node):
            if predecessor not in finish:
                yield rule_obj.violation(
                    f"{operation.node!r} is scheduled but its predecessor "
                    f"{predecessor!r} is not",
                    location=f"node_id {operation.node_id}",
                )
            elif finish[predecessor] > (
                start[operation.node] + DEPENDENCE_EPSILON_NS
            ):
                # CLS may flip a commuting pair without touching the
                # DAG's chains: the chain edge is then ordering freedom,
                # not a dependence.  (Same-qubit *overlap* would still
                # be illegal — REP141 covers that.)
                if commute is not None and commute(
                    predecessor, operation.node
                ):
                    continue
                yield rule_obj.violation(
                    f"{operation.node!r} starts at {start[operation.node]} "
                    f"before predecessor {predecessor!r} finishes at "
                    f"{finish[predecessor]}",
                    location=f"node_id {operation.node_id}",
                )


@rule("REP143", "schedule", Severity.ERROR, "node_ids unique and stable")
def _node_ids_stable(rule_obj, schedule, options):
    ids = [op.node_id for op in schedule.operations]
    for node_id, count in sorted(Counter(ids).items()):
        if count > 1:
            yield rule_obj.violation(
                f"node_id {node_id} assigned to {count} operations",
            )
    if ids and sorted(set(ids)) != list(range(len(set(ids)))):
        yield rule_obj.violation(
            f"node_ids are not the stable insertion indices "
            f"0..{len(ids) - 1}: got {sorted(set(ids))[:8]}...",
        )


@rule("REP144", "schedule", Severity.ERROR, "times non-negative")
def _times_non_negative(rule_obj, schedule, options):
    for operation in schedule.operations:
        if operation.start < 0 or operation.duration < 0:
            yield rule_obj.violation(
                f"{operation.node!r} has start {operation.start} and "
                f"duration {operation.duration}",
                location=f"node_id {operation.node_id}",
            )


@rule("REP145", "schedule", Severity.ERROR, "scheduled qubits within register")
def _qubits_in_register(rule_obj, schedule, options):
    for operation in schedule.operations:
        for q in operation.node.qubits:
            if q < 0 or q >= schedule.num_qubits:
                yield rule_obj.violation(
                    f"{operation.node!r} acts on qubit {q}, outside the "
                    f"{schedule.num_qubits}-qubit schedule",
                    location=f"node_id {operation.node_id}",
                )
