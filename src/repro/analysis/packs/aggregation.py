"""Aggregation legality rules (REP13x, artifact half).

The ``"aggregation"`` kind runs over a *sequence of nodes*;
``options["width_limit"]`` bounds instruction width (None disables the
width rule).  The transition half of the aggregation contract — merged
nodes respect commutation-group boundaries, the PR 4 bug class — lives
in :mod:`repro.analysis.packs.transition` because it needs before/after
snapshots, not a single artifact.
"""

from __future__ import annotations

from repro.analysis.core import Severity, rule
from repro.gates.gate import Gate
from repro.linalg.predicates import is_diagonal as _matrix_is_diagonal


def _claimed_diagonal(node) -> bool | None:
    """The node's *cached* diagonality claim, or None when unclaimed.

    A :class:`~repro.gates.gate.Gate` memoizes into its ``_is_diagonal``
    attribute (None until queried); an aggregated instruction's
    ``functools.cached_property`` memoizes into ``__dict__``.  An absent
    memo means any later query would recompute honestly, so there is
    nothing to cross-check.
    """
    if isinstance(node, Gate):
        claim = node._is_diagonal
    else:
        claim = getattr(node, "__dict__", {}).get("is_diagonal")
    return None if claim is None else bool(claim)


@rule("REP131", "aggregation", Severity.ERROR, "block width within width_limit")
def _width_within_limit(rule_obj, subject, options):
    width_limit = options.get("width_limit")
    if width_limit is None:
        return
    for position, node in enumerate(subject):
        if not hasattr(node, "gates"):
            continue  # plain gates are not aggregation products
        width = len(set(node.qubits))
        if width > width_limit:
            yield rule_obj.violation(
                f"{node!r} spans {width} qubits, over the aggregation "
                f"width limit of {width_limit}",
                location=f"node {position}",
            )


@rule(
    "REP132",
    "aggregation",
    Severity.ERROR,
    "claimed-diagonal nodes verifiably diagonal",
)
def _diagonal_claims_true(rule_obj, subject, options):
    for position, node in enumerate(subject):
        claim = _claimed_diagonal(node)
        if claim is not True:
            continue
        matrix = getattr(node, "matrix", None)
        if matrix is None:
            yield rule_obj.violation(
                f"{node!r} claims diagonality but is too wide to verify",
                location=f"node {position}",
                severity=Severity.WARNING,
            )
        elif not _matrix_is_diagonal(matrix):
            yield rule_obj.violation(
                f"{node!r} claims to be diagonal but its matrix is not",
                location=f"node {position}",
            )
