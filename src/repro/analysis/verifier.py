"""The between-pass IR verifier (``verify_ir`` debug mode).

:class:`PipelineVerifier` is the hook object
:class:`~repro.compiler.manager.PassManager` drives when constructed
with ``verify_ir=True``: before each gate-preserving pass it snapshots
the IR, after *every* pass it runs
:func:`~repro.analysis.verify.analyze_context` and raises
:class:`~repro.errors.IRVerificationError` on the first ERROR-severity
violation — attributing a corruption to the pass that introduced it
instead of to the end-of-pipeline equivalence check.

:class:`VerifierPass` packages one verification sweep as an ordinary
pass, so pipelines can also opt in at chosen points::

    pipeline = [*default_pipeline(CLS), VerifierPass()]
"""

from __future__ import annotations

from repro.analysis.core import AnalysisReport
from repro.analysis.packs.transition import snapshot_context
from repro.analysis.verify import analyze_context
from repro.compiler.passes import Pass
from repro.errors import IRVerificationError


def _raise_for(report: AnalysisReport, pass_name: str, pass_index: int | None):
    rule_ids = tuple(sorted({v.rule_id for v in report.errors}))
    details = "; ".join(v.describe() for v in report.errors[:8])
    position = (
        f" (pipeline position {pass_index})" if pass_index is not None else ""
    )
    raise IRVerificationError(
        f"IR invariants broken after pass {pass_name}{position}: {details}",
        pass_name=pass_name,
        pass_index=pass_index,
        rule_ids=rule_ids,
    )


class PipelineVerifier:
    """Snapshots and checks the IR around every pass of a pipeline.

    Attributes:
        reports: ``(pass_name, report)`` per verified pass, in order.
        raise_on_error: When False, errors accumulate in ``reports``
            instead of raising (used by tooling that wants the full
            picture rather than fail-fast attribution).
    """

    def __init__(self, *, raise_on_error: bool = True) -> None:
        self.raise_on_error = raise_on_error
        self.reports: list[tuple[str, AnalysisReport]] = []
        self._snapshot = None

    def before_pass(self, pass_, index: int, context) -> None:
        # Transition rules only apply to passes declaring that they keep
        # the gate multiset; snapshotting around the others would either
        # be meaningless (lowering invents gates) or compare different
        # qubit domains (placement renumbers everything).
        if getattr(pass_, "preserves_gates", False):
            self._snapshot = snapshot_context(context)
        else:
            self._snapshot = None

    def after_pass(self, pass_, index: int, context) -> None:
        snapshot, self._snapshot = self._snapshot, None
        report = analyze_context(
            context, snapshot_before=snapshot, pass_name=pass_.name
        )
        self.reports.append((pass_.name, report))
        if report.violations:
            context.record_metrics(
                pass_.name,
                verify_ir_rule_ids=report.fired_rule_ids(),
                verify_ir_errors=len(report.errors),
                verify_ir_warnings=len(report.warnings),
            )
        if report.errors and self.raise_on_error:
            _raise_for(report, pass_.name, index)

    def violations(self):
        """Every violation across all verified passes."""
        return [
            violation
            for _, report in self.reports
            for violation in report.violations
        ]


class VerifierPass(Pass):
    """Run one full IR-invariant sweep at this point of the pipeline."""

    requires: tuple[str, ...] = ()
    produces: tuple[str, ...] = ()
    preserves_gates = True

    def run(self, context) -> None:
        report = analyze_context(context, pass_name=self.name)
        context.record_metrics(
            self.name,
            verify_ir_rule_ids=report.fired_rule_ids(),
            verify_ir_errors=len(report.errors),
            verify_ir_warnings=len(report.warnings),
        )
        if report.errors:
            _raise_for(report, self.name, None)
