"""The between-pass IR verifier: clean runs, corrupt passes, VerifierPass."""

import pytest

from repro.analysis import PipelineVerifier, VerifierPass, analyze_result
from repro.circuit.circuit import Circuit
from repro.compiler.batch import BatchCompiler, BatchJob
from repro.compiler.passes import (
    FinalSchedulePass,
    LogicalSchedulePass,
    LowerPass,
    Pass,
    PlaceAndRoutePass,
)
from repro.compiler.pipeline import compile_circuit, compile_with_pipeline
from repro.compiler.strategies import all_strategies
from repro.errors import IRVerificationError
from repro.testing.differential import differential_compile


def probe_circuit():
    return (
        Circuit(3, name="verify-probe")
        .h(0)
        .cnot(0, 1)
        .rz(0.7, 1)
        .cnot(1, 2)
        .rzz(0.3, 0, 2)
    )


class EvilReversePass(Pass):
    """Claims to preserve gates but reverses the program."""

    requires = ("nodes",)
    produces = ("nodes",)
    preserves_gates = True

    def run(self, context):
        context.nodes = list(reversed(context.nodes))


class EvilDropPass(Pass):
    """Claims to preserve gates but silently drops the last one."""

    requires = ("nodes",)
    produces = ("nodes",)
    preserves_gates = True

    def run(self, context):
        context.nodes = context.nodes[:-1]


class EvilRepeatPass(Pass):
    """Claims to preserve gates but lists the first gate object twice."""

    requires = ("nodes",)
    produces = ("nodes",)
    preserves_gates = True

    def run(self, context):
        context.nodes = context.nodes + context.nodes[:1]


def evil_pipeline(evil):
    return [
        LowerPass(),
        evil,
        LogicalSchedulePass(use_cls=False),
        PlaceAndRoutePass(),
        FinalSchedulePass(use_cls=False),
    ]


class TestVerifyIrMode:
    @pytest.mark.parametrize(
        "key", [s.key for s in all_strategies()]
    )
    def test_clean_compile_passes_under_verification(self, key):
        result = compile_circuit(probe_circuit(), key, verify_ir=True)
        assert result.latency_ns > 0
        assert analyze_result(result).ok

    def test_illegal_reorder_attributed_to_pass(self):
        with pytest.raises(IRVerificationError) as excinfo:
            compile_with_pipeline(
                probe_circuit(), evil_pipeline(EvilReversePass()),
                verify_ir=True,
            )
        error = excinfo.value
        assert error.pass_name == "EvilReversePass"
        assert error.pass_index == 1
        assert "REP133" in error.rule_ids
        assert "EvilReversePass" in str(error)

    def test_dropped_gate_attributed_to_pass(self):
        with pytest.raises(IRVerificationError) as excinfo:
            compile_with_pipeline(
                probe_circuit(), evil_pipeline(EvilDropPass()),
                verify_ir=True,
            )
        error = excinfo.value
        assert error.pass_name == "EvilDropPass"
        assert "REP134" in error.rule_ids
        assert "dropped" in str(error)

    def test_repeated_gate_object_attributed_to_pass(self):
        with pytest.raises(IRVerificationError) as excinfo:
            compile_with_pipeline(
                probe_circuit(), evil_pipeline(EvilRepeatPass()),
                verify_ir=True,
            )
        error = excinfo.value
        assert error.pass_name == "EvilRepeatPass"
        assert "REP134" in error.rule_ids
        assert "duplicated gate objects" in str(error)

    def test_verification_off_by_default(self):
        # Without verify_ir the corrupt pipeline runs to completion —
        # producing a wrong result only end-to-end equivalence would
        # catch.  (That asymmetry is the point of the debug mode.)
        result = compile_with_pipeline(
            probe_circuit(), evil_pipeline(EvilDropPass())
        )
        assert not result.verify_equivalence(probe_circuit())

    def test_collecting_verifier_records_reports(self):
        verifier = PipelineVerifier(raise_on_error=False)
        passes = evil_pipeline(EvilDropPass())
        from repro.compiler.context import CompilationContext

        context = CompilationContext.create(
            probe_circuit(), strategy_key="custom"
        )
        for index, pass_ in enumerate(passes):
            context.current_pass_index = index
            verifier.before_pass(pass_, index, context)
            pass_.run(context)
            verifier.after_pass(pass_, index, context)
        assert len(verifier.reports) == len(passes)
        fired = {v.rule_id for v in verifier.violations()}
        assert "REP134" in fired


class TestVerifierPass:
    def test_explicit_verifier_pass_in_clean_pipeline(self):
        result = compile_with_pipeline(
            probe_circuit(),
            [
                LowerPass(),
                VerifierPass(),
                LogicalSchedulePass(use_cls=False),
                PlaceAndRoutePass(),
                VerifierPass(),
                FinalSchedulePass(use_cls=False),
                VerifierPass(),
            ],
        )
        assert result.latency_ns > 0

    def test_verifier_pass_contract_is_neutral(self):
        assert VerifierPass().requires == ()
        assert VerifierPass().produces == ()
        assert VerifierPass().preserves_gates

    def test_verifier_pass_catches_prior_corruption(self):
        with pytest.raises(IRVerificationError):
            compile_with_pipeline(
                probe_circuit(),
                [
                    LowerPass(),
                    LogicalSchedulePass(use_cls=False),
                    PlaceAndRoutePass(),
                    CorruptRoutingPass(),
                    VerifierPass(),
                    FinalSchedulePass(use_cls=False),
                ],
            )


class CorruptRoutingPass(Pass):
    """Teleports a two-qubit op onto uncoupled qubits."""

    requires = ("physical_nodes",)
    produces = ("physical_nodes",)

    def run(self, context):
        from repro.gates import library as lib

        width = context.topology.num_qubits
        far = lib.CNOT(0, width - 1)
        if not context.topology.are_adjacent(0, width - 1):
            context.physical_nodes = [*context.physical_nodes, far]


class TestBatchAndDifferential:
    def test_batch_compiler_verifies_every_job(self):
        engine = BatchCompiler(verify_ir=True)
        report = engine.compile_batch(
            [
                BatchJob(circuit=probe_circuit(), strategy="isa"),
                BatchJob(circuit=probe_circuit(), strategy="cls"),
            ]
        )
        assert all(r.latency_ns > 0 for r in report.results)

    def test_differential_compile_reports_verifier_failure(self):
        # differential_compile can't inject a corrupt pass, but the
        # verify_ir flag must thread through without disturbing clean
        # strategy x device cells.
        report = differential_compile(
            probe_circuit(),
            strategies=["isa", "cls+aggregation"],
            devices=["line-3"],
            verify_ir=True,
        )
        assert report.ok
