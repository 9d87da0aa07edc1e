"""Tests for the OptimalControlUnit facade."""

import functools

import pytest

import repro.control.unit as unit_module
from repro.aggregation.diagonal import detect_diagonal_blocks
from repro.aggregation.instruction import AggregatedInstruction
from repro.benchmarks.registry import table3_suite
from repro.compiler.batch import BatchCompiler, BatchJob
from repro.compiler.strategies import all_strategies
from repro.control.time_search import minimal_pulse_time
from repro.control.unit import OptimalControlUnit, _signature_of
from repro.errors import ControlError
from repro.gates import library as lib
from repro.gates.decompositions import lower_to_standard_set
from repro.gates.gate import Gate


class TestModelBackend:
    def test_gate_latency_positive(self):
        ocu = OptimalControlUnit()
        assert ocu.latency(lib.CNOT(0, 1)) > 0

    def test_instruction_latency_less_than_serial(self):
        ocu = OptimalControlUnit()
        gates = [lib.CNOT(0, 1), lib.RZ(0.7, 1), lib.CNOT(0, 1)]
        instruction = AggregatedInstruction(gates)
        serial = sum(ocu.latency(g) for g in gates)
        assert ocu.latency(instruction) < serial

    def test_cache_hits_on_repeated_structure(self):
        ocu = OptimalControlUnit()
        ocu.latency(lib.CNOT(0, 1))
        before = ocu.cache_hits
        ocu.latency(lib.CNOT(5, 6))  # same structure elsewhere
        assert ocu.cache_hits == before + 1

    def test_cache_distinguishes_direction(self):
        ocu = OptimalControlUnit()
        a = ocu.latency(lib.CNOT(0, 1))
        b = ocu.latency(lib.CNOT(1, 0))
        # Same class, same latency value, but cached under distinct keys.
        assert a == pytest.approx(b)
        assert ocu.cache_info()["latency_entries"] == 2

    def test_model_latency_helper(self):
        ocu = OptimalControlUnit(backend="model")
        assert ocu.model_latency(lib.SWAP(0, 1)) == pytest.approx(
            ocu.latency(lib.SWAP(0, 1))
        )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ControlError):
            OptimalControlUnit(backend="quantum_magic")


class TestGrapeTimeStep:
    """The GRAPE time step has one spelling: ``CompilerConfig.grape_dt_ns``."""

    def test_read_from_the_compiler_config(self):
        from repro.config import CompilerConfig

        default = OptimalControlUnit()
        fine = OptimalControlUnit(compiler=CompilerConfig(grape_dt_ns=0.25))
        assert default.grape_dt == CompilerConfig().grape_dt_ns
        assert fine.grape_dt == 0.25
        # Pulses on another step grid never share cache entries.
        assert fine.fingerprint != default.fingerprint

    def test_engine_units_inherit_it(self):
        from repro.compiler.batch import BatchCompiler
        from repro.config import CompilerConfig

        engine = BatchCompiler(compiler_config=CompilerConfig(grape_dt_ns=0.25))
        assert engine.make_ocu().grape_dt == 0.25
        # Neither the step nor the legacy search switches have a
        # spelling of their own on the engine or the unit.
        deleted = {
            "grape_dt": 0.25,
            "grape_kernel": "reference",
            "grape_warm_start": False,
            "grape_plateau_iterations": None,
        }
        for keyword, value in deleted.items():
            with pytest.raises(TypeError):
                BatchCompiler(**{keyword: value})
            with pytest.raises(TypeError):
                OptimalControlUnit(**{keyword: value})


class TestLegacySearch:
    """One quick 1-qubit synthesis per side, so it stays in tier 1."""

    def test_legacy_search_swaps_in_at_the_module_name(self, monkeypatch):
        # The unit has no switch for the legacy search: a reference run
        # (benchmarks/bench_batch.py) patches it in at the name the unit
        # calls, and the unit passes no algorithm setting that would
        # override the patched-in ones.
        fast = OptimalControlUnit(backend="grape", seed=11)
        fast.latency(lib.X(0))
        legacy_search = functools.partial(
            minimal_pulse_time,
            kernel="reference",
            warm_start=False,
            plateau_iterations=None,
        )
        monkeypatch.setattr(unit_module, "minimal_pulse_time", legacy_search)
        legacy = OptimalControlUnit(backend="grape", seed=11)
        legacy.latency(lib.X(0))
        assert legacy.grape_calls == fast.grape_calls == 1
        assert legacy.grape_evals > fast.grape_evals


class TestSignature:
    def test_same_structure_same_signature(self):
        a = _signature_of(lib.CNOT(0, 1))
        b = _signature_of(lib.CNOT(7, 9))
        assert a == b

    def test_qubit_order_matters(self):
        assert _signature_of(lib.CNOT(0, 1)) != _signature_of(lib.CNOT(1, 0))

    def test_params_matter(self):
        assert _signature_of(lib.RZ(0.5, 0)) != _signature_of(lib.RZ(0.6, 0))

    def test_instruction_signature_includes_layout(self):
        chain = AggregatedInstruction([lib.CNOT(0, 1), lib.CNOT(1, 2)])
        fan = AggregatedInstruction([lib.CNOT(0, 1), lib.CNOT(0, 2)])
        assert _signature_of(chain) != _signature_of(fan)


def _reference_signature(node) -> tuple:
    """Frozen copy of the cache signature as the unit built it before it
    read the nodes' memoized ``signature``: rebuilt from the members."""
    gates = [node] if isinstance(node, Gate) else list(node.gates)
    support = tuple(sorted(set(node.qubits)))
    index = {qubit: position for position, qubit in enumerate(support)}
    parts = tuple(
        (
            gate.name,
            tuple(round(p, 10) for p in gate.params),
            tuple(index[q] for q in gate.qubits),
        )
        for gate in gates
    )
    return (len(support), parts)


class TestSignatureMatchesFrozenFormula:
    """Every node a small sweep prices keys the cache as before."""

    def test_every_node_of_a_small_sweep(self, monkeypatch):
        # Checked as the unit asks, so the sweep's probes are not kept.
        kinds = set()

        def checked(node):
            signature = _signature_of(node)
            assert signature == _reference_signature(node), node
            kinds.add((isinstance(node, Gate), len(node.qubits) > 2))
            return signature

        monkeypatch.setattr(unit_module, "_signature_of", checked)
        circuits = [
            spec.build()
            for spec in table3_suite("small")
            if spec.key in ("maxcut-line-6", "ising-6", "sqrt-9", "uccsd-4")
        ]
        report = BatchCompiler(max_workers=1).compile_batch(
            BatchJob(circuit=circuit, strategy=strategy)
            for circuit in circuits
            for strategy in all_strategies()
        )
        # Gates, and instructions of pair and wider supports, were priced.
        assert kinds == {(True, False), (False, False), (False, True)}
        blocks = [
            node
            for circuit in circuits
            for node in detect_diagonal_blocks(
                lower_to_standard_set(circuit.gates)
            )
            if isinstance(node, AggregatedInstruction)
        ]
        assert blocks
        for node in blocks + [
            operation.node
            for result in report.results
            for operation in result.schedule.operations
        ]:
            checked(node)


@pytest.mark.slow
class TestGrapeBackend:
    def test_grape_latency_close_to_model(self):
        grape_ocu = OptimalControlUnit(backend="grape", seed=11)
        model_ocu = OptimalControlUnit(backend="model")
        gate = lib.CNOT(0, 1)
        grape_latency = grape_ocu.latency(gate)
        model_latency = model_ocu.latency(gate)
        assert grape_latency == pytest.approx(model_latency, rel=0.25)

    def test_grape_pulse_cached(self):
        ocu = OptimalControlUnit(backend="grape", seed=11)
        ocu.latency(lib.CNOT(0, 1))
        calls_before = ocu.grape_calls
        ocu.synthesize_pulse(lib.CNOT(2, 3))  # structurally identical
        assert ocu.grape_calls == calls_before

    def test_wide_instruction_falls_back_to_model(self):
        ocu = OptimalControlUnit(backend="grape", grape_qubit_limit=2)
        wide = AggregatedInstruction(
            [lib.CNOT(0, 1), lib.CNOT(1, 2), lib.CNOT(2, 3)]
        )
        latency = ocu.latency(wide)
        assert latency == pytest.approx(ocu.model_latency(wide))
        assert ocu.grape_fallbacks == 1

    def test_synthesize_pulse_width_check(self):
        ocu = OptimalControlUnit(backend="grape", grape_qubit_limit=2)
        wide = AggregatedInstruction([lib.CNOT(0, 1), lib.CNOT(1, 2)])
        with pytest.raises(ControlError):
            ocu.synthesize_pulse(wide)
