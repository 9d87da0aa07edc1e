"""End-to-end pipeline tests across all strategies."""

import pytest

from repro.benchmarks.qaoa import line_graph, maxcut_qaoa_circuit
from repro.benchmarks.registry import benchmark_by_key
from repro.circuit.circuit import Circuit
from repro.compiler.pipeline import compile_circuit
from repro.compiler.strategies import (
    AGGREGATION,
    CLS,
    CLS_AGGREGATION,
    CLS_HAND,
    ISA,
    all_strategies,
)
from repro.control.unit import OptimalControlUnit
from repro.device.device import Device
from repro.device.topology import LineTopology


@pytest.fixture(scope="module")
def ocu():
    return OptimalControlUnit(backend="model")


@pytest.fixture(scope="module")
def qaoa_circuit():
    return maxcut_qaoa_circuit(line_graph(6), name="line6")


class TestPipelineBasics:
    def test_all_strategies_produce_valid_schedules(self, ocu, qaoa_circuit):
        for strategy in all_strategies():
            result = compile_circuit(qaoa_circuit, strategy, ocu=ocu)
            result.schedule.validate()
            assert result.latency_ns > 0
            assert result.strategy_key == strategy.key

    def test_isa_baseline_is_slowest(self, ocu, qaoa_circuit):
        results = {
            s.key: compile_circuit(qaoa_circuit, s, ocu=ocu)
            for s in all_strategies()
        }
        baseline = results["isa"].latency_ns
        for key, result in results.items():
            assert result.latency_ns <= baseline + 1e-6, key

    def test_full_flow_beats_cls_alone(self, ocu, qaoa_circuit):
        cls = compile_circuit(qaoa_circuit, CLS, ocu=ocu)
        full = compile_circuit(qaoa_circuit, CLS_AGGREGATION, ocu=ocu)
        assert full.latency_ns <= cls.latency_ns + 1e-6

    def test_hand_beats_cls_alone_on_commutative_circuit(self, ocu, qaoa_circuit):
        cls = compile_circuit(qaoa_circuit, CLS, ocu=ocu)
        hand = compile_circuit(qaoa_circuit, CLS_HAND, ocu=ocu)
        assert hand.latency_ns <= cls.latency_ns + 1e-6

    def test_aggregation_beats_isa_on_serial_circuit(self, ocu):
        circuit = Circuit(3, name="serial")
        circuit.h(0).cnot(0, 1).h(1).cnot(1, 2).t(2).cnot(0, 1)
        isa = compile_circuit(circuit, ISA, ocu=ocu)
        agg = compile_circuit(circuit, AGGREGATION, ocu=ocu)
        assert agg.latency_ns < isa.latency_ns

    def test_width_limit_respected(self, ocu):
        circuit = Circuit(6, name="chain")
        for i in range(5):
            circuit.cnot(i, i + 1)
        result = compile_circuit(
            circuit, AGGREGATION, ocu=ocu, width_limit=3
        )
        assert result.widest_instruction() <= 3

    def test_routing_makes_everything_adjacent(self, ocu):
        circuit = Circuit(6, name="nonlocal")
        circuit.cnot(0, 5).cnot(1, 4).cnot(2, 3)
        topology = LineTopology(6)
        result = compile_circuit(
            circuit, ISA, ocu=ocu, device=Device(topology=topology)
        )
        for operation in result.schedule:
            qubits = sorted(set(operation.node.qubits))
            if len(qubits) == 2:
                assert topology.are_adjacent(*qubits)
        assert result.swap_count > 0

    def test_machine_is_named_by_device_alone(self):
        import inspect

        import repro.compiler as compiler
        from repro.compiler.batch import BatchCompiler
        from repro.compiler.context import CompilationContext
        from repro.compiler.pipeline import compile_with_pipeline

        for entry in (
            compile_circuit,
            compile_with_pipeline,
            CompilationContext.create,
            BatchCompiler.compile,
        ):
            parameters = inspect.signature(entry).parameters
            assert "device" in parameters
            assert "topology" not in parameters, entry.__qualname__
        # A batch is compiled by an engine, never a throwaway wrapper.
        assert not hasattr(compiler, "compile_batch")

    def test_toffoli_gets_lowered(self, ocu):
        circuit = Circuit(3, name="tof").toffoli(0, 1, 2)
        result = compile_circuit(circuit, ISA, ocu=ocu)
        assert result.lowered_gate_count == 15

    def test_stage_times_recorded(self, ocu, qaoa_circuit):
        result = compile_circuit(qaoa_circuit, CLS_AGGREGATION, ocu=ocu)
        assert set(result.stage_seconds) == {
            "lowering",
            "detection",
            "logical_scheduling",
            "mapping",
            "backend",
            "final_scheduling",
        }

    def test_result_metrics(self, ocu, qaoa_circuit):
        result = compile_circuit(qaoa_circuit, CLS_AGGREGATION, ocu=ocu)
        histogram = result.instruction_width_histogram()
        assert sum(histogram.values()) == result.node_count
        assert result.widest_instruction() <= 10
        assert "line6" in result.summary()

    def test_speedup_over(self, ocu, qaoa_circuit):
        isa = compile_circuit(qaoa_circuit, ISA, ocu=ocu)
        full = compile_circuit(qaoa_circuit, CLS_AGGREGATION, ocu=ocu)
        assert full.speedup_over(isa) > 1.0
        assert isa.speedup_over(isa) == pytest.approx(1.0)


class TestPipelineOnSuite:
    @pytest.mark.parametrize(
        "key",
        ["maxcut-line-6", "ising-6", "uccsd-4"],
    )
    def test_small_suite_shapes(self, ocu, key):
        spec = benchmark_by_key(key, scale="small")
        circuit = spec.build()
        isa = compile_circuit(circuit, ISA, ocu=ocu)
        full = compile_circuit(circuit, CLS_AGGREGATION, ocu=ocu)
        isa.schedule.validate()
        full.schedule.validate()
        assert full.latency_ns < isa.latency_ns

    def test_aggregation_merges_recorded_on_serial_circuit(self, ocu):
        circuit = Circuit(3, name="serial-chain")
        circuit.h(0).cnot(0, 1).t(1).cnot(1, 2).h(2).cnot(0, 1)
        result = compile_circuit(circuit, CLS_AGGREGATION, ocu=ocu)
        assert result.aggregation_merges >= 1
        assert result.aggregated_instructions()

    def test_detection_blocks_still_reported_without_merges(self, ocu):
        # On a balanced QAOA layer CLS leaves no slack, so the monotonic
        # rule blocks pair merges — but the detected diagonal blocks are
        # still compiled as aggregated single-pulse instructions.
        spec = benchmark_by_key("maxcut-line-6", scale="small")
        result = compile_circuit(spec.build(), CLS_AGGREGATION, ocu=ocu)
        assert result.aggregated_instructions()


class TestWidthLimitOverride:
    """Regression tests: ``width_limit or default`` silently discarded a
    falsy explicit override."""

    def test_zero_rejected_not_silently_defaulted(self, ocu, qaoa_circuit):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            compile_circuit(
                qaoa_circuit, CLS_AGGREGATION, ocu=ocu, width_limit=0
            )

    def test_negative_rejected(self, ocu, qaoa_circuit):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            compile_circuit(
                qaoa_circuit, CLS_AGGREGATION, ocu=ocu, width_limit=-3
            )

    def test_width_one_disables_merging(self, ocu, qaoa_circuit):
        result = compile_circuit(
            qaoa_circuit, AGGREGATION, ocu=ocu, width_limit=1
        )
        assert result.aggregation_merges == 0

    def test_none_uses_config_default(self, ocu, qaoa_circuit):
        explicit = compile_circuit(
            qaoa_circuit,
            CLS_AGGREGATION,
            ocu=ocu,
            width_limit=10,  # the CompilerConfig default
        )
        defaulted = compile_circuit(
            qaoa_circuit, CLS_AGGREGATION, ocu=ocu, width_limit=None
        )
        assert defaulted.latency_ns == explicit.latency_ns
