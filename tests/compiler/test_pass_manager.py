"""Pass-manager core tests: parity with the seed monolith, ordering,
instrumentation, and custom pass/strategy registration."""

import time

import numpy as np
import pytest

from repro.aggregation.aggregator import aggregate
from repro.aggregation.diagonal import detect_diagonal_blocks
from repro.aggregation.instruction import AggregatedInstruction
from repro.benchmarks.grover import grover_sqrt_circuit
from repro.benchmarks.ising import ising_model_circuit
from repro.benchmarks.qaoa import line_graph, maxcut_qaoa_circuit
from repro.circuit.circuit import Circuit
from repro.circuit.commutation import CommutationChecker
from repro.circuit.dag import GateDependenceGraph
from repro.compiler.batch import BatchCompiler, BatchJob
from repro.compiler.context import CompilationContext, STAGES
from repro.compiler.hand_opt import hand_optimize
from repro.compiler.manager import PassManager
from repro.compiler.passes import (
    AggregatePass,
    DetectDiagonalsPass,
    FinalSchedulePass,
    LogicalSchedulePass,
    LowerPass,
    Pass,
    PlaceAndRoutePass,
)
from repro.compiler.pipeline import compile_circuit, compile_with_pipeline
from repro.compiler.result import CompilationResult
from repro.compiler.result_cache import ResultCache
from repro.compiler.strategies import (
    CLS_AGGREGATION,
    ISA,
    Strategy,
    all_strategies,
    available_strategy_keys,
    default_pipeline,
    register_strategy,
    registered_strategies,
    strategy_by_key,
    unregister_strategy,
)
from repro.config import DEFAULT_COMPILER, DEFAULT_DEVICE
from repro.control.unit import OptimalControlUnit
from repro.errors import (
    ConfigError,
    PassExecutionError,
    PassOrderingError,
    ReproError,
)
from repro.gates import library as lib
from repro.gates.decompositions import lower_to_standard_set
from repro.ir.serialize import canonical_result_dict
from repro.mapping.placement import initial_placement
from repro.mapping.router import route
from repro.device.topology import grid_for
from repro.scheduling.cls import cls_schedule
from repro.scheduling.list_scheduler import list_schedule


def _seed_compile_circuit(
    circuit,
    strategy,
    device=DEFAULT_DEVICE,
    compiler_config=DEFAULT_COMPILER,
    ocu=None,
    topology=None,
    width_limit=None,
):
    """Frozen copy of the pre-pass-manager ``compile_circuit`` monolith.

    This is the parity oracle: the refactored pipeline must reproduce
    its results bit-for-bit (latencies, swaps, merges, mappings).
    """
    ocu = ocu or OptimalControlUnit(device=device, compiler=compiler_config)
    if width_limit is None:
        width_limit = compiler_config.max_instruction_width
    checker = CommutationChecker(
        exact_qubits=compiler_config.exact_commutation_qubits
    )
    stage_seconds = {}

    def latency_fn(node):
        hand_latency = getattr(node, "hand_latency_ns", None)
        if hand_latency is not None:
            return hand_latency
        if isinstance(node, AggregatedInstruction) and not strategy.aggregation:
            return sum(ocu.latency(gate) for gate in node.gates)
        return ocu.latency(node)

    started = time.perf_counter()
    lowered = lower_to_standard_set(circuit.gates)
    stage_seconds["lowering"] = time.perf_counter() - started

    started = time.perf_counter()
    if strategy.commutativity_detection:
        nodes = detect_diagonal_blocks(lowered, compiler_config)
    else:
        nodes = list(lowered)
    stage_seconds["detection"] = time.perf_counter() - started

    started = time.perf_counter()
    logical_dag = GateDependenceGraph(
        circuit.num_qubits, nodes, checker.commute
    )
    if strategy.cls_scheduling:
        logical_order = cls_schedule(logical_dag, latency_fn).ordered_nodes()
        logical_dag.reorder(logical_order)
    ordered_nodes = logical_dag.stable_topological_order()
    stage_seconds["logical_scheduling"] = time.perf_counter() - started

    started = time.perf_counter()
    topology = topology or grid_for(circuit.num_qubits)
    placement = initial_placement(circuit, topology)
    routing = route(ordered_nodes, placement)
    physical_nodes = routing.nodes
    stage_seconds["mapping"] = time.perf_counter() - started

    started = time.perf_counter()
    aggregation_merges = 0
    if strategy.hand_optimization:
        physical_nodes = hand_optimize(physical_nodes, device)
    physical_dag = GateDependenceGraph(
        topology.num_qubits, physical_nodes, checker.commute
    )
    if strategy.aggregation:
        report = aggregate(
            physical_dag,
            ocu,
            width_limit=width_limit,
            max_rounds=10_000,
        )
        aggregation_merges = report.merges
    stage_seconds["backend"] = time.perf_counter() - started

    started = time.perf_counter()
    if strategy.cls_scheduling:
        schedule = cls_schedule(physical_dag, latency_fn)
    else:
        schedule = list_schedule(physical_dag, latency_fn)
    stage_seconds["final_scheduling"] = time.perf_counter() - started

    return CompilationResult(
        strategy_key=strategy.key,
        circuit_name=circuit.name,
        logical_qubits=circuit.num_qubits,
        physical_qubits=topology.num_qubits,
        schedule=schedule,
        latency_ns=schedule.makespan,
        swap_count=routing.swap_count,
        lowered_gate_count=len(lowered),
        aggregation_merges=aggregation_merges,
        stage_seconds=stage_seconds,
        final_mapping=routing.placement.as_dict(),
        initial_mapping=routing.initial_placement.as_dict(),
    )


@pytest.fixture(scope="module")
def ocu():
    return OptimalControlUnit(backend="model")


def _mixed_circuits():
    serial = Circuit(3, name="serial-chain")
    serial.h(0).cnot(0, 1).t(1).cnot(1, 2).h(2).cnot(0, 1)
    return [
        maxcut_qaoa_circuit(line_graph(6), name="line6"),
        ising_model_circuit(5),
        grover_sqrt_circuit(2),
        serial,
    ]


class TestSeedParity:
    """The ISSUE acceptance check: the pass-manager pipeline must be
    bit-identical to the seed ``compile_circuit`` across all five
    Figure 9 strategies and a mixed circuit set."""

    @pytest.mark.parametrize(
        "strategy", all_strategies(), ids=lambda s: s.key
    )
    def test_bit_identical_to_seed_monolith(self, ocu, strategy):
        for circuit in _mixed_circuits():
            seed = _seed_compile_circuit(circuit, strategy, ocu=ocu)
            new = compile_circuit(circuit, strategy, ocu=ocu)
            assert new.latency_ns == seed.latency_ns, circuit.name
            assert new.swap_count == seed.swap_count
            assert new.aggregation_merges == seed.aggregation_merges
            assert new.lowered_gate_count == seed.lowered_gate_count
            assert new.node_count == seed.node_count
            assert new.physical_qubits == seed.physical_qubits
            assert new.final_mapping == seed.final_mapping
            assert new.initial_mapping == seed.initial_mapping
            assert set(new.stage_seconds) == set(seed.stage_seconds)
            assert (
                new.instruction_width_histogram()
                == seed.instruction_width_histogram()
            )

    def test_width_limit_parity(self, ocu):
        circuit = maxcut_qaoa_circuit(line_graph(6), name="line6")
        for width in (1, 3, 10):
            seed = _seed_compile_circuit(
                circuit, CLS_AGGREGATION, ocu=ocu, width_limit=width
            )
            new = compile_circuit(
                circuit, CLS_AGGREGATION, ocu=ocu, width_limit=width
            )
            assert new.latency_ns == seed.latency_ns
            assert new.aggregation_merges == seed.aggregation_merges


class TestPassManager:
    def test_per_pass_timing_recorded(self, ocu):
        circuit = ising_model_circuit(4)
        result = compile_circuit(circuit, CLS_AGGREGATION, ocu=ocu)
        expected = {
            "LowerPass",
            "DetectDiagonalsPass",
            "LogicalSchedulePass",
            "PlaceAndRoutePass",
            "AggregatePass",
            "FinalSchedulePass",
        }
        assert set(result.pass_seconds) == expected
        assert all(value >= 0.0 for value in result.pass_seconds.values())

    def test_stage_keys_always_complete(self, ocu):
        # Even the ISA pipeline (no detection/backend passes) reports
        # the full canonical stage-key set, like the seed monolith did.
        circuit = ising_model_circuit(4)
        result = compile_circuit(circuit, ISA, ocu=ocu)
        assert set(result.stage_seconds) == set(STAGES)

    def test_callbacks_see_every_pass(self, ocu):
        seen = []
        compile_circuit(
            ising_model_circuit(4),
            CLS_AGGREGATION,
            ocu=ocu,
            callbacks=[lambda p, ctx, dt: seen.append((p.name, dt))],
        )
        assert [name for name, _ in seen] == [
            "LowerPass",
            "DetectDiagonalsPass",
            "LogicalSchedulePass",
            "PlaceAndRoutePass",
            "AggregatePass",
            "FinalSchedulePass",
        ]
        assert all(dt >= 0.0 for _, dt in seen)

    def test_raising_callback_wrapped_with_context(self, ocu):
        def broken(pass_, context, elapsed):
            raise KeyError("oops")

        with pytest.raises(PassExecutionError) as excinfo:
            compile_circuit(
                ising_model_circuit(4), ISA, ocu=ocu, callbacks=[broken]
            )
        error = excinfo.value
        assert error.pass_name == "LowerPass"
        assert "broken" in str(error)
        assert isinstance(error.__cause__, KeyError)

    def test_callback_library_error_keeps_type(self, ocu):
        # Same contract as pass bodies: a ReproError from a callback
        # propagates with its original type plus a locating note.
        def strict(pass_, context, elapsed):
            raise ConfigError("callback objects")

        with pytest.raises(ConfigError) as excinfo:
            compile_circuit(
                ising_model_circuit(4), ISA, ocu=ocu, callbacks=[strict]
            )
        notes = getattr(excinfo.value, "__notes__", [])
        assert any("callback after pass" in note for note in notes)

    def test_manager_rejects_non_pass(self):
        with pytest.raises(ConfigError):
            PassManager([object()])

    def test_chainable_construction(self):
        manager = PassManager().append(LowerPass()).extend(
            [PlaceAndRoutePass(), FinalSchedulePass(use_cls=False)]
        )
        assert len(manager) == 3
        assert [p.name for p in manager] == [
            "LowerPass",
            "PlaceAndRoutePass",
            "FinalSchedulePass",
        ]

    def test_metrics_recorded_per_pass(self, ocu):
        context = CompilationContext.create(
            ising_model_circuit(4),
            strategy_key=CLS_AGGREGATION.key,
            pulse_backend=True,
            ocu=ocu,
        )
        PassManager(default_pipeline(CLS_AGGREGATION)).run(context)
        assert context.metrics["LowerPass"]["lowered_gates"] > 0
        assert "merges" in context.metrics["AggregatePass"]
        assert "swaps" in context.metrics["PlaceAndRoutePass"]


class TestContextValidation:
    def test_scheduling_before_lowering_raises_clear_error(self, ocu):
        circuit = ising_model_circuit(4)
        with pytest.raises(PassOrderingError) as excinfo:
            compile_with_pipeline(
                circuit, [LogicalSchedulePass()], ocu=ocu
            )
        message = str(excinfo.value)
        assert "LogicalSchedulePass" in message
        assert "LowerPass" in message

    def test_final_schedule_before_routing_raises(self, ocu):
        with pytest.raises(PassOrderingError) as excinfo:
            compile_with_pipeline(
                ising_model_circuit(4),
                [LowerPass(), FinalSchedulePass()],
                ocu=ocu,
            )
        assert "PlaceAndRoutePass" in str(excinfo.value)

    def test_result_without_schedule_raises(self, ocu):
        context = CompilationContext.create(
            ising_model_circuit(4), ocu=ocu
        )
        with pytest.raises(PassOrderingError):
            context.result()

    def test_library_errors_keep_their_type_and_gain_context(self, ocu):
        # width_limit=0 is rejected before any pass runs.
        with pytest.raises(ConfigError):
            compile_circuit(
                ising_model_circuit(4), CLS_AGGREGATION, ocu=ocu,
                width_limit=0,
            )
        # An ordering failure is still a ReproError (not wrapped) and
        # its note names the failing pass and circuit.
        with pytest.raises(ReproError) as excinfo:
            compile_with_pipeline(
                ising_model_circuit(4), [FinalSchedulePass()], ocu=ocu
            )
        notes = getattr(excinfo.value, "__notes__", [])
        assert any("FinalSchedulePass" in note for note in notes)
        assert any("ising" in note for note in notes)

    def test_foreign_exception_wrapped_with_structured_context(self, ocu):
        class ExplodingPass(Pass):
            def run(self, context):
                raise ValueError("boom")

        with pytest.raises(PassExecutionError) as excinfo:
            compile_with_pipeline(
                ising_model_circuit(4),
                [LowerPass(), ExplodingPass()],
                strategy_key="exploding",
                ocu=ocu,
            )
        error = excinfo.value
        assert error.pass_name == "ExplodingPass"
        assert error.pass_index == 1
        assert error.strategy_key == "exploding"
        assert isinstance(error.__cause__, ValueError)


class _CountNodesPass(Pass):
    """Test pass: identity transformation that records a metric."""

    def run(self, context):
        nodes = context.require("nodes", self.name, "run LowerPass first")
        context.record_metrics(self.name, nodes=len(nodes))


@pytest.fixture
def custom_strategy():
    strategy = Strategy(
        key="custom-counted",
        description="full flow plus a user-defined metrics pass",
        commutativity_detection=True,
        cls_scheduling=True,
        aggregation=True,
        hand_optimization=False,
    )
    register_strategy(
        strategy,
        pipeline_factory=lambda s: [
            LowerPass(),
            _CountNodesPass(),
            DetectDiagonalsPass(),
            LogicalSchedulePass(use_cls=True),
            PlaceAndRoutePass(),
            AggregatePass(),
            FinalSchedulePass(use_cls=True),
        ],
    )
    yield strategy
    unregister_strategy("custom-counted")


class TestStrategyRegistration:
    def test_custom_strategy_compiles_end_to_end(self, ocu, custom_strategy):
        circuit = ising_model_circuit(4)
        result = compile_circuit(circuit, custom_strategy, ocu=ocu)
        result.schedule.validate()
        assert result.strategy_key == "custom-counted"
        assert "_CountNodesPass" in result.pass_seconds

    def test_custom_strategy_resolvable_by_key(self, ocu, custom_strategy):
        circuit = ising_model_circuit(4)
        by_key = compile_circuit(circuit, "custom-counted", ocu=ocu)
        direct = compile_circuit(circuit, custom_strategy, ocu=ocu)
        assert by_key.latency_ns == direct.latency_ns

    def test_custom_strategy_through_batch_engine(self, ocu, custom_strategy):
        # The ISSUE acceptance check: a registered strategy compiles
        # through both compile_circuit and the batch engine.
        circuit = ising_model_circuit(4)
        engine = BatchCompiler(max_workers=2)
        report = engine.compile_batch(
            [
                BatchJob(circuit=circuit, strategy="custom-counted"),
                BatchJob(circuit=circuit, strategy=CLS_AGGREGATION),
            ]
        )
        serial = compile_circuit(circuit, custom_strategy, ocu=ocu)
        assert report.results[0].latency_ns == serial.latency_ns
        assert report.results[0].strategy_key == "custom-counted"
        assert report.pass_seconds["_CountNodesPass"] >= 0.0

    def test_registered_pipeline_is_a_cacheable_job(self, ocu):
        # A custom pipeline reaches a batch job by registration, and so
        # gets a result key: it serializes, caches and crosses process
        # and service boundaries like a built-in.
        strategy = Strategy(
            key="plain-isa",
            description="ISA pipeline spelled out",
            commutativity_detection=False,
            cls_scheduling=False,
            aggregation=False,
            hand_optimization=False,
        )
        register_strategy(
            strategy,
            pipeline_factory=lambda s: [
                LowerPass(),
                LogicalSchedulePass(use_cls=False),
                PlaceAndRoutePass(),
                FinalSchedulePass(use_cls=False),
            ],
        )
        try:
            circuit = ising_model_circuit(4)
            engine = BatchCompiler(result_cache=ResultCache())
            job = BatchJob(circuit=circuit, strategy="plain-isa")
            assert engine.result_key(job) is not None
            report = engine.compile_batch([job, job])
            assert report.result_cache["deduped"] == 1
            reference = compile_circuit(circuit, ISA, ocu=ocu)
            assert report.results[0].latency_ns == reference.latency_ns
            assert report.results[0].strategy_key == "plain-isa"
        finally:
            unregister_strategy("plain-isa")

    def test_registry_listing_and_errors(self, custom_strategy):
        assert "custom-counted" in available_strategy_keys()
        assert custom_strategy in registered_strategies()
        # Built-ins stay first and untouched.
        assert available_strategy_keys()[:5] == [
            "isa",
            "cls",
            "aggregation",
            "cls+aggregation",
            "cls+hand",
        ]
        assert len(all_strategies()) == 5

    def test_unknown_key_error_lists_available(self, custom_strategy):
        with pytest.raises(ConfigError) as excinfo:
            strategy_by_key("nope")
        message = str(excinfo.value)
        assert "'isa'" in message
        assert "'cls+aggregation'" in message
        assert "'custom-counted'" in message

    def test_duplicate_registration_rejected(self, custom_strategy):
        with pytest.raises(ConfigError):
            register_strategy(custom_strategy)
        # Explicit overwrite is allowed.
        register_strategy(custom_strategy, overwrite=True)

    def test_builtin_keys_protected(self):
        clash = Strategy(
            key="isa",
            description="impostor",
            commutativity_detection=True,
            cls_scheduling=False,
            aggregation=False,
            hand_optimization=False,
        )
        with pytest.raises(ConfigError):
            register_strategy(clash, overwrite=True)
        # Even the genuine built-in object cannot be re-registered (that
        # would silently swap in a custom pipeline factory for its key).
        with pytest.raises(ConfigError):
            register_strategy(ISA, overwrite=True)
        with pytest.raises(ConfigError):
            unregister_strategy("isa")

    def test_non_strategy_rejected(self):
        with pytest.raises(ConfigError):
            register_strategy("not-a-strategy")

    def test_explicit_pipeline_autodetects_pulse_pricing(self, ocu):
        # Regression: an explicit pipeline containing AggregatePass must
        # price aggregated blocks as single pulses without the caller
        # remembering to pass pulse_backend=True.
        circuit = ising_model_circuit(4)
        explicit = compile_with_pipeline(
            circuit,
            [
                LowerPass(),
                DetectDiagonalsPass(),
                LogicalSchedulePass(),
                PlaceAndRoutePass(),
                AggregatePass(),
                FinalSchedulePass(),
            ],
            ocu=ocu,
        )
        reference = compile_circuit(circuit, CLS_AGGREGATION, ocu=ocu)
        assert explicit.latency_ns == reference.latency_ns

    def test_flag_divergent_factory_priced_by_pipeline(self, ocu):
        # A registered factory may diverge from the strategy flags (the
        # only way to combine backends the flags forbid pairing).  Block
        # pricing must follow the pass list that actually runs, and both
        # entry points must agree.
        pipeline = [
            LowerPass(),
            DetectDiagonalsPass(),
            LogicalSchedulePass(),
            PlaceAndRoutePass(),
            AggregatePass(),
            FinalSchedulePass(),
        ]
        strategy = Strategy(
            key="divergent-agg",
            description="aggregating factory under non-aggregation flags",
            commutativity_detection=True,
            cls_scheduling=True,
            aggregation=False,
            hand_optimization=False,
        )
        register_strategy(strategy, pipeline_factory=lambda s: list(pipeline))
        try:
            circuit = ising_model_circuit(4)
            single = compile_circuit(circuit, "divergent-agg", ocu=ocu)
            explicit = compile_with_pipeline(circuit, pipeline, ocu=ocu)
            batched = BatchCompiler().compile_batch(
                [BatchJob(circuit=circuit, strategy="divergent-agg")]
            )
            assert single.latency_ns == explicit.latency_ns
            assert batched.results[0].latency_ns == explicit.latency_ns
        finally:
            unregister_strategy("divergent-agg")

    def test_custom_backend_strategy_honors_aggregation_flag(self, ocu):
        # A registered factory may use a custom backend pass the
        # AggregatePass auto-detection cannot see; the strategy's
        # aggregation flag then still enables single-pulse pricing,
        # through compile_circuit and the batch engine alike.
        class MiniAggregatePass(Pass):
            stage = "backend"

            def run(self, context):
                dag = context.ensure_physical_dag(self.name)
                from repro.aggregation.aggregator import (
                    aggregate as run_aggregate,
                )

                run_aggregate(dag, context.ocu, width_limit=context.width_limit)

        strategy = Strategy(
            key="custom-backend",
            description="non-AggregatePass backend",
            commutativity_detection=True,
            cls_scheduling=True,
            aggregation=True,
            hand_optimization=False,
        )
        register_strategy(
            strategy,
            pipeline_factory=lambda s: [
                LowerPass(),
                DetectDiagonalsPass(),
                LogicalSchedulePass(),
                PlaceAndRoutePass(),
                MiniAggregatePass(),
                FinalSchedulePass(),
            ],
        )
        try:
            circuit = ising_model_circuit(4)
            custom = compile_circuit(circuit, "custom-backend", ocu=ocu)
            reference = compile_circuit(circuit, CLS_AGGREGATION, ocu=ocu)
            assert custom.latency_ns == reference.latency_ns
            batched = BatchCompiler().compile_batch(
                [BatchJob(circuit=circuit, strategy="custom-backend")]
            )
            assert batched.results[0].latency_ns == reference.latency_ns
        finally:
            unregister_strategy("custom-backend")

    def test_pipeline_pulse_backend_override(self, ocu):
        # The one-off explicit-pipeline API can force the block pricing
        # the auto-detection would pick (for a custom backend pass it
        # cannot see).
        circuit = ising_model_circuit(4)
        pipeline = [
            LowerPass(),
            DetectDiagonalsPass(),
            LogicalSchedulePass(),
            PlaceAndRoutePass(),
            AggregatePass(),
            FinalSchedulePass(),
        ]
        forced_off = compile_with_pipeline(
            circuit, pipeline, pulse_backend=False, ocu=ocu
        )
        auto = compile_with_pipeline(circuit, list(pipeline), ocu=ocu)
        # Detection-only pricing sums member gates, so forcing the
        # backend off yields a strictly slower (or equal) makespan.
        assert forced_off.latency_ns >= auto.latency_ns

    def test_key_collision_with_registered_strategy_rejected(
        self, custom_strategy
    ):
        import dataclasses

        variant = dataclasses.replace(
            custom_strategy, description="tweaked variant"
        )
        with pytest.raises(ConfigError):
            variant.pipeline()

    def test_default_pipeline_shapes(self):
        assert [p.name for p in default_pipeline(ISA)] == [
            "LowerPass",
            "LogicalSchedulePass",
            "PlaceAndRoutePass",
            "FinalSchedulePass",
        ]
        assert [p.name for p in default_pipeline(CLS_AGGREGATION)] == [
            "LowerPass",
            "DetectDiagonalsPass",
            "LogicalSchedulePass",
            "PlaceAndRoutePass",
            "AggregatePass",
            "FinalSchedulePass",
        ]
        # Fresh instances every call: pipelines are safe to mutate.
        assert default_pipeline(ISA)[0] is not default_pipeline(ISA)[0]


class TestAggregationRoundsConfig:
    """AggregatePass takes its round cap and width limit from the config.
    ``max_aggregation_rounds`` was once validated but never used — the
    old pipeline hard-coded 10_000."""

    def test_config_rounds_honored(self, ocu):
        from repro.config import CompilerConfig

        circuit = Circuit(3, name="serial-chain")
        circuit.h(0).cnot(0, 1).t(1).cnot(1, 2).h(2).cnot(0, 1)
        unlimited = compile_circuit(circuit, CLS_AGGREGATION, ocu=ocu)
        assert unlimited.aggregation_merges > 1
        capped_config = CompilerConfig(max_aggregation_rounds=1)
        capped = compile_circuit(
            circuit,
            CLS_AGGREGATION,
            compiler_config=capped_config,
            ocu=OptimalControlUnit(compiler=capped_config),
        )
        # One round executes strictly fewer merges than convergence.
        assert capped.aggregation_merges < unlimited.aggregation_merges

    @pytest.mark.parametrize("width", [2, 3])
    def test_config_width_honored(self, width):
        # No job-level width_limit: AggregatePass takes the config's.
        from repro.config import CompilerConfig

        circuit = Circuit(3, name="serial-chain")
        circuit.h(0).cnot(0, 1).t(1).cnot(1, 2).h(2).cnot(0, 1)
        config = CompilerConfig(max_instruction_width=width)
        result = compile_circuit(
            circuit,
            CLS_AGGREGATION,
            compiler_config=config,
            ocu=OptimalControlUnit(compiler=config),
        )
        assert result.widest_instruction() == width


def _trotter_layer() -> list:
    return [lib.H(0), lib.CNOT(0, 1), lib.RZ(0.3, 1), lib.CNOT(1, 2)]


class TestRepeatedGateInstances:
    """Regression: a circuit holding one Gate instance twice — extending
    by one layer list twice, the natural way to repeat a Trotter step —
    failed every strategy with a dependence-graph cycle, because
    lowering passed both occurrences through as one node."""

    @pytest.mark.parametrize(
        "strategy", registered_strategies(), ids=lambda s: s.key
    )
    def test_repeated_layer_compiles_like_fresh_gates(self, ocu, strategy):
        layer = _trotter_layer()
        repeated = Circuit(3, name="trotter").extend(layer).extend(layer)
        fresh = (
            Circuit(3, name="trotter")
            .extend(_trotter_layer())
            .extend(_trotter_layer())
        )
        result = compile_circuit(repeated, strategy, ocu=ocu, verify_ir=True)
        assert result.verify_equivalence().equivalent
        assert canonical_result_dict(result) == canonical_result_dict(
            compile_circuit(fresh, strategy, ocu=ocu)
        )

    @pytest.mark.parametrize(
        "strategy", registered_strategies(), ids=lambda s: s.key
    )
    def test_back_to_back_repeat_compiles(self, ocu, strategy):
        rz, cnot = lib.RZ(0.3, 1), lib.CNOT(0, 1)
        circuit = Circuit(2, name="repeat").extend([cnot, rz, rz, rz, cnot])
        result = compile_circuit(circuit, strategy, ocu=ocu, verify_ir=True)
        assert result.verify_equivalence().equivalent

    def _lowered(self, circuit) -> list:
        context = CompilationContext.create(circuit, strategy_key="custom")
        LowerPass().run(context)
        return context.nodes

    def test_lowering_gives_each_repeat_its_own_node(self):
        layer = _trotter_layer()
        nodes = self._lowered(Circuit(3).extend(layer).extend(layer))
        assert len(nodes) == 8
        assert all(node is gate for node, gate in zip(nodes, layer))
        for copy, gate in zip(nodes[4:], layer):
            assert copy is not gate
            assert copy.signature == gate.signature
            assert np.array_equal(copy.matrix, gate.matrix)
        assert len(set(nodes)) == 8

    def test_lowering_keeps_unrepeated_gates(self):
        circuit = Circuit(3).extend(_trotter_layer()).extend(_trotter_layer())
        nodes = self._lowered(circuit)
        assert all(node is gate for node, gate in zip(nodes, circuit.gates))
