"""The refactor's two acceptance gates.

1. **Frozen parity** — compiling the seed benchmark set on explicit
   ``paper-grid`` devices is bit-identical to the pre-refactor compiler.
   The legacy no-device path is itself pinned bit-for-bit to the seed
   monolith (``tests/compiler/test_pass_manager.py``), so equality with
   it *is* equality with the seed.
2. **Fingerprinting** — pulse/latency cache entries written under
   different devices never collide: heterogeneous devices get their own
   fingerprints and position-dependent keys, while homogeneous devices
   deliberately share entries (their physics is identical).
"""

import pytest

from repro.benchmarks.grover import grover_sqrt_circuit
from repro.benchmarks.ising import ising_model_circuit
from repro.benchmarks.qaoa import line_graph, maxcut_qaoa_circuit
from repro.circuit.circuit import Circuit
from repro.compiler.batch import BatchCompiler, BatchJob
from repro.compiler.pipeline import compile_circuit
from repro.compiler.strategies import CLS_AGGREGATION, all_strategies
from repro.config import DeviceConfig
from repro.control.cache import PulseCache
from repro.control.unit import OptimalControlUnit
from repro.device.device import Device
from repro.device.presets import device_by_key, paper_device_for
from repro.device.topology import LineTopology
from repro.errors import ConfigError
from repro.gates import library as lib
from repro.noise.decoherence import schedule_survival_probability


def _seed_benchmarks():
    serial = Circuit(3, name="serial-chain")
    serial.h(0).cnot(0, 1).t(1).cnot(1, 2).h(2).cnot(0, 1)
    return [
        maxcut_qaoa_circuit(line_graph(6), name="line6"),
        ising_model_circuit(5),
        grover_sqrt_circuit(2),
        serial,
    ]


def _assert_bit_identical(a, b):
    assert a.latency_ns == b.latency_ns
    assert a.swap_count == b.swap_count
    assert a.aggregation_merges == b.aggregation_merges
    assert a.lowered_gate_count == b.lowered_gate_count
    assert a.node_count == b.node_count
    assert a.physical_qubits == b.physical_qubits
    assert a.final_mapping == b.final_mapping
    assert a.initial_mapping == b.initial_mapping
    assert a.instruction_width_histogram() == b.instruction_width_histogram()


class TestPaperGridParity:
    """ISSUE acceptance: the default paper device stays bit-identical."""

    @pytest.mark.parametrize(
        "strategy", all_strategies(), ids=lambda s: s.key
    )
    def test_explicit_paper_device_matches_legacy_path(self, strategy):
        ocu = OptimalControlUnit(backend="model")
        for circuit in _seed_benchmarks():
            legacy = compile_circuit(circuit, strategy, ocu=ocu)
            device = paper_device_for(circuit.num_qubits)
            explicit = compile_circuit(
                circuit, strategy, ocu=ocu, device=device
            )
            by_key = compile_circuit(
                circuit, strategy, ocu=ocu, device=device.name
            )
            _assert_bit_identical(explicit, legacy)
            _assert_bit_identical(by_key, legacy)
            assert explicit.device_name == device.name
            assert legacy.device_name is None

    def test_batch_engine_parity_on_paper_devices(self):
        circuits = _seed_benchmarks()
        jobs = [
            BatchJob(
                circuit=circuit,
                strategy=CLS_AGGREGATION,
                device=paper_device_for(circuit.num_qubits),
            )
            for circuit in circuits
        ]
        report = BatchCompiler(max_workers=2).compile_batch(jobs)
        ocu = OptimalControlUnit(backend="model")
        for circuit, result in zip(circuits, report.results):
            _assert_bit_identical(
                result, compile_circuit(circuit, CLS_AGGREGATION, ocu=ocu)
            )

    def test_homogeneous_device_shares_the_legacy_fingerprint(self):
        # Homogeneous physics depends only on instruction structure, so
        # a full Device must not cold-start caches the bare-config path
        # already warmed (and vice versa).
        bare = OptimalControlUnit()
        wrapped = OptimalControlUnit(device=paper_device_for(6))
        other = OptimalControlUnit(device=device_by_key("ring-6"))
        assert bare.fingerprint == wrapped.fingerprint == other.fingerprint


class TestHeterogeneousFingerprints:
    """ISSUE acceptance: different devices never collide in the cache."""

    def _weak_edge_device(self, limit=0.01):
        return Device(
            topology=LineTopology(3),
            coupling_limits_ghz={(0, 1): limit},
        )

    def test_override_changes_fingerprint(self):
        plain = OptimalControlUnit(device=Device(topology=LineTopology(3)))
        weak = OptimalControlUnit(device=self._weak_edge_device())
        weaker = OptimalControlUnit(device=self._weak_edge_device(0.005))
        assert plain.fingerprint != weak.fingerprint
        assert weak.fingerprint != weaker.fingerprint

    def test_t1_override_keeps_fingerprint(self):
        # t1/t2 overrides feed the decoherence model, never a cached
        # latency or pulse — forking the fingerprint for them would
        # cold-start warm caches for entries that are in fact identical.
        plain = OptimalControlUnit(device=Device(topology=LineTopology(3)))
        short_lived = OptimalControlUnit(
            device=Device(topology=LineTopology(3), t1_us={0: 10.0})
        )
        assert plain.fingerprint == short_lived.fingerprint

    def test_logical_stage_queries_price_homogeneously(self):
        # Before placement, qubit indices are logical and name no device
        # edge: positional=False must ignore per-edge overrides (and
        # cache separately from the positional entries).
        cache = PulseCache()
        ocu = OptimalControlUnit(
            device=self._weak_edge_device(), cache=cache
        )
        logical = ocu.latency(lib.CNOT(0, 1), positional=False)
        physical = ocu.latency(lib.CNOT(0, 1))
        reference = OptimalControlUnit().latency(lib.CNOT(0, 1))
        assert logical == reference
        assert physical > logical
        assert cache.latency_count == 2  # distinct keys, no collision

    def test_context_prices_logical_then_physical(self):
        from repro.compiler.context import CompilationContext
        from repro.mapping.placement import initial_placement
        from repro.mapping.router import route

        device = self._weak_edge_device()
        circuit = maxcut_qaoa_circuit(line_graph(3), name="line3")
        context = CompilationContext.create(circuit, device=device)
        gate = lib.CNOT(0, 1)
        before = context.latency(gate)
        context.routing = route(
            [gate], initial_placement(circuit, device.topology)
        )
        after_routing = context.latency(gate)
        assert before == OptimalControlUnit().latency(gate)
        assert after_routing > before  # weak edge now applies

    def test_same_structure_on_different_edges_gets_distinct_entries(self):
        # On a heterogeneous device, a CNOT on the weak edge and a CNOT
        # on a nominal edge have identical *structure* but different
        # physics — the cache must keep (and price) them separately.
        cache = PulseCache()
        ocu = OptimalControlUnit(
            device=self._weak_edge_device(), cache=cache
        )
        weak = ocu.latency(lib.CNOT(0, 1))
        nominal = ocu.latency(lib.CNOT(1, 2))
        assert weak > nominal
        assert cache.latency_count == 2

    def test_shared_store_never_leaks_across_devices(self):
        # One store, two machines: entries written under the weak-edge
        # device must not answer queries from the homogeneous one.
        cache = PulseCache()
        weak_ocu = OptimalControlUnit(
            device=self._weak_edge_device(), cache=cache
        )
        weak = weak_ocu.latency(lib.CNOT(0, 1))
        plain_ocu = OptimalControlUnit(
            device=Device(topology=LineTopology(3)), cache=cache
        )
        plain = plain_ocu.latency(lib.CNOT(0, 1))
        assert plain < weak
        reference = OptimalControlUnit().latency(lib.CNOT(0, 1))
        assert plain == reference

    def test_weak_edges_slow_the_whole_compilation(self):
        # Under ISA pricing (one pulse per gate, schedule structure
        # unchanged) a weaker edge slows the makespan monotonically;
        # aggregating strategies may legitimately re-merge around it.
        from repro.compiler.strategies import ISA

        circuit = maxcut_qaoa_circuit(line_graph(3), name="line3")
        nominal = compile_circuit(
            circuit, ISA, device=Device(topology=LineTopology(3))
        )
        weak = compile_circuit(
            circuit,
            ISA,
            device=Device(
                topology=LineTopology(3),
                coupling_limits_ghz={(0, 1): 0.01, (1, 2): 0.01},
            ),
        )
        assert weak.latency_ns > nominal.latency_ns

    def test_mismatched_ocu_for_heterogeneous_device_rejected(self):
        # A shared homogeneous oracle would silently misprice a
        # heterogeneous device's edges.
        circuit = maxcut_qaoa_circuit(line_graph(3), name="line3")
        with pytest.raises(ConfigError, match="per-edge"):
            compile_circuit(
                circuit,
                CLS_AGGREGATION,
                ocu=OptimalControlUnit(),
                device=self._weak_edge_device(),
            )

    def test_heterogeneous_ocu_for_other_device_rejected(self):
        # ...and the reverse direction: an oracle carrying per-edge
        # overrides would misprice any other device's edges (including
        # the auto-sized default grid).
        circuit = maxcut_qaoa_circuit(line_graph(3), name="line3")
        hetero_ocu = OptimalControlUnit(device=self._weak_edge_device())
        with pytest.raises(ConfigError, match="misprice"):
            compile_circuit(
                circuit, CLS_AGGREGATION, ocu=hetero_ocu, device="line-3"
            )
        with pytest.raises(ConfigError, match="misprice"):
            compile_circuit(circuit, CLS_AGGREGATION, ocu=hetero_ocu)

    def test_t1_variant_devices_share_a_coupling_matched_ocu(self):
        # t1/t2 overrides never reach the oracle, so calibration
        # variants of the same chip must share one OCU without tripping
        # the matched-oracle guard.
        circuit = maxcut_qaoa_circuit(line_graph(3), name="line3")
        base = self._weak_edge_device()
        variant = Device(
            topology=base.topology,
            coupling_limits_ghz=dict(base.coupling_limits_ghz),
            t1_us={2: 20.0},
        )
        assert base.coupling_signature() == variant.coupling_signature()
        shared_ocu = OptimalControlUnit(device=base)
        result = compile_circuit(
            circuit, CLS_AGGREGATION, ocu=shared_ocu, device=variant
        )
        result.schedule.validate()
        assert shared_ocu.fingerprint == OptimalControlUnit(
            device=variant
        ).fingerprint

    @pytest.mark.slow
    def test_grape_nonpositional_latency_ignores_logical_labels(self):
        # Non-positional GRAPE pricing (logical stage) must not vary
        # with which logical labels happen to coincide with overridden
        # edges — the cache key carries no support, so any variation
        # would poison later queries.
        device = self._weak_edge_device()
        ocu = OptimalControlUnit(device=device, backend="grape")
        on_weak = ocu.latency(lib.CNOT(0, 1), positional=False)
        fresh = OptimalControlUnit(device=device, backend="grape")
        on_nominal = fresh.latency(lib.CNOT(1, 2), positional=False)
        assert on_weak == pytest.approx(on_nominal)

    def test_hand_optimization_prices_weak_edges(self):
        # The cls+hand backend bypasses the OCU via hand_latency_ns, so
        # it must read per-edge overrides itself; otherwise its
        # makespans on heterogeneous devices would silently underprice
        # overridden edges while every other strategy honors them.
        from repro.compiler.strategies import CLS_HAND

        circuit = maxcut_qaoa_circuit(line_graph(3), name="line3")
        nominal = compile_circuit(
            circuit, CLS_HAND, device=Device(topology=LineTopology(3))
        )
        weak = compile_circuit(
            circuit,
            CLS_HAND,
            device=Device(
                topology=LineTopology(3),
                coupling_limits_ghz={(0, 1): 0.01, (1, 2): 0.01},
            ),
        )
        assert weak.latency_ns > nominal.latency_ns

    def test_unnamed_device_keeps_provenance_in_figure9(self):
        from repro.experiments.figure9 import run_figure9
        from repro.device.topology import RingTopology

        rows = run_figure9(
            scale="small",
            strategies=["isa"],
            benchmark_keys=["maxcut-line-6"],
            device=Device(topology=RingTopology(6)),
        )
        assert rows[0].device == repr(Device(topology=RingTopology(6)))

    def test_preset_resolution_is_memoized(self):
        # Frozen + deterministic per key, so repeated resolutions share
        # one Device (and its warmed BFS caches).
        assert device_by_key("ring-6") is device_by_key("ring-6")
        assert device_by_key("heavy-hex-1") is device_by_key("heavy-hex-1")

    def test_matched_heterogeneous_ocu_accepted(self):
        circuit = maxcut_qaoa_circuit(line_graph(3), name="line3")
        device = self._weak_edge_device()
        result = compile_circuit(
            circuit,
            CLS_AGGREGATION,
            ocu=OptimalControlUnit(device=device),
            device=device,
        )
        result.schedule.validate()


class TestDeviceThreadedCompilation:
    """Non-grid devices compile end to end through every entry point."""

    @pytest.mark.parametrize(
        "key", ["ring-6", "heavy-hex-1", "all-to-all-6", "line-6"]
    )
    def test_compiles_and_validates_on_preset(self, key):
        circuit = maxcut_qaoa_circuit(line_graph(6), name="line6")
        result = compile_circuit(circuit, CLS_AGGREGATION, device=key)
        result.schedule.validate()
        assert result.device_name == key
        assert result.physical_qubits == device_by_key(key).num_qubits
        assert result.latency_ns > 0

    def test_all_to_all_needs_no_swaps(self):
        circuit = grover_sqrt_circuit(2)  # 9 qubits
        result = compile_circuit(circuit, CLS_AGGREGATION, device="all-to-all-9")
        assert result.swap_count == 0

    def test_engine_level_device_key(self):
        engine = BatchCompiler(device="ring-6", max_workers=1)
        circuit = ising_model_circuit(6)
        result = engine.compile(circuit, CLS_AGGREGATION)
        result.schedule.validate()
        assert result.device_name == "ring-6"
        assert result.physical_qubits == 6

    def test_figure9_rejects_unknown_benchmarks_and_empty_sweeps(self):
        # A typo'd --benchmarks or a too-small device must fail loudly,
        # not let a smoke job go green while compiling nothing.
        from repro.experiments.figure9 import run_figure9

        with pytest.raises(ConfigError, match="unknown benchmark"):
            run_figure9(scale="small", benchmark_keys=["maxcut-lin-6"])
        with pytest.raises(ConfigError, match="fits"):
            run_figure9(
                scale="small",
                benchmark_keys=["maxcut-line-6"],
                device="line-3",
            )

    def test_job_device_overrides_engine_device(self):
        # A job-level device, a bare coupling graph included, replaces
        # the engine's default machine.
        engine = BatchCompiler(device="ring-6", max_workers=1)
        circuit = ising_model_circuit(4)
        line = Device(topology=LineTopology(4))
        direct = engine.compile(circuit, CLS_AGGREGATION, device=line)
        assert direct.physical_qubits == 4
        report = engine.compile_batch(
            [BatchJob(circuit=circuit, strategy=CLS_AGGREGATION, device=line)]
        )
        _assert_bit_identical(report.results[0], direct)
        _assert_bit_identical(
            direct, compile_circuit(circuit, CLS_AGGREGATION, device=line)
        )

    def test_per_qubit_decoherence_overrides_survival(self):
        circuit = ising_model_circuit(4)
        homogeneous = Device(topology=LineTopology(4))
        lossy = Device(topology=LineTopology(4), t1_us={0: 5.0, 1: 5.0})
        result = compile_circuit(circuit, CLS_AGGREGATION, device=homogeneous)
        base = schedule_survival_probability(result.schedule, homogeneous)
        worse = schedule_survival_probability(result.schedule, lossy)
        flat = schedule_survival_probability(
            result.schedule, DeviceConfig()
        )
        assert worse < base
        assert base == pytest.approx(flat)
