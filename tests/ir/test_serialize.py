"""Unit tests for the repro.ir wire format (repro-ir-v1)."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.aggregation.instruction import AggregatedInstruction
from repro.circuit.circuit import Circuit
from repro.compiler.batch import BatchJob
from repro.compiler.hand_opt import HandOptimizedInstruction
from repro.compiler.pipeline import compile_circuit
from repro.config import CompilerConfig, DeviceConfig
from repro.control.cache import CacheDelta
from repro.control.grape import GrapeResult
from repro.control.pulse import Pulse
from repro.device.device import Device
from repro.device.presets import device_by_key
from repro.device.topology import (
    FullyConnectedTopology,
    GridTopology,
    HeavyHexTopology,
    LineTopology,
    RingTopology,
    Topology,
)
from repro.errors import GateError, SerializationError
from repro.gates import library as lib
from repro.gates.gate import Gate
from repro.ir import serialize
from repro.ir import (
    IR_FORMAT,
    batch_job_from_dict,
    batch_job_to_dict,
    cache_delta_from_dict,
    cache_delta_to_dict,
    canonical_result_dict,
    circuit_from_dict,
    circuit_to_dict,
    device_from_dict,
    device_to_dict,
    dumps,
    gate_from_dict,
    gate_to_dict,
    instruction_from_dict,
    instruction_to_dict,
    loads,
    pulse_from_dict,
    pulse_to_dict,
    result_from_dict,
    result_to_dict,
    schedule_from_dict,
    schedule_to_dict,
    topology_from_dict,
    topology_to_dict,
)
from repro.scheduling.schedule import Schedule


def _grape_result():
    pulse = Pulse(
        control_names=["xy"],
        amplitudes=np.array([[0.1], [0.2], [0.15]]),
        dt=0.5,
    )
    return GrapeResult(
        fidelity=0.9991,
        converged=True,
        iterations=17,
        pulse=pulse,
        final_unitary=np.eye(2, dtype=complex),
        loss_history=[0.5, 0.1, 0.0009],
    )


def _schedule():
    schedule = Schedule(3)
    schedule.add(lib.H(0), 0.0, 2.1)
    schedule.add(
        AggregatedInstruction([lib.CNOT(0, 1), lib.RZ(0.5, 1)], name="G9"),
        2.1,
        40.0,
    )
    schedule.add(lib.X(2), 0.0, 1.0)
    return schedule


def _cache_delta():
    delta = CacheDelta()
    delta.latencies[("fp", "model", ("CNOT", (), (0, 1)))] = 47.1
    delta.pulses[("fp", ("AGG", 2, ()))] = _grape_result()
    return delta


def _small_circuit():
    return Circuit(3, name="artifact").h(0).cnot(0, 1).rz(0.3, 1).cnot(1, 2)


def _lab_device():
    return Device(
        topology=GridTopology(2, 2),
        config=DeviceConfig(coupling_limit_ghz=0.025),
        name="lab-chip",
        t1_us={0: 40.0, 3: 55.5},
        t2_us={1: 21.25},
        coupling_limits_ghz={(0, 1): 0.015, (2, 3): 0.03},
    )


class TestGateRoundTrip:
    def test_named_gate_serializes_without_matrix(self):
        payload = gate_to_dict(lib.CNOT(0, 1))
        assert payload["format"] == IR_FORMAT
        assert "matrix" not in payload
        rebuilt = gate_from_dict(payload)
        assert rebuilt.signature == lib.CNOT(0, 1).signature
        assert np.array_equal(rebuilt.matrix, lib.CNOT(0, 1).matrix)

    def test_parameterized_gate_exact_params(self):
        theta = 0.1 + 0.2  # a float with no short decimal form
        gate = lib.RZ(theta, 3)
        rebuilt = gate_from_dict(json.loads(json.dumps(gate_to_dict(gate))))
        assert rebuilt.params == gate.params  # bit-equal floats
        assert np.array_equal(rebuilt.matrix, gate.matrix)

    def test_custom_unitary_ships_matrix(self):
        matrix = np.array(
            [[1, 0], [0, np.exp(1j * 0.123456789)]], dtype=complex
        )
        gate = Gate("MYGATE", (2,), matrix)
        payload = gate_to_dict(gate)
        assert "matrix" in payload
        rebuilt = gate_from_dict(json.loads(json.dumps(payload)))
        assert rebuilt.name == "MYGATE"
        assert np.array_equal(rebuilt.matrix, matrix)

    def test_daggered_name_falls_back_to_matrix(self):
        gate = lib.T(0).dagger().dagger()  # name "T" again but via matrices
        rebuilt = gate_from_dict(gate_to_dict(gate))
        assert np.array_equal(rebuilt.matrix, gate.matrix)
        odd = lib.S(1).dagger()  # "SDG" is in the library; "S_DG" is not
        weird = Gate("S_DG_X", odd.qubits, odd.matrix)
        payload = gate_to_dict(weird)
        assert "matrix" in payload
        assert np.array_equal(gate_from_dict(payload).matrix, odd.matrix)


def _gate_payload(name, qubits, params, **extra):
    return {
        "format": IR_FORMAT,
        "kind": "gate",
        "name": name,
        "qubits": qubits,
        "params": params,
        **extra,
    }


class TestGateDecodingRefuses:
    """A decoded gate is input from outside the program: what the library
    cannot build exactly as named, and a matrix that is not unitary, are
    refused rather than read as some other gate."""

    @pytest.mark.parametrize(
        "name, qubits, params",
        [
            ("RZ", [3, 4], []),  # was RZ(3)[4]
            ("CPHASE", [0, 1, 2], []),  # was CPHASE(0)[1, 2]
            ("CNOT", [0, 1, 2], []),  # was a TypeError from CNOT()
            ("RZ", [0], [0.1, 0.2]),
        ],
    )
    def test_wrong_counts(self, name, qubits, params):
        payload = _gate_payload(name, qubits, params)
        with pytest.raises(GateError, match="takes"):
            gate_from_dict(payload)
        with pytest.raises(GateError, match="takes"):
            loads(json.dumps(payload))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_angle(self, value):
        # json writes these as NaN / Infinity / -Infinity and reads them back.
        text = json.dumps(_gate_payload("RZ", [0], [float(value)]))
        with pytest.raises(GateError, match="RZ needs a finite angle"):
            loads(text)

    def test_non_unitary_custom_matrix(self):
        payload = _gate_payload(
            "BAD", [0], [], matrix=[[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        )
        with pytest.raises(GateError, match="not unitary"):
            gate_from_dict(payload)

    @pytest.mark.parametrize(
        "qubits",
        [
            [0.9, 2.5],  # was CNOT[0, 2]
            [True, 2],  # was CNOT[1, 2]
            ["1", "2"],  # was CNOT[1, 2]
        ],
        ids=str,
    )
    def test_non_integer_qubits(self, qubits):
        payload = _gate_payload("CNOT", qubits, [])
        with pytest.raises(GateError, match="is not an integer"):
            gate_from_dict(payload)
        with pytest.raises(GateError, match="is not an integer"):
            loads(json.dumps(payload))
        # A gate that ships its matrix is refused the same way.
        shipped = gate_to_dict(Gate("MINE", (0, 1), lib.CNOT(0, 1).matrix))
        shipped["qubits"] = qubits
        with pytest.raises(GateError, match="is not an integer"):
            gate_from_dict(shipped)

    @pytest.mark.parametrize(
        "params",
        [
            ["0.5"],  # was RZ(0.5)
            [True],  # was RZ(1)
        ],
        ids=str,
    )
    def test_non_real_params(self, params):
        payload = _gate_payload("RZ", [0], params)
        with pytest.raises(SerializationError, match="not a real number"):
            gate_from_dict(payload)
        with pytest.raises(SerializationError, match="not a real number"):
            loads(json.dumps(payload))

    def test_integer_params_still_decode(self):
        # JSON writes an integral float like 1.0 back as 1.0, but a
        # hand-written payload may say 1: still a real number.
        gate = gate_from_dict(_gate_payload("RZ", [0], [1]))
        assert gate.params == (1.0,)
        assert np.array_equal(gate.matrix, lib.RZ(1.0, 0).matrix)


class TestUnitarityChecksOnDecode:
    """Decoding checks unitarity only for matrices that did not come
    from the gate library."""

    @pytest.fixture
    def unitarity_checks(self, monkeypatch):
        import repro.gates.gate as gate_module

        calls = []
        check = gate_module.is_unitary

        def counted(matrix, *args, **kwargs):
            calls.append(matrix.shape)
            return check(matrix, *args, **kwargs)

        monkeypatch.setattr(gate_module, "is_unitary", counted)
        return calls

    @pytest.fixture(scope="class")
    def payload(self):
        result = compile_circuit(_small_circuit(), "cls+aggregation")
        return json.loads(json.dumps(result_to_dict(result)))

    def test_library_only_result(self, payload, unitarity_checks):
        result_from_dict(payload)
        assert unitarity_checks == []

    def test_library_only_job(self, unitarity_checks):
        job = BatchJob(circuit=_small_circuit(), strategy="cls")
        batch_job_from_dict(json.loads(json.dumps(batch_job_to_dict(job))))
        assert unitarity_checks == []

    def test_one_custom_gate_checked_once(self, payload, unitarity_checks):
        custom = Gate("MYH", (0,), lib.H(0).matrix)
        payload = json.loads(json.dumps(payload))
        payload["source_circuit"]["gates"][0] = gate_to_dict(custom)
        unitarity_checks.clear()
        rebuilt = result_from_dict(payload)
        assert rebuilt.source_circuit.gates[0].name == "MYH"
        assert unitarity_checks == [(2, 2)]


class TestInstructionRoundTrip:
    def test_aggregated_instruction(self):
        instr = AggregatedInstruction(
            [lib.CNOT(0, 1), lib.RZ(0.7, 1), lib.CNOT(0, 1)], name="blk"
        )
        rebuilt = instruction_from_dict(instruction_to_dict(instr))
        assert isinstance(rebuilt, AggregatedInstruction)
        assert not isinstance(rebuilt, HandOptimizedInstruction)
        assert rebuilt.name == "blk"
        assert rebuilt.signature == instr.signature
        assert np.array_equal(rebuilt.matrix, instr.matrix)

    def test_hand_optimized_instruction_keeps_latency(self):
        instr = HandOptimizedInstruction(
            [lib.CNOT(0, 1), lib.RZ(0.7, 1), lib.CNOT(0, 1)], 123.5
        )
        rebuilt = loads(dumps(instr))
        assert isinstance(rebuilt, HandOptimizedInstruction)
        assert rebuilt.hand_latency_ns == 123.5
        assert rebuilt.signature == instr.signature


class TestCircuitRoundTrip:
    def test_json_round_trip_preserves_everything(self):
        circuit = (
            Circuit(3, name="rt").h(0).cnot(0, 1).rz(0.25, 1).toffoli(0, 1, 2)
        )
        rebuilt = loads(dumps(circuit))
        assert rebuilt.name == circuit.name
        assert rebuilt.num_qubits == circuit.num_qubits
        assert [g.signature for g in rebuilt.gates] == [
            g.signature for g in circuit.gates
        ]
        for a, b in zip(circuit.gates, rebuilt.gates):
            assert np.array_equal(a.matrix, b.matrix)

    def test_repeated_instance_loads_as_separate_gates(self):
        layer = [lib.H(0), lib.CNOT(0, 1), lib.RZ(0.3, 1)]
        circuit = Circuit(2, name="repeat").extend(layer).extend(layer)
        text = dumps(circuit)
        rebuilt = loads(text)
        assert len(set(rebuilt.gates)) == len(rebuilt.gates) == 6
        assert dumps(rebuilt) == text

    def test_circuit_dict_rejects_wrong_kind(self):
        with pytest.raises(SerializationError, match="kind"):
            circuit_from_dict(gate_to_dict(lib.H(0)))

    @pytest.mark.parametrize("num_qubits", [3.9, "3", True], ids=repr)
    def test_non_integer_width_refused(self, num_qubits):
        # Both 3.9 and "3" were read as a 3-qubit register.
        payload = circuit_to_dict(Circuit(3).h(0))
        payload["num_qubits"] = num_qubits
        with pytest.raises(SerializationError, match="is not an integer"):
            circuit_from_dict(payload)
        with pytest.raises(SerializationError, match="is not an integer"):
            loads(json.dumps(payload))


class TestTopologyAndDevice:
    @pytest.mark.parametrize(
        "key",
        ["paper-grid-2x3", "line-4", "ring-5", "heavy-hex-1", "all-to-all-4"],
    )
    def test_preset_topology_round_trip(self, key):
        topology = device_by_key(key).topology
        rebuilt = topology_from_dict(topology_to_dict(topology))
        assert type(rebuilt) is type(topology)
        assert rebuilt.signature() == topology.signature()
        # Load-bearing orders survive, not just the edge set.
        assert rebuilt.placement_order() == topology.placement_order()
        assert all(
            rebuilt.neighbors(q) == topology.neighbors(q)
            for q in range(topology.num_qubits)
        )

    def test_generic_graph_round_trip(self):
        topology = Topology(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        rebuilt = topology_from_dict(topology_to_dict(topology))
        assert type(rebuilt) is Topology
        assert rebuilt.signature() == topology.signature()

    def test_custom_topology_subclass_rejected(self):
        class Oddball(Topology):
            kind = "oddball"

        with pytest.raises(SerializationError, match="custom topology"):
            topology_to_dict(Oddball(2, [(0, 1)]))

    def test_heterogeneous_device_round_trip(self):
        device = _lab_device()
        rebuilt = device_from_dict(json.loads(json.dumps(device_to_dict(device))))
        assert rebuilt.name == "lab-chip"
        assert rebuilt.signature() == device.signature()
        assert rebuilt.coupling_signature() == device.coupling_signature()
        assert rebuilt.config == device.config

    def test_config_fingerprint_identical_after_round_trip(self):
        from repro.control.cache import config_fingerprint

        device = Device(
            topology=GridTopology(2, 2),
            coupling_limits_ghz={(0, 1): 0.011},
        )
        compiler = CompilerConfig(max_instruction_width=6)
        rebuilt_device = device_from_dict(device_to_dict(device))
        rebuilt_compiler = loads(dumps(compiler))
        assert config_fingerprint(
            device.config, compiler, grape_qubit_limit=3, seed=1, target=device
        ) == config_fingerprint(
            rebuilt_device.config,
            rebuilt_compiler,
            grape_qubit_limit=3,
            seed=1,
            target=rebuilt_device,
        )


class TestScheduleRoundTrip:
    def test_schedule_round_trip(self):
        schedule = _schedule()
        rebuilt = schedule_from_dict(
            json.loads(json.dumps(schedule_to_dict(schedule)))
        )
        assert rebuilt.num_qubits == 3
        assert len(rebuilt) == 3
        assert rebuilt.makespan == schedule.makespan
        assert [op.node_id for op in rebuilt] == [0, 1, 2]
        assert [
            node.signature for node in rebuilt.ordered_nodes()
        ] == [node.signature for node in schedule.ordered_nodes()]
        rebuilt.validate()

    def test_unknown_node_reference_rejected(self):
        payload = schedule_to_dict(Schedule(1))
        payload["operations"] = [{"node": 7, "start": 0.0, "duration": 1.0}]
        with pytest.raises(SerializationError, match="unknown node id"):
            schedule_from_dict(payload)


class TestPulseAndDelta:
    def test_pulse_round_trip(self):
        pulse = _grape_result().pulse
        rebuilt = pulse_from_dict(json.loads(json.dumps(pulse_to_dict(pulse))))
        assert rebuilt.control_names == pulse.control_names
        assert rebuilt.dt == pulse.dt
        assert np.array_equal(rebuilt.amplitudes, pulse.amplitudes)

    def test_cache_delta_round_trip(self):
        delta = _cache_delta()
        rebuilt = cache_delta_from_dict(
            json.loads(json.dumps(cache_delta_to_dict(delta)))
        )
        assert rebuilt.latencies == delta.latencies
        (key,) = rebuilt.pulses
        assert key == ("fp", ("AGG", 2, ()))
        original = delta.pulses[key]
        restored = rebuilt.pulses[key]
        assert restored.fidelity == original.fidelity
        assert np.array_equal(
            restored.pulse.amplitudes, original.pulse.amplitudes
        )
        assert np.array_equal(
            restored.final_unitary, original.final_unitary
        )


class TestResultArtifacts:
    @pytest.fixture(scope="class")
    def result(self):
        return compile_circuit(_small_circuit(), "cls+aggregation")

    def test_save_load_preserves_metrics_and_verifies(self, tmp_path, result):
        path = result.save(tmp_path / "artifact.json")
        loaded = type(result).load(path)
        assert loaded.latency_ns == result.latency_ns
        assert loaded.swap_count == result.swap_count
        assert loaded.aggregation_merges == result.aggregation_merges
        assert loaded.final_mapping == result.final_mapping
        assert loaded.initial_mapping == result.initial_mapping
        assert loaded.verify_equivalence()

    @pytest.mark.parametrize("step", ["fsync", "replace"])
    def test_failed_save_keeps_previous_artifact(
        self, tmp_path, monkeypatch, result, step
    ):
        import os

        path = result.save(tmp_path / "a.json")
        previous = (tmp_path / "a.json").read_bytes()

        def fail(*args):
            raise OSError(f"injected {step} failure")

        monkeypatch.setattr(os, step, fail)
        with pytest.raises(OSError, match="injected"):
            result.save(path)
        monkeypatch.undo()
        assert (tmp_path / "a.json").read_bytes() == previous
        assert os.listdir(tmp_path) == ["a.json"]

    def test_save_without_source_cannot_self_verify(self, tmp_path, result):
        from repro.errors import VerificationError

        path = result.save(tmp_path / "bare.json", include_source=False)
        loaded = type(result).load(path)
        assert loaded.source_circuit is None
        with pytest.raises(VerificationError, match="source circuit"):
            loaded.verify_equivalence()
        # ... but verifies fine against an explicitly supplied circuit.
        assert loaded.verify_equivalence(result.source_circuit)

    def test_generic_loads_dispatches_result(self, result):
        rebuilt = loads(dumps(result))
        assert rebuilt.latency_ns == result.latency_ns
        assert dumps(rebuilt) == dumps(result)

    def test_payload_with_per_stage_timings_still_loads(self, result):
        # Results once also carried a per-stage timing map; artifacts
        # and result-cache entries written then load as the same result.
        payload = result_to_dict(result)
        payload["stage_seconds"] = {"lowering": 0.01, "backend": 0.02}
        loaded = result_from_dict(payload)
        assert not hasattr(loaded, "stage_seconds")
        assert loaded.pass_seconds == result.pass_seconds
        assert canonical_result_dict(loaded) == canonical_result_dict(result)

    def test_canonical_dict_renumbers_auto_names(self, result):
        payload = canonical_result_dict(result)
        assert "pass_seconds" not in payload
        auto_names = [
            entry["node"]["name"]
            for entry in payload["schedule"]["nodes"]
            if entry["node"]["kind"] == "instruction"
        ]
        assert auto_names == [f"G{i + 1}" for i in range(len(auto_names))]


class TestEnvelope:
    def test_wrong_format_rejected(self):
        payload = gate_to_dict(lib.H(0))
        payload["format"] = "repro-ir-v999"
        with pytest.raises(SerializationError, match="unknown IR format"):
            gate_from_dict(payload)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SerializationError, match="unknown artifact kind"):
            loads(json.dumps({"format": IR_FORMAT, "kind": "mystery"}))

    def test_invalid_json_rejected(self):
        with pytest.raises(SerializationError, match="not valid JSON"):
            loads("{nope")

    def test_unknown_top_level_keys_ignored(self):
        payload = circuit_to_dict(Circuit(1, name="fw").h(0))
        payload["added_in_a_future_minor_version"] = {"whatever": 1}
        rebuilt = circuit_from_dict(payload)
        assert rebuilt.name == "fw"


#: ``id -> (kind, factory)``: one artifact per type ``dumps`` dispatches
#: on, and one per topology family.
_ARTIFACTS = {
    "library-gate": ("gate", lambda: lib.RZ(0.1 + 0.2, 3)),
    "custom-gate": (
        "gate",
        lambda: Gate("MYGATE", (2,), np.diag([1, np.exp(1j * 0.123456789)])),
    ),
    "circuit": ("circuit", _small_circuit),
    "aggregated-instruction": (
        "instruction",
        lambda: AggregatedInstruction(
            [lib.CNOT(0, 1), lib.RZ(0.7, 1), lib.CNOT(0, 1)], name="blk"
        ),
    ),
    "hand-optimized-instruction": (
        "instruction",
        lambda: HandOptimizedInstruction(
            [lib.CNOT(0, 1), lib.RZ(0.7, 1), lib.CNOT(0, 1)], 123.5
        ),
    ),
    "schedule": ("schedule", _schedule),
    "grid": ("topology", lambda: GridTopology(2, 3)),
    "line": ("topology", lambda: LineTopology(4)),
    "ring": ("topology", lambda: RingTopology(5)),
    "heavy-hex": ("topology", lambda: HeavyHexTopology(1)),
    "all-to-all": ("topology", lambda: FullyConnectedTopology(4)),
    "graph": ("topology", lambda: Topology(4, [(0, 1), (1, 2), (2, 3), (3, 0)])),
    "device": ("device", _lab_device),
    "device-config": ("device_config", lambda: DeviceConfig(t1_us=80.0)),
    "compiler-config": (
        "compiler_config",
        lambda: CompilerConfig(max_instruction_width=6),
    ),
    "pulse": ("pulse", lambda: _grape_result().pulse),
    "grape-result": ("grape_result", _grape_result),
    "cache-delta": ("cache_delta", _cache_delta),
    "result": (
        "result",
        lambda: compile_circuit(_small_circuit(), "cls+aggregation"),
    ),
    "job": (
        "job",
        lambda: BatchJob(
            circuit=_small_circuit(),
            strategy="cls",
            width_limit=2,
            label="artifact/cls",
            device="ring-6",
        ),
    ),
}

#: Kinds whose payload is a plain stats or status dict: ``dumps`` passes
#: a dict through, so no artifact type dispatches to them.
_DICT_KINDS = {"cache_stats", "job_status", "service_stats"}


class TestDumpsEveryKind:
    @pytest.mark.parametrize("name", sorted(_ARTIFACTS))
    def test_loads_rebuilds_the_type_and_the_text(self, name):
        kind, factory = _ARTIFACTS[name]
        artifact = factory()
        text = dumps(artifact)
        assert json.loads(text)["kind"] == kind
        rebuilt = loads(text)
        assert type(rebuilt) is type(artifact)
        assert dumps(rebuilt) == text

    def test_every_artifact_kind_is_covered(self):
        covered = {kind for kind, _ in _ARTIFACTS.values()}
        assert covered == set(serialize._LOADERS) - _DICT_KINDS

    def test_unknown_type_rejected(self):
        with pytest.raises(SerializationError, match="no wire format"):
            dumps(object())


class TestOneSpelling:
    def test_no_class_defines_a_conversion_method(self):
        """Artifacts convert only through :mod:`repro.ir.serialize`: no
        class carries its own ``to_dict``/``from_dict``/``to_json``/
        ``from_json`` spelling."""
        root = Path(repro.__file__).parent
        spellings = {"to_dict", "from_dict", "to_json", "from_json"}
        found = []
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.ClassDef):
                    continue
                found.extend(
                    f"{path.relative_to(root)}::{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name in spellings
                )
        assert found == []
