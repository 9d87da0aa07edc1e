"""The versioned JSON wire format of every compiler artifact.

Format version: :data:`IR_FORMAT` (``repro-ir-v1``).  Every payload is a
plain dictionary of JSON types carrying two envelope keys — ``format``
(the version tag, checked on load) and ``kind`` (the artifact type,
dispatched by :func:`loads`).  Numbers round-trip exactly: Python's
``json`` serializes floats via ``repr``, which is lossless for IEEE-754
doubles, so gate parameters, times and amplitudes come back bit-equal
and every structural ``signature`` / ``config_fingerprint`` computed
from a deserialized artifact matches the original's.

Gates serialize *by name* when the gate library can rebuild an identical
matrix from ``(name, qubits, params)`` — the common case after lowering —
and fall back to an explicit complex matrix (nested ``[re, im]`` pairs)
for custom unitaries, so arbitrary gates survive the trip at the cost of
a larger payload.

Stability guarantees of ``repro-ir-v1``:

* a payload written by version N loads in any later patch of N;
* unknown *top-level* keys are ignored on load (forward-compatible
  additions), but a different ``format`` tag is rejected loudly;
* schedule nodes are referenced by their stable integer ``node_id``
  (insertion order), never by process-local ``id()``.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import json
from typing import TYPE_CHECKING

import numpy as np

from repro.circuit.circuit import Circuit
from repro.config import CompilerConfig, DeviceConfig
from repro.control.grape import GrapeResult
from repro.control.pulse import Pulse
from repro.device.device import Device
from repro.device.topology import (
    FullyConnectedTopology,
    GridTopology,
    HeavyHexTopology,
    LineTopology,
    RingTopology,
    Topology,
)
from repro.errors import GateError, SerializationError
from repro.gates.gate import Gate
from repro.gates.library import gate_from_name

if TYPE_CHECKING:
    from repro.aggregation.instruction import AggregatedInstruction
    from repro.compiler.result import CompilationResult
    from repro.control.cache import CacheDelta
    from repro.scheduling.schedule import Schedule

IR_FORMAT = "repro-ir-v1"


# ----------------------------------------------------------------------
# Envelope helpers


def _envelope(kind: str, payload: dict) -> dict:
    return {"format": IR_FORMAT, "kind": kind, **payload}


def _check(payload, kind: str) -> dict:
    if not isinstance(payload, dict):
        raise SerializationError(
            f"expected a {kind!r} payload dictionary, got {type(payload).__name__}"
        )
    found = payload.get("format")
    if found != IR_FORMAT:
        raise SerializationError(
            f"unknown IR format {found!r} (this build reads {IR_FORMAT!r})"
        )
    found_kind = payload.get("kind")
    if found_kind != kind:
        raise SerializationError(
            f"expected kind {kind!r}, got {found_kind!r}"
        )
    return payload


def _matrix_to_wire(matrix: np.ndarray) -> list:
    """Complex matrix as nested ``[re, im]`` pairs (exact floats)."""
    matrix = np.asarray(matrix, dtype=complex)
    return [
        [[float(entry.real), float(entry.imag)] for entry in row]
        for row in matrix
    ]


def _matrix_from_wire(rows: list) -> np.ndarray:
    try:
        matrix = np.array(
            [[complex(re, im) for re, im in row] for row in rows],
            dtype=complex,
        )
    except (TypeError, ValueError) as error:
        raise SerializationError(f"malformed matrix payload: {error}") from None
    return matrix


# ----------------------------------------------------------------------
# Gates and instructions


@functools.lru_cache(maxsize=4096)
def _library_matrix(
    name: str, arity: int, params: tuple
) -> np.ndarray | None:
    """The gate library's matrix for ``(name, params)``, or None.

    Library matrices do not depend on the concrete qubit labels (those
    only say where the matrix applies), so one memoized build per
    ``(name, arity, params)`` serves every occurrence.  Without it,
    encoding would build one library matrix per gate just to compare it
    with the gate's own, and ``result_to_dict`` would take more than
    twice as long.
    """
    try:
        return gate_from_name(name, tuple(range(arity)), params).matrix
    except GateError:
        return None


def gate_to_dict(gate: Gate) -> dict:
    """Wire form of one gate.

    Library gates (every mnemonic :func:`~repro.gates.library.gate_from_name`
    accepts, with a bit-identical reconstructed matrix) carry only
    ``(name, qubits, params)``; anything else — custom unitaries,
    daggered names, renamed gates — ships its matrix explicitly.
    """
    payload = {
        "name": gate.name,
        "qubits": list(gate.qubits),
        "params": list(gate.params),
    }
    library = _library_matrix(gate.name, len(gate.qubits), gate.params)
    if library is not None and np.array_equal(library, gate.matrix):
        return _envelope("gate", payload)
    payload["matrix"] = _matrix_to_wire(gate.matrix)
    return _envelope("gate", payload)


def gate_from_dict(payload: dict) -> Gate:
    """The gate a payload encodes.

    Qubits pass to the gate unconverted, so one that is not an integer
    is refused (:class:`~repro.errors.GateError`) instead of truncated
    into a different qubit, and a parameter that is not a real number
    (a bool or a string included) is refused here.
    """
    payload = _check(payload, "gate")
    name = payload["name"]
    qubits = payload["qubits"]
    params = payload["params"]
    for param in params:
        if isinstance(param, bool) or not isinstance(param, (int, float)):
            raise SerializationError(
                f"gate {name!r} parameter {param!r} is not a real number"
            )
    if "matrix" in payload:
        return Gate(name, qubits, _matrix_from_wire(payload["matrix"]), params)
    return gate_from_name(name, qubits, params)


def instruction_to_dict(instruction) -> dict:
    """Wire form of an aggregated (or hand-optimized) instruction."""
    from repro.compiler.hand_opt import HandOptimizedInstruction

    payload: dict = {
        "name": instruction.name,
        "gates": [gate_to_dict(gate) for gate in instruction.gates],
    }
    if isinstance(instruction, HandOptimizedInstruction):
        payload["hand_latency_ns"] = float(instruction.hand_latency_ns)
    return _envelope("instruction", payload)


def instruction_from_dict(payload: dict) -> AggregatedInstruction:
    from repro.aggregation.instruction import AggregatedInstruction
    from repro.compiler.hand_opt import HandOptimizedInstruction

    payload = _check(payload, "instruction")
    gates = [gate_from_dict(entry) for entry in payload["gates"]]
    name = payload["name"]
    if "hand_latency_ns" in payload:
        return HandOptimizedInstruction(
            gates, float(payload["hand_latency_ns"]), name=name
        )
    return AggregatedInstruction(gates, name=name)


def node_to_dict(node) -> dict:
    """Wire form of any schedule node (gate or instruction)."""
    from repro.aggregation.instruction import AggregatedInstruction

    if isinstance(node, AggregatedInstruction):
        return instruction_to_dict(node)
    if isinstance(node, Gate):
        return gate_to_dict(node)
    raise SerializationError(
        f"cannot serialize schedule node {node!r} "
        f"(expected a Gate or AggregatedInstruction)"
    )


def node_from_dict(payload: dict) -> Gate | AggregatedInstruction:
    kind = payload.get("kind") if isinstance(payload, dict) else None
    if kind == "instruction":
        return instruction_from_dict(payload)
    return gate_from_dict(payload)


# ----------------------------------------------------------------------
# Circuits


def circuit_to_dict(circuit: Circuit) -> dict:
    return _envelope(
        "circuit",
        {
            "name": circuit.name,
            "num_qubits": circuit.num_qubits,
            "gates": [gate_to_dict(gate) for gate in circuit.gates],
        },
    )


def circuit_from_dict(payload: dict) -> Circuit:
    payload = _check(payload, "circuit")
    num_qubits = payload["num_qubits"]
    if isinstance(num_qubits, bool) or not isinstance(num_qubits, int):
        raise SerializationError(
            f"circuit num_qubits {num_qubits!r} is not an integer"
        )
    circuit = Circuit(num_qubits, name=payload["name"])
    circuit.extend(gate_from_dict(entry) for entry in payload["gates"])
    return circuit


# ----------------------------------------------------------------------
# Topologies and devices


def topology_to_dict(topology: Topology) -> dict:
    """Wire form of a coupling graph.

    Structured families serialize their *constructor parameters* (grid
    rows/cols, heavy-hex distance, ...) so the exact subclass — with its
    load-bearing neighbour order and placement order — is rebuilt on
    load; a plain :class:`Topology` serializes its edge list.
    """
    if isinstance(topology, LineTopology):
        payload = {"family": "line", "num_qubits": topology.cols}
    elif isinstance(topology, GridTopology):
        payload = {"family": "grid", "rows": topology.rows, "cols": topology.cols}
    elif isinstance(topology, RingTopology):
        payload = {"family": "ring", "num_qubits": topology.num_qubits}
    elif isinstance(topology, HeavyHexTopology):
        payload = {"family": "heavy-hex", "distance": topology.distance_param}
    elif isinstance(topology, FullyConnectedTopology):
        payload = {"family": "all-to-all", "num_qubits": topology.num_qubits}
    elif type(topology) is Topology:
        payload = {
            "family": "graph",
            "num_qubits": topology.num_qubits,
            "edges": [list(edge) for edge in topology.edges()],
        }
    else:
        # An unknown subclass may override distances/orders; silently
        # flattening it to a generic graph would change placement.
        raise SerializationError(
            f"cannot serialize custom topology subclass "
            f"{type(topology).__name__}; serialize its defining parameters "
            f"yourself or use a plain Topology"
        )
    return _envelope("topology", payload)


def topology_from_dict(payload: dict) -> Topology:
    payload = _check(payload, "topology")
    family = payload.get("family")
    if family == "line":
        return LineTopology(int(payload["num_qubits"]))
    if family == "grid":
        return GridTopology(int(payload["rows"]), int(payload["cols"]))
    if family == "ring":
        return RingTopology(int(payload["num_qubits"]))
    if family == "heavy-hex":
        return HeavyHexTopology(int(payload["distance"]))
    if family == "all-to-all":
        return FullyConnectedTopology(int(payload["num_qubits"]))
    if family == "graph":
        return Topology(
            int(payload["num_qubits"]),
            [(int(a), int(b)) for a, b in payload["edges"]],
        )
    raise SerializationError(f"unknown topology family {family!r}")


def device_config_to_dict(config: DeviceConfig) -> dict:
    return _envelope("device_config", dataclasses.asdict(config))


def device_config_from_dict(payload: dict) -> DeviceConfig:
    payload = _check(payload, "device_config")
    fields = {f.name for f in dataclasses.fields(DeviceConfig)}
    return DeviceConfig(**{k: payload[k] for k in fields if k in payload})


def compiler_config_to_dict(config: CompilerConfig) -> dict:
    return _envelope("compiler_config", dataclasses.asdict(config))


def compiler_config_from_dict(payload: dict) -> CompilerConfig:
    payload = _check(payload, "compiler_config")
    fields = {f.name for f in dataclasses.fields(CompilerConfig)}
    return CompilerConfig(**{k: payload[k] for k in fields if k in payload})


def device_to_dict(device: Device) -> dict:
    """Wire form of a full compilation target (topology + overrides)."""
    return _envelope(
        "device",
        {
            "name": device.name,
            "topology": topology_to_dict(device.topology),
            "config": device_config_to_dict(device.config),
            "t1_us": [[int(q), float(v)] for q, v in sorted(device.t1_us.items())],
            "t2_us": [[int(q), float(v)] for q, v in sorted(device.t2_us.items())],
            "coupling_limits_ghz": [
                [int(a), int(b), float(v)]
                for (a, b), v in sorted(device.coupling_limits_ghz.items())
            ],
        },
    )


def device_from_dict(payload: dict) -> Device:
    payload = _check(payload, "device")
    return Device(
        topology=topology_from_dict(payload["topology"]),
        config=device_config_from_dict(payload["config"]),
        name=payload.get("name"),
        t1_us={int(q): float(v) for q, v in payload.get("t1_us", ())},
        t2_us={int(q): float(v) for q, v in payload.get("t2_us", ())},
        coupling_limits_ghz={
            (int(a), int(b)): float(v)
            for a, b, v in payload.get("coupling_limits_ghz", ())
        },
    )


# ----------------------------------------------------------------------
# Schedules


def schedule_to_dict(schedule) -> dict:
    """Wire form of a schedule: a node table plus timed references.

    The node table carries one entry per operation under its stable
    ``node_id`` (``Schedule.add`` assigns insertion indices, so the
    table is 1:1 with the operation list); operations reference ids,
    keeping the timed triples compact and the node payloads addressable.
    """
    return _envelope(
        "schedule",
        {
            "num_qubits": schedule.num_qubits,
            "nodes": [
                {"id": op.node_id, "node": node_to_dict(op.node)}
                for op in schedule.operations
            ],
            "operations": [
                {"node": op.node_id, "start": op.start, "duration": op.duration}
                for op in schedule.operations
            ],
        },
    )


def schedule_from_dict(payload: dict) -> Schedule:
    from repro.scheduling.schedule import Schedule

    payload = _check(payload, "schedule")
    table = {}
    for entry in payload["nodes"]:
        node_id = int(entry["id"])
        if node_id in table:
            raise SerializationError(
                f"schedule payload repeats node id {node_id}"
            )
        table[node_id] = node_from_dict(entry["node"])
    schedule = Schedule(int(payload["num_qubits"]))
    for record in payload["operations"]:
        node_id = int(record["node"])
        if node_id not in table:
            raise SerializationError(
                f"schedule operation references unknown node id {node_id}"
            )
        schedule.add(
            table[node_id], float(record["start"]), float(record["duration"])
        )
    return schedule


# ----------------------------------------------------------------------
# Pulses and optimal-control results


def pulse_to_dict(pulse: Pulse) -> dict:
    return _envelope(
        "pulse",
        {
            "control_names": list(pulse.control_names),
            "dt": float(pulse.dt),
            "amplitudes": [
                [float(v) for v in row] for row in np.asarray(pulse.amplitudes)
            ],
        },
    )


def pulse_from_dict(payload: dict) -> Pulse:
    payload = _check(payload, "pulse")
    amplitudes = np.array(payload["amplitudes"], dtype=float)
    if amplitudes.size == 0:
        amplitudes = amplitudes.reshape(0, len(payload["control_names"]))
    return Pulse(
        control_names=list(payload["control_names"]),
        amplitudes=amplitudes,
        dt=float(payload["dt"]),
    )


def grape_result_to_dict(result: GrapeResult) -> dict:
    return _envelope(
        "grape_result",
        {
            "fidelity": float(result.fidelity),
            "converged": bool(result.converged),
            "iterations": int(result.iterations),
            "pulse": pulse_to_dict(result.pulse),
            "final_unitary": _matrix_to_wire(result.final_unitary),
            "loss_history": [float(x) for x in result.loss_history],
        },
    )


def grape_result_from_dict(payload: dict) -> GrapeResult:
    payload = _check(payload, "grape_result")
    return GrapeResult(
        fidelity=float(payload["fidelity"]),
        converged=bool(payload["converged"]),
        iterations=int(payload["iterations"]),
        pulse=pulse_from_dict(payload["pulse"]),
        final_unitary=_matrix_from_wire(payload["final_unitary"]),
        loss_history=[float(x) for x in payload["loss_history"]],
    )


# ----------------------------------------------------------------------
# Cache deltas (process workers, the cache server's push_delta and the
# disk pulse store's shard files)


def cache_delta_to_dict(delta) -> dict:
    """Wire and disk form of a cache delta.

    Structural signatures are pure literals serialized with
    :func:`repr` and parsed back with :func:`ast.literal_eval`, so the
    round trip is exact.
    """
    return _envelope(
        "cache_delta",
        {
            "latencies": [
                [fingerprint, backend, repr(signature), float(value)]
                for (fingerprint, backend, signature), value
                in delta.latencies.items()
            ],
            "pulses": [
                {
                    "fingerprint": fingerprint,
                    "signature": repr(signature),
                    "result": grape_result_to_dict(result),
                }
                for (fingerprint, signature), result in delta.pulses.items()
            ],
        },
    )


def cache_delta_from_dict(payload: dict) -> CacheDelta:
    from repro.control.cache import CacheDelta

    payload = _check(payload, "cache_delta")
    delta = CacheDelta()
    for fingerprint, backend, signature, value in payload["latencies"]:
        delta.latencies[
            (fingerprint, backend, ast.literal_eval(signature))
        ] = float(value)
    for record in payload["pulses"]:
        delta.pulses[
            (record["fingerprint"], ast.literal_eval(record["signature"]))
        ] = grape_result_from_dict(record["result"])
    return delta


def cache_stats_to_dict(stats: dict) -> dict:
    """Wire form of a cache backend's ``stats()`` dict.

    The payload is already flat JSON-safe scalars (plus one nested
    request-count map on the server side); the envelope only adds the
    format/kind header so stats can travel the same channels as every
    other artifact (the cache server's ``stats`` op, bench reports).
    """
    return _envelope("cache_stats", {"stats": dict(stats)})


def cache_stats_from_dict(payload: dict) -> dict:
    payload = _check(payload, "cache_stats")
    return dict(payload["stats"])


# ----------------------------------------------------------------------
# Compilation results


def result_to_dict(result, include_source: bool = True) -> dict:
    """Wire form of a whole compilation result.

    ``include_source=False`` drops the source circuit (smaller payload);
    the loaded result then cannot ``verify_equivalence()`` without an
    explicit circuit argument.
    """
    payload = {
        "strategy_key": result.strategy_key,
        "circuit_name": result.circuit_name,
        "logical_qubits": int(result.logical_qubits),
        "physical_qubits": int(result.physical_qubits),
        "schedule": schedule_to_dict(result.schedule),
        "latency_ns": float(result.latency_ns),
        "swap_count": int(result.swap_count),
        "lowered_gate_count": int(result.lowered_gate_count),
        "aggregation_merges": int(result.aggregation_merges),
        "pass_seconds": {k: float(v) for k, v in result.pass_seconds.items()},
        "final_mapping": [
            [int(k), int(v)] for k, v in sorted(result.final_mapping.items())
        ],
        "initial_mapping": [
            [int(k), int(v)] for k, v in sorted(result.initial_mapping.items())
        ],
        "device_name": result.device_name,
    }
    source = getattr(result, "source_circuit", None)
    if include_source and source is not None:
        payload["source_circuit"] = circuit_to_dict(source)
    return _envelope("result", payload)


def result_from_dict(payload: dict) -> CompilationResult:
    """The result a ``result`` envelope encodes; unknown keys are ignored."""
    from repro.compiler.result import CompilationResult

    payload = _check(payload, "result")
    source = payload.get("source_circuit")
    return CompilationResult(
        strategy_key=payload["strategy_key"],
        circuit_name=payload["circuit_name"],
        logical_qubits=int(payload["logical_qubits"]),
        physical_qubits=int(payload["physical_qubits"]),
        schedule=schedule_from_dict(payload["schedule"]),
        latency_ns=float(payload["latency_ns"]),
        swap_count=int(payload["swap_count"]),
        lowered_gate_count=int(payload["lowered_gate_count"]),
        aggregation_merges=int(payload["aggregation_merges"]),
        final_mapping={int(k): int(v) for k, v in payload["final_mapping"]},
        initial_mapping={int(k): int(v) for k, v in payload["initial_mapping"]},
        pass_seconds={k: float(v) for k, v in payload["pass_seconds"].items()},
        device_name=payload.get("device_name"),
        source_circuit=circuit_from_dict(source) if source else None,
    )


def canonical_result_dict(result) -> dict:
    """Machine-independent identity of a result (for parity checks).

    Two compilations of the same job are *semantically* identical when
    their canonical dictionaries are equal.  Relative to
    :func:`result_to_dict` this drops the wall-clock instrumentation
    (``pass_seconds``, which legitimately varies run to run) and
    renumbers auto-generated aggregated-instruction names (``G<n>``,
    minted from a process-global counter whose value depends on
    scheduling history) in schedule order.  Everything that matters —
    node structure, times, mappings, counts — is compared exactly.
    """
    import re

    payload = result_to_dict(result, include_source=True)
    payload.pop("pass_seconds", None)
    auto_name = re.compile(r"^G\d+$")
    counter = 0
    for entry in payload["schedule"]["nodes"]:
        node = entry["node"]
        if node.get("kind") == "instruction" and auto_name.match(node["name"]):
            counter += 1
            node["name"] = f"G{counter}"
    return payload


# ----------------------------------------------------------------------
# Compile-service jobs and status reports


def batch_job_to_dict(job) -> dict:
    """Wire form of one :class:`~repro.compiler.batch.BatchJob`.

    This is the submission unit of the compile service: everything a
    remote worker needs to compile the job — circuit, strategy key,
    width limit, label, optional per-job device — and nothing
    process-local.  Strategies travel by registered key and are
    re-resolved on the far side, so a job with an unregistered strategy
    is rejected here, with the same rationale as the batch engine's
    process executor.
    """
    from repro.compiler.strategies import strategy_by_key
    from repro.errors import ConfigError

    try:
        strategy_by_key(job.strategy.key)
    except ConfigError:
        raise SerializationError(
            f"job {job.key!r} uses unregistered strategy "
            f"{job.strategy.key!r}: the far side rebuilds strategies from "
            f"their registered keys, so register it (register_strategy) "
            f"before submitting"
        ) from None
    payload = {
        "circuit": circuit_to_dict(job.circuit),
        "strategy_key": job.strategy.key,
        "width_limit": job.width_limit,
        "label": job.label,
    }
    if job.device is not None:
        payload["device"] = device_to_dict(job.device)
    return _envelope("job", payload)


def batch_job_from_dict(payload: dict):
    """The :class:`~repro.compiler.batch.BatchJob` an envelope encodes.

    Envelopes written before jobs had one spelling per setting carry
    ``"pulse_backend": null``, which loads as the same job (and so the
    same result key).  A non-null ``pulse_backend`` or a bare
    ``topology`` named a job this build no longer compiles; ignoring
    either would silently compile a different job, so both are
    rejected, unlike other unknown keys.
    """
    from repro.compiler.batch import BatchJob

    payload = _check(payload, "job")
    if payload.get("pulse_backend") is not None:
        raise SerializationError(
            "job envelope sets pulse_backend, a per-job pricing override "
            "that no longer exists: register the pipeline as a strategy "
            "(register_strategy) and submit its key"
        )
    if "topology" in payload:
        raise SerializationError(
            "job envelope carries a bare topology, which no longer "
            "exists: pin the machine with device=Device(topology=...)"
        )
    for field in ("circuit", "strategy_key"):
        if field not in payload:
            raise SerializationError(f"job envelope has no {field!r} field")
    return BatchJob(
        circuit=circuit_from_dict(payload["circuit"]),
        strategy=payload["strategy_key"],
        width_limit=payload.get("width_limit"),
        label=payload.get("label"),
        device=(
            device_from_dict(payload["device"])
            if "device" in payload
            else None
        ),
    )


def job_status_to_dict(status: dict) -> dict:
    """Wire form of one service job's status report.

    The payload is already flat JSON-safe scalars (state, timestamps,
    attempt count, error text, per-pass timing); the envelope adds the
    format/kind header so status reports travel the same channels as
    every other artifact.
    """
    return _envelope("job_status", {"status": dict(status)})


def job_status_from_dict(payload: dict) -> dict:
    payload = _check(payload, "job_status")
    return dict(payload["status"])


def service_stats_to_dict(stats: dict) -> dict:
    """Wire form of the compile service's ``stats()`` dict (see
    :meth:`repro.service.server.CompileService.stats`)."""
    return _envelope("service_stats", {"stats": dict(stats)})


def service_stats_from_dict(payload: dict) -> dict:
    payload = _check(payload, "service_stats")
    return dict(payload["stats"])


# ----------------------------------------------------------------------
# Generic JSON envelope

_LOADERS = {
    "gate": gate_from_dict,
    "instruction": instruction_from_dict,
    "circuit": circuit_from_dict,
    "topology": topology_from_dict,
    "device_config": device_config_from_dict,
    "compiler_config": compiler_config_from_dict,
    "device": device_from_dict,
    "schedule": schedule_from_dict,
    "pulse": pulse_from_dict,
    "grape_result": grape_result_from_dict,
    "cache_delta": cache_delta_from_dict,
    "cache_stats": cache_stats_from_dict,
    "result": result_from_dict,
    "job": batch_job_from_dict,
    "job_status": job_status_from_dict,
    "service_stats": service_stats_from_dict,
}


def dumps(artifact, indent: int | None = None) -> str:
    """JSON text of any supported artifact (dispatch on its type)."""
    return json.dumps(_payload_of(artifact), indent=indent)


def _payload_of(artifact) -> dict:
    """The wire payload of ``artifact``: a payload dict passes through,
    anything else goes to the dumper of the nearest class in its MRO."""
    if isinstance(artifact, dict):
        return artifact
    # These modules import this one.  The table is built per call, so a
    # dumper replaced on this module after import is the one that runs.
    from repro.aggregation.instruction import AggregatedInstruction
    from repro.compiler.batch import BatchJob
    from repro.compiler.result import CompilationResult
    from repro.control.cache import CacheDelta
    from repro.scheduling.schedule import Schedule

    dumpers = {
        Gate: gate_to_dict,
        AggregatedInstruction: instruction_to_dict,
        Circuit: circuit_to_dict,
        Topology: topology_to_dict,
        DeviceConfig: device_config_to_dict,
        CompilerConfig: compiler_config_to_dict,
        Device: device_to_dict,
        Schedule: schedule_to_dict,
        Pulse: pulse_to_dict,
        GrapeResult: grape_result_to_dict,
        CacheDelta: cache_delta_to_dict,
        CompilationResult: result_to_dict,
        BatchJob: batch_job_to_dict,
    }
    for cls in type(artifact).__mro__:
        if cls in dumpers:
            return dumpers[cls](artifact)
    raise SerializationError(
        f"no wire format for {type(artifact).__name__} objects"
    )


def loads(text: str) -> object:
    """Rebuild any artifact from its JSON text (dispatch on ``kind``)."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise SerializationError(f"not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise SerializationError(
            f"expected a payload object, got {type(payload).__name__}"
        )
    kind = payload.get("kind")
    loader = _LOADERS.get(kind)
    if loader is None:
        raise SerializationError(
            f"unknown artifact kind {kind!r}; known: {', '.join(sorted(_LOADERS))}"
        )
    return loader(payload)
