"""Typed, serializable compiler IR.

Every artifact the compiler produces or consumes — circuits, gates,
devices, schedules, pulses, aggregated instructions, whole compilation
results, and batch cache deltas — has a stable dictionary form and a
JSON wire format here, versioned as :data:`IR_FORMAT`.  The wire format
is what lets artifacts leave the Python process: results persist to
disk (``CompilationResult.save``/``load``), batch jobs ship to worker
*processes* (``BatchCompiler(executor="process")``), and caches of
expensive optimal-control work merge across process boundaries.

Two layers:

* :mod:`repro.ir.timed` — the typed schedule atom
  :class:`TimedInstruction` (replacing the untyped
  ``TimedOperation.node: object`` with a stable integer ``node_id``)
  and the two named scheduling tolerances.
* :mod:`repro.ir.serialize` — ``<thing>_to_dict`` / ``<thing>_from_dict``
  pairs for every artifact, plus the generic :func:`dumps` /
  :func:`loads` envelope that dispatches on each payload's ``kind`` tag:
  the only way an artifact converts (the classes define no conversion
  methods of their own).

Round-trip guarantees (enforced by ``tests/ir/``): gate and instruction
``signature``\\ s, device ``signature()``\\ s and pulse-cache
``config_fingerprint``\\ s are preserved exactly, and a deserialized
:class:`~repro.compiler.result.CompilationResult` still passes
``verify_equivalence()`` against its deserialized source circuit.
"""

from repro.ir.serialize import (
    IR_FORMAT,
    batch_job_from_dict,
    batch_job_to_dict,
    cache_delta_from_dict,
    cache_delta_to_dict,
    canonical_result_dict,
    circuit_from_dict,
    circuit_to_dict,
    compiler_config_from_dict,
    compiler_config_to_dict,
    device_config_from_dict,
    device_config_to_dict,
    device_from_dict,
    device_to_dict,
    dumps,
    gate_from_dict,
    gate_to_dict,
    grape_result_from_dict,
    grape_result_to_dict,
    instruction_from_dict,
    instruction_to_dict,
    job_status_from_dict,
    job_status_to_dict,
    loads,
    node_from_dict,
    node_to_dict,
    pulse_from_dict,
    pulse_to_dict,
    result_from_dict,
    result_to_dict,
    schedule_from_dict,
    schedule_to_dict,
    service_stats_from_dict,
    service_stats_to_dict,
    topology_from_dict,
    topology_to_dict,
)
from repro.ir.timed import (
    DEPENDENCE_EPSILON_NS,
    OVERLAP_EPSILON_NS,
    TimedInstruction,
)

__all__ = [
    "DEPENDENCE_EPSILON_NS",
    "IR_FORMAT",
    "OVERLAP_EPSILON_NS",
    "TimedInstruction",
    "batch_job_from_dict",
    "batch_job_to_dict",
    "cache_delta_from_dict",
    "cache_delta_to_dict",
    "canonical_result_dict",
    "circuit_from_dict",
    "circuit_to_dict",
    "compiler_config_from_dict",
    "compiler_config_to_dict",
    "device_config_from_dict",
    "device_config_to_dict",
    "device_from_dict",
    "device_to_dict",
    "dumps",
    "gate_from_dict",
    "gate_to_dict",
    "grape_result_from_dict",
    "grape_result_to_dict",
    "instruction_from_dict",
    "instruction_to_dict",
    "job_status_from_dict",
    "job_status_to_dict",
    "loads",
    "node_from_dict",
    "node_to_dict",
    "pulse_from_dict",
    "pulse_to_dict",
    "result_from_dict",
    "result_to_dict",
    "schedule_from_dict",
    "schedule_to_dict",
    "service_stats_from_dict",
    "service_stats_to_dict",
    "topology_from_dict",
    "topology_to_dict",
]
