"""Wire-format round-trip throughput (repro.ir, format repro-ir-v1).

Serialization sits on the batch engine's process-executor hot path —
every job ships its circuit (and optionally device) out and its whole
result plus a cache delta back — so its cost must stay a small fraction
of compile time.  This module times the two round trips that dominate:
circuit text (``dumps``/``loads``) and full-result payloads
(``result_to_dict``/``result_from_dict``), over the shared
strategy-sweep workload, and prints per-artifact microseconds plus
payload sizes.

The result round trip is also a count gate: its results hold library
gates only, whose matrices are unitary by construction, so rebuilding
them must run no unitarity check (run on every library gate,
``is_unitary`` would be most of a rebuild).  A count gives the same
verdict on any host.
"""

import json
import time

import repro.gates.gate as gate_module
from repro.ir import (
    canonical_result_dict,
    dumps,
    loads,
    result_from_dict,
    result_to_dict,
)


def test_circuit_round_trip_throughput(benchmark, sweep_jobs, capsys):
    circuits = {job.circuit.name: job.circuit for job in sweep_jobs}

    def round_trip():
        return [loads(dumps(circuit)) for circuit in circuits.values()]

    rebuilt = benchmark(round_trip)
    assert len(rebuilt) == len(circuits)
    for original, copy in zip(circuits.values(), rebuilt):
        assert copy.name == original.name
        assert len(copy.gates) == len(original.gates)
    payload_bytes = sum(len(dumps(circuit)) for circuit in circuits.values())
    with capsys.disabled():
        print()
        print(
            f"circuit round trip: {len(circuits)} circuits, "
            f"{payload_bytes / 1024:.1f} KiB total JSON"
        )


def _per_artifact_us(function, items, repeats=5) -> float:
    """Median over ``repeats`` passes of ``function`` per item, in µs."""
    passes = []
    for _ in range(repeats):
        started = time.perf_counter()
        for item in items:
            function(item)
        passes.append((time.perf_counter() - started) / len(items))
    return sorted(passes)[len(passes) // 2] * 1e6


def test_result_round_trip_throughput(
    benchmark, sweep_jobs, batch_engine, capsys, monkeypatch
):
    # Compile once (warm, outside the timed region); time the round trip.
    results = list(batch_engine.compile_batch(sweep_jobs[:6]))

    def round_trip():
        return [result_from_dict(result_to_dict(r)) for r in results]

    checks = []
    check = gate_module.is_unitary

    def counted(matrix, *args, **kwargs):
        checks.append(matrix.shape)
        return check(matrix, *args, **kwargs)

    monkeypatch.setattr(gate_module, "is_unitary", counted)
    rebuilt = round_trip()
    monkeypatch.undo()
    assert len(checks) == 0, (
        f"{len(checks)} unitarity checks rebuilding {len(results)} "
        f"library-only results"
    )
    for original, copy in zip(results, rebuilt):
        assert copy.latency_ns == original.latency_ns
        assert canonical_result_dict(copy) == canonical_result_dict(original)

    benchmark(round_trip)
    payloads = [result_to_dict(r) for r in results]
    encode_us = _per_artifact_us(result_to_dict, results)
    decode_us = _per_artifact_us(result_from_dict, payloads)
    payload_bytes = sum(len(json.dumps(payload)) for payload in payloads)
    with capsys.disabled():
        print()
        print(
            f"result round trip: {len(results)} results, "
            f"{payload_bytes / 1024:.1f} KiB total JSON, "
            f"{len(checks)} unitarity checks"
        )
        print(
            f"per result: result_to_dict {encode_us:.0f} us, "
            f"result_from_dict {decode_us:.0f} us "
            f"({decode_us / encode_us:.2f}x the encode)"
        )
