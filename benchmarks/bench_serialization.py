"""Wire-format round-trip throughput (repro.ir, format repro-ir-v1).

Serialization sits on the batch engine's process-executor hot path —
every job ships its circuit (and optionally device) out and its whole
result plus a cache delta back — so its cost must stay a small fraction
of compile time.  This module times the two round trips that dominate:
circuit text (``dumps``/``loads``) and full-result payloads
(``result_to_dict``/``result_from_dict``), over the shared
strategy-sweep workload, and prints per-artifact microseconds plus
payload sizes.
"""

import json

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


def test_result_round_trip_throughput(benchmark, sweep_jobs, batch_engine, capsys):
    # Compile once (warm, outside the timed region); time the round trip.
    results = list(batch_engine.compile_batch(sweep_jobs[:6]))

    def round_trip():
        return [result_from_dict(result_to_dict(r)) for r in results]

    rebuilt = benchmark(round_trip)
    for original, copy in zip(results, rebuilt):
        assert copy.latency_ns == original.latency_ns
        assert canonical_result_dict(copy) == canonical_result_dict(original)
    payload_bytes = sum(
        len(json.dumps(result_to_dict(r))) for r in results
    )
    with capsys.disabled():
        print()
        print(
            f"result round trip: {len(results)} results, "
            f"{payload_bytes / 1024:.1f} KiB total JSON"
        )
