"""Compilation-as-a-service: submit, poll, download, survive a restart.

Starts an embedded compile service (the same :class:`CompileService`
that ``python -m repro.service`` runs standalone), submits a small batch
of circuits over the wire, polls them to completion, downloads and
verifies the artifacts — then stops the server mid-story and restarts
it over the same journal and cache to show that completed work is
re-served from the result cache the service keeps in the journal
directory and nothing is re-synthesized.

Run:  python examples/compile_service.py
"""

from __future__ import annotations

import tempfile

from repro.benchmarks.ising import ising_model_circuit
from repro.benchmarks.qaoa import line_graph, maxcut_qaoa_circuit
from repro.compiler import BatchCompiler
from repro.control.cache import ShardedDiskPulseCache
from repro.service import CompileService, ServiceClient


def submit_and_verify(url: str, circuits) -> None:
    with ServiceClient(url) as client:
        job_ids = [
            client.submit(circuit, strategy=strategy, label=label)
            for circuit, strategy, label in circuits
        ]
        for (circuit, _, label), job_id in zip(circuits, job_ids):
            result = client.wait(job_id, timeout=300)
            report = result.verify_equivalence(circuit=circuit)
            status = client.status(job_id)
            print(
                f"  {label}: {result.latency_ns:.0f} ns in "
                f"{status['seconds']:.2f}s "
                f"[{'verified' if report else 'VERIFICATION FAILED'}]"
            )


def main() -> None:
    cache_dir = tempfile.mkdtemp(prefix="repro_service_cache_")
    journal_dir = tempfile.mkdtemp(prefix="repro_service_journal_")
    circuits = [
        (maxcut_qaoa_circuit(line_graph(5), name="line5"), "isa", "line5/isa"),
        (maxcut_qaoa_circuit(line_graph(5), name="line5"), "cls", "line5/cls"),
        (ising_model_circuit(4), "cls+aggregation", "ising4/cls-agg"),
    ]

    print("first server: cold cache, empty journal")
    engine = BatchCompiler(cache=ShardedDiskPulseCache(cache_dir))
    with CompileService(engine=engine, workers=2, journal=journal_dir) as service:
        submit_and_verify(service.url, circuits)
        first_bill = service.engine.lifetime_info["model_evals"]
    print(f"  optimal-control bill: {first_bill:.0f} model evaluations")

    print("second server: same journal + cache, after a 'crash'")
    engine = BatchCompiler(cache=ShardedDiskPulseCache(cache_dir))
    with CompileService(engine=engine, workers=2, journal=journal_dir) as service:
        with ServiceClient(service.url) as client:
            for status in client.jobs():
                print(f"  {status['label']}: {status['state']} (re-served)")
            # A fresh submission of an already-seen circuit compiles
            # entirely from the warm cache.
            job_id = client.submit(circuits[0][0], strategy="cls", label="warm")
            client.wait(job_id, timeout=300)
        second_bill = service.engine.lifetime_info["model_evals"]
    print(
        f"  optimal-control bill after restart: {second_bill:.0f} "
        f"model evaluations (warm cache)"
    )


if __name__ == "__main__":
    main()
