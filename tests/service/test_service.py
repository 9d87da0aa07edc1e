"""End-to-end tests for the compile service over real sockets.

Determinism notes: ``workers=0`` keeps submitted jobs queued forever,
which pins queue states for the backpressure and cancel-while-queued
tests; the poisoned job (a 5-qubit circuit pinned to a 3-qubit device)
fails placement identically on every attempt, which drives the breaker
tests; restart tests share one journal directory and one pulse cache
directory across server generations (an engine without a result cache
gets a disk one inside the journal directory, so results persist with
it).
"""

import json
import os
import shutil
import time

import pytest

from repro.benchmarks.ising import ising_model_circuit
from repro.benchmarks.qaoa import line_graph, maxcut_qaoa_circuit
from repro.compiler.batch import COUNTER_KEYS, BatchCompiler, BatchJob
from repro.compiler.result_cache import ResultCache
from repro.control.cache import PulseCache, ShardedDiskPulseCache
from repro.errors import ServiceBusyError, ServiceError
from repro.service import CompileService, ServiceClient
from repro.service.protocol import (
    REJECT_QUARANTINED,
    REJECT_QUEUE_FULL,
    SERVICE_FORMAT,
)
from repro.service.server import RESULT_CACHE_DIR
from repro.testing.generators import random_circuit


def _circuit(name="svc", nodes=4):
    return maxcut_qaoa_circuit(line_graph(nodes), name=name)


def _poisoned_job() -> BatchJob:
    """Deterministically uncompilable: 5 qubits on a 3-qubit device."""
    return BatchJob(circuit=ising_model_circuit(5), device="line-3")


@pytest.fixture
def service():
    with CompileService(workers=2) as running:
        yield running


class TestRoundTrip:
    def test_submit_poll_fetch_verify(self, service):
        with ServiceClient(service.url) as client:
            assert client.ping() == SERVICE_FORMAT
            circuit = _circuit()
            job_id = client.submit(circuit, strategy="cls", label="rt")
            result = client.wait(job_id, timeout=120)
            assert result.verify_equivalence(circuit=circuit)
            status = client.status(job_id)
            assert status["state"] == "done"
            assert status["attempts"] == 1
            assert status["seconds"] > 0
            assert status["pass_seconds"]  # per-pass timing travelled

    def test_batch_of_three_through_one_connection(self, service):
        with ServiceClient(service.url) as client:
            circuits = [_circuit(f"b{i}", nodes=3 + i) for i in range(3)]
            job_ids = [
                client.submit(circuit, label=f"b{i}")
                for i, circuit in enumerate(circuits)
            ]
            assert len(set(job_ids)) == 3
            for circuit, job_id in zip(circuits, job_ids):
                result = client.wait(job_id, timeout=120)
                assert result.verify_equivalence(circuit=circuit)
            stats = client.stats()
            assert stats["completed"] >= 3
            assert stats["queue"]["depth"] == 0

    def test_jobs_listing_in_submission_order(self, service):
        with ServiceClient(service.url) as client:
            first = client.submit(_circuit("first"), label="first")
            second = client.submit(_circuit("second"), label="second")
            client.wait(first, timeout=120)
            client.wait(second, timeout=120)
            labels = [job["label"] for job in client.jobs()]
            assert labels == ["first", "second"]

    def test_result_before_done_is_none(self):
        with CompileService(workers=0) as service:
            with ServiceClient(service.url) as client:
                job_id = client.submit(_circuit())
                assert client.result(job_id) is None
                assert client.status(job_id)["state"] == "queued"

    def test_unknown_job_id_is_an_error(self, service):
        with ServiceClient(service.url) as client:
            with pytest.raises(ServiceError, match="unknown job id"):
                client.status("job-999-deadbeef")

    def test_malformed_submission_fails_the_submitter(self, service):
        with ServiceClient(service.url) as client:
            with pytest.raises(ServiceError):
                client.submit_job({"format": "nope"})
            # The connection (and server) survive the bad frame.
            assert client.ping() == SERVICE_FORMAT


class TestEagerValidation:
    """A malformed job is refused at submit: it is never keyed, queued
    or run, so it cannot fail in a worker and strike the breaker."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("width_limit", "3"),
            ("width_limit", 1.5),
            ("width_limit", True),
            ("strategy_key", 7),
            ("label", 5),
        ],
    )
    def test_malformed_field_refused_at_submit(self, field, value):
        from repro.ir.serialize import batch_job_to_dict

        envelope = batch_job_to_dict(BatchJob(circuit=_circuit()))
        envelope[field] = value
        with CompileService(
            workers=1, breaker_threshold=2, breaker_cooldown=300.0
        ) as service:
            with ServiceClient(service.url) as client:
                # More submissions than the breaker threshold: none is
                # quarantined, each is refused for what it is.
                for _ in range(3):
                    with pytest.raises(ServiceError) as excinfo:
                        client.submit_job(envelope)
                    assert not isinstance(excinfo.value, ServiceBusyError)
                    assert "ConfigError" in str(excinfo.value)
                stats = client.stats()
                assert client.jobs() == []
        assert stats["failed"] == 0
        assert stats["rejected_quarantined"] == 0
        assert stats["breaker"]["tripped"] == 0
        assert stats["breaker"]["tracked_signatures"] == 0

    @pytest.mark.parametrize("field", ["circuit", "strategy_key"])
    def test_missing_field_refused_by_name(self, field):
        from repro.ir.serialize import batch_job_to_dict

        envelope = batch_job_to_dict(BatchJob(circuit=_circuit()))
        del envelope[field]
        with CompileService(workers=1) as service:
            with ServiceClient(service.url) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.submit_job(envelope)
                message = str(excinfo.value)
                assert "SerializationError" in message
                assert repr(field) in message
                assert "KeyError" not in message
                stats = client.stats()
                assert client.jobs() == []
        assert stats["failed"] == 0

    @pytest.mark.parametrize(
        "gate",
        [
            {"name": "RZ", "qubits": [3, 4], "params": []},  # was RZ(3)[4]
            {"name": "CPHASE", "qubits": [0, 1, 2], "params": []},
            {"name": "CNOT", "qubits": [0, 1, 2], "params": []},
        ],
        ids=lambda gate: gate["name"],
    )
    def test_gate_with_wrong_counts_refused_at_submit(self, gate):
        from repro.ir.serialize import batch_job_to_dict

        envelope = batch_job_to_dict(BatchJob(circuit=_circuit(nodes=5)))
        envelope["circuit"]["gates"][0].update(gate)
        with CompileService(workers=1) as service:
            with ServiceClient(service.url) as client:
                # The client raises ServiceError on an ``ok: false`` reply.
                with pytest.raises(ServiceError) as excinfo:
                    client.submit_job(envelope)
                message = str(excinfo.value)
                assert f"GateError: {gate['name']} takes" in message
                stats = client.stats()
                assert client.jobs() == []
        assert stats["failed"] == 0
        assert stats["queue"]["depth"] == 0

    @pytest.mark.parametrize(
        "gate, circuit_width, error",
        [
            ({"name": "CNOT", "qubits": [0.9, 2.5]}, None, "GateError"),
            ({"name": "RZ", "qubits": [0], "params": ["0.5"]}, None,
             "SerializationError"),
            ({}, 3.9, "SerializationError"),
        ],
        ids=["float-qubits", "string-param", "float-width"],
    )
    def test_malformed_number_refused_at_submit(
        self, gate, circuit_width, error
    ):
        from repro.ir.serialize import batch_job_to_dict

        envelope = batch_job_to_dict(BatchJob(circuit=_circuit(nodes=5)))
        envelope["circuit"]["gates"][0].update({"params": [], **gate})
        if circuit_width is not None:
            envelope["circuit"]["num_qubits"] = circuit_width
        with CompileService(workers=1) as service:
            with ServiceClient(service.url) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.submit_job(envelope)
                message = str(excinfo.value)
                assert f"{error}: " in message
                assert "is not" in message
                stats = client.stats()
                assert client.jobs() == []
        assert stats["failed"] == 0
        assert stats["queue"]["depth"] == 0


class TestCommandLine:
    def test_max_bytes_alone_bounds_the_service_store(self, monkeypatch):
        from repro.service import __main__ as service_main

        served = {}

        def serve_once(service):
            served["store"] = service.engine.cache
            raise KeyboardInterrupt

        monkeypatch.setattr(
            service_main.CompileService, "serve_forever", serve_once
        )
        monkeypatch.setattr(service_main.signal, "signal", lambda *args: None)
        argv = ["--port", "0", "--workers", "0", "--max-bytes", "4096"]
        assert service_main.main(argv) == 0
        assert type(served["store"]) is PulseCache
        assert served["store"].max_bytes == 4096


class TestBackpressure:
    def test_full_queue_rejects_with_retry_after(self):
        with CompileService(workers=0, queue_limit=2) as service:
            with ServiceClient(service.url) as client:
                client.submit(_circuit("a"))
                client.submit(_circuit("b"))
                with pytest.raises(ServiceBusyError) as excinfo:
                    client.submit(_circuit("c"))
                assert excinfo.value.reason == REJECT_QUEUE_FULL
                assert excinfo.value.retry_after > 0
                stats = client.stats()
                assert stats["rejected_busy"] == 1
                assert stats["queue"]["depth"] == 2

    def test_cancel_while_queue_full_resolves_the_job(self):
        with CompileService(workers=0, queue_limit=1) as service:
            with ServiceClient(service.url) as client:
                job_id = client.submit(_circuit("a"))
                with pytest.raises(ServiceBusyError):
                    client.submit(_circuit("b"))
                assert client.cancel(job_id) == "cancelled"
                # The queue slot is held by the dead entry until a
                # worker skips it; submit_retrying rides the hint.
                assert client.status(job_id)["state"] == "cancelled"


class TestCancellation:
    def test_cancel_queued_job_resolves_immediately(self):
        with CompileService(workers=0) as service:
            with ServiceClient(service.url) as client:
                job_id = client.submit(_circuit())
                assert client.cancel(job_id) == "cancelled"
                status = client.status(job_id)
                assert status["state"] == "cancelled"
                with pytest.raises(ServiceError, match="cancelled"):
                    client.result(job_id)

    def test_cancelled_job_never_runs(self):
        with CompileService(workers=0) as service:
            with ServiceClient(service.url) as client:
                job_id = client.submit(_circuit())
                client.cancel(job_id)
                stats = client.stats()
                assert stats["completed"] == 0
                assert stats["cancelled"] == 1

    def test_timeout_cancels_and_counts_as_failure(self):
        with CompileService(workers=1, job_timeout=0.0) as service:
            with ServiceClient(service.url) as client:
                job_id = client.submit(_circuit())
                with pytest.raises(ServiceError, match="timed out"):
                    client.wait(job_id, timeout=120)
                status = client.status(job_id)
                assert status["state"] == "failed"
                assert "timed out" in status["error"]
                assert client.stats()["timed_out"] == 1


class TestCircuitBreaker:
    def test_consecutive_failures_quarantine_the_signature(self):
        with CompileService(
            workers=1, breaker_threshold=2, breaker_cooldown=300.0
        ) as service:
            with ServiceClient(service.url) as client:
                for _ in range(2):
                    job_id = client.submit_job(_poisoned_job())
                    with pytest.raises(ServiceError, match="failed"):
                        client.wait(job_id, timeout=120)
                with pytest.raises(ServiceBusyError) as excinfo:
                    client.submit_job(_poisoned_job())
                assert excinfo.value.reason == REJECT_QUARANTINED
                assert excinfo.value.retry_after > 0
                stats = client.stats()
                assert stats["failed"] == 2
                assert stats["rejected_quarantined"] == 1
                assert stats["breaker"]["open"] == 1
                # A different circuit is unaffected.
                good = client.submit(_circuit())
                client.wait(good, timeout=120)

    def test_half_open_admits_one_probe_whose_failure_reopens(self):
        # The cooldown outlasts wait()'s 0.1 s poll, so the re-opened
        # breaker is still open when the failed probe is noticed.
        with CompileService(
            workers=1, breaker_threshold=1, breaker_cooldown=0.5
        ) as service:
            with ServiceClient(service.url) as client:
                job_id = client.submit_job(_poisoned_job())
                with pytest.raises(ServiceError):
                    client.wait(job_id, timeout=120)
                # Quarantined; after the cooldown one probe is admitted.
                time.sleep(0.6)
                probe_id = client.submit_job(_poisoned_job())
                with pytest.raises(ServiceError):
                    client.wait(probe_id, timeout=120)
                # The failed probe re-opened the breaker immediately.
                with pytest.raises(ServiceBusyError) as excinfo:
                    client.submit_job(_poisoned_job())
                assert excinfo.value.reason == REJECT_QUARANTINED
                assert client.stats()["breaker"]["tripped"] == 2

    def test_success_closes_the_breaker(self):
        with CompileService(workers=1, breaker_threshold=3) as service:
            with ServiceClient(service.url) as client:
                circuit = _circuit()
                for _ in range(2):
                    # Failures of one signature never block another.
                    bad = client.submit_job(_poisoned_job())
                    with pytest.raises(ServiceError):
                        client.wait(bad, timeout=120)
                good = client.submit(circuit)
                client.wait(good, timeout=120)
                assert client.stats()["breaker"]["open"] == 0


class TestRestart:
    def test_completed_jobs_survive_a_restart(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        cache_dir = str(tmp_path / "cache")
        circuit = _circuit("restart")
        with CompileService(
            engine=BatchCompiler(cache=ShardedDiskPulseCache(cache_dir)),
            workers=1,
            journal=journal_dir,
        ) as service:
            with ServiceClient(service.url) as client:
                job_id = client.submit(circuit, label="restart")
                first = client.wait(job_id, timeout=120)

        with CompileService(
            engine=BatchCompiler(cache=ShardedDiskPulseCache(cache_dir)),
            workers=1,
            journal=journal_dir,
        ) as reborn:
            assert reborn.resumed == 0  # its result is in the store
            with ServiceClient(reborn.url) as client:
                status = client.status(job_id)
                assert status["state"] == "done"
                assert status["attempts"] == 1  # not recompiled
                again = client.result(job_id)
                assert again.latency_ns == first.latency_ns
                assert again.verify_equivalence(circuit=circuit)
            # Serving the stored result costs zero compilation.
            assert reborn.engine.lifetime_info["model_evals"] == 0

    def test_done_job_without_a_stored_result_recompiles_warm(self, tmp_path):
        """Its result was deleted: the job is re-keyed and recompiled
        warm."""
        journal_dir = tmp_path / "journal"
        cache_dir = str(tmp_path / "cache")
        circuit = _circuit("gone")
        with CompileService(
            engine=BatchCompiler(cache=ShardedDiskPulseCache(cache_dir)),
            workers=1,
            journal=str(journal_dir),
        ) as service:
            with ServiceClient(service.url) as client:
                job_id = client.submit(circuit)
                first = client.wait(job_id, timeout=120)
        shutil.rmtree(journal_dir / RESULT_CACHE_DIR)

        engine = BatchCompiler(cache=ShardedDiskPulseCache(cache_dir))
        with CompileService(
            engine=engine, workers=1, journal=str(journal_dir)
        ) as reborn:
            assert reborn.resumed == 1
            with ServiceClient(reborn.url) as client:
                again = client.wait(job_id, timeout=120)
                assert again.latency_ns == first.latency_ns
                assert again.verify_equivalence(circuit=circuit)
                assert client.stats()["completed"] == 1
                assert client.status(job_id)["signature"] == engine.result_key(
                    BatchJob(circuit=circuit)
                )
            assert engine.lifetime_info["model_evals"] == 0

    def test_done_job_keeps_its_timings_across_a_restart(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        circuit = _circuit("timings", nodes=3)
        with CompileService(workers=1, journal=journal_dir) as service:
            with ServiceClient(service.url) as client:
                job_id = client.submit(circuit)
                client.wait(job_id, timeout=120)
                before = client.status(job_id)

        with CompileService(workers=1, journal=journal_dir) as reborn:
            assert reborn.resumed == 0
            with ServiceClient(reborn.url) as client:
                after = client.status(job_id)
        assert after["seconds"] is not None
        assert after["pass_seconds"]
        assert set(after["counters"]) == set(COUNTER_KEYS)
        for field in ("seconds", "pass_seconds", "counters", "finished_at"):
            assert after[field] == before[field], field

    def test_job_without_its_envelope_line_is_dropped(self, tmp_path):
        """A worker's ``running`` line can land before the submit path
        writes the job's envelope; a crash between the two leaves a job
        whose submit never answered its client, and a restart drops it."""
        journal_dir = tmp_path / "journal"
        with CompileService(workers=0, journal=str(journal_dir)) as service:
            with ServiceClient(service.url) as client:
                kept = client.submit(_circuit("kept", nodes=3))
        orphan = {
            "job_id": "job-2-orphan",
            "state": "running",
            "signature": "0" * 64,
            "attempts": 1,
            "serial": 2,
        }
        with open(journal_dir / "journal.jsonl", "a") as log:
            log.write(json.dumps(orphan) + "\n")

        with CompileService(workers=0, journal=str(journal_dir)) as reborn:
            assert reborn.resumed == 1
            with ServiceClient(reborn.url) as client:
                assert [job["job_id"] for job in client.jobs()] == [kept]
                # Its serial is still spent: job ids are never reused.
                fresh = client.submit(_circuit("fresh", nodes=3))
                assert fresh.startswith("job-3-")
                assert client.stats()["journal_jobs"] == 2

    def test_failed_and_cancelled_jobs_never_resume(self, tmp_path):
        """Only queued and running jobs re-run after a restart; a failed
        or cancelled one comes back exactly as it was."""
        journal_dir = str(tmp_path / "journal")
        with CompileService(workers=1, journal=journal_dir) as service:
            with ServiceClient(service.url) as client:
                failed = client.submit_job(_poisoned_job())
                with pytest.raises(ServiceError):
                    client.wait(failed, timeout=120)
                before = {failed: client.status(failed)}
        with CompileService(workers=0, journal=journal_dir) as service:
            with ServiceClient(service.url) as client:
                cancelled = client.submit(_circuit("cancelled", nodes=3))
                assert client.cancel(cancelled) == "cancelled"
                before[cancelled] = client.status(cancelled)
        assert [status["state"] for status in before.values()] == [
            "failed",
            "cancelled",
        ]

        with CompileService(workers=1, journal=journal_dir) as reborn:
            assert reborn.resumed == 0
            with ServiceClient(reborn.url) as client:
                for job_id, status in before.items():
                    assert client.status(job_id) == status
                stats = client.stats()
                assert stats["queue"]["depth"] == 0
                assert stats["completed"] == stats["failed"] == 0
            assert reborn.engine.lifetime_info["model_evals"] == 0

    def test_resumed_job_is_rekeyed_under_the_new_engine(self, tmp_path):
        """Its re-run stores the result under the new engine's key, so
        that is the key its record must carry for the result op."""
        journal_dir = str(tmp_path / "journal")
        circuit = _circuit("rekey", nodes=3)
        with CompileService(workers=0, journal=journal_dir) as service:
            with ServiceClient(service.url) as client:
                job_id = client.submit(circuit)

        engine = BatchCompiler(device="line-4")
        with CompileService(
            engine=engine, workers=1, journal=journal_dir
        ) as reborn:
            assert reborn.resumed == 1
            with ServiceClient(reborn.url) as client:
                result = client.wait(job_id, timeout=120)
                assert result.device_name == "line-4"
                status = client.status(job_id)
        assert status["signature"] == engine.result_key(BatchJob(circuit=circuit))

    def test_undeserializable_journaled_job_fails_without_blocking_restart(
        self, tmp_path
    ):
        """A journaled job whose strategy is no longer registered cannot
        be re-keyed; the service still starts, and the job fails."""
        journal_dir = tmp_path / "journal"
        with CompileService(workers=0, journal=str(journal_dir)) as service:
            with ServiceClient(service.url) as client:
                job_id = client.submit(_circuit("orphan", nodes=3))
        log = journal_dir / "journal.jsonl"
        header, first, *rest = log.read_text().splitlines()
        entry = json.loads(first)
        entry["job"]["strategy_key"] = "since-unregistered"
        log.write_text("\n".join([header, json.dumps(entry), *rest]) + "\n")

        with CompileService(workers=1, journal=str(journal_dir)) as reborn:
            assert reborn.resumed == 1
            with ServiceClient(reborn.url) as client:
                with pytest.raises(ServiceError, match="since-unregistered"):
                    client.wait(job_id, timeout=120)

    def test_old_envelope_replays_under_its_current_key(self, tmp_path):
        """A journal line written before jobs had one spelling per
        setting (``"pulse_backend": null``) resumes as the same job."""
        from repro.ir.serialize import batch_job_to_dict

        journal_dir = str(tmp_path / "journal")
        job = BatchJob(circuit=_circuit("old"), strategy="cls")
        old = {**batch_job_to_dict(job), "pulse_backend": None}
        with CompileService(workers=0, journal=journal_dir) as service:
            with ServiceClient(service.url) as client:
                job_id = client.submit_job(old)
        with CompileService(workers=1, journal=journal_dir) as reborn:
            assert reborn.resumed == 1
            with ServiceClient(reborn.url) as client:
                result = client.wait(job_id, timeout=120)
                status = client.status(job_id)
            assert status["signature"] == reborn.engine.result_key(job)
        assert result.strategy_key == "cls"

    def test_journaled_bare_topology_fails_instead_of_compiling(
        self, tmp_path
    ):
        """A journaled envelope naming a bare topology is not silently
        compiled on the engine's default machine: the job fails."""
        from repro.device.topology import LineTopology
        from repro.ir.serialize import topology_to_dict

        journal_dir = tmp_path / "journal"
        with CompileService(workers=0, journal=str(journal_dir)) as service:
            with ServiceClient(service.url) as client:
                job_id = client.submit(_circuit("bare", nodes=3))
        log = journal_dir / "journal.jsonl"
        header, first, *rest = log.read_text().splitlines()
        entry = json.loads(first)
        entry["job"]["topology"] = topology_to_dict(LineTopology(3))
        log.write_text("\n".join([header, json.dumps(entry), *rest]) + "\n")

        with CompileService(workers=1, journal=str(journal_dir)) as reborn:
            with ServiceClient(reborn.url) as client:
                with pytest.raises(ServiceError, match="Device"):
                    client.wait(job_id, timeout=120)
                assert client.stats()["completed"] == 0

    def test_restart_on_another_device_never_serves_stale_results(
        self, tmp_path
    ):
        journal_dir = str(tmp_path / "journal")
        circuit = random_circuit(4, 30, 11, "soup")
        with CompileService(workers=1, journal=journal_dir) as service:
            with ServiceClient(service.url) as client:
                first = client.submit(circuit)
                assert client.wait(first, timeout=120).device_name is None

        with CompileService(
            engine=BatchCompiler(device="line-4"),
            workers=1,
            journal=journal_dir,
        ) as reborn:
            with ServiceClient(reborn.url) as client:
                again = client.submit(circuit)
                result = client.wait(again, timeout=120)
                assert result.device_name == "line-4"
                assert result.verify_equivalence(circuit=circuit)
                # The old done job re-ran under the new engine, and the
                # resubmission rode on it: one compilation in all.
                assert client.wait(first, timeout=120).device_name == "line-4"
                assert client.stats()["completed"] == 1

    def test_interrupted_jobs_resume_warm(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        cache_dir = str(tmp_path / "cache")
        circuit = _circuit("resume")
        # Generation 1: one job completes, warming the disk cache for
        # this circuit/strategy.
        with CompileService(
            engine=BatchCompiler(cache=ShardedDiskPulseCache(cache_dir)),
            workers=1,
            journal=journal_dir,
        ) as service:
            with ServiceClient(service.url) as client:
                done_id = client.submit(circuit, label="done")
                client.wait(done_id, timeout=120)

        # Generation 2 has no workers: two accepted jobs are still
        # queued when it "dies" — the mid-batch kill.  Distinct circuit
        # names keep their signatures fresh (a byte-identical repeat of
        # the generation-1 job would be served done from the result
        # store instead of queueing).
        queued_circuits = [_circuit(f"resume-q{i}") for i in range(2)]
        with CompileService(
            engine=BatchCompiler(cache=ShardedDiskPulseCache(cache_dir)),
            workers=0,
            journal=journal_dir,
        ) as service:
            with ServiceClient(service.url) as client:
                queued = [
                    client.submit(queued_circuits[i], label=f"queued-{i}")
                    for i in range(2)
                ]
                assert client.stats()["queue"]["depth"] == 2

        # Generation 3 over the same journal and cache resumes them.
        with CompileService(
            engine=BatchCompiler(cache=ShardedDiskPulseCache(cache_dir)),
            workers=1,
            journal=journal_dir,
        ) as reborn:
            assert reborn.resumed == 2
            with ServiceClient(reborn.url) as client:
                for job_id, queued_circuit in zip(queued, queued_circuits):
                    result = client.wait(job_id, timeout=120)
                    assert result.verify_equivalence(circuit=queued_circuit)
                assert client.status(done_id)["state"] == "done"
            # The resumed jobs answer every optimal-control query from
            # the warm cache: zero fresh work in the whole generation.
            assert reborn.engine.lifetime_info["model_evals"] == 0


class TestResultCacheServing:
    def test_resubmission_is_served_done_at_submit_time(self):
        engine = BatchCompiler(result_cache=ResultCache())
        with CompileService(engine=engine, workers=1) as service:
            with ServiceClient(service.url) as client:
                circuit = _circuit("served")
                first = client.submit(circuit, label="one")
                original = client.wait(first, timeout=120)
                # Different label, same signature: done on arrival.
                second = client.submit(circuit, label="two")
                assert second != first
                status = client.status(second)
                assert status["state"] == "done"
                # No pass ran for it.
                assert "pass_seconds" not in status
                assert not any(status["counters"].values())
                again = client.result(second)
                assert again.latency_ns == original.latency_ns
                assert again.verify_equivalence(circuit=circuit)
                stats = client.stats()
                assert stats["completed"] == 1  # served != compiled
                assert stats["result_cache"]["hits"] == 1
                assert stats["result_cache"]["misses"] == 1
                # The engine's own store stats travel alongside.
                assert stats["result_cache"]["engine"]["stores"] == 1

    def test_serving_survives_a_restart_via_the_journal(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        circuit = _circuit("journal-served")
        with CompileService(workers=1, journal=journal_dir) as service:
            with ServiceClient(service.url) as client:
                job_id = client.submit(circuit)
                client.wait(job_id, timeout=120)

        with CompileService(workers=1, journal=journal_dir) as reborn:
            with ServiceClient(reborn.url) as client:
                again = client.submit(circuit)
                assert again != job_id
                assert client.status(again)["state"] == "done"
                result = client.result(again)
                assert result.verify_equivalence(circuit=circuit)
                assert client.stats()["completed"] == 0
            # The artifact came off disk: zero compilation work.
            assert reborn.engine.lifetime_info["model_evals"] == 0

    def test_stats_envelope_round_trips_the_new_counters(self, service):
        from repro.ir.serialize import (
            service_stats_from_dict,
            service_stats_to_dict,
        )

        raw = service.stats()
        assert raw["coalesced_submissions"] == 0
        assert raw["result_cache"]["hits"] == 0
        assert raw["result_cache"]["misses"] == 0
        # Every service has a result store, so its stats always travel.
        assert raw["result_cache"]["engine"]["entries"] == 0
        decoded = service_stats_from_dict(service_stats_to_dict(raw))
        assert decoded["coalesced_submissions"] == 0
        assert decoded["result_cache"] == raw["result_cache"]


class TestOneStore:
    def test_each_distinct_result_is_written_once(self, tmp_path):
        """N distinct jobs plus R repeats leave N result files in all:
        the result cache's entries, and nothing beside the journal."""
        journal_dir = tmp_path / "journal"
        results_dir = tmp_path / "results"
        engine = BatchCompiler(result_cache=str(results_dir))
        circuits = [_circuit(f"once-{i}", nodes=3) for i in range(3)]
        with CompileService(
            engine=engine, workers=1, journal=str(journal_dir)
        ) as service:
            with ServiceClient(service.url) as client:
                for circuit in circuits + circuits[:2]:
                    client.wait(client.submit(circuit), timeout=120)
                stats = client.stats()
        assert stats["completed"] == 3
        assert stats["result_cache"]["hits"] == 2
        assert len(list(results_dir.glob("*.json"))) == 3
        assert os.listdir(journal_dir) == ["journal.jsonl"]


class TestPathArguments:
    @pytest.mark.parametrize("argument", ["cache", "result_cache", "journal"])
    def test_path_object_names_a_directory(self, tmp_path, argument):
        """A :class:`pathlib.Path` mounts a store there, exactly like the
        ``str`` spelling, instead of being taken for a store object."""
        directory = tmp_path / argument
        if argument == "journal":
            engine, journal = BatchCompiler(), directory
        else:
            engine, journal = BatchCompiler(**{argument: directory}), None
        with CompileService(engine=engine, workers=1, journal=journal) as service:
            with ServiceClient(service.url) as client:
                circuit = _circuit("path", nodes=3)
                client.wait(client.submit(circuit), timeout=120)
        store = {
            "cache": engine.cache,
            "result_cache": engine.result_cache,
            "journal": service.journal,
        }[argument]
        assert store.directory == str(directory)
        assert os.listdir(directory)


class TestCoalescing:
    def test_identical_queued_submissions_coalesce(self):
        with CompileService(workers=0) as service:
            with ServiceClient(service.url) as client:
                circuit = _circuit("co")
                primary = client.submit(circuit, label="primary")
                follower = client.submit(circuit, label="follower")
                assert follower != primary
                assert client.status(follower)["state"] == "queued"
                stats = client.stats()
                assert stats["coalesced_submissions"] == 1
                # The follower rides the primary: one queue slot total.
                assert stats["queue"]["depth"] == 1

    def test_follower_completes_with_the_primary(self):
        with CompileService(workers=1) as service:
            with ServiceClient(service.url) as client:
                circuit = _circuit("co-done", nodes=8)
                primary = client.submit(circuit, label="p")
                follower = client.submit(circuit, label="f")
                a = client.wait(primary, timeout=120)
                b = client.wait(follower, timeout=120)
                assert a.latency_ns == b.latency_ns
                stats = client.stats()
                assert stats["completed"] == 1
                # The second submission either coalesced onto the live
                # primary or (if the primary already finished) was
                # served from its result — one compilation either way.
                assert (
                    stats["coalesced_submissions"]
                    + stats["result_cache"]["hits"]
                ) == 1

    def test_cancelling_the_primary_promotes_a_follower(self):
        with CompileService(workers=0) as service:
            with ServiceClient(service.url) as client:
                circuit = _circuit("promote")
                primary = client.submit(circuit, label="primary")
                follower = client.submit(circuit, label="follower")
                assert client.cancel(primary) == "cancelled"
                # The follower took over the signature and queued.
                assert client.status(follower)["state"] == "queued"
                # A third identical submission coalesces onto it.
                client.submit(circuit, label="third")
                assert client.stats()["coalesced_submissions"] == 2

    def test_followers_share_the_primary_failure(self):
        with CompileService(workers=1) as service:
            with ServiceClient(service.url) as client:
                first = client.submit_job(_poisoned_job())
                second = client.submit_job(_poisoned_job())
                for job_id in (first, second):
                    with pytest.raises(ServiceError, match="failed"):
                        client.wait(job_id, timeout=120)
                assert client.stats()["failed"] == 2
