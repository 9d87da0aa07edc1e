"""Round-trip tests for the service's repro-ir-v1 envelopes."""

import json

import pytest

from repro.benchmarks.qaoa import line_graph, maxcut_qaoa_circuit
from repro.compiler.batch import BatchJob
from repro.compiler.pipeline import compile_circuit
from repro.compiler.strategies import Strategy
from repro.errors import SerializationError
from repro.ir.serialize import (
    batch_job_from_dict,
    batch_job_to_dict,
    dumps,
    job_status_from_dict,
    job_status_to_dict,
    loads,
    service_stats_from_dict,
    service_stats_to_dict,
)


def _circuit(name="wire"):
    return maxcut_qaoa_circuit(line_graph(4), name=name)


class TestJobEnvelope:
    def test_round_trip_preserves_the_job(self):
        job = BatchJob(
            circuit=_circuit(),
            strategy="cls",
            width_limit=3,
            label="wire/cls",
        )
        payload = json.loads(json.dumps(batch_job_to_dict(job)))
        rebuilt = batch_job_from_dict(payload)
        assert rebuilt.strategy.key == "cls"
        assert rebuilt.width_limit == 3
        assert rebuilt.label == "wire/cls"
        assert rebuilt.circuit.num_qubits == job.circuit.num_qubits
        assert len(rebuilt.circuit) == len(job.circuit)

    def test_round_trip_compiles_identically(self):
        job = BatchJob(circuit=_circuit(), strategy="cls")
        rebuilt = batch_job_from_dict(batch_job_to_dict(job))
        original = compile_circuit(job.circuit, job.strategy)
        again = compile_circuit(rebuilt.circuit, rebuilt.strategy)
        assert again.latency_ns == original.latency_ns

    def test_device_pinned_job_round_trips(self):
        job = BatchJob(circuit=_circuit(), device="line-5")
        rebuilt = batch_job_from_dict(batch_job_to_dict(job))
        assert rebuilt.device is not None
        assert rebuilt.device.num_qubits == 5

    def test_envelope_names_only_the_five_fields(self):
        payload = batch_job_to_dict(
            BatchJob(circuit=_circuit(), device="line-5")
        )
        assert set(payload) == {
            "format",
            "kind",
            "circuit",
            "strategy_key",
            "width_limit",
            "label",
            "device",
        }

    # Envelopes from before jobs had one spelling per setting: journals
    # and old clients must replay as the same job or fail loudly, never
    # silently compile a different one.

    def test_old_null_pulse_backend_loads_as_the_same_job(self):
        from repro.compiler.batch import BatchCompiler

        job = BatchJob(circuit=_circuit(), strategy="cls", width_limit=3)
        old = {**batch_job_to_dict(job), "pulse_backend": None}
        rebuilt = batch_job_from_dict(json.loads(json.dumps(old)))
        assert batch_job_to_dict(rebuilt) == batch_job_to_dict(job)
        engine = BatchCompiler()
        assert engine.result_key(rebuilt) == engine.result_key(job)

    @pytest.mark.parametrize("value", [True, False])
    def test_old_pulse_backend_override_rejected(self, value):
        old = {
            **batch_job_to_dict(BatchJob(circuit=_circuit())),
            "pulse_backend": value,
        }
        with pytest.raises(SerializationError, match="register_strategy"):
            batch_job_from_dict(old)

    def test_old_bare_topology_rejected(self):
        from repro.device.topology import LineTopology
        from repro.ir.serialize import topology_to_dict

        old = {
            **batch_job_to_dict(BatchJob(circuit=_circuit())),
            "topology": topology_to_dict(LineTopology(4)),
        }
        with pytest.raises(
            SerializationError, match=r"device=Device\(topology=\.\.\.\)"
        ):
            batch_job_from_dict(old)

    def test_unregistered_strategy_rejected(self):
        unregistered = Strategy(
            key="wire-throwaway",
            description="never registered",
            commutativity_detection=False,
            cls_scheduling=False,
            aggregation=False,
            hand_optimization=False,
        )
        job = BatchJob(circuit=_circuit(), strategy=unregistered)
        with pytest.raises(SerializationError, match="unregistered"):
            batch_job_to_dict(job)

    def test_generic_loads_dispatches(self):
        job = BatchJob(circuit=_circuit(), strategy="isa")
        rebuilt = loads(dumps(job))
        assert isinstance(rebuilt, BatchJob)
        assert rebuilt.strategy.key == "isa"


class TestStatusAndStats:
    def test_status_round_trip(self):
        status = {
            "job_id": "job-1-abc",
            "state": "done",
            "attempts": 2,
            "error": None,
            "pass_seconds": {"LowerPass": 0.01},
        }
        rebuilt = job_status_from_dict(
            json.loads(json.dumps(job_status_to_dict(status)))
        )
        assert rebuilt == status

    def test_stats_round_trip(self):
        stats = {"completed": 4, "queue": {"depth": 1}, "workers": 2}
        rebuilt = service_stats_from_dict(
            json.loads(json.dumps(service_stats_to_dict(stats)))
        )
        assert rebuilt == stats

    def test_wrong_kind_rejected(self):
        envelope = job_status_to_dict({"state": "queued"})
        with pytest.raises(SerializationError):
            service_stats_from_dict(envelope)
