"""Tests for the crash-safe job journal.

Result storage lives in the engine's result cache: the restart tests
that pair journal records with stored results are in
``tests/service/test_service.py::TestRestart``.
"""

import json
import os

import pytest

from repro.benchmarks.qaoa import line_graph, maxcut_qaoa_circuit
from repro.compiler.batch import BatchJob
from repro.errors import ServiceError
from repro.ir.serialize import batch_job_to_dict
from repro.service.journal import JobJournal


def _record(job_id: str, serial: int, state: str) -> dict:
    circuit = maxcut_qaoa_circuit(line_graph(3), name="j")
    return {
        "job_id": job_id,
        "serial": serial,
        "state": state,
        "job": batch_job_to_dict(BatchJob(circuit=circuit)),
        "signature": "s" * 64,
        "label": None,
        "submitted_at": 1.0,
        "started_at": None,
        "finished_at": None,
        "attempts": 0,
        "error": None,
    }


class TestManifest:
    def test_round_trip(self, tmp_path):
        journal = JobJournal(tmp_path / "journal")
        journal.record(_record("job-1", 1, "queued"))
        journal.record(_record("job-2", 2, "done"))
        reloaded = JobJournal(tmp_path / "journal")
        assert len(reloaded) == 2
        assert reloaded.get("job-1")["state"] == "queued"
        assert reloaded.get("job-2")["state"] == "done"

    def test_update_replaces_in_place(self, tmp_path):
        journal = JobJournal(tmp_path / "journal")
        journal.record(_record("job-1", 1, "queued"))
        journal.record(_record("job-1", 1, "running"))
        assert len(journal) == 1
        assert JobJournal(tmp_path / "journal").get("job-1")["state"] == "running"

    def test_no_temp_droppings(self, tmp_path):
        journal = JobJournal(tmp_path / "journal")
        for index in range(5):
            journal.record(_record(f"job-{index}", index, "queued"))
        leftovers = [
            name
            for name in os.listdir(journal.directory)
            if ".tmp" in name
        ]
        assert leftovers == []

    def test_manifest_is_the_only_file(self, tmp_path):
        journal = JobJournal(tmp_path / "journal")
        journal.record(_record("job-1", 1, "done"))
        assert os.listdir(journal.directory) == ["journal.json"]

    def test_unknown_format_rejected(self, tmp_path):
        directory = tmp_path / "journal"
        directory.mkdir()
        (directory / "journal.json").write_text(
            json.dumps({"format": "something-else", "jobs": []})
        )
        with pytest.raises(ServiceError, match="unknown journal format"):
            JobJournal(directory)


class TestResumable:
    def test_queued_and_running_resume_in_serial_order(self, tmp_path):
        journal = JobJournal(tmp_path / "journal")
        journal.record(_record("job-3", 3, "queued"))
        journal.record(_record("job-1", 1, "running"))
        journal.record(_record("job-2", 2, "failed"))
        resumable = [r["job_id"] for r in journal.resumable()]
        assert resumable == ["job-1", "job-3"]

    def test_finished_records_never_resume_here(self, tmp_path):
        """Whether a done job's result is still servable is the result
        store's question; the compile service's restart asks it."""
        journal = JobJournal(tmp_path / "journal")
        for serial, state in enumerate(("done", "failed", "cancelled"), 1):
            journal.record(_record(f"job-{serial}", serial, state))
        assert journal.resumable() == []
