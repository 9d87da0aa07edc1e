"""Tests for the append-only job journal.

Result storage lives in the engine's result cache: the restart tests
that pair journaled jobs with stored results are in
``tests/service/test_service.py::TestRestart``.
"""

import json
import os

import pytest

import repro.service.journal as journal_module
from repro.benchmarks.qaoa import line_graph, maxcut_qaoa_circuit
from repro.compiler.batch import BatchJob
from repro.errors import ServiceError
from repro.ir.serialize import batch_job_to_dict
from repro.service.journal import JOURNAL_FORMAT, JobJournal


def _envelope() -> dict:
    circuit = maxcut_qaoa_circuit(line_graph(3), name="j")
    return batch_job_to_dict(BatchJob(circuit=circuit))


def _line(job_id: str, serial: int, state: str, first: bool = False) -> dict:
    """One journal line as the service writes it: a status plus the
    serial, with the envelope on a job's first line."""
    entry = {
        "job_id": job_id,
        "state": state,
        "signature": "s" * 64,
        "label": None,
        "submitted_at": 1.0,
        "started_at": None,
        "finished_at": None,
        "attempts": 0,
        "error": None,
        "seconds": None,
        "serial": serial,
    }
    if first:
        entry["job"] = _envelope()
    return entry


def _log_path(journal: JobJournal) -> str:
    return os.path.join(journal.directory, "journal.jsonl")


def _states(journal: JobJournal) -> dict:
    return {job["job_id"]: job["state"] for job in journal.replay()}


class TestLog:
    def test_round_trip(self, tmp_path):
        journal = JobJournal(tmp_path / "journal")
        journal.record(_line("job-1", 1, "queued", first=True))
        journal.record(_line("job-2", 2, "done", first=True))
        replayed = JobJournal(tmp_path / "journal").replay()
        assert [job["state"] for job in replayed] == ["queued", "done"]
        assert replayed[0] == _line("job-1", 1, "queued", first=True)

    def test_later_line_updates_fields_and_keeps_the_envelope(self, tmp_path):
        journal = JobJournal(tmp_path / "journal")
        journal.record(_line("job-1", 1, "queued", first=True))
        journal.record({**_line("job-1", 1, "done"), "seconds": 2.5})
        (job,) = JobJournal(tmp_path / "journal").replay()
        assert job["state"] == "done"
        assert job["seconds"] == 2.5
        assert job["job"] == _envelope()

    def test_each_record_appends_one_line(self, tmp_path):
        journal = JobJournal(tmp_path / "journal")
        with open(_log_path(journal), "rb") as handle:
            before = handle.read()
        assert before == b'{"format":"%s"}\n' % JOURNAL_FORMAT.encode()
        journal.record(_line("job-1", 1, "queued", first=True))
        journal.record(_line("job-1", 1, "running"))
        with open(_log_path(journal), "rb") as handle:
            after = handle.read()
        assert after.startswith(before)
        assert after.count(b"\n") == 3

    def test_log_is_the_only_file(self, tmp_path):
        journal = JobJournal(tmp_path / "journal")
        journal.record(_line("job-1", 1, "done", first=True))
        assert os.listdir(journal.directory) == ["journal.jsonl"]

    def test_unknown_header_rejected(self, tmp_path):
        directory = tmp_path / "journal"
        directory.mkdir()
        (directory / "journal.jsonl").write_text(
            json.dumps({"format": "something-else"}) + "\n"
        )
        with pytest.raises(ServiceError, match="unknown journal format") as info:
            JobJournal(directory).replay()
        assert "journal.jsonl" in str(info.value)

    def test_v1_manifest_refused(self, tmp_path):
        directory = tmp_path / "journal"
        directory.mkdir()
        (directory / "journal.json").write_text(
            json.dumps({"format": "repro-service-journal-v1", "jobs": []})
        )
        with pytest.raises(ServiceError, match="repro-service-journal-v1"):
            JobJournal(directory)

    def test_replay_orders_jobs_by_serial(self, tmp_path):
        journal = JobJournal(tmp_path / "journal")
        journal.record(_line("job-3", 3, "queued", first=True))
        journal.record(_line("job-1", 1, "running", first=True))
        journal.record(_line("job-2", 2, "failed", first=True))
        journal.record(_line("job-3", 3, "running"))
        replayed = [job["job_id"] for job in journal.replay()]
        assert replayed == ["job-1", "job-2", "job-3"]


class TestFaultInjection:
    def test_torn_last_line_at_every_offset(self, tmp_path):
        """A crash mid-append leaves a prefix of the last line; reopening
        drops exactly that transition and the log stays appendable."""
        source = JobJournal(tmp_path / "source")
        source.record(_line("job-1", 1, "queued", first=True))
        source.record(_line("job-1", 1, "running"))
        source.record(_line("job-1", 1, "done"))
        with open(_log_path(source), "rb") as handle:
            data = handle.read()
        kept = data.rfind(b"\n", 0, len(data) - 1) + 1
        for offset in range(len(data) - kept):
            directory = tmp_path / f"torn-{offset}"
            directory.mkdir()
            (directory / "journal.jsonl").write_bytes(data[: kept + offset])
            journal = JobJournal(directory)
            assert _states(journal) == {"job-1": "running"}, offset
            journal.record(_line("job-1", 1, "failed"))
            assert _states(JobJournal(directory)) == {"job-1": "failed"}
            with open(_log_path(journal), "rb") as handle:
                assert handle.read() == data[:kept] + (
                    json.dumps(
                        _line("job-1", 1, "failed"), separators=(",", ":")
                    ).encode()
                    + b"\n"
                )

    def test_torn_header_is_rewritten(self, tmp_path):
        directory = tmp_path / "journal"
        directory.mkdir()
        (directory / "journal.jsonl").write_bytes(b'{"format":"repro-ser')
        journal = JobJournal(directory)
        journal.record(_line("job-1", 1, "queued", first=True))
        assert _states(JobJournal(directory)) == {"job-1": "queued"}

    @pytest.mark.parametrize("number", [3, 4], ids=["middle", "last"])
    def test_corrupt_line_names_the_line(self, tmp_path, number):
        """A whole line that does not parse is damage, not a torn append:
        every reopening raises, the last line included."""
        journal = JobJournal(tmp_path / "journal")
        journal.record(_line("job-1", 1, "queued", first=True))
        journal.record(_line("job-1", 1, "running"))
        journal.record(_line("job-1", 1, "done"))
        with open(_log_path(journal), "rb") as handle:
            lines = handle.read().split(b"\n")
        lines[number - 1] = lines[number - 1][: len(lines[number - 1]) // 2]
        with open(_log_path(journal), "wb") as handle:
            handle.write(b"\n".join(lines))
        for _ in range(2):
            with pytest.raises(ServiceError, match=f"line {number}"):
                JobJournal(tmp_path / "journal").replay()


class TestFlatCost:
    def test_record_encodes_one_line_however_many_jobs_are_held(
        self, tmp_path, monkeypatch
    ):
        """The bytes one transition encodes do not grow with the number
        of jobs the journal holds: 1 job and 200 jobs differ only by the
        extra digits in the job id and the serial."""
        encoded = []
        dumps = json.dumps

        def counting_dumps(*args, **kwargs):
            text = dumps(*args, **kwargs)
            encoded.append(len(text))
            return text

        monkeypatch.setattr(journal_module.json, "dumps", counting_dumps)

        def one_record(journal, serial) -> int:
            encoded.clear()
            journal.record(_line(f"job-{serial}", serial, "running"))
            return sum(encoded)

        journal = JobJournal(tmp_path / "journal")
        journal.record(_line("job-1", 1, "queued", first=True))
        alone = one_record(journal, 1)
        for serial in range(2, 201):
            journal.record(_line(f"job-{serial}", serial, "queued", first=True))
        among_200 = one_record(journal, 200)
        extra_digits = 2 * (len("200") - len("1"))
        assert alone <= among_200 <= alone + extra_digits
