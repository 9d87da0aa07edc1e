"""Crash-safe, append-only journal of submitted compile jobs.

Every accepted job and every state transition appends one line: the
job's status and serial, plus its ``repro-ir-v1`` envelope on its first
line, so a transition costs the same however many jobs the log holds.
Finished results live in the engine's result cache, not here (see
:mod:`repro.service.server`).  A restarted server replays the log once,
serves done jobs from that store and re-enqueues whatever was queued or
running when the previous process died.

A line is fsynced before :meth:`JobJournal.record` returns, so a crash
can tear only the line being appended, a transition never acted on;
opening the journal cuts that torn last line off.  Layout::

    journal.jsonl   # {"format": "repro-service-journal-v2"}, then one
                    # JSON object per job transition

The earlier whole-manifest format (``journal.json``,
``repro-service-journal-v1``) is refused, not migrated.
"""

from __future__ import annotations

import json
import os
import threading

from repro.errors import ServiceError

JOURNAL_FORMAT = "repro-service-journal-v2"


class JobJournal:
    """The append-only job log under ``directory`` (created if absent).

    Opening an existing log cuts off its torn last line, if any;
    :meth:`replay` is how a restarted server recovers its jobs.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        if os.path.exists(os.path.join(self.directory, "journal.json")):
            raise ServiceError(
                f"{self.directory}: a 'repro-service-journal-v1' journal "
                f"(journal.json); this build reads only {JOURNAL_FORMAT!r}"
            )
        self._path = os.path.join(self.directory, "journal.jsonl")
        self._lock = threading.Lock()
        with open(self._path, "ab+") as handle:
            handle.seek(0)
            kept = handle.read().rfind(b"\n") + 1
            handle.truncate(kept)
        if kept == 0:
            self.record({"format": JOURNAL_FORMAT})

    def record(self, entry: dict) -> None:
        """Append one line about one job; flushed and fsynced on return."""
        line = json.dumps(entry, separators=(",", ":")).encode("utf-8") + b"\n"
        with self._lock, open(self._path, "ab") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())

    def replay(self) -> list[dict]:
        """Every job's merged record, ordered by serial.

        A job's lines merge in file order, the last write winning for
        each field.  Opening the journal already cut off a torn append,
        so any line that does not parse is damage and raises.
        """
        with self._lock, open(self._path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        try:
            header = json.loads(lines[0]).get("format")
        except (ValueError, AttributeError):
            header = None
        if header != JOURNAL_FORMAT:
            raise ServiceError(
                f"{self._path}: unknown journal format {header!r} (this "
                f"build reads {JOURNAL_FORMAT!r})"
            )
        jobs: dict[str, dict] = {}
        for number, line in enumerate(lines[1:], start=2):
            try:
                entry = json.loads(line)
                job = jobs.setdefault(entry["job_id"], {})
            except (ValueError, TypeError, KeyError):
                raise ServiceError(
                    f"{self._path}: line {number} is not a job record"
                ) from None
            job.update(entry)
        return sorted(jobs.values(), key=lambda job: job["serial"])
