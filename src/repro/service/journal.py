"""Crash-safe journal of submitted compile jobs.

The service's restart story: every accepted job is recorded here (the
full ``repro-ir-v1`` job envelope plus its lifecycle state) and every
state transition rewrites the journal.  Finished results are not kept
here: they live in the engine's result cache (see
:mod:`repro.service.server`), which the service writes before a record
turns ``done``.  A restarted server therefore re-reports completed work
(serving results from that store) and re-enqueues whatever was queued or
running when the previous process died — and because the pulse cache
persisted independently, those re-runs answer their optimal-control
queries warm instead of re-synthesizing.

All writes use the disk cache's crash discipline
(:func:`repro.control.cache.disk.replace_into`: unique ``mkstemp`` temp
file in the same directory, fsync, atomic :func:`os.replace`), so a
killed writer can truncate only its own temp file, never the live
journal.

Layout under the journal directory::

    journal.json          # the manifest: every job record
"""

from __future__ import annotations

import json
import os
import threading

from repro.control.cache.disk import replace_into
from repro.errors import ServiceError

JOURNAL_FORMAT = "repro-service-journal-v1"

#: Lifecycle states a journaled job can be in.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a restart must resume (re-enqueue): the job was accepted but
#: produced no durable outcome before the previous process died.
RESUMABLE_STATES = ("queued", "running")


class JobJournal:
    """Atomic-on-every-write job manifest.

    Args:
        directory: Journal root; created if absent.  An existing
            manifest is loaded — construction is how a restarted server
            recovers its state.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._lock = threading.Lock()
        self._records: dict[str, dict] = {}
        self._load()

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, "journal.json")

    # -- recovery --------------------------------------------------------

    def _load(self) -> None:
        if not os.path.exists(self.manifest_path):
            return
        with open(self.manifest_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("format") != JOURNAL_FORMAT:
            raise ServiceError(
                f"{self.manifest_path}: unknown journal format "
                f"{payload.get('format')!r} (this build reads "
                f"{JOURNAL_FORMAT!r})"
            )
        for record in payload.get("jobs", []):
            self._records[record["job_id"]] = dict(record)

    def resumable(self) -> list[dict]:
        """Queued or running records, oldest first: a restarted server
        must re-enqueue them.  (Whether a ``done`` record's result is
        still servable is the result store's question, not the
        journal's.)"""
        with self._lock:
            records = [
                dict(r)
                for r in self._records.values()
                if r["state"] in RESUMABLE_STATES
            ]
        return sorted(records, key=lambda r: r.get("serial", 0))

    # -- recording -------------------------------------------------------

    def record(self, record: dict) -> None:
        """Insert or update one job record and rewrite the manifest."""
        with self._lock:
            self._records[record["job_id"]] = dict(record)
            self._write_manifest()

    def get(self, job_id: str) -> dict | None:
        with self._lock:
            record = self._records.get(job_id)
            return dict(record) if record is not None else None

    def records(self) -> list[dict]:
        with self._lock:
            return [dict(r) for r in self._records.values()]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def _write_manifest(self) -> None:
        """Rewrite ``journal.json`` atomically (call with the lock held).

        The manifest is small — job envelopes for circuits at the
        paper's scale are a few KB — so a full rewrite per transition is
        cheaper than a log-structured format plus compaction, and every
        on-disk state is a complete, valid snapshot.
        """
        payload = {
            "format": JOURNAL_FORMAT,
            "jobs": sorted(
                self._records.values(), key=lambda r: r.get("serial", 0)
            ),
        }
        replace_into(
            lambda handle: handle.write(
                json.dumps(payload, indent=1).encode("utf-8")
            ),
            self.manifest_path,
            ".tmp.json",
        )
