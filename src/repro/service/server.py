"""Compilation-as-a-service: the resident compile server.

One process owns one warm :class:`~repro.compiler.batch.BatchCompiler`
(and therefore one shared pulse cache — local, sharded-dir, or a
``tcp://`` fleet cache) and serves compile jobs submitted over the wire
(:mod:`repro.service.protocol`) — on the framed-TCP core it shares with
the cache server, :class:`~repro.control.cache.server.FramedServer`,
which owns the connections, the op dispatch and the request counters.
Submissions land on a bounded queue
with explicit backpressure; worker threads drain it through
:meth:`BatchCompiler.run_job`; finished results are served back from the
engine's result cache.  Robustness features:

* **Backpressure** — a full queue rejects instantly with a
  ``retry_after`` derived from observed job times, never parks a client.
* **Per-job timeout + cancellation** — cooperative, at pass boundaries;
  partial optimal-control work stays in the warm cache.
* **Circuit breaker** — a job signature that fails ``threshold`` times
  in a row is quarantined (:mod:`repro.service.breaker`) so one
  poisoned circuit cannot wedge the worker pool.
* **One result store** — a job's signature is the engine's
  :meth:`~repro.compiler.batch.BatchCompiler.result_key`, and the
  engine's result cache is the only place a finished result lives: a
  stored key is answered ``done`` at submit time, and the ``result`` op
  sends the stored entry as is.  An engine without a result cache gets
  one: a :class:`~repro.compiler.result_cache.DiskResultCache` under
  ``<journal>/result-cache/``, else an in-memory store.
* **Crash-safe journal** — every accepted job and state transition
  appends one fsynced line to an append-only log
  (:mod:`repro.service.journal`): the job's status, plus its envelope on
  its first line.  A restarted server replays the log once, re-keys
  every job under its current engine, keeps done jobs whose key is
  stored (with their timings and counters), and re-runs the rest of its
  unfinished or unstored jobs against the still-warm cache (zero
  re-synthesis for cached pulses).

Embed it (tests, examples)::

    service = CompileService(engine=BatchCompiler(...), workers=2)
    service.start()
    ... ServiceClient(service.url) ...
    service.stop()

or run it standalone with ``python -m repro.service``.
"""

from __future__ import annotations

import os
import threading
import time

from repro.compiler.batch import COUNTER_KEYS, BatchCompiler
from repro.compiler.result_cache import (
    DiskResultCache,
    ResultCache,
    target_payload,
)
from repro.control.cache.server import FramedServer
from repro.errors import (
    ConfigError,
    JobCancelledError,
    ReproError,
    SerializationError,
    ServiceError,
)
from repro.service.breaker import (
    DEFAULT_BREAKER_COOLDOWN,
    DEFAULT_BREAKER_THRESHOLD,
    CircuitBreaker,
)
from repro.service.journal import JobJournal
from repro.service.protocol import (
    REJECT_QUARANTINED,
    REJECT_QUEUE_FULL,
    SERVICE_FORMAT,
    SERVICE_OPS,
)
from repro.service.queue import BoundedJobQueue

#: Default bound on queued (not yet running) jobs.
DEFAULT_QUEUE_LIMIT = 64

#: ``retry_after`` hints are clamped into this range (seconds): never so
#: small that clients hammer a loaded server, never so large that a
#: briefly-full queue strands them.
MIN_RETRY_AFTER = 0.5
MAX_RETRY_AFTER = 60.0

#: Seed for the completed-job-seconds EWMA before any job finishes.
_INITIAL_JOB_SECONDS = 1.0
_EWMA_WEIGHT = 0.3

#: Worker poll granularity; also bounds stop() latency for idle workers.
_TAKE_TIMEOUT_SECONDS = 0.2

#: Where an engine without a result cache gets its disk store, inside
#: the journal directory.
RESULT_CACHE_DIR = "result-cache"


class _JobRecord:
    """Everything the server tracks for one submitted job.

    ``signature`` is the job's result key under the running engine:
    label-blind, so a poisoned circuit resubmitted under a fresh name is
    still poisoned, and a done job's result is the store entry under it.
    """

    __slots__ = (
        "job_id",
        "serial",
        "envelope",
        "signature",
        "label",
        "state",
        "submitted_at",
        "started_at",
        "finished_at",
        "attempts",
        "error",
        "seconds",
        "pass_seconds",
        "counters",
        "cancel_event",
        "cancel_reason",
    )

    def __init__(self, job_id: str, serial: int, envelope: dict, signature: str):
        self.job_id = job_id
        self.serial = serial
        self.envelope = envelope
        self.signature = signature
        self.label = envelope.get("label") or None
        self.state = "queued"
        self.submitted_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.attempts = 0
        self.error: str | None = None
        self.seconds: float | None = None
        self.pass_seconds: dict[str, float] | None = None
        self.counters: dict[str, int] | None = None
        self.cancel_event = threading.Event()
        self.cancel_reason: str | None = None

    def status(self) -> dict:
        """The wire-facing status payload (flat JSON-safe scalars)."""
        status = {
            "job_id": self.job_id,
            "state": self.state,
            "signature": self.signature,
            "label": self.label,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "error": self.error,
            "seconds": self.seconds,
        }
        if self.pass_seconds is not None:
            status["pass_seconds"] = dict(self.pass_seconds)
        if self.counters is not None:
            status["counters"] = dict(self.counters)
        return status

    def mark_served(self) -> None:
        """Done without running: the result is already in the store."""
        self.state = "done"
        self.finished_at = time.time()
        self.seconds = 0.0
        self.counters = dict.fromkeys(COUNTER_KEYS, 0)


class CompileService(FramedServer):
    """The compile server: engine + queue + breaker + journal + wire.

    Args:
        engine: The resident :class:`BatchCompiler` (its cache is the
            service's warm cache, its result cache the store of finished
            jobs).  A default engine when omitted.  Its default device
            must serialize (jobs are keyed under it), else
            :class:`~repro.errors.ConfigError`.
        host / port: Bind address; port 0 picks a free port (read it
            back from :attr:`url`).
        queue_limit: Queued-job bound; submissions past it are rejected
            with backpressure.  ``None`` disables the bound.
        workers: Compile worker threads.  ``0`` is allowed — jobs then
            queue without running, which tests use to pin queue states
            deterministically.
        job_timeout: Per-job wall-clock budget, seconds; a job past it
            is cancelled at the next pass boundary and counts as a
            breaker failure.  ``None`` disables the timeout.
        breaker_threshold / breaker_cooldown: Circuit-breaker tuning
            (consecutive failures to quarantine a signature; quarantine
            seconds before a probe).
        journal: A :class:`JobJournal` (or a ``str`` or
            :class:`os.PathLike` directory for one) for crash-safe
            restarts; ``None`` keeps state in memory only.
            Results survive a restart only when the engine's result
            cache is on disk — as it is when mounted here.
    """

    FORMAT = SERVICE_FORMAT
    OPS = SERVICE_OPS

    def __init__(
        self,
        engine: BatchCompiler | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_limit: int | None = DEFAULT_QUEUE_LIMIT,
        workers: int = 2,
        job_timeout: float | None = None,
        breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
        breaker_cooldown: float = DEFAULT_BREAKER_COOLDOWN,
        journal: JobJournal | str | os.PathLike | None = None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.engine = engine if engine is not None else BatchCompiler()
        # A job's identity is its result key, which folds in the engine's
        # default device: one that cannot serialize leaves jobs unkeyed.
        try:
            target_payload(self.engine.device)
        except SerializationError as error:
            raise ConfigError(
                f"the compile service needs an engine whose default device "
                f"serializes: {error}"
            ) from None
        self.queue = BoundedJobQueue(limit=queue_limit)
        self.breaker = CircuitBreaker(
            threshold=breaker_threshold, cooldown=breaker_cooldown
        )
        if isinstance(journal, (str, os.PathLike)):
            journal = JobJournal(journal)
        self.journal = journal
        if self.engine.result_cache is None:
            self.engine.result_cache = (
                DiskResultCache(
                    os.path.join(self.journal.directory, RESULT_CACHE_DIR)
                )
                if self.journal is not None
                else ResultCache()
            )
        self.workers = workers
        self.job_timeout = job_timeout
        #: Guards the record table, job-id serial, and the EWMA.
        self._lock = threading.Lock()
        self._records: dict[str, _JobRecord] = {}
        #: Signature -> job_id of the queued/running job concurrent
        #: identical submissions coalesce onto (their "primary").
        self._inflight_by_signature: dict[str, str] = {}
        #: Primary job_id -> follower job_ids resolved when it finishes.
        self._followers: dict[str, list[str]] = {}
        self._next_serial = 1
        self._ewma_job_seconds = _INITIAL_JOB_SECONDS
        self._stopping = threading.Event()
        self._worker_threads: list[threading.Thread] = []
        self.completed = 0
        self.failed = 0
        self.cancelled = 0
        self.timed_out = 0
        self.rejected_busy = 0
        self.rejected_quarantined = 0
        self.resumed = 0
        self.result_cache_hits = 0
        self.result_cache_misses = 0
        self.coalesced = 0
        super().__init__(host, port)
        if self.journal is not None:
            self._recover()

    # -- lifecycle -------------------------------------------------------

    def start(self) -> CompileService:
        """Serve requests and start workers; returns self for chaining."""
        super().start()
        self._start_workers()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI path); workers still spawn."""
        self._start_workers()
        super().serve_forever()

    def stop(self) -> None:
        """Close every connection, stop the workers, persist the cache.

        The wire closes first (:meth:`FramedServer.stop`), so every
        request answered before that was journaled at its answer.
        Queued jobs are *not* abandoned: they stay journaled as queued,
        so the next start resumes them.  A running job finishes its
        current pass, is cancelled cooperatively, and is re-journaled as
        queued for the restart (its finished optimal-control work is
        already in the cache).
        """
        super().stop()
        self._stopping.set()
        self.queue.close()
        for thread in self._worker_threads:
            thread.join(timeout=10)
        self._worker_threads.clear()
        self.engine.save_cache()

    def _start_workers(self) -> None:
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"compile-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._worker_threads.append(thread)

    # -- restart recovery ------------------------------------------------

    def _recover(self) -> None:
        """Rebuild the record table from one journal replay; re-enqueue.

        A job without its envelope line is dropped: a worker's line can
        land before the submit path's first one, and a crash between the
        two means the submit never answered.  Every job's key is
        recomputed under the current engine, so a restart with another
        engine configuration never serves results compiled under the old
        one.  Done jobs whose key is in the result store come back
        ``done``.  Queued/running jobs (the previous process died holding
        them), and done jobs whose result is not in the store, are
        re-enqueued — ``force=True`` so a backlog larger than the queue
        limit is never stranded — with ``running`` ones charged one
        attempt for the run that died.
        """
        from repro.ir.serialize import batch_job_from_dict

        for stored in self.journal.replay():
            self._next_serial = max(self._next_serial, stored["serial"] + 1)
            if "job" not in stored:
                continue
            try:
                key = self.engine.result_key(batch_job_from_dict(stored["job"]))
            except ReproError:
                key = stored["signature"]  # a worker will fail it
            record = _JobRecord(
                stored["job_id"], stored["serial"], stored["job"], key
            )
            # A journal line is a status(): take its fields back, but
            # keep the key just computed under the current engine.
            for name, value in stored.items():
                if name in _JobRecord.__slots__ and name != "signature":
                    setattr(record, name, value)
            if record.state in ("queued", "running") or (
                record.state == "done" and key not in self.engine.result_cache
            ):
                if record.state == "running":
                    record.attempts += 1
                # Queued afresh: the outputs of the run that died (or of
                # the one whose result is gone) no longer describe it.
                record.state = "queued"
                record.started_at = record.finished_at = record.error = None
                record.seconds = record.pass_seconds = record.counters = None
                self._journal(record)
                self.queue.offer(record.job_id, force=True)
                self.resumed += 1
                # First resumable job with a signature becomes the
                # coalescing primary for post-restart resubmissions.
                self._inflight_by_signature.setdefault(
                    record.signature, record.job_id
                )
            self._records[record.job_id] = record

    # -- workers ---------------------------------------------------------

    def _worker_loop(self) -> None:
        while not self._stopping.is_set():
            job_id = self.queue.take(timeout=_TAKE_TIMEOUT_SECONDS)
            if job_id is None:
                if self.queue.closed:
                    return
                continue
            with self._lock:
                record = self._records.get(job_id)
            if record is None or record.state != "queued":
                continue  # cancelled (or otherwise resolved) while queued
            self._run_record(record)

    def _run_record(self, record: _JobRecord) -> None:
        from repro.ir.serialize import batch_job_from_dict

        with self._lock:
            record.state = "running"
            record.started_at = time.time()
            record.attempts += 1
            record.error = None
        self._journal(record)
        deadline = (
            time.monotonic() + self.job_timeout
            if self.job_timeout is not None
            else None
        )

        def _cancel_probe() -> str | None:
            if self._stopping.is_set():
                return "server shutting down"
            if record.cancel_event.is_set():
                return "cancelled by client"
            if deadline is not None and time.monotonic() > deadline:
                record.cancel_reason = "timeout"
                return f"timed out after {self.job_timeout}s"
            return None

        try:
            job = batch_job_from_dict(record.envelope)
            result, seconds, counters = self.engine.run_job(
                job, cancel=_cancel_probe
            )
        except JobCancelledError as error:
            self._finish_cancelled(record, error)
            return
        except ReproError as error:
            self._finish_failed(record, f"{type(error).__name__}: {error}")
            return
        except Exception as error:  # defensive: foreign bug, same handling
            self._finish_failed(record, f"{type(error).__name__}: {error}")
            return
        # run_job stored the result under the record's key before
        # returning: a crash before the flip below leaves a resumable
        # "running" record, never a done one without a result.
        with self._lock:
            record.state = "done"
            record.finished_at = time.time()
            record.seconds = seconds
            record.pass_seconds = dict(result.pass_seconds)
            record.counters = dict(counters)
            self.completed += 1
            self._ewma_job_seconds = (
                _EWMA_WEIGHT * seconds
                + (1.0 - _EWMA_WEIGHT) * self._ewma_job_seconds
            )
            followers = self._retire(record)
        self.breaker.record_success(record.signature)
        self._journal(record)
        self._resolve_followers_done(followers)

    def _resolve_followers_done(self, followers: list[str]) -> None:
        """A finished primary's coalesced riders are served its result.

        Each still-queued follower becomes ``done`` — its key is the
        primary's, so the stored entry is its result — with zero seconds
        and all-zero counters: no pass ran for it.  Followers a client
        cancelled in the meantime are left alone.
        """
        for job_id in followers:
            with self._lock:
                follower = self._records.get(job_id)
                if follower is None or follower.state != "queued":
                    continue
                follower.mark_served()
            self._journal(follower)

    def _finish_cancelled(self, record: _JobRecord, error: Exception) -> None:
        """Route a JobCancelledError to its real cause.

        Three distinct causes share the exception type: a client
        ``cancel`` (-> cancelled, no breaker change), the per-job
        timeout (-> failed + breaker: a circuit that blows the budget
        every time is poisoned), and server shutdown (-> back to queued
        for the restart; the pass that finished stayed warm).
        """
        if self._stopping.is_set() and not record.cancel_event.is_set():
            with self._lock:
                record.state = "queued"
                record.started_at = None
            self._journal(record)
            return
        if record.cancel_reason == "timeout":
            with self._lock:
                self.timed_out += 1
            self._finish_failed(record, str(error))
            return
        with self._lock:
            record.state = "cancelled"
            record.finished_at = time.time()
            record.error = str(error)
            self.cancelled += 1
        self._journal(record)
        self._promote_followers(record)

    def _finish_failed(self, record: _JobRecord, error: str) -> None:
        with self._lock:
            record.state = "failed"
            record.finished_at = time.time()
            record.error = error
            self.failed += 1
            followers = self._retire(record)
        self.breaker.record_failure(record.signature)
        self._journal(record)
        # A follower is the same job by construction, so the failure is
        # its failure too (one breaker strike only, though — the pool
        # compiled the circuit once).
        for job_id in followers:
            with self._lock:
                follower = self._records.get(job_id)
                if follower is None or follower.state != "queued":
                    continue
                follower.state = "failed"
                follower.finished_at = time.time()
                follower.error = error
                self.failed += 1
            self._journal(follower)

    def _promote_followers(self, record: _JobRecord) -> None:
        """A cancelled primary hands its slot to the first live follower.

        The promoted job enters the real queue (``force=True``: it was
        already admitted once) and inherits the remaining followers; with
        no live follower the signature simply leaves the in-flight index.
        """
        with self._lock:
            followers = self._retire(record)
            new_primary = None
            remaining = []
            for job_id in followers:
                follower = self._records.get(job_id)
                if follower is None or follower.state != "queued":
                    continue
                if new_primary is None:
                    new_primary = job_id
                else:
                    remaining.append(job_id)
            if new_primary is not None:
                self._inflight_by_signature[record.signature] = new_primary
                if remaining:
                    self._followers[new_primary] = remaining
        if new_primary is not None:
            self.queue.offer(new_primary, force=True)

    def _retire(self, record: _JobRecord) -> list[str]:
        """Take a resolved job out of the in-flight index (lock held) and
        hand back the followers that rode on it."""
        if self._inflight_by_signature.get(record.signature) == record.job_id:
            del self._inflight_by_signature[record.signature]
        return self._followers.pop(record.job_id, [])

    def _journal(self, record: _JobRecord, first: bool = False) -> None:
        """Append the job's status; its first line carries the envelope."""
        if self.journal is not None:
            entry = {**record.status(), "serial": record.serial}
            # Explicit nulls for the fields status() omits while unset,
            # so a re-run's line overwrites the ones of the run before.
            entry.setdefault("pass_seconds", None)
            entry.setdefault("counters", None)
            if first:
                entry["job"] = record.envelope
            self.journal.record(entry)

    # -- request dispatch ------------------------------------------------

    def _retry_after(self) -> float:
        """Backpressure hint: EWMA job seconds x backlog per worker."""
        with self._lock:
            per_job = self._ewma_job_seconds
        backlog = len(self.queue) + self._in_flight() + 1
        hint = per_job * backlog / max(self.workers, 1)
        return max(MIN_RETRY_AFTER, min(hint, MAX_RETRY_AFTER))

    def _in_flight(self) -> int:
        with self._lock:
            return sum(
                1 for r in self._records.values() if r.state == "running"
            )

    def _op_submit(self, request: dict) -> dict:
        from repro.ir.serialize import batch_job_from_dict

        envelope = request.get("job")
        if not isinstance(envelope, dict):
            raise ServiceError("submit needs a job envelope under 'job'")
        # Deserializing validates eagerly, so a malformed submission
        # fails its submitter, not a worker thread minutes later.
        signature = self.engine.result_key(batch_job_from_dict(envelope))
        allowed, retry_after = self.breaker.allow(signature)
        if not allowed:
            with self._counter_lock:
                self.rejected_quarantined += 1
            return {
                "ok": True,
                "accepted": False,
                "reason": REJECT_QUARANTINED,
                "retry_after": retry_after,
                "signature": signature,
                "breaker_state": self.breaker.state_of(signature),
            }
        with self._lock:
            serial = self._next_serial
            self._next_serial += 1
            job_id = f"job-{serial}-{signature[:8]}"
            record = _JobRecord(job_id, serial, envelope, signature)
            primary_id = self._inflight_by_signature.get(signature)
            primary = self._records.get(primary_id) if primary_id else None
            coalesced_onto = None
            # Checked under the lock: a primary stores its result before
            # it leaves the in-flight index, so a racing submission
            # either finds the result or coalesces onto the primary.
            served = signature in self.engine.result_cache
            if served:
                # Warm path 1: the result is already stored — the job is
                # born done, zero compilation.
                record.mark_served()
                self._records[job_id] = record
            elif primary is not None and primary.state in ("queued", "running"):
                # Warm path 2: an identical job is queued/running right
                # now — ride along as a follower instead of queueing twice.
                self._records[job_id] = record
                self._followers.setdefault(primary_id, []).append(job_id)
                coalesced_onto = primary_id
        if served:
            with self._counter_lock:
                self.result_cache_hits += 1
            self._journal(record, first=True)
            return self._accepted(record)
        if coalesced_onto is not None:
            with self._counter_lock:
                self.coalesced += 1
            self._journal(record, first=True)
            return {**self._accepted(record), "coalesced_with": coalesced_onto}
        with self._lock:
            self._records[job_id] = record
        if not self.queue.offer(job_id):
            with self._lock:
                del self._records[job_id]
            with self._counter_lock:
                self.rejected_busy += 1
            return {
                "ok": True,
                "accepted": False,
                "reason": REJECT_QUEUE_FULL,
                "retry_after": self._retry_after(),
                "queue_depth": len(self.queue),
                "queue_limit": self.queue.limit,
            }
        with self._lock:
            self._inflight_by_signature[signature] = job_id
        with self._counter_lock:
            self.result_cache_misses += 1
        self._journal(record, first=True)
        return self._accepted(record)

    def _accepted(self, record: _JobRecord) -> dict:
        return {
            "ok": True,
            "accepted": True,
            "job_id": record.job_id,
            "state": record.state,
            "position": len(self.queue),
        }

    def _record_or_raise(self, request: dict) -> _JobRecord:
        job_id = request.get("job_id")
        with self._lock:
            record = self._records.get(job_id)
        if record is None:
            raise ServiceError(f"unknown job id {job_id!r}")
        return record

    def _op_status(self, request: dict) -> dict:
        from repro.ir.serialize import job_status_to_dict

        record = self._record_or_raise(request)
        with self._lock:
            status = record.status()
        return {"ok": True, "status": job_status_to_dict(status)}

    def _op_result(self, request: dict) -> dict:
        record = self._record_or_raise(request)
        with self._lock:
            state = record.state
        if state != "done":
            return {
                "ok": True,
                "ready": False,
                "state": state,
                "error": record.error,
            }
        # The stored dict is the result_to_dict(..., include_source=True)
        # payload the wire carries: sent as is, never rebuilt here.
        result = self.engine.result_cache.get_dict(record.signature)
        if result is None:
            raise ServiceError(
                f"job {record.job_id!r} is done but its result is no longer "
                f"in the result store (evicted or deleted); resubmit"
            )
        return {"ok": True, "ready": True, "result": result}

    def _op_cancel(self, request: dict) -> dict:
        record = self._record_or_raise(request)
        record.cancel_event.set()
        with self._lock:
            if record.state == "queued":
                # Worker-side take() skips non-queued records, so this
                # resolves the job without waiting for a worker.
                record.state = "cancelled"
                record.finished_at = time.time()
                record.error = "cancelled while queued"
                self.cancelled += 1
                resolved_now = True
            else:
                resolved_now = record.state in ("done", "failed", "cancelled")
            state = record.state
        if state == "cancelled":
            self._journal(record)
            self._promote_followers(record)
        return {"ok": True, "state": state, "resolved": resolved_now}

    def _op_jobs(self, request: dict) -> dict:
        from repro.ir.serialize import job_status_to_dict

        with self._lock:
            records = sorted(self._records.values(), key=lambda r: r.serial)
            statuses = [record.status() for record in records]
        return {
            "ok": True,
            "jobs": [job_status_to_dict(status) for status in statuses],
        }

    def _op_stats(self, request: dict) -> dict:
        from repro.ir.serialize import service_stats_to_dict

        return {"ok": True, "stats": service_stats_to_dict(self.stats())}

    # -- metrics ---------------------------------------------------------

    def stats(self) -> dict:
        """Service metrics: queue, workers, breaker, journal, cache."""
        requests, errors = self.request_counts()
        with self._counter_lock:
            rejected_busy = self.rejected_busy
            rejected_quarantined = self.rejected_quarantined
            result_cache_hits = self.result_cache_hits
            result_cache_misses = self.result_cache_misses
            coalesced = self.coalesced
        with self._lock:
            states: dict[str, int] = {}
            for record in self._records.values():
                states[record.state] = states.get(record.state, 0) + 1
            ewma = self._ewma_job_seconds
        return {
            "format": SERVICE_FORMAT,
            "uptime_seconds": time.time() - self.started_at,
            "workers": self.workers,
            "job_timeout": self.job_timeout,
            "queue": self.queue.stats(),
            "jobs": states,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "timed_out": self.timed_out,
            "resumed": self.resumed,
            "rejected_busy": rejected_busy,
            "rejected_quarantined": rejected_quarantined,
            "ewma_job_seconds": ewma,
            "requests": requests,
            "request_errors": errors,
            "breaker": self.breaker.stats(),
            "journal_jobs": len(self._records) if self.journal is not None else 0,
            "cache": self.engine.cache_stats(),
            "coalesced_submissions": coalesced,
            # Submissions served at submit time vs queued, plus the
            # store's own stats.  ``completed`` deliberately excludes
            # served/coalesced jobs, so "second pass did zero
            # compilations" is a pure counter assertion.
            "result_cache": {
                "hits": result_cache_hits,
                "misses": result_cache_misses,
                "engine": self.engine.result_cache_stats(),
            },
        }
