"""Client side of the compile service.

:class:`ServiceClient` wraps the wire protocol in a job-shaped API:
submit circuits (or prebuilt :class:`~repro.compiler.batch.BatchJob`
payloads), poll status, download finished
:class:`~repro.compiler.result.CompilationResult` artifacts.  The
transport is :class:`~repro.control.cache.client.FramedClient`, the one
:class:`~repro.control.cache.client.RemotePulseCache` uses too: one
socket, one lock around each round trip, one silent reconnect on a
dropped connection — which is exactly what rides out a server restart
mid-session.

Backpressure is surfaced as :class:`~repro.errors.ServiceBusyError`
(with the server's ``retry_after`` hint) rather than a generic failure,
so callers can tell "try again shortly" from "this job is broken";
:meth:`ServiceClient.submit_retrying` implements the obvious honor-the-
hint retry loop.
"""

from __future__ import annotations

import time

from repro.control.cache.client import FramedClient
from repro.errors import ServiceBusyError, ServiceError
from repro.service.protocol import SERVICE_FORMAT

#: Default seconds between status polls in :meth:`ServiceClient.wait`.
DEFAULT_POLL_SECONDS = 0.1


class ServiceClient(FramedClient):
    """One connection to a compile service.

    Args:
        url: Server address, ``host:port`` or ``tcp://host:port``.
        timeout: Socket timeout per round trip, seconds.
    """

    peer = "compile service"
    error = ServiceError

    # -- ops -------------------------------------------------------------

    def ping(self) -> str:
        """Liveness check; returns the server's wire-format tag."""
        response = self.request({"op": "ping"})
        tag = response.get("format")
        if tag != SERVICE_FORMAT:
            raise ServiceError(
                f"{self.url} speaks {tag!r}, this client {SERVICE_FORMAT!r}"
            )
        return tag

    def submit(self, circuit, strategy="isa", **job_kwargs) -> str:
        """Submit one circuit for compilation; returns its job id.

        ``strategy`` and the remaining keywords are
        :class:`~repro.compiler.batch.BatchJob` fields (``width_limit``,
        ``label``, ``device``, ...).  Raises
        :class:`~repro.errors.ServiceBusyError` on backpressure or
        quarantine.
        """
        from repro.compiler.batch import BatchJob

        return self.submit_job(
            BatchJob(circuit=circuit, strategy=strategy, **job_kwargs)
        )

    def submit_job(self, job) -> str:
        """Submit one :class:`BatchJob` (or its envelope dict)."""
        from repro.ir.serialize import batch_job_to_dict

        envelope = job if isinstance(job, dict) else batch_job_to_dict(job)
        response = self.request({"op": "submit", "job": envelope})
        if not response.get("accepted"):
            reason = response.get("reason", "busy")
            retry_after = float(response.get("retry_after") or 1.0)
            raise ServiceBusyError(
                f"compile service {self.url} rejected the submission "
                f"({reason}); retry in {retry_after:.1f}s",
                retry_after=retry_after,
                reason=reason,
            )
        return response["job_id"]

    def submit_retrying(
        self, job, max_wait: float = 120.0
    ) -> str:
        """Submit, honoring backpressure hints until ``max_wait`` runs out."""
        deadline = time.monotonic() + max_wait
        while True:
            try:
                return self.submit_job(job)
            except ServiceBusyError as busy:
                wait = busy.retry_after or 1.0
                if time.monotonic() + wait > deadline:
                    raise
                time.sleep(wait)

    def status(self, job_id: str) -> dict:
        """One job's lifecycle record (state, timestamps, timings)."""
        from repro.ir.serialize import job_status_from_dict

        response = self.request({"op": "status", "job_id": job_id})
        return job_status_from_dict(response["status"])

    def result(self, job_id: str):
        """The finished :class:`CompilationResult`, or ``None`` if not done.

        Raises :class:`ServiceError` when the job failed or was
        cancelled — not-ready-yet and never-will-be are different
        answers.
        """
        from repro.ir.serialize import result_from_dict

        response = self.request({"op": "result", "job_id": job_id})
        if not response["ready"]:
            state = response.get("state")
            if state in ("failed", "cancelled"):
                raise ServiceError(
                    f"job {job_id} {state}: {response.get('error')}"
                )
            return None
        return result_from_dict(response["result"])

    def wait(
        self,
        job_id: str,
        timeout: float = 300.0,
        poll: float = DEFAULT_POLL_SECONDS,
    ):
        """Poll until done and return the result; raise on failure/timeout."""
        deadline = time.monotonic() + timeout
        while True:
            result = self.result(job_id)  # raises on failed/cancelled
            if result is not None:
                return result
            if time.monotonic() > deadline:
                raise ServiceError(
                    f"job {job_id} still {self.status(job_id)['state']} "
                    f"after {timeout}s"
                )
            time.sleep(poll)

    def cancel(self, job_id: str) -> str:
        """Request cancellation; returns the job's state after the request.

        ``"cancelled"`` means it resolved immediately (it was queued or
        already terminal); ``"running"`` means the stop lands at the
        next pass boundary — poll :meth:`status` for the outcome.
        """
        response = self.request({"op": "cancel", "job_id": job_id})
        return response["state"]

    def jobs(self) -> list[dict]:
        """Status records for every job the server knows, oldest first."""
        from repro.ir.serialize import job_status_from_dict

        response = self.request({"op": "jobs"})
        return [job_status_from_dict(entry) for entry in response["jobs"]]

    def stats(self) -> dict:
        """The server's :meth:`CompileService.stats` dict."""
        from repro.ir.serialize import service_stats_from_dict

        return service_stats_from_dict(self.request({"op": "stats"})["stats"])


__all__ = ["DEFAULT_POLL_SECONDS", "ServiceClient"]
