"""Wire protocol of the compile service: its op vocabulary and format tag.

The service speaks the cache protocol's transport — 4-byte big-endian
length prefix, UTF-8 JSON object per frame, many frames per connection
(:mod:`repro.control.cache.protocol`) — through the same server and
client core (:class:`~repro.control.cache.server.FramedServer`,
:class:`~repro.control.cache.client.FramedClient`), so one fleet
deployment runs one framing codebase, one firewall story, and one
debugging toolset for both servers.  This module adds only what differs:
the ops below and the format tag.

Requests are ``{"op": <name>, ...}``; responses always carry ``"ok"``.
``ok: false`` means the *request* failed (malformed payload, unknown op,
unknown job id).  Flow-control outcomes are not errors: a rejected
submission answers ``ok: true, accepted: false`` with a machine-readable
``reason`` and a ``retry_after`` hint, because "the queue is full" is
the protocol working, not breaking.

Ops
===

=========  ==========================================================
``ping``     Liveness + format handshake.
``submit``   One ``repro-ir-v1`` job envelope -> ``job_id`` (accepted)
             or backpressure/quarantine rejection (``accepted: false``,
             ``reason`` of ``"queue_full"`` / ``"quarantined"``,
             ``retry_after`` seconds).
``status``   One job's lifecycle record (state ``queued`` / ``running``
             / ``done`` / ``failed`` / ``cancelled``, timestamps,
             attempts, error text, per-pass timing) as a
             ``repro-ir-v1`` ``job_status`` envelope.
``result``   The finished artifact: ``ready: true`` plus the serialized
             :class:`~repro.compiler.result.CompilationResult`, or
             ``ready: false`` plus the current state (and error text
             for failed/cancelled jobs).
``cancel``   Cooperative cancellation: queued jobs cancel immediately,
             running jobs stop at the next pass boundary.
``jobs``     Status envelopes for every job the server knows.
``stats``    Service metrics (queue, workers, breaker, journal, cache)
             as a ``repro-ir-v1`` ``service_stats`` envelope.
=========  ==========================================================
"""

from __future__ import annotations

#: Format tag answered by ``ping`` and checked by clients: bump on any
#: incompatible change to the op vocabulary or response shapes.
SERVICE_FORMAT = "repro-service-wire-v1"

#: The op vocabulary, in the order of the table above.
SERVICE_OPS = (
    "ping",
    "submit",
    "status",
    "result",
    "cancel",
    "jobs",
    "stats",
)

#: Machine-readable ``reason`` values on ``accepted: false`` responses.
REJECT_QUEUE_FULL = "queue_full"
REJECT_QUARANTINED = "quarantined"

__all__ = [
    "REJECT_QUARANTINED",
    "REJECT_QUEUE_FULL",
    "SERVICE_FORMAT",
    "SERVICE_OPS",
]
