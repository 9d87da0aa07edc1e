"""Compilation-as-a-service: a resilient async compile-job server.

The batch engine (:mod:`repro.compiler.batch`) made one *process* share
one warm pulse cache across a sweep; this package makes one *server*
share one resident engine across many submitting processes and
machines.  Clients submit ``repro-ir-v1`` job envelopes over the cache
protocol's length-prefixed JSON framing; the server queues them with
explicit backpressure, compiles them on worker threads, quarantines
poisoned circuits behind a circuit breaker, journals every transition
crash-safely, and serves finished results back from the engine's
result cache — the one store of finished jobs.  The wire itself is the
cache package's framed-TCP core: :class:`CompileService` subclasses
:class:`~repro.control.cache.server.FramedServer` and
:class:`ServiceClient` subclasses
:class:`~repro.control.cache.client.FramedClient`, the pair the pulse
cache server and its clients are built on.

Pieces:

* :mod:`~repro.service.protocol` — op vocabulary and response shapes.
* :mod:`~repro.service.queue` — bounded reject-not-block job queue.
* :mod:`~repro.service.breaker` — per-signature circuit breaker.
* :mod:`~repro.service.journal` — atomic job manifest.
* :mod:`~repro.service.server` — :class:`CompileService` itself.
* :mod:`~repro.service.client` — :class:`ServiceClient`.

Run a server with ``python -m repro.service``; talk to it with
:class:`ServiceClient` or ``python -m repro.experiments.runner
--submit-url HOST:PORT``.
"""

from repro.service.breaker import (
    DEFAULT_BREAKER_COOLDOWN,
    DEFAULT_BREAKER_THRESHOLD,
    CircuitBreaker,
)
from repro.service.client import ServiceClient
from repro.service.journal import JobJournal
from repro.service.protocol import (
    REJECT_QUARANTINED,
    REJECT_QUEUE_FULL,
    SERVICE_FORMAT,
    SERVICE_OPS,
)
from repro.service.queue import BoundedJobQueue
from repro.service.server import DEFAULT_QUEUE_LIMIT, CompileService

__all__ = [
    "DEFAULT_BREAKER_COOLDOWN",
    "DEFAULT_BREAKER_THRESHOLD",
    "DEFAULT_QUEUE_LIMIT",
    "REJECT_QUARANTINED",
    "REJECT_QUEUE_FULL",
    "SERVICE_FORMAT",
    "SERVICE_OPS",
    "BoundedJobQueue",
    "CircuitBreaker",
    "CompileService",
    "JobJournal",
    "ServiceClient",
]
