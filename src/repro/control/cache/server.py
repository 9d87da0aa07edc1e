"""The shared cache server: one warm pulse store for a whole fleet.

:class:`FramedServer` is the framed-TCP core of both servers in this
package tree: a stdlib ``socketserver.ThreadingTCPServer`` speaking the
length-prefixed JSON frames of :mod:`repro.control.cache.protocol`,
with the lifecycle, op dispatch and request counters.  The compile
service (:class:`repro.service.server.CompileService`) subclasses it
with its own op vocabulary, and so does :class:`CacheServer`.

The cache server owns one :class:`~repro.control.cache.store.PulseCache`
(optionally disk-backed, optionally byte-budgeted — eviction then
happens server-side, fleet-wide) and answers point lookups, batched
delta uploads, statistics queries, and the per-signature lease that
gives remote clients fleet-wide single-flight synthesis.

Run it standalone with ``python -m repro.control.cache_server`` or embed
it (tests, examples)::

    server = CacheServer(store=ShardedDiskPulseCache("fleet_cache"))
    server.start()                      # background thread
    ... clients connect to server.url ...
    server.stop()                       # closes connections, saves
"""

from __future__ import annotations

import contextlib
import socket
import socketserver
import threading
import time

from repro.control.cache.protocol import (
    PROTOCOL_FORMAT,
    decode_latency_key,
    decode_pulse_key,
    reachable_host,
    recv_message,
    send_message,
)
from repro.control.cache.store import PulseCache

#: A crashed client's lease must not wedge its signature forever; after
#: this many seconds an unreleased lease is grantable again.  Far above
#: any real synthesis time at the paper's instruction widths.
DEFAULT_LOCK_TTL_SECONDS = 300.0

#: Seconds :meth:`FramedServer.stop` waits for handler threads to
#: finish the request they are in.
_DRAIN_SECONDS = 5.0

_OPS = (
    "ping",
    "get_latency",
    "get_pulse",
    "push_delta",
    "stats",
    "lock",
    "unlock",
)


class _LeaseTable:
    """Per-signature leases with a crash-recovery TTL."""

    def __init__(self, ttl: float) -> None:
        self.ttl = ttl
        self._leases: dict[tuple, tuple[str, float]] = {}
        self._lock = threading.Lock()
        self.expired = 0

    def acquire(self, key: tuple, owner: str) -> bool:
        """Grant (or renew — same owner re-acquiring) the lease on a key
        for :attr:`ttl` seconds."""
        now = time.monotonic()
        with self._lock:
            held = self._leases.get(key)
            if held is not None:
                holder, deadline = held
                if holder != owner and now < deadline:
                    return False
                if holder != owner:
                    self.expired += 1
            self._leases[key] = (owner, now + self.ttl)
            return True

    def release(self, key: tuple, owner: str) -> bool:
        with self._lock:
            held = self._leases.get(key)
            if held is None or held[0] != owner:
                return False
            del self._leases[key]
            return True

    def __len__(self) -> int:
        with self._lock:
            return len(self._leases)


class _Handler(socketserver.BaseRequestHandler):
    """One connection: a stream of request frames until EOF."""

    def handle(self) -> None:
        owner: FramedServer = self.server.owner  # type: ignore[attr-defined]
        while True:
            try:
                request = recv_message(self.request)
            except Exception:
                return  # torn frame / reset: drop the connection
            if request is None:
                return
            try:
                response = owner.dispatch(request)
            except Exception as error:  # never kill the server thread
                # A raised dispatch is as much a failed request as an
                # unknown op; without this, stats() under-reports.
                owner.record_error()
                response = {"ok": False, "error": f"{type(error).__name__}: {error}"}
            try:
                send_message(self.request, response)
            except OSError:
                return


class _TCPServer(socketserver.ThreadingTCPServer):
    """Thread-per-connection server that can close what it accepted."""

    allow_reuse_address = True
    daemon_threads = True
    owner: FramedServer

    def __init__(self, address: tuple[str, int]) -> None:
        self._connections: set = set()
        self._connections_changed = threading.Condition()
        super().__init__(address, _Handler)

    def process_request(self, request, client_address) -> None:
        # Runs on the serve loop, before the handler thread exists: once
        # the loop has stopped, every accepted connection is tracked.
        with self._connections_changed:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        super().shutdown_request(request)
        with self._connections_changed:
            self._connections.discard(request)
            self._connections_changed.notify_all()

    def close_connections(self, timeout: float) -> None:
        """Shut every open connection down; wait for its handler to end."""
        with self._connections_changed:
            for connection in self._connections:
                with contextlib.suppress(OSError):
                    connection.shutdown(socket.SHUT_RDWR)
            self._connections_changed.wait_for(
                lambda: not self._connections, timeout=timeout
            )


class FramedServer:
    """A framed-TCP request server: lifecycle, dispatch and counters.

    The shared core of :class:`CacheServer` and the compile service
    (:class:`repro.service.server.CompileService`).  One daemon thread
    serves each connection: it reads length-prefixed JSON frames
    (:mod:`repro.control.cache.protocol`) and answers each through
    :meth:`dispatch`, which routes ``{"op": name}`` to the subclass's
    ``_op_<name>`` method and counts it.  Subclasses set :attr:`FORMAT`
    (answered by ``ping``) and :attr:`OPS`, and add their own state
    around :meth:`start` / :meth:`serve_forever` / :meth:`stop`.

    Args:
        host / port: Bind address; port 0 picks a free port (read it
            back from :attr:`url` after construction).
    """

    #: Wire-format tag answered by ``ping`` (set by each subclass).
    FORMAT: str
    #: The op vocabulary (``ping`` included); ``dispatch`` answers only these.
    OPS: tuple[str, ...]

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.started_at = time.time()
        self.op_counts: dict[str, int] = dict.fromkeys(self.OPS, 0)
        self.errors = 0
        #: Request/error counters are bumped from the handler threads,
        #: one per connected client; ``n += 1`` is a read-modify-write,
        #: so unlocked concurrent bumps lose counts.
        self._counter_lock = threading.Lock()
        self._serving = False
        self._thread: threading.Thread | None = None
        self._tcp = _TCPServer((host, port))
        self._tcp.owner = self

    # -- lifecycle -------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        return self._tcp.server_address[:2]

    @property
    def url(self) -> str:
        """A *connectable* ``host:port`` for this server.

        A wildcard bind address (``0.0.0.0`` / ``::``) is resolved to
        loopback — the wildcard listens everywhere but connects nowhere,
        so advertising it verbatim hands clients a dead address.  Reach
        a wildcard-bound server from another machine by its real
        interface address instead.
        """
        host, port = self.address
        return f"{reachable_host(host)}:{port}"

    def start(self):
        """Serve from a daemon thread; returns self for chaining."""
        self._serving = True
        self._thread = threading.Thread(
            target=self._tcp.serve_forever, name=type(self).__name__, daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI path)."""
        self._serving = True
        self._tcp.serve_forever()

    def stop(self) -> None:
        """Stop serving and close every connection.

        Stops the serve loop (when one ran), closes the listener, shuts
        down the accepted connections and waits for their handler
        threads, so a subclass that persists state after this returns
        never acknowledges a request it has not persisted: a client
        mid-request sees a dropped connection instead.  Safe on a
        server that was never started, and safe to call twice.
        """
        if self._serving:
            self._serving = False
            self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self._tcp.close_connections(timeout=_DRAIN_SECONDS)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- request dispatch ------------------------------------------------

    def record_error(self) -> None:
        """Count one failed request (unknown op or raised dispatch)."""
        with self._counter_lock:
            self.errors += 1

    def dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if op not in self.OPS:
            self.record_error()
            return {"ok": False, "error": f"unknown op {op!r}; known: {self.OPS}"}
        with self._counter_lock:
            self.op_counts[op] += 1
        return getattr(self, f"_op_{op}")(request)

    def request_counts(self) -> tuple[dict[str, int], int]:
        """(requests per op that ran at least once, failed requests)."""
        with self._counter_lock:
            return {k: v for k, v in self.op_counts.items() if v}, self.errors

    def _op_ping(self, request: dict) -> dict:
        return {"ok": True, "format": self.FORMAT}


class CacheServer(FramedServer):
    """The fleet cache: store + lease table + request dispatch.

    Args:
        store: The backing :class:`PulseCache` (any backend; pass a
            :class:`~repro.control.cache.sharded.ShardedDiskPulseCache`
            for persistence or set its ``max_bytes`` for server-side
            eviction).  A fresh in-memory store when omitted.
        host / port: Bind address; port 0 picks a free port (read it
            back from :attr:`url` after construction).
        lock_ttl: Seconds before an unreleased synthesis lease expires.
    """

    FORMAT = PROTOCOL_FORMAT
    OPS = _OPS

    def __init__(
        self,
        store: PulseCache | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        lock_ttl: float = DEFAULT_LOCK_TTL_SECONDS,
    ) -> None:
        self.store = store if store is not None else PulseCache()
        self.leases = _LeaseTable(lock_ttl)
        super().__init__(host, port)

    def stop(self) -> int:
        """Shut down, then persist the store; returns entries saved."""
        super().stop()
        return self.store.save()

    # -- request dispatch ------------------------------------------------

    def _op_get_latency(self, request: dict) -> dict:
        key = decode_latency_key(request["key"])
        value = self.store.get_latency(key)
        if value is None:
            return {"ok": True, "found": False}
        return {"ok": True, "found": True, "value": value}

    def _op_get_pulse(self, request: dict) -> dict:
        from repro.ir.serialize import grape_result_to_dict

        key = decode_pulse_key(request["key"])
        result = self.store.get_pulse(key)
        if result is None:
            return {"ok": True, "found": False}
        return {"ok": True, "found": True, "result": grape_result_to_dict(result)}

    def _op_push_delta(self, request: dict) -> dict:
        from repro.ir.serialize import cache_delta_from_dict

        delta = cache_delta_from_dict(request["delta"])
        added = self.store.merge_delta(delta)
        return {"ok": True, "added": added, "received": len(delta)}

    def _op_stats(self, request: dict) -> dict:
        from repro.ir.serialize import cache_stats_to_dict

        return {"ok": True, "stats": cache_stats_to_dict(self.stats())}

    def _op_lock(self, request: dict) -> dict:
        key = decode_pulse_key(request["key"])
        granted = self.leases.acquire(key, str(request["owner"]))
        return {"ok": True, "granted": granted}

    def _op_unlock(self, request: dict) -> dict:
        key = decode_pulse_key(request["key"])
        released = self.leases.release(key, str(request["owner"]))
        return {"ok": True, "released": released}

    # -- metrics ---------------------------------------------------------

    def stats(self) -> dict:
        """Store stats plus server-side request/lease counters."""
        info = self.store.stats()
        requests, errors = self.request_counts()
        info.update(
            server_uptime_seconds=time.time() - self.started_at,
            server_requests=requests,
            server_errors=errors,
            server_active_leases=len(self.leases),
            server_expired_leases=self.leases.expired,
        )
        return info
