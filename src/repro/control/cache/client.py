"""Client side of the shared cache: read-through, write-behind.

:class:`FramedClient` is the transport both clients in this package
tree share — this module's :class:`RemotePulseCache` and the compile
service's :class:`~repro.service.client.ServiceClient`: one socket, one
lock around each round trip, one silent reconnect on a dropped
connection.

:class:`RemotePulseCache` subclasses :class:`PulseCache`, so the whole
compiler stack mounts it unchanged: the in-memory base acts as the local
L1, remote round trips happen only on L1 misses, and writes are buffered
into a pending :class:`CacheDelta` that uploads in batches (amortizing
one socket round trip over many entries).  The fleet-wide exactly-once
guarantee comes from :meth:`exclusive`, which holds a server-side lease
for the signature being synthesized and publishes the finished pulse
before releasing it.
"""

from __future__ import annotations

import contextlib
import os
import socket
import threading
import time

from repro.control.cache.protocol import (
    ProtocolError,
    encode_latency_key,
    encode_pulse_key,
    recv_message,
    send_message,
)
from repro.control.cache.store import LATENCY, CacheDelta, PulseCache

#: Most entries buffered locally before a ``push_delta`` upload.
DEFAULT_FLUSH_THRESHOLD = 32

#: Lease poll cadence while another client synthesizes our signature.
_LEASE_POLL_SECONDS = 0.05
_LEASE_POLL_MAX_SECONDS = 1.0


def parse_cache_url(url: str) -> tuple[str, int]:
    """``host:port`` or ``tcp://host:port`` -> (host, port)."""
    spec = url.strip()
    if spec.startswith("tcp://"):
        spec = spec[len("tcp://") :]
    host, separator, port = spec.rpartition(":")
    if not separator or not host:
        raise ProtocolError(
            f"cache url {url!r} is not host:port or tcp://host:port"
        )
    try:
        return host, int(port)
    except ValueError:
        raise ProtocolError(f"cache url {url!r} has a non-numeric port") from None


class FramedClient:
    """One connection to a :class:`~repro.control.cache.server.FramedServer`.

    One lock serializes each round trip, so threads sharing a client can
    neither interleave frames nor receive each other's responses.  A
    dropped connection — a server that stopped or restarted — is retried
    once over a fresh one: a server back on the same port answers it,
    and with nothing listening the request raises.  An ``ok: false``
    response raises :attr:`error` naming the :attr:`peer`.

    Args:
        url: Server address, ``host:port`` or ``tcp://host:port``.
        timeout: Socket timeout per round trip, seconds.
    """

    #: What the server is, for error messages.
    peer = "cache server"
    #: Exception raised on an ``ok: false`` response.
    error: type[Exception] = ProtocolError

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        self.url = url
        self.host, self.port = parse_cache_url(url)
        self.timeout = timeout
        #: Completed round trips and the seconds they took.
        self.requests = 0
        self.seconds = 0.0
        self._sock: socket.socket | None = None
        self._lock = threading.Lock()

    def request(self, payload: dict) -> dict:
        """One round trip; reconnects once on a dropped connection."""
        with self._lock:
            started = time.perf_counter()
            for attempt in (0, 1):
                if self._sock is None:
                    self._sock = socket.create_connection(
                        (self.host, self.port), timeout=self.timeout
                    )
                try:
                    send_message(self._sock, payload)
                    response = recv_message(self._sock)
                    if response is None:
                        raise ProtocolError("server closed the connection")
                    break
                except (OSError, ProtocolError):
                    self._drop_connection()
                    if attempt:
                        raise
            self.requests += 1
            self.seconds += time.perf_counter() - started
        if not response.get("ok"):
            raise self.error(
                f"{self.peer} {self.url}: {response.get('error', 'unknown error')}"
            )
        return response

    def close(self) -> None:
        with self._lock:
            self._drop_connection()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _drop_connection(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            with contextlib.suppress(OSError):
                sock.close()


class RemotePulseCache(PulseCache):
    """A :class:`PulseCache` backed by a shared cache server.

    Writes upload once more than :data:`DEFAULT_FLUSH_THRESHOLD`
    entries are buffered, or on :meth:`flush`; a synthesis lease lasts
    the server's ``lock_ttl``.  A merged delta (the process executor's
    worker entries, which each worker uploads itself) fills only the
    local L1.

    Args:
        url: Server address, ``host:port`` or ``tcp://host:port``.
        max_bytes: Optional LRU budget for the *local* L1 (the server
            enforces its own budget fleet-wide).
    """

    def __init__(self, url: str, max_bytes: int | None = None) -> None:
        super().__init__(max_bytes=max_bytes)
        self.url = url
        self._wire = FramedClient(url)
        self.owner = f"{socket.gethostname()}:{os.getpid()}:{id(self):x}"
        self._pending = CacheDelta()
        #: Serializes the pending delta across the batch engine's
        #: thread-pool workers, which all write through one shared
        #: client.  Reentrant because ``put_*`` flush while holding it.
        #: (The inherited ``_lock`` covers only the in-memory L1; the
        #: wire holds its own lock around each round trip.)
        self._io_lock = threading.RLock()
        self.remote_hits = 0
        self.remote_misses = 0
        self.flushes = 0
        self.flushed_entries = 0
        self.lease_wait_seconds = 0.0

    @property
    def remote_requests(self) -> int:
        """Completed round trips to the server."""
        return self._wire.requests

    @property
    def remote_seconds(self) -> float:
        """Seconds those round trips took."""
        return self._wire.seconds

    # -- lookups: L1 first, then the server ------------------------------

    def _get(self, kind: str, key: tuple):
        value = super()._get(kind, key)
        if value is not None:
            return value
        if kind == LATENCY:
            request = {"op": "get_latency", "key": encode_latency_key(key)}
        else:
            request = {"op": "get_pulse", "key": encode_pulse_key(key)}
        response = self._wire.request(request)
        if not response["found"]:
            self.remote_misses += 1
            return None
        self.remote_hits += 1
        if kind == LATENCY:
            value = float(response["value"])
        else:
            from repro.ir.serialize import grape_result_from_dict

            value = grape_result_from_dict(response["result"])
        with self._lock:
            self._absorb({kind: {key: value}}, protect=(kind, key))
        return value

    # -- writes: L1 immediately, server in batches -----------------------

    def _put(self, kind: str, key: tuple, value) -> None:
        super()._put(kind, key, value)
        with self._io_lock:
            pending = self._pending
            (pending.latencies if kind == LATENCY else pending.pulses)[key] = value
            self._maybe_flush()

    def _maybe_flush(self) -> None:
        if len(self._pending) > DEFAULT_FLUSH_THRESHOLD:
            self.flush()

    def flush(self) -> int:
        """Upload the pending delta now; returns entries uploaded.

        On upload failure the swapped-out delta is restored, so buffered
        entries survive a dropped server and ride the next flush.
        """
        with self._io_lock:
            if not len(self._pending):
                return 0
            from repro.ir.serialize import cache_delta_to_dict

            delta, self._pending = self._pending, CacheDelta()
            try:
                self._wire.request(
                    {"op": "push_delta", "delta": cache_delta_to_dict(delta)}
                )
            except Exception:
                delta.extend(self._pending)
                self._pending = delta
                raise
            self.flushes += 1
            self.flushed_entries += len(delta)
            return len(delta)

    def save(self) -> int:
        """For the remote backend, persisting means flushing upstream."""
        return self.flush()

    def close(self) -> None:
        with self._io_lock:
            self.flush()
        self._wire.close()

    def __enter__(self) -> RemotePulseCache:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- single-flight ----------------------------------------------------

    @contextlib.contextmanager
    def exclusive(self, key: tuple):
        """Fleet-wide single flight via a server-side lease.

        Threads sharing this client queue on the in-process key lock
        first (:meth:`PulseCache.exclusive`): the server treats a second
        ``lock`` from the same owner as the holder renewing, so the
        lease alone cannot tell them apart.  The holder then polls until
        the lease for ``key`` is granted (another client holding it is
        synthesizing the same signature; when it publishes and releases,
        our caller's re-check inside the guard finds the pulse
        remotely).  The pending delta is flushed *before* the lease is
        released, so the publish-before-release contract holds across
        the network too.
        """
        wire = encode_pulse_key(key)
        acquire = {"op": "lock", "key": wire, "owner": self.owner}
        with super().exclusive(key):
            delay = _LEASE_POLL_SECONDS
            started = time.perf_counter()
            while not self._wire.request(acquire)["granted"]:
                time.sleep(delay)
                delay = min(delay * 2, _LEASE_POLL_MAX_SECONDS)
            self.lease_wait_seconds += time.perf_counter() - started
            try:
                yield
                self.flush()
            finally:
                self._wire.request(
                    {"op": "unlock", "key": wire, "owner": self.owner}
                )

    # -- metrics ---------------------------------------------------------

    def server_stats(self) -> dict:
        """The server's own stats() (store + request counters)."""
        from repro.ir.serialize import cache_stats_from_dict

        return cache_stats_from_dict(self._wire.request({"op": "stats"})["stats"])

    def stats(self) -> dict:
        info = super().stats()
        info.update(
            backend="remote",
            url=self.url,
            remote_hits=self.remote_hits,
            remote_misses=self.remote_misses,
            remote_requests=self.remote_requests,
            remote_seconds=self.remote_seconds,
            flushes=self.flushes,
            flushed_entries=self.flushed_entries,
            pending_entries=len(self._pending),
            lease_wait_seconds=self.lease_wait_seconds,
        )
        return info


__all__ = [
    "DEFAULT_FLUSH_THRESHOLD",
    "FramedClient",
    "RemotePulseCache",
    "parse_cache_url",
]
