"""Length-prefixed JSON framing for the cache server wire protocol.

Every message — request or response — is one JSON object encoded as
UTF-8 and prefixed with its byte length as a 4-byte big-endian unsigned
integer.  Values ride the :mod:`repro.ir` ``repro-ir-v1`` wire format
(pulses as ``grape_result`` envelopes, batched uploads as
``cache_delta`` envelopes, statistics as ``cache_stats`` envelopes);
cache keys use the disk-cache convention — structural signatures
serialized with :func:`repr` and parsed back with
:func:`ast.literal_eval`, so the round trip is exact.

Requests are ``{"op": <name>, ...}``; responses are ``{"ok": true, ...}``
or ``{"ok": false, "error": <message>}``.  Operations:

========== ==================================== =================
op          request fields                       response fields
========== ==================================== =================
ping        —                                    —
get_latency ``key`` (wire latency key)           ``found``, ``value``
get_pulse   ``key`` (wire pulse key)             ``found``, ``result``
push_delta  ``delta`` (``cache_delta`` envelope) ``added``
stats       —                                    ``stats`` (``cache_stats``)
lock        ``key`` (wire pulse key), ``owner``  ``granted``
unlock      ``key`` (wire pulse key), ``owner``  ``released``
========== ==================================== =================

A granted ``lock`` lasts the server's ``lock_ttl`` (``--lock-ttl``);
a ``lock`` re-sent by the current holder renews the lease rather than
failing.  Unknown request fields are ignored, so an older client's
``ttl`` on ``lock`` changes nothing.
"""

from __future__ import annotations

import ast
import json
import socket
import struct

from repro.errors import ControlError

PROTOCOL_FORMAT = "repro-pulse-wire-v1"

#: Hard cap on one frame.  A pulse delta for a 3-qubit instruction is a
#: few hundred KB; anything near this size is a protocol error, not a
#: workload.
MAX_MESSAGE_BYTES = 512 * 1024 * 1024

_HEADER = struct.Struct(">I")


class ProtocolError(ControlError):
    """A malformed frame or an error response from the cache server."""


def send_message(sock: socket.socket, payload: dict) -> None:
    """Write one length-prefixed JSON frame."""
    data = json.dumps(payload).encode("utf-8")
    if len(data) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"refusing to send a {len(data)}-byte frame "
            f"(cap {MAX_MESSAGE_BYTES})"
        )
    sock.sendall(_HEADER.pack(len(data)) + data)


def recv_message(sock: socket.socket) -> dict | None:
    """Read one frame; None on clean EOF at a frame boundary."""
    header = _recv_exact(sock, _HEADER.size, eof_ok=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"peer announced a {length}-byte frame (cap {MAX_MESSAGE_BYTES})"
        )
    data = _recv_exact(sock, length, eof_ok=False)
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable frame: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"expected a JSON object frame, got {type(payload).__name__}"
        )
    return payload


def _recv_exact(sock: socket.socket, count: int, eof_ok: bool):
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if eof_ok and remaining == count:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({count - remaining}/{count} "
                f"bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# -- addresses -----------------------------------------------------------


def reachable_host(host: str) -> str:
    """A host clients can actually connect to, given a bind address.

    A server bound to a wildcard address (``0.0.0.0``, ``""``, or the
    IPv6 ``::``) listens on every interface, but the wildcard itself is
    not a connectable destination — advertising ``0.0.0.0:PORT`` in a
    ``url`` hands clients a dead address.  Loopback is the one interface
    a wildcard bind is always reachable on from the same machine, so
    that is what servers advertise; fleet operators reaching a wildcard-
    bound server from *other* machines address it by its real interface
    name, which only they know.
    """
    if host in ("0.0.0.0", ""):
        return "127.0.0.1"
    if host in ("::", "::0"):
        return "::1"
    return host


# -- key wire forms ------------------------------------------------------


def encode_latency_key(key: tuple) -> list:
    """(fingerprint, backend, signature) -> JSON-safe triple."""
    fingerprint, backend, signature = key
    return [fingerprint, backend, repr(signature)]


def decode_latency_key(wire: list) -> tuple:
    fingerprint, backend, signature = wire
    return (fingerprint, backend, ast.literal_eval(signature))


def encode_pulse_key(key: tuple) -> list:
    """(fingerprint, signature) -> JSON-safe pair."""
    fingerprint, signature = key
    return [fingerprint, repr(signature)]


def decode_pulse_key(wire: list) -> tuple:
    fingerprint, signature = wire
    return (fingerprint, ast.literal_eval(signature))
