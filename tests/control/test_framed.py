"""The framed-TCP core both servers share: counters, addresses, stop, reconnect.

Every parametrized test runs against both stacks built on it — the
pulse cache server with :class:`RemotePulseCache`, and the compile
service with :class:`ServiceClient` — so a defect in the shared server
or client core shows up once per stack.
"""

from __future__ import annotations

import dataclasses
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import pytest

from repro.control.cache import (
    CacheServer,
    ProtocolError,
    RemotePulseCache,
    ShardedDiskPulseCache,
)
from repro.control.cache.protocol import (
    PROTOCOL_FORMAT,
    reachable_host,
    recv_message,
    send_message,
)
from repro.service import SERVICE_FORMAT, CompileService, ServiceClient


@dataclasses.dataclass(frozen=True)
class Stack:
    """One server class, its client, and the requests the tests send."""

    format: str  # the tag ``ping`` answers
    build: Callable  # (**server kwargs) -> an unstarted server
    connect: Callable  # (url) -> a client
    call: Callable  # (client) -> one round trip
    op: str  # the op ``call`` sends
    raising: dict  # a request the server's dispatch raises on


STACKS = {
    "cache": Stack(
        format=PROTOCOL_FORMAT,
        build=lambda **kwargs: CacheServer(**kwargs),
        connect=lambda url: RemotePulseCache(url),
        call=lambda client: client.server_stats(),
        op="stats",
        raising={"op": "get_latency", "key": 42},
    ),
    "service": Stack(
        format=SERVICE_FORMAT,
        # No workers: these tests are about the transport, not compiling.
        build=lambda **kwargs: CompileService(workers=0, **kwargs),
        connect=lambda url: ServiceClient(url),
        call=lambda client: client.ping(),
        op="ping",
        raising={"op": "submit", "job": "not-a-dict"},
    ),
}


@pytest.fixture(params=sorted(STACKS))
def stack(request) -> Stack:
    return STACKS[request.param]


@pytest.fixture()
def server(stack):
    with stack.build() as running:
        yield running


def _hammer(address, request: dict, threads: int, per_thread: int) -> list:
    """Send ``request`` over ``threads`` connections at once; every response."""

    def one_connection(_):
        with socket.create_connection(address, timeout=10) as sock:
            responses = []
            for _ in range(per_thread):
                send_message(sock, request)
                responses.append(recv_message(sock))
            return responses

    with ThreadPoolExecutor(max_workers=threads) as pool:
        batches = list(pool.map(one_connection, range(threads)))
    return [response for batch in batches for response in batch]


def _returns_within(seconds: float, function) -> bool:
    """Run ``function`` on a daemon thread; True when it returned in time."""
    thread = threading.Thread(target=function, daemon=True)
    thread.start()
    thread.join(seconds)
    return not thread.is_alive()


class TestCounters:
    def test_threaded_pings_lose_no_op_counts(self, stack, server):
        # op_counts[op] += 1 is a read-modify-write executed from one
        # handler thread per client; unlocked, concurrent bumps lose
        # increments.  With the counter lock the total is exact.
        responses = _hammer(server.address, {"op": "ping"}, 8, 400)
        assert all(response["format"] == stack.format for response in responses)
        assert server.op_counts["ping"] == 8 * 400

    def test_threaded_unknown_ops_lose_no_error_counts(self, server):
        responses = _hammer(server.address, {"op": "bogus"}, 8, 100)
        assert all("unknown op" in response["error"] for response in responses)
        assert server.errors == 8 * 100

    def test_raised_dispatch_is_answered_and_counted_as_an_error(
        self, stack, server
    ):
        # A request whose dispatch *raises* (a malformed key, a job that
        # is not an envelope) must bump the error counter, not just
        # return ok=False to the client.
        (response,) = _hammer(server.address, stack.raising, 1, 1)
        assert response["ok"] is False
        assert server.errors == 1


class TestAddress:
    def test_wildcard_bind_url_is_connectable(self, stack):
        with stack.build(host="0.0.0.0") as wildcard:
            host, _ = wildcard.url.rsplit(":", 1)
            assert host == "127.0.0.1"
            with stack.connect(wildcard.url) as client:
                stack.call(client)
            assert wildcard.op_counts[stack.op] == 1

    def test_reachable_host_mapping(self):
        assert reachable_host("0.0.0.0") == "127.0.0.1"
        assert reachable_host("") == "127.0.0.1"
        assert reachable_host("::") == "::1"
        assert reachable_host("192.0.2.7") == "192.0.2.7"


class TestStop:
    def test_stop_without_start_returns(self, stack):
        # socketserver's shutdown() waits for a serve loop; one that
        # never ran must not be waited for.
        assert _returns_within(5, stack.build().stop)

    def test_second_stop_is_safe(self, stack):
        server = stack.build().start()
        server.stop()
        assert _returns_within(5, server.stop)

    def test_stopped_server_answers_no_open_connection(self, stack, monkeypatch):
        server = stack.build().start()
        client = stack.connect(server.url)
        stack.call(client)  # the connection is open now
        server.stop()
        attempts = []
        connect = socket.create_connection

        def counted_connect(*args, **kwargs):
            attempts.append(args)
            return connect(*args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", counted_connect)
        # The open connection was closed by stop(): the client retries
        # once over a fresh one, which nothing accepts.
        with pytest.raises(OSError):
            stack.call(client)
        assert len(attempts) == 1
        assert server.op_counts[stack.op] == 1


    def test_no_request_is_answered_once_stop_returns(self, stack):
        # Eight clients ping in a loop while the server stops: every
        # request counted was answered before stop() returned, and the
        # clients see their connections drop rather than hang.
        server = stack.build().start()
        done = threading.Event()

        def pinging_client():
            try:
                with socket.create_connection(server.address, timeout=10) as sock:
                    while not done.is_set():
                        send_message(sock, {"op": "ping"})
                        if recv_message(sock) is None:
                            return
            except (OSError, ProtocolError):
                return  # the dropped connection stop() promises

        clients = [threading.Thread(target=pinging_client) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for client in clients:
                client.start()
            time.sleep(0.2)
            server.stop()
            answered = server.op_counts["ping"]
            time.sleep(0.2)
            assert server.op_counts["ping"] == answered > 0
        finally:
            sys.setswitchinterval(interval)
            done.set()
            for client in clients:
                client.join(timeout=10)
        assert not any(client.is_alive() for client in clients)


class TestReconnect:
    def test_restart_on_the_same_port_serves_the_next_request(self, stack):
        first = stack.build().start()
        with stack.connect(first.url) as client:
            stack.call(client)
            first.stop()
            with stack.build(port=first.address[1]) as second:
                stack.call(client)  # one silent reconnect, onto the new server
                assert second.op_counts[stack.op] == 1
        assert first.op_counts[stack.op] == 1

    def test_flush_to_a_stopped_server_fails_and_keeps_its_delta(self, tmp_path):
        directory = tmp_path / "served"
        key = ("fp", "model", (1, (("G0", (), (0,)),)))
        late = ("fp", "model", (1, (("G1", (), (0,)),)))
        server = CacheServer(store=ShardedDiskPulseCache(directory)).start()
        client = RemotePulseCache(server.url)
        client.put_latency(key, 1.0)
        client.flush()  # acknowledged
        assert server.stop() == 1
        client.put_latency(late, 2.0)
        with pytest.raises(OSError):
            client.flush()
        assert client.flushes == 1
        assert client.stats()["pending_entries"] == 1
        # Nothing reached the stopped server after it saved: an
        # acknowledged write is a persisted one.
        assert server.store.latency_count == 1
        assert ShardedDiskPulseCache(directory).latency_count == 1
        # A server back on the same port takes the retried flush.
        restarted = CacheServer(
            store=ShardedDiskPulseCache(directory), port=server.address[1]
        )
        with restarted:
            assert client.flush() == 1
            client.close()
        assert ShardedDiskPulseCache(directory).get_latency(late) == 2.0
