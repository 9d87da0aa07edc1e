"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public entry points of the program from the outside:
nothing under ``src/`` knows it exists.  Every wrapped call opens a
*frame* on a per-thread stack and closes it on return.  Closing a frame
records its duration and its *self time* (duration minus the time its
direct children took) under ``(phase, epoch, name)``, so a layer's self
time is measured where the work happens.

Two kinds of names:

* span names — every call is also kept as a span (name, start, end,
  parent span, job id) and exported as Chrome trace-event JSON, which
  opens in Perfetto or ``chrome://tracing``;
* leaf names — hot calls (latency-oracle queries, pulse-cache lookups;
  hundreds of thousands per run) are only tallied, never kept, so the
  trace stays small; their time still counts as child time of the
  enclosing span.

Compiler passes are reported after the fact through the pass manager's
``pass_callbacks`` hook, ``(pass_, context, elapsed)``: :meth:`pass_done`
turns the child time accumulated by the enclosing frame since its last
pass boundary into that pass's children.

Counters live in per-thread dictionaries merged on read, so concurrent
threads never lose an update; tracing is off (every wrapper is a plain
call-through) until :attr:`Tracer.enabled` is set.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
import socket
import threading
import time


class _Frame:
    __slots__ = ("name", "span_id", "parent", "job", "start", "child", "pass_mark")

    def __init__(self, name, span_id, parent, job, start) -> None:
        self.name = name
        self.span_id = span_id
        self.parent = parent
        self.job = job
        self.start = start
        self.child = 0.0
        self.pass_mark = 0.0


class _ThreadState:
    __slots__ = ("stack", "totals", "spans", "tid", "label")

    def __init__(self, tid: int, label: str) -> None:
        self.stack = [_Frame("<root>", 0, 0, None, 0.0)]
        #: (phase, epoch, name) -> [calls, seconds, self seconds, bytes]
        self.totals: dict[tuple, list] = {}
        self.spans: list[tuple] = []
        self.tid = tid
        self.label = label


def pass_metric_name(pass_name: str) -> str:
    """``AggregatePass`` -> ``pass.aggregate`` (the per-layer metric stem)."""
    stem = pass_name[:-4] if pass_name.endswith("Pass") else pass_name
    return "pass." + re.sub(r"(?<!^)(?=[A-Z])", "_", stem).lower()


class Tracer:
    """Frames, spans and counters for one benchmark process."""

    def __init__(self) -> None:
        self.enabled = False
        #: Set by the workload: "setup", "window", "teardown" or "check";
        #: per-layer metrics read the "window" tallies.
        self.phase = "setup"
        #: Repetition counter set by the workload (one sweep, batch or
        #: service episode per epoch), so counts can be compared across
        #: repetitions of identical input.
        self.epoch = 0
        self.origin = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()

    # -- per-thread state ------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(
                    len(self._states) + 1, threading.current_thread().name
                )
                self._states.append(state)
            self._local.state = state
        return state

    # -- frames ----------------------------------------------------------

    def _open(self, name: str, job, keep: bool) -> _Frame:
        state = self._state()
        parent = state.stack[-1]
        frame = _Frame(
            name,
            next(self._ids) if keep else 0,
            parent.span_id,
            job if job is not None else parent.job,
            time.perf_counter(),
        )
        state.stack.append(frame)
        return frame

    def _close(self, frame: _Frame, nbytes: int = 0) -> None:
        end = time.perf_counter()
        state = self._state()
        stack = state.stack
        while len(stack) > 1 and stack[-1] is not frame:
            stack.pop()  # a wrapped call that escaped (generator left open)
        if len(stack) > 1:
            stack.pop()
        duration = end - frame.start
        own = duration - frame.child
        stack[-1].child += duration
        self._tally(state, frame.name, duration, own, nbytes)
        if frame.span_id:
            state.spans.append(
                (
                    frame.name,
                    frame.span_id,
                    frame.parent,
                    frame.job,
                    frame.start,
                    end,
                    own,
                    self.phase,
                    self.epoch,
                )
            )

    def _tally(self, state, name, duration, own, nbytes) -> None:
        key = (self.phase, self.epoch, name)
        entry = state.totals.get(key)
        if entry is None:
            entry = state.totals[key] = [0, 0.0, 0.0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += own
        entry[3] += nbytes

    def pass_done(self, pass_, context, elapsed: float) -> None:
        """``pass_callbacks`` hook: record one finished compiler pass.

        The enclosing frame's children since its previous pass boundary
        ran inside this pass, so they become the pass's child time.
        """
        if not self.enabled:
            return
        end = time.perf_counter()
        state = self._state()
        top = state.stack[-1]
        own = elapsed - (top.child - top.pass_mark)
        top.child += own
        top.pass_mark = top.child
        name = pass_metric_name(pass_.name)
        self._tally(state, name, elapsed, own, 0)
        state.spans.append(
            (
                name,
                next(self._ids),
                top.span_id,
                top.job,
                end - elapsed,
                end,
                own,
                self.phase,
                self.epoch,
            )
        )

    # -- wrapping --------------------------------------------------------

    def wrap(self, name: str, function, job_of=None, keep: bool = True):
        """``function`` instrumented as frame ``name``.

        ``job_of(args, kwargs)`` names the job a call serves (inherited
        from the enclosing frame when it returns None); ``keep=False``
        makes ``name`` a leaf that is tallied but not kept as a span.
        """
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            job = job_of(args, kwargs) if job_of is not None else None
            frame = tracer._open(name, job, keep)
            try:
                return function(*args, **kwargs)
            finally:
                tracer._close(frame)

        return traced

    def wrap_context(self, name: str, factory):
        """A context-manager factory whose enter and exit are timed as
        ``name`` frames, without timing the body they guard."""
        tracer = self

        @functools.wraps(factory)
        def traced(*args, **kwargs):
            manager = factory(*args, **kwargs)
            if not tracer.enabled:
                return manager
            return _TimedContext(tracer, name, manager)

        return traced

    def wrap_wire(self, name: str, function, receiving: bool):
        """Frame send/recv instrumented as ``name`` with byte counts.

        A receive is timed from the first byte of the frame on, so the
        idle wait for the peer (the server computing its answer, or a
        connection sitting between requests) is not charged to the wire.
        """
        tracer = self

        @functools.wraps(function)
        def traced(sock, *args, **kwargs):
            if not tracer.enabled:
                return function(sock, *args, **kwargs)
            if receiving:
                sock.recv(1, socket.MSG_PEEK)
            counted = _CountingSocket(sock)
            frame = tracer._open(name, None, True)
            try:
                return function(counted, *args, **kwargs)
            finally:
                tracer._close(frame, counted.nbytes)

        return traced

    # -- reading ---------------------------------------------------------

    def totals(self) -> dict[tuple, list]:
        """Merged ``(phase, epoch, name) -> [calls, s, self s, bytes]``."""
        merged: dict[tuple, list] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, entry in list(state.totals.items()):
                into = merged.setdefault(key, [0, 0.0, 0.0, 0])
                for index, value in enumerate(entry):
                    into[index] += value
        return merged

    def spans(self) -> list[tuple]:
        with self._lock:
            states = list(self._states)
        out = []
        for state in states:
            out.extend((state.tid,) + span for span in state.spans)
        return out

    def chrome_trace(self, metadata: dict) -> dict:
        """Every kept span as Chrome trace-event JSON (complete events)."""
        with self._lock:
            states = list(self._states)
        events = [
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 1,
                "tid": state.tid,
                "args": {"name": state.label},
            }
            for state in states
        ]
        for tid, name, span_id, parent, job, start, end, own, phase, epoch in (
            self.spans()
        ):
            events.append(
                {
                    "ph": "X",
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "pid": 1,
                    "tid": tid,
                    "ts": (start - self.origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "args": {
                        "span_id": span_id,
                        "parent": parent,
                        "job": job,
                        "self_us": own * 1e6,
                        "phase": phase,
                        "epoch": epoch,
                    },
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": metadata,
        }

    def write_chrome_trace(self, path, metadata: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(metadata), handle)


class _TimedContext:
    """Times a context manager's enter and exit as two frames."""

    def __init__(self, tracer: Tracer, name: str, manager) -> None:
        self._tracer = tracer
        self._name = name
        self._manager = manager

    def __enter__(self):
        frame = self._tracer._open(self._name, None, True)
        try:
            return self._manager.__enter__()
        finally:
            self._tracer._close(frame)

    def __exit__(self, *exc_info):
        frame = self._tracer._open(self._name, None, True)
        try:
            return self._manager.__exit__(*exc_info)
        finally:
            self._tracer._close(frame)


class _CountingSocket:
    """A socket proxy that counts the bytes passing through it."""

    __slots__ = ("_sock", "nbytes")

    def __init__(self, sock) -> None:
        self._sock = sock
        self.nbytes = 0

    def sendall(self, data) -> None:
        self._sock.sendall(data)
        self.nbytes += len(data)

    def recv(self, size, *flags):
        chunk = self._sock.recv(size, *flags)
        self.nbytes += len(chunk)
        return chunk

    def __getattr__(self, name):
        return getattr(self._sock, name)


class Patches:
    """Instance and module attribute replacements, undone by :meth:`undo`."""

    def __init__(self) -> None:
        self._undo: list[tuple] = []

    def replace(self, owner, attribute: str, make) -> None:
        """Set ``owner.attribute = make(current)``; skipped when absent."""
        current = getattr(owner, attribute, None)
        if current is None:
            return
        had_own = attribute in getattr(owner, "__dict__", {})
        self._undo.append((owner, attribute, current, had_own))
        setattr(owner, attribute, make(current))

    def undo(self) -> None:
        while self._undo:
            owner, attribute, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
