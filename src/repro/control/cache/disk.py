"""Disk persistence: the ``<stem>.json`` + ``<stem>.npz`` pair format.

File format (version ``repro-pulse-cache-v1``)
----------------------------------------------
``<stem>.json`` holds every latency entry and the scalar pulse metadata::

    {
      "format": "repro-pulse-cache-v1",
      "latencies": [[fingerprint, backend, signature_repr, value], ...],
      "pulses": [{"fingerprint": ..., "signature": ...,
                  "fidelity": ..., "converged": ..., "iterations": ...,
                  "dt": ..., "control_names": [...], "slot": N}, ...]
    }

``<stem>.npz`` holds the arrays of pulse ``N`` under ``amp<N>`` (control
amplitudes), ``unitary<N>`` (achieved unitary) and ``loss<N>`` (loss
history).  Signatures are serialized with :func:`repr` and parsed back
with :func:`ast.literal_eval`; they are pure literals (strings, numbers,
tuples), so the round trip is exact.

Crash safety: each file is written to a uniquely-named temporary file in
the same directory, fsynced, and :func:`os.replace`'d into place — a
killed writer can truncate only its own temp file, never the live cache.
The *pair* cannot be replaced atomically: both files carry a
content-derived ``save_id``, and :func:`read_pair` refuses to bind pulse
metadata to arrays from a different save (a crash between the two
replaces, or a concurrent writer).  Mismatched or missing arrays degrade
gracefully — the pulse entries are skipped (a cache miss recomputes
them), latencies still load.

The same pair format serves both the single-pair :class:`DiskPulseCache`
and every shard of the sharded directory store (one pair per shard).
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import tempfile

import numpy as np

from repro.control.cache.store import (
    CACHE_FORMAT,
    LATENCY,
    PULSE,
    LatencyKey,
    PulseCache,
    PulseKey,
)
from repro.control.grape import GrapeResult
from repro.control.pulse import Pulse
from repro.errors import ControlError


def encode_pair(
    latencies: dict[LatencyKey, float], pulses: dict[PulseKey, GrapeResult]
) -> tuple[dict, dict]:
    """Entry maps -> (json payload, npz arrays) in the pair format."""
    latency_rows = [
        [fingerprint, backend, repr(signature), value]
        for (fingerprint, backend, signature), value in latencies.items()
    ]
    pulse_rows = []
    arrays: dict[str, np.ndarray] = {}
    for slot, ((fingerprint, signature), result) in enumerate(pulses.items()):
        pulse_rows.append(
            {
                "fingerprint": fingerprint,
                "signature": repr(signature),
                "fidelity": result.fidelity,
                "converged": bool(result.converged),
                "iterations": result.iterations,
                "dt": result.pulse.dt,
                "control_names": list(result.pulse.control_names),
                "slot": slot,
            }
        )
        arrays[f"amp{slot}"] = result.pulse.amplitudes
        arrays[f"unitary{slot}"] = result.final_unitary
        arrays[f"loss{slot}"] = np.asarray(result.loss_history, dtype=float)
    # The digest covers the keys *in slot order*: two saves of the same
    # pulse set inserted in different orders map slots to different
    # arrays, and must not share a save_id.
    save_id = hashlib.sha256(
        "\n".join(
            record["fingerprint"] + record["signature"]
            for record in pulse_rows
        ).encode()
    ).hexdigest()[:16]
    payload = {
        "format": CACHE_FORMAT,
        "save_id": save_id,
        "latencies": latency_rows,
        "pulses": pulse_rows,
    }
    if arrays:
        arrays["save_id"] = np.array(save_id)
    return payload, arrays


def decode_pair(
    payload: dict, arrays: dict, source: str = "cache"
) -> tuple[dict[LatencyKey, float], dict[PulseKey, GrapeResult], int]:
    """(json payload, npz arrays) -> (latencies, pulses, pulses skipped).

    Pulse records are decoded only when the arrays carry the same
    ``save_id`` as the manifest; a torn pair loses the pulses — they are
    recomputed on miss — never mispairs them.
    """
    if payload.get("format") != CACHE_FORMAT:
        raise ControlError(
            f"{source}: unknown cache format {payload.get('format')!r} "
            f"(expected {CACHE_FORMAT!r})"
        )
    arrays_save_id = arrays["save_id"].item() if "save_id" in arrays else None
    pulses_usable = (
        payload.get("save_id") is not None
        and payload.get("save_id") == arrays_save_id
    )
    latencies: dict[LatencyKey, float] = {}
    pulses: dict[PulseKey, GrapeResult] = {}
    for fingerprint, backend, signature, value in payload["latencies"]:
        key = (fingerprint, backend, ast.literal_eval(signature))
        latencies[key] = float(value)
    for record in payload["pulses"] if pulses_usable else ():
        key = (record["fingerprint"], ast.literal_eval(record["signature"]))
        slot = record["slot"]
        pulse = Pulse(
            control_names=list(record["control_names"]),
            amplitudes=arrays[f"amp{slot}"],
            dt=float(record["dt"]),
        )
        pulses[key] = GrapeResult(
            fidelity=float(record["fidelity"]),
            converged=bool(record["converged"]),
            iterations=int(record["iterations"]),
            pulse=pulse,
            final_unitary=arrays[f"unitary{slot}"],
            loss_history=[float(x) for x in arrays[f"loss{slot}"]],
        )
    skipped = 0 if pulses_usable else len(payload["pulses"])
    return latencies, pulses, skipped


def replace_into(data_writer, final_path: str, suffix: str) -> None:
    """Crash-safe write: unique temp file in the same directory, fsync,
    then atomic :func:`os.replace` over the final path.

    The temp name is unique per call (``tempfile.mkstemp``), so two
    processes saving the same stem concurrently each write their own
    temp file and the loser of the final replace race still leaves a
    *complete* file in place — never an interleaved or truncated one.
    """
    directory = os.path.dirname(final_path) or "."
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(final_path) + ".", suffix=suffix
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            data_writer(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, final_path)
    except BaseException:
        with_suppressed_oserror(os.unlink, tmp_path)
        raise


def with_suppressed_oserror(func, *args) -> None:
    try:
        func(*args)
    except OSError:
        pass


def write_pair(stem: str, payload: dict, arrays: dict) -> None:
    """Write one ``<stem>.json`` / ``<stem>.npz`` pair crash-safely.

    Arrays land before the manifest: a crash in between leaves the old
    manifest with new arrays, which the ``save_id`` check degrades to a
    pulse-less (but valid) load.
    """
    directory = os.path.dirname(stem)
    if directory:
        os.makedirs(directory, exist_ok=True)
    npz_path = stem + ".npz"
    if arrays:
        replace_into(
            lambda handle: np.savez_compressed(handle, **arrays),
            npz_path,
            ".tmp.npz",
        )
    replace_into(
        lambda handle: handle.write(json.dumps(payload).encode("utf-8")),
        stem + ".json",
        ".tmp.json",
    )
    if not arrays and os.path.exists(npz_path):
        os.remove(npz_path)


def read_pair(
    stem: str,
) -> tuple[dict[LatencyKey, float], dict[PulseKey, GrapeResult], int]:
    """Load one pair from disk; empty maps when the manifest is absent."""
    json_path = stem + ".json"
    if not os.path.exists(json_path):
        return {}, {}, 0
    with open(json_path, encoding="utf-8") as handle:
        payload = json.load(handle)
    arrays = {}
    npz_path = stem + ".npz"
    if os.path.exists(npz_path):
        with np.load(npz_path) as archive:
            arrays = {name: archive[name] for name in archive.files}
    return decode_pair(payload, arrays, source=json_path)


class DiskPulseCache(PulseCache):
    """A :class:`PulseCache` persisted as ``<stem>.json`` + ``<stem>.npz``.

    Args:
        path: File stem; ``.json``/``.npz`` suffixes are appended (a
            ``.json`` suffix on the stem itself is stripped first, so both
            spellings address the same pair).
        autoload: Load existing files immediately (default).
        max_bytes: Optional LRU byte budget (see :class:`PulseCache`);
            the budget governs what is resident *and* what the next
            :meth:`save` writes.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        autoload: bool = True,
        max_bytes: int | None = None,
    ) -> None:
        super().__init__(max_bytes=max_bytes)
        stem = os.fspath(path)
        if stem.endswith(".json") or stem.endswith(".npz"):
            stem = stem.rsplit(".", 1)[0]
        self.stem = stem
        self.loaded_entries = 0
        self.pulse_entries_skipped = 0
        if autoload:
            self.load()

    @property
    def json_path(self) -> str:
        return self.stem + ".json"

    @property
    def npz_path(self) -> str:
        return self.stem + ".npz"

    def load(self) -> int:
        """Merge any on-disk entries into memory; returns entries read.

        In-memory entries win over disk ones with the same key (they are
        the same value under the content-addressed key contract, and the
        resident entry may be fresher in LRU terms).
        """
        latencies, pulses, skipped = read_pair(self.stem)
        self.pulse_entries_skipped = skipped
        with self._lock:
            self._absorb({LATENCY: latencies, PULSE: pulses})
        self.loaded_entries = len(latencies) + len(pulses)
        return self.loaded_entries

    def save(self) -> int:
        """Write the whole store to disk; returns entries written.

        Both files are written crash-safely (unique temp + fsync +
        atomic replace) and carry a content-derived ``save_id`` that
        :meth:`load` checks before pairing them.
        """
        snapshot = self.snapshot_delta()
        write_pair(self.stem, *encode_pair(snapshot.latencies, snapshot.pulses))
        return len(snapshot)
