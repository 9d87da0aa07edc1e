"""Crash-safe file replacement, the durable-write step of whole files.

Every writer of whole files goes through :func:`replace_into`: the
pulse cache's shards and its ``sharding.json`` manifest, the
compiled-result cache's entries, and the artifacts
``CompilationResult.save`` writes.  It writes a unique temporary file in
the same directory, fsyncs it, then :func:`os.replace`'s it over the
final path.  A killed writer can truncate only its own temp file, and a
reader always sees a whole file, the old one or the new one.  (The
service journal appends fsynced lines instead; see
:mod:`repro.service.journal`.)
"""

from __future__ import annotations

import os
import tempfile


def replace_into(data_writer, final_path: str, suffix: str) -> None:
    """Crash-safe write: unique temp file in the same directory, fsync,
    then atomic :func:`os.replace` over the final path.

    The temp name is unique per call (``tempfile.mkstemp``), so two
    processes saving the same path concurrently each write their own
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
