"""The service's crash-safe write-ahead log.

Checkpoints (and shed notices) are appended as one canonical JSON line each
(:func:`repro.durable.dump_row`) with a configurable fsync cadence, so a
SIGKILL at any instant loses at most the un-fsynced tail and never corrupts
earlier rows.  Loading goes through :func:`repro.durable.load_rows`, which
tolerates exactly that tail: malformed or truncated lines are counted and
dropped, never fatal.

The latest snapshot per session wins (the log is append-only, so later lines
supersede earlier ones), mirroring how the engine runner's resume keeps the
last well-formed row per cell.  The first append of a log object reopens the
file through :func:`repro.durable.open_for_append`, which rewrites the
well-formed rows when the file ends in a torn line, so a checkpoint written
after a kill mid-append survives the next load.  Full-file rewrites of the
log use :func:`repro.durable.write_rows_atomically`.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Set, Tuple

from repro.durable import dump_row, load_rows, open_for_append


class WriteAheadLog:
    """Append-only JSONL log with a bounded-loss fsync cadence.

    Args:
        path: The log file; created (with parents) on first append.
        fsync_every: Force the rows to stable storage every this many
            appends.  ``1`` fsyncs every row (maximum durability); larger
            values trade a bounded window of re-executable work for fewer
            synchronous writes.  Every append is *flushed* regardless, so
            only an OS crash — not a process kill — can lose the window.
    """

    def __init__(self, path: str, fsync_every: int = 1) -> None:
        if fsync_every < 1:
            raise ValueError(f"fsync_every must be >= 1, got {fsync_every}")
        self.path = path
        self.fsync_every = fsync_every
        self._handle = None
        self._since_fsync = 0

    def append(self, row: Dict[str, object]) -> None:
        """Append one row, flushing always and fsyncing on the cadence."""
        if self._handle is None:
            # A kill mid-append can leave a torn last line; resume through
            # the shared step so the first new row never glues onto it.
            kept, discarded = load_rows(self.path, lambda _row: True)
            self._handle = open_for_append(self.path, kept, discarded)
        self._handle.write(dump_row(row) + "\n")
        self._handle.flush()
        self._since_fsync += 1
        if self._since_fsync >= self.fsync_every:
            os.fsync(self._handle.fileno())
            self._since_fsync = 0

    def close(self) -> None:
        """Flush, fsync and close the log (idempotent)."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None
            self._since_fsync = 0

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def load_wal(
    path: str, schema: Optional[int] = None
) -> Tuple[Dict[str, Dict[str, object]], Set[str], int]:
    """Read a WAL back: the latest snapshot per session, shed ids, discards.

    Args:
        path: The log file (missing is fine: an empty log).
        schema: When given, rows with a different ``"schema"`` are discarded.

    Returns:
        ``(snapshots, shed_ids, discarded)`` — ``snapshots`` maps session id
        to its *latest* well-formed snapshot row; ``shed_ids`` holds the ids
        of sessions recorded as load-shed (shedding is sticky across resumes:
        a shed session stays shed rather than flapping back in); ``discarded``
        counts dropped lines (truncated tails, malformed rows, schema
        mismatches).
    """

    def accept(row: Dict[str, object]) -> bool:
        return (
            (schema is None or row.get("schema") == schema)
            and row.get("kind") in ("snapshot", "shed")
            and isinstance(row.get("session_id"), str)
        )

    rows, discarded = load_rows(path, accept)
    snapshots: Dict[str, Dict[str, object]] = {}
    shed_ids: Set[str] = set()
    for row in rows:
        if row["kind"] == "snapshot":
            snapshots[row["session_id"]] = row
        else:
            shed_ids.add(row["session_id"])
    return snapshots, shed_ids, discarded
