"""Durable JSONL persistence shared by every resumable driver.

Engine sweeps (:mod:`repro.engine.runner`), the adversarial search
(:mod:`repro.adversary.search`) and the session service
(:mod:`repro.service`) all persist one canonical JSON line per finished unit
of work and resume by reading that file back.  This module owns the single
copy of each step: the canonical row (:func:`dump_row`), torn-tail-tolerant
loading (:func:`load_rows`), the crash-safe rewrite
(:func:`write_atomically`), the resume-time append (:func:`open_for_append`)
and the quarantine file (:func:`settle_quarantine`).  Rows are pure functions
of their unit of work, so a fresh run and a killed-then-resumed run produce
byte-identical files.

Standard library only, so every layer can import it without cycles.
"""

from __future__ import annotations

import json
import os
from typing import (
    Callable,
    Collection,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
)

Row = Dict[str, object]


def dump_row(row: Row) -> str:
    """The canonical one-line JSON serialisation of a row."""
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def load_rows(path: str, accept: Callable[[Row], bool]) -> Tuple[List[Row], int]:
    """Read a JSONL file back: the accepted rows in file order, plus discards.

    A missing file is an empty one.  Malformed lines, JSON values that are
    not objects and objects ``accept`` rejects each count as one discarded
    line; blank lines are skipped without counting.
    """
    rows: List[Row] = []
    discarded = 0
    if not os.path.exists(path):
        return rows, discarded
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                discarded += 1
                continue
            if isinstance(row, dict) and accept(row):
                rows.append(row)
            else:
                discarded += 1
    return rows, discarded


def write_atomically(
    path: str, records: Iterable[object], dump: Callable[[object], str]
) -> None:
    """Replace ``path`` with ``dump(record) + "\\n"`` per record, crash-safely.

    The temp file is fully written and fsynced before the atomic rename, so
    a kill at any instant leaves either the old file or the complete new one
    — never a truncated mix.  A failed write (a record ``dump`` cannot
    serialise included) removes its temp file instead of leaving it to
    shadow the next attempt.  The rename itself is then persisted with a
    directory fsync (best effort: not every filesystem supports fsync on a
    directory handle).
    """
    tmp_path = path + ".tmp"
    try:
        with open(tmp_path, "w", encoding="utf-8") as tmp:
            for record in records:
                tmp.write(dump(record) + "\n")
            tmp.flush()
            os.fsync(tmp.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    try:
        dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def write_rows_atomically(path: str, rows: Iterable[Row]) -> None:
    """Replace ``path`` with one canonical JSON line per row, crash-safely."""
    write_atomically(path, rows, dump_row)


def _last_byte(path: str) -> bytes:
    """The file's last byte (empty for an empty or unreadable file)."""
    try:
        with open(path, "rb") as handle:
            if handle.seek(0, os.SEEK_END) == 0:
                return b""
            handle.seek(-1, os.SEEK_END)
            return handle.read(1)
    except OSError:
        return b""


def open_for_append(path: str, kept: Sequence[Row], discarded: int) -> TextIO:
    """Open a resumed output file for appending new rows.

    ``kept`` are the rows the resume reuses, in canonical order, and
    ``discarded`` how many lines it dropped.  When the file holds dropped
    lines (e.g. a row cut short by a kill) or its last line lacks its
    newline (a kill between the row text and its ``"\\n"``), the kept rows
    are rewritten first, so appended rows never glue onto a partial line.
    With nothing kept the file is truncated.  Parent directories are
    created as needed.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    if kept and (discarded or _last_byte(path) not in (b"", b"\n")):
        write_rows_atomically(path, kept)
    return open(path, "a" if kept else "w", encoding="utf-8")


def settle_quarantine(
    path: str, new_rows: Sequence[Row], key: str, settled: Collection[object]
) -> Tuple[Optional[str], int]:
    """Merge this run's quarantine rows into the quarantine file at ``path``.

    Each quarantine row names its unit of work in its ``key`` field.  An
    entry left by an earlier run is resolved when its unit has since
    completed (its name is in ``settled``) or this run quarantined it again
    (the new row supersedes it); resolved entries are dropped.  Every other
    earlier entry is *stale* and kept verbatim ahead of the new rows —
    unparseable lines included, since a corrupt quarantine file is itself
    worth reporting.  The file is removed once nothing is left in it.

    Returns:
        ``(path or None when no quarantine file remains, stale_count)``.
    """
    superseded = {row.get(key) for row in new_rows}
    stale: List[str] = []
    resolved = False
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    row = None
                if isinstance(row, dict) and (
                    row.get(key) in settled or row.get(key) in superseded
                ):
                    resolved = True
                else:
                    stale.append(line)
    except FileNotFoundError:
        pass
    if not stale and not new_rows:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass
        return None, 0
    if new_rows or resolved:
        write_atomically(path, stale + [dump_row(row) for row in new_rows], str)
    return path, len(stale)
