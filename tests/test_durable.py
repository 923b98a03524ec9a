"""The shared persistence contract of every resumable driver.

:mod:`repro.durable` owns the canonical row, the torn-tail-tolerant loader,
the atomic writer, the resume-time append and the quarantine settle.  The
writer cases run over both file kinds it writes (row files and the service's
``status.json``); the torn-tail cases run over all four JSONL formats that
load through it — engine rows, session rows, search trajectories and WAL
lines — each through its driver's real resume path.
"""

from __future__ import annotations

import json
import os

import pytest

import repro.adversary.search as search_module
from repro.adversary.search import run_search
from repro.durable import (
    dump_row,
    load_rows,
    open_for_append,
    settle_quarantine,
    write_atomically,
    write_rows_atomically,
)
from repro.engine import FAULT_FREE, ExperimentSpec, run_spec
from repro.service.service import BroadcastSessionService, ServiceConfig
from repro.service.session import SESSION_SCHEMA_VERSION
from repro.service.wal import WriteAheadLog, load_wal
from repro.service.workload import generate_sessions


def _read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


# ------------------------------------------------------------ atomic writer


def _dump_status(payload):
    return json.dumps(payload, indent=2, sort_keys=True)


#: ``(write, first, second, unserialisable)`` per file kind: the row-file
#: form, and ``status.json``'s one pretty-printed object.
PAYLOADS = {
    "rows": (
        write_rows_atomically,
        [{"a": 1}, {"b": 2}],
        [{"c": 3}],
        lambda bad: [{"bad": bad}],
    ),
    "status": (
        lambda path, payload: write_atomically(path, [payload], _dump_status),
        {"service": "svc", "metrics": {"sessions": {"completed": 2}}},
        {"service": "svc", "metrics": {"sessions": {"completed": 3}}},
        lambda bad: {"metrics": bad},
    ),
}


@pytest.fixture(params=sorted(PAYLOADS))
def payload(request):
    return PAYLOADS[request.param]


class TestAtomicWrite:
    def test_rewrite_replaces_without_a_partial_state(self, tmp_path):
        path = str(tmp_path / "rows.jsonl")
        write_rows_atomically(path, [{"a": 1}, {"b": 2}])
        assert _read_bytes(path) == b'{"a":1}\n{"b":2}\n'
        write_rows_atomically(path, [{"c": 3}])
        assert _read_bytes(path) == b'{"c":3}\n'
        assert not os.path.exists(path + ".tmp")

    def test_status_keeps_its_pretty_printed_layout(self, tmp_path):
        write, first, _, _ = PAYLOADS["status"]
        path = str(tmp_path / "out.status.json")
        write(path, first)
        assert _read_bytes(path).decode() == (
            json.dumps(first, indent=2, sort_keys=True) + "\n"
        )

    def test_kill_between_write_and_rename_preserves_the_file(
        self, tmp_path, monkeypatch, payload
    ):
        write, first, second, _ = payload
        path = str(tmp_path / "target")
        write(path, first)
        before = _read_bytes(path)

        # Simulate a SIGKILL landing mid-compaction: the fsync (the last step
        # before the rename) never returns.
        def killed(fd):
            raise KeyboardInterrupt("killed mid-compaction")

        monkeypatch.setattr(os, "fsync", killed)
        with pytest.raises(KeyboardInterrupt):
            write(path, second)
        assert _read_bytes(path) == before
        assert not os.path.exists(path + ".tmp")

    def test_tmp_file_is_fsynced_before_the_rename(
        self, tmp_path, monkeypatch, payload
    ):
        write, first, _, _ = payload
        events = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            os, "fsync", lambda fd: (events.append("fsync"), real_fsync(fd))[1]
        )
        monkeypatch.setattr(
            os,
            "replace",
            lambda src, dst: (events.append("replace"), real_replace(src, dst))[1],
        )
        path = str(tmp_path / "target")
        write(path, first)
        # File-content fsync strictly precedes the rename (the trailing fsync
        # is the best-effort directory sync).
        assert events[0] == "fsync"
        assert "replace" in events
        assert events.index("fsync") < events.index("replace")

    def test_rename_is_persisted_with_a_directory_fsync(
        self, tmp_path, monkeypatch, payload
    ):
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("/proc/self/fd not available on this platform")
        write, first, _, _ = payload
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os,
            "fsync",
            lambda fd: (synced.append(os.path.isdir(f"/proc/self/fd/{fd}")),
                        real_fsync(fd))[1],
        )
        write(str(tmp_path / "target"), first)
        # The file's own fsync, then the directory's.
        assert synced == [False, True]

    def test_failed_write_cleans_up_its_tmp_file(self, tmp_path, payload):
        write, _, _, unserialisable = payload
        path = str(tmp_path / "target")

        class Unserialisable:
            pass

        with pytest.raises(TypeError):
            write(path, unserialisable(Unserialisable()))
        assert not os.path.exists(path)
        assert not os.path.exists(path + ".tmp")


# ------------------------------------------------------ loader and appender


class TestLoadRows:
    def test_missing_file_is_empty(self, tmp_path):
        assert load_rows(str(tmp_path / "absent"), lambda row: True) == ([], 0)

    def test_blank_lines_are_skipped_not_counted(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('\n{"a":1}\n\n   \n{"a":2}\n')
        rows, discarded = load_rows(str(path), lambda row: True)
        assert rows == [{"a": 1}, {"a": 2}]
        assert discarded == 0

    def test_accept_rule_decides_and_rejections_are_counted(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a":1}\n{"a":2}\n{"a":3}\n')
        rows, discarded = load_rows(str(path), lambda row: row["a"] != 2)
        assert rows == [{"a": 1}, {"a": 3}]
        assert discarded == 1


class TestOpenForAppend:
    def test_clean_file_is_appended_in_place(self, tmp_path):
        path = str(tmp_path / "rows.jsonl")
        write_rows_atomically(path, [{"a": 1}])
        inode = os.stat(path).st_ino
        with open_for_append(path, [{"a": 1}], 0) as handle:
            handle.write(dump_row({"a": 2}) + "\n")
        assert os.stat(path).st_ino == inode
        assert _read_bytes(path) == b'{"a":1}\n{"a":2}\n'

    @pytest.mark.parametrize(
        "torn, discarded",
        [(b'{"a":1}\n{"a":', 1), (b'{"a":1}', 0)],
        ids=["truncated-row", "missing-newline"],
    )
    def test_torn_file_is_rewritten_before_appending(
        self, tmp_path, torn, discarded
    ):
        path = tmp_path / "rows.jsonl"
        path.write_bytes(torn)
        with open_for_append(str(path), [{"a": 1}], discarded) as handle:
            handle.write(dump_row({"a": 2}) + "\n")
        assert path.read_bytes() == b'{"a":1}\n{"a":2}\n'

    def test_nothing_kept_truncates_and_creates_parents(self, tmp_path):
        path = tmp_path / "new" / "dir" / "rows.jsonl"
        with open_for_append(str(path), [], 0) as handle:
            handle.write("x\n")
        assert path.read_bytes() == b"x\n"
        with open_for_append(str(path), [], 3):
            pass
        assert path.read_bytes() == b""


# --------------------------------------------------------- torn-tail matrix


#: A small engine grid: 2 strategies x 2 protocols on one topology.
ENGINE_SPEC = ExperimentSpec(
    name="durable_small",
    topologies=("k4-fast",),
    strategies=(FAULT_FREE, "equality-garbage"),
    payload_bytes=(4,),
    fault_counts=(1,),
    protocols=("nab", "classical-flooding"),
    instances=1,
)

SESSIONS = generate_sessions(
    4,
    topologies=("k4-fast", "bottleneck4"),
    strategies=("fault-free", "equality-garbage"),
    payload_bytes=2,
    instances=2,
    max_faults=1,
    seed=11,
    service="durable-test",
)

SEARCH = dict(budget=3, seed=0, instances=2, payload_bytes=2, max_faults=2)


class EngineRows:
    """Engine rows: resumed by :func:`run_spec`, compacted on completion."""

    def reference(self, path):
        run_spec(ENGINE_SPEC, out_path=path, workers=1, resume=False)

    def resume(self, path):
        summary = run_spec(ENGINE_SPEC, out_path=path, workers=1)
        return summary.skipped_cells, summary.discarded_rows, summary.computed_cells

    def errored(self, row):
        return dict(row, error="RuntimeError: boom")


class SessionRows:
    """Session rows: resumed by :meth:`BroadcastSessionService.run`."""

    def reference(self, path):
        self.resume(path)

    def resume(self, path):
        summary = BroadcastSessionService(
            ServiceConfig(name="durable-test", out_path=path, workers=1)
        ).run(SESSIONS)
        return (
            summary.skipped_sessions,
            summary.discarded_rows,
            summary.computed_sessions,
        )

    def errored(self, row):
        return dict(row, error="RuntimeError: boom")


class SearchTrajectory:
    """Search trajectories: the verified prefix resumes :func:`run_search`."""

    def reference(self, path):
        run_search("k7-unit", out_path=path, resume=False, **SEARCH)

    def resume(self, path):
        kept, discarded = search_module._load_rows(path, "k7-unit", SEARCH["seed"])
        summary = run_search("k7-unit", out_path=path, resume=True, **SEARCH)
        assert summary.resumed_rows == len(kept)
        return len(kept), discarded, summary.iterations - summary.resumed_rows

    def errored(self, row):
        return dict(row, error="RuntimeError: boom")


class WalLines:
    """WAL lines: read back by :func:`load_wal` (which never rewrites)."""

    def reference(self, path):
        with WriteAheadLog(path) as wal:
            for index in range(3):
                wal.append(
                    {
                        "kind": "snapshot",
                        "schema": SESSION_SCHEMA_VERSION,
                        "session_id": f"s/{index}",
                        "state": {"instances_run": index},
                    }
                )

    def resume(self, path):
        snapshots, shed_ids, discarded = load_wal(path, schema=SESSION_SCHEMA_VERSION)
        # The surviving snapshots are exactly a prefix of the reference log.
        assert list(snapshots) == [f"s/{index}" for index in range(len(snapshots))]
        # A rejected line never supersedes the good snapshot before it.
        assert all(row["schema"] == SESSION_SCHEMA_VERSION for row in snapshots.values())
        assert shed_ids == set()
        return len(snapshots), discarded, None

    def errored(self, row):
        # WAL lines carry no error field: a line of unknown kind is the
        # WAL's unusable row.
        return dict(row, kind="error")


FORMATS = {
    "engine-rows": EngineRows,
    "session-rows": SessionRows,
    "search-trajectory": SearchTrajectory,
    "wal-lines": WalLines,
}


def _spoil(path, case, fmt):
    """Apply one torn-tail case; return ``(kept, discarded, computed)`` expected."""
    content = _read_bytes(path)
    lines = content.splitlines(keepends=True)
    total = len(lines)
    last = json.loads(lines[-1])
    if case == "truncated-last-line":
        # A kill mid-write: the final line is half there, no newline.
        spoiled = content[: len(content) - len(lines[-1]) // 2]
        expected = (total - 1, 1, 1)
    elif case == "missing-final-newline":
        # A kill after the full row text of the penultimate line but before
        # its "\n", with the last row lost: appending must not glue onto it.
        spoiled = b"".join(lines[:-1]).rstrip(b"\n")
        expected = (total - 1, 0, 1)
    elif case == "non-object-json":
        spoiled = content + b"not json at all\n[1, 2, 3]\n"
        expected = (total, 2, 0)
    elif case == "errored-row":
        # An errored row is retried, never frozen in as completed.
        spoiled = content + (dump_row(fmt.errored(last)) + "\n").encode()
        expected = (total, 1, 0)
    else:
        assert case == "foreign-schema"
        spoiled = content + (dump_row(dict(last, schema=999)) + "\n").encode()
        expected = (total, 1, 0)
    with open(path, "wb") as handle:
        handle.write(spoiled)
    return expected


@pytest.mark.parametrize(
    "case",
    [
        "truncated-last-line",
        "missing-final-newline",
        "non-object-json",
        "errored-row",
        "foreign-schema",
    ],
)
@pytest.mark.parametrize("format_name", sorted(FORMATS))
def test_torn_tail_is_tolerated(tmp_path, format_name, case):
    fmt = FORMATS[format_name]()
    path = str(tmp_path / "file.jsonl")
    fmt.reference(path)
    pristine = _read_bytes(path)
    kept, discarded, computed = _spoil(path, case, fmt)
    resumed_kept, resumed_discarded, resumed_computed = fmt.resume(path)
    assert resumed_kept == kept
    assert resumed_discarded == discarded
    if resumed_computed is not None:
        # Drivers recompute what was lost and converge bit for bit.
        assert resumed_computed == computed
        assert _read_bytes(path) == pristine
        for line in _read_bytes(path).decode().splitlines():
            json.loads(line)


# ------------------------------------------------------- quarantine settle


def _quarantine(path, *ids):
    write_rows_atomically(path, [{"cell_id": cell_id, "attempts": 1} for cell_id in ids])


class TestSettleQuarantine:
    def test_nothing_quarantined_leaves_no_file(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        assert settle_quarantine(path, [], "cell_id", {}) == (None, 0)
        assert not os.path.exists(path)

    def test_new_rows_are_written(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        result = settle_quarantine(path, [{"cell_id": "x"}], "cell_id", {})
        assert result == (path, 0)
        assert _read_bytes(path) == b'{"cell_id":"x"}\n'

    def test_unresolved_prior_entries_survive_new_quarantines(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        _quarantine(path, "old", "done")
        result = settle_quarantine(
            path, [{"cell_id": "new", "attempts": 2}], "cell_id", {"done": {}}
        )
        # "done" completed since; "old" is still unresolved and reported.
        assert result == (path, 1)
        with open(path, encoding="utf-8") as handle:
            entries = [json.loads(line)["cell_id"] for line in handle]
        assert entries == ["old", "new"]

    def test_requarantined_entry_is_superseded(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        _quarantine(path, "x")
        result = settle_quarantine(
            path, [{"cell_id": "x", "attempts": 3}], "cell_id", {}
        )
        assert result == (path, 0)
        assert _read_bytes(path) == b'{"attempts":3,"cell_id":"x"}\n'

    def test_fully_vindicated_file_is_removed(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        _quarantine(path, "a", "b")
        assert settle_quarantine(path, [], "cell_id", {"a", "b"}) == (None, 0)
        assert not os.path.exists(path)

    def test_corrupt_lines_are_kept_and_counted(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text('{"cell_id":"a"}\nnot json\n')
        result = settle_quarantine(str(path), [{"cell_id": "b"}], "cell_id", {"a"})
        assert result == (str(path), 1)
        assert path.read_text() == 'not json\n{"cell_id":"b"}\n'

    def test_stale_file_without_changes_is_left_untouched(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        _quarantine(path, "a")
        inode = os.stat(path).st_ino
        assert settle_quarantine(path, [], "cell_id", {}) == (path, 1)
        assert os.stat(path).st_ino == inode
