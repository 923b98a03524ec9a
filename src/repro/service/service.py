"""The session-service orchestrator: resume, run, compact, report.

:class:`BroadcastSessionService` ties the pieces together.  A run:

1. **Resumes** from the output file (completed rows are reused, exactly the
   engine runner's contract: well-formed, schema-matching, error-free rows
   keyed by session id) and from the write-ahead log (the latest snapshot per
   in-flight session becomes that session's resume point; shed notices stay
   sticky).
2. **Executes** the pending sessions on the supervised pool
   (:func:`repro.service.pool.run_pool`), streaming one JSONL row per
   completed session to the output file and every checkpoint to the WAL.
3. **Compacts** the output into canonical submission order, settles the WAL
   (snapshots of settled sessions are dropped; shed notices are kept),
   settles the quarantine file, and persists the ops metrics to
   ``<out>.status.json``.

Every file step — loading, the atomic tmp+fsync+replace rewrites (the status
file included), the resume-time append and the quarantine settle — is the
shared one in :mod:`repro.durable`.

Because session rows are pure functions of their spec and checkpoints restore
exactly, a run that was SIGKILLed anywhere — worker, driver, mid-write — and
rerun with the same arguments produces a byte-identical output file.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.durable import (
    dump_row,
    load_rows,
    open_for_append,
    settle_quarantine,
    write_atomically,
    write_rows_atomically,
)
from repro.service.metrics import ServiceMetrics
from repro.service.pool import AdmissionController, PoolTask, run_pool
from repro.service.session import SESSION_SCHEMA_VERSION, SessionSpec
from repro.service.wal import WriteAheadLog, load_wal


@dataclass(frozen=True)
class ServiceConfig:
    """Operating parameters of one service run.

    Attributes:
        name: Service name; rows from other services are never reused.
        out_path: The sessions JSONL file (WAL, quarantine and status files
            live next to it as ``<out>.wal.jsonl``, ``<out>.quarantine.jsonl``
            and ``<out>.status.json``).
        workers: Pool size; ``1`` runs serially in-process.
        queue_depth: Bound of each worker's dispatch queue.
        checkpoint_every: Instances between WAL checkpoints within a session.
        fsync_every: WAL fsync cadence (1 = every checkpoint).
        max_session_retries: Crash-retry budget per session.
        retry_backoff: Base seconds of the crash-retry exponential backoff.
        admission_seed: Seed of the deterministic shed lattice.
        shed_soft_limit: Queued-session level where shedding starts
            (``None`` disables shedding — the byte-identity configuration).
        shed_hard_limit: Queued-session level where the dispatcher
            backpressures instead of enqueueing.
    """

    name: str = "service"
    out_path: Optional[str] = None
    workers: int = 1
    queue_depth: int = 32
    checkpoint_every: int = 1
    fsync_every: int = 1
    max_session_retries: int = 2
    retry_backoff: float = 0.5
    admission_seed: int = 0
    shed_soft_limit: Optional[int] = None
    shed_hard_limit: int = 1 << 30


@dataclass(frozen=True)
class ServiceSummary:
    """Outcome of one :meth:`BroadcastSessionService.run` invocation.

    Attributes:
        service: The service name.
        rows: All session rows available at the end, in submission order.
        computed_sessions: Sessions actually executed this run.
        skipped_sessions: Rows reused from the existing output file.
        shed_sessions: Sessions refused by load shedding (absent from
            ``rows``; their notices live in the WAL).
        total_sessions: Size of the submitted workload.
        out_path: The output file, or ``None`` for in-memory runs.
        discarded_rows: Output/WAL lines dropped during resume.
        retried_sessions: Distinct sessions retried after worker deaths.
        quarantined_sessions: Sessions abandoned after the retry budget.
        quarantine_path: The quarantine file, or ``None`` when empty.
        stale_quarantined_sessions: Sessions a *prior* run quarantined that
            this run neither completed nor re-quarantined — the file is left
            in place and must not be silently ignored.
        status_path: The persisted ops-metrics file, or ``None``.
        metrics: The run's ops counters.
    """

    service: str
    rows: List[Dict[str, object]]
    computed_sessions: int
    skipped_sessions: int
    shed_sessions: int
    total_sessions: int
    out_path: Optional[str]
    discarded_rows: int = 0
    retried_sessions: int = 0
    quarantined_sessions: int = 0
    quarantine_path: Optional[str] = None
    stale_quarantined_sessions: int = 0
    status_path: Optional[str] = None
    metrics: ServiceMetrics = field(default_factory=ServiceMetrics)


def wal_path_for(out_path: str) -> str:
    """The write-ahead log next to an output file."""
    return out_path + ".wal.jsonl"


def quarantine_path_for(out_path: str) -> str:
    """The quarantine file next to an output file."""
    return out_path + ".quarantine.jsonl"


def status_path_for(out_path: str) -> str:
    """The ops-metrics file next to an output file."""
    return out_path + ".status.json"


def _shed_notice(spec: SessionSpec) -> Dict[str, object]:
    """The WAL line that keeps a shed session shed across resumes."""
    notice: Dict[str, object] = {"kind": "shed", "schema": SESSION_SCHEMA_VERSION}
    notice.update(spec.to_jsonable())
    return notice


def _dump_status(status: Dict[str, object]) -> str:
    """The human-readable JSON of ``status.json``."""
    return json.dumps(status, indent=2, sort_keys=True)


class BroadcastSessionService:
    """A resumable, crash-tolerant run of many broadcast sessions."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config

    def run(
        self, sessions: Sequence[SessionSpec], resume: bool = True
    ) -> ServiceSummary:
        """Run (or resume) the workload; one canonical JSONL row per session.

        Args:
            sessions: The workload, in submission order (the canonical order
                of the compacted output file).
            resume: Reuse completed rows and WAL snapshots from a prior run.
                ``False`` ignores and overwrites any existing files.

        Returns:
            A :class:`ServiceSummary`; when the run settled every session,
            ``rows`` matches the persisted file line for line.
        """
        config = self.config
        metrics = ServiceMetrics()
        metrics.sessions_submitted = len(sessions)
        out_path = config.out_path

        completed: Dict[str, Dict[str, object]] = {}
        discarded = 0
        wal_discarded = 0
        snapshots: Dict[str, Dict[str, object]] = {}
        shed_ids: Set[str] = set()
        if out_path:
            if resume:
                # The engine runner's resume contract: rows of this service
                # whose session id and seed match and that recorded no error.
                expected = {spec.session_id: spec for spec in sessions}

                def reusable(row: Dict[str, object]) -> bool:
                    spec = expected.get(row.get("session_id"))
                    return (
                        spec is not None
                        and row.get("schema") == SESSION_SCHEMA_VERSION
                        and row.get("service") == config.name
                        and row.get("seed") == spec.seed
                        and row.get("error") is None
                    )

                kept, discarded = load_rows(out_path, reusable)
                completed = {row["session_id"]: row for row in kept}
                snapshots, shed_ids, wal_discarded = load_wal(
                    wal_path_for(out_path), schema=SESSION_SCHEMA_VERSION
                )
            else:
                try:
                    os.remove(wal_path_for(out_path))
                except FileNotFoundError:
                    pass
        metrics.sessions_resumed_from_output = len(completed)
        metrics.sessions_shed = len(shed_ids)

        tasks: List[PoolTask] = []
        for spec in sessions:
            if spec.session_id in completed or spec.session_id in shed_ids:
                continue
            snapshot = snapshots.get(spec.session_id)
            if snapshot is not None:
                metrics.sessions_restored += 1
            tasks.append(PoolTask(spec=spec, snapshot=snapshot))

        handle = None
        wal = None
        computed: Dict[str, Dict[str, object]] = {}
        retried = 0
        quarantine_rows: List[Dict[str, object]] = []
        started = time.perf_counter()
        try:
            if out_path:
                handle = open_for_append(
                    out_path,
                    [
                        completed[spec.session_id]
                        for spec in sessions
                        if spec.session_id in completed
                    ],
                    discarded,
                )
                wal = WriteAheadLog(
                    wal_path_for(out_path), fsync_every=config.fsync_every
                )

            def emit(row: Dict[str, object], task: PoolTask) -> None:
                computed[task.spec.session_id] = row
                if handle is not None:
                    handle.write(dump_row(row) + "\n")
                    handle.flush()

            def wal_append(row: Dict[str, object]) -> None:
                if wal is not None:
                    wal.append(row)

            def on_shed(spec: SessionSpec) -> None:
                shed_ids.add(spec.session_id)
                wal_append(_shed_notice(spec))

            if tasks:
                retried, quarantine_rows = run_pool(
                    tasks,
                    workers=config.workers,
                    emit=emit,
                    wal_append=wal_append,
                    metrics=metrics,
                    queue_depth=config.queue_depth,
                    checkpoint_every=config.checkpoint_every,
                    max_session_retries=config.max_session_retries,
                    retry_backoff=config.retry_backoff,
                    admission=AdmissionController(
                        seed=config.admission_seed,
                        soft_limit=config.shed_soft_limit,
                        hard_limit=config.shed_hard_limit,
                    ),
                    on_shed=on_shed,
                )
            else:
                metrics.capture_cache_stats()
        finally:
            if handle is not None:
                handle.close()
            if wal is not None:
                wal.close()
        metrics.wall_seconds = time.perf_counter() - started
        metrics.sessions_retried = retried

        available = dict(completed)
        available.update(computed)
        rows = [
            available[spec.session_id]
            for spec in sessions
            if spec.session_id in available
        ]

        quarantine_path = None
        stale_quarantined = 0
        status_path = None
        if out_path:
            # Compact to canonical submission order: fresh and resumed runs
            # of the same workload produce byte-identical files.
            write_rows_atomically(out_path, rows)
            # Settle the WAL: snapshots of settled sessions are obsolete;
            # shed notices survive so shed decisions stay sticky.
            if shed_ids:
                write_rows_atomically(
                    wal_path_for(out_path),
                    [
                        _shed_notice(spec)
                        for spec in sessions
                        if spec.session_id in shed_ids
                    ],
                )
            else:
                try:
                    os.remove(wal_path_for(out_path))
                except FileNotFoundError:
                    pass

            quarantine_path, stale_quarantined = settle_quarantine(
                quarantine_path_for(out_path),
                quarantine_rows,
                "session_id",
                available,
            )

            status_path = status_path_for(out_path)
            status = {
                "service": config.name,
                "out_path": out_path,
                "total_sessions": len(sessions),
                "settled_sessions": len(rows),
                "quarantine_path": quarantine_path,
                "stale_quarantined_sessions": stale_quarantined,
                "metrics": metrics.to_jsonable(),
            }
            write_atomically(status_path, [status], _dump_status)

        return ServiceSummary(
            service=config.name,
            rows=rows,
            computed_sessions=len(computed),
            skipped_sessions=len(completed),
            shed_sessions=len(shed_ids),
            total_sessions=len(sessions),
            out_path=out_path,
            discarded_rows=discarded + wal_discarded,
            retried_sessions=retried,
            quarantined_sessions=len(quarantine_rows),
            quarantine_path=quarantine_path,
            stale_quarantined_sessions=stale_quarantined,
            status_path=status_path,
            metrics=metrics,
        )
