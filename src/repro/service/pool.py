"""The supervised pool: persistent workers, affinity, degradation.

Every driver that supervises work runs it here: the session service runs
sessions, and engine sweeps (:func:`repro.engine.runner.run_spec`) run
cells.  A :class:`TaskKind` says what a task is — how a
worker executes it and how it is named in crash bookkeeping; the default is
the session.

* **Persistent workers.**  Each worker owns a private duplex pipe and serves
  many tasks, keeping its per-topology contexts and budgeted kernel /
  structure caches warm across tasks — the latency win a long-running
  service exists for.  Death (pipe EOF) is attributable to exactly one
  in-flight task.
* **Snapshot streaming.**  While executing, a worker streams checkpoint rows
  (``("snapshot", row)``) back through its pipe before the final
  ``("done", row)``; the single-threaded supervisor appends them to the
  write-ahead log.  A worker SIGKILLed mid-session therefore leaves its
  latest checkpoint durable, and the retry resumes from it instead of
  starting over.
* **Topology-affine dispatch with work stealing.**  Sessions are enqueued on
  the worker whose last session shared their topology (bounded per-worker
  queues); an idle worker with an empty queue steals from the longest queue,
  so affinity never causes starvation.
* **Graceful degradation.**  When every queue is full the dispatcher waits
  (a backpressure counter records it); under configured overload the
  :class:`AdmissionController` sheds sessions *deterministically* — a
  SHA-256 lattice point derived from the session id decides, so which
  sessions are sheddable is a pure function of identity, not of scheduling
  noise.  Sessions whose worker died are retried with exponential backoff and
  quarantined after ``max_session_retries`` retries: one poisoned session
  never stalls the pool.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as _connection_wait
from operator import attrgetter
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.service.metrics import ServiceMetrics, process_cache_sample
from repro.service.session import SESSION_SCHEMA_VERSION, SessionSpec, run_session

#: Resolution of the admission lattice: the shed decision quantises the
#: overload fraction to ``1 / ADMISSION_STEPS`` (same grid as the link-fault
#: lattice, so rates that are lattice multiples are realised exactly).
ADMISSION_STEPS = 1 << 16


def admission_point(seed: int, session_id: str) -> Fraction:
    """The session's fixed lattice point in ``[0, 1)`` for shed decisions.

    Deterministic per ``(seed, session_id)``: a session keeps the same shed
    priority however often it is offered, and two runs of the same workload
    agree on which sessions are shed at any given overload level.
    """
    digest = hashlib.sha256(f"admission|{seed}|{session_id}".encode()).digest()
    return Fraction(int.from_bytes(digest[:4], "big") % ADMISSION_STEPS, ADMISSION_STEPS)


@dataclass(frozen=True)
class AdmissionController:
    """Deterministic seeded-lattice load shedding over a soft/hard band.

    Below ``soft_limit`` queued sessions everything is admitted.  Between the
    limits, the shed fraction ramps linearly from 0 to 1: a session is shed
    iff its :func:`admission_point` falls below the ramp.  At or above
    ``hard_limit`` the dispatcher stops offering (backpressure) rather than
    shedding blindly, so the hard bound is never exceeded.

    ``soft_limit=None`` disables shedding entirely — the configuration the
    byte-identity paths (chaos harness, benchmarks) run with.
    """

    seed: int = 0
    soft_limit: Optional[int] = None
    hard_limit: int = 1 << 30

    def shed_fraction(self, queued: int) -> Fraction:
        """How much of the lattice is shed at ``queued`` enqueued sessions."""
        if self.soft_limit is None or queued < self.soft_limit:
            return Fraction(0)
        if queued >= self.hard_limit or self.hard_limit <= self.soft_limit:
            return Fraction(1)
        return Fraction(queued - self.soft_limit, self.hard_limit - self.soft_limit)

    def admits(self, session_id: str, queued: int) -> bool:
        """Whether to admit ``session_id`` with ``queued`` sessions enqueued."""
        fraction = self.shed_fraction(queued)
        if fraction == 0:
            return True
        return admission_point(self.seed, session_id) >= fraction


@dataclass
class PoolTask:
    """One task's journey through the pool (``spec`` is a session or a cell)."""

    spec: Any
    snapshot: Optional[Dict[str, object]] = None
    attempts: int = 0
    exitcodes: List[Optional[int]] = field(default_factory=list)
    submitted_at: float = 0.0


@dataclass(frozen=True)
class TaskKind:
    """What the pool's tasks are.

    Attributes:
        noun: The task's name in crash messages (``"session"``, ``"cell"``).
        task_id: The task's stable identity (retry, snapshot and shed
            bookkeeping, quarantine resolution).
        identity: The fields heading the task's quarantine row.
        execute: Runs one task in a worker:
            ``execute(spec, snapshot, checkpoint, checkpoint_every) -> row``.
            Deterministic failures must come back as error rows; only
            process death is a pool-level event.
    """

    noun: str
    task_id: Callable[[Any], str]
    identity: Callable[[Any], Dict[str, object]]
    execute: Callable[..., Dict[str, object]]


def quarantine_row(task: PoolTask, kind: TaskKind) -> Dict[str, object]:
    """The JSONL row describing a quarantined task.

    The task's identity fields, with the crash evidence (attempt count and
    the exit codes of the dead workers — e.g. ``-9`` for SIGKILL) in place
    of a result.
    """
    row = kind.identity(task.spec)
    row["attempts"] = task.attempts
    row["worker_exitcodes"] = list(task.exitcodes)
    row["error"] = (
        f"WorkerCrash: worker process died {task.attempts} time(s) "
        f"executing this {kind.noun}"
    )
    return row


def _session_identity(spec: SessionSpec) -> Dict[str, object]:
    row: Dict[str, object] = {"schema": SESSION_SCHEMA_VERSION}
    row.update(spec.to_jsonable())
    return row


def execute_session(
    spec: SessionSpec,
    snapshot: Optional[Dict[str, object]],
    checkpoint: Optional[Callable[[Dict[str, object]], None]],
    checkpoint_every: int,
) -> Dict[str, object]:
    """Run one session, folding deterministic failures into an error row.

    Only process death is a pool-level event; a session that raises (bad
    topology, protocol violation) yields a row with its ``error`` field set,
    exactly like the engine runner's cells, so the pool keeps draining.
    """
    try:
        return run_session(
            spec,
            snapshot=snapshot,
            checkpoint=checkpoint,
            checkpoint_every=checkpoint_every,
        )
    except Exception as exc:  # noqa: BLE001 - services must survive bad sessions
        row = _session_identity(spec)
        row["record"] = None
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row


def _worker_main(
    conn: Connection, execute: Callable[..., Dict[str, object]], checkpoint_every: int
) -> None:
    """Persistent-worker child: serve tasks off ``conn`` until told to stop.

    Request: ``(spec, snapshot_or_None)``.  Response stream: zero or more
    ``("snapshot", row)`` checkpoints followed by one ``("done", row)``.
    A ``None`` request is the shutdown signal, answered with one
    ``("stats", sample)`` — the worker's warm-cache and RSS sample for the
    ops surface — before exiting.  Warm caches (topology contexts, kernel
    operand caches, structure caches) live for the worker's whole life —
    that is the point of persistence; every one of them is budget- or
    entry-bounded, so memory stays flat.
    """
    try:
        while True:
            try:
                request = conn.recv()
            except (EOFError, OSError):
                return
            if request is None:
                try:
                    conn.send(("stats", process_cache_sample()))
                except (OSError, ValueError):
                    pass
                return
            spec, snapshot = request
            row = execute(
                spec,
                snapshot,
                lambda row: conn.send(("snapshot", row)),
                checkpoint_every,
            )
            conn.send(("done", row))
    finally:
        conn.close()


class _WorkerSlot:
    """Supervisor-side state of one persistent worker."""

    def __init__(self, queue_depth: int) -> None:
        self.conn: Optional[Connection] = None
        self.process = None
        self.queue: Deque[PoolTask] = deque()
        self.queue_depth = queue_depth
        self.busy: Optional[PoolTask] = None
        self.last_topology: Optional[str] = None

    def has_room(self) -> bool:
        return len(self.queue) < self.queue_depth


def run_pool(
    tasks: Sequence[PoolTask],
    workers: int,
    emit: Callable[[Dict[str, object], PoolTask], None],
    wal_append: Callable[[Dict[str, object]], None],
    metrics: ServiceMetrics,
    queue_depth: int = 32,
    checkpoint_every: int = 1,
    max_session_retries: int = 2,
    retry_backoff: float = 0.5,
    admission: Optional[AdmissionController] = None,
    on_shed: Optional[Callable[[SessionSpec], None]] = None,
    kind: Optional[TaskKind] = None,
) -> Tuple[int, List[Dict[str, object]]]:
    """Drain ``tasks`` through the supervised persistent-worker pool.

    Args:
        tasks: The tasks to run (with any resume snapshots attached).
        workers: Pool size; ``<= 1`` runs serially in-process (checkpoints
            still stream to the WAL, so a killed *driver* resumes too).
        emit: Called with each completed row and its task (single-threaded).
        wal_append: Called with each streamed snapshot row (single-threaded).
        metrics: Counters updated in place.
        queue_depth: Bound of each worker's supervisor-side queue.
        checkpoint_every: Instances between checkpoints within a session.
        max_session_retries: Crash-retry budget per session before quarantine.
        retry_backoff: Base seconds before a crashed session's retry
            (doubled per subsequent crash); ``0`` retries immediately.
        admission: Load-shedding policy; ``None`` admits everything.
        on_shed: Called with each shed session's spec.
        kind: What the tasks are; ``None`` means sessions run by
            :func:`execute_session`.

    Returns:
        ``(retried_task_count, quarantine_rows)``.
    """
    if admission is None:
        admission = AdmissionController()
    if kind is None:
        # Built per call, so the executor is whatever ``execute_session``
        # names at run time (a wrapper installed on it sees every session).
        kind = TaskKind(
            "session", attrgetter("session_id"), _session_identity, execute_session
        )
    task_id = kind.task_id
    pool_started = time.perf_counter()

    def shed(task: PoolTask) -> None:
        metrics.sessions_shed += 1
        if on_shed is not None:
            on_shed(task.spec)

    if workers <= 1:
        return _run_serial(tasks, emit, wal_append, metrics, checkpoint_every, kind)

    ctx = multiprocessing.get_context()
    slots = [_WorkerSlot(queue_depth) for _ in range(workers)]

    def spawn(slot: _WorkerSlot) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=_worker_main,
            args=(child_conn, kind.execute, checkpoint_every),
            daemon=True,
        )
        process.start()
        child_conn.close()
        slot.conn = parent_conn
        slot.process = process

    def reap(slot: _WorkerSlot) -> Optional[int]:
        process, conn = slot.process, slot.conn
        slot.process, slot.conn = None, None
        if conn is not None:
            conn.close()
        if process is None:
            return None
        process.join()
        return process.exitcode

    for slot in slots:
        spawn(slot)

    offered: Deque[PoolTask] = deque(tasks)
    retried: set = set()
    quarantined: List[Dict[str, object]] = []
    #: Latest streamed snapshot per in-flight session: the resume point a
    #: crash retry uses (strictly newer than anything loaded from the WAL).
    latest_snapshot: Dict[str, Dict[str, object]] = {}

    def total_queued() -> int:
        return sum(len(slot.queue) for slot in slots) + sum(
            1 for slot in slots if slot.busy is not None
        )

    def enqueue_ready() -> None:
        """Admit/shed offered sessions into bounded queues until full."""
        stalled = False
        while offered:
            queued = total_queued()
            if queued >= admission.hard_limit:
                stalled = True
                break
            task = offered[0]
            if task.attempts == 0 and not admission.admits(
                task_id(task.spec), queued
            ):
                offered.popleft()
                shed(task)
                continue
            preferred = None
            for slot in slots:
                if slot.has_room() and slot.last_topology == task.spec.topology:
                    preferred = slot
                    break
            if preferred is None:
                with_room = [slot for slot in slots if slot.has_room()]
                if not with_room:
                    stalled = True
                    break
                preferred = min(with_room, key=lambda slot: len(slot.queue))
            offered.popleft()
            task.submitted_at = time.perf_counter()
            preferred.queue.append(task)
        if stalled and any(slot.busy is not None for slot in slots):
            metrics.backpressure_waits += 1

    def next_task_for(slot: _WorkerSlot) -> Optional[PoolTask]:
        """The slot's own queue first; else steal from the longest queue."""
        if slot.queue:
            return slot.queue.popleft()
        victim = max(slots, key=lambda other: len(other.queue))
        if victim.queue:
            metrics.work_steals += 1
            # Steal from the tail: the head preserves the victim's affinity.
            return victim.queue.pop()
        return None

    def dispatch() -> None:
        for slot in slots:
            while slot.busy is None:
                task = next_task_for(slot)
                if task is None:
                    break
                snapshot = latest_snapshot.get(task_id(task.spec), task.snapshot)
                try:
                    slot.conn.send((task.spec, snapshot))
                except (OSError, ValueError):
                    # Died while idle: the session was never attempted, so it
                    # goes back unharmed and the worker is replaced.
                    slot.queue.appendleft(task)
                    reap(slot)
                    spawn(slot)
                    continue
                slot.busy = task
                slot.last_topology = task.spec.topology

    try:
        while offered or any(slot.queue for slot in slots) or any(
            slot.busy is not None for slot in slots
        ):
            enqueue_ready()
            dispatch()
            busy_conns = {slot.conn: slot for slot in slots if slot.busy is not None}
            if not busy_conns:
                continue
            for conn in _connection_wait(list(busy_conns)):
                slot = busy_conns[conn]
                task = slot.busy
                try:
                    message, row = conn.recv()
                except (EOFError, OSError):
                    # Death mid-session (OOM kill, SIGKILL, segfault): the
                    # streamed checkpoints are already in the WAL, so the
                    # retry resumes from the latest one instead of replaying
                    # the whole session.
                    slot.busy = None
                    task.attempts += 1
                    task.exitcodes.append(reap(slot))
                    spawn(slot)
                    if task.attempts > max_session_retries:
                        quarantined.append(quarantine_row(task, kind))
                        metrics.sessions_quarantined += 1
                        latest_snapshot.pop(task_id(task.spec), None)
                    else:
                        retried.add(task_id(task.spec))
                        metrics.sessions_retried = len(retried)
                        if retry_backoff > 0:
                            time.sleep(retry_backoff * 2 ** (task.attempts - 1))
                        if task_id(task.spec) in latest_snapshot:
                            metrics.sessions_restored += 1
                        offered.append(task)
                    continue
                if message == "snapshot":
                    latest_snapshot[task_id(task.spec)] = row
                    wal_append(row)
                    metrics.snapshots_written += 1
                    continue
                slot.busy = None
                latest_snapshot.pop(task_id(task.spec), None)
                metrics.record_latency(time.perf_counter() - task.submitted_at)
                _account_completion(metrics, row, task)
                emit(row, task)
    finally:
        metrics.queue_depths = [len(slot.queue) for slot in slots]
        worker_samples: List[Dict[str, object]] = []
        for slot in slots:
            if slot.conn is not None:
                try:
                    slot.conn.send(None)
                    if slot.conn.poll(5):
                        message, sample = slot.conn.recv()
                        if message == "stats":
                            worker_samples.append(sample)
                except (OSError, ValueError, EOFError):
                    pass
                slot.conn.close()
            if slot.process is not None:
                slot.process.join(timeout=5)
                if slot.process.is_alive():
                    slot.process.terminate()
                    slot.process.join()
        metrics.capture_cache_stats(worker_samples)
        metrics.wall_seconds = time.perf_counter() - pool_started
    return len(retried), quarantined


def _account_completion(metrics, row, task) -> None:
    """Settle the completion counters for one finished task row."""
    metrics.sessions_completed += 1
    if row.get("error") is not None:
        metrics.sessions_failed += 1
    else:
        metrics.instances_executed += task.spec.instances


def _run_serial(
    tasks: Sequence[PoolTask],
    emit: Callable[[Dict[str, object], PoolTask], None],
    wal_append: Callable[[Dict[str, object]], None],
    metrics: ServiceMetrics,
    checkpoint_every: int,
    kind: TaskKind,
) -> Tuple[int, List[Dict[str, object]]]:
    """In-process execution: no worker crashes, but driver kills still resume."""
    serial_started = time.perf_counter()

    def checkpoint(row: Dict[str, object]) -> None:
        wal_append(row)
        metrics.snapshots_written += 1

    for task in tasks:
        task.submitted_at = time.perf_counter()
        row = kind.execute(task.spec, task.snapshot, checkpoint, checkpoint_every)
        metrics.record_latency(time.perf_counter() - task.submitted_at)
        _account_completion(metrics, row, task)
        emit(row, task)
    metrics.queue_depths = [0]
    metrics.capture_cache_stats()
    metrics.wall_seconds = time.perf_counter() - serial_started
    return 0, []
