"""Parallel cell execution with persisted, resumable JSONL results.

The runner executes a spec's cells as tasks of the supervised pool
(:func:`repro.service.pool.run_pool`; in-process when ``workers == 1``),
streams one JSON row per completed cell to the output file (append-only,
crash safe), and on completion compacts the file into canonical grid order.  Rows are pure
functions of their cell — exact rationals are serialised as ``"p/q"``
strings, every mapping key is a string — and persistence goes through
:mod:`repro.durable` (canonical rows, torn-tail-tolerant loading, atomic
rewrites, quarantine settling), so a fresh run and a killed-then-resumed run
of the same spec produce byte-identical files.

Resume: before executing, the runner reads any existing output file, keeps
every well-formed row whose cell id belongs to the current grid (matching
spec, seed and schema version), and only computes the rest.

Worker crashes (OOM kill, SIGKILL, segfault) never stall a sweep: the pool
attributes a worker's death to exactly one in-flight cell, which is retried
with backoff on a respawned worker and — after ``max_cell_retries`` failures —
quarantined to ``<out>.quarantine.jsonl`` instead of aborting the run.

Workers are persistent and topology-affine; each clears the process-wide
structure caches whenever it switches to an unrelated topology (cells arrive
grouped by topology, so this is rare) and relies on
:func:`repro.gf.field.get_field` canonicalisation to share field tables
within the worker.
"""

from __future__ import annotations

import cProfile
import io
import os
import pstats
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Callable, Dict, List, Optional

from repro.capacity.bounds import CapacityAnalysis, analyse_network
from repro.classical.relay import clear_relay_path_cache
from repro.coding.verification import clear_verification_cache
from repro.durable import (
    dump_row,
    load_rows,
    open_for_append,
    settle_quarantine,
    write_rows_atomically,
)
from repro.engine.protocol import get_protocol
from repro.engine.spec import Cell, ExperimentSpec
from repro.exceptions import ConfigurationError
from repro.gf.field import clear_kernel_caches
from repro.graph.flow_cache import clear_mincut_cache
from repro.graph.gomory_hu import clear_gomory_hu_cache
from repro.graph.spanning_trees import clear_pack_cache
from repro.sched.faults import fault_plan
from repro.service.metrics import ServiceMetrics
from repro.service.pool import PoolTask, TaskKind, run_pool

#: Version stamp of the persisted row layout; bump on breaking changes so
#: resume never mixes incompatible rows.
ROW_SCHEMA_VERSION = 1


#: Per-process memo of analytical bounds keyed by (topology, source, f); the
#: bounds depend only on graph structure, so the handful of distinct keys in a
#: grid are computed once per worker instead of once per cell.
_ANALYSIS_MEMO: Dict[tuple, CapacityAnalysis] = {}


def _plan_is_clean(plan_name: str) -> bool:
    """Whether the named fault plan never faults a link.

    Unknown names count as non-clean: the row then carries the plan name, and
    the lookup failure surfaces in its ``error`` field instead of here.
    """
    try:
        return fault_plan(plan_name).is_clean
    except ConfigurationError:
        return False


def _bounds_jsonable(analysis: CapacityAnalysis) -> Dict[str, object]:
    return {
        "gamma_star": analysis.gamma_star,
        "rho_star": analysis.rho_star,
        "nab_lower_bound": str(analysis.nab_lower_bound),
        "capacity_upper_bound": str(analysis.capacity_upper_bound),
        "guaranteed_fraction": str(analysis.guaranteed_fraction),
        "achieved_fraction": str(analysis.achieved_fraction),
    }


def run_cell(cell: Cell) -> Dict[str, object]:
    """Execute one cell and return its persisted-row dict.

    The row is deterministic: it contains no timestamps or host information,
    only the cell identity, the protocol's :class:`RunRecord` and the
    network's analytical bounds.  Protocol failures are captured in an
    ``"error"`` field instead of aborting the sweep.
    """
    scenario = cell.scenario()
    row: Dict[str, object] = {
        "schema": ROW_SCHEMA_VERSION,
        "spec": cell.spec_name,
        "cell_id": cell.cell_id,
        "seed": cell.seed,
        "topology": cell.topology,
        "strategy": cell.strategy,
        "faulty_nodes": list(cell.faulty_nodes),
        "payload_bytes": cell.payload_bytes,
        "instances": cell.instances,
        "max_faults": cell.max_faults,
        "protocol": cell.protocol,
        "source": scenario.source,
        "execution": cell.execution,
        "link_model": cell.link_model,
    }
    if cell.fault_plan != "none" and not _plan_is_clean(cell.fault_plan):
        # Conditional so rows of fault-free grids keep the exact byte layout
        # they had before the fault-plan axis existed — and so a zero-rate
        # plan (clean by construction) reproduces the fault-free rows
        # byte-identically even though it routes through the ARQ transport.
        row["fault_plan"] = cell.fault_plan
    if cell.strategy_params:
        # Same conditional-key idiom: parameterless grids keep their exact
        # pre-existing byte layout.
        row["strategy_params"] = cell.strategy_params
    try:
        memo_key = (cell.topology, scenario.source, cell.max_faults)
        analysis = _ANALYSIS_MEMO.get(memo_key)
        if analysis is None:
            analysis = analyse_network(scenario.graph, scenario.source, cell.max_faults)
            _ANALYSIS_MEMO[memo_key] = analysis
        if cell.bounds_only:
            # Analytical cell: gamma*/rho*/Eq. 6/Theorem 2 are the whole
            # deliverable; no protocol runs (record stays null, error None,
            # so resume keeps the row).
            row["record"] = None
            row["bounds"] = _bounds_jsonable(analysis)
            row["error"] = None
            return row
        protocol = get_protocol(cell.protocol)
        params: Dict[str, object] = {
            "max_faults": cell.max_faults,
            "coding_seed": cell.seed,
            "execution": cell.execution,
        }
        if cell.link_model != "instant":
            # The zero-latency scheduled clock is contractually identical to
            # the plain transport's (see repro.transport.scheduled), so
            # default cells skip the per-send scheduling bookkeeping entirely.
            params["link_model"] = cell.link_model
        if cell.fault_plan != "none":
            # Any named plan (clean ones included) routes through the ARQ
            # transport — the clean fast path is contractually bit-identical
            # to the default transport, and exercising it keeps the zero-rate
            # byte-identity guarantee honest.  Only "none" itself skips the
            # per-send bookkeeping entirely, mirroring link_model "instant".
            params["fault_plan"] = cell.fault_plan
        record = protocol.run(
            scenario.graph,
            scenario.source,
            list(scenario.inputs),
            scenario.fault_model,
            params,
        )
        row["record"] = record.to_jsonable()
        row["bounds"] = _bounds_jsonable(analysis)
        row["error"] = None
    except Exception as exc:  # noqa: BLE001 - sweeps must survive bad cells
        row["record"] = None
        row["bounds"] = None
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


_LAST_TOPOLOGY: Optional[str] = None


def _execute_cell(
    cell: Cell,
    snapshot: Optional[Dict[str, object]] = None,
    checkpoint: Optional[Callable[[Dict[str, object]], None]] = None,
    checkpoint_every: int = 1,
) -> Dict[str, object]:
    """Worker entry point: per-topology cache hygiene around :func:`run_cell`.

    Takes the pool's executor arguments; cells are never checkpointed, so
    ``snapshot`` and ``checkpoint`` go unused.

    All five process-wide structure caches (min-cut solutions, Gomory-Hu
    trees, arborescence packings, relay paths, coding-scheme rank verdicts)
    are keyed on
    canonical graph signatures, so clearing them is about memory, not
    correctness; cells arrive grouped by topology, so the clears are rare.
    The GF kernel operand caches (spread operands, FFT spectra) are dropped
    on the same cadence — a new topology means new coding matrices, so the
    old operands will not recur.
    """
    global _LAST_TOPOLOGY
    if cell.topology != _LAST_TOPOLOGY:
        clear_mincut_cache()
        clear_gomory_hu_cache()
        clear_pack_cache()
        clear_relay_path_cache()
        clear_verification_cache()
        clear_kernel_caches()
        _LAST_TOPOLOGY = cell.topology
    return run_cell(cell)


@dataclass(frozen=True)
class RunSummary:
    """Outcome of one :func:`run_spec` invocation.

    Attributes:
        spec_name: The executed spec.
        rows: All rows available at the end, in canonical grid order
            (computed this run plus rows reused from a previous run).
        computed_cells: How many cells were actually executed.
        skipped_cells: How many were reused from the existing output file.
        discarded_rows: Lines of the existing output file dropped during
            resume (truncated/corrupt lines, stale or errored rows).
        total_cells: Size of the full grid.
        out_path: The output file, or ``None`` for in-memory runs.
        retried_cells: Distinct cells whose worker died at least once and
            were re-executed on a respawned worker.
        quarantined_cells: Cells abandoned after exhausting their retry
            budget (their identities live in the quarantine file, not in
            ``rows``).
        quarantine_path: The quarantine JSONL next to the output file, or
            ``None`` when nothing was quarantined (this run or — still
            unresolved — a prior one).
        stale_quarantined_cells: Cells a *prior* run quarantined that this
            run neither completed nor re-quarantined.  The leftover file is
            kept in place and reported, never silently ignored — e.g. a
            resume invoked with ``--limit`` that happened to retry nothing.
    """

    spec_name: str
    rows: List[Dict[str, object]]
    computed_cells: int
    skipped_cells: int
    total_cells: int
    out_path: Optional[str]
    discarded_rows: int = 0
    profile_path: Optional[str] = None
    retried_cells: int = 0
    quarantined_cells: int = 0
    quarantine_path: Optional[str] = None
    stale_quarantined_cells: int = 0


def _cell_identity(cell: Cell) -> Dict[str, object]:
    """The identity fields heading a quarantined cell's row."""
    return {
        "schema": ROW_SCHEMA_VERSION,
        "spec": cell.spec_name,
        "cell_id": cell.cell_id,
        "seed": cell.seed,
    }


#: Engine cells as supervised-pool tasks.
_CELL_TASKS = TaskKind("cell", attrgetter("cell_id"), _cell_identity, _execute_cell)


#: How many cProfile lines each profiled cell keeps in the dump.
_PROFILE_TOP = 25


def _profiling(sections: List[str]) -> TaskKind:
    """Cell tasks run under cProfile, each top-25 report appended to ``sections``."""

    def execute(cell: Cell, *unused: object) -> Dict[str, object]:
        profiler = cProfile.Profile()
        profiler.enable()
        row = _execute_cell(cell)
        profiler.disable()
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.sort_stats("cumulative").print_stats(_PROFILE_TOP)
        sections.append(f"=== {row['cell_id']}\n{buffer.getvalue()}")
        return row

    return replace(_CELL_TASKS, execute=execute)


def run_spec(
    spec: ExperimentSpec,
    out_path: Optional[str] = None,
    workers: int = 1,
    limit: Optional[int] = None,
    resume: bool = True,
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
    profile: bool = False,
    max_cell_retries: int = 2,
    retry_backoff: float = 0.5,
) -> RunSummary:
    """Run (or resume) every cell of a spec and persist one JSONL row per cell.

    Args:
        spec: The sweep to execute.
        out_path: JSONL output file.  ``None`` runs fully in memory.
        workers: Worker processes; ``1`` runs serially in-process.
        limit: Execute at most this many not-yet-completed cells, then stop
            (persisting what finished) — the hook the resume tests use to
            simulate a killed sweep.
        resume: Reuse completed rows from an existing output file.  When
            ``False`` any existing file is ignored and overwritten.
        progress: Optional callback invoked with each freshly computed row.
        profile: Run every computed cell under :mod:`cProfile` and write its
            top-25 cumulative report to ``<out_path>.profile.txt`` next to
            the JSONL (in-memory runs collect but discard the report).
            Forces serial execution so the profiles are not split across
            worker processes; the rows themselves are unaffected.
        max_cell_retries: How many times a cell whose worker process died is
            re-executed (on a fresh worker) before being quarantined to
            ``<out_path>.quarantine.jsonl``.  Applies to parallel runs; a
            serial run dies with its only process.
        retry_backoff: Base delay in seconds before retrying a crashed cell
            (doubled per subsequent crash of the same cell); ``0`` retries
            immediately (the hook crash tests use).

    Returns:
        A :class:`RunSummary`; ``rows`` is in canonical grid order and, when
        the grid ran to completion, matches the persisted file line for line.
    """
    if profile:
        workers = 1
    cells = spec.expand()
    forced_backend = False
    if spec.kernel_backend and not os.environ.get("REPRO_GF_BACKEND"):
        # Spec-level backend override, propagated through the environment so
        # spawned worker processes inherit it; an explicit REPRO_GF_BACKEND
        # set by the operator wins over the spec value.  Restored on exit so
        # back-to-back sweeps in one process do not leak the override.
        os.environ["REPRO_GF_BACKEND"] = spec.kernel_backend
        forced_backend = True
    completed: Dict[str, Dict[str, object]] = {}
    discarded = 0
    if out_path and resume:
        # Reuse rows of the current grid (cell id, spec, seed and schema
        # version match) that recorded no error, so a transient failure is
        # retried rather than frozen in.
        expected = {cell.cell_id: cell for cell in cells}

        def reusable(row: Dict[str, object]) -> bool:
            cell = expected.get(row.get("cell_id"))
            return (
                cell is not None
                and row.get("schema") == ROW_SCHEMA_VERSION
                and row.get("spec") == spec.name
                and row.get("seed") == cell.seed
                and row.get("error") is None
            )

        kept, discarded = load_rows(out_path, reusable)
        completed = {row["cell_id"]: row for row in kept}
    pending = [cell for cell in cells if cell.cell_id not in completed]
    if limit is not None:
        pending = pending[: max(0, limit)]

    handle = None
    if out_path:
        handle = open_for_append(
            out_path,
            [completed[cell.cell_id] for cell in cells if cell.cell_id in completed],
            discarded,
        )

    computed: Dict[str, Dict[str, object]] = {}
    profile_sections: List[str] = []
    retried_cells = 0
    quarantine_rows: List[Dict[str, object]] = []

    def emit(row: Dict[str, object], task: PoolTask) -> None:
        computed[row["cell_id"]] = row
        if handle is not None:
            handle.write(dump_row(row) + "\n")
            handle.flush()
        if progress is not None:
            progress(row)

    try:
        if pending:
            retried_cells, quarantine_rows = run_pool(
                [PoolTask(spec=cell) for cell in pending],
                workers,
                emit,
                wal_append=lambda row: None,
                metrics=ServiceMetrics(),
                max_session_retries=max_cell_retries,
                retry_backoff=retry_backoff,
                kind=_profiling(profile_sections) if profile else _CELL_TASKS,
            )
    finally:
        if handle is not None:
            handle.close()
        if forced_backend:
            os.environ.pop("REPRO_GF_BACKEND", None)

    available = dict(completed)
    available.update(computed)
    rows = [available[cell.cell_id] for cell in cells if cell.cell_id in available]

    quarantine_path = None
    stale_quarantined = 0
    if out_path:
        # Compact to canonical grid order so a fresh run and a resumed run of
        # the same spec produce byte-identical files.
        write_rows_atomically(out_path, rows)
        quarantine_path, stale_quarantined = settle_quarantine(
            out_path + ".quarantine.jsonl", quarantine_rows, "cell_id", available
        )

    profile_path = None
    if profile and out_path and profile_sections:
        profile_path = out_path + ".profile.txt"
        with open(profile_path, "w", encoding="utf-8") as profile_handle:
            profile_handle.write("".join(profile_sections))

    return RunSummary(
        spec_name=spec.name,
        rows=rows,
        computed_cells=len(computed),
        skipped_cells=len(completed),
        total_cells=len(cells),
        out_path=out_path,
        discarded_rows=discarded,
        profile_path=profile_path,
        retried_cells=retried_cells,
        quarantined_cells=len(quarantine_rows),
        quarantine_path=quarantine_path,
        stale_quarantined_cells=stale_quarantined,
    )
