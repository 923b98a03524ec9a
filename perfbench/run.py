"""The repository benchmark: three NAB workloads, end to end or traced per layer.

Run from the repository root::

    python3 perfbench/run.py --workload session-k7 --seed 0 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``session-k7`` — :class:`repro.service.BroadcastSessionService` with two
  workers over fault-free ``k7-unit`` sessions (2 B payload, Q=1, f=1).
* ``session-dispute`` — the same service on ``k7-unit`` with f=2, 64 B
  payloads and Q=8, sessions cycling through eleven adversary strategies.
* ``bulk-64k`` — one 64 KB :meth:`NetworkAwareBroadcast.run` on ``k4-hbd``
  after the cache clears the engine runner makes on a topology switch.

``--trace 0`` repeats whole batches (one ``BroadcastSessionService.run`` or
``NetworkAwareBroadcast.run`` call each) for ``--seconds`` and reports the
median batch throughput, the median of five fresh-process set-up times and
the peak RSS.  ``--trace 1`` alternates untraced and traced batches in one
process (service workloads with one in-process worker, because spans cannot
be collected from forked pool workers) and reports per-layer counts, self
times and cache hit ratios from :mod:`spans`.

Every batch is checked: no error, shed or quarantined session, agreement and
validity wherever defined, and a SHA-256 of the canonical output rows that
must match every other batch of the run and, for the default seed, the digest
committed in ``perfbench/expected.json``.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
exit code is nonzero when any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.classical.relay import clear_relay_path_cache  # noqa: E402
from repro.coding.verification import (  # noqa: E402
    clear_verification_cache,
    verification_cache_stats,
)
from repro.core.dispute_state import DisputeState  # noqa: E402
from repro.core.nab import NetworkAwareBroadcast  # noqa: E402
from repro.core.parameters import (  # noqa: E402
    clear_instance_parameter_cache,
    compute_instance_parameters,
    instance_parameter_cache_stats,
)
from repro.engine.runner import dump_row  # noqa: E402
from repro.gf import get_field  # noqa: E402
from repro.gf.field import clear_kernel_caches, kernel_cache_stats  # noqa: E402
from repro.gf.symbols import symbol_size_for  # noqa: E402
from repro.graph.flow_cache import cache_stats as mincut_cache_stats  # noqa: E402
from repro.graph.flow_cache import clear_mincut_cache  # noqa: E402
from repro.graph.gomory_hu import clear_gomory_hu_cache  # noqa: E402
from repro.graph.spanning_trees import clear_pack_cache, pack_cache_stats  # noqa: E402
from repro.service import BroadcastSessionService, ServiceConfig  # noqa: E402
from repro.service.session import FAULT_FREE, clear_topology_contexts  # noqa: E402
from repro.service.workload import generate_sessions  # noqa: E402
from repro.workloads.topologies import topology  # noqa: E402

from spans import LAYERS, Tracer  # noqa: E402

WORK_DIR = os.path.join(ROOT, ".perfbench-work")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
#: The seed whose output digests and traced counts are committed.
EXPECTED_SEED = 0
#: Fresh processes whose set-up time gives the ``setup_s`` median.
SETUP_PROBES = 5
#: Service pool size of the end-to-end runs (the 2-CPU host's ``nproc``).
WORKERS = 2

#: The strategies ``generate_sessions`` can place, without the
#: parameterised ``composed`` cell of the adversary-zoo grid.
ZOO_STRATEGIES = (
    "phase1-relay",
    "equality-garbage",
    "false-flag",
    "dispute-liar",
    "chaos",
    "crash",
    "sub-broadcast-liar",
    "stage-equivocator",
    "colluding-rotator",
    "adaptive-dodger",
    "relay-tamper",
)


@dataclass(frozen=True)
class Workload:
    """One named workload: its inputs and the size of a batch."""

    name: str
    topology: str
    payload_bytes: int
    instances: int
    max_faults: int
    strategies: Tuple[str, ...]
    #: Sessions per batch; 0 marks the bulk (no service) workload.
    batch_sessions: int

    @property
    def bulk(self) -> bool:
        return self.batch_sessions == 0


WORKLOADS = {
    "session-k7": Workload(
        "session-k7", "k7-unit", 2, 1, 1, (FAULT_FREE,), 200
    ),
    "session-dispute": Workload(
        "session-dispute", "k7-unit", 64, 8, 2, ZOO_STRATEGIES, 11
    ),
    "bulk-64k": Workload("bulk-64k", "k4-hbd", 65536, 1, 1, (FAULT_FREE,), 0),
}

#: Toy sizes for the smoke test: same code paths, a fraction of the work.
TOY_WORKLOADS = {
    "session-k7": replace(WORKLOADS["session-k7"], batch_sessions=8),
    "session-dispute": replace(
        WORKLOADS["session-dispute"], payload_bytes=8, instances=2
    ),
    "bulk-64k": replace(WORKLOADS["bulk-64k"], payload_bytes=1024),
}


# ------------------------------------------------------------------ inputs


@dataclass
class Inputs:
    """Everything a batch needs, built during set-up."""

    sessions: Optional[List] = None
    graph: object = None
    payload: bytes = b""


def prepare(workload: Workload, seed: int) -> Inputs:
    """Set-up: topology construction and input generation from ``seed``."""
    if workload.bulk:
        graph = topology(workload.topology)
        payload = random.Random(seed).randbytes(workload.payload_bytes)
        # Validates n >= 3f + 1 and the connectivity precondition once.
        NetworkAwareBroadcast(graph, 1, workload.max_faults, coding_seed=seed)
        return Inputs(graph=graph, payload=payload)
    sessions = generate_sessions(
        workload.batch_sessions,
        topologies=(workload.topology,),
        strategies=workload.strategies,
        payload_bytes=workload.payload_bytes,
        instances=workload.instances,
        max_faults=workload.max_faults,
        seed=seed,
        service=workload.name,
    )
    return Inputs(sessions=sessions)


def reset_caches(workload: Workload) -> None:
    """Return the process-wide caches to their post-set-up state.

    The bulk workload clears what the engine runner clears on a topology
    switch.  Traced service batches also drop the warm topology contexts and
    the instance-parameter memo, so in-process execution starts as cold as
    the freshly forked workers of the end-to-end runs.
    """
    clear_mincut_cache()
    clear_gomory_hu_cache()
    clear_pack_cache()
    clear_relay_path_cache()
    clear_verification_cache()
    clear_kernel_caches()
    if not workload.bulk:
        clear_topology_contexts()
        clear_instance_parameter_cache()


# ----------------------------------------------------------------- batches


@dataclass
class Batch:
    """One timed call and what its checks found."""

    wall: float
    sessions: int
    failed: int
    digest: str
    bits: int = 0
    dispute_control: int = 0
    calls: Optional[Dict[str, int]] = None


def run_service_batch(
    workload: Workload, inputs: Inputs, workers: int, out_dir: str, tracer=None
) -> Batch:
    """One ``BroadcastSessionService.run`` call over the batch's sessions."""
    sessions = inputs.sessions
    service = BroadcastSessionService(
        ServiceConfig(
            name=workload.name,
            out_path=os.path.join(out_dir, "sessions.jsonl"),
            workers=workers,
        )
    )
    start = time.perf_counter()
    if tracer is None:
        summary = service.run(sessions, resume=False)
    else:
        summary = tracer.batch(service.run, sessions, resume=False)
    wall = time.perf_counter() - start
    rows = {row["session_id"]: row for row in summary.rows}
    failed = 0
    bits = dispute_control = 0
    for spec in sessions:
        # Shed and quarantined sessions have no row, errored ones no record.
        row = rows.get(spec.session_id)
        record = None if row is None else row.get("record")
        if row is None or row.get("error") is not None or record is None:
            failed += 1
            continue
        if record["agreement_ok"] is False or record["validity_ok"] is False:
            failed += 1
        bits += record["bits_sent"]
        dispute_control += record["dispute_control_executions"]
    digest = hashlib.sha256(
        "".join(dump_row(row) + "\n" for row in summary.rows).encode()
    ).hexdigest()
    return Batch(wall, len(sessions), failed, digest, bits, dispute_control)


def run_bulk_batch(workload: Workload, inputs: Inputs, seed: int, tracer=None) -> Batch:
    """One ``NetworkAwareBroadcast.run`` of the payload, from cleared caches."""
    nab = NetworkAwareBroadcast(
        inputs.graph,
        1,
        workload.max_faults,
        coding_seed=seed,
        validate_connectivity=False,
    )
    values = [inputs.payload]
    start = time.perf_counter()
    run = nab.run(values) if tracer is None else tracer.batch(nab.run, values)
    wall = time.perf_counter() - start
    record = run.as_run_record(values, source_faulty=False)
    expected = int.from_bytes(inputs.payload, "big")
    outputs_ok = all(
        value == expected for value in run.instances[0].outputs.values()
    ) and len(run.instances[0].outputs) == len(inputs.graph.nodes())
    ok = record.agreement_ok is not False and record.validity_ok is not False
    digest = hashlib.sha256(dump_row(record.to_jsonable()).encode()).hexdigest()
    return Batch(
        wall,
        1,
        0 if (ok and outputs_ok) else 1,
        digest,
        record.bits_sent,
        record.dispute_control_executions,
    )


def run_batch(workload, inputs, seed, workers, out_dir, tracer=None) -> Batch:
    if workload.bulk:
        return run_bulk_batch(workload, inputs, seed, tracer)
    return run_service_batch(workload, inputs, workers, out_dir, tracer)


# ------------------------------------------------------------------ checks


def load_expected() -> Dict[str, Dict[str, object]]:
    try:
        with open(EXPECTED_PATH, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def committed(args, workload: Workload, key: str, problems: List[str]):
    """The committed expectation ``key``, or ``None`` when none applies.

    Expectations are committed for the default seed at full size only; a
    missing one is a failed check.
    """
    if args.seed != EXPECTED_SEED or args.toy or args.record_expected:
        return None
    value = load_expected().get(workload.name, {}).get(key)
    if value is None:
        problems.append(f"expected.json has no {key!r} for {workload.name}")
    return value


def check_digests(
    batches: Sequence[Batch], expected: Optional[str], problems: List[str]
) -> int:
    """Failures from output digests that differ between batches or from ``expected``.

    Every batch of a run has the same inputs, so every digest must equal the
    first, and the first must equal the committed digest when there is one.
    A mismatching batch counts all its sessions as failed.
    """
    reference = batches[0].digest if expected is None else expected
    failed = 0
    for index, batch in enumerate(batches):
        if batch.digest != reference:
            failed += batch.sessions
            problems.append(
                f"batch {index} output digest {batch.digest[:16]} != {reference[:16]}"
            )
    return failed


# ------------------------------------------------------------------ report


def git_sha() -> Optional[str]:
    """The checkout's commit, or ``None`` when it is not a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        result = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


def gf_backend(workload: Workload) -> str:
    """The GF kernel backend of the workload's fault-free instance field."""
    graph = topology(workload.topology)
    params = compute_instance_parameters(
        graph, 1, graph.node_count(), workload.max_faults, DisputeState(workload.max_faults)
    )
    degree = symbol_size_for(8 * workload.payload_bytes, params.rho)
    name = get_field(degree).kernel_backend_name()
    return "table" if name == "log-table" else name


def host_block(workload: Workload, args, workers: int) -> Dict[str, object]:
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "numpy": numpy_version,
        "git_sha": git_sha(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": workers,
        "toy": args.toy,
        "gf_backend": gf_backend(workload),
    }


def setup_samples(args) -> List[float]:
    """Wall seconds from process start to "ready" for fresh set-up processes."""
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-probe",
    ] + (["--toy"] if args.toy else [])
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            samples.append(time.perf_counter() - start)
            probe.stdout.read()
            if probe.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed: {line!r}")
    return samples


def peak_rss_mb(workers: int) -> float:
    """This process's peak RSS plus ``workers`` times the largest child's peak.

    Call it before starting any process other than pool workers.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


# -------------------------------------------------------------- end to end


def run_end_to_end(workload, inputs, args, out_dir, problems) -> Tuple[Dict, int, int]:
    """Untraced batches for ``--seconds``; returns (metrics, attempted, failed)."""
    batches: List[Batch] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        if workload.bulk:
            reset_caches(workload)
        batches.append(run_batch(workload, inputs, args.seed, WORKERS, out_dir))
        if time.perf_counter() >= deadline:
            break
    failed = sum(batch.failed for batch in batches)
    failed += check_digests(
        batches, committed(args, workload, "batch_sha256", problems), problems
    )
    attempted = sum(batch.sessions for batch in batches)
    if args.record_expected:
        record_expected(workload.name, {"batch_sha256": batches[0].digest})

    session_rates = [batch.sessions / batch.wall for batch in batches]
    payload_kbit = workload.instances * workload.payload_bytes * 8 / 1000.0
    goodput = [rate * payload_kbit for rate in session_rates]
    rss = peak_rss_mb(0 if workload.bulk else WORKERS)
    samples = {
        "sessions_per_s": (session_rates, "1/s"),
        "goodput_kbit_s": (goodput, "kbit/s"),
        "setup_s": (setup_samples(args), "s"),
        "peak_rss_mb": ([rss], "MB"),
    }
    print(f"# {workload.name}: {len(batches)} batches of {batches[0].sessions} "
          f"session(s), workers={1 if workload.bulk else WORKERS}")
    print(f"{'metric':<16} {'median':>12} {'unit':<8} {'n':>4} {'min':>12} {'max':>12}")
    metrics = {}
    for name, (values, unit) in samples.items():
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<16} {value:>12.4f} {unit:<8} {len(values):>4} "
              f"{min(values):>12.4f} {max(values):>12.4f}")
    print(f"{'failed_frac':<16} {failed / attempted:>12.4f} {'ratio':<8} {attempted:>4}")
    return metrics, attempted, failed


# ------------------------------------------------------------------- traced


#: Spans reported as calls per NAB instance (``<span>.count``).
COUNTED_SPANS = (
    "transport.send",
    "transport.send_vector",
    "classical.relay_send",
    "classical.relay_send_vector",
    "core.phase3",
    "gf.vecmat",
    "service.wal_append",
    "service.snapshot",
)

#: Spans reported as self time per traced batch (``<span>.self_ms``).
TIMED_SPANS = (
    "transport.send",
    "transport.send_vector",
    "transport.accounting",
    "classical.broadcast_all",
    "classical.broadcast",
    "classical.relay_send",
    "core.parameters",
    "core.phase1",
    "core.phase2",
    "core.phase3",
    "coding.scheme",
    "coding.equality_check",
    "gf.vecmat",
    "graph.instance_graph",
    "graph.pack_arborescences",
    "service.wal_append",
    "service.snapshot",
    "service.compact",
)


def cache_counters() -> Dict[str, Tuple[int, int]]:
    """``(hits, misses)`` per cache, from the ``*_cache_stats`` functions."""

    def lifetime(stats):
        return stats["lifetime_hits"], stats["lifetime_misses"]

    kernel_hits = kernel_misses = 0
    for caches in kernel_cache_stats().values():
        for counters in caches.values():
            kernel_hits += counters.get("hits", 0)
            kernel_misses += counters.get("misses", 0)
    return {
        "core.parameters.hit_ratio": lifetime(instance_parameter_cache_stats()),
        "coding.verify.hit_ratio": lifetime(verification_cache_stats()),
        "gf.kernel_cache.hit_ratio": (kernel_hits, kernel_misses),
        "graph.pack.hit_ratio": lifetime(pack_cache_stats()),
        "graph.mincut.hit_ratio": lifetime(mincut_cache_stats()),
    }


def run_traced(workload, inputs, args, out_dir, problems) -> Tuple[Dict, int, int]:
    """Untraced and traced batches in turn; returns (metrics, attempted, failed)."""
    tracer = Tracer()
    traced: List[Batch] = []
    plain: List[Batch] = []
    cache_delta = {name: [0, 0] for name in cache_counters()}
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        reset_caches(workload)
        # Alternate untraced and traced batches; past the deadline only the
        # traced batches still missing are run.
        past_deadline = time.perf_counter() >= deadline
        if not (index % 2 or (past_deadline and plain)):
            plain.append(run_batch(workload, inputs, args.seed, 1, out_dir))
        else:
            before_caches = cache_counters()
            before_calls = dict(tracer.calls)
            tracer.install()
            try:
                batch = run_batch(workload, inputs, args.seed, 1, out_dir, tracer)
            finally:
                tracer.uninstall()
            batch.calls = {
                name: count - before_calls.get(name, 0)
                for name, count in tracer.calls.items()
                if count != before_calls.get(name, 0)
            }
            for name, (hits, misses) in cache_counters().items():
                cache_delta[name][0] += hits - before_caches[name][0]
                cache_delta[name][1] += misses - before_caches[name][1]
            traced.append(batch)
        index += 1
        if time.perf_counter() >= deadline and len(traced) >= 2:
            break

    batches = plain + traced
    failed = sum(batch.failed for batch in batches)
    failed += check_digests(
        batches, committed(args, workload, "batch_sha256", problems), problems
    )
    counts = [
        {"calls": b.calls, "bits": b.bits, "dispute_control": b.dispute_control}
        for b in traced
    ]
    for index, batch_counts in enumerate(counts[1:], start=1):
        if batch_counts != counts[0]:
            problems.append(f"traced batch {index} counts differ from batch 0")
    expected_counts = committed(args, workload, "trace_counts", problems)
    if expected_counts is not None and expected_counts != counts[0]:
        problems.append(
            f"traced counts {counts[0]} differ from the committed {expected_counts}"
        )
    if args.record_expected:
        record_expected(
            workload.name,
            {"batch_sha256": traced[0].digest, "trace_counts": counts[0]},
        )
    attempted = sum(batch.sessions for batch in batches)

    runs = len(traced)
    instances = tracer.calls["core.instance"]
    ms_per_batch = 1e-6 / runs  # from nanoseconds summed over the traced batches
    traced_wall = sum(batch.wall for batch in traced)
    layer_ns = tracer.layer_self_ns()
    attributed = sum(layer_ns.values()) / 1e9
    gap_pct = 100.0 * (attributed - traced_wall) / traced_wall
    traced_median = statistics.median(batch.wall for batch in traced)
    plain_median = statistics.median(batch.wall for batch in plain)
    overhead_pct = 100.0 * (traced_median / plain_median - 1.0)
    if abs(gap_pct) > 5.0:
        problems.append(f"layer self times miss the traced wall by {gap_pct:.2f}%")

    values: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS + ("unattributed",):
        values[f"{layer}.self_ms"] = (layer_ns[layer] * ms_per_batch, "ms")
    for name in COUNTED_SPANS:
        values[f"{name}.count"] = (tracer.calls[name] / instances, "count")
    values["core.instance.count"] = (instances / runs, "count")
    for name in TIMED_SPANS:
        values[f"{name}.self_ms"] = (tracer.self_ns[name] * ms_per_batch, "ms")
    values["transport.bits_per_instance"] = (
        sum(batch.bits for batch in traced) / instances, "bit"
    )
    values["core.dispute_control.count"] = (
        sum(batch.dispute_control for batch in traced) / instances, "count"
    )
    vector_calls = tracer.calls["classical.relay_send_vector"]
    relay_calls = tracer.calls["classical.relay_send"] + vector_calls
    values["classical.relay_vector_share"] = (
        vector_calls / relay_calls if relay_calls else 0.0, "ratio"
    )
    values["service.pool_overhead_ms"] = (
        (tracer.total_ns["service.run_pool"] - tracer.total_ns["service.session"])
        * ms_per_batch,
        "ms",
    )
    for metric, (hits, misses) in cache_delta.items():
        values[metric] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    values["trace.wall_ms"] = (traced_wall * 1000.0 / runs, "ms")
    values["trace.overhead_pct"] = (overhead_pct, "%")

    print(f"# {workload.name}: {runs} traced + {len(plain)} untraced batches of "
          f"{batches[0].sessions} session(s), {instances // runs} instance(s) per batch")
    if not workload.bulk:
        print("# traced service batches run with workers=1, in process: spans "
              "cannot be collected from forked pool workers")
    print(f"{'layer':<14} {'self_ms':>12} {'share':>8}   (per traced batch)")
    for layer in LAYERS + ("unattributed",):
        share = 100.0 * layer_ns[layer] / 1e9 / traced_wall
        print(f"{layer:<14} {layer_ns[layer] * ms_per_batch:>12.3f} {share:>7.2f}%")
    print(f"{'sum':<14} {attributed * 1000.0 / runs:>12.3f} "
          f"{100.0 * attributed / traced_wall:>7.2f}%   traced wall "
          f"{traced_wall * 1000.0 / runs:.3f} ms, gap {gap_pct:+.3f}% (limit 5%)")
    print(f"tracing overhead: median traced batch {traced_median:.4f} s vs "
          f"untraced {plain_median:.4f} s ({overhead_pct:+.2f}%)")
    for metric in sorted(values):
        value, unit = values[metric]
        print(f"  {metric:<36} {value:>16.4f} {unit}")

    spans_path = os.path.join(WORK_DIR, f"spans-{workload.name}-seed{args.seed}.jsonl")
    tracer.write_spans(spans_path)
    print(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    return metrics, attempted, failed


def record_expected(name: str, entry: Dict[str, object]) -> None:
    """Merge ``entry`` into the committed expectations of workload ``name``."""
    expected = load_expected()
    expected.setdefault(name, {}).update(entry)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")


# -------------------------------------------------------------------- main


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=EXPECTED_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--toy", action="store_true", help="toy-size inputs (smoke test)"
    )
    parser.add_argument(
        "--record-expected",
        action="store_true",
        help="store this run's digests (and traced counts) in expected.json",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    workload = (TOY_WORKLOADS if args.toy else WORKLOADS)[args.workload]
    inputs = prepare(workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    os.makedirs(WORK_DIR, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR)
    problems: List[str] = []
    try:
        runner = run_traced if args.trace else run_end_to_end
        metrics, attempted, failed = runner(workload, inputs, args, out_dir, problems)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    workers = 1 if (workload.bulk or args.trace) else WORKERS
    print("host: " + json.dumps(host_block(workload, args, workers), sort_keys=True))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed or (0 if correct else 1),
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
