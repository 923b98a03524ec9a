"""In-memory span tracer wrapped around each layer's public entry points.

The tracer records spans from outside the ``repro`` package: :meth:`Tracer.install`
replaces a fixed list of functions and methods (:data:`ENTRY_POINTS`) with
timing wrappers and :meth:`Tracer.uninstall` puts the originals back, so an
untraced batch runs exactly the library code.  Every wrapper charges its
elapsed time to its own span name minus the time its child spans cover (the
span's *self time*); a span name's prefix before the first dot is its layer.

High-frequency leaf calls (:data:`AGGREGATE_ONLY`: per-message sends, relay
hops, GF vector-matrix products, ledger reads) are timed and counted but not
recorded one by one; every other span is kept in memory as
``(id, parent, trace, name, start_ns, end_ns)`` and written out by
:meth:`Tracer.write_spans` when the benchmark ends.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

#: ``(module, attribute path, span name)`` of every wrapped entry point.
#: Functions are patched in the module that *calls* them (the name the caller
#: looks up at run time); methods are patched on their class.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.service.service", "BroadcastSessionService.run", "service.run"),
    ("repro.service.service", "run_pool", "service.run_pool"),
    ("repro.service.service", "write_rows_atomically", "service.compact"),
    ("repro.service.pool", "execute_session", "service.session"),
    ("repro.service.session", "snapshot_row", "service.snapshot"),
    ("repro.service.wal", "WriteAheadLog.append", "service.wal_append"),
    ("repro.core.nab", "NetworkAwareBroadcast.run_instance", "core.instance"),
    ("repro.core.instance", "compute_instance_parameters", "core.parameters"),
    ("repro.core.instance", "run_phase1", "core.phase1"),
    ("repro.core.instance", "run_phase2", "core.phase2"),
    ("repro.core.instance", "run_phase3", "core.phase3"),
    ("repro.core.instance", "generate_coding_scheme", "coding.scheme"),
    ("repro.core.phase2_equality", "run_equality_check", "coding.equality_check"),
    ("repro.core.dispute_state", "DisputeState.instance_graph", "graph.instance_graph"),
    ("repro.core.phase1_broadcast", "pack_arborescences", "graph.pack_arborescences"),
    ("repro.classical.broadcast_default", "BroadcastDefault.broadcast_from_all", "classical.broadcast_all"),
    ("repro.classical.broadcast_default", "BroadcastDefault.broadcast", "classical.broadcast"),
    ("repro.classical.relay", "DisjointPathRelay.reliable_send", "classical.relay_send"),
    ("repro.classical.relay", "DisjointPathRelay.reliable_send_from_faulty", "classical.relay_send"),
    ("repro.classical.relay", "DisjointPathRelay.reliable_send_vector", "classical.relay_send_vector"),
    ("repro.transport.network", "SynchronousNetwork.send", "transport.send"),
    ("repro.transport.network", "SynchronousNetwork.send_vector", "transport.send_vector"),
    ("repro.transport.accounting", "TimeAccountant.total_elapsed", "transport.accounting"),
    ("repro.transport.accounting", "TimeAccountant.total_bits", "transport.accounting"),
    ("repro.transport.accounting", "TimeAccountant.total_link_bits", "transport.accounting"),
    ("repro.transport.accounting", "TimeAccountant.phase_timings", "transport.accounting"),
    ("repro.gf.matrix", "GFMatrix.vecmat", "gf.vecmat"),
)

#: Span names timed and counted in aggregate only (no per-call record).
AGGREGATE_ONLY = frozenset(
    {
        "transport.send",
        "transport.send_vector",
        "transport.accounting",
        "classical.relay_send",
        "classical.relay_send_vector",
        "gf.vecmat",
    }
)

#: The layers, in reporting order; ``unattributed`` is the root span's self time.
LAYERS = ("service", "core", "classical", "coding", "graph", "gf", "transport")

ROOT = "bench.batch"


def layer_of(name: str) -> str:
    """The layer a span name belongs to (its prefix before the first dot)."""
    return "unattributed" if name == ROOT else name.split(".", 1)[0]


class Tracer:
    """Span accumulator: self and inclusive time plus call count per span name."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = {}
        self.total_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.spans: List[Tuple[int, Optional[int], int, str, int, int]] = []
        # Open spans, innermost last: [child_ns, record id, parent record id].
        self._stack: List[list] = []
        self._trace_id = 0
        self._originals: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------- recording

    def _wrap(self, function: Callable, name: str) -> Callable:
        """``function`` timed as span ``name`` (kept lean: it runs per call)."""
        stack, spans = self._stack, self.spans
        self_ns, total_ns, calls = self.self_ns, self.total_ns, self.calls
        for counter in (self_ns, total_ns, calls):
            counter.setdefault(name, 0)
        record = name not in AGGREGATE_ONLY
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            frame = [0, None, None]
            if record:
                if stack:
                    top = stack[-1]
                    frame[2] = top[1] if top[1] is not None else top[2]
                frame[1] = len(spans)
                spans.append(None)  # filled in on close
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                self_ns[name] += elapsed - frame[0]
                total_ns[name] += elapsed
                calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
                if record:
                    spans[frame[1]] = (
                        frame[1], frame[2], tracer._trace_id, name, start, end
                    )

        traced.__wrapped__ = function
        return traced

    def batch(self, function: Callable, *args, **kwargs):
        """Call ``function`` as the root span of one traced batch.

        The root's self time is reported as ``unattributed``; spans opened
        inside share the batch's trace id.
        """
        self._trace_id += 1
        return self._wrap(function, ROOT)(*args, **kwargs)

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        """Wrap every entry point; :meth:`uninstall` must run before the next call."""
        if self._originals:
            raise RuntimeError("tracer is already installed")
        for module_name, path, name in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *owners, attribute = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name))

    def uninstall(self) -> None:
        """Restore every original entry point."""
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------- reading

    def layer_self_ns(self) -> Dict[str, int]:
        """Self time per layer, plus the root's self time as ``unattributed``."""
        totals = {layer: 0 for layer in LAYERS}
        totals["unattributed"] = 0
        for name, value in self.self_ns.items():
            totals[layer_of(name)] += value
        return totals

    def write_spans(self, path: str) -> None:
        """Write the recorded spans as JSON lines (one object per span)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, trace, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "trace": trace,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
