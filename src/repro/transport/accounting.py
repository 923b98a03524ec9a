"""Time accounting for the paper's deterministic link-capacity model.

A directed link of capacity ``z_e`` bits per time unit can carry ``z_e * tau``
bits in ``tau`` time units.  A synchronous protocol phase in which ``b_e``
bits are sent over each link ``e`` therefore takes

    ``max_e  b_e / z_e``

time units (all links transmit in parallel), plus any fixed overhead the
protocol charges to the phase (e.g. the ``O(n^alpha)`` cost of broadcasting
1-bit flags with a classical BB algorithm, which the paper accounts separately
from the ``L``-dependent cost).  All durations are exact
:class:`fractions.Fraction` values so analytical identities such as
``L / gamma_k`` hold without floating-point error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from repro.exceptions import GraphError, ProtocolError
from repro.graph.network_graph import NetworkGraph
from repro.types import Edge, NodeId, PhaseTiming, accumulate_link_bits


@dataclass
class _PhaseLedger:
    """Mutable ledger for one named phase."""

    link_bits: Dict[Edge, int]
    fixed_overhead: Fraction

    def total_bits(self) -> int:
        return sum(self.link_bits.values())


class TimeAccountant:
    """Accumulates per-phase link usage and converts it into elapsed time."""

    def __init__(self, graph: NetworkGraph) -> None:
        self._graph = graph
        self._phases: Dict[str, _PhaseLedger] = {}
        self._phase_order: List[str] = []

    # ------------------------------------------------------------- recording

    def _ledger(self, phase: str) -> _PhaseLedger:
        if phase not in self._phases:
            self._phases[phase] = _PhaseLedger(link_bits={}, fixed_overhead=Fraction(0))
            self._phase_order.append(phase)
        return self._phases[phase]

    def record_transmission(self, phase: str, tail: NodeId, head: NodeId, bits: int) -> None:
        """Charge ``bits`` of usage on the link ``(tail, head)`` to ``phase``.

        Raises:
            GraphError: if the link does not exist in the graph.
            ProtocolError: if ``bits`` is not a positive integer.
        """
        if not self._graph.has_edge(tail, head):
            raise GraphError(f"cannot transmit on missing link ({tail}, {head})")
        if not isinstance(bits, int) or isinstance(bits, bool) or bits <= 0:
            raise ProtocolError(f"bits must be a positive integer, got {bits!r}")
        self._record_validated(phase, tail, head, bits)

    def _record_validated(self, phase: str, tail: NodeId, head: NodeId, bits: int) -> None:
        """Ledger update behind :meth:`record_transmission`, without checks.

        The transport validated the link and the bit count already, so its
        charges (the ARQ wire copies) skip re-validating them here.
        """
        link_bits = self._live_link_bits(phase)
        key = (tail, head)
        link_bits[key] = link_bits.get(key, 0) + bits

    def _live_link_bits(self, phase: str) -> Dict[Edge, int]:
        """The ledger's own link-bits dict for ``phase`` (created on first use).

        A phase's dict is created once and never replaced, so the transport's
        ``send`` keeps this dict for the phase it charged last and adds its
        validated bits straight into it.
        """
        ledger = self._phases.get(phase)
        if ledger is None:
            ledger = self._ledger(phase)
        return ledger.link_bits

    def add_fixed_overhead(self, phase: str, time_units: Fraction | int) -> None:
        """Charge a fixed amount of time (independent of link usage) to ``phase``."""
        duration = Fraction(time_units)
        if duration < 0:
            raise ProtocolError(f"fixed overhead must be non-negative, got {duration}")
        self._ledger(phase).fixed_overhead += duration

    # --------------------------------------------------------------- reporting

    def phase_names(self) -> List[str]:
        """Phases seen so far, in first-use order."""
        return list(self._phase_order)

    def link_bits(self, phase: str) -> Dict[Edge, int]:
        """Bits charged to each link during ``phase`` (empty dict if unknown phase)."""
        if phase not in self._phases:
            return {}
        return dict(self._phases[phase].link_bits)

    def total_link_bits(self) -> Dict[Edge, int]:
        """Bits charged to each link, aggregated across every phase."""
        totals: Dict[Edge, int] = {}
        for phase in self._phase_order:
            accumulate_link_bits(totals, self._phases[phase].link_bits)
        return totals

    def phase_bits(self, phase: str) -> int:
        """Total bits sent on all links during ``phase``."""
        if phase not in self._phases:
            return 0
        return self._phases[phase].total_bits()

    def phase_fixed_overhead(self, phase: str) -> Fraction:
        """Fixed (link-independent) time charged to ``phase`` so far."""
        if phase not in self._phases:
            return Fraction(0)
        return self._phases[phase].fixed_overhead

    def total_fixed_overhead(self) -> Fraction:
        """Fixed overhead summed across every phase."""
        return sum(
            (self._phases[phase].fixed_overhead for phase in self._phase_order),
            Fraction(0),
        )

    def phase_elapsed(self, phase: str) -> Fraction:
        """Elapsed time of ``phase``: ``max_e bits_e / z_e`` plus fixed overhead.

        The slowest link is found by integer cross-multiplication
        (``bits / capacity > best_bits / best_capacity``), so one
        :class:`Fraction` is built per phase instead of one per link.
        """
        ledger = self._phases.get(phase)
        if ledger is None:
            return Fraction(0)
        capacity = self._graph.capacity
        best_bits, best_capacity = 0, 1
        for (tail, head), bits in ledger.link_bits.items():
            link_capacity = capacity(tail, head)
            if bits * best_capacity > best_bits * link_capacity:
                best_bits, best_capacity = bits, link_capacity
        elapsed = Fraction(best_bits, best_capacity)
        if ledger.fixed_overhead:
            elapsed += ledger.fixed_overhead
        return elapsed

    def total_elapsed(self) -> Fraction:
        """Sum of the elapsed times of all phases (phases run sequentially)."""
        return sum((self.phase_elapsed(phase) for phase in self._phase_order), Fraction(0))

    def total_bits(self) -> int:
        """Total bits sent on all links across all phases."""
        return sum(self.phase_bits(phase) for phase in self._phase_order)

    def phase_timings(self) -> Tuple[PhaseTiming, ...]:
        """Immutable per-phase summary in execution order."""
        return tuple(
            PhaseTiming(
                name=phase,
                time_units=self.phase_elapsed(phase),
                bits_sent=self.phase_bits(phase),
            )
            for phase in self._phase_order
        )

    def merge_from(self, other: "TimeAccountant") -> None:
        """Fold another accountant's ledgers into this one (phases keep their names).

        Used when a sub-protocol (e.g. the classical 1-bit broadcast) runs with
        its own accountant and its cost must be attributed to the caller.
        """
        for phase in other.phase_names():
            for (tail, head), bits in other.link_bits(phase).items():
                self.record_transmission(phase, tail, head, bits)
            overhead = other._phases[phase].fixed_overhead
            if overhead:
                self.add_fixed_overhead(phase, overhead)
