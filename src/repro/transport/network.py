"""Synchronous message delivery with per-phase link-usage accounting.

:class:`SynchronousNetwork` is the thin runtime every protocol in the library
is written against.  It owns

* the :class:`repro.graph.NetworkGraph` describing which directed links exist
  and their capacities,
* a :class:`repro.transport.accounting.TimeAccountant` that attributes the
  bits of every transmission to a named protocol phase, and
* the :class:`repro.transport.faults.FaultModel` describing which nodes are
  Byzantine (protocols consult it to decide which strategy hook to invoke).

Delivery is synchronous and immediate: :meth:`SynchronousNetwork.send` charges
the link and returns the delivered :class:`Message`.  Batch helpers
(:meth:`send_round`) keep per-round bookkeeping readable in the protocol code.
The transport never alters payloads — Byzantine behaviour is decided by the
protocols via the strategy hooks *before* handing a payload to the transport,
mirroring how the paper reasons about what faulty nodes inject at each step.

``send`` is the per-hop path of every relayed message (the classical
disjoint-path relay sends hundreds of thousands per session batch), so it
validates once and then skips every repeated check: the message is built by
:meth:`Message._trusted` (slotted, no ``__post_init__``), and the bits go
straight into the accountant's live link-bits dict for the phase, which
``send`` keeps between calls while the phase name stays the same.  The
accountant's ledger remains the single source of truth: its per-phase dicts
are never replaced, so every other charge (direct ``record_transmission``
calls, the ARQ transport's wire copies) lands in the same dict.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Tuple

from repro.exceptions import GraphError, ProtocolError
from repro.graph.network_graph import NetworkGraph
from repro.transport.accounting import TimeAccountant
from repro.transport.faults import FaultModel
from repro.transport.message import Message
from repro.types import Edge, NodeId

_trusted_message = Message._trusted

#: Placeholder for "no phase charged yet" that equals no phase name.
_NO_PHASE = object()


#: Builds the transport a protocol instance runs on.  The default everywhere
#: is ``SynchronousNetwork`` itself; injecting a factory (e.g. for
#: :class:`repro.transport.scheduled.ScheduledNetwork` with a link model) is
#: how callers swap delivery semantics without touching protocol logic.
NetworkFactory = Callable[[NetworkGraph, FaultModel], "SynchronousNetwork"]


class SynchronousNetwork:
    """Message transport over a capacitated directed graph."""

    def __init__(self, graph: NetworkGraph, fault_model: FaultModel | None = None) -> None:
        self.graph = graph
        self.fault_model = fault_model if fault_model is not None else FaultModel()
        self.accountant = TimeAccountant(graph)
        self._delivered: List[Message] = []
        #: The accountant's live link-bits dict of the phase ``send`` charged
        #: last.  The accountant never replaces a phase's dict, so charging
        #: through this alias is charging the ledger itself.
        self._charge_phase: object = _NO_PHASE
        self._charge_bits: Dict[Edge, int] = {}

    # ---------------------------------------------------------------- queries

    def nodes(self) -> List[NodeId]:
        """All nodes of the underlying graph, sorted."""
        return self.graph.nodes()

    def fault_free_nodes(self) -> List[NodeId]:
        """All nodes not controlled by the adversary, sorted."""
        return self.fault_model.fault_free(self.graph.nodes())

    def has_link(self, tail: NodeId, head: NodeId) -> bool:
        """Whether the directed link exists."""
        return self.graph.has_edge(tail, head)

    def link_capacity(self, tail: NodeId, head: NodeId) -> int:
        """Capacity of the directed link (raises if absent)."""
        return self.graph.capacity(tail, head)

    def delivered_messages(self) -> List[Message]:
        """Every message delivered so far (in delivery order)."""
        return list(self._delivered)

    def messages_received_by(self, node: NodeId, phase: str | None = None) -> List[Message]:
        """Messages delivered to ``node``, optionally filtered by phase."""
        return [
            message
            for message in self._delivered
            if message.receiver == node and (phase is None or message.phase == phase)
        ]

    # ------------------------------------------------------------------- send

    def send(
        self,
        sender: NodeId,
        receiver: NodeId,
        payload: Any,
        bit_size: int,
        phase: str,
        kind: str = "data",
    ) -> Message:
        """Send ``payload`` over the directed link ``(sender, receiver)``.

        The link is charged ``bit_size`` bits in phase ``phase`` and the
        message is delivered immediately (zero propagation delay, as in the
        paper's base model).

        Raises:
            GraphError: if the directed link does not exist.
            ProtocolError: if ``bit_size`` is not a positive integer.
        """
        if not self.graph.has_edge(sender, receiver):
            raise GraphError(f"no link from {sender} to {receiver}")
        if not isinstance(bit_size, int) or isinstance(bit_size, bool) or bit_size <= 0:
            raise ProtocolError(f"bits must be a positive integer, got {bit_size!r}")
        # The graph has no self loops, so an existing link also rules out a
        # self-send: every check Message.__post_init__ would make is done.
        message = _trusted_message(sender, receiver, phase, kind, payload, bit_size)
        if phase != self._charge_phase:
            self._charge_bits = self.accountant._live_link_bits(phase)
            self._charge_phase = phase
        link_bits = self._charge_bits
        key = (sender, receiver)
        link_bits[key] = link_bits.get(key, 0) + bit_size
        self._delivered.append(message)
        return message

    def send_vector(
        self,
        sender: NodeId,
        receiver: NodeId,
        symbols: Iterable[Any],
        bits_each: int,
        phase: str,
        kind: str = "data",
    ) -> Message:
        """Send a whole per-edge symbol vector as *one* transmission.

        Batching contract: the payload is the tuple of symbols, the link is
        charged ``len(symbols) * bits_each`` bits in one accounting record,
        and exactly one :class:`Message` is created.  Per-link bit totals —
        and therefore every elapsed-time quantity the accountant derives —
        are identical to sending the symbols one by one; what changes is only
        the constant per-message overhead (object construction, ledger
        updates, scheduler bookkeeping), which used to dominate symbol-dense
        phases.  Phase 1 hands each edge its full cross-tree symbol vector
        through this entry point, and the equality check its coded vector.

        Raises:
            GraphError: if the directed link does not exist.
            ProtocolError: if the vector is empty or ``bits_each`` is not a
                positive integer (via the accountant's validation).
        """
        payload = tuple(symbols)
        if not payload:
            raise ProtocolError("send_vector requires at least one symbol")
        return self.send(
            sender, receiver, payload, bits_each * len(payload), phase, kind
        )

    def send_round(
        self,
        transmissions: Iterable[Tuple[NodeId, NodeId, Any, int]],
        phase: str,
        kind: str = "data",
    ) -> Dict[NodeId, List[Message]]:
        """Send a batch of transmissions and return the per-receiver inboxes.

        Args:
            transmissions: Iterable of ``(sender, receiver, payload, bit_size)``.
            phase: Phase name the usage is charged to.
            kind: Message kind tag applied to every message of the round.

        Returns:
            Mapping from receiver to the list of messages it received this
            round, in transmission order.
        """
        inboxes: Dict[NodeId, List[Message]] = {}
        for sender, receiver, payload, bit_size in transmissions:
            message = self.send(sender, receiver, payload, bit_size, phase, kind)
            inboxes.setdefault(receiver, []).append(message)
        return inboxes

    # ------------------------------------------------------------- accounting

    def elapsed_time(self):
        """Total elapsed time across all phases so far (exact Fraction)."""
        return self.accountant.total_elapsed()

    def total_bits(self) -> int:
        """Total bits sent across all phases so far."""
        return self.accountant.total_bits()
