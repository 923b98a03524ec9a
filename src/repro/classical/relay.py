"""Reliable point-to-point channels over an incomplete network.

Appendix D of the paper: in a network with vertex connectivity at least
``2f + 1`` and at most ``f`` faulty nodes, reliable end-to-end communication
from any node ``i`` to any node ``j`` is achieved by sending the same copy of
the data along ``2f + 1`` vertex-disjoint paths and taking the majority at the
receiver.  At most ``f`` of the paths contain a faulty intermediate node, so
at least ``f + 1`` copies arrive unaltered and the majority is correct
whenever the *sender* is fault-free.  (A faulty sender can, of course, inject
whatever it wants — that is the classical BB algorithm's problem, not the
channel's.)

The relay charges every hop of every path to the accountant, so the
polynomial-in-``n`` overhead the paper attributes to ``Broadcast_Default`` is
measured rather than assumed.

Performance notes:
    Deriving the disjoint paths is a max-flow decomposition per ordered node
    pair.  Every :class:`DisjointPathRelay` used to recompute them from
    scratch because its cache died with the object (NAB builds a fresh relay
    per instance).  The paths are a pure function of the graph, so they are
    now memoised process-wide in an LRU keyed on ``(graph_signature, sender,
    receiver, path_count)`` — the canonical-signature contract of
    :mod:`repro.graph.flow_cache`.  Each relay keeps a small per-object
    first-level dict so hot pairs skip even the signature hashing.
    :func:`clear_relay_path_cache` resets the shared cache (the engine runner
    calls it between topologies); :func:`relay_path_cache_stats` exposes its
    counters.

    A relay call is the per-hop hot loop of ``Broadcast_Default``: it binds
    the send method, the fault test, the ``relay_value`` hook and the hop
    kind once, then walks each cached path in place, building nothing per
    hop (precomputed hop tuples were no faster and raised the service
    workers' peak memory).  The hooks fire in path and hop order with the
    same arguments as a plain hop-by-hop walk.  :func:`majority_value`
    returns at once when every copy is the same object (no faulty
    intermediary replaced it) and otherwise computes one ``repr`` per
    distinct object instead of one per copy.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.exceptions import ProtocolError
from repro.graph.connectivity import local_connectivity, vertex_disjoint_paths
from repro.graph.flow_cache import GraphSignature, MinCutCache, graph_signature
from repro.graph.network_graph import NetworkGraph
from repro.transport.network import SynchronousNetwork
from repro.types import NodeId

#: Payload delivered when a majority cannot be established.
DEFAULT_VALUE = None

#: Types for which equal values always have equal ``repr`` strings, so the
#: all-identical fast path of :func:`majority_value` agrees with its keyed
#: slow path.
_CANONICAL_REPR_TYPES = frozenset((bool, int, bytes, str, type(None)))

#: Process-wide memo of vertex-disjoint relay paths.  Values are stored as
#: tuples of node tuples; lookups hand out fresh lists, so cached paths can
#: never be mutated through a caller.
_PATH_CACHE = MinCutCache(max_entries=4096)


def relay_path_cache_stats() -> Dict[str, object]:
    """Hit/miss counters of the shared path cache (``MinCutCache.stats`` shape).

    The ``lifetime_*`` counters survive :func:`clear_relay_path_cache`, so a
    sweep that clears between topologies can still report whole-run efficacy.
    """
    return _PATH_CACHE.stats()


def clear_relay_path_cache() -> None:
    """Reset the process-wide relay path cache."""
    _PATH_CACHE.clear()


class DisjointPathRelay:
    """Reliable unicast channels built from ``2f + 1`` vertex-disjoint paths."""

    def __init__(
        self,
        network: SynchronousNetwork,
        max_faults: int,
        instance: int = 0,
    ) -> None:
        if max_faults < 0:
            raise ProtocolError(f"max_faults must be non-negative, got {max_faults}")
        self.network = network
        self.max_faults = max_faults
        self.instance = instance
        self.path_count = 2 * max_faults + 1
        self._path_cache: Dict[Tuple[NodeId, NodeId], List[List[NodeId]]] = {}
        self._clean_pairs: Dict[Tuple[NodeId, NodeId], bool] = {}
        self._graph_signature: GraphSignature | None = None

    # ------------------------------------------------------------------ paths

    def paths_between(self, sender: NodeId, receiver: NodeId) -> List[List[NodeId]]:
        """The ``2f + 1`` vertex-disjoint paths used for this ordered pair (cached).

        Consults the per-relay dict first, then the process-wide LRU shared by
        every relay over a structurally identical graph (the graph signature
        is computed once per relay, so the underlying graph must not be
        mutated during the relay's lifetime — NAB always hands the relay a
        frozen graph).

        Raises:
            ProtocolError: if the network does not contain enough disjoint
                paths (i.e. its connectivity is below ``2f + 1``).
        """
        key = (sender, receiver)
        paths = self._path_cache.get(key)
        if paths is None:
            graph: NetworkGraph = self.network.graph
            if self._graph_signature is None:
                self._graph_signature = graph_signature(graph)
            shared_key = (
                "relay-paths",
                self._graph_signature,
                sender,
                receiver,
                self.path_count,
            )
            cached = _PATH_CACHE.lookup(shared_key)
            if cached is None:
                if local_connectivity(graph, sender, receiver) < self.path_count:
                    raise ProtocolError(
                        f"network connectivity between {sender} and {receiver} is below "
                        f"2f + 1 = {self.path_count}; reliable relay impossible"
                    )
                fresh = vertex_disjoint_paths(graph, sender, receiver, self.path_count)
                cached = tuple(tuple(path) for path in fresh)
                _PATH_CACHE.store(shared_key, cached)
            paths = [list(path) for path in cached]
            self._path_cache[key] = paths
        return paths

    def paths_are_clean(self, sender: NodeId, receiver: NodeId) -> bool:
        """Whether no *intermediate* node of any disjoint path is faulty.

        Intermediate nodes (``path[1:-1]``) are the only hop senders whose
        corruption hook can fire during a relay, so for a clean pair every
        relayed value is pure store-and-forward — the precondition for
        batching a round's values into one vector per hop
        (:meth:`reliable_send_vector`).  Cached per ordered pair (the fault
        model is fixed for the relay's lifetime).
        """
        key = (sender, receiver)
        clean = self._clean_pairs.get(key)
        if clean is None:
            is_faulty = self.network.fault_model.is_faulty
            clean = not any(
                is_faulty(node)
                for path in self.paths_between(sender, receiver)
                for node in path[1:-1]
            )
            self._clean_pairs[key] = clean
        return clean

    # ------------------------------------------------------------------- send

    def reliable_send_vector(
        self,
        sender: NodeId,
        receiver: NodeId,
        values: Sequence[Any],
        bit_size: int,
        phase: str,
        context: str = "relay",
    ) -> List[Any]:
        """Relay a whole round's values for one ordered pair as per-hop vectors.

        Only valid for a fault-free sender on clean paths
        (:meth:`paths_are_clean`): every hop is then pure forwarding, so
        delivering the tuple in one :meth:`SynchronousNetwork.send_vector`
        message per hop charges each link exactly the bits the per-value
        sends would (``len(values) * bit_size``) and the majority over
        ``2f + 1`` identical path copies is the value itself.  Per-link bit
        totals — hence the accountant's and the scheduled network's clocks —
        are unchanged; only jitter ordinals can observe the batching.

        Raises:
            ProtocolError: if ``values`` is empty (nothing to relay).
        """
        if not values:
            raise ProtocolError("reliable_send_vector requires at least one value")
        values = list(values)
        if sender == receiver:
            return values
        network = self.network
        for path in self.paths_between(sender, receiver):
            for hop_index in range(len(path) - 1):
                network.send_vector(
                    path[hop_index],
                    path[hop_index + 1],
                    values,
                    bit_size,
                    phase,
                    kind=f"{context}:hop",
                )
        return values

    def reliable_send(
        self,
        sender: NodeId,
        receiver: NodeId,
        value: Any,
        bit_size: int,
        phase: str,
        context: str = "relay",
    ) -> Any:
        """Send ``value`` from ``sender`` to ``receiver`` over disjoint paths.

        Returns the value the receiver accepts (majority over path copies).
        Faulty intermediate nodes may corrupt the copy travelling through them
        (via the strategy's ``relay_value`` hook); when the sender is
        fault-free the majority is guaranteed to equal ``value``.
        """
        if sender == receiver:
            return value
        paths = self.paths_between(sender, receiver)
        return self._relay(paths, receiver, repeat(value), bit_size, phase, context)

    def reliable_send_from_faulty(
        self,
        sender: NodeId,
        receiver: NodeId,
        per_path_values: Sequence[Any],
        bit_size: int,
        phase: str,
        context: str = "relay",
    ) -> Any:
        """Variant where a faulty sender chooses a (possibly different) value per path.

        Raises:
            ProtocolError: if the number of supplied values does not match the
                number of paths.
        """
        paths = self.paths_between(sender, receiver)
        if len(per_path_values) != len(paths):
            raise ProtocolError(
                f"expected {len(paths)} per-path values, got {len(per_path_values)}"
            )
        return self._relay(paths, receiver, per_path_values, bit_size, phase, context)

    def _relay(
        self,
        paths: List[List[NodeId]],
        receiver: NodeId,
        injected: Iterable[Any],
        bit_size: int,
        phase: str,
        context: str,
    ) -> Any:
        """Forward one injected value down each path; the majority of the copies.

        Hops go out path by path, in hop order.  Each faulty intermediate
        node's ``relay_value`` hook sees the copy arriving at it before it
        forwards that copy.  The loop allocates nothing per hop.
        """
        send = self.network.send
        is_faulty = self.network.fault_model.is_faulty
        relay_value = self.network.fault_model.strategy.relay_value
        instance = self.instance
        kind = f"{context}:hop"
        copies: List[Any] = []
        for path, current_value in zip(paths, injected):
            hop_sender = path[0]
            for index in range(1, len(path)):
                hop_receiver = path[index]
                if index > 1 and is_faulty(hop_sender):
                    current_value = relay_value(
                        instance, hop_sender, path, receiver, current_value
                    )
                send(hop_sender, hop_receiver, current_value, bit_size, phase, kind)
                hop_sender = hop_receiver
            copies.append(current_value)
        return majority_value(copies)


def majority_value(copies: Sequence[Any]) -> Any:
    """Strict majority of ``copies``; :data:`DEFAULT_VALUE` when there is none.

    Values are compared by equality after a canonical ``repr``-based key so
    that unhashable payloads (lists, dicts) can participate; the copy
    returned is the last one carrying the winning key.  Two fast paths give
    the same answer without keying: every copy is the same object (no
    faulty intermediary touched it), or every copy is an equal value of one
    type whose repr is canonical (``1 == True`` but their reprs differ, so
    mixed types always take the keyed path).  Otherwise ``repr`` runs once
    per distinct object, not once per copy: a relay's untouched copies all
    share the sender's object.
    """
    if not copies:
        return DEFAULT_VALUE
    first = copies[0]
    for copy in copies:
        if copy is not first:
            break
    else:
        return first
    first_type = type(first)
    if first_type in _CANONICAL_REPR_TYPES and all(
        type(copy) is first_type and copy == first for copy in copies[1:]
    ):
        return first
    # ``copies`` keeps every object alive, so ``id`` names each one uniquely.
    reprs: Dict[int, str] = {}
    keyed: Dict[str, Any] = {}
    counts: Dict[str, int] = {}
    for copy in copies:
        key = reprs.get(id(copy))
        if key is None:
            key = reprs[id(copy)] = repr(copy)
        keyed[key] = copy
        counts[key] = counts.get(key, 0) + 1
    best_key = max(counts, key=counts.__getitem__)
    if counts[best_key] * 2 > len(copies):
        return keyed[best_key]
    return DEFAULT_VALUE
