"""The per-hop fast paths against frozen oracles of the code they replaced.

Each relay hop builds a slotted :class:`Message` through ``Message._trusted``,
charges the accountant's live per-phase dict, and the receiver takes an
identity-keyed majority; each phase's elapsed time is an integer
cross-multiplied maximum.  None of that may change a result: the oracles
below are the repr-keyed majority, the per-link ``Fraction`` maximum and the
hop-by-hop relay walk exactly as they were before those fast paths, and
every property compares outputs, raised exception types, ledgers and
Byzantine hook calls.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classical.relay import DisjointPathRelay, majority_value
from repro.exceptions import GraphError, ProtocolError
from repro.graph.generators import complete_graph
from repro.graph.network_graph import NetworkGraph
from repro.sched.faults import fault_plan
from repro.transport.accounting import TimeAccountant
from repro.transport.faults import ByzantineStrategy, FaultModel
from repro.transport.message import Message
from repro.transport.network import SynchronousNetwork
from repro.transport.reliable import ReliableNetwork
from repro.transport.scheduled import ScheduledNetwork

# ------------------------------------------------------------------ oracles

_ORACLE_CANONICAL_REPR_TYPES = frozenset((bool, int, bytes, str, type(None)))


def oracle_majority_value(copies):
    """``majority_value`` as it was: one ``repr`` per copy."""
    if not copies:
        return None
    first = copies[0]
    first_type = type(first)
    if first_type in _ORACLE_CANONICAL_REPR_TYPES and all(
        type(copy) is first_type and copy == first for copy in copies[1:]
    ):
        return first
    keyed = {}
    counts = Counter()
    for copy in copies:
        key = repr(copy)
        keyed[key] = copy
        counts[key] += 1
    best_key, best_count = counts.most_common(1)[0]
    if best_count * 2 > len(copies):
        return keyed[best_key]
    return None


def oracle_phase_elapsed(graph, accountant, phase):
    """``max_e Fraction(bits_e, z_e)`` plus the fixed overhead, link by link."""
    if phase not in accountant.phase_names():
        return Fraction(0)
    slowest = Fraction(0)
    for (tail, head), bits in accountant.link_bits(phase).items():
        slowest = max(slowest, Fraction(bits, graph.capacity(tail, head)))
    return slowest + accountant.phase_fixed_overhead(phase)


def oracle_reliable_send(relay, sender, receiver, per_path_values, bit_size, phase, context):
    """The relay's hop-by-hop walk as it was, before its loop invariants were hoisted."""
    fault_model = relay.network.fault_model
    strategy = fault_model.strategy
    copies = []
    for path, injected in zip(relay.paths_between(sender, receiver), per_path_values):
        current_value = injected
        for hop_index in range(len(path) - 1):
            hop_sender = path[hop_index]
            hop_receiver = path[hop_index + 1]
            if hop_index > 0 and fault_model.is_faulty(hop_sender):
                current_value = strategy.relay_value(
                    relay.instance, hop_sender, path, receiver, current_value
                )
            relay.network.send(
                hop_sender,
                hop_receiver,
                current_value,
                bit_size,
                phase,
                kind=f"{context}:hop",
            )
        copies.append(current_value)
    return oracle_majority_value(copies)


# ---------------------------------------------------------------- majority

_SHARED = [
    1,
    True,
    1.0,
    0,
    False,
    None,
    "a",
    b"a",
    (1, 2),
    [1, 2],
    {"a": 1, "b": 2},
    {"b": 2, "a": 1},
    {"claims": [1, (2, 3)], "node": 4},
    float("nan"),
]


def _fresh(value):
    """An equal value in a new object where the type allows one."""
    if isinstance(value, list):
        return list(value)
    if isinstance(value, dict):
        return dict(value)
    if isinstance(value, tuple):
        return tuple(list(value))
    if type(value) is int:
        return int(str(value))
    if type(value) is float:
        return float(repr(value))
    return value


@st.composite
def copy_lists(draw):
    """Path copies: shared objects, equal fresh objects and mixed types."""
    pool = draw(st.lists(st.sampled_from(_SHARED), min_size=1, max_size=4))
    picks = draw(
        st.lists(
            st.tuples(st.integers(0, len(pool) - 1), st.booleans()),
            min_size=0,
            max_size=9,
        )
    )
    return [_fresh(pool[index]) if fresh else pool[index] for index, fresh in picks]


class TestMajorityAgainstOracle:
    @given(copies=copy_lists())
    @settings(max_examples=400, deadline=None)
    def test_same_object_as_the_repr_keyed_oracle(self, copies):
        assert majority_value(copies) is oracle_majority_value(copies)

    @pytest.mark.parametrize(
        "copies",
        [
            [],
            [1, True, 1.0],
            [1, 1, True],
            [True, 1, 1.0, 1.0],
            [[1, 2], (1, 2), [1, 2]],
            [(1, 2), (1, 2), [1, 2], [1, 2]],
            [{"a": 1, "b": 2}, {"b": 2, "a": 1}, {"a": 1, "b": 2}],
            ["x", "y"],
            ["x", "x", "y", "y"],
            [None, None, "x"],
        ],
    )
    def test_named_cases(self, copies):
        assert majority_value(copies) is oracle_majority_value(copies)

    def test_shared_object_is_returned_without_keying(self):
        class NoRepr:
            def __repr__(self):
                raise AssertionError("all copies are one object: no repr needed")

        value = NoRepr()
        assert majority_value([value] * 5) is value

    def test_repr_runs_once_per_distinct_object(self):
        calls = Counter()

        class Claims(dict):
            def __repr__(self):
                calls[id(self)] += 1
                return super().__repr__()

        honest, forged = Claims(a=1), Claims(a=2)
        copies = [honest, honest, forged, honest, honest]
        assert majority_value(copies) is honest
        assert sorted(calls.values()) == [1, 1]

    def test_last_copy_with_the_winning_key_is_returned(self):
        first, second, third = [1, 2], [1, 2], [3]
        assert majority_value([first, third, second]) is second

    def test_ties_have_no_majority(self):
        assert majority_value([{"a": 1}, {"a": 2}]) is None
        assert majority_value([[1], [1], [2], [2]]) is None


# -------------------------------------------------------------- accounting


@st.composite
def ledgers(draw):
    """A graph with mixed capacities and a random charge/overhead script."""
    node_count = draw(st.integers(2, 5))
    graph = NetworkGraph()
    edges = []
    for tail in range(node_count):
        for head in range(node_count):
            if tail != head and draw(st.booleans()):
                graph.add_edge(tail, head, draw(st.integers(1, 12)))
                edges.append((tail, head))
    graph.add_node(0)
    phases = ["p0", "p1", "p2"]
    script = []
    if edges:
        script = draw(
            st.lists(
                st.one_of(
                    st.tuples(
                        st.just("bits"),
                        st.sampled_from(phases),
                        st.sampled_from(edges),
                        st.integers(1, 10_000),
                    ),
                    st.tuples(
                        st.just("overhead"),
                        st.sampled_from(phases),
                        st.fractions(min_value=0, max_value=50, max_denominator=9),
                    ),
                ),
                max_size=40,
            )
        )
    return graph, script


class TestPhaseElapsedAgainstOracle:
    @given(ledger=ledgers())
    @settings(max_examples=200, deadline=None)
    def test_integer_maximum_matches_fraction_maximum(self, ledger):
        graph, script = ledger
        accountant = TimeAccountant(graph)
        for step in script:
            if step[0] == "bits":
                _, phase, (tail, head), bits = step
                accountant.record_transmission(phase, tail, head, bits)
            else:
                _, phase, overhead = step
                accountant.add_fixed_overhead(phase, overhead)
        for phase in accountant.phase_names() + ["never-used"]:
            elapsed = accountant.phase_elapsed(phase)
            assert type(elapsed) is Fraction
            assert elapsed == oracle_phase_elapsed(graph, accountant, phase)
        assert accountant.total_elapsed() == sum(
            (oracle_phase_elapsed(graph, accountant, phase)
             for phase in accountant.phase_names()),
            Fraction(0),
        )

    def test_slowest_link_is_bits_over_capacity(self):
        graph = NetworkGraph()
        graph.add_edge(1, 2, 3)
        graph.add_edge(2, 3, 7)
        accountant = TimeAccountant(graph)
        accountant.record_transmission("p", 1, 2, 10)  # 10/3
        accountant.record_transmission("p", 2, 3, 23)  # 23/7 < 10/3
        assert accountant.phase_elapsed("p") == Fraction(10, 3)


# -------------------------------------------------------------------- send


class Bits(int):
    """An ``int`` subclass: a legal bit count."""


#: Every transport ``send`` contract: the synchronous base, the event-clock
#: subclass and the ARQ subclass on a clean and on a lossy fault plan.
NETWORKS = {
    "synchronous": SynchronousNetwork,
    "scheduled": ScheduledNetwork,
    "reliable-clean": ReliableNetwork,
    "reliable-lossy": lambda graph: ReliableNetwork(
        graph, fault_plan=fault_plan("lossy-mix")
    ),
}
DELIVERING = ["synchronous", "scheduled", "reliable-clean"]


def _network(name):
    return NETWORKS[name](complete_graph(4, capacity=3))


class TestSendValidation:
    @pytest.mark.parametrize("name", NETWORKS)
    @pytest.mark.parametrize(
        "sender, receiver, bits, error",
        [
            (1, 9, 8, GraphError),  # missing link
            (2, 2, 8, GraphError),  # self-send: the graph has no self loops
            (1, 2, True, ProtocolError),
            (1, 2, False, ProtocolError),
            (1, 2, 0, ProtocolError),
            (1, 2, -1, ProtocolError),
            (1, 2, 2.0, ProtocolError),
            (1, 2, "8", ProtocolError),
            (1, 2, None, ProtocolError),
            (1, 9, True, GraphError),  # the link is checked first
        ],
    )
    def test_rejected_sends_raise_and_charge_nothing(
        self, name, sender, receiver, bits, error
    ):
        network = _network(name)
        with pytest.raises(error):
            network.send(sender, receiver, "payload", bits, "p")
        assert network.total_bits() == 0
        assert network.delivered_messages() == []
        assert network.accountant.phase_names() == []

    @pytest.mark.parametrize("name", NETWORKS)
    def test_int_subclass_bits_are_accepted(self, name):
        network = _network(name)
        message = network.send(1, 2, "payload", Bits(8), "p", kind="k")
        assert (message.sender, message.receiver, message.bit_size) == (1, 2, 8)
        assert network.accountant.link_bits("p")[(1, 2)] >= 8

    @pytest.mark.parametrize("name", DELIVERING)
    def test_sent_message_equals_the_public_constructor(self, name):
        network = _network(name)
        message = network.send(1, 2, {"a": 1}, 8, "p", kind="k")
        assert message == Message(1, 2, "p", "k", {"a": 1}, 8, message.sequence)
        assert network.delivered_messages() == [message]


class TestLedgerIsTheSingleSource:
    def test_interleaved_phases_and_direct_charges_share_one_dict(self):
        network = SynchronousNetwork(complete_graph(4, capacity=2))
        accountant = network.accountant
        network.send(1, 2, "x", 3, "p")
        network.send(1, 2, "x", 5, "q")
        accountant.record_transmission("p", 1, 2, 7)
        network.send(1, 2, "x", 11, "p")
        network.send(2, 3, "x", 13, "p")
        accountant.record_transmission("q", 1, 2, 17)
        network.send(1, 2, "x", 19, "q")
        assert accountant.link_bits("p") == {(1, 2): 21, (2, 3): 13}
        assert accountant.link_bits("q") == {(1, 2): 41}
        assert accountant.phase_names() == ["p", "q"]
        assert network.total_bits() == 21 + 13 + 41

    def test_arq_wire_copies_land_in_the_send_ledger(self):
        graph = complete_graph(4, capacity=2)
        network = ReliableNetwork(graph, fault_plan=fault_plan("lossy-mix"))
        for round_index in range(60):
            network.send(1 + round_index % 3, 4, "x", 8, "p")
        stats = network.reliability_stats()
        delivered = sum(m.bit_size for m in network.delivered_messages())
        assert stats["retransmit_bits"] > 0
        assert network.accountant.phase_bits("p") == delivered + stats["retransmit_bits"]


# ------------------------------------------------------------------- relay


class RecordingStrategy(ByzantineStrategy):
    """Logs every relay hook call and forges a fresh object on some hops."""

    name = "recording"

    def __init__(self):
        self.calls = []

    def relay_value(self, instance, node, path, receiver, true_value):
        self.calls.append((instance, node, tuple(path), id(path), receiver, repr(true_value)))
        if (node + receiver + len(self.calls)) % 3 == 0:
            return true_value
        if isinstance(true_value, dict):
            return dict(true_value, forged_by=node)
        return ("forged", node)


def _relay_run(send_with_oracle, per_path):
    strategy = RecordingStrategy()
    network = SynchronousNetwork(complete_graph(7), FaultModel([3, 5], strategy))
    relay = DisjointPathRelay(network, max_faults=2, instance=4)
    outputs = []
    for sender in range(1, 8):
        for receiver in range(1, 8):
            if sender == receiver:
                continue
            values = (
                [{"node": sender, "bit": index % 2} for index in range(5)]
                if per_path
                else [{"node": sender, "claims": [1, 2]}] * 5
            )
            if send_with_oracle:
                result = oracle_reliable_send(
                    relay, sender, receiver, values, 9, "phase3", "claims"
                )
            elif per_path:
                result = relay.reliable_send_from_faulty(
                    sender, receiver, values, 9, "phase3", "claims"
                )
            else:
                result = relay.reliable_send(
                    sender, receiver, values[0], 9, "phase3", "claims"
                )
            outputs.append(repr(result))
    messages = [
        (m.sender, m.receiver, m.phase, m.kind, repr(m.payload), m.bit_size)
        for m in network.delivered_messages()
    ]
    calls = [call[:3] + call[4:] for call in strategy.calls]
    return outputs, messages, calls, network.accountant.link_bits("phase3")


class TestRelayAgainstHopWalk:
    @pytest.mark.parametrize("per_path", [False, True], ids=["honest-sender", "per-path"])
    def test_same_hooks_sends_ledger_and_outputs(self, per_path):
        assert _relay_run(False, per_path) == _relay_run(True, per_path)

    def test_hooks_see_the_cached_path_object(self):
        strategy = RecordingStrategy()
        network = SynchronousNetwork(complete_graph(7), FaultModel([3, 5], strategy))
        relay = DisjointPathRelay(network, max_faults=2)
        relay.reliable_send(1, 2, "v", 8, "p")
        path_ids = {id(path) for path in relay.paths_between(1, 2)}
        assert strategy.calls
        assert {call[3] for call in strategy.calls} <= path_ids
