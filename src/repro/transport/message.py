"""Typed messages with explicit bit-size accounting.

Every transmission in the simulator carries an explicit ``bit_size`` so that
the :class:`repro.transport.accounting.TimeAccountant` can convert link usage
into elapsed time exactly as the paper's capacity model prescribes.  The
payload itself is opaque to the transport layer; protocols put whatever
structured data they need in it (symbols, flags, transcript claims, ...).

Messages are slotted (no per-instance ``__dict__``): the relay builds one per
hop, hundreds of thousands per session batch.  The public constructor
validates its arguments; :meth:`Message._trusted` is the transport's
check-free constructor for arguments ``send`` has already validated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Any

from repro.exceptions import ProtocolError
from repro.types import NodeId

_SEQUENCE = count()


@dataclass(frozen=True, slots=True)
class Message:
    """One unit of communication over a directed link.

    Attributes:
        sender: Node that transmits the message.
        receiver: Node that receives the message.
        phase: Name of the protocol phase the transmission belongs to; used to
            attribute link usage to phases for time accounting.
        kind: Free-form message type tag (e.g. ``"phase1_symbol"``,
            ``"equality_coded"``, ``"eig_relay"``).
        payload: Protocol-defined content.
        bit_size: Number of bits this message occupies on the link.  Must be
            positive; the transport charges exactly this amount to the link.
        sequence: Monotonically increasing identifier, assigned automatically,
            used only to keep delivery order deterministic.
    """

    sender: NodeId
    receiver: NodeId
    phase: str
    kind: str
    payload: Any
    bit_size: int
    sequence: int = field(default_factory=lambda: next(_SEQUENCE))

    def __post_init__(self) -> None:
        if not isinstance(self.bit_size, int) or isinstance(self.bit_size, bool):
            raise ProtocolError(f"bit_size must be an int, got {type(self.bit_size).__name__}")
        if self.bit_size <= 0:
            raise ProtocolError(f"bit_size must be positive, got {self.bit_size}")
        if self.sender == self.receiver:
            raise ProtocolError("a node does not send messages to itself over the network")

    @classmethod
    def _trusted(
        cls,
        sender: NodeId,
        receiver: NodeId,
        phase: str,
        kind: str,
        payload: Any,
        bit_size: int,
    ) -> "Message":
        """Build a message from already-validated arguments, skipping the checks.

        Internal to the transport: ``send`` validates the link, the bit count
        and the endpoints once, then builds the message here.  External data
        must go through the public constructor.
        """
        message = _new_message(cls)
        _set_sender(message, sender)
        _set_receiver(message, receiver)
        _set_phase(message, phase)
        _set_kind(message, kind)
        _set_payload(message, payload)
        _set_bit_size(message, bit_size)
        _set_sequence(message, next(_SEQUENCE))
        return message

    def replace_payload(self, payload: Any, bit_size: int | None = None) -> "Message":
        """Return a copy with a different payload (used by Byzantine interception)."""
        return Message(
            sender=self.sender,
            receiver=self.receiver,
            phase=self.phase,
            kind=self.kind,
            payload=payload,
            bit_size=self.bit_size if bit_size is None else bit_size,
        )


# The slot descriptors' setters write straight into the instance layout,
# bypassing the frozen ``__setattr__`` the way the dataclass ``__init__`` does.
_new_message = object.__new__
_set_sender = Message.sender.__set__
_set_receiver = Message.receiver.__set__
_set_phase = Message.phase.__set__
_set_kind = Message.kind.__set__
_set_payload = Message.payload.__set__
_set_bit_size = Message.bit_size.__set__
_set_sequence = Message.sequence.__set__
