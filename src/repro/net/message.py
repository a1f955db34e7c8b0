"""Message model and wire-frame codec, shared by every transport."""

from __future__ import annotations

import enum
import json
import struct
from typing import Any, Dict, Optional

from repro.util.errors import ProtocolError
from repro.util.ids import NodeId, ObjectId


class MessageCategory(enum.Enum):
    """Traffic categories, used for accounting and the figure benches.

    The split mirrors the costs the paper discusses: lock management
    traffic to/from the GDO (§5.1), consistency data (page transfers,
    Figures 2-5), and the small metadata that rides along with lock
    grants (holder lists and page maps, §4.1).
    """

    LOCK_REQUEST = "lock_request"
    LOCK_GRANT = "lock_grant"
    LOCK_RELEASE = "lock_release"
    PAGE_REQUEST = "page_request"
    PAGE_DATA = "page_data"
    PAGE_MAP = "page_map"
    HOLDER_LIST = "holder_list"
    UPDATE_PUSH = "update_push"  # eager pushes (RC extension)
    GDO_MIGRATE = "gdo_migrate"  # directory-entry home handoff (migration)
    CONTROL = "control"

    @property
    def is_consistency_data(self) -> bool:
        """True for message kinds that carry object data between nodes."""
        return self in (MessageCategory.PAGE_DATA, MessageCategory.UPDATE_PUSH)


class Message:
    """One message on the simulated network.

    ``size_bytes`` is the on-wire size (payload plus protocol header, as
    computed by :class:`repro.net.SizeModel`).  ``object_id`` attributes
    the message to one shared object's consistency maintenance so the
    per-object series of Figures 2-8 can be reconstructed; pure control
    traffic leaves it ``None``.

    ``wire_id`` is assigned by the network the first time the message
    hits the wire; fault draws are keyed by it, so each message is one
    fault unit with one verdict stream across its attempts.
    ``attempts`` counts wire attempts (1 = no retransmission) and
    ``send_time`` is the *first* attempt's send instant, so
    ``deliver_time - send_time`` covers every retransmit turnaround.

    A plain slotted class rather than a dataclass: every protocol step
    builds a message, and a generated ``__init__`` validates through a
    second call (``__post_init__``).  Equality compares the identity
    fields (endpoints, category, size, object, payload), not the wire
    bookkeeping.
    """

    __slots__ = ("src", "dst", "category", "size_bytes", "object_id",
                 "payload", "wire_id", "attempts", "send_time",
                 "deliver_time")

    def __init__(self, src: NodeId, dst: NodeId, category: MessageCategory,
                 size_bytes: int, object_id: Optional[ObjectId] = None,
                 payload: Any = None):
        if size_bytes < 0:
            raise ValueError(f"negative message size {size_bytes}")
        self.src = src
        self.dst = dst
        self.category = category
        self.size_bytes = size_bytes
        self.object_id = object_id
        self.payload = payload
        self.wire_id: Optional[int] = None
        self.attempts = 0
        self.send_time = 0.0
        self.deliver_time = 0.0

    def _identity(self) -> tuple:
        return (self.src, self.dst, self.category, self.size_bytes,
                self.object_id, self.payload)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._identity() == other._identity()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"Message({fields})"

    @property
    def is_local(self) -> bool:
        """True when source and destination are the same node.

        Local "messages" model procedure calls into locally cached GDO
        state; they cost nothing on the network and are excluded from
        all network accounting.
        """
        return self.src == self.dst


# ---------------------------------------------------------------------------
# Wire-frame codec (the TCP transport's on-socket format)
# ---------------------------------------------------------------------------
#
# A frame is a 4-byte big-endian length prefix followed by one JSON
# object with sorted keys.  Message frames (``"t": "msg"``) carry the
# full protocol-visible identity of a :class:`Message` — category,
# endpoints, size, object attribution, wire id — plus a
# ``pad`` filler sized so the frame occupies ``size_bytes`` bytes on
# the socket whenever the metadata fits: the cost model's on-wire size
# becomes the *actual* on-wire size.  Control frames (``"t": "hello"``
# etc.) reuse the same envelope for transport bring-up traffic and are
# never accounted.

#: Bytes of the big-endian unsigned length prefix before every frame.
FRAME_PREFIX_BYTES = 4
_FRAME_PREFIX = struct.Struct(">I")

#: Version stamped into every message frame (stamped, not checked).
FRAME_SCHEMA = 1

#: Hard ceiling on one frame's body, far above any modeled message.
MAX_FRAME_BYTES = 64 * 1024 * 1024


def pack_frame(payload: Dict[str, Any]) -> bytes:
    """Serialize one envelope: length prefix + sorted-key JSON body."""
    body = json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame body of {len(body)} bytes exceeds "
                            f"the {MAX_FRAME_BYTES} byte frame limit")
    return _FRAME_PREFIX.pack(len(body)) + body


def unpack_frame(body: bytes) -> Dict[str, Any]:
    """Inverse of :func:`pack_frame` for one frame *body* (no prefix)."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 and bad JSON are both ValueErrors
        raise ProtocolError(
            f"undecodable frame body of {len(body)} bytes: {exc}"
        ) from None
    if not isinstance(payload, dict):
        raise ProtocolError(f"frame body is not an object: {payload!r}")
    return payload


def message_to_frame(message: Message, kind: str = "send") -> Dict[str, Any]:
    """The JSON-primitive identity of a message, as one frame payload.

    ``kind`` distinguishes the asynchronous ``send`` path (the receiver
    must fire a delivery event) from the fire-and-forget ``charge``
    path (accounting only).
    """
    frame: Dict[str, Any] = {
        "t": "msg",
        "v": FRAME_SCHEMA,
        "kind": kind,
        "src": message.src.value,
        "dst": message.dst.value,
        "category": message.category.value,
        "size": message.size_bytes,
        "wire": message.wire_id,
        "attempt": message.attempts,
    }
    if message.object_id is not None:
        frame["object"] = message.object_id.value
    return frame


def encode_frame(message: Message, kind: str = "send") -> bytes:
    """Encode a message as one padded wire frame (prefix included).

    The ``pad`` filler stretches the frame to the message's modeled
    ``size_bytes`` so the bytes crossing the socket match the cost
    model; frames whose metadata alone exceeds the modeled size are
    sent unpadded (the model's size still governs all accounting).
    """
    frame = message_to_frame(message, kind=kind)
    bare = pack_frame(frame)
    # `,"pad":""` costs 9 bytes of JSON before the filler itself.
    shortfall = message.size_bytes - len(bare) - 9
    if shortfall > 0:
        frame["pad"] = "." * shortfall
        return pack_frame(frame)
    return bare
