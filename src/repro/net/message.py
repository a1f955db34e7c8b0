"""Message model and wire-frame codec, shared by every transport."""

from __future__ import annotations

import enum
import struct
from typing import Any, Optional, Tuple

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
# A frame is a 4-byte big-endian length prefix and a binary body that
# starts with the marker byte ``M``: one fixed header (``_MESSAGE_FRAME``,
# 40 bytes counting the prefix — the default ``SizeModel.header_bytes``)
# carrying the protocol-visible identity of a :class:`Message` — kind,
# category code, endpoints, size, wire id, attempt, object (-1 for none)
# — then zero filler that nobody reads, so the frame is exactly
# ``size_bytes`` long on the socket: the cost model's on-wire size is
# the *actual* on-wire size.  A message modeled smaller than the header
# still ships the header.

#: Bytes of the big-endian unsigned length prefix before every frame.
FRAME_PREFIX_BYTES = 4
_FRAME_PREFIX = struct.Struct(">I")

#: Version of the message-frame header, checked on every read.
FRAME_SCHEMA = 2

#: Hard ceiling on one frame's body, far above any modeled message.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: First body byte of every frame.
MESSAGE_MARKER = ord("M")

#: Message-frame kinds: a ``send`` frame's arrival fires the pending
#: delivery; a ``charge`` frame was fully accounted at send time and
#: only crosses the socket.
KIND_SEND, KIND_CHARGE = 0, 1

#: Prefix plus message header: length, marker, schema, kind, category
#: code, src, dst, size, wire id, attempt, object.
_MESSAGE_FRAME = struct.Struct(">IBBBBIIIQIq")

#: Smallest message frame, prefix included.
MESSAGE_HEADER_BYTES = _MESSAGE_FRAME.size

#: A category's wire code is its position here.  Codes are looked up
#: by ``_value_``, a plain attribute: hashing the member itself runs
#: ``Enum.__hash__`` in Python on every frame.
_CATEGORY_VALUES = tuple(category.value for category in MessageCategory)
_CATEGORY_CODES = {value: code for code, value in enumerate(_CATEGORY_VALUES)}


def encode_frame(message: Message, kind: int = KIND_SEND) -> bytearray:
    """Encode a message as one wire frame, prefix included, exactly
    ``size_bytes`` long (or the bare header, if that is longer)."""
    length = max(message.size_bytes, MESSAGE_HEADER_BYTES)
    if length - FRAME_PREFIX_BYTES > MAX_FRAME_BYTES:
        raise ProtocolError(f"message of {message.size_bytes} bytes exceeds "
                            f"the {MAX_FRAME_BYTES} byte frame limit")
    frame = bytearray(length)  # zeroed: the filler
    object_id = message.object_id
    _MESSAGE_FRAME.pack_into(
        frame, 0, length - FRAME_PREFIX_BYTES, MESSAGE_MARKER,
        FRAME_SCHEMA, kind, _CATEGORY_CODES[message.category._value_],
        message.src.value, message.dst.value, message.size_bytes,
        message.wire_id, message.attempts,
        -1 if object_id is None else object_id.value)
    return frame


def decode_frame(data, start: int, end: int) -> Tuple[int, str, int, int,
                                                      int, int]:
    """Check the message frame at ``data[start:end]`` (prefix included)
    and return ``(kind, category value, src, dst, size, wire id)``.

    Reads the header in place — no slice, no copy — and never looks at
    the filler.  A body that does not open with the marker, a short
    header, a foreign schema, an unknown kind or category code, or a
    length that is not the header plus the filler ``size`` calls for
    raises :class:`ProtocolError`.
    """
    length = end - start
    if (length <= FRAME_PREFIX_BYTES
            or data[start + FRAME_PREFIX_BYTES] != MESSAGE_MARKER):
        raise ProtocolError("not a message frame: the body does not "
                            "start with the marker byte 'M'")
    if length < MESSAGE_HEADER_BYTES:
        raise ProtocolError(f"truncated message frame: {length} bytes, "
                            f"the header alone is {MESSAGE_HEADER_BYTES}")
    (_, _, schema, kind, code, src, dst, size, wire, _, _) = \
        _MESSAGE_FRAME.unpack_from(data, start)
    if schema != FRAME_SCHEMA:
        raise ProtocolError(f"message frame schema {schema}, "
                            f"expected {FRAME_SCHEMA}")
    if kind > KIND_CHARGE:
        raise ProtocolError(f"unknown message frame kind {kind}")
    if code >= len(_CATEGORY_VALUES):
        raise ProtocolError(f"unknown message category code {code}")
    if length != max(size, MESSAGE_HEADER_BYTES):
        raise ProtocolError(f"message frame of {length} bytes disagrees "
                            f"with its header's size of {size} bytes")
    return kind, _CATEGORY_VALUES[code], src, dst, size, wire
