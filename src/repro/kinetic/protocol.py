"""The Kinetic wire protocol (protobuf stand-in).

Real Kinetic drives speak Google Protocol Buffers over TCP with a
9-byte frame header.  We reproduce the same structure with a fixed
binary header in front of our own tag/length/value encoding
(:func:`encode_fields` / :func:`decode_fields`): a :class:`Message`
carries a command header (type, status, sequence, identity), a body of
operation parameters, and an HMAC-SHA256 over the encoded command keyed
by the identity's secret — which is exactly how Kinetic authenticates
requests.  The MAC is one :class:`~repro.crypto.aead.HmacSha256` per
identity, keyed once where the secret is held (RFC 2104 §4).

Frame layout (integers big-endian)::

    command | u8 len(hmac) | hmac

    command = magic 'K' | u8 version (1)
            | u8 type | u8 status | u64 sequence
            | u16 len(identity) | u16 len(status message) | u32 len(body)
            | identity (UTF-8) | status message (UTF-8) | body (TLV)

The command is encoded once, when the sender signs it, and the receiver
authenticates the command bytes exactly as they arrived.  Decoding is
canonical-only — the lengths must account for every byte of the frame,
an unknown version is an error (there is no fallback decoder), and the
TLV body must be byte-for-byte what :func:`encode_fields` would emit —
so no two frames decode to the same message.

A ``COMMIT`` request is the one multi-record write: its body is
``{"ops": [op, ...]}``, each :class:`Op` the list ``[key, value,
db_version, new_version, force]`` (``value`` None: a DELETE;
``new_version`` None: the drive picks one).  One signed frame, so the
drive authenticates once and applies every op or none.  A
``GETKEYRANGE`` request names ``start_inclusive``, ``end_inclusive``
and ``reverse`` only off their defaults (true, true, false), as
protobuf leaves out a default-valued field.

The TLV encoding is also the at-rest format of compiled policies
(whose SHA-256 is the policy id) and the five-field container of a
``StoredMeta`` record, whose version rows travel packed in one bytes
field (docs/resilience.md, "At-rest formats"); the bytes of both are
pinned by golden vectors in ``tests/kinetic/test_codec.py``.  Field-name
prefixes are encoded once; byte strings under 16 KiB (a one- or two-byte
length), None, bools and ints below 128 are written and read in line, a
list of under 128 items is read in line, and a list of more than four
byte strings of one length under 128 is read in bulk; every other value
and every refusal takes the one general path.  Ints are u64 both ways.
"""

from __future__ import annotations

import enum
import functools
import struct
from dataclasses import dataclass, field
from hmac import compare_digest
from typing import NamedTuple

from repro.crypto.aead import HmacSha256
from repro.errors import KineticError
from repro.util.varint import decode_varint, encode_varint


class MessageType(enum.IntEnum):
    """Command types, mirroring the Kinetic protocol's MessageType."""

    GET = 1
    GET_RESPONSE = 2
    PUT = 3
    PUT_RESPONSE = 4
    DELETE = 5
    DELETE_RESPONSE = 6
    GETNEXT = 7
    GETNEXT_RESPONSE = 8
    GETPREVIOUS = 9
    GETPREVIOUS_RESPONSE = 10
    GETKEYRANGE = 11
    GETKEYRANGE_RESPONSE = 12
    GETVERSION = 13
    GETVERSION_RESPONSE = 14
    SECURITY = 15
    SECURITY_RESPONSE = 16
    SETUP = 17
    SETUP_RESPONSE = 18
    PEER2PEERPUSH = 19
    PEER2PEERPUSH_RESPONSE = 20
    NOOP = 21
    NOOP_RESPONSE = 22
    GETLOG = 23
    GETLOG_RESPONSE = 24
    FLUSHALLDATA = 25
    FLUSHALLDATA_RESPONSE = 26
    COMMIT = 27
    COMMIT_RESPONSE = 28


class StatusCode(enum.IntEnum):
    """Response status codes."""

    SUCCESS = 0
    NOT_FOUND = 1
    VERSION_MISMATCH = 2
    NOT_AUTHORIZED = 3
    HMAC_FAILURE = 4
    INTERNAL_ERROR = 5
    NOT_ATTEMPTED = 6
    INVALID_REQUEST = 7
    NO_SPACE = 8


class Role(enum.Flag):
    """Permission roles attachable to a drive identity."""

    READ = enum.auto()
    WRITE = enum.auto()
    DELETE = enum.auto()
    RANGE = enum.auto()
    P2P = enum.auto()
    GETLOG = enum.auto()
    SECURITY = enum.auto()
    SETUP = enum.auto()

    @classmethod
    def all(cls) -> "Role":
        return ~cls(0)


#: The account every factory-default drive ships with (see KineticDrive).
DEMO_IDENTITY = "demo"
DEMO_KEY = b"asdfasdf"  # the actual Kinetic factory default secret


#: A request type's response type is the value after it.
_RESPONSE_OF = {t: MessageType(t + 1) for t in MessageType if t % 2}
#: Header byte -> enum member, so decoding a frame calls no enum.
_TYPE_OF = {int(t): t for t in MessageType}
_STATUS_OF = {int(s): s for s in StatusCode}


def response_type(request_type: MessageType) -> MessageType:
    """The response MessageType paired with a request type."""
    if request_type not in _RESPONSE_OF:
        raise KineticError(f"{request_type!r} is not a request type")
    return _RESPONSE_OF[request_type]


class Op(NamedTuple):
    """One PUT (``value`` bytes) or DELETE (``value`` None) of a COMMIT;
    encodes as a five-element TLV list."""

    key: bytes
    value: bytes | None
    db_version: bytes = b""
    new_version: bytes | None = None
    force: bool = False


# ---------------------------------------------------------------------------
# TLV field encoding
# ---------------------------------------------------------------------------

_TYPE_INT, _TYPE_BYTES, _TYPE_STR, _TYPE_LIST, _TYPE_NONE = range(5)
#: Heads written in line: a byte string's with a one-byte length and an
#: int's below 128 (bools too).
_SHORT_BYTES = [bytes((_TYPE_BYTES, n)) for n in range(0x80)]
_SMALL_INTS = [bytes((_TYPE_INT, n)) for n in range(0x80)]


@functools.lru_cache(maxsize=256)
def _name_prefix(name: str) -> bytes:
    """A field name's length varint and UTF-8, encoded once per name."""
    raw = name.encode()
    return encode_varint(len(raw)) + raw


def _append_values(out: bytearray, items, fields: dict | None = None) -> None:
    """Write list ``items``, or the ``fields`` named in ``items``."""
    for item in items:
        if fields is not None:
            out += _name_prefix(item)
            item = fields[item]
        kind = type(item)
        if kind is bytes and len(item) < 0x4000:
            size = len(item)
            out += _SHORT_BYTES[size] if size < 0x80 else bytes(
                (_TYPE_BYTES, size & 0x7F | 0x80, size >> 7)
            )
            out += item
        elif item is None:
            out.append(_TYPE_NONE)
        elif (kind is int or kind is bool) and 0 <= item < 0x80:
            out += _SMALL_INTS[item]
        else:
            _append_value(out, item)


def _append_value(out: bytearray, value) -> None:
    """The general path: any value the codec can write; refuses the rest."""
    if isinstance(value, (bytes, str)):
        is_bytes = isinstance(value, bytes)
        raw = value if is_bytes else value.encode()
        out.append(_TYPE_BYTES if is_bytes else _TYPE_STR)
        out += encode_varint(len(raw))
        out += raw
    elif value is None:
        out.append(_TYPE_NONE)
    elif isinstance(value, int):
        # Includes bools, which encode as 0/1.
        if value < 0 or value >> 64:
            raise KineticError(f"cannot encode int {value}: not a u64")
        out.append(_TYPE_INT)
        out += encode_varint(value)
    elif isinstance(value, (list, tuple)):
        out.append(_TYPE_LIST)
        out += encode_varint(len(value))
        _append_values(out, value)
    else:
        raise KineticError(f"cannot encode field of type {type(value).__name__}")


def _read_varint(data: bytes, pos: int, what: str = "") -> tuple[int, int]:
    """The canonical varint at ``pos``: ``(value, next_pos)``.  With
    ``what`` it is a length and must fit the bytes that remain, so no
    attacker-chosen length up to 2^64 allocates or indexes past them."""
    if pos < len(data) and data[pos] < 0x80:
        value, end = data[pos], pos + 1
    else:
        value, end = decode_varint(data, pos)
        if not data[end - 1]:
            raise KineticError("non-minimal varint")
    if what and value > len(data) - end:
        raise KineticError(f"{what} {value} exceeds remaining payload {len(data) - end}")
    return value, end


def _read_value(data: bytes, pos: int):
    """The general path: the value at ``pos``, ``(value, next_pos)``;
    every refusal of a value is made here or in :func:`_read_varint`."""
    if pos >= len(data):
        raise KineticError("truncated field value")
    kind = data[pos]
    if kind == _TYPE_NONE:
        return None, pos + 1
    if kind == _TYPE_INT:
        return _read_varint(data, pos + 1)
    if kind > _TYPE_NONE:
        raise KineticError(f"unknown field type {kind}")
    # A list's count is a length too: each element needs >= 1 byte.
    length, pos = _read_varint(data, pos + 1, "field length")
    if kind == _TYPE_LIST:
        return _read_values(data, pos, length)
    end = pos + length
    if kind == _TYPE_BYTES:
        return data[pos:end], end
    try:
        return data[pos:end].decode(), end
    except UnicodeDecodeError as exc:
        raise KineticError(f"invalid string field: {exc}") from exc


def _read_values(data: bytes, pos: int, count: int, fields: dict | None = None):
    """``count`` list items, or named ``fields``, from ``pos``:
    ``(items or fields, next_pos)``; the general path decides the rest."""
    items, end, previous = [], len(data), None
    if fields is None and count > 4 and pos + 1 < end and data[pos] == _TYPE_BYTES:
        # Byte strings of one length under 128 (a GETKEYRANGE reply): the
        # second head, then two stride comparisons check every head; one
        # fixed-stride unpack (a small format per length) copies them out.
        size = data[pos + 1]
        stride = size + 2
        stop = pos + stride * count
        if (size < 0x80 and stop <= end and data[pos + stride + 1] == size
                and data[pos + stride] == _TYPE_BYTES
                and data[pos:stop:stride] == bytes((_TYPE_BYTES,)) * count
                and data[pos + 1:stop:stride] == bytes((size,)) * count):
            return [key for key, in struct.iter_unpack("2x%ds" % size, data[pos:stop])], stop
    for _ in range(count):
        if fields is not None:
            size, start = (data[pos], pos + 1) if pos < end else (0x80, pos)
            if size > 0x7F or start + size > end:
                size, start = _read_varint(data, pos, "field key length")
            pos = start + size
            try:
                name = data[start:pos].decode()
            except UnicodeDecodeError as exc:
                raise KineticError(f"invalid field key: {exc}") from exc
            if previous is not None and name <= previous:
                raise KineticError(f"field key {name!r} out of order")
            previous = name
        kind = data[pos] if pos < end else -1
        if kind == _TYPE_BYTES and pos + 1 < end:
            size, start = data[pos + 1], pos + 2
            if size > 0x7F:  # a canonical two-byte length, else too long
                high = data[start] if start < end else 0
                size = size - 0x80 + (high << 7) if 0 < high < 0x80 else end
                start += 1
            if start + size > end:
                value, pos = _read_value(data, pos)
            else:
                value, pos = data[start:start + size], start + size
        elif kind == _TYPE_NONE:
            value, pos = None, pos + 1
        elif kind == _TYPE_INT and pos + 1 < end and data[pos + 1] < 0x80:
            value, pos = data[pos + 1], pos + 2
        elif kind == _TYPE_LIST and pos + 1 < end and data[pos + 1] <= min(0x7F, end - pos - 2):
            value, pos = _read_values(data, pos + 2, data[pos + 1])  # a COMMIT's ops
        else:
            value, pos = _read_value(data, pos)
        if fields is None:
            items.append(value)
        else:
            fields[name] = value
    return (items if fields is None else fields), pos


def encode_fields(fields: dict) -> bytes:
    """Encode a flat dict of fields deterministically (sorted keys)."""
    out = bytearray(encode_varint(len(fields)))
    _append_values(out, sorted(fields), fields)
    return bytes(out)


def decode_fields(data: bytes) -> dict:
    """Inverse of :func:`encode_fields`; accepts only its exact output.

    Keys must be strictly ascending (so no duplicates), varints minimal
    and nothing may follow the declared fields: two distinct byte
    strings never decode to the same dict, which is what lets the HMAC
    and ``policy_hash`` be taken over the bytes as received.
    """
    count, pos = _read_varint(data, 0, "field count")
    fields, pos = _read_values(data, pos, count, {})
    if pos != len(data):
        raise KineticError(f"{len(data) - pos} bytes after the last field")
    return fields


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------

_MAGIC = ord("K")
_VERSION = 1
#: Magic, version, type, status, sequence, then the lengths of the
#: identity, the status message and the TLV body.
_HEADER = struct.Struct(">BBBBQHHI")
_HEADER_END = _HEADER.size
#: The body of a command without fields, as :func:`encode_fields` writes it.
_EMPTY_BODY = bytes(1)


@dataclass(slots=True)
class Message:
    """One Kinetic command: header + body, HMAC-authenticated."""

    message_type: MessageType
    identity: str
    sequence: int
    #: The fields; or, for a command built to be sent, their encoding
    #: (:func:`encode_fields`), made once for every drive it goes to.
    body: dict | bytes = field(default_factory=dict)
    status: StatusCode = StatusCode.SUCCESS
    status_message: str = ""
    hmac: bytes = b""
    #: The command as :meth:`sign` encoded it, reused by :meth:`encode`.
    _signed: bytes | None = field(default=None, repr=False, compare=False)
    #: The command bytes :meth:`decode` parsed this message from; None
    #: for a message built locally.
    _received: bytes | None = field(default=None, repr=False, compare=False)

    def command_bytes(self) -> bytes:
        """The canonical encoding covered by the HMAC (always fresh)."""
        identity = self.identity.encode()
        status_message = self.status_message.encode()
        body = self.body
        if type(body) is not bytes:
            body = encode_fields(body) if body else _EMPTY_BODY
        try:
            header = _HEADER.pack(
                _MAGIC, _VERSION, self.message_type, self.status, self.sequence,
                len(identity), len(status_message), len(body),
            )
        except struct.error as exc:
            raise KineticError(f"command does not fit the header: {exc}") from exc
        return b"".join((header, identity, status_message, body))

    def sign(self, mac: HmacSha256) -> "Message":
        """Attach the HMAC-SHA256 of the command under ``mac``'s key.

        The command is encoded once, here; :meth:`encode` frames those
        same bytes.
        """
        self._signed = self.command_bytes()
        self._received = None
        self.hmac = mac.digest(self._signed)
        return self

    def verify(self, mac: HmacSha256) -> bool:
        """Check the attached HMAC under ``mac``'s key.

        A decoded message is authenticated over the command bytes that
        were received, not over a re-encoding of what they parsed to.
        A message built locally is re-encoded, so fields changed after
        :meth:`sign` no longer verify.
        """
        received = self._received
        command = self.command_bytes() if received is None else received
        return compare_digest(mac.digest(command), self.hmac)

    def encode(self) -> bytes:
        """Serialize to a framed wire blob."""
        signed = self._signed
        command = self.command_bytes() if signed is None else signed
        if len(self.hmac) > 0xFF:
            raise KineticError(f"hmac of {len(self.hmac)} bytes does not fit")
        return b"".join((command, bytes((len(self.hmac),)), self.hmac))

    @classmethod
    def decode(cls, data: bytes) -> "Message":
        """Parse a framed wire blob, accepting only canonical frames."""
        if len(data) < 2 or data[0] != _MAGIC:
            raise KineticError("bad frame magic")
        if data[1] != _VERSION:
            raise KineticError(f"unsupported frame version {data[1]}")
        if len(data) < _HEADER_END:
            raise KineticError("truncated frame header")
        (
            _magic, _version, type_byte, status_byte, sequence,
            identity_len, status_message_len, body_len,
        ) = _HEADER.unpack_from(data)
        identity_end = _HEADER_END + identity_len
        body_start = identity_end + status_message_len
        command_end = body_start + body_len
        # The header lengths plus the HMAC must account for every byte.
        if command_end >= len(data):
            raise KineticError("header lengths exceed the frame")
        if command_end + 1 + data[command_end] != len(data):
            raise KineticError("frame length does not match its header")
        message_type = _TYPE_OF.get(type_byte)
        status = _STATUS_OF.get(status_byte)
        if message_type is None or status is None:
            raise KineticError(f"malformed command: type {type_byte}, status {status_byte}")
        try:
            return cls(
                message_type, data[_HEADER_END:identity_end].decode(),
                sequence, decode_fields(data[body_start:command_end]),
                status, data[identity_end:body_start].decode(),
                data[command_end + 1:], None, data[:command_end],
            )
        except UnicodeDecodeError as exc:
            raise KineticError(f"malformed command: {exc}") from exc

    def make_response(
        self,
        status: StatusCode,
        body: dict | None = None,
        status_message: str = "",
    ) -> "Message":
        """Build the (unsigned) response paired with this request."""
        return Message(
            response_type(self.message_type), self.identity, self.sequence,
            body or {}, status, status_message,
        )

    @property
    def ok(self) -> bool:
        return self.status == StatusCode.SUCCESS
