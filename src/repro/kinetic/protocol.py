"""The Kinetic wire protocol (protobuf stand-in).

Real Kinetic drives speak Google Protocol Buffers over TCP with a
9-byte frame header.  We reproduce the same structure with a fixed
binary header in front of our own tag/length/value encoding
(:func:`encode_fields` / :func:`decode_fields`): a :class:`Message`
carries a command header (type, status, sequence, identity), a body of
operation parameters, and an HMAC-SHA256 over the encoded command keyed
by the identity's secret — which is exactly how Kinetic authenticates
requests.

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
drive authenticates once and applies every op or none.

The TLV encoding is also the at-rest format of compiled policies
(whose SHA-256 is the policy id) and the five-field container of a
``StoredMeta`` record, whose version rows travel packed in one bytes
field (docs/resilience.md, "At-rest formats"); the bytes of both are
pinned by golden vectors in ``tests/kinetic/test_codec.py``.
"""

from __future__ import annotations

import enum
import hmac as hmac_mod
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

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


_RESPONSE_OF = {
    MessageType.GET: MessageType.GET_RESPONSE,
    MessageType.PUT: MessageType.PUT_RESPONSE,
    MessageType.DELETE: MessageType.DELETE_RESPONSE,
    MessageType.GETNEXT: MessageType.GETNEXT_RESPONSE,
    MessageType.GETPREVIOUS: MessageType.GETPREVIOUS_RESPONSE,
    MessageType.GETKEYRANGE: MessageType.GETKEYRANGE_RESPONSE,
    MessageType.GETVERSION: MessageType.GETVERSION_RESPONSE,
    MessageType.SECURITY: MessageType.SECURITY_RESPONSE,
    MessageType.SETUP: MessageType.SETUP_RESPONSE,
    MessageType.PEER2PEERPUSH: MessageType.PEER2PEERPUSH_RESPONSE,
    MessageType.NOOP: MessageType.NOOP_RESPONSE,
    MessageType.GETLOG: MessageType.GETLOG_RESPONSE,
    MessageType.FLUSHALLDATA: MessageType.FLUSHALLDATA_RESPONSE,
    MessageType.COMMIT: MessageType.COMMIT_RESPONSE,
}


def response_type(request_type: MessageType) -> MessageType:
    """The response MessageType paired with a request type."""
    try:
        return _RESPONSE_OF[request_type]
    except KeyError:
        raise KineticError(f"{request_type!r} is not a request type") from None


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

_TYPE_INT = 0
_TYPE_BYTES = 1
_TYPE_STR = 2
_TYPE_LIST = 3
_TYPE_NONE = 4
#: Type byte + one-byte length of a byte string shorter than 128.
_SHORT_BYTES = [bytes((_TYPE_BYTES, n)) for n in range(0x80)]


def _append_varint(out: bytearray, value: int) -> None:
    if value < 0x80:
        out.append(value)
    else:
        out += encode_varint(value)


def _append_value(out: bytearray, value) -> None:
    if isinstance(value, bytes):
        out.append(_TYPE_BYTES)
        _append_varint(out, len(value))
        out += value
    elif isinstance(value, str):
        raw = value.encode()
        out.append(_TYPE_STR)
        _append_varint(out, len(raw))
        out += raw
    elif value is None:
        out.append(_TYPE_NONE)
    elif isinstance(value, int):
        # Includes bools, which encode as 0/1.
        if value < 0:
            raise KineticError(f"cannot encode negative int {value}")
        out.append(_TYPE_INT)
        _append_varint(out, value)
    elif isinstance(value, (list, tuple)):
        out.append(_TYPE_LIST)
        _append_varint(out, len(value))
        for item in value:
            # A key list (GETKEYRANGE): short byte strings, in line.
            if type(item) is bytes and len(item) < 0x80:
                out += _SHORT_BYTES[len(item)]
                out += item
            else:
                _append_value(out, item)
    else:
        raise KineticError(f"cannot encode field of type {type(value).__name__}")


def _canonical_varint(data: bytes, pos: int) -> tuple[int, int]:
    """One canonical varint at ``pos``; returns ``(value, next_pos)``."""
    if pos < len(data) and data[pos] < 0x80:
        return data[pos], pos + 1
    value, end = decode_varint(data, pos)
    if not data[end - 1]:
        raise KineticError("non-minimal varint")
    return value, end


def _read_length(data: bytes, pos: int, what: str) -> tuple[int, int]:
    """A length varint, validated against the bytes that remain.

    Length fields are attacker-controlled varints up to 2^64; checking
    them against the remaining payload prevents huge-allocation and
    index-overflow attacks (found by fuzzing).
    """
    length, pos = _canonical_varint(data, pos)
    if length > len(data) - pos:
        raise KineticError(
            f"{what} {length} exceeds remaining payload {len(data) - pos}"
        )
    return length, pos


def _read_value(data: bytes, pos: int):
    if pos >= len(data):
        raise KineticError("truncated field value")
    kind = data[pos]
    if kind == _TYPE_NONE:
        return None, pos + 1
    if kind == _TYPE_INT:
        return _canonical_varint(data, pos + 1)
    if kind > _TYPE_NONE:
        raise KineticError(f"unknown field type {kind}")
    # A list's count is a length too: each element needs >= 1 byte.
    length, pos = _read_length(data, pos + 1, "field length")
    if kind == _TYPE_BYTES:
        return data[pos:pos + length], pos + length
    if kind == _TYPE_STR:
        try:
            return data[pos:pos + length].decode(), pos + length
        except UnicodeDecodeError as exc:
            raise KineticError(f"invalid string field: {exc}") from exc
    items = []
    end = len(data)
    for _ in range(length):
        # A short byte string that fits, in line; anything else, and
        # every refusal, is the general path's.
        stop = pos + 2 + data[pos + 1] if pos + 1 < end else end + 1
        if stop <= end and data[pos] == _TYPE_BYTES and data[pos + 1] < 0x80:
            item, pos = data[pos + 2:stop], stop
        else:
            item, pos = _read_value(data, pos)
        items.append(item)
    return items, pos


def encode_fields(fields: dict) -> bytes:
    """Encode a flat dict of fields deterministically (sorted keys)."""
    out = bytearray()
    _append_varint(out, len(fields))
    for key in sorted(fields):
        raw_key = key.encode()
        _append_varint(out, len(raw_key))
        out += raw_key
        _append_value(out, fields[key])
    return bytes(out)


def decode_fields(data: bytes) -> dict:
    """Inverse of :func:`encode_fields`; accepts only its exact output.

    Keys must be strictly ascending (so no duplicates), varints minimal
    and nothing may follow the declared fields: two distinct byte
    strings never decode to the same dict, which is what lets the HMAC
    and ``policy_hash`` be taken over the bytes as received.
    """
    count, pos = _read_length(data, 0, "field count")
    fields = {}
    previous = None
    for _ in range(count):
        key_len, pos = _read_length(data, pos, "field key length")
        try:
            key = data[pos:pos + key_len].decode()
        except UnicodeDecodeError as exc:
            raise KineticError(f"invalid field key: {exc}") from exc
        if previous is not None and key <= previous:
            raise KineticError(f"field key {key!r} out of order")
        previous = key
        fields[key], pos = _read_value(data, pos + key_len)
    if pos != len(data):
        raise KineticError(f"{len(data) - pos} bytes after the last field")
    return fields


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------

_MAGIC = ord("K")
_VERSION = 1
#: After magic and version: type, status, sequence, then the lengths
#: of the identity, the status message and the TLV body.
_HEADER = struct.Struct(">BBQHHI")
_PREFIX = bytes((_MAGIC, _VERSION))
_HEADER_END = len(_PREFIX) + _HEADER.size


@dataclass
class Message:
    """One Kinetic command: header + body, HMAC-authenticated."""

    message_type: MessageType
    identity: str
    sequence: int
    body: dict = field(default_factory=dict)
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
        body = encode_fields(self.body)
        try:
            header = _HEADER.pack(
                self.message_type, self.status, self.sequence,
                len(identity), len(status_message), len(body),
            )
        except struct.error as exc:
            raise KineticError(f"command does not fit the header: {exc}") from exc
        return b"".join((_PREFIX, header, identity, status_message, body))

    def sign(self, key: bytes) -> "Message":
        """Attach an HMAC-SHA256 computed with ``key``.

        The command is encoded once, here; :meth:`encode` frames those
        same bytes.
        """
        self._signed = self.command_bytes()
        self._received = None
        self.hmac = hmac_mod.digest(key, self._signed, "sha256")
        return self

    def verify(self, key: bytes) -> bool:
        """Check the attached HMAC against ``key``.

        A decoded message is authenticated over the command bytes that
        were received, not over a re-encoding of what they parsed to.
        A message built locally is re-encoded, so fields changed after
        :meth:`sign` no longer verify.
        """
        command = (
            self._received if self._received is not None
            else self.command_bytes()
        )
        expected = hmac_mod.digest(key, command, "sha256")
        return hmac_mod.compare_digest(expected, self.hmac)

    def encode(self) -> bytes:
        """Serialize to a framed wire blob."""
        command = (
            self._signed if self._signed is not None else self.command_bytes()
        )
        if len(self.hmac) > 0xFF:
            raise KineticError(f"hmac of {len(self.hmac)} bytes does not fit")
        return b"".join((command, bytes((len(self.hmac),)), self.hmac))

    @classmethod
    def decode(cls, data: bytes) -> "Message":
        """Parse a framed wire blob, accepting only canonical frames."""
        if len(data) < len(_PREFIX) or data[0] != _MAGIC:
            raise KineticError("bad frame magic")
        if data[1] != _VERSION:
            raise KineticError(f"unsupported frame version {data[1]}")
        if len(data) < _HEADER_END:
            raise KineticError("truncated frame header")
        (
            message_type, status, sequence,
            identity_len, status_message_len, body_len,
        ) = _HEADER.unpack_from(data, len(_PREFIX))
        identity_end = _HEADER_END + identity_len
        body_start = identity_end + status_message_len
        command_end = body_start + body_len
        # The header lengths plus the HMAC must account for every byte.
        if command_end >= len(data):
            raise KineticError("header lengths exceed the frame")
        if command_end + 1 + data[command_end] != len(data):
            raise KineticError("frame length does not match its header")
        try:
            return cls(
                message_type=MessageType(message_type),
                identity=data[_HEADER_END:identity_end].decode(),
                sequence=sequence,
                status=StatusCode(status),
                status_message=data[identity_end:body_start].decode(),
                body=decode_fields(data[body_start:command_end]),
                hmac=data[command_end + 1:],
                _received=data[:command_end],
            )
        except ValueError as exc:  # unknown enum value, invalid UTF-8
            raise KineticError(f"malformed command: {exc}") from exc

    def make_response(
        self,
        status: StatusCode,
        body: dict | None = None,
        status_message: str = "",
    ) -> "Message":
        """Build the (unsigned) response paired with this request."""
        return Message(
            message_type=response_type(self.message_type),
            identity=self.identity,
            sequence=self.sequence,
            body=body or {},
            status=status,
            status_message=status_message,
        )

    @property
    def ok(self) -> bool:
        return self.status == StatusCode.SUCCESS
