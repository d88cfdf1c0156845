"""A Kinetic drive: ordered keyspace, ACL security, device management.

The drive is the second trusted component of Pesos (after the enclave).
It authenticates every request with the per-identity HMAC key, enforces
role-based ACLs, supports compare-and-swap style *versioned* puts and
deletes, ordered range scans, peer-to-peer push to other drives, and a
SECURITY operation that atomically replaces the account table — the
primitive Pesos uses at bootstrap to lock out every other user,
including the cloud provider.

A multi-record write is one ``COMMIT`` frame of
:class:`~repro.kinetic.protocol.Op`, authenticated and authorised
once.  The drive *validates* every op in order against the state the
ops before it would leave (``db_version`` unless forced, then capacity
for the whole frame) and only then *applies* them all; a refusal
leaves the keyspace untouched.  A forced DELETE of an absent key is a
no-op, not a refusal, so a record can be retired blind.
"""

from __future__ import annotations

import bisect
import secrets
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

from repro.crypto.aead import HmacSha256
from repro.crypto.certs import Certificate, CertificateAuthority, KeyPair
from repro.errors import DriveOffline
from repro.kinetic.protocol import (
    DEMO_IDENTITY, DEMO_KEY, Message, MessageType, Op, Role, StatusCode,
)


@dataclass
class Acl:
    """An identity's keyed MAC (built once, with the account) and roles,
    as the int mask of their :class:`Role` bits."""

    identity: str
    mac: HmacSha256
    roles: int


#: The type each request body field must have: a body that gives one
#: another type, or lacks one its op requires, is refused before it runs.
_FIELD_TYPES = dict(
    key=bytes, value=bytes, db_version=bytes, new_version=bytes,
    start_key=bytes, end_key=bytes, peer=str, force=int, start_inclusive=int,
    end_inclusive=int, reverse=int, max_returned=int, erase=int,
    cluster_version=int, keys=(list, tuple), accounts=(list, tuple),
    ops=(list, tuple),
)


def _typed(body: dict) -> bool:
    """Whether every field of ``body`` has its :data:`_FIELD_TYPES` type."""
    for name, value in body.items():
        if not isinstance(value, _FIELD_TYPES.get(name, object)):
            return False
    return True


class _Op(NamedTuple):
    role: int  # the Role bits the identity must hold
    fields: set  # the body fields it must send
    run: Callable[["KineticDrive", Message], Message]


@dataclass
class _Entry:
    value: bytes
    version: bytes


@dataclass
class DriveStats:
    """Operation counters surfaced through GETLOG."""

    puts: int = 0
    gets: int = 0
    deletes: int = 0
    range_scans: int = 0
    auth_failures: int = 0
    version_failures: int = 0
    bytes_written: int = 0
    bytes_read: int = 0


class KineticDrive:
    """One Ethernet-attached Kinetic drive.

    The factory-default drive ships with a well-known ``demo`` identity
    (as real Kinetic drives do); deployments are expected to replace it
    via a SECURITY command.
    """

    DEMO_IDENTITY = DEMO_IDENTITY
    DEMO_KEY = DEMO_KEY

    def __init__(
        self,
        drive_id: str,
        capacity_bytes: int = 4 * 1024**4,
        identity_ca: CertificateAuthority | None = None,
    ):
        self.drive_id = drive_id
        self.capacity_bytes = capacity_bytes
        self.cluster_version = 0
        self._entries: dict[bytes, _Entry] = {}
        self._sorted_keys: list[bytes] = []
        self._accounts: dict[str, Acl] = {
            self.DEMO_IDENTITY: Acl(
                self.DEMO_IDENTITY, HmacSha256(self.DEMO_KEY), Role.all().value
            )
        }
        self._online = True
        self._used_bytes = 0
        self.stats = DriveStats()
        self._peers: dict[str, "KineticDrive"] = {}
        # Each drive carries a unique identity certificate so replacing
        # the physical drive (a rollback attack) is detectable (§2.4).
        self._identity: KeyPair | None = (
            identity_ca.issue_keypair(f"kinetic-{drive_id}", key_bits=512)
            if identity_ca
            else None
        )

    # -- admin / simulation controls --------------------------------------

    @property
    def online(self) -> bool:
        return self._online

    def fail(self) -> None:
        """Simulate a drive crash (power loss, controller fault)."""
        self._online = False

    def recover(self) -> None:
        self._online = True

    def register_peer(self, drive: "KineticDrive") -> None:
        """Make another drive reachable for PEER2PEERPUSH."""
        self._peers[drive.drive_id] = drive

    @property
    def certificate(self) -> Certificate | None:
        return self._identity.certificate if self._identity else None

    @property
    def key_count(self) -> int:
        return len(self._entries)

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    def identities(self) -> list[str]:
        return sorted(self._accounts)

    # -- request handling ---------------------------------------------------

    def handle_wire(self, wire: bytes) -> bytes:
        """Answer one request frame with one response frame: the drive
        decodes and encodes on its own side of the connection."""
        return self.handle(Message.decode(wire)).encode()

    def handle(self, request: Message) -> Message:
        """Authenticate, authorize, check the body, and execute one command."""
        if not self._online:
            raise DriveOffline(f"drive {self.drive_id} is offline")

        acl = self._accounts.get(request.identity)
        if acl is None or not request.verify(acl.mac):
            self.stats.auth_failures += 1
            # No key is known to be the sender's, so this goes unsigned;
            # the client reads the status before it verifies.
            return request.make_response(
                StatusCode.HMAC_FAILURE, status_message="authentication failed"
            )

        op = self._OPS.get(request.message_type)
        if op is None:
            status = StatusCode.INVALID_REQUEST
            refusal = f"unsupported type {request.message_type}"
        elif acl.roles & op.role != op.role:
            status = StatusCode.NOT_AUTHORIZED
            refusal = f"missing role {Role(op.role)}"
        elif not op.fields <= request.body.keys() or not _typed(request.body):
            status, refusal = StatusCode.INVALID_REQUEST, "malformed body"
        else:
            return op.run(self, request).sign(acl.mac)
        return request.make_response(status, status_message=refusal).sign(
            acl.mac
        )

    # -- data operations -----------------------------------------------------

    def _op_put(self, request: Message) -> Message:
        body = request.body
        refusal, plan = self._plan([Op(
            body["key"], body["value"], body.get("db_version") or b"",
            body.get("new_version") or None, bool(body.get("force")),
        )])
        if refusal:
            return request.make_response(*refusal)
        self._apply(plan)
        return request.make_response(
            StatusCode.SUCCESS, body={"new_version": plan[0][2]}
        )

    def _op_get(self, request: Message) -> Message:
        key = request.body["key"]
        entry = self._entries.get(key)
        self.stats.gets += 1
        if entry is None:
            return request.make_response(
                StatusCode.NOT_FOUND, status_message="no such key"
            )
        self.stats.bytes_read += len(entry.value)
        return request.make_response(
            StatusCode.SUCCESS,
            body={"key": key, "value": entry.value, "db_version": entry.version},
        )

    def _op_getversion(self, request: Message) -> Message:
        key = request.body["key"]
        entry = self._entries.get(key)
        if entry is None:
            return request.make_response(StatusCode.NOT_FOUND)
        return request.make_response(
            StatusCode.SUCCESS, body={"db_version": entry.version}
        )

    def _op_delete(self, request: Message) -> Message:
        body = request.body
        refusal, plan = self._plan([Op(
            body["key"], None, body.get("db_version") or b"",
            force=bool(body.get("force")),
        )])
        if not refusal and not plan:
            # On its own, even a forced DELETE reports the absent key.
            refusal = (StatusCode.NOT_FOUND,)
        if refusal:
            return request.make_response(*refusal)
        self._apply(plan)
        return request.make_response(StatusCode.SUCCESS)

    def _op_getnext(self, request: Message) -> Message:
        index = bisect.bisect_right(self._sorted_keys, request.body["key"])
        return self._neighbour(request, index)

    def _op_getprevious(self, request: Message) -> Message:
        index = bisect.bisect_left(self._sorted_keys, request.body["key"])
        return self._neighbour(request, index - 1)

    def _neighbour(self, request: Message, index: int) -> Message:
        if not 0 <= index < len(self._sorted_keys):
            return request.make_response(StatusCode.NOT_FOUND)
        key = self._sorted_keys[index]
        entry = self._entries[key]
        return request.make_response(
            StatusCode.SUCCESS,
            body={"key": key, "value": entry.value, "db_version": entry.version},
        )

    def _op_getkeyrange(self, request: Message) -> Message:
        body, keys = request.body, self._sorted_keys
        start = body.get("start_key", b"")
        end = body.get("end_key", b"\xff" * 32)
        left, right = bisect.bisect_left, bisect.bisect_right
        lo = (left if body.get("start_inclusive", True) else right)(keys, start)
        hi = (right if body.get("end_inclusive", True) else left)(keys, end)
        # Copy only the window returned, not the rest of the range.
        limit = body.get("max_returned", 200)
        if body.get("reverse"):
            keys = keys[max(lo, hi - limit):hi]
            keys.reverse()
        else:
            keys = keys[lo:min(hi, lo + limit)]
        self.stats.range_scans += 1
        return request.make_response(StatusCode.SUCCESS, body={"keys": keys})

    def _op_noop(self, request: Message) -> Message:
        return request.make_response(StatusCode.SUCCESS)

    def _op_flushalldata(self, request: Message) -> Message:
        # Our keyspace is always durable in-model; flush is a no-op ack.
        return request.make_response(StatusCode.SUCCESS)

    # -- validate, then apply: every PUT/DELETE, alone or in a frame -------

    @staticmethod
    def _parse_ops(body: dict) -> list[Op] | None:
        """The frame's ops, or None when the body is not a list of them."""
        optional_bytes = (bytes, type(None))
        ops = []
        for item in body["ops"]:
            try:
                op = Op(*item)
            except TypeError:
                return None
            if not (
                isinstance(op.key, bytes)
                and isinstance(op.value, optional_bytes)
                and isinstance(op.db_version, bytes)
                and isinstance(op.new_version, optional_bytes)
            ):
                return None
            ops.append(op)
        return ops

    def _op_commit(self, request: Message) -> Message:
        """Validate every op of the frame, then apply all or none."""
        ops = self._parse_ops(request.body)
        if ops is None:
            return request.make_response(
                StatusCode.INVALID_REQUEST, status_message="malformed ops"
            )
        refusal, plan = self._plan(ops)
        if refusal:
            return request.make_response(*refusal)
        self._apply(plan)
        return request.make_response(
            StatusCode.SUCCESS, body={"applied": len(plan)}
        )

    def _plan(self, ops: list[Op]) -> tuple[tuple | None, list]:
        """Validate ``ops`` in order; ``(refusal, writes to carry out)``.

        ``refusal`` is None or the ``make_response`` arguments that turn
        the request down.  ``staged`` is what the ops so far leave under
        each key they touch (None once deleted).
        """
        staged: dict[bytes, _Entry | None] = {}
        plan: list[tuple[bytes, bytes | None, bytes]] = []
        space_delta = 0
        for op in ops:
            entry = (
                staged[op.key] if op.key in staged
                else self._entries.get(op.key)
            )
            version, size = (
                (entry.version, len(entry.value)) if entry else (b"", 0)
            )
            if not op.force and version != op.db_version:
                self.stats.version_failures += 1
                return (
                    StatusCode.VERSION_MISMATCH,
                    {"current_version": version},
                    f"stale dbVersion for {op.key!r}",
                ), []
            if op.value is not None:
                new_version = op.new_version or secrets.token_bytes(8)
                staged[op.key] = _Entry(op.value, new_version)
                space_delta += len(op.value) - size
                plan.append((op.key, op.value, new_version))
            elif entry is not None:
                staged[op.key] = None
                space_delta -= size
                plan.append((op.key, None, b""))
            elif not op.force:
                return (
                    StatusCode.NOT_FOUND, None, f"no key {op.key!r}"
                ), []
            # else: a forced DELETE of an absent key, which is a no-op.
        if self._used_bytes + space_delta > self.capacity_bytes:
            return (StatusCode.NO_SPACE, None, "drive full"), []
        return None, plan

    def _apply(self, plan: list) -> None:
        """Carry out a validated plan, in order; nothing here can refuse."""
        for key, value, version in plan:
            if value is None:
                entry = self._entries.pop(key)
                index = bisect.bisect_left(self._sorted_keys, key)
                del self._sorted_keys[index]
                self._used_bytes -= len(entry.value)
                self.stats.deletes += 1
            else:
                self._entries_put_raw(key, value, version)
                self.stats.puts += 1
                self.stats.bytes_written += len(value)

    # -- management operations -----------------------------------------------

    def _op_security(self, request: Message) -> Message:
        """Atomically replace the account table (the bootstrap lock-out)."""
        accounts = request.body["accounts"]  # list of [identity, key, roles]
        if not all(
            isinstance(item, (list, tuple)) and len(item) == 3
            and isinstance(item[0], str) and isinstance(item[1], bytes)
            and isinstance(item[2], int) and 0 <= item[2] <= Role.all().value
            for item in accounts
        ):
            return request.make_response(
                StatusCode.INVALID_REQUEST, status_message="malformed accounts"
            )
        if not accounts:
            return request.make_response(
                StatusCode.INVALID_REQUEST,
                status_message="refusing to remove every account",
            )
        self._accounts = {
            identity: Acl(identity, HmacSha256(hmac_key), roles)
            for identity, hmac_key, roles in accounts
        }
        return request.make_response(StatusCode.SUCCESS)

    def _op_setup(self, request: Message) -> Message:
        if "cluster_version" in request.body:
            self.cluster_version = int(request.body["cluster_version"])
        if request.body.get("erase"):
            self._entries.clear()
            self._sorted_keys.clear()
            self._used_bytes = 0
        return request.make_response(StatusCode.SUCCESS)

    def _op_peer2peerpush(self, request: Message) -> Message:
        """Copy keys directly to a peer drive (no third-party relay)."""
        peer_id = request.body["peer"]
        keys = request.body["keys"]
        peer = self._peers.get(peer_id)
        if not all(isinstance(key, bytes) for key in keys):
            return request.make_response(
                StatusCode.INVALID_REQUEST, status_message="malformed keys"
            )
        if peer is None:
            return request.make_response(
                StatusCode.INVALID_REQUEST,
                status_message=f"unknown peer {peer_id!r}",
            )
        if not peer.online:
            return request.make_response(
                StatusCode.INTERNAL_ERROR,
                status_message=f"peer {peer_id!r} offline",
            )
        pushed = 0
        for key in keys:
            entry = self._entries.get(key)
            if entry is None:
                continue
            peer._entries_put_raw(key, entry.value, entry.version)
            pushed += 1
        return request.make_response(StatusCode.SUCCESS, body={"pushed": pushed})

    def _entries_put_raw(self, key: bytes, value: bytes, version: bytes) -> None:
        entry = self._entries.get(key)
        if entry is None:
            bisect.insort(self._sorted_keys, key)
        self._used_bytes += len(value) - (len(entry.value) if entry else 0)
        self._entries[key] = _Entry(value=value, version=version)

    def _op_getlog(self, request: Message) -> Message:
        return request.make_response(
            StatusCode.SUCCESS,
            body={
                "drive_id": self.drive_id,
                "capacity_bytes": self.capacity_bytes,
                "used_bytes": self._used_bytes,
                "key_count": len(self._entries),
                "puts": self.stats.puts,
                "gets": self.stats.gets,
                "deletes": self.stats.deletes,
                "auth_failures": self.stats.auth_failures,
            },
        )

    _OPS = {
        MessageType.GET: _Op(Role.READ.value, {"key"}, _op_get),
        MessageType.GETVERSION: _Op(Role.READ.value, {"key"}, _op_getversion),
        MessageType.GETNEXT: _Op(Role.RANGE.value, {"key"}, _op_getnext),
        MessageType.GETPREVIOUS: _Op(Role.RANGE.value, {"key"}, _op_getprevious),
        MessageType.GETKEYRANGE: _Op(Role.RANGE.value, set(), _op_getkeyrange),
        MessageType.PUT: _Op(Role.WRITE.value, {"key", "value"}, _op_put),
        MessageType.DELETE: _Op(Role.DELETE.value, {"key"}, _op_delete),
        MessageType.PEER2PEERPUSH: _Op(
            Role.P2P.value, {"peer", "keys"}, _op_peer2peerpush
        ),
        MessageType.GETLOG: _Op(Role.GETLOG.value, set(), _op_getlog),
        MessageType.SECURITY: _Op(Role.SECURITY.value, {"accounts"}, _op_security),
        MessageType.SETUP: _Op(Role.SETUP.value, set(), _op_setup),
        MessageType.FLUSHALLDATA: _Op(Role.WRITE.value, set(), _op_flushalldata),
        MessageType.NOOP: _Op(Role.READ.value, set(), _op_noop),
        MessageType.COMMIT: _Op((Role.WRITE | Role.DELETE).value, {"ops"}, _op_commit),
    }
