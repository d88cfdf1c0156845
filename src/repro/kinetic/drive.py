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
import enum
import secrets
from dataclasses import dataclass

from repro.crypto.certs import Certificate, CertificateAuthority, KeyPair
from repro.errors import DriveOffline
from repro.kinetic.protocol import Message, MessageType, Op, StatusCode


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
        result = cls.READ
        for role in cls:
            result |= role
        return result


@dataclass
class Acl:
    """One identity's credentials and permissions on a drive."""

    identity: str
    hmac_key: bytes
    roles: Role

    @classmethod
    def admin(cls, identity: str, hmac_key: bytes | None = None) -> "Acl":
        return cls(
            identity=identity,
            hmac_key=hmac_key or secrets.token_bytes(32),
            roles=Role.all(),
        )


_REQUIRED_ROLE = {
    MessageType.GET: Role.READ,
    MessageType.GETVERSION: Role.READ,
    MessageType.GETNEXT: Role.RANGE,
    MessageType.GETPREVIOUS: Role.RANGE,
    MessageType.GETKEYRANGE: Role.RANGE,
    MessageType.PUT: Role.WRITE,
    MessageType.DELETE: Role.DELETE,
    MessageType.PEER2PEERPUSH: Role.P2P,
    MessageType.GETLOG: Role.GETLOG,
    MessageType.SECURITY: Role.SECURITY,
    MessageType.SETUP: Role.SETUP,
    MessageType.FLUSHALLDATA: Role.WRITE,
    MessageType.NOOP: Role.READ,
    MessageType.COMMIT: Role.WRITE | Role.DELETE,
}


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

    DEMO_IDENTITY = "demo"
    DEMO_KEY = b"asdfasdf"  # the actual Kinetic factory default secret

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
                identity=self.DEMO_IDENTITY,
                hmac_key=self.DEMO_KEY,
                roles=Role.all(),
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

    def handle(self, request: Message) -> Message:
        """Authenticate, authorize, and execute one command."""
        if not self._online:
            raise DriveOffline(f"drive {self.drive_id} is offline")

        acl = self._accounts.get(request.identity)
        if acl is None or not request.verify(acl.hmac_key):
            self.stats.auth_failures += 1
            response = request.make_response(
                StatusCode.HMAC_FAILURE, status_message="authentication failed"
            )
            # Unauthenticated responses are signed with the demo key if
            # present, else left unsigned — the client will notice.
            return response

        required = _REQUIRED_ROLE.get(request.message_type)
        if required is None:
            return self._signed(
                request.make_response(
                    StatusCode.INVALID_REQUEST,
                    status_message=f"unsupported type {request.message_type}",
                ),
                acl,
            )
        if acl.roles & required != required:
            return self._signed(
                request.make_response(
                    StatusCode.NOT_AUTHORIZED,
                    status_message=f"missing role {required}",
                ),
                acl,
            )

        handler = getattr(self, f"_op_{request.message_type.name.lower()}")
        return self._signed(handler(request), acl)

    def _signed(self, response: Message, acl: Acl) -> Message:
        return response.sign(acl.hmac_key)

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
        key = request.body["key"]
        index = bisect.bisect_right(self._sorted_keys, key)
        if index >= len(self._sorted_keys):
            return request.make_response(StatusCode.NOT_FOUND)
        next_key = self._sorted_keys[index]
        entry = self._entries[next_key]
        return request.make_response(
            StatusCode.SUCCESS,
            body={
                "key": next_key,
                "value": entry.value,
                "db_version": entry.version,
            },
        )

    def _op_getprevious(self, request: Message) -> Message:
        key = request.body["key"]
        index = bisect.bisect_left(self._sorted_keys, key)
        if index == 0:
            return request.make_response(StatusCode.NOT_FOUND)
        prev_key = self._sorted_keys[index - 1]
        entry = self._entries[prev_key]
        return request.make_response(
            StatusCode.SUCCESS,
            body={
                "key": prev_key,
                "value": entry.value,
                "db_version": entry.version,
            },
        )

    def _op_getkeyrange(self, request: Message) -> Message:
        start = request.body.get("start_key", b"")
        end = request.body.get("end_key", b"\xff" * 32)
        start_inclusive = bool(request.body.get("start_inclusive", True))
        end_inclusive = bool(request.body.get("end_inclusive", True))
        max_returned = int(request.body.get("max_returned", 200))
        reverse = bool(request.body.get("reverse", False))

        if start_inclusive:
            lo = bisect.bisect_left(self._sorted_keys, start)
        else:
            lo = bisect.bisect_right(self._sorted_keys, start)
        if end_inclusive:
            hi = bisect.bisect_right(self._sorted_keys, end)
        else:
            hi = bisect.bisect_left(self._sorted_keys, end)
        keys = self._sorted_keys[lo:hi]
        if reverse:
            keys = keys[::-1]
        keys = keys[:max_returned]
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
        try:
            ops = [Op(*item) for item in body["ops"]]
        except (KeyError, TypeError):
            return None
        optional_bytes = (bytes, type(None))
        well_formed = all(
            isinstance(op.key, bytes)
            and isinstance(op.value, optional_bytes)
            and isinstance(op.db_version, bytes)
            and isinstance(op.new_version, optional_bytes)
            for op in ops
        )
        return ops if well_formed else None

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
        if not accounts:
            return request.make_response(
                StatusCode.INVALID_REQUEST,
                status_message="refusing to remove every account",
            )
        new_table = {}
        for item in accounts:
            identity, hmac_key, roles_value = item
            new_table[identity] = Acl(
                identity=identity,
                hmac_key=hmac_key,
                roles=Role(roles_value),
            )
        self._accounts = new_table
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
        delta = len(value) - (len(entry.value) if entry else 0)
        if entry is None:
            bisect.insort(self._sorted_keys, key)
        self._entries[key] = _Entry(value=value, version=version)
        self._used_bytes += delta

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
