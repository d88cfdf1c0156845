"""Kinetic client library (the Seagate C library stand-in).

The Pesos controller talks to drives exclusively through this client.
It keeps a per-connection sequence number, HMAC-signs every request,
verifies the HMAC on every response (mutual authentication), checks
the drive's identity certificate on connect (drive-replacement
detection, §2.4).  Calls are synchronous; overlapping drive I/O
across requests (the job of the paper's §4.3 rework of the C library's
pipe-based synchronization) is done above this class: the concurrent
engine installs :attr:`KineticClient.interceptor` and suspends the
calling green thread at every data-path operation.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from typing import Any

from repro.crypto.aead import HmacSha256
from repro.crypto.certs import TrustStore
from repro.errors import (
    CertificateError,
    IntegrityError,
    KineticAuthError,
    KineticError,
    KineticNotFound,
    KineticVersionMismatch,
)
from repro.kinetic.drive import KineticDrive, Role
from repro.kinetic.protocol import Message, MessageType, Op, StatusCode
from repro.kinetic.retry import RetryPolicy
from repro.telemetry import NULL_TELEMETRY


class KineticClient:
    """A mutually-authenticated connection to one Kinetic drive."""

    def __init__(
        self,
        drive: KineticDrive,
        identity: str,
        hmac_key: bytes,
        trust_store: TrustStore | None = None,
        now: float = 0.0,
        retry_policy: RetryPolicy | None = None,
        retry_seed: int = 0,
        sleeper: Callable[[float], None] | None = None,
        telemetry=None,
        interceptor: Callable[..., Any] | None = None,
    ):
        self.drive = drive
        self.identity = identity
        self._mac_key = HmacSha256(hmac_key)  # keyed once, per identity
        self._sequence = 0
        #: When set, the data-path operations (``get``/``put``/
        #: ``delete``/``commit``) are routed through ``interceptor(client, op,
        #: args, kwargs)`` instead of executing inline.  The concurrent
        #: request engine uses this to suspend the calling green thread
        #: and submit the call on the async syscall interface; the
        #: interceptor executes the real call via :meth:`direct`.
        self.interceptor = interceptor
        self.requests_sent = 0
        self.bytes_on_wire = 0
        #: Transient-error retry schedule; None disables retrying.
        #: Backoff is accounted in ``retry_delay_seconds`` (virtual
        #: time) and optionally fed to ``sleeper`` — the synchronous
        #: API never blocks on its own.
        self.retry_policy = retry_policy
        self._retry_rng = random.Random(retry_seed)
        self._sleeper = sleeper
        self.retries = 0
        self.retry_delay_seconds = 0.0
        self.telemetry = telemetry or NULL_TELEMETRY
        self._m_retries = self.telemetry.counter(
            "pesos_drive_retries_total",
            "Kinetic requests retried after a transient error, by drive "
            "and error class.",
            ("drive", "error"),
        )
        if trust_store is not None:
            certificate = drive.certificate
            if certificate is None:
                raise CertificateError(
                    f"drive {drive.drive_id} has no identity certificate"
                )
            trust_store.verify(certificate, now)

    # -- plumbing -----------------------------------------------------------

    def _next_message(self, message_type: MessageType, body: dict | bytes) -> Message:
        self._sequence += 1
        message = Message(message_type, self.identity, self._sequence, body)
        return message.sign(self._mac_key)

    def _roundtrip(self, message_type: MessageType, body: dict | bytes) -> Message:
        """Send one request (retrying transient errors) and validate."""
        request = self._next_message(message_type, body)
        policy = self.retry_policy
        attempt = 1
        while True:
            try:
                response = self._exchange(request)
                break
            except KineticError as exc:
                if (
                    policy is None
                    or attempt >= policy.max_attempts
                    or not isinstance(exc, policy.retry_on)
                ):
                    raise
                delay = policy.delay(attempt, self._retry_rng)
                attempt += 1
                self.retries += 1
                self.retry_delay_seconds += delay
                self._m_retries.labels(
                    self.drive.drive_id, type(exc).__name__
                ).inc()
                if self._sleeper is not None:
                    self._sleeper(delay)
        self._validate(request, response)
        return response

    def _exchange(self, request: Message) -> Message:
        """One wire round trip (no retrying, no status validation)."""
        self.requests_sent += 1
        # Encode/decode both ways: the real library serializes through
        # protobuf; doing so keeps the wire format honest.
        wire = request.encode()
        self.bytes_on_wire += len(wire)
        response = self.drive.handle(Message.decode(wire))
        response_wire = response.encode()
        self.bytes_on_wire += len(response_wire)
        return Message.decode(response_wire)

    def _validate(self, request: Message, response: Message) -> None:
        if response.status == StatusCode.HMAC_FAILURE:
            raise KineticAuthError(
                f"drive rejected identity {self.identity!r}: "
                f"{response.status_message}"
            )
        if not response.verify(self._mac_key):
            raise IntegrityError("response HMAC invalid (spoofed drive?)")
        if response.sequence != request.sequence:
            raise KineticError("response sequence mismatch")
        if response.status == StatusCode.NOT_AUTHORIZED:
            raise KineticAuthError(response.status_message)
        if response.status == StatusCode.VERSION_MISMATCH:
            raise KineticVersionMismatch(response.status_message)
        if response.status == StatusCode.NOT_FOUND:
            raise KineticNotFound(response.status_message or "key not found")
        if response.status != StatusCode.SUCCESS:
            raise KineticError(
                f"{response.status.name}: {response.status_message}"
            )

    # -- operations --------------------------------------------------------

    def direct(self, op: str, *args: Any, **kwargs: Any) -> Any:
        """Execute a data-path op inline, bypassing the interceptor."""
        return getattr(self, f"_{op}")(*args, **kwargs)

    def _routed(self, op: str, *args: Any, **kwargs: Any) -> Any:
        if self.interceptor is not None:
            return self.interceptor(self, op, args, kwargs)
        return getattr(self, f"_{op}")(*args, **kwargs)

    def put(
        self,
        key: bytes,
        value: bytes,
        db_version: bytes = b"",
        new_version: bytes | None = None,
        force: bool = False,
    ) -> bytes:
        """Store ``value``; returns the new dbVersion."""
        return self._routed(
            "put", key, value, db_version=db_version,
            new_version=new_version, force=force,
        )

    def _put(
        self,
        key: bytes,
        value: bytes,
        db_version: bytes = b"",
        new_version: bytes | None = None,
        force: bool = False,
    ) -> bytes:
        body = {"key": key, "value": value, "db_version": db_version, "force": force}
        if new_version is not None:
            body["new_version"] = new_version
        response = self._roundtrip(MessageType.PUT, body)
        return response.body["new_version"]

    def get(self, key: bytes) -> tuple[bytes, bytes]:
        """Fetch ``key``; returns ``(value, db_version)``."""
        return self._routed("get", key)

    def _get(self, key: bytes) -> tuple[bytes, bytes]:
        response = self._roundtrip(MessageType.GET, {"key": key})
        return response.body["value"], response.body["db_version"]

    def get_version(self, key: bytes) -> bytes:
        response = self._roundtrip(MessageType.GETVERSION, {"key": key})
        return response.body["db_version"]

    def delete(
        self,
        key: bytes,
        db_version: bytes = b"",
        force: bool = False,
    ) -> None:
        self._routed("delete", key, db_version=db_version, force=force)

    def _delete(
        self,
        key: bytes,
        db_version: bytes = b"",
        force: bool = False,
    ) -> None:
        self._roundtrip(
            MessageType.DELETE,
            {"key": key, "db_version": db_version, "force": force},
        )

    def commit(self, ops: list[Op], encoded: bytes | None = None) -> int:
        """Apply ``ops`` all-or-none, in one frame; returns records applied
        (a forced DELETE of an absent key applies nothing, without error).
        ``encoded`` must be ``encode_fields({"ops": ops})``, made once by a
        caller that sends the same ops to several drives: the frame then
        carries those bytes as its body, and ``ops`` only tells the
        interceptor which keys the frame writes."""
        return self._routed("commit", ops, encoded=encoded)

    def _commit(self, ops: list[Op], encoded: bytes | None = None) -> int:
        body = {"ops": ops} if encoded is None else encoded
        response = self._roundtrip(MessageType.COMMIT, body)
        return response.body["applied"]

    def get_next(self, key: bytes) -> tuple[bytes, bytes, bytes]:
        return self._neighbour(MessageType.GETNEXT, key)

    def get_previous(self, key: bytes) -> tuple[bytes, bytes, bytes]:
        return self._neighbour(MessageType.GETPREVIOUS, key)

    def _neighbour(self, message_type: MessageType, key: bytes) -> tuple:
        body = self._roundtrip(message_type, {"key": key}).body
        return body["key"], body["value"], body["db_version"]

    def get_key_range(
        self,
        start_key: bytes = b"",
        end_key: bytes = b"\xff" * 32,
        max_returned: int = 200,
        start_inclusive: bool = True,
        end_inclusive: bool = True,
        reverse: bool = False,
    ) -> list[bytes]:
        """A flag at the drive's default is left out of the request, as
        protobuf leaves out a default-valued field."""
        body = dict(start_key=start_key, end_key=end_key, max_returned=max_returned)
        if not start_inclusive:
            body["start_inclusive"] = start_inclusive
        if not end_inclusive:
            body["end_inclusive"] = end_inclusive
        if reverse:
            body["reverse"] = reverse
        return self._roundtrip(MessageType.GETKEYRANGE, body).body["keys"]

    def set_security(self, accounts: list[tuple[str, bytes, Role]]) -> None:
        """Replace the drive's account table."""
        encoded = [
            [identity, key, roles.value] for identity, key, roles in accounts
        ]
        self._roundtrip(MessageType.SECURITY, {"accounts": encoded})

    def setup(self, cluster_version: int | None = None, erase: bool = False) -> None:
        body: dict[str, Any] = {"erase": erase}
        if cluster_version is not None:
            body["cluster_version"] = cluster_version
        self._roundtrip(MessageType.SETUP, body)

    def p2p_push(self, peer_id: str, keys: list[bytes]) -> int:
        """Push keys directly to a peer drive; returns count pushed."""
        response = self._roundtrip(
            MessageType.PEER2PEERPUSH, {"peer": peer_id, "keys": keys}
        )
        return response.body["pushed"]

    def get_log(self) -> dict:
        return self._roundtrip(MessageType.GETLOG, {}).body

    def noop(self) -> None:
        self._roundtrip(MessageType.NOOP, {})

    def flush(self) -> None:
        self._roundtrip(MessageType.FLUSHALLDATA, {})
