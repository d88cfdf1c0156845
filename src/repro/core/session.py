"""Per-client session contexts (§3.1, §4.1).

A session is created when a client first connects, keyed by the
certificate fingerprint from its TLS session.  It stores the client
soft-state: async operation results, the freshness nonce Pesos hands
out for time certificates, and transaction handles.  Sessions persist
past disconnect and expire after a configurable idle period; a
reconnecting client gets its old session back while it lives.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field

from repro.errors import SessionError

#: Paper default: each connected client's session object is ~30 KB.
SESSION_SOFT_BYTES = 30 * 1024


@dataclass
class Session:
    """Soft-state for one authenticated client."""

    fingerprint: str
    created_at: float
    last_active: float
    nonce: str = field(default_factory=lambda: secrets.token_hex(16))
    #: Async operation ids issued to this client, newest last.
    operations: list = field(default_factory=list)
    #: Open transaction ids.
    transactions: set = field(default_factory=set)
    requests_handled: int = 0
    #: Admission-control token bucket
    #: (:class:`repro.core.admission.TokenBucket`), created lazily by
    #: the :class:`~repro.core.admission.AdmissionController` on the
    #: session's first rate-checked request.  Living on the session
    #: means the rate state is keyed by TLS fingerprint and expires
    #: exactly when the session does.
    bucket: object | None = None

    def touch(self, now: float) -> None:
        self.last_active = now
        self.requests_handled += 1

    def refresh_nonce(self) -> str:
        self.nonce = secrets.token_hex(16)
        return self.nonce

    def footprint(self) -> int:
        """Deterministic per-session byte accounting.

        Structural, not ``sys.getsizeof``: a fixed base covers the
        dataclass slots (fingerprint hash, clocks, nonce, counters),
        plus the variable-size collections — async operation ids,
        open transaction handles, and the lazily created token bucket.
        The churn soak asserts this stays bounded across millions of
        lifecycles, so the formula must be stable across interpreter
        versions and GC states.
        """
        base = 256  # slots: fingerprint, clocks, nonce, counters
        base += len(self.fingerprint)
        base += sum(len(op) + 48 for op in self.operations)
        base += sum(len(tx) + 48 for tx in self.transactions)
        if self.bucket is not None:
            base += 96  # TokenBucket: rate, burst, level, stamp
        return base


class SessionManager:
    """Creates, resumes, and expires sessions."""

    def __init__(self, expiry_seconds: float = 3600.0, max_sessions: int = 10_000):
        self.expiry_seconds = expiry_seconds
        self.max_sessions = max_sessions
        self._sessions: dict[str, Session] = {}
        self.created = 0
        self.resumed = 0
        self.expired = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def connect(self, fingerprint: str, *, now: float) -> Session:
        """Create or resume the session for an authenticated client.

        ``now`` is required on purpose: a defaulted clock silently
        pinned forgetful callers to time zero, which made every later
        idle-eviction pass expire fresh sessions (or none, depending
        on call order).  Callers must thread the virtual clock.
        """
        if not fingerprint:
            raise SessionError("client presented no certificate fingerprint")
        session = self._sessions.get(fingerprint)
        if session is not None:
            if now - session.last_active <= self.expiry_seconds:
                session.last_active = now
                self.resumed += 1
                return session
            # Expired: drop the old context and start fresh.
            del self._sessions[fingerprint]
            self.expired += 1
        if len(self._sessions) >= self.max_sessions:
            self._evict_idle(now)
        session = Session(
            fingerprint=fingerprint, created_at=now, last_active=now
        )
        self._sessions[fingerprint] = session
        self.created += 1
        return session

    def lookup(self, fingerprint: str, *, now: float) -> Session:
        """Fetch an existing live session or raise."""
        session = self._sessions.get(fingerprint)
        if session is None:
            raise SessionError(f"no session for {fingerprint[:12]}...")
        if now - session.last_active > self.expiry_seconds:
            del self._sessions[fingerprint]
            self.expired += 1
            raise SessionError("session expired")
        return session

    def expire_idle(self, now: float) -> int:
        """Sweep expired sessions; returns how many were dropped."""
        victims = [
            fp
            for fp, session in self._sessions.items()
            if now - session.last_active > self.expiry_seconds
        ]
        for fp in victims:
            del self._sessions[fp]
        self.expired += len(victims)
        return len(victims)

    def memory_in_use(self) -> int:
        return len(self._sessions) * SESSION_SOFT_BYTES

    def footprint_bytes(self) -> int:
        """Sum of structural per-session footprints (see
        :meth:`Session.footprint`); the soak harness divides this by
        the live-session count to bound bytes per user."""
        return sum(s.footprint() for s in self._sessions.values())

    def _evict_idle(self, now: float) -> None:
        if not self._sessions:
            return
        oldest = min(self._sessions.values(), key=lambda s: s.last_active)
        del self._sessions[oldest.fingerprint]
        self.expired += 1
