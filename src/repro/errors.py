"""Exception hierarchy for the Pesos reproduction.

Every subsystem raises exceptions rooted at :class:`PesosError` so callers
can catch broadly (``except PesosError``) or narrowly (e.g.
``except PolicyDenied``).  Wire-visible errors carry an HTTP-style status
code used by the REST layer when rendering responses.
"""

from __future__ import annotations


class PesosError(Exception):
    """Base class for every error raised by this library."""

    #: HTTP-style status code used when the error crosses the REST boundary.
    status = 500


class ConfigurationError(PesosError):
    """A component was constructed with invalid or inconsistent parameters."""


# --------------------------------------------------------------------------
# Crypto / attestation
# --------------------------------------------------------------------------

class CryptoError(PesosError):
    """Cryptographic operation failed (bad key size, tag mismatch, ...)."""


class IntegrityError(CryptoError):
    """Authenticated decryption or signature verification failed."""

    status = 400


class CertificateError(CryptoError):
    """Certificate is malformed, expired, or its chain does not verify."""

    status = 403


class AttestationError(PesosError):
    """Remote attestation failed: wrong measurement, bad quote, or replay."""

    status = 403


# --------------------------------------------------------------------------
# Kinetic storage
# --------------------------------------------------------------------------

class KineticError(PesosError):
    """Base class for Kinetic drive / protocol errors."""


class KineticAuthError(KineticError):
    """Request HMAC did not verify or the identity lacks permission."""

    status = 401


class KineticVersionMismatch(KineticError):
    """A versioned PUT/DELETE supplied a stale dbVersion."""

    status = 409


class KineticNotFound(KineticError):
    """The requested key does not exist on the drive."""

    status = 404


class DriveOffline(KineticError):
    """The target drive failed or was administratively taken offline."""

    status = 503


class TransientIOError(KineticError):
    """A request was lost in flight (dropped connection, I/O hiccup).

    Raised *before* the drive applied the operation, so retrying is
    always safe; :class:`repro.kinetic.retry.RetryPolicy` retries these
    by default.
    """

    status = 503


class ReplicationDegraded(DriveOffline):
    """A write could not reach its configured replica quorum.

    Subclasses :class:`DriveOffline` so callers that already handle
    total drive loss keep working; carries a ``retry_after`` hint the
    REST layer surfaces as a ``Retry-After`` header.
    """

    status = 503
    retry_after = 1.0


# --------------------------------------------------------------------------
# Policy engine
# --------------------------------------------------------------------------

class PolicyError(PesosError):
    """Base class for policy language errors."""


class PolicySyntaxError(PolicyError):
    """The policy source text failed to lex or parse."""

    status = 400

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.line = line
        self.column = column

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        if self.line:
            return f"{base} (line {self.line}, column {self.column})"
        return base


class PolicyCompileError(PolicyError):
    """The AST could not be compiled (unknown predicate, arity mismatch)."""

    status = 400


class PolicyFormatError(PolicyError):
    """A compiled binary policy blob is corrupt or has a bad version."""

    status = 400


class PolicyDenied(PolicyError):
    """Policy evaluation denied the requested operation."""

    status = 403


# --------------------------------------------------------------------------
# Controller / API
# --------------------------------------------------------------------------

class RequestError(PesosError):
    """Malformed client request (missing parameter, bad method...)."""

    status = 400


class SessionError(PesosError):
    """Client session is missing, expired, or failed authentication."""

    status = 401


class ObjectNotFound(PesosError):
    """The requested object key does not exist in the store."""

    status = 404


class TransactionError(PesosError):
    """Transaction aborted or used illegally (e.g. op after commit)."""

    status = 409


class ResultExpired(PesosError):
    """An async operation result was evicted from the result buffer."""

    status = 410


# --------------------------------------------------------------------------
# Freshness / rollback protection
# --------------------------------------------------------------------------

class FreshnessError(PesosError):
    """Base class for authenticated-freshness violations."""


class StaleReplica(FreshnessError):
    """Every reachable replica served data older than the pinned root.

    The record decrypted and authenticated perfectly — it is a real
    blob this controller once wrote — but its digest does not match
    the Merkle leaf pinned by the sealed monotonic counter, so serving
    it would silently undo an acknowledged write.  Retryable: the
    fresh replica may only be transiently unreachable.
    """

    status = 503
    retry_after = 1.0


class ForkDetected(FreshnessError):
    """Drive or sealed state proves a root the counter never pinned.

    Raised at controller startup when fork detection fails (the cloud
    restored an old fleet snapshot, or replayed a stale sealed pin),
    and on every subsequent request while the controller refuses to
    serve.  Not retryable without operator intervention.
    """

    status = 503


# --------------------------------------------------------------------------
# Admission control / overload protection
# --------------------------------------------------------------------------

class OverloadShed(PesosError):
    """Admission control refused the request before it executed.

    Shedding happens strictly *before* any side effect, so a shed
    request was never applied and retrying is always safe.  Carries a
    ``retry_after`` hint (seconds) the REST layer renders as a
    ``Retry-After`` header, exactly like :class:`ReplicationDegraded`.
    """

    status = 503
    retry_after = 1.0

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        if retry_after is not None:
            self.retry_after = retry_after


class RateLimited(OverloadShed):
    """A per-session token bucket ran dry (client-attributable load)."""

    status = 429
