"""Mandatory Access Logging (§5.4).

MAL combines access control, versioning, and provenance: before any
access to a protected object, the client must (1) append its intent to
a log object, then (2) perform the access.  Pesos grants the access
only if the log's latest version contains the matching intent entry —
so the log is a complete, policy-enforced history of who did what.

The log itself is an object with a version-storage policy (append by
supplying the successor version), and the protected object's policy is
the paper's rule::

    read   :- objId(THIS,o) /\\ objId(LOG,l) /\\ currIndex(o,v)
              /\\ sessionKeyIs(u) /\\ objSays(l,lv,'read'(o,v,u))
    update :- objId(THIS,o) /\\ objId(LOG,l) /\\ sessionKeyIs(u)
              /\\ currIndex(o,v) /\\ nextIndex(o,v+1)
              /\\ objHash(o,v,cH) /\\ objHash(o,v+1,nH)
              /\\ objSays(l,lv,'write'(o,v,cH,nH,u))
"""

from __future__ import annotations

import hashlib

from repro.core.controller import PesosController
from repro.core.request import Request, Response
from repro.errors import PesosError
from repro.usecases.versioned import versioned_policy


def mal_policy(owner: str) -> str:
    """The §5.4 MAL policy with a creation clause for ``owner``."""
    return (
        "read :- objId(this, O) /\\ objId(log, L) /\\ currIndex(O, V)"
        " /\\ sessionKeyIs(U) /\\ objSays(L, LV, 'read'(O, V, U))\n"
        "update :- objId(this, O) /\\ objId(log, L) /\\ sessionKeyIs(U)"
        " /\\ currIndex(O, V) /\\ nextIndex(O, V + 1)"
        " /\\ objHash(O, V, CH) /\\ objHash(O, V + 1, NH)"
        " /\\ objSays(L, LV, 'write'(O, V, CH, NH, U))"
        f" \\/ objId(this, NULL) /\\ sessionKeyIs(k'{owner}')\n"
        f"delete :- sessionKeyIs(k'{owner}')"
    )


def read_intent(key: str, version: int, client: str) -> str:
    """Render a read-intent log line."""
    return f"'read'('{key}', {version}, k'{client}')"


def write_intent(
    key: str, version: int, current_hash: str, new_hash: str, client: str
) -> str:
    """Render a write-intent log line."""
    return (
        f"'write'('{key}', {version}, h'{current_hash}', "
        f"h'{new_hash}', k'{client}')"
    )


class MalStore:
    """Client-side MAL workflow: log the intent, then act."""

    LOG_SUFFIX = ".log"

    def __init__(self, controller: PesosController):
        self.controller = controller
        self._mal_policies: dict[str, str] = {}
        self._log_policy_id: str | None = None

    # -- setup ----------------------------------------------------------------

    def _log_policy(self, fingerprint: str) -> str:
        if self._log_policy_id is None:
            response = self.controller.put_policy(
                fingerprint, versioned_policy()
            )
            self._log_policy_id = response.policy_id
        return self._log_policy_id

    def protect(self, owner: str, key: str, initial: bytes) -> Response:
        """Create a MAL-protected object and its empty log."""
        log_key = key + self.LOG_SUFFIX
        log = self.controller.handle(
            Request(
                method="put",
                key=log_key,
                value=b"",
                policy_id=self._log_policy(owner),
                version=0,
            ),
            owner,
        )
        if not log.ok:
            raise PesosError(f"log creation failed: {log.error}")
        policy = self.controller.put_policy(owner, mal_policy(owner))
        if not policy.ok:
            raise PesosError(f"MAL policy rejected: {policy.error}")
        self._mal_policies[key] = policy.policy_id
        return self.controller.handle(
            Request(
                method="put", key=key, value=initial,
                policy_id=policy.policy_id,
            ),
            owner,
        )

    # -- logging ---------------------------------------------------------------

    def _append_log(self, client: str, key: str, entry: str) -> None:
        log_key = key + self.LOG_SUFFIX
        current = self.controller.get(client, log_key)
        if not current.ok:
            raise PesosError(f"cannot read log: {current.error}")
        content = current.value
        if content and not content.endswith(b"\n"):
            content += b"\n"
        content += entry.encode() + b"\n"
        response = self.controller.handle(
            Request(
                method="put",
                key=log_key,
                value=content,
                version=current.version + 1,
            ),
            client,
        )
        if not response.ok:
            raise PesosError(f"log append failed: {response.error}")

    # -- logged operations --------------------------------------------------------

    def read(self, client: str, key: str) -> Response:
        """Log a read intent, then read."""
        meta = self.controller.get(client, key + self.LOG_SUFFIX)
        if not meta.ok:
            raise PesosError(f"object {key!r} is not MAL-protected")
        target = self.controller._get_meta(key)
        if target is None or not target.exists:
            raise PesosError(f"no such object {key!r}")
        self._append_log(
            client, key, read_intent(key, target.current_version, client)
        )
        return self.controller.get(client, key)

    def unlogged_read(self, client: str, key: str) -> Response:
        """A read without the intent entry (should be denied)."""
        return self.controller.get(client, key)

    def write(self, client: str, key: str, new_value: bytes) -> Response:
        """Log a write intent (with hashes), then update."""
        target = self.controller._get_meta(key)
        if target is None or not target.exists:
            raise PesosError(f"no such object {key!r}")
        version = target.current_version
        current_hash = target.versions[version].content_hash
        new_hash = hashlib.sha256(new_value).hexdigest()
        self._append_log(
            client,
            key,
            write_intent(key, version, current_hash, new_hash, client),
        )
        return self.controller.handle(
            Request(
                method="put", key=key, value=new_value, version=version + 1
            ),
            client,
        )

    def audit_trail(self, client: str, key: str) -> list[str]:
        """The log's entries: its LF-terminated lines, as objSays reads it."""
        log = self.controller.get(client, key + self.LOG_SUFFIX)
        if not log.ok:
            raise PesosError(log.error)
        return [line for line in log.value.decode().split("\n") if line]
