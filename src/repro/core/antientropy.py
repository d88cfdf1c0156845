"""Dirty-replica journal and the anti-entropy repair loop (§4.5).

The paper keeps *no* replication metadata: placement is deterministic
and a failed drive's replicas are simply stale once it returns.  The
journal is the minimal soft-state needed to make that model converge —
whenever the store acknowledges a write below full replication, or a
read fails over past a missing/corrupt copy, the object key is
journaled.  :class:`AntiEntropyRepairer` later walks the journal and
drives the store's existing ``scrub``/``repair`` until every replica
matches, discarding keys only once a scrub comes back fully ``ok``.

Losing the journal (it lives in enclave memory) is safe: it is an
accelerator, not a ledger.  A full scrub sweep — or the next failed
read — rediscovers any divergence.

There is no background thread in this reproduction; the controller
pumps :meth:`AntiEntropyRepairer.run_once` every
``anti_entropy_interval`` requests, and tests call it directly.  That
is the synchronous stand-in for the paper's background maintenance.
"""

from __future__ import annotations

from repro.errors import PesosError
from repro.telemetry import NULL_TELEMETRY

#: Journal entry kinds: objects repair via scrub/repair, policies via
#: a plain re-write of the immutable blob.
KIND_OBJECT = "object"
KIND_POLICY = "policy"


class DirtyJournal:
    """Keys with known-missing or suspect replicas, pending repair."""

    def __init__(self):
        self._entries: dict[tuple[str, str], set[int]] = {}

    def mark(self, kind: str, key: str, drive_indexes=()) -> None:
        self._entries.setdefault((kind, key), set()).update(drive_indexes)

    def discard(self, kind: str, key: str) -> None:
        self._entries.pop((kind, key), None)

    def entries(self) -> list[tuple[str, str]]:
        return list(self._entries)

    def pending(self, kind: str, key: str) -> set[int]:
        return set(self._entries.get((kind, key), ()))

    def __contains__(self, kind_key: tuple[str, str]) -> bool:
        return kind_key in self._entries

    def __len__(self) -> int:
        return len(self._entries)


class AntiEntropyRepairer:
    """Walks the dirty journal and converges replicas."""

    def __init__(self, store, telemetry=None):
        self.store = store
        self.telemetry = telemetry or NULL_TELEMETRY
        self.runs = 0
        self._m_runs = self.telemetry.counter(
            "pesos_repair_runs_total",
            "Anti-entropy passes over the dirty journal.",
        )
        self._m_repaired = self.telemetry.counter(
            "pesos_repair_blobs_total",
            "Replica blobs rewritten by anti-entropy repair.",
        )
        self._m_keys = self.telemetry.counter(
            "pesos_repair_keys_total",
            "Journaled keys processed by anti-entropy, by outcome.",
            ("outcome",),
        )

    def run_once(self, max_keys: int | None = None) -> dict:
        """Process up to ``max_keys`` journaled keys; returns a report.

        A key leaves the journal only when a post-repair scrub shows
        every replica ``ok`` (or the object no longer exists); keys
        whose drives are still down stay journaled for the next pass.
        """
        self.runs += 1
        self._m_runs.inc()
        journal = self.store.journal
        repaired = 0
        converged: list[str] = []
        kept: list[str] = []
        for kind, key in journal.entries()[:max_keys]:
            try:
                if kind == KIND_POLICY:
                    done = self._repair_policy(key)
                else:
                    count, done = self._repair_object(key)
                    repaired += count
            except PesosError:
                # Below quorum or every replica unreachable: keep the
                # key journaled and let a later pass converge it.
                kept.append(key)
                self._m_keys.labels("deferred").inc()
                continue
            if done:
                journal.discard(kind, key)
                converged.append(key)
                self._m_keys.labels("converged").inc()
            else:
                kept.append(key)
                self._m_keys.labels("pending").inc()
        return {
            "repaired": repaired,
            "converged": converged,
            "pending": kept,
            "journal_size": len(journal),
        }

    def run_until_converged(self, max_passes: int = 8) -> dict:
        """Repeat :meth:`run_once` until the journal drains (or gives up)."""
        report = {"repaired": 0, "converged": [], "pending": [],
                  "journal_size": len(self.store.journal)}
        for _ in range(max_passes):
            if not len(self.store.journal):
                break
            step = self.run_once()
            report["repaired"] += step["repaired"]
            report["converged"].extend(step["converged"])
            report["pending"] = step["pending"]
            report["journal_size"] = step["journal_size"]
        return report

    def _repair_object(self, key: str) -> tuple[int, bool]:
        # With a freshness authority attached, this read serves only a
        # record whose digest equals the pinned leaf — so repair
        # converges the fleet toward the *pinned* record, never toward
        # a stale-but-valid replica a rollback attack planted.
        meta = self.store.read_meta(key)
        if meta is None or not meta.exists:
            # Deleted since it was journaled; nothing left to repair.
            return 0, True
        repaired = self.store.repair(meta)
        if repaired:
            self._m_repaired.inc(repaired)
        report = self.store.scrub(meta)
        return repaired, all(status == "ok" for _v, _d, status in report)

    def _repair_policy(self, policy_id: str) -> bool:
        # The read serves only a blob that hashes to its id, so the
        # re-write restores the policy itself to any replica that
        # missed it, never a planted blob.
        blob = self.store.read_policy(policy_id)
        if blob is not None:
            self.store.write_policy(blob)
        return True
