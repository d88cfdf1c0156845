"""Per-drive health tracking: a consecutive-failure circuit breaker.

Without this, every request whose placement includes a dead drive pays
that drive's timeout before failing over.  The tracker remembers which
replicas have been failing and lets the store skip them outright:

- ``closed``  — healthy, requests flow normally.
- ``open``    — too many consecutive failures; skip this drive.
- ``half-open`` — the cooldown elapsed; exactly one probe request is
  let through.  Success closes the breaker, failure re-opens it.

The breaker is clocked on the store's *operation counter*, not wall
time, so behaviour is deterministic under test and in virtual-time
benchmarks: a breaker opened at op N allows its half-open probe at op
``N + cooldown_ops``.
"""

from __future__ import annotations

from dataclasses import dataclass

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Numeric encoding used by the ``pesos_drive_health`` gauge.
STATE_CODES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


@dataclass
class DriveHealth:
    """Breaker state and counters for one drive."""

    state: str = CLOSED
    consecutive_failures: int = 0
    opened_at: int = 0
    successes: int = 0
    failures: int = 0
    probes: int = 0

    def snapshot(self) -> dict:
        return {
            "breaker": self.state,
            "consecutive_failures": self.consecutive_failures,
            "successes": self.successes,
            "failures": self.failures,
            "probes": self.probes,
        }


class HealthTracker:
    """Circuit breakers for a fleet of drives, indexed like clients."""

    def __init__(
        self, num_drives: int, threshold: int = 3, cooldown_ops: int = 64
    ):
        self.threshold = max(1, threshold)
        self.cooldown_ops = max(1, cooldown_ops)
        self.clock = 0
        self._drives = [DriveHealth() for _ in range(num_drives)]

    def __len__(self) -> int:
        return len(self._drives)

    def state_of(self, index: int) -> DriveHealth:
        return self._drives[index]

    def tick(self) -> int:
        """Advance the breaker clock (one store-level operation)."""
        self.clock += 1
        return self.clock

    def due(self, index: int) -> bool:
        """Whether :meth:`allow` would let a request through, without
        taking the half-open probe."""
        health = self._drives[index]
        return health.state == CLOSED or (
            health.state == OPEN
            and self.clock - health.opened_at >= self.cooldown_ops
        )

    def allow(self, index: int) -> bool:
        """Whether the store should send this drive a request now."""
        if not self.due(index):
            return False
        health = self._drives[index]
        if health.state == OPEN:
            health.state = HALF_OPEN
            health.probes += 1  # this caller is the probe
        return True

    def record_success(self, index: int) -> None:
        health = self._drives[index]
        health.successes += 1
        health.consecutive_failures = 0
        health.state = CLOSED

    def record_failure(self, index: int) -> None:
        health = self._drives[index]
        health.failures += 1
        health.consecutive_failures += 1
        if (
            health.state == HALF_OPEN
            or health.consecutive_failures >= self.threshold
        ):
            health.state = OPEN
            health.opened_at = self.clock

    def snapshot(self) -> list[dict]:
        return [h.snapshot() for h in self._drives]
