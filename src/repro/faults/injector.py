"""Fault-injecting wrappers around Kinetic drives.

:class:`FaultyDrive` is a transparent proxy over one
:class:`~repro.kinetic.drive.KineticDrive`: every attribute the rest of
the system touches (``online``, ``certificate``, ``drive_id``,
``stats``, even test access to ``_entries``) delegates to the wrapped
drive, so the happy path is byte-for-byte the same code.  Only
``handle`` is intercepted, where the drive's
:class:`~repro.faults.schedule.FaultSchedule` gets to drop the request,
bit-flip the at-rest blob about to be read, or charge virtual latency.

:class:`FaultInjector` owns the shared global operation clock: every
operation through *any* wrapped drive ticks it, and window-based state
transitions (crashes, transient offline spells) are applied to the
whole fleet on each tick — a drive crashes on schedule even if it
serves no traffic itself.

Limitations (documented, not accidental): PEER2PEERPUSH between drives
bypasses injection because peers were registered on the raw drives,
and manual ``fail()``/``recover()`` calls are respected until the next
scheduled window boundary overrides them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DriveOffline, TransientIOError
from repro.faults.schedule import DriveFaultSpec, FaultSchedule
from repro.kinetic.drive import KineticDrive, _Entry
from repro.kinetic.protocol import Message, MessageType


def _stale_entry(value: bytes, version: bytes) -> _Entry:
    """A fresh at-rest entry holding replayed (stale) drive state."""
    return _Entry(value=value, version=version)


@dataclass
class FaultStats:
    """What the injector actually did, for assertions and reports."""

    ops: int = 0
    drops: int = 0
    corruptions: int = 0
    slow_ops: int = 0
    slow_seconds: float = 0.0
    transitions: int = 0
    rollbacks: int = 0
    forks: int = 0
    replays: int = 0

    def as_tuple(self) -> tuple:
        return (
            self.ops,
            self.drops,
            self.corruptions,
            self.slow_ops,
            round(self.slow_seconds, 9),
            self.transitions,
            self.rollbacks,
            self.forks,
            self.replays,
        )


class FaultyDrive:
    """One drive behind a fault schedule; see the module docstring."""

    def __init__(
        self, inner, schedule: FaultSchedule, injector: "FaultInjector"
    ):
        self._inner = inner
        self._schedule = schedule
        self._injector = injector
        self._local_op = 0
        self._scheduled_online = True
        #: Rollback/fork machinery: one full-state snapshot plus
        #: one-shot flags for the spec's capture/rollback/fork marks.
        self._snapshot = None
        self._captured = False
        self._rolled_back = False
        self._forked = False
        #: Previous values of overwritten keys, oldest first (capped),
        #: for replay-of-stale-replica faults.
        self._retained: dict = {}

    @property
    def schedule(self) -> FaultSchedule:
        return self._schedule

    @property
    def local_op(self) -> int:
        return self._local_op

    def handle(self, request: Message) -> Message:
        injector = self._injector
        injector.tick()
        if not self._inner.online:
            raise DriveOffline(f"drive {self._inner.drive_id} is offline")
        local_op = self._local_op
        self._local_op += 1
        if request.message_type == MessageType.PUT:
            self._retain(request.body.get("key"))
        elif request.message_type == MessageType.COMMIT:
            # Every record overwritten stocks the replay buffer.
            for op in KineticDrive._parse_ops(request.body) or ():
                if op.value is not None:
                    self._retain(op.key)
        decision = self._schedule.decide(local_op)
        if decision.clean:
            return self._inner.handle(request)
        if decision.corrupt and request.message_type == MessageType.GET:
            self._flip_bit(request.body.get("key"), local_op)
        if decision.drop:
            injector.stats.drops += 1
            raise TransientIOError(
                f"injected connection drop on {self._inner.drive_id} "
                f"(local op {local_op})"
            )
        if decision.replay and request.message_type == MessageType.GET:
            response = self._serve_replayed(request)
        else:
            response = self._inner.handle(request)
        if decision.slow_seconds:
            injector.stats.slow_ops += 1
            injector.stats.slow_seconds += decision.slow_seconds
        return response

    # -- rollback / fork / replay machinery ------------------------------

    #: Stale copies retained per overwritten key (the adversary's
    #: replay buffer does not need to be deep to be dangerous).
    RETAIN_DEPTH = 4

    def _retain(self, key) -> None:
        """Keep the pre-PUT value of ``key`` for later replay faults."""
        if key is None:
            return
        entry = self._inner._entries.get(key)
        if entry is None:
            return
        history = self._retained.setdefault(key, [])
        history.append((entry.value, entry.version))
        del history[: -self.RETAIN_DEPTH]

    def _serve_replayed(self, request: Message) -> Message:
        """Answer a GET from the oldest retained copy of the key.

        The stale entry is swapped in only for the duration of the
        inner call, so the drive HMAC-signs a perfectly-formed response
        carrying data the controller overwrote long ago — precisely
        what version numbers cannot detect and Merkle proofs can.
        """
        key = request.body.get("key")
        history = self._retained.get(key) if key is not None else None
        if not history:
            return self._inner.handle(request)
        entries = self._inner._entries
        current = entries.get(key)
        stale_value, stale_version = history[0]
        entries[key] = _stale_entry(stale_value, stale_version)
        try:
            response = self._inner.handle(request)
        finally:
            if current is not None:
                entries[key] = current
            else:
                del entries[key]
        self._injector.stats.replays += 1
        return response

    def capture_snapshot(self) -> None:
        """Snapshot the drive's full state for a later restore."""
        inner = self._inner
        self._snapshot = (
            {
                key: (entry.value, entry.version)
                for key, entry in inner._entries.items()
            },
            list(inner._sorted_keys),
            inner._used_bytes,
        )
        self._captured = True

    def restore_snapshot(self, kind: str = "rollback") -> bool:
        """Silently reset the drive to the captured snapshot.

        ``kind`` is ``rollback`` (in-place rollback attack) or
        ``fork`` (old fleet image restored across a controller
        restart); it only affects which stat the restore counts
        toward.  Returns False when nothing was ever captured.
        """
        if self._snapshot is None:
            return False
        entries, sorted_keys, used_bytes = self._snapshot
        inner = self._inner
        inner._entries = {
            key: _stale_entry(value, version)
            for key, (value, version) in entries.items()
        }
        inner._sorted_keys = list(sorted_keys)
        inner._used_bytes = used_bytes
        if kind == "fork":
            self._injector.stats.forks += 1
        else:
            self._injector.stats.rollbacks += 1
        return True

    def _flip_bit(self, key, local_op: int) -> None:
        """Bit-flip the at-rest value so the drive serves it corrupt.

        The drive still HMAC-signs the (corrupt) response, exactly like
        real silent media corruption: only the controller's AEAD open
        can notice.
        """
        entry = self._inner._entries.get(key) if key else None
        if entry is None or not entry.value:
            return
        bit = self._schedule.corruption_bit(local_op, len(entry.value))
        blob = bytearray(entry.value)
        blob[bit // 8] ^= 1 << (bit % 8)
        entry.value = bytes(blob)
        self._injector.stats.corruptions += 1

    def _apply_schedule(self, global_op: int) -> None:
        spec = self._schedule.spec
        if (
            spec.capture_at is not None
            and global_op >= spec.capture_at
            and not self._captured
        ):
            self.capture_snapshot()
        if (
            spec.rollback_at is not None
            and global_op >= spec.rollback_at
            and not self._rolled_back
        ):
            self._rolled_back = True
            self.restore_snapshot("rollback")
        if (
            spec.fork_at is not None
            and global_op >= spec.fork_at
            and not self._forked
        ):
            self._forked = True
            self.restore_snapshot("fork")
        wanted = self._schedule.scheduled_online(global_op)
        if wanted == self._scheduled_online:
            return
        self._scheduled_online = wanted
        self._injector.stats.transitions += 1
        if wanted:
            self._inner.recover()
        else:
            self._inner.fail()

    def __getattr__(self, name):
        return getattr(object.__getattribute__(self, "_inner"), name)


@dataclass
class FaultInjector:
    """Owns the global fault clock and the wrapped drive fleet."""

    seed: int = 0
    stats: FaultStats = field(default_factory=FaultStats)
    global_op: int = 0

    def __post_init__(self):
        self._drives: list[FaultyDrive] = []

    @property
    def drives(self) -> list[FaultyDrive]:
        return list(self._drives)

    def wrap(self, drive, spec: DriveFaultSpec | None = None) -> FaultyDrive:
        """Wrap one drive; a ``None`` spec injects nothing."""
        schedule = FaultSchedule(
            drive.drive_id, spec or DriveFaultSpec(), self.seed
        )
        wrapped = FaultyDrive(drive, schedule, self)
        self._drives.append(wrapped)
        wrapped._apply_schedule(self.global_op)
        return wrapped

    def wrap_cluster(self, cluster, specs=None) -> list[FaultyDrive]:
        """Replace every drive in a DriveCluster with a wrapped one.

        ``specs`` is either one :class:`DriveFaultSpec` applied to all
        drives, or a mapping of drive index to spec (unlisted drives
        get the no-op spec).  Call this *before* ``connect_all`` so the
        clients talk to the wrappers.
        """
        wrapped = []
        for index, drive in enumerate(cluster.drives):
            if isinstance(specs, dict):
                spec = specs.get(index)
            else:
                spec = specs
            wrapped.append(self.wrap(drive, spec))
        cluster.drives = wrapped
        return wrapped

    def reschedule(self, drive, spec: DriveFaultSpec) -> FaultSchedule:
        """Swap one wrapped drive's fault plan mid-scenario.

        Phase-based chaos tests use this to express windows relative
        to the current global op ("crash 100 ops into the measured
        run") without predicting how many ops the setup phase costs.
        ``drive`` is a wrapped drive or its index in wrap order.
        """
        wrapped = self._drives[drive] if isinstance(drive, int) else drive
        schedule = FaultSchedule(wrapped._inner.drive_id, spec, self.seed)
        wrapped._schedule = schedule
        # A new plan re-arms the one-shot rollback/fork marks (the old
        # snapshot is kept: phase-based tests capture in one phase and
        # restore in the next).
        wrapped._rolled_back = False
        wrapped._forked = False
        if spec.capture_at is None or spec.capture_at > self.global_op:
            wrapped._captured = False
        wrapped._apply_schedule(self.global_op)
        return schedule

    def tick(self) -> int:
        """Advance the global clock and apply window transitions."""
        self.global_op += 1
        self.stats.ops += 1
        for drive in self._drives:
            drive._apply_schedule(self.global_op)
        return self.global_op
