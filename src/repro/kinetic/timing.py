"""Virtual-time service models for Kinetic storage backends.

The paper evaluates against two backends: the Seagate Kinetic disk
*simulator* (a Java process keeping everything in memory, collocated
with the workload generator) and the physical Kinetic *HDD* whose SoC
runs LevelDB over rotating media.

Measured behaviour this module encodes, one *visit* being one frame
on the wire, whatever it carries:

- The simulator has capacity to spare but a per-visit latency floor
  of about half a millisecond, which is what makes the paper's
  single-client latency ~0.75-0.86 ms (§6.2, an acknowledged
  implementation artifact of the simulator), scaling with payload size
  at memory bandwidth.
- The HDD is dominated by its weak SoC (protobuf + LevelDB on an ARM
  core, ~1 ms per visit with the amortised seeks) rather than raw
  seeks for the paper's 100 k x 1 KB working set, which fits the drive
  cache; media costs appear for cache-missing reads and periodic
  sync/compaction on writes.  A dedicated drive therefore delivers
  ~820 IOP/s (Fig. 5; YCSB-A costs ~1.25 visits per operation), three
  behind the shared Ember-enclosure uplink ~1.1 kIOP/s (Fig. 3).

The dataclass defaults are the calibrated values (DESIGN.md §6).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

OP_READ = "read"
OP_WRITE = "write"
OP_DELETE = "delete"
OP_RANGE = "range"


@dataclass
class DriveTiming:
    """Base class: fixed service time per operation (for tests)."""

    fixed_seconds: float = 1e-3
    #: Concurrent operations the backend can service (queue capacity).
    concurrency: int = 1

    def service_time(self, op: str, nbytes: int, rng: random.Random) -> float:
        return self.fixed_seconds


@dataclass
class SimulatorTiming(DriveTiming):
    """The in-memory Kinetic disk simulator.

    ``base_seconds`` is the per-visit latency floor (protobuf decode,
    map update and the constant bookkeeping that dominates
    single-client latency); ``per_byte`` is memory-bandwidth copying;
    ``concurrency`` is how many visits overlap, sized so that one
    simulator (~135 k visits/s) never saturates in Fig. 5.
    """

    base_seconds: float = 450e-6
    per_byte: float = 0.5e-9
    jitter: float = 0.10
    concurrency: int = 64

    def service_time(self, op: str, nbytes: int, rng: random.Random) -> float:
        base = self.base_seconds + nbytes * self.per_byte
        if op == OP_RANGE:
            base *= 2.0
        return base * (1.0 + self.jitter * rng.random())


@dataclass
class HddTiming(DriveTiming):
    """A physical Kinetic HDD (SoC + LevelDB + rotating media).

    Defaults target ~820 IOP/s for the YCSB-A 1 KB mix when the drive
    is dedicated to one controller (Fig. 5's per-drive rate): a visit
    averages ~1 ms and an operation costs ~1.25 visits.
    """

    #: SoC compute per visit (protobuf, LevelDB, network stack).
    soc_seconds: float = 0.77e-3
    #: Per-byte SoC/media transfer cost.
    per_byte: float = 8.0e-9
    #: Probability a read misses the drive cache and pays a seek.
    read_miss_rate: float = 0.015
    #: Probability a write triggers a log sync / compaction stall.
    write_sync_rate: float = 0.015
    #: Average seek + rotational latency of the 5900-RPM mechanism.
    seek_seconds: float = 10e-3
    jitter: float = 0.15
    concurrency: int = 1

    def service_time(self, op: str, nbytes: int, rng: random.Random) -> float:
        time = self.soc_seconds + nbytes * self.per_byte
        if op == OP_READ and rng.random() < self.read_miss_rate:
            time += self.seek_seconds
        elif op in (OP_WRITE, OP_DELETE) and rng.random() < self.write_sync_rate:
            time += self.seek_seconds
        elif op == OP_RANGE:
            time += self.soc_seconds  # extra LevelDB iteration work
        return time * (1.0 + self.jitter * rng.random())
