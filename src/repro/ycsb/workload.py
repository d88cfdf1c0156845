"""YCSB workload definitions and trace generation.

The paper (§6.1) configures YCSB for 100,000 operations over 100,000
unique objects with 1 KB payloads, and reports that workloads A-D gave
similar results (only workload A graphs are shown).  Traces are
generated up front and replayed, exactly as the paper does to take the
generator off the measurement path.

Workloads E and F (Cooper et al., SoCC'10) extend the stock set:

- **E** is scan-heavy: 95% short range scans (slices of the store's
  key directory) whose start key follows the workload distribution and
  whose length is drawn per-operation from a scan-length
  distribution, plus 5% inserts.
- **F** is read-modify-write: 50% reads, 50% atomic RMW cycles that
  read the current record and write back a derived payload under the
  object's per-key lock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.ycsb.distributions import (
    LatestGenerator,
    ScanLengthGenerator,
    ScrambledZipfianGenerator,
    UniformGenerator,
)

READ = "read"
UPDATE = "update"
INSERT = "insert"
SCAN = "scan"
RMW = "rmw"


@dataclass(frozen=True)
class Operation:
    """One trace entry."""

    op: str
    key: str
    value_size: int = 0
    #: Records covered by one range scan (``SCAN`` entries only).
    scan_length: int = 0


@dataclass
class WorkloadSpec:
    """Proportions and parameters for one workload."""

    name: str
    read_proportion: float
    update_proportion: float
    insert_proportion: float = 0.0
    scan_proportion: float = 0.0
    rmw_proportion: float = 0.0
    distribution: str = "zipfian"  # zipfian | uniform | latest
    record_count: int = 100_000
    operation_count: int = 100_000
    value_size: int = 1024
    #: Range-scan length bounds (workload E); lengths are drawn from
    #: ``scan_length_distribution`` over ``[1, max_scan_length]``.
    max_scan_length: int = 100
    scan_length_distribution: str = "uniform"  # uniform | zipfian

    def __post_init__(self) -> None:
        total = (
            self.read_proportion
            + self.update_proportion
            + self.insert_proportion
            + self.scan_proportion
            + self.rmw_proportion
        )
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(
                f"workload {self.name}: proportions sum to {total}, not 1"
            )
        if self.max_scan_length < 1:
            raise ConfigurationError(
                f"workload {self.name}: max_scan_length must be >= 1"
            )

    def scaled(self, **overrides) -> "WorkloadSpec":
        """Copy with some parameters replaced (payload sweeps etc.)."""
        from dataclasses import replace

        return replace(self, **overrides)


#: The four stock workloads (§6.1).
WORKLOAD_A = WorkloadSpec("A", read_proportion=0.5, update_proportion=0.5)
WORKLOAD_B = WorkloadSpec("B", read_proportion=0.95, update_proportion=0.05)
WORKLOAD_C = WorkloadSpec("C", read_proportion=1.0, update_proportion=0.0)
WORKLOAD_D = WorkloadSpec(
    "D",
    read_proportion=0.95,
    update_proportion=0.0,
    insert_proportion=0.05,
    distribution="latest",
)
#: Workload E: short range scans + inserts (SoCC'10 table 1).
WORKLOAD_E = WorkloadSpec(
    "E",
    read_proportion=0.0,
    update_proportion=0.0,
    insert_proportion=0.05,
    scan_proportion=0.95,
    max_scan_length=100,
)
#: Workload F: reads + read-modify-write cycles.
WORKLOAD_F = WorkloadSpec(
    "F",
    read_proportion=0.5,
    update_proportion=0.0,
    rmw_proportion=0.5,
)


def key_name(index: int) -> str:
    """YCSB-style key naming."""
    return f"user{index:012d}"


@dataclass
class Trace:
    """A generated workload: load phase keys + transaction phase ops."""

    spec: WorkloadSpec
    load_keys: list = field(default_factory=list)
    operations: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.operations)


def _make_chooser(spec: WorkloadSpec, count: int, rng: random.Random):
    if spec.distribution == "zipfian":
        return ScrambledZipfianGenerator(count, rng)
    if spec.distribution == "uniform":
        return UniformGenerator(count, rng)
    if spec.distribution == "latest":
        return LatestGenerator(count, rng)
    raise ConfigurationError(f"unknown distribution {spec.distribution!r}")


def generate_trace(spec: WorkloadSpec, seed: int = 42) -> Trace:
    """Generate the load phase and operation trace for ``spec``.

    Same seed, same spec -> byte-identical trace (see
    :func:`trace_bytes`); the draw order per operation is fixed at
    (dice, key, scan length) so adding workloads E/F left the A-D
    traces untouched.
    """
    rng = random.Random(seed)
    trace = Trace(spec=spec)
    trace.load_keys = [key_name(i) for i in range(spec.record_count)]
    chooser = _make_chooser(spec, spec.record_count, rng)
    scan_lengths = ScanLengthGenerator(
        spec.max_scan_length, rng, distribution=spec.scan_length_distribution
    )
    insert_count = spec.record_count
    read_threshold = spec.read_proportion
    update_threshold = read_threshold + spec.update_proportion
    insert_threshold = update_threshold + spec.insert_proportion
    scan_threshold = insert_threshold + spec.scan_proportion

    def insert() -> Operation:
        nonlocal insert_count
        operation = Operation(
            op=INSERT,
            key=key_name(insert_count),
            value_size=spec.value_size,
        )
        insert_count += 1
        if isinstance(chooser, LatestGenerator):
            chooser.grow()
        return operation

    for _ in range(spec.operation_count):
        dice = rng.random()
        if dice < read_threshold:
            trace.operations.append(
                Operation(op=READ, key=key_name(chooser.next()))
            )
        elif dice < update_threshold:
            trace.operations.append(
                Operation(
                    op=UPDATE,
                    key=key_name(chooser.next()),
                    value_size=spec.value_size,
                )
            )
        elif dice < insert_threshold and (
            spec.scan_proportion or spec.rmw_proportion
        ):
            trace.operations.append(insert())
        elif dice < scan_threshold and spec.scan_proportion:
            trace.operations.append(
                Operation(
                    op=SCAN,
                    key=key_name(chooser.next()),
                    scan_length=scan_lengths.next(),
                )
            )
        elif spec.rmw_proportion:
            trace.operations.append(
                Operation(
                    op=RMW,
                    key=key_name(chooser.next()),
                    value_size=spec.value_size,
                )
            )
        else:
            trace.operations.append(insert())
    return trace


def trace_bytes(trace: Trace) -> bytes:
    """Canonical byte encoding of one generated trace.

    One line per operation (``op|key|value_size|scan_length``) after a
    header naming the spec and load-key count: two same-seed
    generations must match byte for byte, which the determinism tests
    (and the replay-reproducibility contract) assert directly.
    """
    spec = trace.spec
    lines = [
        f"ycsb|{spec.name}|{spec.distribution}|{spec.record_count}"
        f"|{spec.operation_count}|{spec.value_size}"
        f"|{spec.max_scan_length}|{spec.scan_length_distribution}"
        f"|{len(trace.load_keys)}"
    ]
    lines.extend(
        f"{op.op}|{op.key}|{op.value_size}|{op.scan_length}"
        for op in trace.operations
    )
    return "\n".join(lines).encode()
