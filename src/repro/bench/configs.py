"""Evaluation configurations (§6.1).

Four configurations, as in the paper: {native, Pesos(SGX)} x
{Kinetic simulator, Kinetic HDD}: the deployment (drives, network,
enclosure, cores) around the controller costs of :mod:`repro.sgx.costs`
and the drive models of :mod:`repro.kinetic.timing`.  Together they
target the paper's measured operating points on its testbed (Xeon
E3-1270 v5, 8 hardware threads, 10 GbE to the workload generator, three
4 TB Kinetic drives in an Ember enclosure with a shared 1 GbE uplink):

- native + simulator peaks ~95 kIOP/s at 1 KB (Fig. 3)
- Pesos + simulator ~85 kIOP/s — >=85% of native (Fig. 3)
- one dedicated Kinetic HDD ~820 IOP/s (Fig. 5)
- three HDDs behind the shared enclosure uplink ~1.1 kIOP/s (Fig. 3)
- single-client latency vs the simulator ~0.75 ms (Fig. 4, an
  acknowledged artifact of the simulator's per-request overhead)

Costs are per *frame* on the drive link, as the effects ledger records
them: a PUT is one drive visit per replica, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.kinetic.timing import DriveTiming, HddTiming, SimulatorTiming
from repro.sgx.costs import NATIVE_COSTS, SGX_COSTS, CostModel

SIM_BACKEND = "sim"
DISK_BACKEND = "disk"


@dataclass
class SystemConfig:
    """Everything the harness needs to build and time one system."""

    name: str
    cost: CostModel
    backend: str = SIM_BACKEND
    num_drives: int = 3
    replication_factor: int = 1
    #: Replicas that must persist a write before it is acknowledged;
    #: None = every replica (the store's default §3.2 contract).
    write_quorum: int | None = None
    controller_cores: int = 8

    # -- network -------------------------------------------------------------
    #: One-way client <-> controller latency (switched 10 GbE).
    client_net_latency: float = 40e-6
    client_bandwidth: float = 1.17e9  # 10 GbE payload bytes/s
    #: One-way controller <-> backend latency.
    drive_net_latency: float = 55e-6
    drive_bandwidth: float = 1.17e9

    #: CPU spent per drive frame (marshalling one Kinetic
    #: request/response pair through the client library): all a native
    #: replica (Fig. 7) or a MAL log append (Fig. 10) costs.
    disk_op_cpu: float = 28e-6
    #: Extra CPU per frame *to a replica beyond the first* —
    #: replication coordination (§6.3).  Only the SGX build pays it
    #: (buffer copies in and out of the enclave per replica), so
    #: make_config sets it for SGX.
    replica_write_cpu: float = 0.0

    #: Serialization point modeling the Ember enclosure's single
    #: shared uplink (only the Fig. 3/4 disk configuration has it).
    enclosure_per_op: float = 0.0

    # -- untrusted SSD cache tier (future-work extension) ----------------
    #: NVMe-class read/write service times and queue depth.
    ssd_read_seconds: float = 65e-6
    ssd_write_seconds: float = 25e-6
    ssd_concurrency: int = 8

    #: Drive timing model factory.
    drive_timing: DriveTiming = field(default_factory=SimulatorTiming)

    #: In-enclave footprint besides caches (binary + runtime buffers).
    fixed_enclave_bytes: int = 17 * 1024 * 1024


def paper_ratio_caches(record_count: int, value_size: int):
    """Cache budgets scaled to the dataset like the paper's defaults.

    The paper pairs a ~100 MB working set (100 k x 1 KB) with a ~48 MB
    object cache, a 600 KB key cache, and a 5 MB policy cache (§4.2).
    Benchmarks here run smaller datasets for wall-clock reasons, so
    the object/key budgets scale with the dataset to preserve hit
    rates; the policy budget stays absolute (Fig. 8 controls the
    policy cache's *entry count* explicitly).
    """
    from repro.core.cache import CacheConfig

    dataset = record_count * value_size
    return CacheConfig(
        object_bytes=max(1 << 20, int(dataset * 0.48)),
        key_bytes=max(16 << 10, record_count * 6),
        policy_bytes=5 << 20,
    )


def make_config(
    mode: str,
    backend: str,
    num_drives: int = 3,
    shared_enclosure: bool = True,
    **overrides,
) -> SystemConfig:
    """Build one of the four evaluation configurations.

    ``mode``: ``"native"`` or ``"sgx"``.  ``backend``: ``"sim"`` or
    ``"disk"``.  ``shared_enclosure`` applies to the disk backend only
    and models all drives sharing one enclosure uplink (the Fig. 3
    wiring); Fig. 5 gives every controller its own port.
    """
    if mode == "native":
        cost, replica_cpu = NATIVE_COSTS, 0.0
    elif mode == "sgx":
        # Fig. 7: Pesos loses ~30 % on the first added replica.
        cost, replica_cpu = SGX_COSTS, 48e-6
    else:
        raise ValueError(f"unknown mode {mode!r}")

    if backend not in (SIM_BACKEND, DISK_BACKEND):
        raise ValueError(f"unknown backend {backend!r}")
    config = SystemConfig(
        name=f"{mode}-{backend}",
        cost=cost,
        backend=backend,
        num_drives=num_drives,
        replica_write_cpu=replica_cpu,
    )
    if backend == DISK_BACKEND:
        config = replace(
            config,
            drive_timing=HddTiming(),
            drive_bandwidth=1.17e8,  # 1 GbE to the enclosure
            # One frame at a time: Fig. 3's ~1,080 IOP/s plateau.
            enclosure_per_op=1.0e-3 if shared_enclosure else 0.0,
        )
    return replace(config, **overrides) if overrides else config
