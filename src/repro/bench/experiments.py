"""One entry point per table/figure of the paper's evaluation (§6).

Every function returns a :class:`~repro.bench.report.FigureResult`
whose series reproduce the corresponding figure's lines.  Wall-clock
cost is controlled by ``REPRO_BENCH_SCALE`` (default 1.0): record and
operation counts scale linearly with it, virtual-time rates do not
depend on it beyond sampling noise.

Scale note: the paper runs 100 k records / 100 k operations; the
default here is 10 k/10 k with cache budgets scaled to preserve hit
rates (see ``paper_ratio_caches``), which reproduces every reported
ratio while keeping the full suite in minutes.
"""

from __future__ import annotations

import os
from dataclasses import replace

from repro.bench.configs import make_config, paper_ratio_caches
from repro.bench.harness import (
    BENCH_BINARY,
    ExperimentResult,
    LoadedSystem,
    _default_executor,
    build_system,
    run_point,
)
from repro.bench.report import FigureResult
from repro.bench.trajectory import record as record_trajectory
from repro.usecases.versioned import versioned_policy
from repro.ycsb.workload import READ, WORKLOAD_A, WorkloadSpec

#: Client counts for throughput/latency sweeps (the paper uses 1-300).
CLIENT_SWEEP = [1, 20, 50, 100, 200, 300]


def bench_scale() -> float:
    """Current wall-clock scale factor (read per call, not at import)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def _scaled(value: int, floor: int = 500) -> int:
    return max(floor, int(value * bench_scale()))


def _workload(records=10_000, ops=10_000, value_size=1024) -> WorkloadSpec:
    return WORKLOAD_A.scaled(
        record_count=_scaled(records),
        operation_count=_scaled(ops),
        value_size=value_size,
    )


def _measure_ops(base: int = 3000) -> int:
    return _scaled(base, floor=800)


OPEN_POLICY = "read :- sessionKeyIs(K)\nupdate :- sessionKeyIs(K)"


def _record_fig3(update: dict, preserve: tuple) -> None:
    """Merge ``update`` into the fig3 trajectory entry.

    ``trajectory.record`` replaces ``latest`` wholesale, but fig3 is
    fed by independent experiments (the throughput sweep and the
    freshness-overhead run); each preserves the other's keys —
    selected by the ``preserve`` prefix tuple — so no run erases the
    metrics it did not measure.
    """
    from repro.bench.trajectory import load

    existing = (load("fig3") or {}).get("latest", {})
    merged = {
        key: value
        for key, value in existing.items()
        if key.startswith(preserve)
    }
    merged.update(update)
    record_trajectory("fig3", merged)


# ---------------------------------------------------------------------------
# Fig. 3 + Fig. 4: throughput and latency vs number of clients
# ---------------------------------------------------------------------------

def fig3_fig4(clients=None) -> tuple[FigureResult, FigureResult]:
    """Throughput (Fig. 3) and latency (Fig. 4) for the four configs."""
    clients = clients or CLIENT_SWEEP
    fig3 = FigureResult(
        figure="Fig3",
        title="Throughput vs clients (YCSB-A, 1 KB)",
        x_label="clients",
        paper_notes=[
            "native-sim peaks ~95 kIOP/s, pesos-sim ~85 kIOP/s (>=85%)",
            "disk backend saturates ~1,080 IOP/s (seek-bound drives)",
        ],
    )
    fig4 = FigureResult(
        figure="Fig4",
        title="Mean latency vs clients (YCSB-A, 1 KB)",
        x_label="clients",
        paper_notes=[
            "~0.5-0.9 ms vs the simulator until saturation, then linear",
            "disk latency grows from a single client onwards",
        ],
        default_metric="latency_ms",
    )
    for mode in ("native", "sgx"):
        for backend in ("sim", "disk"):
            config = make_config(mode, backend)
            loaded = build_system(
                config, workload=_workload(), policy_source=OPEN_POLICY
            )
            ops = _measure_ops(3000 if backend == "sim" else 1800)
            for n in clients:
                result = run_point(loaded, n, measure_ops=ops)
                fig3.add(config.name, n, result)
                fig4.add(config.name, n, result)
    _record_fig3(
        {
            f"peak_kiops_{name}": round(fig3.peak(name) / 1000.0, 2)
            for name in fig3.series
        },
        preserve=("freshness_",),
    )
    return fig3, fig4


# ---------------------------------------------------------------------------
# Freshness: crypto-work overhead of pinned-leaf metadata reads
# ---------------------------------------------------------------------------

def freshness_overhead(
    keys: int = 32, rounds: int = 4, value_size: int = 4096
) -> dict:
    """Crypto-work overhead of rollback-protected reads.

    Two identical stores run the same workload — one with a freshness
    authority pinned to a monotonic counter, one without — and the
    overhead is the ratio of *crypto bytes processed* during the
    measured (read-only, after one warm-up round) phase: AEAD payloads
    opened, plus on the protected side Merkle/leaf hashing and pin
    sealing.  Counting bytes instead of wall time makes the recorded
    figure a pure function of the workload, so the committed BENCH
    entry regenerates byte-identically on any machine.  The budget is
    <= 10% (docs/freshness.md).  A read looks its leaf up in the
    in-enclave tree without hashing, so the cost is one SHA-256 over
    each metadata record, and the overhead shrinks as objects grow.
    """
    from repro.core.effects import DECRYPT, ENCRYPT, EffectsRecorder
    from repro.core.freshness import FreshnessAuthority
    from repro.core.store import ObjectStore, StoredMeta
    from repro.kinetic.cluster import DriveCluster
    from repro.kinetic.drive import KineticDrive
    from repro.sgx.attestation import SgxPlatform

    def build(with_freshness: bool):
        cluster = DriveCluster(num_drives=3)
        clients = cluster.connect_all(
            KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
        )
        effects = EffectsRecorder()
        store = ObjectStore(
            clients,
            b"bench-freshness-key".ljust(32, b"\0"),
            replication_factor=2,
            effects=effects,
        )
        authority = None
        if with_freshness:
            enclave = SgxPlatform("bench-host").launch(BENCH_BINARY)
            authority = FreshnessAuthority(enclave)
            authority.bootstrap(store)
            store.freshness = authority
        return store, effects, authority

    def measure(store, effects, authority):
        metas = {}
        for index in range(keys):
            key = f"bench/{index:04d}"
            value = bytes((index + j) % 251 for j in range(value_size))
            metas[key] = store.store_version(StoredMeta(key=key), value, "")
        # Warm-up round: both stores play it, so both enter the
        # measurement identically.
        for key, meta in metas.items():
            store.read_meta(key)
            store.read_value(key, meta.current_version)
        effects.drain()
        if authority is not None:
            marks = (
                authority.tree.hash_bytes,
                authority.seal_bytes,
                authority.leaf_hash_bytes,
            )
        for _ in range(rounds):
            for key, meta in metas.items():
                store.read_meta(key)
                store.read_value(key, meta.current_version)
        aead_bytes = sum(
            event[1]
            for event in effects.drain()
            if event[0] in (ENCRYPT, DECRYPT)
        )
        extra_bytes = 0
        if authority is not None:
            extra_bytes = (
                (authority.tree.hash_bytes - marks[0])
                + (authority.seal_bytes - marks[1])
                + (authority.leaf_hash_bytes - marks[2])
            )
        return aead_bytes, extra_bytes

    base_aead, _zero = measure(*build(with_freshness=False))
    store, effects, authority = build(with_freshness=True)
    fresh_aead, extra = measure(store, effects, authority)
    overhead_pct = round(
        100.0 * (fresh_aead + extra - base_aead) / base_aead, 2
    )
    result = {
        "freshness_overhead_pct": overhead_pct,
        "freshness_pins": authority.pins,
        "freshness_epoch": authority.epoch,
    }
    _record_fig3(result, preserve=("peak_kiops_",))
    return result


# ---------------------------------------------------------------------------
# Fig. 5: scalability with the number of disks (one controller each)
# ---------------------------------------------------------------------------

def _aggregate(config_name: str, results: list) -> ExperimentResult:
    """Combine independent instances into one summed data point."""
    total = sum(result.throughput for result in results)
    mean_latency = sum(
        result.mean_latency * result.operations for result in results
    ) / sum(result.operations for result in results)
    return ExperimentResult(
        config=config_name,
        clients=sum(result.clients for result in results),
        throughput=total,
        mean_latency=mean_latency,
        p50_latency=results[0].p50_latency,
        p99_latency=max(result.p99_latency for result in results),
        operations=sum(result.operations for result in results),
    )


def fig5_scalability(max_disks: int = 3) -> FigureResult:
    """One Pesos instance per disk, 1-3 disks (paper hardware limit)."""
    figure = FigureResult(
        figure="Fig5",
        title="Scalability with number of disks (1 KB)",
        x_label="disks",
        paper_notes=[
            "sim: 95->280 kIOP/s native, 89->242 kIOP/s pesos (near-linear)",
            "disk: 818->2,427 IOP/s native, 823->2,439 IOP/s pesos",
        ],
    )
    for mode in ("native", "sgx"):
        for backend in ("sim", "disk"):
            clients_per_instance = 200 if backend == "sim" else 100
            ops = _measure_ops(2500 if backend == "sim" else 1500)
            instance_results: list = []
            for count in range(1, max_disks + 1):
                config = make_config(
                    mode, backend, num_drives=1, shared_enclosure=False
                )
                loaded = build_system(
                    config,
                    workload=_workload(records=6000, ops=6000),
                    policy_source=OPEN_POLICY,
                    seed=40 + count,
                )
                instance_results.append(
                    run_point(
                        loaded,
                        clients_per_instance,
                        measure_ops=ops,
                        seed=90 + count,
                    )
                )
                figure.add(
                    f"{mode}-{backend}",
                    count,
                    _aggregate(f"{mode}-{backend}", instance_results[:count]),
                )
    return figure


# ---------------------------------------------------------------------------
# Fig. 6: payload-size sweep  +  §6.2 encryption overhead
# ---------------------------------------------------------------------------

PAYLOAD_SIZES = [128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536]


def fig6_payload(sizes=None, clients: int = 100) -> FigureResult:
    figure = FigureResult(
        figure="Fig6",
        title="Throughput vs payload size (100 clients)",
        x_label="bytes",
        paper_notes=[
            "105 kIOP/s at 128 B; gradual decline past 256 B",
            "pesos within ~4% of native below 4 KB",
        ],
    )
    for mode in ("native", "sgx"):
        config = make_config(mode, "sim")
        for size in sizes or PAYLOAD_SIZES:
            records = max(400, min(_scaled(10_000), (8 << 20) // size))
            workload = WORKLOAD_A.scaled(
                record_count=records,
                operation_count=records,
                value_size=size,
            )
            loaded = build_system(
                config, workload=workload, policy_source=OPEN_POLICY
            )
            result = run_point(
                loaded, clients, measure_ops=_measure_ops(2000)
            )
            figure.add(config.name, size, result)
    return figure


def encryption_overhead(clients=(1, 100, 300)) -> FigureResult:
    """§6.2 text: payload encryption costs ~1.5% at 1 KB.

    The comparison zeroes the *charged* AES-GCM cost; the functional
    path still encrypts (turning it off would corrupt the store).
    """
    figure = FigureResult(
        figure="Enc",
        title="Payload-encryption overhead (Pesos vs simulator, 1 KB)",
        x_label="clients",
        paper_notes=["~1.5% overhead across 1-300 clients at 1 KB"],
    )
    base = make_config("sgx", "sim")
    no_encryption = replace(
        base,
        name="sgx-sim-noenc",
        cost=replace(base.cost, encrypt_fixed=0.0, encrypt_per_byte=0.0),
    )
    for config in (base, no_encryption):
        loaded = build_system(
            config, workload=_workload(), policy_source=OPEN_POLICY
        )
        for n in clients:
            figure.add(
                config.name, n, run_point(loaded, n, measure_ops=_measure_ops())
            )
    return figure


# ---------------------------------------------------------------------------
# Fig. 7: replication
# ---------------------------------------------------------------------------

def fig7_replication(max_disks: int = 4, clients: int = 200) -> FigureResult:
    figure = FigureResult(
        figure="Fig7",
        title="Replication to all disks (simulator backend)",
        x_label="disks",
        paper_notes=[
            "native loses ~12% per added replica",
            "pesos drops ~30% from 1->2 disks, ~13% per further disk",
        ],
    )
    for mode in ("native", "sgx"):
        for count in range(1, max_disks + 1):
            config = make_config(mode, "sim", num_drives=count)
            config = replace(config, replication_factor=count)
            loaded = build_system(
                config,
                workload=_workload(records=8000, ops=8000),
                policy_source=OPEN_POLICY,
            )
            figure.add(
                f"{mode}-sim",
                count,
                run_point(loaded, clients, measure_ops=_measure_ops()),
            )
    return figure


# ---------------------------------------------------------------------------
# Fig. 8: policy-to-object mapping vs the policy cache
# ---------------------------------------------------------------------------

def _distinct_policy(index: int) -> str:
    # Distinct constant -> distinct compiled hash, same evaluation cost.
    return (
        f"read :- sessionKeyIs(K) /\\ ge({index}, {index})\n"
        f"update :- sessionKeyIs(K)"
    )


def fig8_policy_cache(policy_counts=None, clients: int = 200) -> FigureResult:
    """Unique-policy sweep; cache bounded at half the object count.

    The paper uses 100 k objects with a 50 k-entry policy cache; at
    scale 1.0 this runs 10 k objects with a 5 k-entry cache — same
    ratio, same cliff past the cache size.
    """
    records = _scaled(10_000)
    cache_entries = records // 2
    policy_counts = policy_counts or [
        1,
        records // 10,
        cache_entries // 2,
        cache_entries,
        int(cache_entries * 1.2),
        int(cache_entries * 1.6),
        records,
    ]
    figure = FigureResult(
        figure="Fig8",
        title=f"Policies per {records} objects (cache={cache_entries})",
        x_label="policies",
        paper_notes=[
            "<=5.5% overhead while policies fit the cache",
            "throughput declines once unique policies exceed cache size",
        ],
    )
    workload = WORKLOAD_A.scaled(
        record_count=records, operation_count=records
    )
    for mode in ("native", "sgx"):
        for count in policy_counts:
            config = make_config(mode, "sim")
            caches = paper_ratio_caches(records, workload.value_size)
            caches.policy_entries = cache_entries
            caches.policy_bytes = 512 << 20  # entry-bounded, not byte-bounded
            loaded = build_system(
                config, workload=workload, cache_config=caches
            )
            controller = loaded.controller
            policy_ids = [
                controller.put_policy("fp-bench", _distinct_policy(i)).policy_id
                for i in range(count)
            ]
            # Re-attach policies round-robin across the loaded objects.
            for index, key in enumerate(loaded.trace.load_keys):
                meta = controller._get_meta(key)
                meta.policy_id = policy_ids[index % count]
                controller.store.write_meta(meta)
            result = run_point(loaded, clients, measure_ops=_measure_ops())
            figure.add(f"{mode}-sim", count, result)
    return figure


# ---------------------------------------------------------------------------
# Fig. 9: versioned-storage use case
# ---------------------------------------------------------------------------

def fig9_versioned(clients=None) -> FigureResult:
    figure = FigureResult(
        figure="Fig9",
        title="Versioned storage vs no policy checking (simulator)",
        x_label="clients",
        paper_notes=[
            "pesos: 82 kIOP/s with version policy vs 84 kIOP/s without (-2.3%)",
        ],
    )
    clients = clients or [50, 100, 200, 300]
    for mode in ("native", "sgx"):
        config = make_config(mode, "sim")
        versioned = build_system(
            config,
            workload=_workload(),
            policy_source=versioned_policy(),
            version_aware=True,
        )
        baseline = build_system(
            config, workload=_workload(), enforce_policies=False
        )
        for n in clients:
            figure.add(
                f"{mode}-versioned",
                n,
                run_point(versioned, n, measure_ops=_measure_ops()),
            )
            figure.add(
                f"{mode}-baseline",
                n,
                run_point(baseline, n, measure_ops=_measure_ops()),
            )
    return figure


# ---------------------------------------------------------------------------
# Fig. 10: mandatory access logging granularity
# ---------------------------------------------------------------------------

def _mal_executor(granularity: int):
    """Op executor adding one log append every ``granularity`` writes."""
    state = {"count": 0, "entries": []}

    def executor(loaded: LoadedSystem, operation):
        controller = loaded.controller
        if operation.op != READ:
            state["count"] += 1
            if granularity and state["count"] % granularity == 0:
                # Append the batched intents to the shared log object
                # with direct store writes (the controller keeps the log
                # tail in-enclave; one backend write for value + one for
                # meta).
                log_meta = controller._get_meta("mal-log")
                from repro.core.store import StoredMeta

                if log_meta is None:
                    log_meta = StoredMeta(key="mal-log")
                entry = f"'write'('{operation.key}', {state['count']})\n"
                state["entries"].append(entry)
                state["entries"] = state["entries"][-32:]
                content = "".join(state["entries"]).encode()
                controller.store.store_version(log_meta, content, "")
                controller.caches.put_meta("mal-log", log_meta)
        return _default_executor(loaded, operation)

    return executor


def fig10_mal(granularities=None, clients: int = 200) -> FigureResult:
    """Write-only MAL workload; one log entry per G writes."""
    figure = FigureResult(
        figure="Fig10",
        title="MAL log granularity (write-only, simulator)",
        x_label="writes/log entry",
        paper_notes=[
            "G=1 -> ~50 kIOP/s; G=10 -> ~95% of baseline",
            "plateau ~66 kIOP/s pesos / ~77 kIOP/s native; baseline shown at G=0",
        ],
    )
    granularities = granularities or [0, 1, 2, 5, 10, 25, 50, 100]
    write_only = WorkloadSpec(
        "MAL",
        read_proportion=0.0,
        update_proportion=1.0,
        record_count=_scaled(10_000),
        operation_count=_scaled(10_000),
    )
    for mode in ("native", "sgx"):
        config = make_config(mode, "sim")
        loaded = build_system(
            config, workload=write_only, policy_source=OPEN_POLICY
        )
        for granularity in granularities:
            loaded.op_executor = _mal_executor(granularity)
            result = run_point(loaded, clients, measure_ops=_measure_ops())
            figure.add(f"{mode}-sim", granularity, result)
    return figure


# ---------------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md)
# ---------------------------------------------------------------------------

def ablation_syscalls(clients: int = 300) -> FigureResult:
    """Async vs synchronous (trap-per-call) syscall interface (§4.6)."""
    figure = FigureResult(
        figure="AblSyscall",
        title="Async vs sync syscall interface (Pesos, simulator)",
        x_label="variant",
        paper_notes=["Scone's async interface motivates the design"],
    )
    base = make_config("sgx", "sim")
    sync = replace(base, name="sgx-sim-sync", cost=base.cost.with_sync_syscalls())
    for config in (base, sync):
        loaded = build_system(
            config, workload=_workload(), policy_source=OPEN_POLICY
        )
        figure.add(
            config.name,
            "async" if config is base else "sync",
            run_point(loaded, clients, measure_ops=_measure_ops()),
        )
    return figure


def ablation_caches(clients: int = 300) -> FigureResult:
    """Controller caches on vs effectively off (§4.2)."""
    from repro.core.cache import CacheConfig

    figure = FigureResult(
        figure="AblCache",
        title="Cache regions: paper budgets vs minimal",
        x_label="variant",
        paper_notes=["caching eliminates serial disk accesses (§4.2)"],
    )
    config = make_config("sgx", "sim")
    for name, caches in (
        ("paper-budgets", None),
        (
            "minimal",
            CacheConfig(
                policy_bytes=64 << 10, object_bytes=64 << 10,
                key_bytes=16 << 10,
            ),
        ),
    ):
        loaded = build_system(
            config,
            workload=_workload(),
            policy_source=OPEN_POLICY,
            cache_config=caches,
        )
        figure.add(
            f"sgx-sim-{name}",
            name,
            run_point(loaded, clients, measure_ops=_measure_ops()),
        )
    return figure


def ablation_ssd(clients: int = 300) -> FigureResult:
    """The untrusted-SSD cache tier against slow Kinetic HDDs (§8).

    The SSD absorbs read misses that would otherwise pay a drive
    round-trip, lifting the disk-backend plateau — the paper's stated
    motivation for the extension.
    """
    figure = FigureResult(
        figure="AblSsd",
        title="Untrusted SSD cache tier (Pesos, Kinetic HDD backend)",
        x_label="variant",
        paper_notes=[
            "future work §8: SSD tier vs EPC limits and slow disks"
        ],
    )
    config = make_config("sgx", "disk")
    for label, entries in (("no-ssd", None), ("with-ssd", 1 << 20)):
        loaded = build_system(
            config,
            workload=_workload(),
            policy_source=OPEN_POLICY,
            ssd_cache_entries=entries,
        )
        figure.add(
            f"sgx-disk-{label}",
            label,
            run_point(loaded, clients, measure_ops=_measure_ops(1800)),
        )
    return figure


def ablation_epc(clients: int = 300) -> FigureResult:
    """EPC pressure: enclave working set within vs beyond the EPC."""
    figure = FigureResult(
        figure="AblEpc",
        title="EPC paging: fits vs overflows",
        x_label="variant",
        paper_notes=["EPC paging costs 2x-2000x (§2.1)"],
    )
    base = make_config("sgx", "sim")
    # Shrink the modeled EPC below the enclave footprint so every
    # request pays paging costs.
    tiny_epc = replace(
        base,
        name="sgx-sim-paging",
        cost=replace(base.cost, epc_limit=8 << 20),
    )
    for config, label in ((base, "fits-epc"), (tiny_epc, "overflows-epc")):
        loaded = build_system(
            config, workload=_workload(), policy_source=OPEN_POLICY
        )
        figure.add(
            config.name,
            label,
            run_point(loaded, clients, measure_ops=_measure_ops()),
        )
    return figure


# ---------------------------------------------------------------------------
# Concurrency sweep: the green-thread request engine (§4.6)
# ---------------------------------------------------------------------------

def concurrency_sweep(config=None) -> FigureResult:
    """Engine throughput vs hardware-thread count, in virtual time.

    Unlike the figures above, this experiment runs the real request
    path under the concurrent engine (:mod:`repro.bench.concurrency`)
    instead of the discrete-event model; workers=1 is the sequential
    baseline the speedups are measured against.
    """
    from repro.bench.concurrency import ConcurrencyConfig, run_concurrency_sweep

    config = config or ConcurrencyConfig()
    figure = FigureResult(
        figure="Concurrency",
        title="Request engine: throughput vs hardware threads",
        x_label="workers",
        paper_notes=[
            "Scone-style userspace threading hides drive latency (§4.6)"
        ],
    )
    points = run_concurrency_sweep(config)
    for point in points:
        figure.add(config.name, point.workers, point)
    baseline = points[0]
    best = max(points, key=lambda point: point.throughput)
    record_trajectory(
        "concurrency",
        {
            "kiops_sequential": round(baseline.kiops, 2),
            "kiops_peak": round(best.kiops, 2),
            "peak_workers": best.workers,
            "speedup": round(best.throughput / baseline.throughput, 3),
        },
    )
    return figure


# ---------------------------------------------------------------------------
# Overload sweep: admission control under excess offered load
# ---------------------------------------------------------------------------

def overload_sweep(config=None) -> FigureResult:
    """Goodput vs offered load (0.5x-4x capacity), shedding on and off.

    The "admission" series must degrade gracefully — goodput at the
    highest multiplier stays within 20% of the series peak with a
    bounded queue — while the unprotected series collapses as its
    queue grows (see :mod:`repro.bench.overload` for the model).
    """
    from repro.bench.overload import OverloadConfig, run_overload_sweep

    config = config or OverloadConfig()
    figure = FigureResult(
        figure="Overload",
        title="Admission control: goodput vs offered load",
        x_label="offered (x capacity)",
        default_metric="iops",
        paper_notes=[
            "TEE stores must shed, not queue: EPC pressure makes "
            "overload collapse superlinear"
        ],
    )
    from repro.bench.overload import degradation

    sweep = run_overload_sweep(config)
    for name, points in sweep.items():
        for point in points:
            figure.add(name, point.multiplier, point)
    protected = sweep["admission"]
    at_1x = min(protected, key=lambda p: abs(p.multiplier - 1.0))
    record_trajectory(
        "overload",
        {
            "goodput_peak": round(max(p.goodput for p in protected), 1),
            "goodput_at_max_x": round(
                max(protected, key=lambda p: p.multiplier).goodput, 1
            ),
            "degradation": round(degradation(protected), 4),
            "unprotected_degradation": round(
                degradation(sweep["no-admission"]), 4
            ),
            "p99_latency_ms_at_1x": round(at_1x.p99_latency * 1e3, 3),
            "acked_writes_lost": sum(p.acked_writes_lost for p in protected),
        },
    )
    return figure


def workload_realism(seed: int = 17) -> dict:
    """Arrival-curve scenarios + session-churn soak (BENCH_workload).

    See :mod:`repro.workload.bench`: steady / diurnal / flash-crowd /
    hot-key-storm arrival curves against the real admission + SLO
    stack, plus a million-lifecycle session-churn soak.  Records the
    headline trajectory itself.
    """
    from repro.workload.bench import run_workload_bench

    return run_workload_bench(seed=seed)
