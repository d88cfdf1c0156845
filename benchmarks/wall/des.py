"""DES side-by-side: the calibrated model's breakdown for the same trace.

Replays a workload's YCSB trace through ``repro.bench.harness`` (the
sgx-sim configuration, one closed-loop client) and returns
``SystemModel.breakdown()`` as shares, so the measured per-layer shares
can be printed next to the modelled ones and their difference recorded
as ``model_gap.<des_layer>``.
"""

from __future__ import annotations

from repro.bench.configs import make_config
from repro.bench.harness import build_system, run_point
from repro.bench.model import LAYERS as DES_LAYERS
from repro.core.cache import CacheConfig

from benchmarks.wall.spec import VALUE_SIZE, Workload
from benchmarks.wall.workloads import acl_policy, scaled_counts

#: The harness replays every operation under this one fingerprint.
_BENCH_CLIENT = "fp-bench"


def modelled_shares(
    workload: Workload, seed: int, seconds: float, scale: float
) -> dict:
    """Share of charged virtual service time per DES layer."""
    records, ops = scaled_counts(workload, seconds, scale)
    spec = workload.ycsb.scaled(
        record_count=records, operation_count=ops, value_size=VALUE_SIZE
    )
    loaded = build_system(
        make_config("sgx", "sim", replication_factor=3),
        workload=spec,
        policy_source=acl_policy(
            [_BENCH_CLIENT] + [f"fp-wall-client-{i}" for i in range(1, 4)]
        ),
        keep_history=True,
        cache_config=workload.cache or CacheConfig(),
        seed=seed,
    )
    # One warm-up op opens the model's measurement window; the rest of
    # the trace is the window.
    result = run_point(loaded, 1, measure_ops=ops - 1, warmup_ops=1)
    total = sum(result.breakdown.values())
    return {
        layer: (result.breakdown[layer] / total if total else 0.0)
        for layer in DES_LAYERS
    }


def measured_as_des_layers(per_layer: dict) -> dict:
    """Fold the measured layer shares onto the model's layer names.

    In-process calls have no network, enclosure or SSD tier, so those
    measure zero; the in-memory drive is ``drive_service`` and every
    other module is controller ``cpu``.
    """
    drive = per_layer["kinetic.drive.share"]["value"]
    shares = dict.fromkeys(DES_LAYERS, 0.0)
    shares["drive_service"] = drive
    shares["cpu"] = 1.0 - drive
    return shares


def model_gap(per_layer: dict, modelled: dict) -> dict:
    measured = measured_as_des_layers(per_layer)
    return {
        f"model_gap.{layer}": measured[layer] - modelled[layer]
        for layer in DES_LAYERS
    }
