#!/usr/bin/env python3
"""Scaling out: shards and the SSD cache tier.

Combines the two scalability mechanisms this reproduction implements:

1. §6.2 — multiple Pesos instances behind a load balancer, sharding
   the object space (ShardedPesos).
2. §8 future work — an untrusted local SSD as a fast cache tier with
   integrity and freshness protection (SsdCacheTier).

Run: ``python examples/sharded_deployment.py``
"""

from repro.core.controller import ControllerConfig, PesosController
from repro.core.request import Request
from repro.core.sharding import ShardedPesos
from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive

ALICE = "fp-alice"


def _instance(name: str) -> PesosController:
    cluster = DriveCluster(num_drives=2)
    clients = cluster.connect_all(
        KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
    )
    return PesosController(
        clients,
        storage_key=name.encode().ljust(32, b"\0"),
        config=ControllerConfig(ssd_cache_entries=4096),
    )


def main() -> None:
    # --- three shards behind a load balancer -------------------------------
    balancer = ShardedPesos([_instance(f"shard-{i}") for i in range(3)])

    policy = balancer.handle(
        Request(method="put_policy",
                value=f"read :- sessionKeyIs(K)\n"
                      f"update :- sessionKeyIs(k'{ALICE}')".encode()),
        ALICE,
    )
    print(f"policy broadcast to {len(balancer.shards)} shards: "
          f"{policy.policy_id[:12]}...")

    for index in range(30):
        balancer.handle(
            Request(method="put", key=f"obj-{index}",
                    value=f"payload {index}".encode(),
                    policy_id=policy.policy_id),
            ALICE,
        )
    print(f"30 objects spread as {balancer.routed} requests/shard")

    response = balancer.handle(Request(method="get", key="obj-7"), ALICE)
    print(f"read through the balancer: {response.value!r}")

    # --- SSD tier in action on one shard ---------------------------------------
    shard = balancer.shard_for("obj-7")
    shard.caches.objects.clear()  # drop the enclave cache
    balancer.handle(Request(method="get", key="obj-7"), ALICE)
    print(f"SSD tier hits on obj-7's shard: {shard.ssd_cache.stats.hits}")


if __name__ == "__main__":
    main()
