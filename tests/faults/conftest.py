"""Shared chaos-test fixtures.

``CHAOS_SEED`` parameterizes the whole suite from the environment so
CI can sweep seeds (three fixed ones in the chaos job) without any
test edits; locally it defaults to 0.

:func:`chaos_stack` builds the full resilient stack — fault-wrapped
cluster, retrying clients, quorum-aware controller — in one call.
"""

import os
from dataclasses import dataclass

from repro.core.controller import ControllerConfig, PesosController
from repro.faults import FaultInjector
from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive
from repro.kinetic.retry import RetryPolicy
from repro.sgx.attestation import SgxPlatform
from repro.sgx.enclave import EnclaveBinary

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

FP = "fp-chaos"

#: The controller binary every chaos enclave runs.
BINARY = EnclaveBinary(name="pesos", content=b"chaos controller")


@dataclass
class ChaosStack:
    """Everything one chaos scenario touches."""

    cluster: DriveCluster
    injector: FaultInjector
    clients: list
    controller: PesosController
    #: Where the controller's enclave runs; a restart reuses it.
    platform: SgxPlatform


def chaos_stack(
    num_drives: int = 3,
    specs=None,
    seed: int = CHAOS_SEED,
    retry_policy: RetryPolicy | None = RetryPolicy(),
    telemetry=None,
    platform=None,
    **config_overrides,
) -> ChaosStack:
    """Build cluster → wrap with faults → connect → controller.

    ``specs`` follows :meth:`FaultInjector.wrap_cluster`: one spec for
    every drive, or a dict of drive index to spec.  Drives whose
    schedule starts offline are tolerated (degraded bootstrap).

    ``platform`` (a fresh one when omitted: its pin slot belongs to
    this fleet) launches the controller's enclave, which freshness
    needs; :func:`restart_controller` on the same platform models a
    restart on surviving hardware.
    """
    platform = platform or SgxPlatform("chaos-host")
    cluster = DriveCluster(num_drives=num_drives)
    injector = FaultInjector(seed=seed)
    injector.wrap_cluster(cluster, specs)
    clients = cluster.connect_all(
        KineticDrive.DEMO_IDENTITY,
        KineticDrive.DEMO_KEY,
        allow_degraded=True,
        retry_policy=retry_policy,
        telemetry=telemetry,
    )
    controller = PesosController(
        clients,
        storage_key=b"chaos-key".ljust(32, b"\0"),
        config=ControllerConfig(**config_overrides),
        telemetry=telemetry,
        enclave=platform.launch(BINARY),
    )
    return ChaosStack(
        cluster=cluster,
        injector=injector,
        clients=clients,
        controller=controller,
        platform=platform,
    )


def restart_controller(
    stack: ChaosStack,
    platform=None,
    telemetry=None,
    **config_overrides,
) -> PesosController:
    """Model a controller restart over the surviving drive fleet.

    A fresh controller (fresh caches, fresh sessions) bootstraps
    against the stack's existing fault-wrapped cluster.  On the
    original ``platform`` (the default) the new enclave finds the
    monotonic counter and the pin slot its predecessor left — which is
    what makes fork detection possible.
    """
    platform = platform or stack.platform
    clients = stack.cluster.connect_all(
        KineticDrive.DEMO_IDENTITY,
        KineticDrive.DEMO_KEY,
        allow_degraded=True,
        retry_policy=RetryPolicy(),
        telemetry=telemetry,
    )
    controller = PesosController(
        clients,
        storage_key=b"chaos-key".ljust(32, b"\0"),
        config=ControllerConfig(**config_overrides),
        telemetry=telemetry,
        enclave=platform.launch(BINARY),
    )
    stack.clients = clients
    stack.controller = controller
    return controller
