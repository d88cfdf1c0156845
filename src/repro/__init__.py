"""Pesos: Policy Enhanced Secure Object Store — full reproduction.

Reproduces Krahn et al., *Pesos: Policy Enhanced Secure Object Store*
(EuroSys 2018): a policy-enforcing object store whose controller runs
inside an SGX enclave and persists data on Ethernet-attached Kinetic
drives.  See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-vs-measured results.

Quick start::

    from repro import PesosController, DriveCluster, KineticDrive

    cluster = DriveCluster(num_drives=3)
    clients = cluster.connect_all(
        KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
    )
    controller = PesosController(clients, storage_key=b"k" * 32)

    policy = controller.put_policy(
        "fp-alice", "read :- sessionKeyIs(k'fp-alice')\n"
                    "update :- sessionKeyIs(k'fp-alice')"
    )
    controller.put("fp-alice", "diary", b"...", policy_id=policy.policy_id)
    assert controller.get("fp-bob", "diary").status == 403

Package map:

- :mod:`repro.core` — the controller (the paper's contribution).
- :mod:`repro.policy` — the declarative policy language + engine.
- :mod:`repro.kinetic` — Kinetic drives, protocol, client library.
- :mod:`repro.sgx` — shielded execution: attestation, EPC, syscalls.
- :mod:`repro.crypto` — one AEAD, RSA, certificates, secure channels.
- :mod:`repro.usecases` — content server, time capsules, versioned
  storage, mandatory access logging (§5).
- :mod:`repro.ycsb` — workload generation (§6.1).
- :mod:`repro.bench` — the evaluation harness (§6).
- :mod:`repro.sim` — the discrete-event simulation kernel.
"""

from repro.core.controller import ControllerConfig, PesosController
from repro.core.request import Request, Response
from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive
from repro.policy.compiler import compile_policy

__version__ = "1.0.0"

__all__ = [
    "ControllerConfig",
    "DriveCluster",
    "KineticDrive",
    "PesosController",
    "Request",
    "Response",
    "compile_policy",
    "__version__",
]
