"""The seeded scripted run behind the exposition golden.

One controller with everything that publishes state switched on — a
live ``Telemetry`` with an SLO engine, the audit chain, the SSD tier,
freshness, an admission gate, the DES system model — driven through
``WebServer.handle_bytes`` / ``handle_batch`` with explicit virtual
times, then scraped over the admin surface.  Every value that reaches
a payload is a function of the script (spans run on the model's
virtual clock), except the three wall-clock ``*_seconds`` histograms,
which :func:`run_scenario` filters out.

``tests/telemetry/golden/`` holds the payloads this script produced at
commit 8bef8ef (the parent of the one-registration / one-audit-chain
change); ``test_exposition_golden.py`` requires the tree to reproduce
them.  Regenerate, on purpose only, with::

    PYTHONPATH=src python -m tests.telemetry.exposition_scenario --write
"""

import json
import sys
from pathlib import Path

from repro.bench.configs import make_config
from repro.bench.model import SystemModel
from repro.core.admission import AdmissionConfig, AdmissionController
from repro.core.cache import CacheConfig
from repro.core.controller import ControllerConfig, PesosController
from repro.core.request import (
    Request,
    build_http_request,
    parse_http_response,
)
from repro.core.webserver import WebServer
from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive
from repro.sgx.attestation import SgxPlatform
from repro.sgx.enclave import EnclaveBinary
from repro.sim import Environment
from repro.telemetry import Telemetry
from repro.telemetry.slo import SloEngine

GOLDEN_DIR = Path(__file__).parent / "golden"

ALICE, EVE, BURST = "fp-alice", "fp-eve", "fp-burst"

#: Histograms fed from ``time.perf_counter``: the only families of the
#: run that differ between two executions of the same script.
WALL_CLOCK_FAMILIES = (
    "pesos_drive_op_seconds",
    "pesos_policy_check_seconds",
    "pesos_policy_compile_seconds",
)


def _admin(server, path: str) -> bytes:
    raw = server.handle_bytes(f"GET {path} HTTP/1.1\r\n\r\n".encode(), ALICE)
    return raw.split(b"\r\n\r\n", 1)[1]


def _strip_wall_clock_text(text: str) -> str:
    kept = []
    for line in text.splitlines():
        name = line.split(" ", 3)[2] if line.startswith("#") else line
        if not name.startswith(WALL_CLOCK_FAMILIES):
            kept.append(line)
    return "\n".join(kept) + "\n"


def _strip_wall_clock_json(text: str) -> str:
    families = json.loads(text)
    for name in WALL_CLOCK_FAMILIES:
        families.pop(name, None)
    return json.dumps(families, indent=2, sort_keys=True) + "\n"


def run_scenario() -> dict:
    """Run the script; return ``{golden file name: payload text}``."""
    telemetry = Telemetry()
    telemetry.attach_slo(SloEngine())
    cluster = DriveCluster(num_drives=3)
    controller = PesosController(
        cluster.connect_all(KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY),
        storage_key=b"k" * 32,
        config=ControllerConfig(
            replication_factor=3,
            write_quorum=2,
            ssd_cache_entries=32,
            audit_log_size=48,
            # Small enough that the run evicts: reads fall through to
            # the SSD tier and to verified drive reads.
            cache=CacheConfig(object_bytes=160, key_bytes=700),
        ),
        telemetry=telemetry,
        enclave=SgxPlatform("golden-host").launch(
            EnclaveBinary(name="pesos", content=b"controller v1")
        ),
    )
    env = Environment()
    model = SystemModel(
        env, controller, make_config("sgx", "sim"), seed=7,
        telemetry=telemetry,
    )
    server = WebServer(
        controller,
        admission=AdmissionController(
            AdmissionConfig(
                queue_depth=4, rate_per_second=40.0, burst=5.0, seed=3
            )
        ),
    )
    clock = iter(round(0.25 * step, 2) for step in range(1, 10_000))

    def send(request: Request, fingerprint: str = ALICE, now=None):
        raw = server.handle_bytes(
            build_http_request(request),
            fingerprint,
            next(clock) if now is None else now,
        )
        return parse_http_response(raw)

    policy_id = send(
        Request(
            method="put_policy",
            value=(
                f"read :- sessionKeyIs(k'{ALICE}')\n"
                f"update :- sessionKeyIs(k'{ALICE}')\n"
                f"delete :- sessionKeyIs(k'{ALICE}')"
            ).encode(),
        )
    ).policy_id
    for index in range(6):
        send(Request(method="put", key=f"doc{index}", policy_id=policy_id,
                     value=bytes([65 + index]) * (48 + 16 * index)))
    send(Request(method="put", key="open", value=b"no policy"))
    for key in ("doc0", "doc1", "doc0", "open", "absent"):
        send(Request(method="get", key=key))
    send(Request(method="get", key="doc2"), EVE)
    send(Request(method="put", key="doc2", value=b"overwrite"), EVE)
    send(Request(method="put", key="doc0", value=b"second version",
                 policy_id=policy_id))
    send(Request(method="get", key="doc0", version=0))
    send(Request(method="scan", key="doc", scan_count=4))
    send(Request(method="rmw", key="doc3", value=b"rmw", policy_id=policy_id))
    send(Request(method="delete", key="doc5"))
    send(Request(method="get", key="doc5"))
    send(Request(method="bogus", key="doc0"))

    txid = send(Request(method="create_tx")).txid
    send(Request(method="add_write", key="doc1", value=b"tx-a", txid=txid))
    send(Request(method="add_write", key="tx-new", value=b"tx-b", txid=txid,
                 policy_id=policy_id))
    send(Request(method="add_read", key="doc4", txid=txid))
    send(Request(method="commit_tx", txid=txid))
    send(Request(method="tx_results", txid=txid))

    operation_id = send(
        Request(method="put", key="later", value=b"async", asynchronous=True)
    ).operation_id
    send(Request(method="status", operation_id=operation_id))

    # One replica down: a quorum-2 write is acknowledged degraded and
    # journalled, the breaker opens, health reports it.
    cluster.drive(1).fail()
    for index in range(4):
        send(Request(method="put", key=f"deg{index}", value=b"degraded"))
    send(Request(method="get", key="doc4"))

    # A burst at one virtual instant drains the session's bucket: the
    # synchronous gate sheds (429) and audits each refusal.
    burst_at = next(clock)
    for _ in range(9):
        send(Request(method="get", key="open"), BURST, now=burst_at)

    # The same gate behind the engine: a 4-deep queue under 14 requests.
    batch_at = next(clock)
    server.handle_batch(
        [
            (
                build_http_request(
                    Request(method="put", key=f"b{index}", value=b"batch")
                    if index % 3 == 0
                    else Request(method="get", key=f"doc{index % 5}")
                ),
                f"fp-batch{index % 7}",
            )
            for index in range(14)
        ]
        + [(b"not http at all", ALICE)],
        seed=11,
        workers=2,
        now=batch_at,
    )

    # The replica returns; one anti-entropy pass drains part of the
    # journal, reads after it see a half-open breaker close.
    cluster.drive(1).recover()
    controller.anti_entropy.run_once(max_keys=3)
    for key in ("deg0", "doc1", "doc4"):
        send(Request(method="get", key=key))
    # ... and another goes, so the scrape shows a fleet in three states.
    cluster.drive(2).fail()
    send(Request(method="put", key="deg-last", value=b"degraded"))

    # A few requests through the DES model, so its layer gauge (and the
    # tracer's virtual clock) move.
    def client():
        for index in range(5):
            request = Request(method="get", key=f"doc{index % 3}")
            yield from model.request(
                lambda request=request: controller.handle(
                    request, ALICE, env.now
                ),
                96,
            )

    env.process(client())
    env.run()

    return {
        "metrics.txt": _strip_wall_clock_text(
            _admin(server, "/_metrics").decode()
        ),
        "metrics.json": _strip_wall_clock_json(
            _admin(server, "/_metrics?format=json").decode()
        ),
        "slo.txt": _admin(server, "/_slo?format=prometheus").decode(),
        "audit.json": _admin(server, "/_audit?limit=48&verify=1").decode(),
        "health.json": _admin(server, "/_health").decode(),
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, payload in run_scenario().items():
        (GOLDEN_DIR / name).write_text(payload)
