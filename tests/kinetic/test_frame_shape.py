"""What a drive round trip is built from, checked on the source.

Every HMAC on the Kinetic wire and in ``StreamAead`` is a
``HmacSha256`` keyed once by whoever holds the secret, so neither the
Kinetic package nor the AEAD calls the ``hmac`` module's per-call
``digest``/``new``; the drive dispatches through a table, not a name it
builds per request.  The wall benchmark's tracer (``benchmarks/wall/
layers.py``) wraps entry points by name where they are defined, so they
must stay defined there.
"""

import ast
from pathlib import Path

import pytest

from repro.core.store import ObjectStore, StoredMeta
from repro.crypto.aead import HmacSha256, StreamAead
from repro.kinetic import protocol
from repro.kinetic.client import KineticClient
from repro.kinetic.cluster import DriveCluster
from repro.kinetic.drive import KineticDrive
from repro.kinetic.protocol import Message, MessageType

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
ROUND_TRIP_SOURCES = sorted((SRC / "kinetic").glob("*.py")) + [
    SRC / "crypto" / "aead.py"
]


def _per_call_hmac(tree: ast.AST) -> list:
    """Calls of ``hmac.digest``/``hmac.new``, under any import spelling."""
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "hmac"}
        elif isinstance(node, ast.ImportFrom) and node.module == "hmac":
            functions |= {
                a.asname or a.name for a in node.names
                if a.name in ("digest", "new")
            }
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ("digest", "new")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in modules
            or isinstance(node.func, ast.Name) and node.func.id in functions
        )
    ]


@pytest.mark.parametrize(
    "path", ROUND_TRIP_SOURCES, ids=lambda path: path.name
)
def test_no_per_call_hmac_on_the_round_trip(path):
    assert _per_call_hmac(ast.parse(path.read_text())) == []


def test_the_check_sees_every_spelling():
    for source in (
        "import hmac\nhmac.digest(k, m, 'sha256')",
        "import hmac as h\nh.new(k)",
        "from hmac import digest\ndigest(k, m, 'sha256')",
    ):
        assert _per_call_hmac(ast.parse(source)), source


def test_drive_dispatches_through_a_table():
    tree = ast.parse((SRC / "kinetic" / "drive.py").read_text())
    handle = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "handle"
    )
    for node in ast.walk(handle):
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "getattr":
            assert not any(isinstance(a, ast.JoinedStr) for a in node.args)


#: What ``benchmarks/wall/layers.py`` wraps, by owner.
WRAPPED = [
    (Message, ("sign", "verify", "encode", "decode", "command_bytes")),
    (KineticClient, ("get", "put", "delete", "get_key_range", "get_version")),
    (KineticDrive, ("handle",)),
    (StreamAead, ("seal", "open")),
    (StoredMeta, ("encode", "decode")),
    (protocol, ("encode_fields",)),
]


@pytest.mark.parametrize(
    "owner, names", WRAPPED, ids=lambda value: getattr(value, "__name__", "")
)
def test_traced_entry_points_stay_where_the_tracer_looks(owner, names):
    for name in names:
        assert name in vars(owner), f"{owner.__name__}.{name}"


def test_a_command_is_encoded_through_the_module_global(monkeypatch):
    """The tracer counts ``encode_fields`` by replacing the module global:
    one call per command encoded, none when a frame is decoded."""
    calls = []
    original = protocol.encode_fields

    def counted(fields):
        calls.append(fields)
        return original(fields)

    monkeypatch.setattr(protocol, "encode_fields", counted)
    mac = HmacSha256(b"k")
    wire = Message(MessageType.GET, "demo", 1, {"key": b"k"}).sign(mac).encode()
    assert len(calls) == 1
    assert Message.decode(wire).verify(mac)
    assert len(calls) == 1


def test_a_mutation_is_encoded_once_for_all_its_replicas(monkeypatch):
    """An RF 3 ``store_version`` encodes its ``COMMIT`` body once, through
    the module global; each replica's frame still carries that client's
    own sequence and authenticates at its drive."""
    cluster = DriveCluster(num_drives=3)
    clients = cluster.connect_all(KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY)
    store = ObjectStore(clients, b"k" * 32, replication_factor=3)
    bodies, frames = [], []
    original = protocol.encode_fields

    def counted(fields):
        if "ops" in fields:
            bodies.append(fields)
        return original(fields)

    monkeypatch.setattr(protocol, "encode_fields", counted)
    for drive in cluster.drives:
        def handle(request, drive=drive, inner=drive.handle):
            if request.message_type == MessageType.COMMIT:
                mac = drive._accounts[request.identity].mac
                frames.append((drive.drive_id, request.sequence, request.verify(mac)))
            return inner(request)

        monkeypatch.setattr(drive, "handle", handle)
    store.store_version(StoredMeta(key="obj"), b"value", "")
    assert len(bodies) == 1
    assert sorted(frames) == sorted(
        (client.drive.drive_id, client._sequence, True) for client in clients
    )
    assert store.read_value("obj", 0) == b"value"


def test_a_prebuilt_body_is_the_signed_body():
    """A command built from an encoded body signs the bytes its fields
    would, and stops verifying once its body changes."""
    mac = HmacSha256(KineticDrive.DEMO_KEY)
    ops = [protocol.Op(b"a", b"1", force=True)]
    fields = {"ops": ops}
    message = Message(MessageType.COMMIT, "demo", 4, protocol.encode_fields(fields))
    message.sign(mac)
    assert message.command_bytes() == Message(MessageType.COMMIT, "demo", 4, fields).command_bytes()
    assert message.verify(mac)
    message.body = protocol.encode_fields({"ops": ops * 2})
    assert not message.verify(mac)
