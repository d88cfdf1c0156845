"""Pins the shape PR 21 left: one per-key lock table, no dead seams.

Request locks used to live in ``core/locks.py`` and transaction locks
in ``core/txn.py``, wired to each other by ``conflicts=`` /
``on_release=`` callbacks; ``sgx/shields.py`` and the Kinetic client's
``submit``/``drain`` pipeline were reached by no request path.  These
guards read the source tree as ASTs so none of it grows back under a
new spelling of the same idea, and so the constructors that lost a
parameter do not quietly gain one.
"""

import ast
import inspect
from pathlib import Path

import repro
from repro.core.engine import ConcurrentEngine
from repro.core.txn import VllManager
from repro.kinetic.client import KineticClient
from repro.sgx.syscalls import AsyncSyscallInterface

PACKAGE = Path(repro.__file__).parent
GONE_MODULES = {"repro.core.locks", "repro.sgx.shields"}
GONE_NAMES = {"conflicts", "on_release", "notify_release", "PendingRequest"}


def _trees():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path.relative_to(PACKAGE).as_posix(), ast.parse(path.read_text())


def test_the_deleted_modules_are_gone_and_nothing_imports_them():
    assert not (PACKAGE / "core" / "locks.py").exists()
    assert not (PACKAGE / "sgx" / "shields.py").exists()
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported = {node.module} | {
                    f"{node.module}.{alias.name}" for alias in node.names
                }
            else:
                continue
            assert not imported & GONE_MODULES, (name, node.lineno)


def test_no_callback_seam_between_lock_holders():
    """No parameter or keyword argument (``arg``), definition or import
    (``name``), attribute (``attr``) or bare name (``id``) spells the old
    cross-wiring or the client's pending-request type."""
    for name, tree in _trees():
        for node in ast.walk(tree):
            spelled = {
                getattr(node, field, None)
                for field in ("arg", "name", "attr", "id")
            }
            assert not spelled & GONE_NAMES, (name, node.lineno, spelled)


def test_one_class_in_core_reports_lock_acquisitions():
    reporters = set()
    for name, tree in _trees():
        if not name.startswith("core/"):
            continue
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "on_lock_acquire"
                ):
                    reporters.add((name, cls.name))
    assert reporters == {("core/txn.py", "VllManager")}


def _parameters(function) -> list[str]:
    return list(inspect.signature(function).parameters)


def test_constructors_only_lost_parameters():
    assert _parameters(VllManager.__init__) == [
        "self", "executor", "telemetry",
    ]
    assert _parameters(AsyncSyscallInterface.__init__) == [
        "self", "num_slots", "telemetry",
    ]
    assert _parameters(ConcurrentEngine.__init__) == [
        "self", "controller", "seed", "hardware_threads", "max_inflight",
        "coalesce", "sanitizer", "admission",
    ]
    assert _parameters(KineticClient.__init__) == [
        "self", "drive", "identity", "hmac_key", "trust_store", "now",
        "retry_policy", "retry_seed", "sleeper", "telemetry", "interceptor",
    ]
