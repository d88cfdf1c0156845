"""Pins the shape of the front door: one target parser, one error mapping.

``core/request.py::split_target`` is the only reading of a request
target (the client surface and the admin surface both use it), and
``error_response`` the only place a failure becomes a response.  These
guards keep a stdlib URL parser, or a second mapping, from growing
back on the request path.  The last guard keeps the request path's
import closure to code a request runs: nothing of the analysis package
(linter, analyzers, policy verifier, sanitizer hooks), no policy
pretty-printer or SLO engine, no DES constants, drive timing or Scone
model, no drive or drive cluster (the untrusted side of the wire), no
benchmark or simulator.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
URL_PARSERS = {"urlparse", "urlsplit", "parse_qs", "parse_qsl"}


def _names_used(path: Path) -> set[str]:
    """Every imported name, bare name and attribute name in a module."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_nothing_in_core_uses_a_stdlib_url_parser():
    modules = sorted((SRC / "core").rglob("*.py"))
    assert len(modules) > 15
    found = {
        str(path.relative_to(SRC)): sorted(used)
        for path in modules
        if (used := _names_used(path) & URL_PARSERS)
    }
    assert found == {}


def test_a_failure_becomes_a_response_in_one_place():
    """A ``Response`` built from an error's own ``status`` or ``str()``
    is ``error_response``'s body and nobody else's."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "Response"
                and any(
                    keyword.arg == "status"
                    and getattr(keyword.value, "attr", None) == "status"
                    or keyword.arg == "error"
                    and getattr(getattr(keyword.value, "func", None), "id", None) == "str"
                    for keyword in node.keywords
                )
            ):
                sites.append(str(path.relative_to(SRC)))
    assert sites == ["core/request.py"]


NOT_ON_THE_REQUEST_PATH = tuple(
    f"{package}.{name}"
    for package, names in {
        "repro.sgx": ("costs", "scheduler", "syscalls"),
        "repro.kinetic": ("timing", "drive", "cluster"),
        "repro.core": ("sharding",),
        "repro.policy": ("render",),
        "repro.telemetry": ("slo",),
        "repro": ("analysis", "bench", "sim"),
    }.items()
    for name in names
)


def test_the_request_path_imports_only_what_it_runs():
    """A fresh interpreter that imports the web server, the controller
    and the Kinetic client library (it runs in the enclave and holds
    the drive HMAC key) has loaded none of the modules no request runs."""
    probe = (
        "import sys\n"
        "import repro.core.webserver, repro.core.controller, "
        "repro.kinetic.client\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert "repro.core.controller" in loaded
    assert "repro.kinetic.client" in loaded
    stray = sorted(
        module
        for module in loaded
        for banned in NOT_ON_THE_REQUEST_PATH
        if module == banned or module.startswith(banned + ".")
    )
    assert stray == []
