"""The runnable examples and the README quick start work as shipped.

Each ``examples/*.py`` script runs in its own interpreter and must exit
0; README.md's first ``python`` block runs as written.  Both import the
drives and the cluster from ``repro.kinetic``: the ``repro`` package
re-exports only what the enclave runs.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[2]
SRC = Path(repro.__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_the_examples_are_found():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(path):
    result = subprocess.run(
        [sys.executable, str(path)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    controller, bob = namespace["controller"], namespace["bob"]
    assert controller.get(bob, "greeting").value == b"hello"
    assert controller.put(bob, "greeting", b"hacked").status == 403
