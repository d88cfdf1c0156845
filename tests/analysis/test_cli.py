"""End-to-end tests for ``python -m repro.analysis``: exit codes with
and without ``--fail-on-findings``, every output format, and the JSON
schema downstream tooling parses — including taint findings."""

import json
from pathlib import Path

import pytest

from repro.analysis.__main__ import _taint_root, main

LEAKY = (
    "def leak(private_key):\n"
    "    print(private_key)\n"
)

CLEAN = (
    "def fine(name):\n"
    "    return name.upper()\n"
)


def pkg(tmp_path: Path, source: str) -> Path:
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "m.py").write_text(source)
    return root


# -- exit codes --------------------------------------------------------------

def test_clean_target_exits_zero(tmp_path, capsys):
    assert main([str(pkg(tmp_path, CLEAN)), "--fail-on-findings"]) == 0
    assert "no findings" in capsys.readouterr().out


def test_findings_without_gate_still_exit_zero(tmp_path, capsys):
    assert main([str(pkg(tmp_path, LEAKY))]) == 0
    assert "taint/log-line" in capsys.readouterr().out


def test_findings_with_gate_exit_one(tmp_path, capsys):
    assert main([str(pkg(tmp_path, LEAKY)), "--fail-on-findings"]) == 1
    assert "taint/log-line" in capsys.readouterr().out


def test_no_taint_skips_the_taint_pass(tmp_path, capsys):
    root = pkg(tmp_path, LEAKY)
    assert main([str(root), "--fail-on-findings", "--no-taint"]) == 0
    assert "no findings" in capsys.readouterr().out


def test_warnings_do_not_fail_the_gate(tmp_path, capsys):
    # The layer-scoped rules key off the path under the innermost
    # ``repro`` directory, so the fixture mirrors that layout.
    root = tmp_path / "repro" / "core"
    root.mkdir(parents=True)
    (root / "m.py").write_text(
        "def f():\n"
        "    try:\n"
        "        g()\n"
        "    except Exception:\n"
        "        count()\n"
        "        raise\n"
    )
    assert main([str(tmp_path / "repro"), "--fail-on-findings"]) == 0
    assert "core-no-swallow" in capsys.readouterr().out


@pytest.mark.parametrize(
    "name, problem",
    [
        ("src/repo", "no such file or directory"),
        ("typo.policy", "no such file or directory"),
        ("notes.txt", "not a directory, .py or .policy file"),
    ],
)
def test_a_target_it_cannot_read_is_a_usage_error(tmp_path, capsys, name, problem):
    """The gate never passes on a path it never read: a missing path, a
    missing ``.policy`` file or a file of another kind exits 2, naming
    the path, before anything is analyzed."""
    (tmp_path / "notes.txt").write_text("not code\n")
    target = tmp_path / name
    with pytest.raises(SystemExit) as exit_info:
        main([str(target), "--fail-on-findings"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert f"{target}: {problem}" in captured.err
    assert "no findings" not in captured.out


def test_single_file_target_never_runs_taint(tmp_path, capsys):
    target = tmp_path / "m.py"
    target.write_text(LEAKY)
    assert main([str(target), "--fail-on-findings"]) == 0


# -- formats -----------------------------------------------------------------

def test_json_schema_stability(tmp_path, capsys):
    main([str(pkg(tmp_path, LEAKY)), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"count", "findings"}
    assert report["count"] == 1
    (finding,) = report["findings"]
    assert set(finding) >= {
        "rule", "message", "file", "line", "severity"
    }
    assert finding["rule"] == "taint/log-line"
    assert finding["file"] == "m.py"
    assert finding["line"] == 2
    assert finding["severity"] == "error"
    assert finding["context"] == {"kinds": ["key"], "sink": "log-line"}


def test_json_mixed_lint_and_taint_findings(tmp_path, capsys):
    root = pkg(tmp_path, LEAKY)
    (root / "core").mkdir()
    (root / "core" / "n.py").write_text(
        "import time\nt = time.time()\n"
    )
    main([str(root), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    rules = {f["rule"] for f in report["findings"]}
    assert rules == {"det-wall-clock", "taint/log-line"}


def test_markdown_rendering(tmp_path, capsys):
    main([str(pkg(tmp_path, LEAKY)), "--format", "markdown"])
    out = capsys.readouterr().out
    assert "| Rule |" in out or "| rule |" in out.lower()
    assert "taint/log-line" in out
    assert "m.py" in out


def test_markdown_clean(tmp_path, capsys):
    main([str(pkg(tmp_path, CLEAN)), "--format", "markdown"])
    assert "no findings" in capsys.readouterr().out.lower()


# -- taint root resolution ---------------------------------------------------

def test_taint_root_finds_repro_ancestor(tmp_path):
    nested = tmp_path / "src" / "repro" / "core"
    nested.mkdir(parents=True)
    assert _taint_root(nested) == tmp_path / "src" / "repro"


def test_taint_root_falls_back_to_target(tmp_path):
    plain = tmp_path / "pkg"
    plain.mkdir()
    assert _taint_root(plain) == plain


def test_package_subdir_target_analyzes_whole_package(tmp_path, capsys):
    # Targeting repro/core must still see the cross-module flow whose
    # sink lives in another subpackage.
    root = tmp_path / "repro"
    (root / "core").mkdir(parents=True)
    (root / "util").mkdir()
    (root / "util" / "out.py").write_text(
        "def emit(x):\n"
        "    print(x)\n"
    )
    (root / "core" / "m.py").write_text(
        "from ..util.out import emit\n"
        "def leak(private_key):\n"
        "    emit(private_key)\n"
    )
    assert main([str(root / "core"), "--fail-on-findings"]) == 1
    assert "taint/log-line" in capsys.readouterr().out
