"""Perf trajectory files: BENCH_<name>.json record/load/regress."""

import json
import os

from repro.bench import trajectory


def test_record_and_load_roundtrip(tmp_path):
    directory = str(tmp_path)
    path = trajectory.record(
        "demo", {"goodput": 12.5, "p99_ms": 3.0}, directory=directory
    )
    assert path == trajectory.path_of("demo", directory)
    data = trajectory.load("demo", directory)
    assert data["bench"] == "demo"
    assert data["latest"] == {"goodput": 12.5, "p99_ms": 3.0}
    assert data["history"] == []


def test_load_missing_returns_none(tmp_path):
    assert trajectory.load("absent", str(tmp_path)) is None


def test_changed_entry_pushes_previous_to_history(tmp_path):
    directory = str(tmp_path)
    trajectory.record("demo", {"goodput": 10.0}, directory=directory)
    trajectory.record("demo", {"goodput": 11.0}, directory=directory)
    data = trajectory.load("demo", directory)
    assert data["latest"] == {"goodput": 11.0}
    assert data["history"] == [{"goodput": 10.0}]


def test_unchanged_entry_leaves_file_byte_identical(tmp_path):
    directory = str(tmp_path)
    path = trajectory.record("demo", {"goodput": 10.0}, directory=directory)
    with open(path, "rb") as handle:
        first = handle.read()
    trajectory.record("demo", {"goodput": 10.0}, directory=directory)
    with open(path, "rb") as handle:
        assert handle.read() == first


def test_history_is_bounded(tmp_path):
    directory = str(tmp_path)
    for value in range(6):
        trajectory.record(
            "demo", {"goodput": float(value)},
            directory=directory, history_limit=3,
        )
    data = trajectory.load("demo", directory)
    assert data["latest"] == {"goodput": 5.0}
    assert [entry["goodput"] for entry in data["history"]] == [2.0, 3.0, 4.0]


def test_file_is_sorted_and_newline_terminated(tmp_path):
    directory = str(tmp_path)
    path = trajectory.record(
        "demo", {"zeta": 1.0, "alpha": 2.0}, directory=directory
    )
    with open(path) as handle:
        text = handle.read()
    assert text.endswith("\n")
    assert text == json.dumps(
        json.loads(text), indent=2, sort_keys=True
    ) + "\n"
    assert list(json.loads(text)["latest"]) == ["alpha", "zeta"]


def test_check_regression_passes_without_baseline(tmp_path):
    report = trajectory.check_regression(
        "absent", "goodput", 5.0, directory=str(tmp_path)
    )
    assert report["ok"]
    assert report["baseline"] is None
    assert report["ratio"] is None


def test_check_regression_within_tolerance(tmp_path):
    directory = str(tmp_path)
    trajectory.record("demo", {"goodput": 100.0}, directory=directory)
    assert trajectory.check_regression(
        "demo", "goodput", 95.0, directory=directory
    )["ok"]


def test_check_regression_fails_below_tolerance(tmp_path):
    directory = str(tmp_path)
    trajectory.record("demo", {"goodput": 100.0}, directory=directory)
    report = trajectory.check_regression(
        "demo", "goodput", 85.0, directory=directory
    )
    assert not report["ok"]
    assert report["baseline"] == 100.0
    assert report["ratio"] == 0.85


def test_check_regression_ignores_non_numeric_baseline(tmp_path):
    directory = str(tmp_path)
    trajectory.record("demo", {"goodput": "n/a"}, directory=directory)
    assert trajectory.check_regression(
        "demo", "goodput", 1.0, directory=directory
    )["ok"]


def test_trajectory_dir_honors_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRAJECTORY_DIR", str(tmp_path))
    assert trajectory.trajectory_dir() == str(tmp_path)
    monkeypatch.delenv("REPRO_TRAJECTORY_DIR")
    # Default resolves to the repository root (where BENCH files live).
    assert os.path.isdir(trajectory.trajectory_dir())
