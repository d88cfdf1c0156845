"""Persistent performance trajectory: ``BENCH_<name>.json`` files.

Each headline benchmark records its key numbers through
:func:`record`, which maintains one small JSON file per bench —
``BENCH_overload.json``, ``BENCH_concurrency.json``, ``BENCH_fig3.json``
— checked into the repository root.  The file keeps the current
``latest`` entry plus a bounded ``history`` of previous entries, so the
repo itself carries the performance trajectory: a reviewer diffs the
BENCH file to see exactly what a change did to goodput or speedup, and
CI compares a fresh run against the committed ``latest`` to fail on
regressions (:func:`check_regression`).

Entries are plain metric dictionaries with **no timestamps and no
environment fingerprints**: every headline number here is virtual-time
and seed-deterministic, so a regenerated file on an unchanged tree is
byte-identical to the committed one — which is itself a reproducibility
check.
"""

from __future__ import annotations

import json
import os

#: Default cap on retained history entries per bench.
HISTORY_LIMIT = 24


def trajectory_dir() -> str:
    """Directory holding the ``BENCH_*.json`` files (the repo root)."""
    path = os.environ.get(
        "REPRO_TRAJECTORY_DIR",
        os.path.join(os.path.dirname(__file__), "..", "..", ".."),
    )
    return os.path.abspath(path)


def path_of(name: str, directory: str | None = None) -> str:
    return os.path.join(directory or trajectory_dir(), f"BENCH_{name}.json")


def load(name: str, directory: str | None = None) -> dict | None:
    """The committed trajectory for ``name``, or None if absent."""
    path = path_of(name, directory)
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def record(
    name: str,
    headline: dict,
    directory: str | None = None,
    history_limit: int = HISTORY_LIMIT,
) -> str:
    """Write ``headline`` as the bench's latest entry; returns the path.

    The previous ``latest`` is pushed onto ``history`` (bounded by
    ``history_limit``) unless it equals the new entry — re-running an
    unchanged tree must leave the file byte-identical.
    """
    entry = dict(sorted(headline.items()))
    existing = load(name, directory)
    history: list[dict] = []
    if existing is not None:
        history = list(existing.get("history", []))
        previous = existing.get("latest")
        if previous is not None and previous != entry:
            history.append(previous)
        history = history[-history_limit:]
    payload = {
        "bench": name,
        "latest": entry,
        "history": history,
    }
    path = path_of(name, directory)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def check_regression(
    name: str,
    metric: str,
    value: float,
    tolerance: float = 0.10,
    directory: str | None = None,
) -> dict:
    """Compare ``value`` against the committed latest entry's ``metric``.

    Returns ``{"ok", "metric", "value", "baseline", "ratio"}``.  A
    missing file or metric passes (nothing to regress against);
    otherwise ``ok`` is False when ``value`` fell more than
    ``tolerance`` below the committed baseline.  Higher is assumed
    better — these are throughput/goodput/speedup headlines.
    """
    committed = load(name, directory)
    baseline = None
    if committed is not None:
        baseline = committed.get("latest", {}).get(metric)
    if not isinstance(baseline, (int, float)) or baseline <= 0:
        return {
            "ok": True,
            "metric": metric,
            "value": value,
            "baseline": baseline,
            "ratio": None,
        }
    ratio = value / baseline
    return {
        "ok": ratio >= 1.0 - tolerance,
        "metric": metric,
        "value": value,
        "baseline": baseline,
        "ratio": round(ratio, 4),
    }


__all__ = [
    "HISTORY_LIMIT",
    "check_regression",
    "load",
    "path_of",
    "record",
    "trajectory_dir",
]
