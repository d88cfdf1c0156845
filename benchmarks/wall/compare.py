"""``--compare A.json B.json``: did B get worse than A, per workload?

Both files are ``--out`` documents of the suite runner.  For every
workload and end-to-end metric the verdict follows the rule the
choosing-metrics guide fixes: B's median may not be worse than A's by
more than the metric's bound; where the run-to-run spread of either
side is wider than the bound the pairing is *unresolved*, not
unchanged, unless every run of B reads better than every run of A.
When both records ran the same seed the exact counts (``write_amp``,
``space_amp``) repeat byte for byte and are held to their tight
``same_seed_bound``; across seeds the bound of ``BENCHMARK.json`` applies.
"""

from __future__ import annotations

import json
import statistics

from benchmarks.wall.spec import END_TO_END, WORKLOADS

OK, WORSE, UNRESOLVED = "ok", "worse", "unresolved"


def _runs(document: dict, workload: str, metric: str) -> list:
    entry = document["workloads"].get(workload, {}).get("end_to_end", {})
    return [v for v in entry.get(metric, {}).get("runs", []) if v is not None]


def _spread(runs: list) -> float:
    middle = statistics.median(runs)
    return (max(runs) - min(runs)) / middle if middle else 0.0


def judge(a_runs: list, b_runs: list, better: str, bound: float):
    """``(a median, b median, worsening, spread, verdict)``; worsening
    is the signed share of A's median by which B is worse."""
    a_mid, b_mid = statistics.median(a_runs), statistics.median(b_runs)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b_mid - a_mid) / a_mid if a_mid else 0.0
    spread = max(_spread(a_runs), _spread(b_runs))
    if spread > bound:
        if better == "lower":
            clear_win = max(b_runs) < min(a_runs)
        else:
            clear_win = min(b_runs) > max(a_runs)
        verdict = OK if clear_win else UNRESOLVED
    elif worsening > bound:
        verdict = WORSE
    else:
        verdict = OK
    return a_mid, b_mid, worsening, spread, verdict


def compare_documents(a: dict, b: dict) -> list[dict]:
    same_seed = a.get("seed") == b.get("seed")
    rows = []
    for workload in WORKLOADS:
        for metric in END_TO_END:
            bound = metric.bound
            if same_seed and metric.same_seed_bound is not None:
                bound = metric.same_seed_bound
            a_runs = _runs(a, workload.name, metric.name)
            b_runs = _runs(b, workload.name, metric.name)
            if not a_runs or not b_runs:
                continue
            a_mid, b_mid, worsening, spread, verdict = judge(
                a_runs, b_runs, metric.better, bound
            )
            rows.append({
                "workload": workload.name,
                "metric": metric.name,
                "unit": metric.unit,
                "a": a_mid,
                "b": b_mid,
                "worsening": worsening,
                "spread": spread,
                "bound": bound,
                "verdict": verdict,
            })
        a_failed = a["workloads"].get(workload.name, {}).get("failed")
        b_failed = b["workloads"].get(workload.name, {}).get("failed")
        if a_failed is not None and b_failed is not None:
            # fail_ratio has an absolute bound of zero.
            rows.append({
                "workload": workload.name,
                "metric": "fail_ratio",
                "unit": "ratio",
                "a": a_failed,
                "b": b_failed,
                "worsening": float(b_failed - a_failed),
                "spread": 0.0,
                "bound": 0.0,
                "verdict": WORSE if b_failed > a_failed else OK,
            })
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<10} {'metric':<14} {'A':>12} {'B':>12} "
        f"{'worse by':>9} {'spread':>8} {'bound':>6}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<10} {row['metric']:<14} "
            f"{row['a']:>12.4f} {row['b']:>12.4f} "
            f"{row['worsening']:>+9.2%} {row['spread']:>8.2%} "
            f"{row['bound']:>6.0%}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    rows = compare_documents(a, b)
    print(render(rows))
    tally = {OK: 0, WORSE: 0, UNRESOLVED: 0}
    for row in rows:
        tally[row["verdict"]] += 1
    print(
        f"\n{tally[OK]} ok, {tally[WORSE]} worse, "
        f"{tally[UNRESOLVED]} unresolved"
    )
    return 1 if tally[WORSE] else 0
