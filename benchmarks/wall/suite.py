"""The suite runner: every workload, repeated, one report.

Each measurement is a fresh interpreter (heap state and ``ru_maxrss``
are per workload), spawned sequentially and interleaved across
workloads (``a,c,cold,e,fresh,mal,a,c,...``) so drift on the shared box
lands on every workload alike.  Per metric the report is the median
over the untraced repeats; one traced pass per workload then supplies
the per-layer ledger, and the DES model's breakdown is printed next to
the measured shares for the workloads it can replay.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile

from benchmarks.wall import des
from benchmarks.wall.harness import RESULTS_DIR
from benchmarks.wall.spec import (
    END_TO_END,
    LAYERS,
    MOVES,
    PER_LAYER,
    TAILS,
    WORKLOAD_BY_NAME,
    WORKLOADS,
)

_HERE = os.path.dirname(os.path.abspath(__file__))
LEDGER = os.path.join(_HERE, "BENCH_wall.json")

#: Workloads whose YCSB trace ``repro.bench.harness`` can replay.
DES_WORKLOADS = ("a_update", "c_cached")

_CHILD_TIMEOUT = 900


def _run_child(
    workload: str, seed: int, seconds: float, scale: float, trace: bool
) -> dict:
    """One measurement in a fresh interpreter; returns its full record."""
    with tempfile.TemporaryDirectory(dir=RESULTS_DIR) as scratch:
        detail = os.path.join(scratch, "detail.json")
        command = [
            sys.executable, os.path.join(_HERE, "__main__.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--scale", str(scale),
            "--trace", "1" if trace else "0", "--detail", detail,
        ]
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=_CHILD_TIMEOUT
        )
        if not os.path.exists(detail):
            raise RuntimeError(
                f"{workload} (seed {seed}) produced no result, exit "
                f"{done.returncode}:\n{done.stdout}\n{done.stderr}"
            )
        with open(detail) as handle:
            return json.load(handle)


def _median(values: list):
    present = [v for v in values if v is not None]
    return statistics.median(present) if present else None


def _across_runs(runs: list, section: str, names) -> dict:
    """Per metric of one section: every run's value and their median."""
    cells = {}
    for name in names:
        values = [run[section][name]["value"] for run in runs]
        first = runs[0][section][name]
        cells[name] = {
            "unit": first["unit"],
            "median": _median(values),
            "runs": values,
            "samples": first["samples"],
        }
    return cells


def run_suite(
    names: list, seed: int, repeats: int, seconds: float, scale: float
) -> dict:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    untraced: dict[str, list] = {name: [] for name in names}
    for repeat in range(repeats):
        for name in names:
            print(f"[wall] untraced {repeat + 1}/{repeats} {name}",
                  file=sys.stderr, flush=True)
            untraced[name].append(_run_child(name, seed, seconds, scale, False))
    document = {
        "seed": seed, "repeats": repeats, "seconds": seconds,
        "scale": scale, "workloads": {},
    }
    for name in names:
        print(f"[wall] traced {name}", file=sys.stderr, flush=True)
        traced = _run_child(name, seed, seconds, scale, True)
        runs = untraced[name]
        for run in runs[1:]:
            if run["counts"] != runs[0]["counts"]:
                raise RuntimeError(f"{name}: exact counts differ between repeats")
        entry = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": runs[0]["attempted"],
            "failed": max(run["failed"] for run in runs + [traced]),
            "problems": sum((r["problems"] for r in runs + [traced]), []),
            "trace_hash": runs[0]["trace_hash"],
            "end_to_end": _across_runs(
                runs, "end_to_end", [m.name for m in END_TO_END]
            ),
            "tails": _across_runs(runs, "tails", TAILS),
            "per_layer": traced["per_layer"],
            "counts": runs[0]["counts"],
        }
        if name in DES_WORKLOADS:
            print(f"[wall] DES replay {name}", file=sys.stderr, flush=True)
            modelled = des.modelled_shares(
                WORKLOAD_BY_NAME[name], seed, seconds, scale
            )
            entry["des"] = {
                "modelled": modelled,
                "measured": des.measured_as_des_layers(traced["per_layer"]),
                "model_gap": des.model_gap(traced["per_layer"], modelled),
            }
        document["workloads"][name] = entry
    return document


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    return f"{value:.4f}" if abs(value) < 1000 else f"{value:.1f}"


def render(document: dict) -> str:
    lines = [
        f"wall-clock request path: seed {document['seed']}, "
        f"{document['repeats']} untraced repeats + 1 traced pass, "
        f"--seconds {document['seconds']}, scale {document['scale']}"
    ]
    for name, entry in document["workloads"].items():
        workload = WORKLOAD_BY_NAME[name]
        lines.append("")
        lines.append(f"== {name}: {workload.why}")
        lines.append(
            f"   correct={entry['correct']} attempted={entry['attempted']} "
            f"failed={entry['failed']} fail_ratio="
            f"{entry['failed'] / entry['attempted']:.6f}"
        )
        for problem in entry["problems"]:
            lines.append(f"   PROBLEM: {problem}")
        lines.append("   end to end (median of untraced repeats):")
        for metric in END_TO_END:
            cell = entry["end_to_end"][metric.name]
            lines.append(
                f"     {metric.name:<16} {_fmt(cell['median']):>12} "
                f"{metric.unit:<5} n={cell['samples']:<7} runs="
                + ",".join(_fmt(v) for v in cell["runs"])
            )
        lines.append("   tails (untraced, ungated diagnostics):")
        for tail, cell in entry["tails"].items():
            lines.append(
                f"     {tail:<16} {_fmt(cell['median']):>12} "
                f"{cell['unit']:<5} n={cell['samples']:<7} runs="
                + ",".join(_fmt(v) for v in cell["runs"])
            )
        per_layer = entry["per_layer"]
        lines.append("   per layer (traced pass):")
        lines.append(
            f"     {'layer':<18} {'share':>8} {'self_us/op':>11} {'calls/op':>9}"
        )
        for layer in LAYERS:
            lines.append(
                f"     {layer:<18} "
                f"{per_layer[layer + '.share']['value']:>8.4f} "
                f"{per_layer[layer + '.self_us_per_op']['value']:>11.2f} "
                f"{per_layer[layer + '.calls_per_op']['value']:>9.2f}"
            )
        for metric in PER_LAYER[3 * len(LAYERS):]:
            lines.append(
                f"     {metric.name:<40} "
                f"{_fmt(per_layer[metric.name]['value']):>12} {metric.unit}"
            )
        lines.append("   which layer metrics should move what here:")
        for row in MOVES:
            moved = [metric for metric, on in row.moves if on == name]
            if moved:
                lines.append(
                    f"     {', '.join(moved)} <- {', '.join(row.layer_metrics)}"
                )
            elif name in row.unmoved_on:
                lines.append(
                    f"     nothing (bypass) <- {', '.join(row.layer_metrics)}"
                )
        if "des" in entry:
            lines.append("   DES side-by-side (share of time per model layer):")
            lines.append(
                f"     {'des layer':<14} {'measured':>9} {'modelled':>9} "
                f"{'model_gap':>10}"
            )
            for layer, modelled in entry["des"]["modelled"].items():
                lines.append(
                    f"     {layer:<14} "
                    f"{entry['des']['measured'][layer]:>9.4f} {modelled:>9.4f} "
                    f"{entry['des']['model_gap']['model_gap.' + layer]:>+10.4f}"
                )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Ledger
# ---------------------------------------------------------------------------

def ledger_entry(document: dict, label: str) -> dict:
    """The compact form kept on the committed trajectory."""
    workloads = {}
    for name, entry in document["workloads"].items():
        compact = {
            "end_to_end": {
                metric: cell["median"]
                for metric, cell in entry["end_to_end"].items()
            },
            "fail_ratio": entry["failed"] / entry["attempted"],
            "share": {
                layer: round(entry["per_layer"][layer + ".share"]["value"], 4)
                for layer in LAYERS
            },
            "trace.overhead_x": entry["per_layer"]["trace.overhead_x"]["value"],
            "trace.coverage": entry["per_layer"]["trace.coverage"]["value"],
        }
        if "des" in entry:
            compact["model_gap"] = {
                key: round(value, 4)
                for key, value in entry["des"]["model_gap"].items()
            }
        workloads[name] = compact
    return {
        "label": label,
        "seed": document["seed"],
        "repeats": document["repeats"],
        "seconds": document["seconds"],
        "scale": document["scale"],
        "workloads": workloads,
    }


def append_to_ledger(document: dict, label: str) -> None:
    """Append-only ``history``; the newest entry is also ``latest``."""
    ledger = {"history": [], "latest": None}
    if os.path.exists(LEDGER):
        with open(LEDGER) as handle:
            ledger = json.load(handle)
    entry = ledger_entry(document, label)
    ledger["history"].append(entry)
    ledger["latest"] = entry
    with open(LEDGER, "w") as handle:
        json.dump(ledger, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(args) -> int:
    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    document = run_suite(
        names, args.seed, args.repeats, args.seconds, args.scale
    )
    print(render(document))
    out = args.out or os.path.join(RESULTS_DIR, f"wall_seed{args.seed}.json")
    with open(out, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    print(f"\n[wall] full record written to {out}", file=sys.stderr)
    if args.record:
        append_to_ledger(document, args.record)
    return 0 if all(e["correct"] for e in document["workloads"].values()) else 1
