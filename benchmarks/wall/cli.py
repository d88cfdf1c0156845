"""Command line of the wall-clock benchmark.

Three modes, told apart by their flags:

- ``--workload W --seed N --seconds S --trace 0|1`` — one measurement
  in this process; the last stdout line is the contract JSON object
  (end-to-end metrics untraced, per-layer metrics traced).  This is the
  form ``BENCHMARK.json`` names.
- no ``--trace`` — the suite: every workload (or ``--workload`` alone)
  ``--repeats`` times untraced plus one traced pass, each in its own
  interpreter, then the report, ``--out`` and optionally the ledger.
- ``--compare A.json B.json`` — judge two suite records.
"""

from __future__ import annotations

import argparse
import json
import sys

from benchmarks.wall.spec import NOMINAL_SECONDS, WORKLOADS, benchmark_json


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.wall", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(NOMINAL_SECONDS),
        help="timed-phase budget; op counts scale linearly from the "
        f"table sized for {NOMINAL_SECONDS}",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="common factor on record and op counts (smoke runs)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="run ONE measurement here: 0 untraced, 1 traced",
    )
    parser.add_argument("--detail", help="also write the full run record here")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", help="suite: where to write the full record")
    parser.add_argument(
        "--record", metavar="LABEL",
        help="suite: append the result to BENCH_wall.json under LABEL",
    )
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument(
        "--emit-benchmark-json", action="store_true",
        help="print the BENCHMARK.json generated from spec.py",
    )
    return parser


def _single(args) -> int:
    from benchmarks.wall.harness import run_workload

    if args.workload is None:
        raise SystemExit("--trace needs --workload")
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    if args.detail:
        with open(args.detail, "w") as handle:
            json.dump(result.as_dict(), handle)
    source = result.per_layer if result.traced else result.end_to_end
    for name, entry in source.items():
        samples = f" n={entry['samples']}" if "samples" in entry else ""
        print(f"{name:<42} {entry['value']:>16.6f} {entry['unit']}{samples}")
    for problem in result.problems:
        print(f"PROBLEM: {problem}")
    print(json.dumps(result.contract_line()))
    return 0 if result.correct else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.emit_benchmark_json:
        print(json.dumps(benchmark_json(), indent=2))
        return 0
    if args.compare:
        from benchmarks.wall import compare

        return compare.main(*args.compare)
    if args.trace is not None:
        return _single(args)
    from benchmarks.wall import suite

    return suite.main(args)


if __name__ == "__main__":
    sys.exit(main())
