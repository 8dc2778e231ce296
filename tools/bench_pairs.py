"""Compare the benchmark of two checkouts in interleaved pairs.

Runs ``python3 bench/run.py --workload W --seed S --seconds T`` in a
parent checkout and in a changed one, alternately, for N pairs per
workload; the side that runs first alternates from pair to pair. For
every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles, how many pairs the change wins (ties count for
neither side) and whether the gap between the medians exceeds the
distance between the parent's quartiles. It also says whether the two
sides printed the same ``# report`` lines. Only the standard library is
used, and ``bench/`` is read, never edited:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload search --seed 41 --seconds 30 --pairs 10

Interleaved pairs from one session on one machine compare; runs made at
other times or on other machines do not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _run(checkout, workload, seed, seconds):
    """The metrics and the ``# report`` lines of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    reports = [line for line in lines if line.startswith("# report")]
    metrics = json.loads(lines[-1])["metrics"]
    return {name: entry["value"] for name, entry in metrics.items()}, reports


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def _compare(name, better, parent, change):
    """One line: both sides' quartiles, wins and whether the gap holds."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, p2, p3 = _quartiles(parent)
    c1, c2, c3 = _quartiles(change)
    gap = abs(c2 - p2) > p3 - p1
    ahead = sign * (c2 - p2) > 0
    verdict = ("better" if ahead else "worse") if gap else "within spread"
    return (f"  {name:14s} parent {p2:.6g} [{p1:.6g}, {p3:.6g}]  "
            f"change {c2:.6g} [{c1:.6g}, {c3:.6g}]  "
            f"ratio {c2 / p2 if p2 else float('nan'):.4g}  "
            f"wins {wins}/{len(parent)}  gap > parent IQR: {gap} "
            f"({verdict})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    with open(args.change / "BENCHMARK.json", encoding="utf-8") as handle:
        better = {entry["name"]: entry["better"]
                  for entry in json.load(handle)["end_to_end"]}
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        reports = {"parent": set(), "change": set()}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else \
                ("change", "parent")
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                metrics, lines = _run(checkout, workload, args.seed,
                                      args.seconds)
                runs[side].append(metrics)
                reports[side].add(tuple(lines))
            print(f"# {workload} pair {pair + 1}: " + "  ".join(
                f"{side} ops_per_s {runs[side][-1].get('ops_per_s', 0):.1f}"
                for side in ("parent", "change")), flush=True)
        same = reports["parent"] == reports["change"] and \
            len(reports["parent"]) == 1
        print(f"{workload}: {args.pairs} pairs, seed {args.seed}, "
              f"{args.seconds:g} s; report lines identical: {same}")
        for name, direction in better.items():
            print(_compare(name, direction,
                           [run[name] for run in runs["parent"]],
                           [run[name] for run in runs["change"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
