#!/usr/bin/env python3
"""Benchmark of the releq package: search, large-n solve and verify.

Run from the repository root:

    python3 bench/run.py --workload search --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the working directory and driven
through ``releq.cli.main`` in process, as a closed loop with one client:
each command starts after the previous one returns. Workloads (see
``workloads.py`` for their sizes and checks):

- ``search``: ``releq probe`` on six small equal-mass families; one
  operation is one multistart trial.
- ``large-n``: ``releq search`` cold trials at n = 30, then ``releq
  continue`` on perturbed 24- and 48-rings; one operation is one LM solve
  (a trial, a starting solve or a continuation step).
- ``verify``: ``releq verify`` on the oracle n-gons, the two-body case
  and two Maxwell rings; one operation is one verified configuration.

With ``--trace 0`` the run reports the end-to-end metrics:

- ``setup_s``: median wall time of a cold ``python -m releq.cli solve``
  process on the two-body document, spawn to exit.
- ``ops_per_s``: operations of one pass over the median pass time. The
  pass repeats until the passes add up to ``--seconds``; the first one's
  outputs are checked, and every later one must reproduce them.
- ``ok_frac``: successful operations over attempted ones. A raise, an
  unconverged trial or step, a failed check or a verify deviation at or
  above 1e-6 is not a success.
- ``classes_found``: equilibrium classes one pass establishes: the
  deduplicated classes of the search families and of the cold n = 30
  search, or on ``verify`` the configurations verified all three ways.
- ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` the run, whatever ``--workload`` and ``--seconds``
say, times one pass of every workload with the tracer of ``tracing.py``
after one pass without it, and reports the per-layer metrics, prefixed
with the workload, plus the cold-process, setup-command and
kernel-microbenchmark figures. The result's ``failed`` counts operations
that raised, gave a wrong output or changed between repetitions; an
unconverged trial or the known-unstable ring lowers ``ok_frac`` only.

The last line of standard output is the JSON result; the lines before it
(``# ...``) give the environment record, report hashes and check notes.
Exits 2 when the package sources, the oracles or BENCHMARK.json are
missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

from tracing import KERNELS, Tracer, kernel_cost, layer_metrics
from workloads import JOBS2_FAMILY, WORKLOADS, Runner, run_cli

SPAWNS = 11                # cold processes per start-up figure (median)
SETUP_SOLVES = 20          # in-process traced setup commands
JOBS_REPEATS = 3           # --jobs 1 / --jobs 2 timing pairs
MICRO_SIZES = (4, 16, 64)
MICRO_BATCH_S = 0.004      # minimum duration of one timed kernel batch
MICRO_BATCHES = 7


class Tally:
    """Operations attempted, succeeded and broken, with notes and hashes."""

    def __init__(self):
        self.attempted = 0
        self.ok = 0
        self.failed = 0
        self.notes = []
        self.reports = {}           # command label -> exit code:sha256
        self.pass_digests = []

    def add_pass(self, result):
        self.attempted += result.ops
        self.ok += result.ok
        self.failed += result.broken
        self.notes += result.notes
        for label, digest in result.hashes:
            self.reports.setdefault(label, digest)
        self.pass_digests.append(hashlib.sha256("\n".join(
            digest for _, digest in result.hashes).encode()).hexdigest()[:16])

    def broken(self, ops, note):
        self.attempted += ops
        self.failed += ops
        self.notes.append(note)


def _load_oracles(path):
    spec = importlib.util.spec_from_file_location("oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git_commit(root):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(releq, root, args):
    backend = releq.backend()
    return {
        "backend": backend,
        "flagged": backend != "numpy",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(root),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ----------------------------------------------------------------------
# cold processes and the setup command
# ----------------------------------------------------------------------

def _two_body_doc(workdir, oracles):
    path = os.path.join(workdir, "two_body.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"schema_version": "1", "dimension": 2, "exponent": -1.5,
                   "masses": [1.0, 1.0], "frequencies": [1.0],
                   "positions": oracles.two_body_points(1.0, 1.0, 1.0, -1.5)},
                  handle)
    return path


def _two_body_solved(oracles, out):
    """Did the solve report the closed-form two-body separation?

    Removes the report, so the next solve cannot pass on a stale file.
    """
    try:
        with open(out, encoding="utf-8") as handle:
            report = json.load(handle)
        os.remove(out)
    except (OSError, ValueError):
        return False
    pts = np.asarray(report["points"])
    exact = oracles.two_body_separation(1.0, 1.0, 1.0, -1.5)
    sep = float(np.linalg.norm(pts[0] - pts[1]))
    return report["termination"] == "converged" and \
        abs(sep - exact) <= 1e-9 * exact


def _spawn_median(argv, root, check=None):
    """Median wall time of SPAWNS cold processes; check() each exit."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times, bad = [], 0
    for _ in range(SPAWNS):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True,
                              timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or (check is not None and not check()):
            bad += 1
    return statistics.median(times), bad


def setup_seconds(root, workdir, oracles, tally):
    doc = _two_body_doc(workdir, oracles)
    out = os.path.join(workdir, "setup_out.json")
    seconds, bad = _spawn_median(
        [sys.executable, "-m", "releq.cli", "solve", doc, "--out", out],
        root, check=lambda: _two_body_solved(oracles, out))
    if bad:
        tally.notes.append(f"setup: {bad} of {SPAWNS} cold solves wrong")
    return seconds, bad == 0


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------

def timed_run(args, root, workdir, releq, oracles, tally):
    setup_s, setup_ok = setup_seconds(root, workdir, oracles, tally)
    runner = Runner(args.workload, args.seed, workdir, releq, oracles)
    passes, pass_s = [], []
    while not passes or sum(pass_s) < args.seconds:
        passes.append(runner.run_pass())
        pass_s.append(passes[-1].seconds)
    for result in passes:
        tally.add_pass(result)
    ops = passes[0].ops
    tally.notes.append(
        f"{len(passes)} passes of {ops} operations, pass time median "
        f"{statistics.median(pass_s):.4f} s, min {min(pass_s):.4f} s, "
        f"max {max(pass_s):.4f} s")
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": ops / statistics.median(pass_s),
        "ok_frac": tally.ok / tally.attempted,
        "classes_found": statistics.median(r.classes for r in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    return metrics, setup_ok


def traced_run(args, root, workdir, releq, oracles, tally):
    metrics = {}
    metrics["cli.python_s"], _ = _spawn_median(
        [sys.executable, "-c", "pass"], root)
    metrics["cli.import_s"], bad = _spawn_median(
        [sys.executable, "-c", "import releq"], root)
    setup_ok = bad == 0
    metrics.update(traced_setup(workdir, releq, oracles, tally))

    for workload in WORKLOADS:
        subdir = os.path.join(workdir, workload)
        os.mkdir(subdir)
        runner = Runner(workload, args.seed, subdir, releq, oracles)
        untraced = runner.run_pass()
        with Tracer() as tracer:
            traced = runner.run_pass()
        tally.add_pass(untraced)
        tally.add_pass(traced)
        layers = layer_metrics(tracer)
        layers["trace.overhead_frac"] = traced.seconds / untraced.seconds - 1.0
        if workload == "search":
            layers["solver.search.jobs2_speedup"] = jobs2_speedup(runner,
                                                                  tally)
        metrics.update({f"{workload}.{key}": value
                        for key, value in layers.items()})
    metrics.update(kernel_micro(releq, args.seed, tally))
    return metrics, setup_ok


def traced_setup(workdir, releq, oracles, tally):
    """The setup command in process under the tracer, per-command means."""
    doc = _two_body_doc(workdir, oracles)
    out = os.path.join(workdir, "setup_traced.json")
    argv = ["solve", doc, "--out", out]
    with Tracer() as tracer:
        for _ in range(SETUP_SOLVES):
            code, _data = run_cli(releq, argv)
            if code != 0 or not _two_body_solved(oracles, out):
                tally.broken(1, "setup: in-process solve wrong")
    layers = layer_metrics(tracer)
    return {key: layers[key] / SETUP_SOLVES
            for key in ("documents.parse_document.s",
                        "documents.write_text_atomic.s", "cli.self_s")}


def jobs2_speedup(runner, tally):
    """--jobs 1 over --jobs 2 wall time on one family; bytes must match."""
    cmd = runner.commands[JOBS2_FAMILY]
    argv2 = list(cmd.argv)
    argv2[argv2.index("--jobs") + 1] = "2"
    argv2[argv2.index("--out") + 1] += ".jobs2"
    times = {1: [], 2: []}
    for _ in range(JOBS_REPEATS):
        reports = {}
        for jobs, argv in ((1, cmd.argv), (2, argv2)):
            start = time.perf_counter()
            reports[jobs] = run_cli(runner.releq, argv)
            times[jobs].append(time.perf_counter() - start)
        if reports[1] != reports[2]:
            tally.broken(cmd.ops, f"{cmd.label}: --jobs 2 report differs "
                                  f"from --jobs 1")
    return statistics.median(times[1]) / statistics.median(times[2])


def kernel_micro(releq, seed, tally):
    """Per-call time of each active kernel at n in MICRO_SIZES, k = 2."""
    kernels = releq._kernels
    rng = np.random.default_rng([seed, 99])
    out = {}
    for n in MICRO_SIZES:
        # a jittered grid keeps every pair well separated
        side = int(np.ceil(np.sqrt(n)))
        grid = np.stack(np.meshgrid(np.arange(side), np.arange(side)), -1)
        pts = grid.reshape(-1, 2)[:n] + rng.uniform(-0.2, 0.2, size=(n, 2))
        pts = kernels.as_input(pts)
        masses = rng.uniform(0.5, 2.0, size=n)
        asq = np.full(2, rng.uniform(0.5, 2.0) ** 2)
        calls = {
            "residual_stack": (pts, masses, asq, -1.5),
            "jacobian_dense": (pts, masses, asq, -1.5),
            "accel": (pts, masses, -1.5),
            "min_pair_distance": (pts,),
            "pair_distances": (pts,),
        }
        for kernel in KERNELS:
            fn = getattr(kernels, kernel)
            call_args = calls[kernel]
            reps = 1
            while True:
                start = time.perf_counter()
                for _ in range(reps):
                    fn(*call_args)
                if time.perf_counter() - start >= MICRO_BATCH_S:
                    break
                reps *= 2
            batches = []
            for _ in range(MICRO_BATCHES):
                start = time.perf_counter()
                for _ in range(reps):
                    fn(*call_args)
                batches.append((time.perf_counter() - start) / reps)
            us = statistics.median(batches) * 1e6
            flop, nbytes = kernel_cost(kernel, n, 2)
            out[f"micro.{kernel}.n{n}.us"] = us
            tally.notes.append(
                f"micro {kernel} n={n}: {us:.2f} us/call, computed "
                f"{flop:.0f} flop {nbytes:.0f} B, "
                f"{flop / us / 1e3:.3f} GFLOP/s, {nbytes / us / 1e3:.3f} GB/s")
    return out


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    needed = [src / "releq" / "__init__.py", root / "tests" / "oracles.py",
              root / "BENCHMARK.json"]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"bench: not a releq checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())

    sys.path.insert(0, str(src))
    import releq
    import releq.cli
    import releq.criterion
    if not Path(releq.__file__).resolve().is_relative_to(src.resolve()):
        print(f"bench: imported releq from {releq.__file__}, not {src}",
              file=sys.stderr)
        return 2
    oracles = _load_oracles(root / "tests" / "oracles.py")

    env = environment(releq, root, args)
    tally = Tally()
    workdir = tempfile.mkdtemp(prefix=".bench-", dir=root)
    try:
        run = traced_run if args.trace else timed_run
        metrics, setup_ok = run(args, root, workdir, releq, oracles, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    section = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": setup_ok and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in section},
    }
    print("# env " + json.dumps(env))
    if env["flagged"]:
        print(f"# FLAGGED: kernel backend is {env['backend']}, not numpy")
    print(f"# ok {tally.ok} of {tally.attempted}; pass digests "
          f"{' '.join(tally.pass_digests)}")
    for label, digest in tally.reports.items():
        print(f"# report {digest} {label}")
    for note, count in Counter(tally.notes).items():
        print(f"# {note}" + (f" (x{count})" if count > 1 else ""))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
