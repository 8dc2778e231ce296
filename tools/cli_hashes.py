"""Hash every report of a fixed matrix of ``releq`` command lines.

Runs each command line through ``releq.cli.main`` in this process and
prints one line per run:

    <exit code> <stdout sha256> <stderr sha256> <--out sha256> <command line>

Hashes are the first 16 hex digits of the sha256; a run that leaves no
``--out`` file shows ``-``. The temporary directory holding the
documents and reports is masked as ``<tmp>`` before hashing, so two
checkouts give comparable lines. Run it in each checkout and diff the
outputs to see which reports a change moves:

    PYTHONPATH=src python3 tools/cli_hashes.py > hashes.txt

Float bits depend on the platform and the numpy build, so compare runs
made on one machine only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shlex
import sys
import tempfile

import numpy as np

from releq import cli


def _ngon(count, radius):
    return [[radius * math.cos(2 * math.pi * i / count),
             radius * math.sin(2 * math.pi * i / count)]
            for i in range(count)]


def _documents():
    """name -> document dict: valid, problem-only and rejected inputs."""
    def doc(k, a, masses, rates, positions=None):
        raw = {"schema_version": "1", "dimension": k, "exponent": a,
               "masses": masses, "frequencies": rates}
        if positions is not None:
            raw["positions"] = positions
        return raw

    # equal unit masses at rate 1: the pair's separation d has
    # d^(2a) = 1/2, the equilateral triangle's side r has r^(2a) = 1/3
    half = 0.5 ** (1 / -3.0) / 2
    trigon = _ngon(3, 3 ** (1 / 3.0) / math.sqrt(3))
    return {
        "two": doc(2, -1.5, [1.0, 1.0], [1.0], [[half, 0.0], [-half, 0.0]]),
        "trigon": doc(2, -1.5, [1.0, 1.0, 1.0], [1.0], trigon),
        "odd-k": doc(3, -1.5, [1.0, 1.0, 1.0], [1.0],
                     [[x, y, 0.0] for x, y in trigon]),
        # two bodies stacked along the fixed axis collide in the plane the
        # odd-k solve runs in: solve and continue end at the collision
        # guard with the seed as given
        "odd-k-stacked": doc(3, -1.5, [1.0, 1.0, 1.0], [1.0],
                             [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
                              [1.0, 0.0, 0.0]]),
        "k4": doc(4, -1.5, [1.0, 2.0, 1.0, 0.5], [1.0, 1.5],
                  [[1.0, 0.0, 0.0, 0.3], [0.0, 1.0, 0.2, 0.0],
                   [-1.0, 0.1, 0.0, -0.3], [0.0, -1.0, -0.2, 0.1]]),
        "overflow": doc(2, -200.0, [1.0, 1.0, 1.0], [1.0],
                        [[-0.01, 0.0], [0.0, 0.0], [0.01, 0.0]]),
        "positionless": doc(2, -1.5, [1.0, 1.0, 1.0], [1.0]),
        "colliding": doc(2, -1.5, [1.0, 1.0], [1.0],
                         [[0.5, 0.0], [0.5, 0.0]]),
        "bad-mass": doc(2, -1.5, [1.0, -1.0], [1.0],
                        [[0.5, 0.0], [-0.5, 0.0]]),
        # json.dump writes the int's digits, which no float can hold
        "huge-int-mass": doc(2, -1.5, [1.0, 10 ** 400], [1.0],
                             [[0.5, 0.0], [-0.5, 0.0]]),
        "string-mass": doc(2, -1.5, ["a", 1.0], [1.0]),
        "unknown-key": {**doc(2, -1.5, [1.0, 1.0], [1.0]), "bogus": 1},
    }


SOLVER_FLAGS = {
    "default": [],
    "tight": ["--tol", "1e-14", "--damping-init", "1e-2",
              "--damping-grow", "4", "--damping-shrink", "0.25"],
    "invalid": ["--damping-init", "0"],
}


def _integrator_lines(path):
    """The verify and integrate lines, which run the integrator: a loose
    tolerance rejects steps, a long horizon lets departures grow."""
    return [["verify", path], ["verify", path, "--samples", "4"],
            ["verify", path, "--t-end", "20"],
            ["integrate", path, "--samples", "4"],
            ["integrate", path, "--samples", "4", "--tol", "1e-6"],
            ["integrate", path, "--samples", "4", "--format", "csv"]]


def _command_lines(path):
    """Every command line run on the document at ``path``."""
    lines = _integrator_lines(path)
    for flags in SOLVER_FLAGS.values():
        lines.append(["solve", path, *flags])
        for fmt in ("json", "csv"):
            tail = [*flags, "--format", fmt]
            lines.append(["search", path, "--trials", "12", "--seed", "3",
                          *tail])
            lines.append(["continue", path, "--a-target", "-1.2",
                          "--steps", "2", *tail])
            lines.append(["probe", path, "--trials", "12", "--seed", "3",
                          *tail])
            lines.append(["probe", path, "--trials", "6", "--seed", "3",
                          "--omegas", "0.5,2", *tail])
    # the single probe as a one-value sweep, and two empty sweeps
    lines += [["probe", path, "--trials", "12", "--seed", "3",
               "--omegas", "1"]]
    lines += [["probe", path, "--trials", "6", "--seed", "3",
               "--omegas", omegas] for omegas in (",", "")]
    # a bad solver flag together with another bad value
    lines += [["search", path, "--trials", "0", "--damping-init", "0"],
              ["probe", path, "--trials", "0", "--damping-grow", "1"],
              ["probe", path, "--omegas", "-1", "--damping-init", "0"],
              ["probe", path, "--omegas", "abc", "--damping-init", "0"],
              ["continue", path, "--a-target", "0", "--tol", "nan"]]
    # verify's own threshold: unusable values and an exact-zero test
    lines += [["verify", path, "--samples", "4", "--tol", tol]
              for tol in ("inf", "-1", "0")]
    return lines


# 16 equal planar masses take 2**16 // (16*2)**2 = 64 solver slots, so
# 100 trials refill freed slots with the remaining 36 seeds
ROLLING = ("ring16", {"schema_version": "1", "dimension": 2,
                      "exponent": -1.5, "masses": [1.0] * 16,
                      "frequencies": [1.0]})


def _ring(count, a, central_mass=0.0):
    """``count`` unit masses on a ring, around a central mass if one is
    given, rotating at rate 1: omega^2 = rho^(2a) (M + 2^(2a+1) S),
    S = sum_j sin^(2a+2)(pi j/n)."""
    s = sum(math.sin(math.pi * j / count) ** (2.0 * a + 2.0)
            for j in range(1, count))
    rho = (1.0 / (central_mass + 2.0 ** (2.0 * a + 1.0) * s)) \
        ** (1.0 / (2.0 * a))
    masses, positions = [1.0] * count, _ngon(count, rho)
    if central_mass:
        masses, positions = [central_mass] + masses, [[0.0, 0.0]] + positions
    return {"schema_version": "1", "dimension": 2, "exponent": a,
            "masses": masses, "frequencies": [1.0], "positions": positions}


# the integrator at more than 8 bodies
MAXWELL = ("maxwell8", _ring(8, -1.5, central_mass=1000.0))
# the unstable equal-mass 12-ring at a = -2: its deviation is physical
# growth, not rounding, and its integration rejects a step
UNSTABLE = ("ring12", _ring(12, -2.0))


def _rolling_lines(path):
    """Search and probe lines whose trials outnumber the solver slots."""
    return [[command, path, "--trials", "100", "--seed", "3", *flags,
             "--format", fmt]
            for flags in (SOLVER_FLAGS["default"], SOLVER_FLAGS["tight"])
            for command in ("search", "probe")
            for fmt in ("json", "csv")]


# three unit masses at a just below -1/2 and rate 1e-150 have a seed
# radius near 9e300: the squared distances of every draw overflow, and
# the collision rule ends search and probe with one error line
SEED_OVERFLOW = ("seed-overflow", {"schema_version": "1", "dimension": 2,
                                   "exponent": -0.5000001,
                                   "masses": [1.0, 1.0, 1.0],
                                   "frequencies": [1e-150]})


def _seed_overflow_lines(path):
    return [[command, path, "--trials", "2", "--seed", "3"]
            for command in ("search", "probe")]


# 10**18 float64 samples ask for 8 EB, more than any address space holds:
# numpy fails before it touches memory, and verify and integrate exit 1
# with one MemoryError line and no report
def _huge_samples_lines(path):
    return [[command, path, "--samples", "1000000000000000000"]
            for command in ("verify", "integrate")]


def _searches(trials):
    """Search and probe lines at ``trials`` trials, seed 3, both formats."""
    def lines(path):
        return [[command, path, "--trials", str(trials), "--seed", "3",
                 "--format", fmt]
                for command in ("search", "probe") for fmt in ("json", "csv")]
    return lines


def _problem(masses, rates, a):
    return {"schema_version": "1", "dimension": 2 * len(rates),
            "exponent": a, "masses": masses, "frequencies": rates}


# Searches whose convergence tests and class lookups take the less common
# turns: three unit masses at slow rates, where 1 or the point norms set
# the residual scale (at 1e-7 every trial converges at its seed after 0
# iterations); 12 equal masses at a = -2, whose 300 trials take 113 slots
# and whose 256 converged ones fill 3 lookup chunks with 111 classes; and
# 5 unequal masses, whose closest pair need not be the heaviest, and whose
# 2500 trials take 655 slots and converge 2403 times over 4 chunks into
# 145 classes
SEARCHES = [
    ("slow1e-3", _problem([1.0] * 3, [1e-3], -1.5), _searches(12)),
    ("slow1e-7", _problem([1.0] * 3, [1e-7], -1.5), _searches(12)),
    ("equal12", _problem([1.0] * 12, [1.0], -2.0), _searches(300)),
    ("unequal5",
     _problem(np.random.default_rng(2).uniform(0.5, 2.0, 5).tolist(), [1.0],
              -1.5), _searches(2500)),
]


def _digest(data, tmp):
    if data is None:
        return "-"
    text = data.replace(tmp, "<tmp>")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _run(argv, tmp, out_path):
    if os.path.exists(out_path):
        os.unlink(out_path)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    report = None
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as handle:
            report = handle.read()
    shown = shlex.join(argv).replace(tmp, "<tmp>")
    return (f"{code} {_digest(stdout.getvalue(), tmp)} "
            f"{_digest(stderr.getvalue(), tmp)} {_digest(report, tmp)} "
            f"{shown}")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "report.out")
        documents = _documents()
        runs = [(name, raw, _command_lines) for name, raw in documents.items()]
        runs += [(*MAXWELL, _integrator_lines),
                 (*UNSTABLE, _integrator_lines), (*ROLLING, _rolling_lines),
                 (*SEED_OVERFLOW, _seed_overflow_lines),
                 ("two", documents["two"], _huge_samples_lines), *SEARCHES]
        for name, raw, command_lines in runs:
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(raw, handle)
            for argv in command_lines(path):
                for extra in ([], ["--out", out_path]):
                    print(_run(argv + extra, tmp, out_path), flush=True)


if __name__ == "__main__":
    sys.exit(main())
