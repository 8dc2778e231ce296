"""The three workloads: generated documents, CLI commands, correctness gate.

A workload is a fixed list of ``releq`` commands (a *pass*) built from
the benchmark seed. The package sees only the generated documents and
the flags derived from them; every command goes through the public
``releq.cli.main`` in process, one at a time, and writes its report with
``--out``. ``Runner.run_pass`` executes a pass and hashes every report.
The first pass of a run is checked against the closed forms in
``tests/oracles.py`` and re-evaluated with ``criterion.residual``; every
later pass must reproduce its report bytes exactly.

Sizes are chosen so that one pass takes 3-9 s on a 2-core machine with
the numpy backend, and so that over ten seeds the quartile spread of
classes_found and ok_frac stays under a tenth of the median: class
counts and cold-start convergence are binomial in the number of trials.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

# Relative tolerance the solver converges to (SolveOptions.tol_res) and
# the gate re-checks every reported configuration against. A miss counts
# against ok_frac: residual_scale is not rotation-invariant, so a class
# canonicalized after converging can land slightly above it. Beyond
# GROSS_TOL the configuration is no equilibrium and the output is wrong.
SOLVE_TOL = 1e-12
GROSS_TOL = 1e-8
# Closed-form comparisons of converged configurations.
ORACLE_RTOL = 1e-9
# Rigid-rotation deviation bound of acceptance criterion 4.
DEVIATION_BOUND = 1e-6
# Cluster-identity bound of acceptance criterion 3, relative to the scale.
LEMMA_RTOL = 1e-10
# The equal-mass 12-ring at a = -2 is dynamically unstable (growth rate
# ~4.8), so its deviation is ~2e-3 whatever the integrator does. It stays
# in the workload and counts as a failed operation, not as wrong output.
KNOWN_UNSTABLE = {(12, -2.0)}

SEARCH_FAMILIES = [  # (n, k, a, trials per pass)
    (3, 2, -1.5, 48),
    (6, 2, -0.75, 48),
    (6, 2, -1.5, 48),
    (12, 2, -2.0, 48),
    (6, 4, -1.5, 48),
    (5, 3, -1.5, 4),    # odd k: every trial runs to max_iterations today
]
JOBS2_FAMILY = 2        # index of the family timed at --jobs 2 when traced
COLD_N, COLD_A, COLD_TRIALS = 30, -1.5, 192
RINGS = (24, 48)
RING_TARGETS = (-0.75, -3.0)
RING_STEPS = 4
RING_PERTURBATION = 1e-3
NGON_SIZES = (3, 4, 5, 6, 8, 12)
NGON_EXPONENTS = (-0.75, -1.0, -1.5, -2.0)
MAXWELL_SIZES = (24, 48)
MAXWELL_CENTRAL_MASS = 1000.0
MAXWELL_A = -1.5

WORKLOADS = ("search", "large-n", "verify")


@dataclass
class Outcome:
    """Gate verdict for one command: ok + not-ok = its operations."""

    ok: int = 0
    broken: int = 0           # raised, wrong output, or non-deterministic
    classes: int = 0
    notes: list = field(default_factory=list)


@dataclass
class Command:
    label: str
    argv: list
    ops: int
    check: object             # check(exit code, parsed report) -> Outcome


@dataclass
class PassResult:
    seconds: float
    ops: int = 0
    ok: int = 0
    broken: int = 0
    classes: int = 0
    hashes: list = field(default_factory=list)   # (label, digest)
    notes: list = field(default_factory=list)


def run_cli(releq, argv):
    """Run one CLI command in process; returns (exit code, report bytes).

    ``releq.cli.main`` is looked up per call so a tracer can wrap it.
    """
    out = argv[argv.index("--out") + 1]
    if os.path.exists(out):
        os.remove(out)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = releq.cli.main(list(argv))
    if not os.path.exists(out):
        return code, None
    with open(out, "rb") as handle:
        return code, handle.read()


def _write_doc(path, k, a, masses, frequencies, positions=None):
    doc = {"schema_version": "1", "dimension": k, "exponent": a,
           "masses": [float(m) for m in masses],
           "frequencies": [float(w) for w in frequencies]}
    if positions is not None:
        doc["positions"] = np.asarray(positions, dtype=float).tolist()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


def _dist_norm(points):
    """(min pairwise distance, max point norm) computed here, not by releq."""
    pts = np.asarray(points, dtype=float)
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=-1))
    iu = np.triu_indices(len(pts), 1)
    return float(dist[iu].min()), float(np.sqrt((pts ** 2).sum(axis=1)).max())


def _close(x, y, rtol=ORACLE_RTOL):
    return abs(x - y) <= rtol * max(abs(x), abs(y))


def _rotated(points, theta, order):
    pts = np.asarray(points, dtype=float)[order]
    c, s = math.cos(theta), math.sin(theta)
    return pts @ np.array([[c, -s], [s, c]]).T


class Runner:
    """Builds one workload's pass from the seed and runs it."""

    def __init__(self, workload, seed, workdir, releq, oracles):
        self.dir = workdir
        self.releq = releq
        self.oracles = oracles
        self.rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
        self.commands = getattr(self, "_build_" + workload.replace("-", "_"))()
        self.verdicts = None
        self.reference = None

    def _path(self, name):
        return os.path.join(self.dir, name)

    def _rng_seed(self):
        return int(self.rng.integers(2 ** 31))

    # -- running ------------------------------------------------------

    def run_pass(self):
        """One pass, timed as a whole; checked against the first pass."""
        raws = []
        start = time.perf_counter()
        for cmd in self.commands:
            try:
                raws.append(run_cli(self.releq, cmd.argv))
            except Exception as exc:  # a raise is a failed operation
                raws.append(exc)
        elapsed = time.perf_counter() - start

        result = PassResult(seconds=elapsed)
        if self.verdicts is None:
            self.verdicts = [self._judge(cmd, raw)
                             for cmd, raw in zip(self.commands, raws)]
            self.reference = [_digest(raw) for raw in raws]
        for cmd, raw, verdict, ref in zip(self.commands, raws, self.verdicts,
                                          self.reference):
            digest = _digest(raw)
            if digest != ref:
                verdict = Outcome(broken=cmd.ops,
                                  notes=[f"{cmd.label}: output differs "
                                         f"between repetitions"])
            result.ops += cmd.ops
            result.ok += verdict.ok
            result.broken += verdict.broken
            result.classes += verdict.classes
            result.notes += verdict.notes
            result.hashes.append((cmd.label, digest))
        return result

    def _judge(self, cmd, raw):
        if isinstance(raw, Exception):
            return Outcome(broken=cmd.ops,
                           notes=[f"{cmd.label}: raised {raw!r}"])
        code, data = raw
        report = None if data is None else json.loads(data)
        try:
            verdict = cmd.check(code, report)
        except Exception as exc:  # malformed report: wrong output
            return Outcome(broken=cmd.ops,
                           notes=[f"{cmd.label}: check raised {exc!r}"])
        verdict.notes = [f"{cmd.label}: {note}" for note in verdict.notes]
        return verdict

    # -- shared checks ------------------------------------------------

    def relative_residual(self, points, k, a, masses, frequencies):
        """criterion.residual re-evaluated, over criterion.residual_scale."""
        problem = self.releq.Problem(k, masses, frequencies, a)
        config = self.releq.Configuration(np.asarray(points, dtype=float))
        report = self.releq.criterion.residual(config, problem)
        return report.max_norm / self.releq.criterion.residual_scale(config,
                                                                     problem)

    def _judge_classes(self, classes, converged, k, a, masses, freqs,
                       oracle=None):
        """Outcome of a search: the hits of a failing class are not ok."""
        outcome = Outcome(ok=converged)
        for idx, cls in enumerate(classes):
            rel = self.relative_residual(cls["points"], k, a, masses, freqs)
            wrong = rel > GROSS_TOL or (
                oracle is not None and not oracle(*_dist_norm(cls["points"])))
            if wrong:
                outcome.broken += cls["hits"]
                outcome.notes.append(f"class {idx} is not an equilibrium of "
                                     f"the family (relative residual "
                                     f"{rel:.2e})")
            elif rel > SOLVE_TOL:
                outcome.notes.append(f"class {idx}: relative residual "
                                     f"{rel:.2e} above {SOLVE_TOL:g}")
            else:
                outcome.classes += 1
                continue
            outcome.ok -= cls["hits"]
        return outcome

    # -- search: bound probes on small families -----------------------

    def _build_search(self):
        commands = []
        for idx, (n, k, a, trials) in enumerate(SEARCH_FAMILIES):
            masses, freqs = [1.0] * n, [1.0] * (k // 2)
            doc = _write_doc(self._path(f"family{idx}.json"), k, a, masses,
                             freqs)
            flags = ["--trials", str(trials), "--seed", str(self._rng_seed()),
                     "--jobs", "1"]
            out = self._path(f"probe{idx}.json")
            check = self._probe_check(doc, flags, n, k, a, trials)
            commands.append(Command(f"probe n={n} k={k} a={a}",
                                    ["probe", doc, *flags, "--out", out],
                                    trials, check))
        return commands

    def _probe_check(self, doc, flags, n, k, a, trials):
        masses, freqs = [1.0] * n, [1.0] * (k // 2)
        oracle = None
        euler = None
        if (n, k, a) == (3, 2, -1.5):
            euler = self.oracles.euler_collinear_distance(1.0, 1.0, a)
            rho = self.oracles.ngon_circumradius(3, 1.0, 1.0, a)
            lagrange = (2.0 * rho * math.sin(math.pi / 3.0), rho)

            def oracle(dmin, norm):
                return ((_close(dmin, euler) and _close(norm, euler))
                        or (_close(dmin, lagrange[0])
                            and _close(norm, lagrange[1])))

        def check(code, report):
            if code != 0 or report is None or report["trials"] != trials:
                return Outcome(broken=trials, notes=[f"exit {code}"])
            per_class = report["per_class"]
            if not per_class:
                return Outcome(ok=0)
            # The probe report carries no points; the same trials through
            # `releq search` do, in the same class order.
            code2, data = run_cli(self.releq, [
                "search", doc, *flags, "--out", self._path("gate_search.json")])
            classes = json.loads(data)["classes"]
            if code2 != 0 or len(classes) != len(per_class):
                return Outcome(broken=trials, notes=["search/probe disagree"])
            for cls, stats in zip(classes, per_class):
                dmin, norm = _dist_norm(cls["points"])
                if not (_close(dmin, stats["min_pairwise_distance"], 1e-12)
                        and _close(norm, stats["max_point_norm"], 1e-12)
                        and cls["hits"] == stats["hits"]):
                    return Outcome(broken=trials,
                                   notes=["probe class stats disagree"])
            found_euler = euler is not None and any(
                _close(s["min_pairwise_distance"], euler) for s in per_class)
            if found_euler and not _close(report["min_pairwise_distance"],
                                          euler):
                return Outcome(broken=trials, notes=[
                    "c_hat differs from the Euler collinear distance"])
            return self._judge_classes(classes, report["converged"], k, a,
                                       masses, freqs, oracle)
        return check

    # -- large-n: cold n = 30 search, warm ring continuation ----------

    def _build_large_n(self):
        n, a = COLD_N, COLD_A
        masses, freqs = [1.0] * n, [1.0]
        doc = _write_doc(self._path("cold.json"), 2, a, masses, freqs)
        out = self._path("cold_out.json")
        commands = [Command(
            f"search n={n} a={a}",
            ["search", doc, "--trials", str(COLD_TRIALS), "--seed",
             str(self._rng_seed()), "--jobs", "1", "--out", out],
            COLD_TRIALS, self._search_check(n, a))]
        for n_ring in RINGS:
            rho = self.oracles.ngon_circumradius(n_ring, 1.0, 1.0, COLD_A)
            ring = _rotated(self.oracles.ngon_points(n_ring, rho),
                            self.rng.uniform(0.0, 2.0 * math.pi),
                            self.rng.permutation(n_ring))
            ring += RING_PERTURBATION * rho * self.rng.normal(size=ring.shape)
            doc = _write_doc(self._path(f"ring{n_ring}.json"), 2, COLD_A,
                             [1.0] * n_ring, [1.0], ring)
            for target in RING_TARGETS:
                out = self._path(f"ring{n_ring}_{target}.json")
                commands.append(Command(
                    f"continue ring n={n_ring} a->{target}",
                    ["continue", doc, "--a-target", str(target), "--steps",
                     str(RING_STEPS), "--out", out],
                    RING_STEPS + 1, self._ring_check(n_ring)))
        return commands

    def _search_check(self, n, a):
        masses, freqs = [1.0] * n, [1.0]

        def check(code, report):
            if code != 0 or report is None or report["trials"] != COLD_TRIALS:
                return Outcome(broken=COLD_TRIALS, notes=[f"exit {code}"])
            return self._judge_classes(report["classes"], report["converged"],
                                       2, a, masses, freqs)
        return check

    def _ring_check(self, n):
        ops = RING_STEPS + 1

        def check(code, report):
            if report is None:      # the starting solve did not converge
                return Outcome(ok=0) if code == 1 else \
                    Outcome(broken=ops, notes=[f"exit {code}"])
            outcome = Outcome(ok=1)
            for row in report["rows"]:
                if row["termination"] != "converged":
                    continue
                a = row["a"]
                rho = self.oracles.ngon_circumradius(n, 1.0, 1.0, a)
                dmin, norm = _dist_norm(row["points"])
                rel = self.relative_residual(row["points"], 2, a, [1.0] * n,
                                             [1.0])
                if not (_close(norm, rho) and _close(row["max_point_norm"], rho)
                        and _close(dmin, 2.0 * rho * math.sin(math.pi / n))
                        and rel <= GROSS_TOL):
                    outcome.broken += 1
                    outcome.notes.append(f"step a={a} is not the {n}-ring")
                elif rel > SOLVE_TOL:
                    outcome.notes.append(f"step a={a}: relative residual "
                                         f"{rel:.2e} above {SOLVE_TOL:g}")
                else:
                    outcome.ok += 1
            return outcome
        return check

    # -- verify: oracle configurations --------------------------------

    def _build_verify(self):
        o = self.oracles
        cases = [("two-body", -1.5, [1.0, 1.0],
                  o.two_body_points(1.0, 1.0, 1.0, -1.5), False)]
        for n in NGON_SIZES:
            for a in NGON_EXPONENTS:
                rho = o.ngon_circumradius(n, 1.0, 1.0, a)
                cases.append((f"{n}-gon", a, [1.0] * n, o.ngon_points(n, rho),
                              (n, a) in KNOWN_UNSTABLE))
        for n in MAXWELL_SIZES:
            a = MAXWELL_A
            rho = maxwell_ring_radius(o, n, MAXWELL_CENTRAL_MASS, a)
            cases.append((f"maxwell {n}+1", a,
                          [MAXWELL_CENTRAL_MASS] + [1.0] * n,
                          [[0.0, 0.0]] + o.ngon_points(n, rho), False))
        commands = []
        for idx, (label, a, masses, points, unstable) in enumerate(cases):
            order = self.rng.permutation(len(masses))
            pts = _rotated(points, self.rng.uniform(0.0, 2.0 * math.pi), order)
            masses = [masses[i] for i in order]
            doc = _write_doc(self._path(f"verify{idx}.json"), 2, a, masses,
                             [1.0], pts)
            out = self._path(f"verify{idx}_out.json")
            commands.append(Command(
                f"verify {label} a={a}", ["verify", doc, "--out", out], 1,
                self._verify_check(pts, a, masses, unstable)))
        return commands

    def _verify_check(self, pts, a, masses, unstable):
        problem = self.releq.Problem(2, masses, [1.0], a)
        config = self.releq.Configuration(pts)

        def check(code, report):
            scale = self.releq.criterion.residual_scale(config, problem)
            rel = self.relative_residual(pts, 2, a, masses, [1.0])
            if (code != 0 or report is None or not report["passed"]
                    or rel > GROSS_TOL
                    or max(g["gap"] for g in report["lemma_gaps"])
                    >= LEMMA_RTOL * scale):
                return Outcome(broken=1, notes=["residual or cluster "
                                                "identity check failed"])
            if rel > SOLVE_TOL:
                return Outcome(notes=[f"relative residual {rel:.2e} above "
                                      f"{SOLVE_TOL:g}"])
            deviation = report["relative_equilibrium_deviation"]
            if deviation < DEVIATION_BOUND:
                return Outcome(ok=1, classes=1)
            if unstable:
                return Outcome(notes=[f"known unstable, deviation "
                                      f"{deviation:.3e}"])
            return Outcome(broken=1, notes=[f"deviation {deviation:.3e}"])
        return check


def maxwell_ring_radius(oracles, n, central_mass, a, omega=1.0):
    """Ring radius of n unit masses around a central mass.

    Each ring body feels the centre, M rho^(2a+1), plus the ring sum of
    ``oracles.ngon_circumradius``: omega^2 = rho^(2a) (M + 2^(2a+1) S).
    """
    s = oracles.ngon_sin_sum(n, a)
    return (omega ** 2 / (central_mass + 2.0 ** (2.0 * a + 1.0) * s)) \
        ** (1.0 / (2.0 * a))


def _digest(raw):
    if isinstance(raw, Exception):
        return "raised"
    code, data = raw
    body = b"" if data is None else data
    return f"{code}:{hashlib.sha256(body).hexdigest()}"
