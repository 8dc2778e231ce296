"""Damped least-squares search for rigidly rotating configurations.

Zeros of the balance defect are found by Levenberg-Marquardt iteration
with the exact dense Jacobian. Rotational (and, for odd dimension,
translational) gauge directions are left in the system and absorbed by
the damping; configurations are canonicalized only after convergence.
Multistart search draws seeds from per-trial generators split off the
root seed by trial index, so results never depend on scheduling.
"""

from __future__ import annotations

import enum
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .criterion import residual, residual_scale, jacobian
from .model import Configuration, check_problem_config

log = logging.getLogger(__name__)


class Termination(enum.Enum):
    CONVERGED = "converged"
    STALLED = "stalled"
    COLLISION_GUARD = "collision_guard"
    MAX_ITERATIONS = "max_iterations"


@dataclass
class SolveOptions:
    """Tunables of the damped least-squares iteration.

    tol_res is relative: convergence means max_norm <= tol_res * scale
    with the scale from ``criterion.residual_scale``. guard_rel rejects
    trial steps whose minimum separation drops below guard_rel times the
    trial's own size.
    """

    tol_res: float = 1e-12
    max_iterations: int = 200
    damping_init: float = 1e-3
    damping_grow: float = 10.0
    damping_shrink: float = 0.5
    damping_max: float = 1e12
    guard_rel: float = 1e-6
    max_collision_rejects: int = 25


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Outcome of one local solve, with the per-step residual trace."""

    config: Configuration
    residual_max: float
    iterations: int
    termination: Termination
    residual_history: tuple = field(default=())

    @property
    def converged(self):
        return self.termination is Termination.CONVERGED

    def to_dict(self):
        return {
            "points": self.config.points.tolist(),
            "residual_max": self.residual_max,
            "iterations": self.iterations,
            "termination": self.termination.value,
        }


@dataclass(frozen=True, eq=False)
class EquilibriumFingerprint:
    """Rotation- and relabeling-invariant signature of a configuration.

    Distances are sorted ascending. Norms are mass-weighted (m_i |Q_i|)
    and ordered by (mass, weighted norm), so only equal-mass bodies are
    quotiented by relabeling. Two genuinely distinct shapes can in
    principle share a fingerprint; such collisions are an accepted
    limitation of the cheap signature.
    """

    sorted_distances: np.ndarray
    sorted_mass_weighted_norms: np.ndarray

    def __post_init__(self):
        d = np.array(self.sorted_distances, dtype=float)
        w = np.array(self.sorted_mass_weighted_norms, dtype=float)
        d.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "sorted_distances", d)
        object.__setattr__(self, "sorted_mass_weighted_norms", w)

    def matches(self, other, rtol=1e-6):
        for mine, theirs in (
            (self.sorted_distances, other.sorted_distances),
            (self.sorted_mass_weighted_norms, other.sorted_mass_weighted_norms),
        ):
            if mine.shape != theirs.shape:
                return False
            ref = max(1.0, float(np.abs(mine).max()), float(np.abs(theirs).max()))
            if float(np.abs(mine - theirs).max()) > rtol * ref:
                return False
        return True

    def to_dict(self):
        return {
            "sorted_distances": self.sorted_distances.tolist(),
            "sorted_mass_weighted_norms": self.sorted_mass_weighted_norms.tolist(),
        }


def fingerprint(config, problem):
    """Signature used to deduplicate equilibria up to rotation/relabeling."""
    check_problem_config(problem, config)
    pts = _kernels.as_input(config.points)
    dist = _kernels.pair_distances(pts)
    iu = np.triu_indices(problem.n, 1)
    sorted_distances = np.sort(dist[iu])
    norms = np.sqrt(np.sum(pts ** 2, axis=1))
    order = np.lexsort((problem.masses * norms, problem.masses))
    weighted = (problem.masses * norms)[order]
    return EquilibriumFingerprint(sorted_distances, weighted)


def canonicalize(config, problem):
    """Fix the gauge of a configuration; idempotent.

    Translates the mass-weighted centroid to zero along axes the squared
    rate matrix does not constrain (the trailing axis when k is odd), then
    rotates each 2-plane so the first body with a nonzero projection in
    that plane sits at angle zero.
    """
    check_problem_config(problem, config)
    pts = np.array(config.points, dtype=float)
    n, k = pts.shape
    if k % 2 == 1:
        centroid_last = float(problem.masses @ pts[:, -1]) / float(problem.masses.sum())
        pts[:, -1] -= centroid_last
    scale = max(1.0, float(np.sqrt(np.sum(pts ** 2, axis=1)).max()))
    for l in range(k // 2):
        cols = slice(2 * l, 2 * l + 2)
        plane = pts[:, cols]
        radii = np.sqrt(np.sum(plane ** 2, axis=1))
        nonzero = np.nonzero(radii > 1e-9 * scale)[0]
        if nonzero.size == 0:
            continue
        x, y = plane[nonzero[0]]
        r = float(np.hypot(x, y))
        c, s = x / r, y / r
        rot = np.array([[c, s], [-s, c]])
        pts[:, cols] = plane @ rot.T
    return Configuration(pts)


def seed_radius(problem):
    """Sampling radius: the two-body length scale inflated by n."""
    omega_max = float(problem.frequencies.max())
    total_mass = float(problem.masses.sum())
    return (omega_max ** 2 / total_mass) ** (1.0 / (2.0 * problem.a)) * problem.n


def sample_seed(problem, rng, radius=None, max_attempts=100):
    """Draw a collision-free configuration of i.i.d. points in a ball."""
    r0 = seed_radius(problem) if radius is None else float(radius)
    n, k = problem.n, problem.k
    for _ in range(max_attempts):
        direction = rng.normal(size=(n, k))
        direction /= np.sqrt(np.sum(direction ** 2, axis=1))[:, None]
        radii = r0 * rng.random(n) ** (1.0 / k)
        try:
            return Configuration(direction * radii[:, None])
        except ValueError:
            continue
    raise RuntimeError("failed to draw a collision-free seed")


def _check_damping(opts):
    """Reject damping settings under which rejected steps repeat forever."""
    if not opts.damping_init > 0.0:
        raise ValueError(f"damping_init must be > 0, got {opts.damping_init}")
    if not opts.damping_grow > 1.0:
        raise ValueError(f"damping_grow must be > 1, got {opts.damping_grow}")
    if np.isnan(opts.damping_shrink):
        raise ValueError("damping_shrink must not be nan")


def solve_from_seed(seed, problem, opts=None):
    """Levenberg-Marquardt iteration on the stacked balance defect.

    Trial steps are accepted only when they decrease the stacked residual
    norm; steps whose minimum separation falls below the collision guard
    are rejected with increased damping instead of being evaluated.
    """
    opts = opts or SolveOptions()
    _check_damping(opts)
    n, k = problem.n, problem.k

    config = seed
    report = residual(config, problem)
    cost = float(np.linalg.norm(report.per_body))
    history = [report.max_norm]
    damping = opts.damping_init
    collision_streak = 0

    def stop(iteration, termination):
        return SolveResult(config, report.max_norm, iteration, termination,
                           tuple(history))

    for iteration in range(opts.max_iterations):
        if report.max_norm <= opts.tol_res * residual_scale(config, problem):
            return stop(iteration, Termination.CONVERGED)
        jac = jacobian(config, problem)
        jtj = jac.T @ jac
        grad = jac.T @ report.per_body.ravel()
        mu_base = max(float(np.diag(jtj).max()), np.finfo(float).tiny)

        accepted = False
        while not accepted:
            lhs = jtj + (damping * mu_base) * np.eye(n * k)
            try:
                step = np.linalg.solve(lhs, -grad)
            except np.linalg.LinAlgError:
                step = None
            if step is None or not np.all(np.isfinite(step)):
                damping *= opts.damping_grow
                if damping > opts.damping_max:
                    return stop(iteration, Termination.STALLED)
                continue
            trial_pts = config.points + step.reshape(n, k)
            trial_scale = max(
                1.0, float(np.sqrt(np.sum(trial_pts ** 2, axis=1)).max())
            )
            try:
                trial_config = Configuration(trial_pts)
            except ValueError:
                # collided (or overflowed) below even the construction
                # threshold, which lies under the guard
                trial_config = None
            if (trial_config is None
                    or trial_config.min_distance < opts.guard_rel * trial_scale):
                damping *= opts.damping_grow
                collision_streak += 1
                if (collision_streak >= opts.max_collision_rejects
                        or damping > opts.damping_max):
                    return stop(iteration, Termination.COLLISION_GUARD)
                continue
            collision_streak = 0
            trial_report = residual(trial_config, problem)
            trial_cost = float(np.linalg.norm(trial_report.per_body))
            if np.isfinite(trial_cost) and trial_cost < cost:
                accepted = True
                config = trial_config
                report = trial_report
                cost = trial_cost
                history.append(report.max_norm)
                damping = max(damping * opts.damping_shrink, 1e-15)
            else:
                damping *= opts.damping_grow
                if damping > opts.damping_max:
                    return stop(iteration, Termination.STALLED)

    if report.max_norm <= opts.tol_res * residual_scale(config, problem):
        return stop(opts.max_iterations, Termination.CONVERGED)
    return stop(opts.max_iterations, Termination.MAX_ITERATIONS)


@dataclass(frozen=True, eq=False)
class SearchClass:
    """One deduplicated equilibrium class found by multistart search."""

    result: SolveResult
    fingerprint: EquilibriumFingerprint
    hits: int


def _run_trial(problem, rng_seed, trial, opts):
    rng = np.random.default_rng([rng_seed, trial])
    seed = sample_seed(problem, rng)
    return solve_from_seed(seed, problem, opts)


def multistart_search(problem, trials, rng_seed, opts=None, jobs=1,
                      fingerprint_rtol=1e-6):
    """Solve from ``trials`` random seeds and deduplicate the results.

    Returns the deduplicated converged results as SearchClass records in
    order of first discovery. Each trial draws its generator from
    (rng_seed, trial index), so the output is a deterministic function of
    (problem, trials, rng_seed) regardless of ``jobs``.
    """
    trials = int(trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    opts = opts or SolveOptions()
    jobs = max(1, int(jobs))

    if jobs == 1:
        raw = [_run_trial(problem, rng_seed, t, opts) for t in range(trials)]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            raw = list(
                pool.map(lambda t: _run_trial(problem, rng_seed, t, opts),
                         range(trials))
            )

    classes = []
    dropped = 0
    for result in raw:
        if not result.converged:
            dropped += 1
            continue
        canonical = canonicalize(result.config, problem)
        canonical_result = SolveResult(
            canonical, result.residual_max, result.iterations,
            result.termination, result.residual_history,
        )
        fp = fingerprint(canonical, problem)
        for idx, known in enumerate(classes):
            if known.fingerprint.matches(fp, rtol=fingerprint_rtol):
                classes[idx] = SearchClass(known.result, known.fingerprint,
                                           known.hits + 1)
                break
        else:
            classes.append(SearchClass(canonical_result, fp, 1))
    if dropped:
        log.debug("multistart: %d of %d trials dropped (unconverged)",
                  dropped, trials)
    return classes


def exponent_schedule(a_start, a_target, steps):
    """Geometric walk of the exponent magnitude from a_start to a_target."""
    steps = int(steps)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    for name, value in (("start", a_start), ("target", a_target)):
        if not value < -0.5:
            raise ValueError(
                f"{name} exponent must satisfy a < -0.5, got {value}"
            )
    fractions = np.arange(1, steps + 1) / steps
    return -np.exp(
        (1.0 - fractions) * np.log(-a_start) + fractions * np.log(-a_target)
    )


def continuation_in_exponent(start, problem, a_target, steps, opts=None):
    """Re-solve along a geometric exponent schedule toward ``a_target``.

    ``start`` must be a converged SolveResult for ``problem``. Returns one
    SolveResult per scheduled exponent (see ``exponent_schedule``); stops
    early with the partial list if a step fails to converge.
    """
    if not start.converged:
        raise ValueError("continuation requires a converged starting result")
    schedule = exponent_schedule(problem.a, float(a_target), steps)
    opts = opts or SolveOptions()
    results = []
    config = start.config
    for a_value in schedule:
        stepped = solve_from_seed(config, problem.with_exponent(a_value), opts)
        results.append(stepped)
        if not stepped.converged:
            log.debug("continuation stopped at a=%.6g (%s)",
                      a_value, stepped.termination.value)
            break
        config = stepped.config
    return results
