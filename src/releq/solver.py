"""Damped least-squares search for rigidly rotating configurations.

Zeros of the balance defect are found by Levenberg-Marquardt iteration
with the exact dense Jacobian. Rotational gauge directions are left in
the system and absorbed by the damping; configurations are canonicalized
only after convergence.

For odd k the fixed axis has rate 0, and its balance row at the body
with the largest coordinate there, sum_j m_j (z_j - z_i) r_ij^(2a) = 0,
is a sum of terms <= 0: every equilibrium has all bodies at one z. So
odd-k problems are solved as the (k-1)-dimensional problem with the same
masses, rates and exponent, and the results are lifted to z = 0.

The one LM implementation, ``_solve_batch``, runs seeds in lock-step
rounds over a fixed number of slots. Each round first gives every slot
that a stopped trial freed the next seed, then makes one factorization
for all open trials and one pair-geometry pass for all their trial point
sets. The collision guard and the residual derive from that pass, and an
accepted step is settled from it at once, as a placed seed is: its
convergence, iteration and gradient tests and its Jacobian for the next
round. A seed is measured once, by the pass that places it, which also
applies ``Configuration``'s collision rule: a colliding seed ends the
batch with that rule's ``ValueError`` and is not redrawn. A trial
stopped by a test frees its slot for the next round. Damping, collision
streak and iteration count stay per trial, so every trial takes bit for
bit the steps it takes alone. ``solve_from_seed`` is a batch of one seed
in one slot. Multistart search takes as many slots as keep one
(slots, n*k, n*k) array within 2**16 float64 entries (512 KB), which
keeps peak memory near that of a lone solve at large n. Each trial draws
its seed from a generator split off the root seed by trial index, so
results never depend on which trials share its rounds. The damped matrix
of each open trial is a copy of its J^T J with the damping added on the
diagonal in place, and a stack is gathered down to its open trials only
when some trial leaves it.

A trial stalls when its damped steps keep failing until the damping
passes ``DAMPING_MAX``, or, by the gradient test of MINPACK's ``lmder``,
when it reaches a stationary point of ||F||^2 that is no zero:
||J^T F|| <= GRADIENT_RTOL * ||J||_F * ||F||, tested each time the trial
is linearized, after the convergence and iteration tests.

The batch yields each finished trial as a ``SolveResult``. A search
does its class bookkeeping on stacks: it takes the converged trials in
trial order, in chunks of at most its slot count, and canonicalizes
each chunk as one stack whose pair geometry, measured once, serves the
collision check of every canonical set and the fingerprint rows
(``canonicalize`` and ``fingerprint`` run the same code on a stack of
one). The classes' rows, and their maxima stored as each class is made,
are kept as stacked arrays in discovery order, and each trial's are
tested against all of them in one array comparison: it joins the first
class it matches, by the rule of ``EquilibriumFingerprint.matches``, or
opens a new class, which alone gets an ``EquilibriumFingerprint``.
``releq.cli`` builds the report entries of these plain records.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .criterion import residual, residual_scale_batch
from .model import (Configuration, Problem, _frozen_array,
                    check_problem_config, check_separation)

# A multistart search runs so many trials at once that one
# (slots, n*k, n*k) array has at most this many float64 entries (512 KB).
_BATCH_ENTRIES = 2 ** 16
# A trial whose gradient satisfies ||J^T F|| <= GRADIENT_RTOL*||J||_F*||F||
# sits at a stationary point of ||F||^2 that is no zero and has stalled.
# Measured on equal- and random-mass searches (k = 2 and 4, a from -0.6
# to -3): converged trials stay above 1.5e-5 along their path, and
# stalled trials end at or below 2.2e-8.
GRADIENT_RTOL = 1e-7
# A trial that has accepted this many steps without converging stops.
MAX_ITERATIONS = 200
# A trial whose damping grows past this after a rejected step has stalled.
DAMPING_MAX = 1e12
# Trial steps whose minimum separation drops below GUARD_REL times the
# trial's size are rejected; MAX_COLLISION_REJECTS rejections in a row
# stop the trial at the collision guard.
GUARD_REL = 1e-6
MAX_COLLISION_REJECTS = 25
# Fingerprints agreeing to this relative tolerance are one class.
FINGERPRINT_RTOL = 1e-6


class Termination(enum.Enum):
    CONVERGED = "converged"
    STALLED = "stalled"
    COLLISION_GUARD = "collision_guard"
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class SolveOptions:
    """Tunables of the damped least-squares iteration, checked once here.

    tol_res is relative: convergence means max_norm <= tol_res * scale
    with the scale from ``criterion.residual_scale``. Damping settings
    under which rejected steps repeat forever, and tolerances that no
    trial (nan, <= 0) or every trial (inf) meets, are rejected.
    """

    tol_res: float = 1e-12
    damping_init: float = 1e-3
    damping_grow: float = 10.0
    damping_shrink: float = 0.5

    def __post_init__(self):
        init, grow, tol = self.damping_init, self.damping_grow, self.tol_res
        if not init > 0.0:
            raise ValueError(f"damping_init must be > 0, got {init}")
        if not grow > 1.0:
            raise ValueError(f"damping_grow must be > 1, got {grow}")
        if np.isnan(self.damping_shrink):
            raise ValueError("damping_shrink must not be nan")
        if not (np.isfinite(tol) and tol > 0.0):
            raise ValueError(f"tol_res must be finite and > 0, got {tol}")


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Outcome of one local solve, with the per-step residual trace.

    ``points`` is an owned read-only copy; ``config``, their validated
    ``Configuration``, is built on first use (see ``_solve_batch``)."""

    points: np.ndarray
    residual_max: float
    iterations: int
    termination: Termination
    residual_history: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", _frozen_array(self.points))

    @functools.cached_property
    def config(self):
        return Configuration(self.points)

    @property
    def converged(self):
        return self.termination is Termination.CONVERGED


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
        for name in ("sorted_distances", "sorted_mass_weighted_norms"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))

    def matches(self, other):
        distances = self.sorted_distances[None]
        norms = self.sorted_mass_weighted_norms[None]
        return _first_match(distances, norms, _maxima(distances, norms),
                            other.sorted_distances,
                            other.sorted_mass_weighted_norms) is not None


def _maxima(distances, norms):
    """(C, 2) stack of max(1, max|row|) of C distance and norm rows."""
    return np.stack([np.abs(side).max(axis=1, initial=1.0)
                     for side in (distances, norms)], axis=1)


def _first_match(distances, norms, maxima, fp_distances, fp_norms):
    """Index of the first known fingerprint, row c of ``distances`` and
    ``norms`` with their ``_maxima`` row c, that the rows ``fp_distances``
    and ``fp_norms`` match, or None. They match when, on each side,
    max|known - new| <= FINGERPRINT_RTOL * max(1, max|known|, max|new|);
    rows of another length never match.
    """
    hit = True
    for known, new, known_max in zip((distances, norms),
                                     (fp_distances, fp_norms), maxima.T):
        if known.shape[1:] != new.shape:
            return None
        ref = np.maximum(known_max, np.abs(new).max())
        hit = hit & (np.abs(known - new).max(axis=1) <= FINGERPRINT_RTOL * ref)
    return int(np.argmax(hit)) if np.any(hit) else None


def _doubled(stack):
    """``stack`` with twice the rows; the new rows are left unwritten, so
    they take no resident memory until a class fills them."""
    grown = np.empty((2 * len(stack), stack.shape[1]))
    grown[:len(stack)] = stack
    return grown


def _norms(points):
    """Euclidean norm of each point along the last axis."""
    return np.sqrt(np.sum(points ** 2, axis=-1))


def _fingerprints(r2, norms, masses):
    """Fingerprint sides of each point set of a stack, from its squared
    pair distances and point norms: the sorted distances and the weighted
    norms m_i |Q_i| ordered by (mass, weighted norm)."""
    iu, ju = np.triu_indices(len(masses), 1)
    distances = np.sort(np.sqrt(r2[:, iu, ju]), axis=1)
    weighted = masses * norms
    order = np.lexsort((weighted, np.broadcast_to(masses, weighted.shape)))
    return distances, np.take_along_axis(weighted, order, axis=1)


def fingerprint(config, problem):
    """Signature used to deduplicate equilibria up to rotation/relabeling."""
    check_problem_config(problem, config)
    points = config.points[None]
    r2 = _kernels.pair_geometry(points)[1]
    distances, weighted = _fingerprints(r2, _norms(points), problem.masses)
    return EquilibriumFingerprint(distances[0], weighted[0])


def _canonical(points, problem):
    """``canonicalize`` of each (n, k) point set of a stack, unvalidated."""
    pts = np.array(points, dtype=float)
    k = pts.shape[2]
    if k % 2 == 1:
        # one dot product per set, as each set alone is centred
        masses = problem.masses
        centroids = np.array([masses @ z for z in pts[:, :, -1]])
        pts[:, :, -1] -= (centroids / float(masses.sum()))[:, None]
    scale = np.maximum(1.0, _norms(pts).max(axis=1))
    for l in range(k // 2):
        cols = slice(2 * l, 2 * l + 2)
        plane = pts[:, :, cols]
        nonzero = _norms(plane) > 1e-9 * scale[:, None]
        turned = np.flatnonzero(nonzero.any(axis=1))
        x, y = plane[turned, np.argmax(nonzero[turned], axis=1)].T
        r = np.hypot(x, y)
        c, s = x / r, y / r
        rot = np.stack([c, s, -s, c], axis=1).reshape(-1, 2, 2)
        pts[turned, :, cols] = plane[turned] @ rot.transpose(0, 2, 1)
    return pts


def canonicalize(config, problem):
    """Fix the gauge of a configuration; idempotent.

    Translates the mass-weighted centroid to zero along axes the squared
    rate matrix does not constrain (the trailing axis when k is odd), then
    rotates each 2-plane so the first body with a nonzero projection in
    that plane sits at angle zero.
    """
    check_problem_config(problem, config)
    return Configuration(_canonical(config.points[None], problem)[0])


def _canonical_fingerprints(points, problem):
    """Canonical points and fingerprint sides of a (B, n, k) stack.

    One pair-geometry pass of the canonical stack serves both the
    collision check of ``Configuration``, made on every set and raising
    as it does, and the fingerprints; each row has the bits that
    ``canonicalize`` and ``fingerprint`` give its set alone.
    """
    canonical = _canonical(points, problem)
    r2 = _kernels.pair_geometry(canonical)[1]
    norms = _norms(canonical)
    check_separation(_kernels.min_distance_from(r2), norms.max(axis=1))
    return (canonical, *_fingerprints(r2, norms, problem.masses))


def seed_radius(problem):
    """Sampling radius: the two-body length scale inflated by n."""
    omega_max = float(problem.frequencies.max())
    total_mass = float(problem.masses.sum())
    return (omega_max ** 2 / total_mass) ** (1.0 / (2.0 * problem.a)) * problem.n


def sample_seed(problem, rng):
    """Draw an (n, k) array of i.i.d. points in a ball, unchecked: the LM
    applies the collision rule when it places the seed (``_solve_batch``)."""
    r0 = seed_radius(problem)
    n, k = problem.n, problem.k
    direction = rng.normal(size=(n, k))
    direction /= np.sqrt(np.sum(direction ** 2, axis=1))[:, None]
    radii = r0 * rng.random(n) ** (1.0 / k)
    return direction * radii[:, None]


def _even_problem(problem):
    """The even-dimensional problem whose lifted equilibria are problem's."""
    if problem.k % 2 == 0:
        return problem
    return Problem(problem.k - 1, problem.masses, problem.frequencies,
                   problem.exponent)


def _lifted(points, k):
    """(n, k_even) ``points`` in dimension k, zero coordinates appended."""
    n, k_even = points.shape
    if k_even == k:
        return points
    lifted = np.zeros((n, k))
    lifted[:, :k_even] = points
    return lifted


def _damped_steps(lhs, rhs):
    """Solve each damped system; a singular one gives a row of NaN."""
    try:
        return np.linalg.solve(lhs, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # one singular matrix fails the whole stack: solve one by one
        steps = np.full(rhs.shape, np.nan)
        for i in range(len(rhs)):
            try:
                steps[i] = np.linalg.solve(lhs[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
        return steps


def _rows(mask, *arrays):
    """Each array's rows where ``mask`` holds, or the arrays themselves
    when it holds on every row, which saves copying whole stacks."""
    if mask.all():
        return arrays
    return tuple(array[mask] for array in arrays)


def _costs(per_body):
    """Euclidean norm of each defect, rounded as ``np.linalg.norm`` does."""
    count, n, k = per_body.shape
    flat = per_body.reshape(count, 1, n * k)
    return np.sqrt(flat @ flat.transpose(0, 2, 1))[:, 0, 0]


def _max_norms(per_body):
    return _norms(per_body).max(axis=-1)


def _solve_batch(seeds, problem, opts, slots):
    """Levenberg-Marquardt on an iterable of (n, k) seeds, in lock-step rounds.

    Up to ``slots`` trials run at once, one per slot. Each round starts by
    placing the next seeds in the slots that trials stopping in the last
    round freed; then every open trial makes one damped attempt. A point
    set enters its slot, as a placed seed or an accepted trial step, by
    one settle: from the pair geometry it was just measured with it runs
    the convergence test, the iteration test, the linearization
    (Jacobian, normal matrix, gradient, damping base) and the gradient
    test, so a trial stops in the round its last point set was measured.
    Damping, collision streak and iteration count are per trial, and each
    trial makes exactly the decisions and the arithmetic of a lone solve:
    trial steps are accepted only when they decrease the trial's stacked
    residual norm, and steps whose minimum separation falls below the
    collision guard are rejected with increased damping instead of being
    evaluated. Each finished trial is yielded as a ``SolveResult``, in
    seed order, as soon as every earlier trial has finished. Placing
    seeds applies ``Configuration``'s collision rule, ``check_separation``,
    to their geometry, so a trial's points are a seed that passed it or a
    step that cleared the stricter collision guard: its deferred
    ``config`` never raises.
    """
    n, k = problem.n, problem.k
    masses, asq, a = problem.masses, problem.asq, problem.a
    seeds = iter(seeds)
    points = np.empty((slots, n, k))
    max_norm = np.empty(slots)
    cost = np.empty(slots)
    history = [None] * slots
    damping = np.empty(slots)
    streak = np.empty(slots, dtype=int)
    iterations = np.empty(slots, dtype=int)
    jtj = np.empty((slots, n * k, n * k))
    grad = np.empty((slots, n * k))
    mu_base = np.empty(slots)
    active = np.zeros(slots, dtype=bool)
    order = np.empty(slots, dtype=int)    # index of the seed in each slot
    drawn = 0                             # seeds placed so far
    finished = {}                         # results not yet yielded
    yielded = 0

    def stop(done, termination):
        if not done.size:
            return
        for i in done:
            finished[int(order[i])] = SolveResult(
                points[i], float(max_norm[i]), int(iterations[i]),
                termination, tuple(history[i]))
        active[done] = False

    def reject(rejected, termination, give_up=False):
        # grow the damping; stop trials past DAMPING_MAX (or giving up)
        if not rejected.size:
            return
        damping[rejected] *= opts.damping_grow
        stop(rejected[give_up | (damping[rejected] > DAMPING_MAX)],
             termination)

    def defects(pts, diff, r2):
        """r^(2a), per-body balance defects and their norms of point sets."""
        r2a = r2 ** a
        body = pts * asq + _kernels.forces_from(diff, r2a, masses)
        return r2a, body, _costs(body)

    def settle(idx, pts, diff, r2, r2a, body, body_cost):
        """Put measured point sets in their slots, then test and linearize."""
        if not idx.size:
            return
        points[idx] = pts
        cost[idx] = body_cost
        max_norm[idx] = _max_norms(body)
        for i in idx:
            history[i].append(float(max_norm[i]))
        scale = residual_scale_batch(pts, r2, problem)
        converged = max_norm[idx] <= opts.tol_res * scale
        spent = ~converged & (iterations[idx] >= MAX_ITERATIONS)
        stop(idx[converged], Termination.CONVERGED)
        stop(idx[spent], Termination.MAX_ITERATIONS)
        live = ~(converged | spent)
        idx, diff, r2, r2a, body, body_cost = _rows(
            live, idx, diff, r2, r2a, body, body_cost)
        jac = _kernels.jacobian_from(diff, r2, r2a, masses, asq, a)
        jac_t = jac.transpose(0, 2, 1)
        normal = jac_t @ jac
        gradient = (jac_t @ body.reshape(-1, n * k, 1))[..., 0]
        diagonal = np.diagonal(normal, axis1=1, axis2=2)
        stalled = (np.sqrt(np.sum(gradient ** 2, axis=1))
                   <= GRADIENT_RTOL * np.sqrt(diagonal.sum(axis=1))
                   * body_cost)
        stop(idx[stalled], Termination.STALLED)
        idx, normal, gradient, diagonal = _rows(
            ~stalled, idx, normal, gradient, diagonal)
        jtj[idx] = normal
        grad[idx] = gradient
        mu_base[idx] = np.maximum(diagonal.max(axis=1), np.finfo(float).tiny)

    while True:
        free = np.flatnonzero(~active)
        placed = list(itertools.islice(seeds, free.size))
        idx = free[:len(placed)]
        if idx.size:
            for i in idx:
                history[i] = []
            damping[idx] = opts.damping_init
            streak[idx] = 0
            iterations[idx] = 0
            active[idx] = True
            order[idx] = np.arange(drawn, drawn + idx.size)
            drawn += idx.size
            seed = np.array(placed, dtype=float)
            diff, r2 = _kernels.pair_geometry(seed)
            check_separation(_kernels.min_distance_from(r2), _max_norms(seed))
            settle(idx, seed, diff, r2, *defects(seed, diff, r2))

        while yielded in finished:
            yield finished.pop(yielded)
            yielded += 1
        idx = np.flatnonzero(active)
        if not idx.size:
            if len(placed) < free.size:    # every seed has been solved
                return
            continue
        lhs = jtj[idx]    # a copy, as idx is an index array
        lhs.reshape(-1, (n * k) ** 2)[:, :: n * k + 1] += \
            (damping[idx] * mu_base[idx])[:, None]
        steps = _damped_steps(lhs, -grad[idx])
        finite = np.isfinite(steps).all(axis=1)
        reject(idx[~finite], Termination.STALLED)
        idx = idx[finite]

        trial = points[idx] + steps[finite].reshape(-1, n, k)
        size = _max_norms(trial)
        # a trial passes if its size is finite (so are its points) and its
        # minimum separation is not below GUARD_REL * max(1, size), which
        # lies above the Configuration threshold COLLISION_RTOL * (1 + size)
        passed = np.isfinite(size)
        whole = np.flatnonzero(passed)
        diff, r2 = _kernels.pair_geometry(trial[whole])
        clear = (_kernels.min_distance_from(r2)
                 >= GUARD_REL * np.maximum(1.0, size[whole]))
        passed[whole] = clear
        guarded = idx[~passed]
        streak[guarded] += 1
        reject(guarded, Termination.COLLISION_GUARD,
               streak[guarded] >= MAX_COLLISION_REJECTS)
        idx, trial = _rows(passed, idx, trial)
        diff, r2 = _rows(clear, diff, r2)
        streak[idx] = 0

        r2a, body, trial_cost = defects(trial, diff, r2)
        better = np.isfinite(trial_cost) & (trial_cost < cost[idx])
        reject(idx[~better], Termination.STALLED)
        idx, *measured = _rows(better, idx, trial, diff, r2, r2a, body,
                               trial_cost)
        damping[idx] = np.maximum(damping[idx] * opts.damping_shrink, 1e-15)
        iterations[idx] += 1
        settle(idx, *measured)


def solve_from_seed(seed, problem, opts=None):
    """Levenberg-Marquardt iteration on the stacked balance defect.

    The solve is a batch of one (see ``_solve_batch``), so it takes the
    same steps as the same seed inside a multistart search. For odd k the
    seed's trailing coordinate is dropped and the result lifted to z = 0.
    A seed whose bodies collide once it is dropped (bodies stacked along
    the fixed axis) ends at the collision guard after 0 iterations and is
    reported as given.
    """
    check_problem_config(problem, seed)
    opts = opts or SolveOptions()
    even = _even_problem(problem)
    try:
        start = seed if even is problem else Configuration(seed.points[:, :-1])
    except ValueError:
        max_norm = residual(seed, problem).max_norm
        return SolveResult(seed.points, max_norm, 0,
                           Termination.COLLISION_GUARD, (max_norm,))
    result = next(_solve_batch([start.points], even, opts, 1))
    return replace(result, points=_lifted(result.points, problem.k))


@dataclass(frozen=True, eq=False)
class SearchClass:
    """One deduplicated equilibrium class found by multistart search."""

    result: SolveResult
    fingerprint: EquilibriumFingerprint
    hits: int


def _slot_count(problem, trials):
    """Slots of a search: as many as keep (slots, n*k, n*k) within
    _BATCH_ENTRIES entries, at least one and at most ``trials``."""
    return min(max(1, _BATCH_ENTRIES // (problem.n * problem.k) ** 2), trials)


def _trial_results(problem, trials, rng_seed, opts):
    """Solve trials 0..trials-1 in one rolling lock-step batch, in order,
    as ``SolveResult`` records.

    Trial t draws its seed from the generator (rng_seed, t) when a slot
    frees up for it.
    """
    seeds = (sample_seed(problem, np.random.default_rng([rng_seed, t]))
             for t in range(trials))
    return _solve_batch(seeds, problem, opts, _slot_count(problem, trials))


def multistart_search(problem, trials, rng_seed, opts=None):
    """Solve from ``trials`` random seeds and deduplicate the results.

    Returns the deduplicated converged results as SearchClass records in
    order of first discovery. Each trial draws its generator from
    (rng_seed, trial index) and is solved as it would be alone, so the
    output is a deterministic function of (problem, trials, rng_seed).
    For odd k the trials are those of the (k-1)-dimensional search, and
    its classes are returned lifted to z = 0.
    """
    trials = int(trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    opts = opts or SolveOptions()
    even = _even_problem(problem)

    found = []    # [representative SolveResult, fingerprint, hits] per class
    # the classes' fingerprint sides and maxima, row c for class c; rows
    # from len(found) on are spare, and their count doubles when used up
    distances = np.empty((16, even.n * (even.n - 1) // 2))
    norms = np.empty((16, even.n))
    maxima = np.empty((16, 2))
    converged = (trial for trial in _trial_results(even, trials, rng_seed, opts)
                 if trial.converged)
    size = _slot_count(even, trials)
    for chunk in iter(lambda: list(itertools.islice(converged, size)), []):
        canonical, chunk_distances, chunk_norms = _canonical_fingerprints(
            np.array([trial.points for trial in chunk]), even)
        for trial, points, fp_distances, fp_norms in zip(
                chunk, canonical, chunk_distances, chunk_norms):
            count = len(found)
            hit = _first_match(distances[:count], norms[:count],
                               maxima[:count], fp_distances, fp_norms)
            if hit is not None:
                found[hit][2] += 1
                continue
            if count == len(norms):
                distances, norms, maxima = (
                    _doubled(distances), _doubled(norms), _doubled(maxima))
            distances[count] = fp_distances
            norms[count] = fp_norms
            maxima[count] = _maxima(fp_distances[None], fp_norms[None])[0]
            found.append([replace(trial, points=_lifted(points, problem.k)),
                          EquilibriumFingerprint(fp_distances, fp_norms), 1])
    return [SearchClass(*cls) for cls in found]


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
    (exponent, SolveResult) pair per scheduled exponent (see
    ``exponent_schedule``); stops early with the partial list if a step
    fails to converge.
    """
    if not start.converged:
        raise ValueError("continuation requires a converged starting result")
    schedule = exponent_schedule(problem.a, float(a_target), steps)
    opts = opts or SolveOptions()
    steps_done = []
    config = start.config
    for a_value in schedule:
        stepped = solve_from_seed(config, problem.with_exponent(a_value), opts)
        steps_done.append((float(a_value), stepped))
        if not stepped.converged:
            break
        config = stepped.config
    return steps_done
