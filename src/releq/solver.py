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
rounds over a fixed number of slots. The open trials fill the first rows
of every state array, so a round reads them as slices; the rows of the
trials that stop in a round are filled with the last open ones at its
end. Each round first gives every freed row the next seed, then makes
one factorization for all open trials and one pair-geometry pass for all
their trial point sets. The collision guard and the residual derive from
that pass, and an accepted step is settled from it at once, as a placed
seed is: its convergence, iteration and gradient tests and its Jacobian
for the next round. The convergence test max_norm <= tol * scale is
decided from bounds on the scale that the pass already gives, and the
scale's own pass over every pair is made only for the few point sets
between them (``_convergence_test``). A seed is measured once, by the
pass that places it, which also applies ``Configuration``'s collision
rule: a colliding seed ends the batch with that rule's ``ValueError``
and is not redrawn. Damping, collision streak, iteration count and
residual history stay per trial, so every trial takes bit for bit the
steps it takes alone, whichever row it holds. ``solve_from_seed`` is a
batch of one seed in one slot. Multistart search takes as many slots as
keep one (slots, n*k, n*k) array within 2**16 float64 entries (512 KB),
which keeps peak memory near that of a lone solve at large n. Trial t
draws its seed from the generator ``np.random.default_rng([root seed,
t])``, so results never depend on which trials share its rounds; the
draws of a slot count of trials are scaled into the ball as one stack
(``_seed_blocks``). The damped matrix of each open trial is its J^T J
copied with the damping added on the diagonal.

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
are kept as stacked arrays in discovery order. A chunk is looked up in
two array comparisons (``_matches``): against the classes known before
it, where each trial joins the first class it matches, by the rule of
``EquilibriumFingerprint.matches``, and among the rows of the trials
that matched none. The first of those opens a class, which every later
one that matches it joins, and so on in trial order, so the classes,
hits and order are those of a lookup one trial at a time. Only a class
gets an ``EquilibriumFingerprint``. ``releq.cli`` builds the report
entries of these plain records.
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
        mine = self.sorted_distances[None], self.sorted_mass_weighted_norms[None]
        theirs = (other.sorted_distances[None],
                  other.sorted_mass_weighted_norms[None])
        if any(a.shape != b.shape for a, b in zip(mine, theirs)):
            return False    # rows of another length never match
        return bool(_matches(theirs, _maxima(*theirs), mine, _maxima(*mine)))


def _maxima(distances, norms):
    """(C, 2) stack of max(1, max|row|) of C distance and norm rows."""
    return np.stack([np.maximum.reduce(np.abs(side), axis=1, initial=1.0)
                     for side in (distances, norms)], axis=1)


def _matches(new, new_maxima, known, known_maxima):
    """Which known fingerprint each new one matches, shape (new, known).

    ``new`` and ``known`` are (distances, norms) pairs of row stacks of one
    length each, and the maxima are their ``_maxima``. Two rows match when,
    on each side, max|known - new| <= FINGERPRINT_RTOL * max(1, max|known|,
    max|new|). The norm rows of every pair are compared first, then the
    distance rows of the pairs whose norms match; each comparison takes
    as many rows at a time as keep its differences within _BATCH_ENTRIES
    entries.
    """
    (new_distances, new_norms), (known_distances, known_norms) = new, known
    hit = np.empty((len(new_maxima), len(known_maxima)), dtype=bool)
    block = max(1, _BATCH_ENTRIES // max(1, hit.shape[0] * new_norms.shape[1]))
    for start in range(0, hit.shape[1], block):
        rows = slice(start, start + block)
        hit[:, rows] = _close(known_norms[None, rows], new_norms[:, None],
                              known_maxima[None, rows, 1],
                              new_maxima[:, None, 1])
    pairs = np.argwhere(hit)
    block = max(1, _BATCH_ENTRIES // new_distances.shape[1])
    for start in range(0, len(pairs), block):
        new_row, known_row = pairs[start:start + block].T
        hit[new_row, known_row] = _close(
            known_distances[known_row], new_distances[new_row],
            known_maxima[known_row, 0], new_maxima[new_row, 0])
    return hit


def _close(known, new, known_max, new_max):
    """max|known - new| <= FINGERPRINT_RTOL * max(known_max, new_max) over
    the last axis of the fingerprint sides."""
    return (np.maximum.reduce(np.abs(known - new), axis=-1)
            <= FINGERPRINT_RTOL * np.maximum(known_max, new_max))


def _doubled(stack):
    """``stack`` with twice the rows; the new rows are left unwritten, so
    they take no resident memory until a class fills them."""
    grown = np.empty((2 * len(stack), stack.shape[1]))
    grown[:len(stack)] = stack
    return grown


def _norms(points):
    """Euclidean norm of each point along the last axis."""
    return np.sqrt(np.add.reduce(points * points, axis=-1))


def _max_norms(points):
    """Largest point norm of each point set; the square root of the
    largest squared norm, which correctly rounded sqrt makes the same."""
    return np.sqrt(np.maximum.reduce(
        np.add.reduce(points * points, axis=-1), axis=-1))


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
    n, k = problem.n, problem.k
    return _ball_points(rng.normal(size=(1, n, k)), rng.random((1, n)),
                        seed_radius(problem))[0]


def _ball_points(normals, uniforms, radius):
    """Point sets in a ball of ``radius``, one per row of (B, n, k) standard
    normals, which give the directions, and (B, n) uniforms, whose k-th
    roots give the radial fractions."""
    k = normals.shape[-1]
    return (normals / _norms(normals)[..., None]
            * (radius * uniforms ** (1.0 / k))[..., None])


def _seed_blocks(problem, trials, rng_seed, block):
    """The seeds of trials 0..trials-1, ``block`` to a (B, n, k) stack:
    trial t's is the one ``sample_seed`` draws from the generator
    ``np.random.default_rng([rng_seed, t])``."""
    n, k = problem.n, problem.k
    radius = seed_radius(problem)
    for first in range(0, trials, block):
        count = min(block, trials - first)
        normals = np.empty((count, n, k))
        uniforms = np.empty((count, n))
        for row in range(count):
            rng = np.random.default_rng([rng_seed, first + row])
            normals[row] = rng.normal(size=(n, k))
            uniforms[row] = rng.random(n)
        yield _ball_points(normals, uniforms, radius)


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


def _picked(rows, index):
    """The slot rows, a slice or an index array, at positions ``index``."""
    return index + rows.start if isinstance(rows, slice) else rows[index]


def _rows(mask, rows, *arrays):
    """The slot rows and each array's rows where ``mask`` holds, or all of
    them as given when it holds on every row, which copies no stack."""
    if np.logical_and.reduce(mask):
        return (rows, *arrays)
    index = np.flatnonzero(mask)
    return (_picked(rows, index),
            *(array.take(index, axis=0) for array in arrays))


def _costs(per_body):
    """Euclidean norm of each defect, rounded as ``np.linalg.norm`` does."""
    count, n, k = per_body.shape
    flat = per_body.reshape(count, 1, n * k)
    return np.sqrt(flat @ flat.transpose(0, 2, 1))[:, 0, 0]


def _convergence_test(problem, tol):
    """The convergence test of ``problem``'s point sets at tolerance ``tol``.

    The returned function takes a stack of point sets with their squared
    pair distances, largest defect norms, sizes and minimum distances, and
    tells each max_norm <= tol * scale with the scale of
    ``criterion.residual_scale_batch``: max(1, N, R, F), with N the size,
    R the largest rate term |Asq Q_i| and F the largest force term
    m_j r^(2a+1). Its bounds decide most rows: max(1, N, R) <= scale, and
    F <= max(m) * d_min^(2a+1), as r^(2a+1) falls with r and rounding is
    monotone; the bound is raised by 2^-40 of itself, as numpy's SIMD
    power need not be correctly rounded. Only rows between the two tests
    take the scale's pass over every pair.
    """
    heaviest = float(np.maximum.reduce(problem.masses))
    power = 2.0 * problem.a + 1.0
    # with no squared rate above 1, |Asq Q_i| <= |Q_i| entry by entry, and
    # monotone rounding keeps R <= N: R is then not measured
    rates = problem.asq if np.maximum.reduce(problem.asq) > 1.0 else None

    def converged(points, r2, max_norm, size, min_distance):
        known = size if rates is None else np.maximum(
            size, _max_norms(points * rates))
        known = np.maximum(known, 1.0)
        forces = heaviest * min_distance ** power * (1.0 + 2.0 ** -40)
        met = max_norm <= tol * np.maximum(known, forces)
        if not np.logical_or.reduce(met):
            return met
        open_ = met & (max_norm > tol * known)
        if np.logical_or.reduce(open_):
            met[open_] = max_norm[open_] <= tol * residual_scale_batch(
                points[open_], r2[open_], problem)
        return met

    return converged


_TINY = np.finfo(float).tiny    # the smallest normal float
# list.append(history, value) over an array of lists and one of values
_append = np.frompyfunc(list.append, 2, 1)


def _solve_batch(seeds, problem, opts, slots):
    """Levenberg-Marquardt on an iterable of (n, k) seeds, in lock-step rounds.

    Up to ``slots`` trials run at once, and the open ones fill the first
    rows of every state array, so a round reads them as slices. Each round
    starts by placing the next seeds in the rows that trials stopping in
    the last round freed; then every open trial makes one damped attempt.
    A point set enters its row, as a placed seed or an accepted trial step,
    by one settle: from the pair geometry it was just measured with it
    runs the convergence test, the iteration test, the linearization
    (Jacobian, normal matrix, gradient, damping base) and the gradient
    test, so a trial stops in the round its last point set was measured.
    The convergence test is decided from bounds where they settle it (see
    ``_convergence_test``). Damping, collision streak, iteration count and
    residual history are per trial, and each trial makes exactly the
    decisions and the arithmetic of a lone solve, whichever row it holds:
    trial steps are accepted only when they decrease the trial's stacked
    residual norm, and steps whose minimum separation falls below the
    collision guard are rejected with increased damping instead of being
    evaluated. The rows of the trials that stopped in a round are closed
    up at its end. Each finished trial is yielded as a ``SolveResult``, in
    seed order, as soon as every earlier trial has finished. Placing seeds
    applies ``Configuration``'s collision rule, ``check_separation``, to
    their geometry, so a trial's points are a seed that passed it or a
    step that cleared the stricter collision guard: its deferred
    ``config`` never raises.
    """
    n, k = problem.n, problem.k
    nk = n * k
    masses, asq, a = problem.masses, problem.asq, problem.a
    grow, shrink = opts.damping_grow, opts.damping_shrink
    converged = _convergence_test(problem, opts.tol_res)
    seeds = iter(seeds)
    points = np.empty((slots, n, k))
    # per-trial numbers, each a column view of one of two arrays, so that
    # closing rows up moves them together
    numbers = np.empty((slots, 4))
    cost, max_norm, damping, mu_base = numbers.T
    counts = np.empty((slots, 3), dtype=int)
    streak, iterations, order = counts.T    # order: the seed's index
    jtj = np.empty((slots, nk, nk))
    damped = np.empty((slots, nk, nk))    # each round's jtj + mu I
    grad = np.empty((slots, nk))
    history = np.empty(slots, dtype=object)
    state = (points, numbers, counts, jtj, grad, history)
    stopped = []       # rows of the trials stopped since the last close-up
    finished = {}      # results not yet yielded, by seed index
    drawn = yielded = 0
    m = 0              # open trials, in rows 0..m-1

    def stop(rows, mask, termination):
        if not np.logical_or.reduce(mask):
            return
        rows = _picked(rows, np.flatnonzero(mask))
        stopped.append(rows)
        for row, seed_index, residual_max, count in zip(
                rows.tolist(), order[rows].tolist(), max_norm[rows].tolist(),
                iterations[rows].tolist()):
            finished[seed_index] = SolveResult(
                points[row], residual_max, count, termination,
                tuple(history[row]))

    def close_up():
        """Move the open trials' rows up to rows 0..m-1."""
        kept = np.ones(m, dtype=bool)
        for rows in stopped:
            kept[rows] = False
        stopped.clear()
        kept = np.flatnonzero(kept)
        for array in state:
            array[:kept.size] = array.take(kept, axis=0)
        return kept.size

    def defects(pts, diff, r2):
        """r^(2a), per-body balance defects and their norms of point sets."""
        r2a = r2 ** a
        body = pts * asq + _kernels.forces_from(diff, r2a, masses)
        return r2a, body, _costs(body)

    def settle(rows, taken, pts, diff, r2, size, min_distance, r2a, body,
               body_cost):
        """Put the measured point sets that ``taken`` marks in their rows,
        then test and linearize them."""
        norms = _max_norms(body)
        kept, kept_points, kept_cost, kept_norms = _rows(
            taken, rows, pts, body_cost, norms)
        points[kept] = kept_points
        cost[kept] = kept_cost
        max_norm[kept] = kept_norms
        _append(history[kept], kept_norms)
        met = converged(pts, r2, norms, size, min_distance)
        ended = taken & (met | (iterations[rows] >= MAX_ITERATIONS))
        if np.logical_or.reduce(ended):
            stop(rows, ended & met, Termination.CONVERGED)
            stop(rows, ended & ~met, Termination.MAX_ITERATIONS)
        rows, diff, r2, r2a, body, body_cost = _rows(
            taken & ~ended, rows, diff, r2, r2a, body, body_cost)
        jac = _kernels.jacobian_from(diff, r2, r2a, masses, asq, a)
        jac_t = jac.transpose(0, 2, 1)
        normal = jac_t @ jac
        gradient = (jac_t @ body.reshape(-1, nk, 1))[..., 0]
        diagonal = np.diagonal(normal, axis1=1, axis2=2)
        stalled = (np.sqrt(np.add.reduce(gradient * gradient, axis=1))
                   <= GRADIENT_RTOL * np.sqrt(np.add.reduce(diagonal, axis=1))
                   * body_cost)
        stop(rows, stalled, Termination.STALLED)
        rows, normal, gradient, diagonal = _rows(
            ~stalled, rows, normal, gradient, diagonal)
        jtj[rows] = normal
        grad[rows] = gradient
        mu_base[rows] = np.maximum(np.maximum.reduce(diagonal, axis=1), _TINY)

    while True:
        free = slots - m
        placed = list(itertools.islice(seeds, free))
        if placed:
            rows = slice(m, m + len(placed))
            for row in range(rows.start, rows.stop):
                history[row] = []
            damping[rows] = opts.damping_init
            streak[rows] = 0
            iterations[rows] = 0
            order[rows] = np.arange(drawn, drawn + len(placed))
            drawn += len(placed)
            m = rows.stop
            seed = np.array(placed, dtype=float)
            diff, r2 = _kernels.pair_geometry(seed)
            size = _max_norms(seed)
            min_distance = _kernels.min_distance_from(r2)
            check_separation(min_distance, size)
            settle(rows, np.ones(len(placed), dtype=bool), seed, diff, r2,
                   size, min_distance, *defects(seed, diff, r2))
            if stopped:
                m = close_up()

        while yielded in finished:
            yield finished.pop(yielded)
            yielded += 1
        if not m:
            if len(placed) < free:    # every seed has been solved
                return
            continue
        lhs = damped[:m]
        np.copyto(lhs, jtj[:m])
        diagonal = lhs.reshape(m, nk * nk)[:, :: nk + 1]
        np.add(diagonal, (damping[:m] * mu_base[:m])[:, None], out=diagonal)
        steps = _damped_steps(lhs, -grad[:m])
        trial = points[:m] + steps.reshape(m, n, k)
        size = _max_norms(trial)
        # a trial passes if its size is finite (so are its points) and its
        # minimum separation is not below GUARD_REL * max(1, size), which
        # lies above the Configuration threshold COLLISION_RTOL * (1 + size)
        solved = np.isfinite(size)
        if not np.logical_and.reduce(solved):
            # a non-finite step, from a singular or overflowing solve, is
            # a stall and a finite one to non-finite points is guarded;
            # both are measured at their current points, and fail the guard
            trial[~solved] = points[:m][~solved]
            solved = np.logical_and.reduce(np.isfinite(steps), axis=1)
        diff, r2 = _kernels.pair_geometry(trial)
        min_distance = _kernels.min_distance_from(r2)
        clear = min_distance >= GUARD_REL * np.maximum(1.0, size)
        rows = slice(0, m)
        if not np.logical_and.reduce(clear):
            guarded = solved & ~clear
            streak[:m][guarded] += 1
            damping[:m][~clear] *= grow
            stop(rows, guarded & ((streak[:m] >= MAX_COLLISION_REJECTS)
                                  | (damping[:m] > DAMPING_MAX)),
                 Termination.COLLISION_GUARD)
            stop(rows, ~solved & (damping[:m] > DAMPING_MAX),
                 Termination.STALLED)
            rows, trial, diff, r2, size, min_distance = _rows(
                clear, rows, trial, diff, r2, size, min_distance)
        streak[rows] = 0

        r2a, body, trial_cost = defects(trial, diff, r2)
        better = np.isfinite(trial_cost) & (trial_cost < cost[rows])
        stepped = damping[rows] * np.where(better, shrink, grow)
        np.maximum(stepped, 1e-15, out=stepped, where=better)
        damping[rows] = stepped
        iterations[rows] += better
        stop(rows, ~better & (stepped > DAMPING_MAX), Termination.STALLED)
        settle(rows, better, trial, diff, r2, size, min_distance, r2a, body,
               trial_cost)
        if stopped:
            m = close_up()


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

    Trial t's seed is drawn from the generator (rng_seed, t) (see
    ``_seed_blocks``), a slot count of trials at a time.
    """
    slots = _slot_count(problem, trials)
    seeds = itertools.chain.from_iterable(
        _seed_blocks(problem, trials, rng_seed, slots))
    return _solve_batch(seeds, problem, opts, slots)


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

    found = []    # (representative SolveResult, fingerprint) per class
    hits = np.zeros(0, dtype=int)
    # the classes' fingerprint sides and maxima, row c for class c; rows
    # from len(found) on are spare, and their count doubles when used up
    distances = np.empty((16, even.n * (even.n - 1) // 2))
    norms = np.empty((16, even.n))
    maxima = np.empty((16, 2))
    converged = (trial for trial in _trial_results(even, trials, rng_seed, opts)
                 if trial.converged)
    size = _slot_count(even, trials)
    for chunk in iter(lambda: list(itertools.islice(converged, size)), []):
        canonical, *rows = _canonical_fingerprints(
            np.array([trial.points for trial in chunk]), even)
        row_maxima = _maxima(*rows)
        classes = np.full(len(chunk), -1)
        if found:
            known = len(found)
            hit = _matches(rows, row_maxima, (distances[:known], norms[:known]),
                           maxima[:known])
            matched = np.logical_or.reduce(hit, axis=1)
            classes[matched] = np.argmax(hit[matched], axis=1)
        # of the trials that match no earlier class, the first opens a
        # class, which every later one that matches it joins; the rest
        # repeat this
        pending = np.flatnonzero(classes < 0)
        rows = tuple(side[pending] for side in rows)
        row_maxima = row_maxima[pending]
        among = _matches(rows, row_maxima, rows, row_maxima)
        left = np.arange(pending.size)
        while left.size:
            opener, left = left[0], left[1:]
            joined = among[left, opener]
            classes[pending[opener]] = len(found)
            classes[pending[left[joined]]] = len(found)
            left = left[~joined]
            if len(found) == len(norms):
                distances, norms, maxima = (
                    _doubled(distances), _doubled(norms), _doubled(maxima))
            distances[len(found)] = rows[0][opener]
            norms[len(found)] = rows[1][opener]
            maxima[len(found)] = row_maxima[opener]
            trial = pending[opener]
            found.append((
                replace(chunk[trial],
                        points=_lifted(canonical[trial], problem.k)),
                EquilibriumFingerprint(rows[0][opener], rows[1][opener])))
        tally = np.bincount(classes, minlength=len(found))
        tally[:hits.size] += hits
        hits = tally
    return [SearchClass(result, fp, count)
            for (result, fp), count in zip(found, hits.tolist())]


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
