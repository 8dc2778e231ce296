"""Equations of motion, conserved-quantity diagnostics, and direct ODE
verification that a candidate configuration really rotates rigidly.

The force on body i is sum_{j!=i} m_j (q_j - q_i) |q_j - q_i|^(2a);
``acceleration`` and ``potential_energy`` read their guard's pair
geometry. The integrator is an adaptive Dormand-Prince 5(4) pair with PI
step control; it aborts cleanly with a SingularityError when bodies
approach collision, or when an accepted step carries a pair through one.
Each integration allocates two phase points, the accepted state and the
stage point, and measures each one's pair geometry into the buffers of
its own ``pair_geometry_workspace``, in about two thirds of a one-shot
``pair_geometry``'s time. Stage sums, error scales, departures, dense
samples and forces are plain numpy expressions: at these sizes a buffer
saves them nothing.

``integrate`` works in the fixed frame and ``co_rotating_trajectory`` in
the frame that rotates at the problem's rates, where a relative
equilibrium is a fixed point; the fixed frame is the one that rotates
with the zero generator, so both run one loop under one rule. The first
step is fitted to the departure from the start, from the stiffness along
the starting acceleration, rather than climbing from a tiny one; the
steps run to the last sample time regardless of the others, each sample
is read from the pair's continuous extension on the step that covers
it, and the error is also controlled relative to the departure from the
start, so a tiny departure that grows is followed rather than stepped
over. ``relative_equilibrium_deviation`` reads the largest departure
from the co-rotating samples; ``to_fixed_frame`` maps them back to the
fixed frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import SingularityError
from .model import (
    Configuration,
    check_problem_config,
    rotation_generator,
    rotation_matrix,
)

# Integrations abort when the minimum separation drops below this fraction
# of the configuration scale; r^(2a) overflows quickly past it.
GUARD_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class PhaseState:
    """Positions (a valid ``Configuration``), velocities and time."""

    positions: np.ndarray
    velocities: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        pos = Configuration(self.positions).points
        vel = np.array(self.velocities, dtype=float)
        if pos.shape != vel.shape:
            raise ValueError("positions and velocities must share an (n, k) shape")
        if not np.all(np.isfinite(vel)):
            raise ValueError("velocities must be finite")
        vel.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "velocities", vel)
        object.__setattr__(self, "time", float(self.time))


@dataclass(frozen=True, eq=False)
class ConservedQuantities:
    """Energy, linear momentum and the antisymmetric angular momentum matrix."""

    energy: float
    linear_momentum: np.ndarray
    angular_momentum: np.ndarray


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled solution: times (s,), positions and velocities (s, n, k)."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray

    def __len__(self):
        return self.times.size

    def state(self, idx):
        return PhaseState(self.positions[idx], self.velocities[idx], self.times[idx])


def _guard_positions(positions, problem):
    """Pair geometry of ``positions``, checked for shape and near-collision."""
    check_problem_config(problem, positions)
    pos = _kernels.as_input(positions)
    diff, r2 = _kernels.pair_geometry(pos[None])
    _check_separation(pos, r2, None)
    return diff, r2


def _check_separation(pos, r2, time):
    """Raise SingularityError if the minimum distance of ``pos``, whose
    pair r^2 is the stack of one ``r2``, is below ``GUARD_RTOL`` times
    the scale max(1, max_i |q_i|)."""
    # the ufunc reductions np.sum and .max() wrap, called directly: at
    # small n their wrappers cost more than the arithmetic
    norms = np.sqrt(np.add.reduce(pos * pos, axis=1))
    scale = max(1.0, float(np.maximum.reduce(norms)))
    if _kernels.min_distance_from(r2)[0] < GUARD_RTOL * scale:
        if time is None:
            raise SingularityError("bodies too close: force evaluation aborted")
        raise SingularityError(
            f"near-collision at t={time:.6g}: integration aborted", time=time
        )


def acceleration(positions, problem):
    """Acceleration of every body, shape (n, k)."""
    diff, r2 = _guard_positions(positions, problem)
    return _kernels.forces_from(diff, r2 ** problem.a, problem.masses)[0]


def potential_energy(positions, problem):
    """Scalar potential; its negative q_i-gradient is m_i * acceleration_i.

    For a != -1 this is sum_{i<j} m_i m_j r^(2a+2)/(2a+2); the 2a+2 = 0
    case (a = -1) degenerates to sum_{i<j} m_i m_j ln r.
    """
    _, r2 = _guard_positions(positions, problem)
    iu, ju = np.triu_indices(problem.n, 1)
    r = np.sqrt(r2[0, iu, ju])
    a, m = problem.a, problem.masses
    phi = np.log(r) if a == -1.0 else r ** (2.0 * a + 2.0) / (2.0 * a + 2.0)
    return float(np.sum(m[iu] * m[ju] * phi))


def conserved_quantities(state, problem):
    """Energy, momentum and angular momentum of a phase state."""
    pos, vel = state.positions, state.velocities
    m = problem.masses
    kinetic = 0.5 * float(np.sum(m * np.sum(vel ** 2, axis=1)))
    energy = kinetic + potential_energy(pos, problem)
    momentum = (m[:, None] * vel).sum(axis=0)
    moment = pos.T @ (m[:, None] * vel)
    return ConservedQuantities(energy, momentum, moment - moment.T)


# ----------------------------------------------------------------------
# Dormand-Prince 5(4) embedded pair, FSAL, PI step control
# ----------------------------------------------------------------------

# the last row is also the 5th-order solution's weights (FSAL)
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_DP_E = np.array([
    71 / 57600, 0.0, -71 / 16695, 71 / 1920,
    -17253 / 339200, 22 / 525, -1 / 40,
])
# Shampine's 4th-order continuous extension of the pair (Shampine, Math.
# Comp. 46, 1986; Hairer, Norsett & Wanner, Solving ODEs I, II.6): the
# state at t + theta h is y + h * stages^T @ _DP_DENSE @ (theta, ..., theta^4)
_DP_DENSE = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423,
     69997945 / 29380423],
])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_BETA = 0.04
_PI_EXPO = 0.2 - 0.75 * _PI_BETA
# Each error scale is at most _DEPARTURE_RTOL times the larger departure
# from the start, ||y - start||_inf, of the step's two ends (plus
# _DEPARTURE_FLOOR, which keeps an exact rest finite), and the first step
# errs by about _DEPARTURE_RTOL of the departure.
_DEPARTURE_RTOL = 1e-2
_DEPARTURE_FLOOR = 1e-30


def _scaled_err(err_vec, y, y_new, tol, cap):
    """RMS of err_vec / (tol + tol max(|y|, |y_new|)), each scale at most
    cap + _DEPARTURE_FLOOR."""
    sc = tol * np.maximum(np.abs(y), np.abs(y_new)) + tol
    q = err_vec / np.minimum(sc, cap + _DEPARTURE_FLOOR)
    return float(np.sqrt(np.add.reduce(q * q) / q.size))


def _departure_step(derivative_at, y0, f0, generator):
    """First step from the start ``y0``, where dy/dt = ``f0``: the
    departure from the start meets the stiffness along the acceleration
    f0[nk:], which at a rest point of the rotating frame is the force
    defect.

    One evaluation at the positions moved by eps along the acceleration
    measures that stiffness, ||d acc||_inf / eps. The departure's local
    rate is the larger of its square root and 2 max|G|, the Coriolis
    coupling. The embedded error estimate is O(h^5), so a step of
    _DEPARTURE_RTOL^(1/5) / rate errs by about _DEPARTURE_RTOL of a linear
    departure. A zero acceleration keeps a rest point exact and takes the
    Coriolis rate alone; where that rate is zero too (the fixed frame,
    G = 0, with forces that underflow to 0) the start moves in a straight
    line, and the step is infinite. A non-finite acceleration gives a NaN
    step, which underflows at once.
    """
    nk = y0.size // 2
    acc = f0[nk:]
    size = float(np.abs(acc).max())
    if not math.isfinite(size):
        return math.nan
    rate = 2.0 * float(np.abs(generator).max())
    if size > 0.0:
        # the finite-difference step sqrt(machine eps) in the scale
        # max(1, ||positions||_inf)
        eps = math.sqrt(np.finfo(float).eps) \
            * max(1.0, float(np.abs(y0[:nk]).max()))
        point = y0.copy()
        point[:nk] += eps / size * acc
        stiffness = float(np.abs(derivative_at(point)[nk:] - acc).max())
        rate = max(rate, math.sqrt(stiffness / eps))
    return _DEPARTURE_RTOL ** 0.2 / rate if rate > 0.0 else math.inf


def integrate(initial, problem, t_end, tol, sample_times=None):
    """Integrate the equations of motion in the fixed frame from
    ``initial`` up to ``t_end``.

    Parameters
    ----------
    initial : PhaseState
        Collision-free starting state.
    problem : Problem
        Masses and force exponent (frequencies are not used here).
    t_end : float
        Finite final time, strictly greater than ``initial.time``.
    tol : float
        Per-step local error tolerance, in [1e-13, 1e-3]; used for both
        the absolute and relative parts of the error norm.
    sample_times : array_like, optional
        Strictly increasing finite times in [initial.time, t_end] at which to
        record the state. Defaults to 65 uniform samples including both
        endpoints. The steps run to the last sample time whatever the
        others are, and each sample is read from the continuous extension.

    Returns
    -------
    Trajectory

    Raises
    ------
    SingularityError
        On near-collision or step-size underflow; carries the failure time.
    """
    return _dormand_prince(initial.positions, initial.velocities,
                           initial.time, problem, t_end, tol, sample_times,
                           np.zeros((problem.k, problem.k)))


def _dormand_prince(positions, velocities, t0, problem, t_end, tol,
                    sample_times, generator):
    """``integrate`` from ``positions`` and ``velocities`` at ``t0`` in
    the frame that rotates with x = R(t)^T q, R' = G R, for ``generator``
    G (zero for the fixed frame): there each body also feels the
    centrifugal -x G G and the Coriolis -2 x' G^T, and the start and the
    samples are (x, x'). The departure from the start sets the first
    step and caps the error scale, the steps run to the last sample, and
    every sample comes from the continuous extension of the step that
    covers it."""
    if not 1e-13 <= tol <= 1e-3:
        raise ValueError(f"tol must lie in [1e-13, 1e-3], got {tol}")
    t_end = float(t_end)
    if not t0 < t_end < np.inf:
        raise ValueError("t_end must be finite and exceed the initial time")
    if sample_times is None:
        sample_times = np.linspace(t0, t_end, 65)
    samples = np.asarray(sample_times, dtype=float)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("sample_times must be a nonempty 1-d array")
    if not np.all(np.isfinite(samples)):
        raise ValueError("sample_times must be finite")
    if np.any(np.diff(samples) <= 0.0):
        raise ValueError("sample_times must be strictly increasing")
    if samples[0] < t0 or samples[-1] > t_end + 1e-12 * max(1.0, abs(t_end)):
        raise ValueError("sample_times must lie within [initial.time, t_end]")

    check_problem_config(problem, positions)
    n, k = problem.n, problem.k
    m = problem.masses
    a = problem.a
    nk = n * k

    # the two phase points and their geometry workspaces, the only
    # buffers that pay: each stage point is written into y_new, its pair
    # geometry measured into measure_new's buffers and its dy/dt into its
    # row of ``stages``. An accepted step swaps the points, so a rejected
    # one leaves y, its geometry and stages[0], dy/dt at y, untouched.
    stages = np.empty((7, 2 * nk))
    y, y_new = np.empty((2, 2 * nk))
    measure, measure_new = [_kernels.pair_geometry_workspace(
        point[:nk].reshape(1, n, k)) for point in (y, y_new)]
    # (x, x') @ (-G G, -2 G^T): the centrifugal and Coriolis terms
    frame = np.stack([-generator @ generator, -2.0 * generator.T])

    def derivative(s, point, measure):
        """Write dy/dt at ``point`` into stages[s]; return its pair
        geometry, which ``measure`` measures."""
        diff, r2 = measure()
        acc = _kernels.forces_from(diff, np.power(r2, a), m)[0]
        terms = point.reshape(2, n, k) @ frame
        acc = acc + terms[0] + terms[1]
        stages[s, :nk] = point[nk:]
        stages[s, nk:] = acc.ravel()
        return diff, r2

    def probe(y1):
        # measured at y_new, into stage 1; the first step overwrites both
        y_new[...] = y1
        derivative(1, y_new, measure_new)
        return stages[1]

    y[:nk], y[nk:] = positions.ravel(), velocities.ravel()
    start = y.copy()
    departure = departure_new = 0.0
    t = t0
    diff, r2 = derivative(0, y, measure)
    _check_separation(positions, r2, t)
    h = min(_departure_step(probe, y, stages[0], generator), t_end - t0)
    err_old = 1e-4

    out = np.empty((samples.size, 2, n, k))
    out_flat = out.reshape(samples.size, 2 * nk)
    # the next sample to record; every one up to t is recorded
    s_idx = np.searchsorted(samples, t, side="right")
    out_flat[:s_idx] = y

    target = samples[-1]
    while s_idx < samples.size:
        h_step = min(h, target - t)
        # a NaN step (from a non-finite force) also underflows
        if not h_step >= 1e-14 * max(1.0, abs(t)):
            raise SingularityError(
                f"step size underflow at t={t:.6g}", time=t
            )
        try:
            for s in range(1, 7):
                np.add(y, h_step * (stages[:s].T @ _DP_A[s, :s]), out=y_new)
                diff_new, r2_new = derivative(s, y_new, measure_new)
            # FSAL: the last stage point is the new state, and its
            # stage is dy/dt there
            err_vec = h_step * (stages.T @ _DP_E)
            # y's departure was measured when y was accepted
            departure_new = float(np.abs(y_new - start).max())
            err = _scaled_err(err_vec, y, y_new, tol, _DEPARTURE_RTOL
                              * max(departure, departure_new))
        except FloatingPointError:
            err = np.inf
        if not math.isfinite(err):
            h = 0.1 * h_step
            continue
        if err > 1.0:
            h = h_step * max(_MIN_FACTOR, _SAFETY * err ** -_PI_EXPO)
            continue
        t_old, t = t, t + h_step
        if target - t < 1e-14 * max(1.0, abs(target)):
            t = target
        # samples inside the step, from its stages' continuous extension
        while s_idx < samples.size and samples[s_idx] < t:
            theta = (samples[s_idx] - t_old) / h_step
            out_flat[s_idx] = y + h_step * (
                stages.T @ (_DP_DENSE @ np.power(theta, (1, 2, 3, 4))))
            s_idx += 1
        y, y_new = y_new, y
        departure = departure_new
        measure, measure_new = measure_new, measure
        stages[0] = stages[6]
        fac = _SAFETY * err ** -_PI_EXPO * err_old ** _PI_BETA \
            if err > 0.0 else _MAX_FACTOR
        h = h_step * min(_MAX_FACTOR, max(_MIN_FACTOR, fac))
        err_old = max(err, 1e-4)
        _check_separation(y[:nk].reshape(n, k), r2_new, t)
        # a pair whose separation turned by more than a right angle
        # in one step has passed through a collision between states
        if (np.einsum("bijk,bijk->bij", diff, diff_new) < 0.0).any():
            raise SingularityError(
                f"bodies passed through each other before t={t:.6g}: "
                "integration aborted", time=t)
        diff = diff_new
        while s_idx < samples.size and samples[s_idx] <= t:
            out_flat[s_idx] = y
            s_idx += 1

    return Trajectory(samples.copy(), out[:, 0], out[:, 1])


def rigid_rotation_state(config, problem):
    """Initial phase state whose exact solution would be rigid rotation."""
    check_problem_config(problem, config)
    gen = rotation_generator(problem.frequencies, problem.k)
    return PhaseState(config.points, config.points @ gen.T, 0.0)


def rigid_rotation_gap(trajectory, config, problem):
    """Max over samples and bodies of |q_i(t) - T(t) Q_i| along ``trajectory``."""
    worst = 0.0
    for idx, t in enumerate(trajectory.times):
        rot = rotation_matrix(problem.frequencies, t, problem.k)
        gap = trajectory.positions[idx] - config.points @ rot.T
        worst = max(worst, float(np.sqrt(np.sum(gap ** 2, axis=1)).max()))
    return worst


def co_rotating_trajectory(config, problem, t_end, samples=32, tol=1e-10):
    """Integrated motion of ``config`` in the frame that rotates at the
    problem's rates, from rest at ``config``: the co-rotating coordinates
    x = R(t)^T q and their rates x', with R' = G R for G =
    ``rotation_generator``.

    The motion is sampled at ``samples`` + 1 uniform times in [0, t_end];
    ``samples`` must be >= 1. A relative equilibrium is a fixed point
    here. The steps run to t_end whatever ``samples`` is, and each sample
    is read from the continuous extension of the step that covers it, so
    the samples share their times' bits across sample counts.
    """
    samples = int(samples)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    check_problem_config(problem, config)
    gen = rotation_generator(problem.frequencies, problem.k)
    times = np.linspace(0.0, float(t_end), samples + 1)
    return _dormand_prince(config.points, np.zeros_like(config.points),
                           0.0, problem, t_end, tol, times, gen)


def co_rotating_gap(trajectory, config):
    """Max over samples and bodies of |x_i(t) - Q_i| along a
    ``co_rotating_trajectory``; rotations keep norms, so in exact
    arithmetic this is the fixed frame's ``rigid_rotation_gap``."""
    gap = trajectory.positions - config.points
    return float(np.sqrt(np.add.reduce(gap * gap, axis=2)).max())


def to_fixed_frame(trajectory, problem):
    """A ``co_rotating_trajectory`` mapped back to the fixed frame:
    q = x R(t)^T, v = (x' + x G^T) R(t)^T."""
    gen = rotation_generator(problem.frequencies, problem.k)
    rot_t = np.stack([rotation_matrix(problem.frequencies, t, problem.k).T
                      for t in trajectory.times])
    x, x_dot = trajectory.positions, trajectory.velocities
    return Trajectory(trajectory.times, x @ rot_t, (x_dot + x @ gen.T) @ rot_t)


def relative_equilibrium_deviation(config, problem, t_end, samples=32, tol=1e-10):
    """Max gap between the integrated motion and rigid rotation of ``config``,
    read in the co-rotating frame as ``co_rotating_gap`` of
    ``co_rotating_trajectory``."""
    return co_rotating_gap(
        co_rotating_trajectory(config, problem, t_end, samples, tol), config)
