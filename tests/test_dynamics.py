import itertools
import math
import re
import sys

import numpy as np
import pytest

from releq import (
    Configuration,
    PhaseState,
    Problem,
    ProblemDocument,
    SingularityError,
    acceleration,
    conserved_quantities,
    integrate,
    potential_energy,
    relative_equilibrium_deviation,
    rigid_rotation_state,
    rotation_generator,
    rotation_matrix,
    save_document,
)
from releq import _kernels, criterion, dynamics
from releq.cli import main

import oracles
from conftest import random_config

NEAR_COLLISION = "^bodies too close: force evaluation aborted$"


def eccentric_kepler():
    """Two unit masses at a = -1.5 (Kepler, mu = 2) from separation 1 at
    relative speed 0.6: e = 0.82, and steps near pericentre are rejected.

    Returns the problem, the initial state and the orbital period.
    """
    prob = Problem(2, [1.0, 1.0], [1.0], -1.5)
    state = PhaseState([[0.5, 0.0], [-0.5, 0.0]], [[0.0, 0.3], [0.0, -0.3]])
    semi_major = 1.0 / (2.0 - 0.6 ** 2 / 2.0)
    return prob, state, 2 * np.pi * np.sqrt(semi_major ** 3 / 2.0)


def plain_dp5(initial, problem, t_end, tol, generator, samples=64):
    """The integrator's steps written plainly, with a new array for every
    stage and no collision checks, sampled at ``samples`` + 1 uniform times,
    in the frame that rotates with ``generator`` (zeros for ``integrate``'s
    fixed frame).

    The centrifugal and Coriolis terms join the forces, the first step is
    ``_departure_step``'s, each error scale is capped at _DEPARTURE_RTOL
    times the departure from the start, and the steps run to the last
    sample, reading the others from the _DP_DENSE extension. Also returns
    how many accepted steps had an error scale the cap lowered.
    """
    n, k = problem.n, problem.k
    nk = n * k

    def f(y):
        x, x_dot = y[:nk].reshape(n, k), y[nk:].reshape(n, k)
        acc = _kernels.accel(x, problem.masses, problem.a)
        acc = acc + x @ (-generator @ generator) \
            + x_dot @ (-2.0 * generator.T)
        return np.concatenate([y[nk:], acc.ravel()])

    def rms(q):
        return np.sqrt(np.add.reduce(q * q) / q.size)

    times = np.linspace(initial.time, t_end, samples + 1)
    t = initial.time
    y = np.concatenate([initial.positions.ravel(), initial.velocities.ravel()])
    start = y.copy()
    f0 = f(y)
    h = min(dynamics._departure_step(f, y, f0, generator), t_end - t)
    err_old = 1e-4
    out, capped = [y], 0
    target = times[-1]
    while len(out) < times.size:
        h_step = min(h, target - t)
        stages = [f0]
        for s in range(1, 7):
            prev = np.array(stages).T
            y_new = y + h_step * (prev @ dynamics._DP_A[s, :s])
            stages.append(f(y_new))
        err_vec = h_step * (np.array(stages).T @ dynamics._DP_E)
        sc = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
        departure = max(np.abs(y - start).max(), np.abs(y_new - start).max())
        cap = dynamics._DEPARTURE_RTOL * departure + dynamics._DEPARTURE_FLOOR
        lowered = (sc > cap).any()
        sc = np.minimum(sc, cap)
        err = float(rms(err_vec / sc))
        if not err <= 1.0:
            h = h_step * max(dynamics._MIN_FACTOR,
                             dynamics._SAFETY * err ** -dynamics._PI_EXPO)
            continue
        t_old, t = t, t + h_step
        if target - t < 1e-14 * max(1.0, abs(target)):
            t = target
        while len(out) < times.size and times[len(out)] < t:
            theta = (times[len(out)] - t_old) / h_step
            weights = dynamics._DP_DENSE @ theta ** np.arange(1.0, 5.0)
            out.append(y + h_step * (np.array(stages).T @ weights))
        y, f0 = y_new, stages[6]
        capped += lowered
        fac = dynamics._SAFETY * err ** -dynamics._PI_EXPO \
            * err_old ** dynamics._PI_BETA \
            if err > 0.0 else dynamics._MAX_FACTOR
        h = h_step * min(dynamics._MAX_FACTOR, max(dynamics._MIN_FACTOR, fac))
        err_old = max(err, 1e-4)
        while len(out) < times.size and times[len(out)] <= t:
            out.append(y)
    out = np.array(out).reshape(times.size, 2, n, k)
    return times, out[:, 0], out[:, 1], capped


def pinned_cases():
    """(problem, initial state, t_end, tol) of the integrator bit pins."""
    rho = oracles.ngon_circumradius(3, 1.0, 1.0, -1.5)
    trigon = oracles.ngon_points(3, rho)
    cases = []
    for k in (2, 3):
        prob = Problem(k, [1.0, 1.0, 1.0], [1.0], -1.5)
        cfg = Configuration([[x, y] + [0.0] * (k - 2) for x, y in trigon])
        cases.append((prob, rigid_rotation_state(cfg, prob), 2 * np.pi, 1e-10))
    prob = Problem(4, [1.0, 2.0, 1.0, 0.5], [1.0, 1.5], -1.5)
    cfg = Configuration([[1.0, 0.0, 0.0, 0.3], [0.0, 1.0, 0.2, 0.0],
                         [-1.0, 0.1, 0.0, -0.3], [0.0, -1.0, -0.2, 0.1]])
    cases.append((prob, rigid_rotation_state(cfg, prob), 2 * np.pi / 1.5,
                   1e-10))
    prob, state, period = eccentric_kepler()
    cases.append((prob, state, period, 1e-6))
    return cases


class TestAcceleration:
    def test_two_body_centripetal(self, two_body):
        # at the closed-form equilibrium with omega = 1 the acceleration
        # must be exactly centripetal: accel_i = -Q_i
        prob, cfg = two_body
        acc = acceleration(cfg.points, prob)
        assert np.abs(acc + cfg.points).max() < 1e-14

    def test_unit_distance_pair(self):
        prob = Problem(2, [1.0, 1.0], [1.0], -1.5)
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        acc = acceleration(pts, prob)
        assert acc[0] == pytest.approx([1.0, 0.0])
        assert acc[1] == pytest.approx([-1.0, 0.0])

    def test_mass_weighted_sum_vanishes(self):
        rng = np.random.default_rng(20)
        prob = Problem(3, [1.0, 2.5, 0.7, 1.1], [0.9], -1.5)
        cfg = random_config(rng, 4, 3)
        acc = acceleration(cfg.points, prob)
        total = (prob.masses[:, None] * acc).sum(axis=0)
        assert np.abs(total).max() < 1e-13

    def test_translation_invariance(self):
        rng = np.random.default_rng(21)
        prob = Problem(2, [1.0, 2.0, 3.0], [1.0], -0.75)
        cfg = random_config(rng, 3, 2)
        shift = np.array([10.0, -4.0])
        a0 = acceleration(cfg.points, prob)
        a1 = acceleration(cfg.points + shift, prob)
        assert np.abs(a0 - a1).max() < 1e-12

    def test_collision_raises(self):
        prob = Problem(2, [1.0, 1.0], [1.0], -1.5)
        pts = np.array([[0.0, 0.0], [1e-10, 0.0]])
        with pytest.raises(SingularityError, match=NEAR_COLLISION):
            acceleration(pts, prob)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_bits_match_reference_kernel(self, k):
        # the guard's geometry, not a second measurement, gives the
        # reference kernel's bits
        rng = np.random.default_rng(23 + k)
        prob = Problem(k, [1.0, 2.5, 0.7, 1.1, 0.4],
                       [0.9, 1.3][:k // 2], -1.5)
        pts = random_config(rng, 5, k).points
        assert np.array_equal(acceleration(pts, prob),
                              _kernels.accel(pts, prob.masses, prob.a))


class TestPotential:
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("a", [-0.75, -1.0, -1.5, -2.0])
    def test_matches_pairwise_sum(self, k, a):
        # relative to the sum of the terms' magnitudes, as the log terms
        # of a = -1 can cancel
        rng = np.random.default_rng(30 + k)
        prob = Problem(k, [1.0, 2.0, 0.5, 1.5], [1.0, 0.7][:k // 2], a)
        pts = random_config(rng, 4, k).points
        terms = []
        for i, j in itertools.combinations(range(4), 2):
            r = math.dist(pts[i], pts[j])
            phi = math.log(r) if a == -1.0 else r ** (2 * a + 2) / (2 * a + 2)
            terms.append(prob.masses[i] * prob.masses[j] * phi)
        got = potential_energy(pts, prob)
        assert abs(got - math.fsum(terms)) \
            <= 1e-13 * math.fsum(abs(t) for t in terms)

    def test_newtonian_value(self):
        prob = Problem(2, [1.0, 1.0], [1.0], -1.5)
        pts = np.array([[0.5, 0.0], [-0.5, 0.0]])
        assert potential_energy(pts, prob) == pytest.approx(-1.0)

    def test_log_case(self):
        prob = Problem(2, [1.0, 1.0], [1.0], -1.0)
        pts = np.array([[0.5, 0.0], [-0.5, 0.0]])
        assert potential_energy(pts, prob) == pytest.approx(0.0, abs=1e-15)

    def test_collision_raises(self):
        prob = Problem(2, [1.0, 1.0], [1.0], -1.5)
        pts = np.array([[0.0, 0.0], [1e-10, 0.0]])
        with pytest.raises(SingularityError, match=NEAR_COLLISION):
            potential_energy(pts, prob)

    @pytest.mark.parametrize("a", [-0.75, -1.0, -1.5, -2.0])
    def test_gradient_matches_force(self, a):
        # central differences of the potential against -m_i accel_i
        rng = np.random.default_rng(22)
        prob = Problem(2, [1.0, 2.0, 0.5], [1.0], a)
        cfg = random_config(rng, 3, 2)
        pts = np.array(cfg.points)
        acc = acceleration(pts, prob)
        h = 1e-5 * max(1.0, np.abs(pts).max())
        for i in range(3):
            for c in range(2):
                plus = pts.copy()
                plus[i, c] += h
                minus = pts.copy()
                minus[i, c] -= h
                grad = (potential_energy(plus, prob)
                        - potential_energy(minus, prob)) / (2 * h)
                expected = -prob.masses[i] * acc[i, c]
                assert grad == pytest.approx(expected, rel=1e-6, abs=1e-10)


class TestIntegrate:
    def test_two_body_period(self, two_body):
        prob, cfg = two_body
        traj = integrate(rigid_rotation_state(cfg, prob), prob,
                         2 * np.pi, 1e-10)
        assert np.abs(traj.positions[-1] - cfg.points).max() < 1e-6

    def test_head_on_collapse_aborts(self):
        prob = Problem(2, [1.0, 1.0], [1.0], -1.5)
        state = PhaseState([[0.5, 0.0], [-0.5, 0.0]],
                           [[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(SingularityError) as err:
            integrate(state, prob, 10.0, 1e-10)
        assert err.value.time is not None
        assert 0.0 < err.value.time < 10.0

    def test_head_on_collapse_hits_guard_at_collision_time(self):
        # two unit masses at rest at a = -1 fall together at t = sqrt(pi)/2
        prob = Problem(2, [1.0, 1.0], [1.0], -1.0)
        state = PhaseState([[0.5, 0.0], [-0.5, 0.0]], np.zeros((2, 2)))
        with pytest.raises(SingularityError, match="near-collision") as err:
            integrate(state, prob, 10.0, 1e-10)
        assert err.value.time == pytest.approx(np.sqrt(np.pi) / 2, abs=1e-6)

    @pytest.mark.parametrize("a,tol", [(-0.6, 1e-3), (-0.6, 1e-6),
                                       (-0.75, 1e-3), (-0.75, 1e-6),
                                       (-1.0, 1e-3)])
    def test_head_on_pass_through_aborts(self, a, tol, monkeypatch):
        # at loose tolerance the pair steps from one side of the collision
        # to the other without a state under the guard; the step that
        # reverses their separation is the collision, and it spans the
        # closed-form collision time
        prob = Problem(2, [1.0, 1.0], [1.0], a)
        state = PhaseState([[0.5, 0.0], [-0.5, 0.0]], np.zeros((2, 2)))
        times = []
        check_separation = dynamics._check_separation

        def checking(pos, r2, time):
            times.append(time)
            return check_separation(pos, r2, time)

        monkeypatch.setattr(dynamics, "_check_separation", checking)
        with pytest.raises(SingularityError, match="passed through") as err:
            integrate(state, prob, 10.0, tol)
        # the step that detects the crossing is the last one checked
        assert times[-1] == err.value.time
        assert times[-2] < oracles.head_on_collision_time(a) \
            < err.value.time

    @pytest.mark.parametrize("early,raises", [(1.35e-10, True),
                                              (1.4e-10, False)])
    def test_last_state_is_guarded(self, early, raises):
        # the separations are the integrator's own states: the head-on
        # pair is 9.85e-10 apart at sqrt(pi)/2 - 1.35e-10, under the 1e-9
        # guard, and 1.031e-9 apart at sqrt(pi)/2 - 1.4e-10. The exact fall
        # gives 1.251e-9 and 1.296e-9 there; the tol 1e-10 integration
        # runs about 3e-11 ahead of it
        prob = Problem(2, [1.0, 1.0], [1.0], -1.0)
        state = PhaseState([[0.5, 0.0], [-0.5, 0.0]], np.zeros((2, 2)))
        t_end = np.sqrt(np.pi) / 2 - early
        if raises:
            with pytest.raises(SingularityError,
                               match="near-collision") as err:
                integrate(state, prob, t_end, 1e-10,
                          sample_times=[0.0, t_end])
            assert err.value.time == t_end
        else:
            traj = integrate(state, prob, t_end, 1e-10,
                             sample_times=[0.0, t_end])
            gap = traj.positions[-1, 0] - traj.positions[-1, 1]
            assert 1e-9 < np.hypot(*gap) < 1.1e-9

    def test_zero_force_start_moves_in_a_straight_line(self):
        # ten apart at a = -200 the forces underflow to exactly 0: the
        # first step has no rate to fit, and the pair coasts
        prob = Problem(2, [1.0, 1.0], [1.0], -200.0)
        state = PhaseState([[5.0, 0.0], [-5.0, 0.0]],
                           [[0.0, 0.3], [0.0, -0.3]])
        assert not np.any(acceleration(state.positions, prob))
        traj = integrate(state, prob, 1.0, 1e-8)
        expected = state.positions + traj.times[:, None, None] \
            * state.velocities
        assert np.abs(traj.positions - expected).max() <= 1e-14
        assert np.array_equal(traj.velocities,
                              np.broadcast_to(state.velocities,
                                              traj.velocities.shape))

    def test_eccentric_orbit_returns_after_one_period(self):
        # a retry after a rejected step must restart from dy/dt at the
        # accepted state, not at the rejected point
        prob, state, period = eccentric_kepler()
        traj = integrate(state, prob, period, 1e-6, sample_times=[period])
        assert np.abs(traj.positions[-1] - state.positions).max() < 1e-4

    @pytest.mark.parametrize("case,samples", [
        ("trigon", None), ("eccentric", None), ("co-rotating", 1),
        ("co-rotating", 4), ("co-rotating", 16), ("co-rotating", 64),
        ("exact-pair", 16),
    ], ids=["trigon", "eccentric", "co-rotating-1", "co-rotating-4",
            "co-rotating-16", "co-rotating-64", "exact-pair"])
    def test_one_geometry_pass_per_force_evaluation(self, case, samples,
                                                    trigon, monkeypatch):
        # each stage measures its point once, and every state is guarded
        # from its own stage's r^2: the initial state from stage 0, an
        # accepted one from its last stage, however many steps are rejected.
        # Every pair-geometry measurement, one-shot or into a workspace,
        # is one _measure_pairs call. An integration builds the workspaces
        # of its two phase points and measures nothing one-shot.
        prob, cfg = trigon
        if case == "exact-pair":
            # half masses one apart at rate 1: r^(2a) = 1 for every a, so
            # the float64 forces balance exactly and the defect is zero
            prob = Problem(2, [0.5, 0.5], [1.0], -1.5)
            cfg = Configuration(oracles.two_body_points(0.5, 0.5, 1.0, -1.5))
            assert not np.any(acceleration(cfg.points, prob) + cfg.points)
        if case in ("co-rotating", "exact-pair"):
            def run(samples=samples):
                dynamics.to_fixed_frame(dynamics.co_rotating_trajectory(
                    cfg, prob, 2 * np.pi, samples), prob)
        else:
            if case == "trigon":
                state, t_end = rigid_rotation_state(cfg, prob), 2 * np.pi
            else:
                prob, state, t_end = eccentric_kepler()

            def run():
                integrate(state, prob, t_end, 1e-6)
        calls = {"_measure_pairs": 0, "forces_from": 0,
                 "pair_geometry_workspace": 0, "pair_geometry": 0}

        def counted(name):
            kernel = getattr(_kernels, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return kernel(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(_kernels, name, counted(name))
        run()
        assert calls["forces_from"] > 0
        assert calls["_measure_pairs"] == calls["forces_from"]
        assert calls["pair_geometry_workspace"] == 2
        assert calls["pair_geometry"] == 0
        if case in ("co-rotating", "exact-pair"):
            # at rest in the co-rotating frame the first step is fitted to
            # the departure's rate, with no climb from a tiny step, and the
            # later ones follow the departure. The samples are read between
            # steps, so every sample count takes the single sample's steps.
            # The fixed-frame run, under the same rule, follows the
            # rotation with 878 force evaluations
            evaluations = calls["forces_from"]
            assert evaluations <= (85 if case == "co-rotating" else 35)
            calls["forces_from"] = 0
            run(1)
            assert calls["forces_from"] == evaluations

    def test_samples_do_not_steer_the_steps(self, trigon, monkeypatch):
        # both frames step to the last sample whatever the sample count, so
        # the 17 times that 16 and 64 samples share carry the same bits:
        # the co-rotating trigon, and the fixed-frame eccentric orbit,
        # which also takes as many force evaluations at one sample as at 64
        prob, cfg = trigon
        kepler, state, period = eccentric_kepler()

        def fixed(samples):
            return integrate(state, kepler, period, 1e-6,
                             np.linspace(0.0, period, samples + 1))

        for run in (
                lambda samples: dynamics.co_rotating_trajectory(
                    cfg, prob, 2 * np.pi, samples), fixed):
            coarse, fine = run(16), run(64)
            assert np.array_equal(fine.times[::4], coarse.times)
            assert np.array_equal(fine.positions[::4], coarse.positions)
            assert np.array_equal(fine.velocities[::4], coarse.velocities)
        calls = []
        forces_from = _kernels.forces_from

        def counted(*args):
            calls.append(args)
            return forces_from(*args)
        monkeypatch.setattr(_kernels, "forces_from", counted)

        def evaluations(samples):
            calls.clear()
            fixed(samples)
            return len(calls)
        assert evaluations(1) == evaluations(64) > 0

    @pytest.mark.parametrize("case", range(6),
                             ids=["trigon", "odd_k", "k4", "eccentric",
                                  "co-rotating-trigon", "co-rotating-12-ring"])
    def test_bits_match_plain_stepping(self, case):
        # the integrator's phase points and geometry workspaces change
        # where each stage is written, never what is computed: every sample
        # equals the plain stepping's bits. The fixed-frame runs step with
        # the zero generator. The co-rotating runs read 16 samples, the
        # trigon and the unstable 12-ring at a = -2, and on both the
        # departure cap lowers the error scale of some steps
        if case < 4:
            prob, state, t_end, tol = pinned_cases()[case]
            traj = integrate(state, prob, t_end, tol)
            expected = plain_dp5(state, prob, t_end, tol,
                                 np.zeros((prob.k, prob.k)))
        else:
            n, a = ((3, -1.5), (12, -2.0))[case - 4]
            prob = Problem(2, [1.0] * n, [1.0], a)
            rho = oracles.ngon_circumradius(n, 1.0, 1.0, a)
            cfg = Configuration(oracles.ngon_points(n, rho))
            t_end, tol = 2 * np.pi, 1e-10
            traj = dynamics.co_rotating_trajectory(cfg, prob, t_end, 16, tol)
            rest = PhaseState(cfg.points, np.zeros_like(cfg.points))
            expected = plain_dp5(rest, prob, t_end, tol,
                                 rotation_generator([1.0], 2), 16)
        times, positions, velocities, capped = expected
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.positions, positions)
        assert np.array_equal(traj.velocities, velocities)
        if case >= 4:
            assert capped > 0

    def test_energy_drift(self, two_body):
        prob, cfg = two_body
        tol = 1e-10
        traj = integrate(rigid_rotation_state(cfg, prob), prob, 10.0, tol)
        energies = [conserved_quantities(traj.state(i), prob).energy
                    for i in range(len(traj))]
        drift = max(abs(e - energies[0]) for e in energies)
        assert drift / max(1.0, abs(energies[0])) < 1e-8

    def test_all_invariants_drift_bounded(self, trigon):
        prob, cfg = trigon
        tol = 1e-10
        traj = integrate(rigid_rotation_state(cfg, prob), prob, 10.0, tol)
        q0 = conserved_quantities(traj.state(0), prob)
        for i in range(len(traj)):
            qi = conserved_quantities(traj.state(i), prob)
            assert abs(qi.energy - q0.energy) \
                <= 100 * tol * max(1.0, abs(q0.energy))
            assert np.abs(qi.linear_momentum - q0.linear_momentum).max() \
                <= 100 * tol
            assert np.abs(qi.angular_momentum - q0.angular_momentum).max() \
                <= 100 * tol * max(1.0, np.abs(q0.angular_momentum).max())

    def test_equivariance_under_commuting_rotation(self, trigon):
        # conjugating the initial data by a block rotation conjugates the
        # whole trajectory
        prob, cfg = trigon
        state = rigid_rotation_state(cfg, prob)
        S = rotation_matrix(prob.frequencies, 0.77, prob.k)
        rotated = PhaseState(state.positions @ S.T, state.velocities @ S.T)
        times = np.linspace(0.0, 3.0, 16)
        t1 = integrate(state, prob, 3.0, 1e-12, sample_times=times)
        t2 = integrate(rotated, prob, 3.0, 1e-12, sample_times=times)
        for i in range(len(times)):
            expected = t1.positions[i] @ S.T
            scale = max(1.0, np.abs(expected).max())
            assert np.abs(t2.positions[i] - expected).max() < 1e-9 * scale

    def test_tol_domain(self, two_body):
        prob, cfg = two_body
        state = rigid_rotation_state(cfg, prob)
        with pytest.raises(ValueError):
            integrate(state, prob, 1.0, 1e-2)
        with pytest.raises(ValueError):
            integrate(state, prob, 1.0, 1e-14)

    def test_sample_times_validation(self, two_body):
        prob, cfg = two_body
        state = rigid_rotation_state(cfg, prob)
        with pytest.raises(ValueError):
            integrate(state, prob, 1.0, 1e-8, sample_times=[0.5, 0.5])
        with pytest.raises(ValueError):
            integrate(state, prob, 1.0, 1e-8, sample_times=[0.5, 2.0])
        with pytest.raises(ValueError, match="finite"):
            integrate(state, prob, 1.0, 1e-8, sample_times=[0.5, np.inf])

    def test_infinite_horizon_rejected(self, two_body):
        # an infinite horizon would loop forever
        prob, cfg = two_body
        state = rigid_rotation_state(cfg, prob)
        with pytest.raises(ValueError, match="finite"):
            integrate(state, prob, np.inf, 1e-8)
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="finite"):
            relative_equilibrium_deviation(cfg, prob, np.inf)

    def test_non_finite_force_underflows(self):
        # opposite overflowing forces on the middle body give a NaN
        # right-hand side and a NaN first step; it must abort, not spin
        prob = Problem(2, [1.0, 1.0, 1.0], [1.0], -200.0)
        state = PhaseState([[-0.01, 0.0], [0.0, 0.0], [0.01, 0.0]],
                           np.zeros((3, 2)))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(SingularityError, match="underflow") as err:
            integrate(state, prob, 1.0, 1e-10)
        assert err.value.time == 0.0

    def test_non_finite_error_estimate_retries_a_tenth(self, monkeypatch):
        # a head-on pair at a = -200 overflows a stage force and gets a
        # non-finite error estimate: that step is retried at a tenth of its
        # size, no non-finite state is accepted, and the run still aborts
        prob = Problem(2, [1.0, 1.0], [1.0], -200.0)
        state = PhaseState([[0.5, 0.0], [-0.5, 0.0]],
                           [[-1.0, 0.0], [1.0, 0.0]])
        estimates, states = [], []
        scaled_err = dynamics._scaled_err
        check_separation = dynamics._check_separation

        def estimating(*args):
            err = scaled_err(*args)
            estimates.append((sys._getframe(1).f_locals["h_step"], err))
            return err

        def checking(pos, r2, time):
            states.append(np.array(pos))
            return check_separation(pos, r2, time)

        monkeypatch.setattr(dynamics, "_scaled_err", estimating)
        monkeypatch.setattr(dynamics, "_check_separation", checking)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(SingularityError):
            integrate(state, prob, 1.0, 1e-6)
        failed = [i for i, (_, err) in enumerate(estimates)
                  if not math.isfinite(err)]
        assert failed
        for i in failed:
            assert estimates[i + 1][0] == 0.1 * estimates[i][0]
        assert states and all(np.isfinite(pos).all() for pos in states)

    def test_requested_samples_returned(self, two_body):
        prob, cfg = two_body
        times = np.array([0.3, 1.1, 2.0])
        traj = integrate(rigid_rotation_state(cfg, prob), prob, 2.0, 1e-9,
                         sample_times=times)
        assert np.array_equal(traj.times, times)
        assert traj.positions.shape == (3, 2, 2)

    def test_accuracy_improves_with_tolerance(self, two_body):
        # period-return error of the circular orbit must shrink as the
        # local tolerance tightens
        prob, cfg = two_body
        errs = []
        for tol in (1e-5, 1e-7, 1e-9):
            traj = integrate(rigid_rotation_state(cfg, prob), prob,
                             2 * np.pi, tol,
                             sample_times=[2 * np.pi])
            errs.append(np.abs(traj.positions[-1] - cfg.points).max())
        assert errs[1] < errs[0] / 10
        assert errs[2] < errs[1] / 10

    def test_time_shift_invariance(self, two_body):
        # the dynamics are autonomous: starting at t0 = 5 just relabels time
        prob, cfg = two_body
        state0 = rigid_rotation_state(cfg, prob)
        state5 = PhaseState(state0.positions, state0.velocities, 5.0)
        t1 = integrate(state0, prob, 2.0, 1e-11,
                       sample_times=np.linspace(0.0, 2.0, 9))
        t2 = integrate(state5, prob, 7.0, 1e-11,
                       sample_times=np.linspace(5.0, 7.0, 9))
        assert np.abs(t1.positions - t2.positions).max() < 1e-9


class TestConservedQuantities:
    def test_rest_state_zeroes(self):
        prob = Problem(2, [1.0, 1.0], [1.0], -1.5)
        state = PhaseState([[1.0, 0.0], [-1.0, 0.0]], np.zeros((2, 2)))
        q = conserved_quantities(state, prob)
        assert np.all(q.linear_momentum == 0.0)
        assert np.all(q.angular_momentum == 0.0)
        assert q.energy == potential_energy(state.positions, prob)

    def test_two_body_angular_momentum(self, two_body):
        prob, cfg = two_body
        q = conserved_quantities(rigid_rotation_state(cfg, prob), prob)
        r = oracles.two_body_separation(1.0, 1.0, 1.0, -1.5)
        assert np.abs(q.linear_momentum).max() == 0.0
        assert q.angular_momentum[0, 1] == pytest.approx(r * r / 2.0)

    def test_antisymmetry(self):
        rng = np.random.default_rng(23)
        prob = Problem(3, [1.0, 2.0, 0.4], [1.3], -0.75)
        cfg = random_config(rng, 3, 3)
        state = PhaseState(cfg.points, rng.normal(size=(3, 3)))
        L = conserved_quantities(state, prob).angular_momentum
        assert np.abs(L + L.T).max() < 1e-15


class TestDeviation:
    def test_exact_two_body(self, two_body):
        prob, cfg = two_body
        dev = relative_equilibrium_deviation(cfg, prob, 2 * np.pi)
        assert dev < 1e-12

    def test_exact_trigon(self, trigon):
        prob, cfg = trigon
        dev = relative_equilibrium_deviation(cfg, prob, 2 * np.pi)
        assert dev < 1e-12

    @pytest.mark.parametrize("case", ["scaled_pair", "perturbed_6gon", "k4",
                                      "random_k3"])
    def test_frames_agree(self, case, two_body):
        # the co-rotating integration, mapped back, reports the gap of the
        # fixed-frame one on motions that leave the rigid rotation
        if case == "scaled_pair":
            prob, cfg = two_body
            cfg = Configuration(cfg.points * 1.5)
        elif case == "perturbed_6gon":
            prob = Problem(2, [1.0] * 6, [1.0], -1.5)
            rho = oracles.ngon_circumradius(6, 1.0, 1.0, -1.5)
            points = np.array(oracles.ngon_points(6, rho))
            rng = np.random.default_rng(0)
            cfg = Configuration(points + 1e-6 * rng.normal(size=points.shape))
        elif case == "k4":
            prob, state, _, _ = pinned_cases()[2]
            cfg = Configuration(state.positions)
        else:
            prob = Problem(3, [1.0, 2.0, 0.5, 1.5], [1.0], -1.5)
            cfg = random_config(np.random.default_rng(4), 4, 3)
        t_end, samples, tol = 2 * np.pi / prob.frequencies.max(), 16, 1e-10
        fixed = integrate(rigid_rotation_state(cfg, prob), prob, t_end, tol,
                          sample_times=np.linspace(0.0, t_end, samples + 1))
        expected = dynamics.rigid_rotation_gap(fixed, cfg, prob)
        dev = relative_equilibrium_deviation(cfg, prob, t_end, samples, tol)
        assert dev > 1e-4
        assert abs(dev - expected) <= 1e-8 * max(1.0, dev)

    @pytest.mark.parametrize("n,a,predicted", [
        (12, -2.0, 1.994e-3), (12, -1.5, 1.852e-8), (8, -2.0, 1.55e-9),
    ], ids=["12-ring-a-2", "12-ring-a-1.5", "8-ring-a-2"])
    @pytest.mark.parametrize("samples", [1, 4, 16, 64])
    def test_unstable_rings_follow_linear_response(self, n, a, predicted,
                                                   samples):
        # these rings are linearly unstable, so the float64 points' balance
        # defect grows over one period into the whole deviation. The
        # predictions are ROADMAP item 4's linear response to the float64
        # defect from rest (its table's "float64 F" column). Under an error
        # scale of tol (1 + |y|) alone the steps outgrow the departure, and
        # a run at one sample read these rings 18-43x low
        prob = Problem(2, [1.0] * n, [1.0], a)
        rho = oracles.ngon_circumradius(n, 1.0, 1.0, a)
        cfg = Configuration(oracles.ngon_points(n, rho))
        dev = relative_equilibrium_deviation(cfg, prob, 2 * np.pi, samples,
                                             1e-10)
        assert predicted / 1.5 <= dev <= 1.5 * predicted

    def test_scaled_configuration_diverges(self, two_body):
        # scaling the points without rescaling the rotation rates breaks
        # the balance, so the motion leaves the rigid rotation quickly
        prob, cfg = two_body
        scaled = Configuration(cfg.points * 1.5)
        dev = relative_equilibrium_deviation(scaled, prob, 2 * np.pi)
        assert dev > 1e-2

    def test_zero_samples_rejected(self, two_body):
        # a single sample at t=0 would report a vacuous zero gap
        prob, cfg = two_body
        with pytest.raises(ValueError):
            relative_equilibrium_deviation(cfg, prob, 1.0, samples=0)


def test_trajectory_csv_layout(two_body, tmp_path, capsys):
    # the integrate CSV has one row per (sample, body): t, body, q, v
    prob, cfg = two_body
    doc = tmp_path / "twobody.json"
    save_document(doc, ProblemDocument(prob, cfg))
    out = tmp_path / "traj.csv"
    assert main(["integrate", str(doc), "--t-end", "1.0", "--samples", "2",
                 "--tol", "1e-8", "--format", "csv", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,body,q0,q1,v0,v1"
    assert len(lines) == 1 + 3 * 2
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and int(first[1]) == 0
    traj = dynamics.to_fixed_frame(
        dynamics.co_rotating_trajectory(cfg, prob, 1.0, 2, 1e-8), prob)
    last = [float(x) for x in lines[-1].split(",")]
    assert last == [traj.times[2], 1.0, *traj.positions[2, 1],
                    *traj.velocities[2, 1]]


def test_head_on_collision_time_oracle():
    # a constant pull (a = -1/2) closes the gap as 1 - t^2, and the fall
    # time is continuous into the logarithmic case a = -1
    assert oracles.head_on_collision_time(-0.5) == pytest.approx(1.0,
                                                                 rel=1e-14)
    assert oracles.head_on_collision_time(-1.0 + 1e-6) == pytest.approx(
        oracles.head_on_collision_time(-1.0), rel=1e-5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_phase_state_rejects_non_finite_velocities(bad):
    with pytest.raises(ValueError, match="velocities must be finite"):
        PhaseState([[0.5, 0.0], [-0.5, 0.0]], [[0.0, bad], [0.0, 1.0]])


def test_phase_state_collision_rejected():
    with pytest.raises(ValueError):
        PhaseState([[0.0, 0.0], [1e-14, 0.0]], np.zeros((2, 2)))


@pytest.mark.parametrize("positions,velocities", [
    ([[0.0, 0.0], [np.inf, 0.0]], np.zeros((2, 2))),
    ([[1.0, 0.0]], np.zeros((1, 2))),
    ([[1.0, 0.0], [-1.0, 0.0]], np.zeros((3, 2))),
], ids=["non_finite", "one_body", "shape_mismatch"])
def test_phase_state_validated_as_configuration(positions, velocities):
    with pytest.raises(ValueError):
        PhaseState(positions, velocities)


@pytest.mark.parametrize("evaluate", [
    acceleration, potential_energy,
    lambda points, prob: integrate(PhaseState(points, np.zeros_like(points)),
                                   prob, 1.0, 1e-8),
], ids=["acceleration", "potential_energy", "integrate"])
@pytest.mark.parametrize("points", [
    [[1.0, 0.0], [-1.0, 0.0]],
    [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
], ids=["fewer_bodies", "more_axes"])
def test_shape_mismatch_rejected(evaluate, points, trigon):
    # the (n, k) rule of check_problem_config, with its message
    prob, _ = trigon
    shape = np.shape(points)
    with pytest.raises(ValueError, match=re.escape(
            f"configuration shape {shape} does not match problem (n=3, k=2)")):
        evaluate(np.array(points), prob)


@pytest.mark.parametrize("evaluate", [
    lambda cfg, prob: acceleration(cfg.points, prob),
    lambda cfg, prob: potential_energy(cfg.points, prob),
    criterion.residual, criterion.residual_scale, criterion.jacobian,
], ids=["acceleration", "potential_energy", "residual", "residual_scale",
        "jacobian"])
def test_one_geometry_pass_per_static_evaluation(evaluate, trigon,
                                                 monkeypatch):
    # a static evaluation, its collision guard included, measures its
    # point set's pair geometry once
    prob, cfg = trigon
    calls = []
    measure = _kernels._measure_pairs

    def counted(*args):
        calls.append(args)
        return measure(*args)
    monkeypatch.setattr(_kernels, "_measure_pairs", counted)
    evaluate(cfg, prob)
    assert len(calls) == 1
