import dataclasses
import sys
from collections import Counter

import numpy as np
import pytest

from releq import _kernels, criterion, solver
from releq import (
    Configuration,
    Problem,
    SolveOptions,
    Termination,
    canonicalize,
    continuation_in_exponent,
    exponent_schedule,
    fingerprint,
    jacobian,
    lemma_identity_gap,
    multistart_search,
    relative_equilibrium_deviation,
    residual,
    residual_scale,
    rotation_matrix,
    sample_seed,
    seed_radius,
    solve_from_seed,
)

import oracles
from conftest import random_config


def lone_canonical_fingerprint(points, prob):
    """Canonical points and fingerprint sides of one point set, plane by
    plane: the reference of the stacked class bookkeeping."""
    pts = np.array(points)
    k = pts.shape[1]
    if k % 2:
        pts[:, -1] -= float(prob.masses @ pts[:, -1]) / float(prob.masses.sum())
    scale = max(1.0, float(np.sqrt(np.sum(pts ** 2, axis=1)).max()))
    for l in range(k // 2):
        plane = pts[:, 2 * l:2 * l + 2]
        turned = np.flatnonzero(np.sqrt(np.sum(plane ** 2, axis=1))
                                > 1e-9 * scale)
        if turned.size:
            x, y = plane[turned[0]]
            r = float(np.hypot(x, y))
            c, s = x / r, y / r
            pts[:, 2 * l:2 * l + 2] = plane @ np.array([[c, s], [-s, c]]).T
    distances = _kernels.pair_distances(pts)[np.triu_indices(len(pts), 1)]
    weighted = prob.masses * np.sqrt(np.sum(pts ** 2, axis=1))
    order = np.lexsort((weighted, prob.masses))
    return pts, np.sort(distances), weighted[order]


def assert_fingerprints_agree(fp, other, rtol):
    """The bound ``matches`` applies, at a tighter rtol than its own."""
    for a, b in ((fp.sorted_distances, other.sorted_distances),
                 (fp.sorted_mass_weighted_norms,
                  other.sorted_mass_weighted_norms)):
        assert a.shape == b.shape
        ref = max(1.0, np.abs(a).max(), np.abs(b).max())
        assert np.abs(a - b).max() <= rtol * ref


class TestSolveOptions:
    @pytest.mark.parametrize("name,value,message", [
        ("damping_init", 0.0, "damping_init must be > 0, got 0.0"),
        ("damping_init", -1e-3, "damping_init must be > 0, got -0.001"),
        ("damping_grow", 1.0, "damping_grow must be > 1, got 1.0"),
        ("damping_grow", 0.5, "damping_grow must be > 1, got 0.5"),
        ("damping_shrink", np.nan, "damping_shrink must not be nan"),
    ])
    def test_unusable_damping_rejected_at_construction(self, name, value,
                                                       message):
        # rejected steps would repeat forever without growing the damping
        with pytest.raises(ValueError) as info:
            SolveOptions(**{name: value})
        assert str(info.value) == message

    def test_fields_cannot_be_assigned(self):
        opts = SolveOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.damping_init = 0.0
        assert opts == SolveOptions()


class TestSolveFromSeed:
    def test_perturbed_two_body_converges(self, two_body):
        prob, cfg = two_body
        rng = np.random.default_rng(40)
        seed = Configuration(cfg.points + rng.uniform(-0.1, 0.1, (2, 2)))
        result = solve_from_seed(seed, prob)
        assert result.termination is Termination.CONVERGED
        assert result.residual_max < 1e-12 * residual_scale(result.config, prob)
        sep = np.linalg.norm(result.config.points[0] - result.config.points[1])
        assert sep == pytest.approx(oracles.two_body_separation(1, 1, 1, -1.5),
                                    abs=1e-11)

    def test_exact_seed_is_fixed_point(self, trigon):
        prob, cfg = trigon
        result = solve_from_seed(cfg, prob)
        assert result.termination is Termination.CONVERGED
        assert result.iterations <= 2
        assert np.abs(result.config.points - cfg.points).max() < 1e-12

    def test_near_coincident_seed_hits_guard(self):
        prob = Problem(2, [1.0, 1.0], [1.0], -1.5)
        seed = Configuration([[5e-9, 0.0], [-5e-9, 0.0]])
        result = solve_from_seed(seed, prob)
        assert result.termination is Termination.COLLISION_GUARD
        assert np.isfinite(result.residual_max)

    def test_history_monotone_on_accepted_steps(self, two_body):
        prob, cfg = two_body
        rng = np.random.default_rng(41)
        seed = Configuration(cfg.points + rng.uniform(-0.2, 0.2, (2, 2)))
        result = solve_from_seed(seed, prob)
        history = np.array(result.residual_history)
        assert np.all(np.diff(history) <= 1e-15)

    def test_unreachable_tolerance_stalls(self, two_body):
        # at the rounding floor no step can decrease the residual, so the
        # solve reports a stall
        prob, cfg = two_body
        opts = SolveOptions(tol_res=np.finfo(float).tiny)
        result = solve_from_seed(cfg, prob, opts)
        assert result.termination is Termination.STALLED
        assert result.residual_max < 1e-14

    @pytest.mark.parametrize("tol_res", [np.inf, np.nan, 0.0, -1.0])
    def test_unusable_tolerance_rejected(self, tol_res):
        # inf makes any seed converge; nan, 0 and below make every trial
        # fail
        with pytest.raises(ValueError) as info:
            SolveOptions(tol_res=tol_res)
        assert str(info.value) == \
            f"tol_res must be finite and > 0, got {tol_res}"

    def test_zero_iteration_budget(self, two_body, monkeypatch):
        prob, cfg = two_body
        off = Configuration(cfg.points * 1.5)
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 0)
        result = solve_from_seed(off, prob)
        assert result.termination is Termination.MAX_ITERATIONS
        assert result.iterations == 0

    def test_converged_implies_tolerance(self, two_body):
        prob, _ = two_body
        rng = np.random.default_rng(42)
        opts = SolveOptions(tol_res=1e-10)
        for trial in range(5):
            seed = Configuration(
                sample_seed(prob, np.random.default_rng([7, trial])))
            result = solve_from_seed(seed, prob, opts)
            if result.termination is Termination.CONVERGED:
                scale = residual_scale(result.config, prob)
                assert result.residual_max <= opts.tol_res * scale


class TestBoundFirstConvergence:
    """The solver decides max_norm <= tol * scale from bounds on the scale
    of ``residual_scale_batch`` and measures the scale only for rows
    between them; every decision must be the measured one."""

    TOL = SolveOptions().tol_res

    @staticmethod
    def _stacks(prob, rng):
        """Point sets of ``prob``: drawn seeds, and sets with one close pair
        of the two lightest bodies, at several sizes."""
        sets = [sample_seed(prob, np.random.default_rng([3, t]))
                for t in range(4)]
        light = np.argsort(prob.masses, kind="stable")[:2]
        for scale in (0.05, 1.0, 30.0):
            pts = rng.normal(size=(prob.n, prob.k)) * scale
            pts[light[1]] = pts[light[0]] + 0.02 * scale
            sets.append(pts)
        return np.array(sets)

    def _rows(self, prob, stack):
        """Each set repeated with max_norm at and around its thresholds:
        the bounds max(1, N, R) and max(1, N, R, max(m) d_min^(2a+1)), the
        scale itself, one ulp either side of tol * scale, and points in
        between."""
        diff, r2 = _kernels.pair_geometry(stack)
        scale = criterion.residual_scale_batch(stack, r2, prob)
        size = np.sqrt(np.sum(stack ** 2, axis=-1)).max(axis=-1)
        rates = np.sqrt(np.sum((stack * prob.asq) ** 2, axis=-1)).max(axis=-1)
        low = np.maximum(1.0, np.maximum(size, rates))
        min_distance = _kernels.min_distance_from(r2)
        high = np.maximum(low, prob.masses.max()
                          * min_distance ** (2.0 * prob.a + 1.0))
        edge = self.TOL * scale
        values = [edge, np.nextafter(edge, np.inf), np.nextafter(edge, 0.0),
                  self.TOL * low, self.TOL * high, 0.5 * self.TOL * low,
                  2.0 * self.TOL * high, 0.5 * (self.TOL * low + edge),
                  0.5 * (edge + self.TOL * high)]
        count = len(values)
        norms = np.concatenate(values)
        order = np.tile(np.arange(len(stack)), count)
        return (stack[order], r2[order], norms, size[order],
                min_distance[order], scale[order], low[order], high[order])

    @pytest.mark.parametrize("masses, rates, a", [
        ([3.0, 1.0, 1.0], [1.0], -1.5),          # closest pair not heaviest
        ([1.0, 1.0, 1.0], [1e-3], -1.5),
        ([1.0, 1.0, 1.0], [1e-7], -1.5),
        ([0.5, 2.0, 1.0, 4.0], [1.0], -0.6),
        ([0.5, 2.0, 1.0, 4.0], [1.0], -3.0),
        ([1.0, 0.3, 2.0, 0.7, 1.5], [2.0, 3.0], -1.5),   # R above N
    ])
    def test_decisions_match_the_measured_scale(self, masses, rates, a):
        prob = Problem(2 * len(rates), masses, rates, a)
        rng = np.random.default_rng(11)
        (points, r2, norms, size, min_distance, scale, low,
         high) = self._rows(prob, self._stacks(prob, rng))
        converged = solver._convergence_test(prob, self.TOL)(
            points, r2, norms, size, min_distance)
        assert converged.tolist() == (norms <= self.TOL * scale).tolist()
        # the stacks put rows below, in and above the band between the
        # bounds, and in the band on both sides of tol * scale
        band = (norms > self.TOL * low) & (norms <= self.TOL * high)
        assert (norms <= self.TOL * low).any()
        assert (norms > self.TOL * high).any()
        assert (band & converged).any()
        if masses[0] != masses[1]:
            assert (band & ~converged).any()

    def test_slow_rate_seed_converges_at_once(self):
        # at rate 1e-7 the seeds are so large that 1 and max|Q_i| set the
        # scale: every trial converges at its seed, after 0 iterations
        prob = Problem(2, np.ones(3), [1e-7], -1.5)
        results = list(solver._trial_results(prob, 6, 3, SolveOptions()))
        assert all(result.converged and result.iterations == 0
                   for result in results)


class TestVerificationTriangle:
    def _check_classes(self, prob, classes):
        tol = SolveOptions().tol_res
        for cls in classes:
            cfg = cls.result.config
            scale = residual_scale(cfg, prob)
            assert cls.result.residual_max <= tol * scale
            gap_bound = (10.0 * prob.n * (1.0 + float(prob.masses.sum()))
                         * tol * scale)
            for l in range(2, prob.n + 1):
                assert lemma_identity_gap(cfg, prob, l).gap <= gap_bound
            horizon = 2 * np.pi / prob.frequencies.max()
            assert relative_equilibrium_deviation(cfg, prob, horizon) < 1e-6

    def test_solutions_pass_all_three_checks(self):
        # residual, cluster identity, and direct integration must all agree
        prob = Problem(2, [1.0, 1.0, 1.0], [1.0], -1.5)
        classes = multistart_search(prob, 30, 3)
        assert classes
        self._check_classes(prob, classes)

    def test_random_problems_pass_all_three_checks(self):
        # sample a few problem shapes and verify whatever the search finds
        rng = np.random.default_rng(99)
        for _ in range(4):
            n = int(rng.integers(2, 5))
            prob = Problem(2, rng.uniform(0.5, 2.0, size=n),
                           rng.uniform(0.5, 1.5, size=1),
                           float(rng.uniform(-2.2, -0.6)))
            classes = multistart_search(prob, 12, int(rng.integers(1000)))
            self._check_classes(prob, classes)


class TestMultistart:
    def test_two_body_single_class(self):
        prob = Problem(2, [1.0, 1.0], [1.0], -1.5)
        classes = multistart_search(prob, 100, 5)
        assert len(classes) == 1
        sep = classes[0].fingerprint.sorted_distances[0]
        assert sep == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-10)

    def test_three_body_two_classes(self):
        # equal masses in the plane: the triangle class plus the collinear
        # class (its three relabelings share one fingerprint)
        prob = Problem(2, [1.0, 1.0, 1.0], [1.0], -1.5)
        classes = multistart_search(prob, 150, 5)
        assert len(classes) == 2
        sides = sorted(cls.fingerprint.sorted_distances[0] for cls in classes)
        assert sides[0] == pytest.approx(
            oracles.euler_collinear_distance(1.0, 1.0, -1.5), abs=1e-9)
        assert sides[1] == pytest.approx(3.0 ** (1.0 / 3.0), abs=1e-9)

    def test_trials_must_be_positive(self):
        prob = Problem(2, [1.0, 1.0], [1.0], -1.5)
        with pytest.raises(ValueError):
            multistart_search(prob, 0, 1)

    @pytest.mark.parametrize("n, k, a, trials, opts, constants, termination", [
        (3, 2, -1.5, 10, SolveOptions(), {}, Termination.CONVERGED),
        (5, 3, -1.5, 6, SolveOptions(), {"MAX_ITERATIONS": 5},
         Termination.MAX_ITERATIONS),
        (4, 2, -1.5, 6, SolveOptions(tol_res=np.finfo(float).tiny),
         {"MAX_ITERATIONS": 60}, Termination.STALLED),
        (7, 3, -2.5, 10, SolveOptions(),
         {"GUARD_REL": 0.1, "MAX_COLLISION_REJECTS": 2},
         Termination.COLLISION_GUARD),
    ], ids=["converged", "max_iterations", "stalled", "collision_guard"])
    def test_trials_match_lone_solves(self, monkeypatch, n, k, a, trials,
                                      opts, constants, termination):
        # every trial of a rolling lock-step batch ends exactly where its
        # seed solved alone ends, whichever trials share the rounds with
        # it (4 slots here, refilled as trials stop); odd k is solved in
        # the even subspace, so its trials draw even seeds, and lone
        # solves get them lifted to z = 0
        for name, value in constants.items():
            monkeypatch.setattr(solver, name, value)
        prob = Problem(k, np.ones(n), np.ones(k // 2), a)
        even_k = k - k % 2
        even = Problem(even_k, prob.masses, prob.frequencies, a)
        seeds = [Configuration(sample_seed(even,
                                           np.random.default_rng([17, t])))
                 for t in range(trials)]
        rounds = [0]    # damped attempts since the last reset
        damped_steps = solver._damped_steps

        def counting(lhs, rhs):
            rounds[0] += 1
            return damped_steps(lhs, rhs)

        monkeypatch.setattr(solver, "_damped_steps", counting)
        lone, lone_rounds = [], []
        for seed in seeds:
            rounds[0] = 0
            lone.append(solve_from_seed(lifted(seed.points, k), prob, opts))
            lone_rounds.append(rounds[0])
        monkeypatch.setattr(solver, "_BATCH_ENTRIES", 4 * (n * even_k) ** 2)
        batched, slot_counts, draws = [], [], []
        solve_batch = solver._solve_batch

        def recording(stack, problem, options, slots):
            slot_counts.append(slots)

            def drawn():
                for seed in stack:
                    draws.append(rounds[0])
                    yield seed

            rounds[0] = 0
            for result in solve_batch(drawn(), problem, options, slots):
                batched.append(result)
                yield result

        monkeypatch.setattr(solver, "_solve_batch", recording)
        multistart_search(prob, trials, 17, opts)
        assert slot_counts == [4]
        # the fifth seed takes the first freed slot, in the round after
        # the shortest of the first four trials makes its last damped
        # attempt, whichever test stops it
        assert draws[:4] == [0] * 4
        assert draws[4] == min(lone_rounds[:4])
        assert termination in {result.termination for result in batched}
        for mine, alone in zip(batched, lone, strict=True):
            assert np.array_equal(mine.points,
                                  alone.config.points[:, :even_k])
            assert not alone.config.points[:, even_k:].any()
            assert mine.residual_max == alone.residual_max
            assert mine.iterations == alone.iterations
            assert mine.termination is alone.termination
            assert mine.residual_history == alone.residual_history

    def test_trials_independent_of_slot_placement(self, monkeypatch):
        # rows are closed up as trials stop, so a trial moves between rows
        # and shares its rounds with different trials at each slot count;
        # every result keeps its bits. The constants make the 48 seeds end
        # all four ways
        for name, value in {"GUARD_REL": 0.05, "MAX_COLLISION_REJECTS": 2,
                            "MAX_ITERATIONS": 20, "DAMPING_MAX": 0.1}.items():
            monkeypatch.setattr(solver, name, value)
        prob = Problem(2, np.ones(7), [1.0], -2.5)
        seeds = [sample_seed(prob, np.random.default_rng([5, t]))
                 for t in range(48)]
        runs = [list(solver._solve_batch(seeds, prob, SolveOptions(), slots))
                for slots in (1, 3, 48)]
        assert {result.termination for result in runs[0]} == set(Termination)
        for results in runs[1:]:
            for mine, alone in zip(results, runs[0], strict=True):
                assert mine.points.tobytes() == alone.points.tobytes()
                assert mine.residual_max == alone.residual_max
                assert mine.iterations == alone.iterations
                assert mine.termination is alone.termination
                assert mine.residual_history == alone.residual_history

    def test_singular_stack_falls_back_to_lone_solves(self, monkeypatch):
        # a stacked solve fails as a whole if one matrix is singular; the
        # per-trial fallback must reproduce the stacked results exactly
        prob = Problem(2, [1.0, 1.0, 1.0], [1.0], -1.5)
        expected = multistart_search(prob, 40, 9)
        real_solve = np.linalg.solve
        stacked_calls = []

        def refuse_stacks(lhs, rhs):
            if np.ndim(lhs) == 3:
                stacked_calls.append(len(lhs))
                raise np.linalg.LinAlgError("Singular matrix")
            return real_solve(lhs, rhs)

        monkeypatch.setattr(np.linalg, "solve", refuse_stacks)
        classes = multistart_search(prob, 40, 9)
        assert stacked_calls
        assert len(classes) == len(expected)
        for mine, theirs in zip(classes, expected):
            assert mine.hits == theirs.hits
            assert np.array_equal(mine.result.config.points,
                                  theirs.result.config.points)
            assert mine.result.residual_max == theirs.result.residual_max
            assert mine.result.iterations == theirs.result.iterations
            assert mine.result.residual_history == \
                theirs.result.residual_history
            assert np.array_equal(mine.fingerprint.sorted_distances,
                                  theirs.fingerprint.sorted_distances)

    def test_one_slot_solves_every_trial(self, monkeypatch):
        # at large n one trial fills the working set: a slot freed while
        # no other trial is open must still take the next seed
        prob = Problem(2, [1.0, 1.0, 1.0], [1.0], -1.5)
        expected = multistart_search(prob, 12, 4)
        monkeypatch.setattr(solver, "_BATCH_ENTRIES", 1)
        classes = multistart_search(prob, 12, 4)
        assert sum(cls.hits for cls in expected) == 12
        assert_same_classes(classes, expected)

    def test_bookkeeping_measures_each_chunk_once(self, monkeypatch):
        # outside the LM, a search measures pair geometry once per chunk
        # of converged trials (8, the slot count here), and a seed draw
        # measures none; it builds no Configuration per draw, class or
        # trial, and an EquilibriumFingerprint per class. A class's
        # Configuration is built on the first use of its result's config,
        # once
        prob = Problem(2, np.ones(6), [1.0], -1.5)
        expected = multistart_search(prob, 48, 41)
        counts = Counter()
        in_lm, in_draw = [False], [False]
        measure, build = _kernels._measure_pairs, solver.Configuration
        draw, solve_batch = solver._seed_blocks, solver._solve_batch
        make_fingerprint = solver.EquilibriumFingerprint

        def measuring(*args):
            counts["draw" if in_draw[0] else
                   "lm" if in_lm[0] else "bookkeeping"] += 1
            return measure(*args)

        def building(points):
            counts["configurations"] += 1
            return build(points)

        def drawing(*args):
            blocks = draw(*args)
            while True:
                in_draw[0] = True
                block = next(blocks, None)
                in_draw[0] = False
                if block is None:
                    return
                counts["draws"] += len(block)
                yield block

        def fingerprinting(*args):
            counts["fingerprints"] += 1
            return make_fingerprint(*args)

        def batch(*args):
            trials = solve_batch(*args)
            while True:
                in_lm[0] = True
                trial = next(trials, None)
                in_lm[0] = False
                if trial is None:
                    return
                counts["converged"] += trial.converged
                yield trial

        monkeypatch.setattr(_kernels, "_measure_pairs", measuring)
        monkeypatch.setattr(solver, "Configuration", building)
        monkeypatch.setattr(solver, "_seed_blocks", drawing)
        monkeypatch.setattr(solver, "EquilibriumFingerprint", fingerprinting)
        monkeypatch.setattr(solver, "_solve_batch", batch)
        monkeypatch.setattr(solver, "_BATCH_ENTRIES", 8 * 12 ** 2)
        classes = multistart_search(prob, 48, 41)
        chunks = -(-counts["converged"] // 8)
        assert chunks > 1
        assert len(classes) < counts["converged"]
        assert counts["draws"] == 48
        assert counts["bookkeeping"] <= chunks
        assert counts["draw"] == 0
        assert counts["configurations"] == 0
        assert counts["fingerprints"] == len(classes)
        for cls in classes:
            built = counts["configurations"]
            config = cls.result.config
            assert counts["configurations"] == built + 1
            assert cls.result.config is config
            assert counts["configurations"] == built + 1
        assert_same_classes(classes, expected)

    def test_colliding_draw_ends_the_search(self, monkeypatch):
        # a seed is checked when the LM places it, by the collision rule
        # of Configuration; a colliding draw is not redrawn but ends the
        # search with that rule's error
        prob = Problem(2, np.ones(4), [1.0], -1.5)
        draw = solver._ball_points

        def colliding(*args):
            seeds = draw(*args)    # the five seeds, drawn as one block
            seeds[2, 1] = seeds[2, 0]
            return seeds

        monkeypatch.setattr(solver, "_ball_points", colliding)
        with pytest.raises(ValueError, match="colliding configuration"):
            multistart_search(prob, 5, 41)

    def test_damped_matrix_is_eye_formula(self, monkeypatch):
        # the damping is added in place on the diagonal of a copy of each
        # open trial's J^T J: every matrix a rolling search solves equals
        # jtj + (damping * mu) I, and is solved to the same bits
        prob = Problem(2, np.ones(6), [1.0], -1.5)
        damped_steps = solver._damped_steps
        dampings = []

        def checking(lhs, rhs):
            state = sys._getframe(1).f_locals    # the _solve_batch round
            # the open trials fill rows 0..m-1
            open_ = slice(0, state["m"])
            jtj = state["jtj"]
            mu = state["damping"][open_] * state["mu_base"][open_]
            expected = jtj[open_] + mu[:, None, None] * np.eye(lhs.shape[1])
            assert np.array_equal(lhs, expected)
            steps = damped_steps(lhs, rhs)
            assert steps.tobytes() == damped_steps(expected, rhs).tobytes()
            dampings.extend(state["damping"][open_])
            return steps

        monkeypatch.setattr(solver, "_damped_steps", checking)
        monkeypatch.setattr(solver, "_BATCH_ENTRIES", 4 * 12 ** 2)
        classes = multistart_search(prob, 12, 5)
        assert classes
        assert len(dampings) > 12
        # the damping grows only when a step is rejected
        assert max(dampings) > SolveOptions().damping_init

    def test_seed_radius_formula(self):
        prob = Problem(2, [1.0, 3.0], [2.0], -1.5)
        expected = (4.0 / 4.0) ** (1.0 / -3.0) * 2
        assert seed_radius(prob) == pytest.approx(expected)


def assert_same_classes(classes, expected):
    """Search classes equal bit for bit, in order."""
    assert len(classes) == len(expected)
    for mine, theirs in zip(classes, expected):
        assert np.array_equal(mine.result.config.points,
                              theirs.result.config.points)
        assert mine.result.residual_max == theirs.result.residual_max
        assert mine.result.iterations == theirs.result.iterations
        assert mine.result.residual_history == theirs.result.residual_history
        assert mine.hits == theirs.hits
        assert np.array_equal(mine.fingerprint.sorted_distances,
                              theirs.fingerprint.sorted_distances)
        assert np.array_equal(mine.fingerprint.sorted_mass_weighted_norms,
                              theirs.fingerprint.sorted_mass_weighted_norms)


def search_trials(prob, trials, rng_seed, gradient_rtol):
    """Classes and every trial's result of a search at ``gradient_rtol``."""
    results = []
    solve_batch = solver._solve_batch

    def recording(*args):
        for result in solve_batch(*args):
            results.append(result)
            yield result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "GRADIENT_RTOL", gradient_rtol)
        patch.setattr(solver, "_solve_batch", recording)
        classes = multistart_search(prob, trials, rng_seed)
    return classes, results


class TestGradientTest:
    @pytest.mark.parametrize("n, k, a, unequal, trials", [
        (5, 2, -0.75, False, 40),
        (8, 2, -2.0, True, 32),
        (12, 2, -3.0, False, 24),
        (6, 4, -1.5, True, 24),
        (7, 4, -3.0, False, 16),
        (30, 2, -1.5, False, 16),
    ])
    def test_never_cuts_a_converging_trial(self, n, k, a, unequal, trials):
        # every trial that converges without the test converges with it
        # along the same path; every other trial stops no later
        rng = np.random.default_rng(10 * n + k)
        masses = rng.uniform(0.5, 2.0, n) if unequal else np.ones(n)
        rates = rng.uniform(0.5, 2.0, k // 2) if unequal else np.ones(k // 2)
        prob = Problem(k, masses, rates, a)
        classes, results = search_trials(prob, trials, 3,
                                         solver.GRADIENT_RTOL)
        expected, reference = search_trials(prob, trials, 3, 0.0)
        assert expected
        assert_same_classes(classes, expected)
        for mine, theirs in zip(results, reference, strict=True):
            assert mine.converged == theirs.converged
            if theirs.converged:
                assert np.array_equal(mine.points, theirs.points)
                assert mine.residual_history == theirs.residual_history
            else:
                assert mine.iterations <= theirs.iterations

    def test_stall_ends_at_stationary_point(self, monkeypatch):
        # a cold n = 16 solve that stalls: the test stops it on the same
        # path, earlier, where the gradient has vanished relative to the
        # Jacobian and the residual
        prob = Problem(2, np.ones(16), [1.0], -1.5)
        seed = Configuration(sample_seed(prob, np.random.default_rng([0, 10])))
        rtol = solver.GRADIENT_RTOL
        result = solve_from_seed(seed, prob)
        monkeypatch.setattr(solver, "GRADIENT_RTOL", 0.0)
        full = solve_from_seed(seed, prob)
        assert result.termination is Termination.STALLED
        assert full.termination is Termination.STALLED
        assert result.iterations < full.iterations
        assert result.residual_history == \
            full.residual_history[:result.iterations + 1]
        J = jacobian(result.config, prob)
        F = residual(result.config, prob).per_body.ravel()
        ratio = np.linalg.norm(J.T @ F) / (np.linalg.norm(J)
                                           * np.linalg.norm(F))
        assert ratio <= rtol


def lifted(points, k, z=0.0):
    """Points padded to dimension k with the constant coordinate z."""
    points = np.asarray(points, dtype=float)
    out = np.full((points.shape[0], k), z)
    out[:, :points.shape[1]] = points
    return Configuration(out)


def even_twin(prob):
    return Problem(prob.k - 1, prob.masses, prob.frequencies, prob.a)


class TestOddDimension:
    @pytest.mark.parametrize("k", [3, 5])
    def test_search_is_lifted_even_search(self, k):
        rng = np.random.default_rng(50 + k)
        n = 5
        prob = Problem(k, rng.uniform(0.5, 2.0, n),
                       rng.uniform(0.5, 2.0, k // 2), -1.5)
        odd = multistart_search(prob, 24, 11)
        even = multistart_search(even_twin(prob), 24, 11)
        assert odd and len(odd) == len(even)
        for mine, twin in zip(odd, even):
            assert np.array_equal(mine.result.config.points,
                                  lifted(twin.result.config.points, k).points)
            assert mine.result.residual_max == twin.result.residual_max
            assert mine.result.iterations == twin.result.iterations
            assert mine.result.residual_history == \
                twin.result.residual_history
            assert mine.hits == twin.hits
            assert np.array_equal(mine.fingerprint.sorted_distances,
                                  twin.fingerprint.sorted_distances)
            assert np.array_equal(
                mine.fingerprint.sorted_mass_weighted_norms,
                twin.fingerprint.sorted_mass_weighted_norms)

    @pytest.mark.parametrize("k, n", [(3, 3), (3, 5), (3, 6), (5, 6)])
    def test_cold_solves_converge_as_in_even_twin(self, k, n):
        # 20 cold solves per row from seeds drawn in k dimensions, equal
        # masses; the twin draws its seeds in k - 1
        prob = Problem(k, np.ones(n), np.ones(k // 2), -1.5)
        twin = even_twin(prob)
        odd = [solve_from_seed(
            Configuration(sample_seed(prob, np.random.default_rng(s))), prob)
            for s in range(20)]
        even = [solve_from_seed(
            Configuration(sample_seed(twin, np.random.default_rng(s))), twin)
            for s in range(20)]
        assert sum(r.converged for r in odd) == sum(r.converged for r in even)
        for result in odd:
            if result.converged:
                assert residual(result.config, prob).max_norm <= \
                    1e-12 * residual_scale(result.config, prob)
                assert np.all(result.config.points[:, -1] == 0.0)

    def test_continuation_matches_even_twin(self, trigon):
        twin, cfg = trigon
        prob = Problem(3, twin.masses, twin.frequencies, twin.a)
        odd_start = solve_from_seed(lifted(cfg.points, 3, z=0.7), prob)
        even_start = solve_from_seed(cfg, twin)
        odd = continuation_in_exponent(odd_start, prob, -2.5, 6)
        even = continuation_in_exponent(even_start, twin, -2.5, 6)
        assert len(odd) == len(even) == 6
        assert [a for a, _ in odd] == [a for a, _ in even]
        for mine, theirs in zip([odd_start] + [r for _, r in odd],
                                [even_start] + [r for _, r in even]):
            assert mine.converged
            assert np.array_equal(mine.config.points,
                                  lifted(theirs.config.points, 3).points)
            assert mine.residual_max == theirs.residual_max
            assert mine.iterations == theirs.iterations

    def test_seed_colliding_in_even_subspace_hits_guard(self):
        # bodies stacked along the fixed axis are apart in R^3 but share
        # one point of the plane the solve runs in
        prob = Problem(3, [1.0, 1.0, 1.0], [1.0], -1.5)
        seed = Configuration([[0.5, 0.0, 1.0], [0.5, 0.0, -1.0],
                              [-0.5, 0.0, 0.0]])
        result = solve_from_seed(seed, prob)
        assert result.termination is Termination.COLLISION_GUARD
        assert result.iterations == 0
        assert np.array_equal(result.config.points, seed.points)
        assert result.residual_max == residual(seed, prob).max_norm
        assert result.residual_history == (result.residual_max,)


class TestContinuation:
    def test_two_body_tracks_closed_form(self, two_body):
        prob, cfg = two_body
        start = solve_from_seed(cfg, prob)
        schedule = exponent_schedule(prob.a, -1.0, 10)
        results = continuation_in_exponent(start, prob, -1.0, 10)
        assert [a_val for a_val, _ in results] == schedule.tolist()
        for a_val, res in results:
            assert res.converged
            sep = np.linalg.norm(res.config.points[0] - res.config.points[1])
            exact = oracles.two_body_separation(1.0, 1.0, 1.0, a_val)
            assert sep == pytest.approx(exact, abs=1e-10)

    def test_trigon_radius_tracks_closed_form(self, trigon):
        prob, cfg = trigon
        start = solve_from_seed(cfg, prob)
        schedule = exponent_schedule(prob.a, -2.5, 8)
        results = continuation_in_exponent(start, prob, -2.5, 8)
        assert [a_val for a_val, _ in results] == schedule.tolist()
        for a_val, res in results:
            assert res.converged
            radius = np.sqrt((res.config.points ** 2).sum(axis=1)).max()
            exact = oracles.ngon_circumradius(3, 1.0, 1.0, a_val)
            assert radius == pytest.approx(exact, abs=1e-9)

    def test_target_outside_domain_rejected(self, two_body):
        prob, cfg = two_body
        start = solve_from_seed(cfg, prob)
        with pytest.raises(ValueError):
            continuation_in_exponent(start, prob, -0.4, 5)

    def test_stops_after_a_failed_step(self, trigon, monkeypatch):
        # the first step spends its budget of 0 iterations without
        # converging; the walk ends there with that step alone
        prob, cfg = trigon
        start = solve_from_seed(cfg, prob)
        assert start.converged
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 0)
        steps = continuation_in_exponent(start, prob, -2.5, 3)
        assert len(steps) == 1
        assert steps[0][0] == exponent_schedule(prob.a, -2.5, 3)[0]
        assert steps[0][1].termination is Termination.MAX_ITERATIONS

    def test_requires_converged_start(self, two_body):
        prob, _ = two_body
        seed = Configuration([[5e-9, 0.0], [-5e-9, 0.0]])
        failed = solve_from_seed(seed, prob)
        with pytest.raises(ValueError):
            continuation_in_exponent(failed, prob, -1.0, 5)


class TestCanonicalize:
    def test_idempotent_on_random_configs(self):
        rng = np.random.default_rng(43)
        prob = Problem(3, [1.0, 2.0, 0.7], [1.0], -1.5)
        for _ in range(10):
            cfg = random_config(rng, 3, 3)
            once = canonicalize(cfg, prob)
            twice = canonicalize(once, prob)
            assert np.abs(once.points - twice.points).max() < 1e-12

    def test_rotated_two_body_lands_on_first_axis(self, two_body):
        prob, cfg = two_body
        theta = np.radians(37.0)
        S = rotation_matrix(prob.frequencies, theta, prob.k)
        canon = canonicalize(Configuration(cfg.points @ S.T), prob)
        assert canon.points[0, 0] > 0.0
        assert abs(canon.points[0, 1]) < 1e-14

    def test_odd_axis_centroid_removed(self):
        prob = Problem(3, [1.0, 1.0], [1.0], -1.5)
        cfg = Configuration([[0.6, 0.0, 0.9], [-0.6, 0.0, 0.9]])
        canon = canonicalize(cfg, prob)
        centroid = prob.masses @ canon.points[:, -1] / prob.masses.sum()
        assert abs(centroid) < 1e-15

    def test_fingerprint_rotation_invariant(self, trigon):
        prob, cfg = trigon
        fp = fingerprint(cfg, prob)
        for theta in (0.3, 1.7, 4.0):
            S = rotation_matrix(prob.frequencies, theta, prob.k)
            fp_rot = fingerprint(Configuration(cfg.points @ S.T), prob)
            assert_fingerprints_agree(fp, fp_rot, 1e-12)


class TestFingerprint:
    def test_relabeling_equal_masses(self, trigon):
        prob, cfg = trigon
        permuted = Configuration(cfg.points[[2, 0, 1]])
        assert_fingerprints_agree(fingerprint(cfg, prob),
                                  fingerprint(permuted, prob), 1e-13)

    def test_unequal_masses_tagged(self):
        # the heavier body's norm stays pinned to its mass slot
        prob = Problem(2, [3.0, 1.0], [1.0], -1.5)
        pts = oracles.two_body_points(3.0, 1.0, 1.0, -1.5)
        fp = fingerprint(Configuration(pts), prob)
        r = oracles.two_body_separation(3.0, 1.0, 1.0, -1.5)
        # order is (mass 1 body, mass 3 body); both weighted norms are 3r/4
        assert np.allclose(fp.sorted_mass_weighted_norms,
                           [3 * r / 4, 3 * r / 4], rtol=1e-12)
        assert fp.sorted_distances[0] == pytest.approx(r, rel=1e-12)

    def test_mismatched_shapes_do_not_match(self, two_body, trigon):
        prob2, cfg2 = two_body
        prob3, cfg3 = trigon
        assert not fingerprint(cfg2, prob2).matches(fingerprint(cfg3, prob3))

    def test_mass_tagging_splits_value_collisions(self):
        # same distance multiset, same *sorted* weighted-norm multiset,
        # but the norms sit on different masses: a value-sorted signature
        # would merge these, the mass-tagged one must not
        prob = Problem(2, [1.0, 2.0], [1.0], -1.5)
        cfg_a = Configuration([[4.0, 0.0], [1.0, 0.0]])    # norms (4, 1)
        x = -0.25
        y = np.sqrt(4.0 - x * x)
        cfg_b = Configuration([[2.0, 0.0], [x, y]])        # norms (2, 2)
        fp_a = fingerprint(cfg_a, prob)
        fp_b = fingerprint(cfg_b, prob)
        assert fp_a.sorted_distances[0] == pytest.approx(3.0)
        assert fp_b.sorted_distances[0] == pytest.approx(3.0)
        assert sorted(fp_a.sorted_mass_weighted_norms) == pytest.approx(
            sorted(fp_b.sorted_mass_weighted_norms))
        assert not fp_a.matches(fp_b)


    @pytest.mark.parametrize("k, masses, flat_plane", [
        (3, [1.0, 1.0, 1.0, 1.0, 1.0], False),
        (5, [2.0, 0.5, 2.0, 1.0, 0.5, 2.0], False),
        (2, [1.0, 2.0, 1.0, 2.0, 3.0, 1.0, 2.0], False),
        (4, [1.0, 3.0, 1.0, 3.0, 1.0], True),
    ], ids=["odd_k", "odd_k_mass_ties", "mass_ties", "flat_plane"])
    def test_stack_matches_lone_calls(self, k, masses, flat_plane):
        # each row of the stacked bookkeeping has the bits that the public
        # stack-of-one canonicalize and fingerprint, and the plane-by-plane
        # reference, give its set alone: odd k is centred, bodies of tied
        # mass are ordered by weighted norm, and a 2-plane whose bodies all
        # lie within 1e-9 * scale of the origin is left unturned
        rng = np.random.default_rng(len(masses) * k)
        prob = Problem(k, masses, np.ones(k // 2), -1.5)
        stack = np.array([random_config(rng, len(masses), k).points
                          for _ in range(7)])
        if flat_plane:
            stack[:, :, 2:] = 1e-12 * rng.normal(size=stack[:, :, 2:].shape)
        canonical, distances, norms = solver._canonical_fingerprints(stack,
                                                                     prob)
        for row, points in enumerate(stack):
            canon = canonicalize(Configuration(points), prob)
            fp = fingerprint(canon, prob)
            ref = lone_canonical_fingerprint(points, prob)
            for mine in (canon.points, ref[0]):
                assert mine.tobytes() == canonical[row].tobytes()
            for mine in (fp.sorted_distances, ref[1]):
                assert mine.tobytes() == distances[row].tobytes()
            for mine in (fp.sorted_mass_weighted_norms, ref[2]):
                assert mine.tobytes() == norms[row].tobytes()
        if flat_plane:
            assert np.array_equal(canonical[:, :, 2:], stack[:, :, 2:])
        else:
            assert not np.array_equal(canonical, stack)

    @staticmethod
    def _with_side(side, values):
        """A fingerprint with ``values`` on one side, fixed on the other."""
        fixed = [0.25, 0.75]
        if side == "distances":
            return solver.EquilibriumFingerprint(values, fixed)
        return solver.EquilibriumFingerprint(fixed, values)

    @pytest.mark.parametrize("side", ["distances", "norms"])
    @pytest.mark.parametrize("big", [0.5, 4.0 + 2.0 ** -20])
    def test_bound_is_exact_and_one_ulp_above_splits(self, side, big):
        # a difference of FINGERPRINT_RTOL * max(1, max|known|, max|new|)
        # merges, one ulp more splits; below 1 the bound is 1, and above it
        # the larger side's maximum counts, whichever fingerprint has it
        edge = solver.FINGERPRINT_RTOL * max(1.0, big)
        known = self._with_side(side, [0.0, min(big, 4.0)])
        above = np.nextafter(edge, np.inf)
        for new in (self._with_side(side, [edge, big]),
                    self._with_side(side, [-edge, big])):
            assert known.matches(new) and new.matches(known)
        for new in (self._with_side(side, [above, big]),
                    self._with_side(side, [-above, big])):
            assert not known.matches(new) and not new.matches(known)
        if big > 4.0:
            # the bound of the smaller side alone would split the edge
            assert edge > solver.FINGERPRINT_RTOL * 4.0

    def test_stacked_lookup_takes_first_match(self):
        # rows 1 and 3 match, row 2 is one ulp too far: the lookup agrees
        # with matches row by row and returns the first discovered match
        edge = solver.FINGERPRINT_RTOL
        rows = [[0.5, 3.0], [edge, 0.5], [np.nextafter(edge, 1.0), 0.5],
                [0.0, 0.5]]
        known = [self._with_side("distances", row) for row in rows]
        new = self._with_side("distances", [0.0, 0.5])
        distances = np.array(rows)
        norms = np.array([fp.sorted_mass_weighted_norms for fp in known])
        assert [fp.matches(new) for fp in known] == [False, True, False, True]
        maxima = solver._maxima(distances, norms)
        rows = new.sorted_distances[None], new.sorted_mass_weighted_norms[None]
        row_maxima = solver._maxima(*rows)
        hit = solver._matches(rows, row_maxima, (distances, norms), maxima)
        assert hit.tolist() == [[False, True, False, True]]
        assert np.argmax(hit[0]) == 1
        assert solver._matches(rows, row_maxima, (distances[:0], norms[:0]),
                               maxima[:0]).shape == (1, 0)

    def test_lookup_takes_the_stored_maxima(self):
        # the known rows' maxima are read from the stack, not from the
        # rows: a stored 4.0 above both rows' maxima (below 1) sets the
        # bound, so FINGERPRINT_RTOL * 4 merges and one ulp more splits
        edge = solver.FINGERPRINT_RTOL * 4.0
        known = self._with_side("distances", [0.0, 0.5])
        distances = known.sorted_distances[None]
        norms = known.sorted_mass_weighted_norms[None]
        maxima = np.array([[4.0, 1.0]])
        for gap, merged in ((edge, True), (np.nextafter(edge, 1.0), False)):
            new = self._with_side("distances", [gap, 0.5])
            rows = (new.sorted_distances[None],
                    new.sorted_mass_weighted_norms[None])
            assert solver._matches(rows, solver._maxima(*rows),
                                   (distances, norms),
                                   maxima).tolist() == [[merged]]

    @pytest.mark.parametrize("chunk", [11, 3, 1])
    def test_chunk_lookup_keeps_first_match_order(self, monkeypatch, chunk):
        # designed fingerprints of 11 converged trials, in trial order:
        # trial 2 matches the class trial 1 opened; trials 4 and 6 match
        # two classes each and join the lower one; trial 5 is one ulp
        # outside class 0. Whether the trials share a chunk or not, the
        # search keeps the classes, hits and order of a scan that tests
        # one trial at a time with EquilibriumFingerprint.matches
        edge = solver.FINGERPRINT_RTOL * 4.0
        distances = [[0.0, 1.0, 4.0], [0.0, 2.0, 9.0], [0.0, 2.0, 9.0],
                     [0.0, 1.0, 4.0 + 6e-6], [0.0, 1.0, 4.0 + 3e-6],
                     [np.nextafter(edge, 1.0), 1.0, 4.0], [edge, 1.0, 4.0],
                     [0.0, 2.0, 9.0], [0.0, 3.0, 5.0],
                     [np.nextafter(edge, 1.0), 1.0, 4.0], [0.0, 3.0, 5.0]]
        rows = [(np.array(side), np.array([0.5, 1.0, 1.5]))
                for side in distances]
        prob = Problem(2, np.ones(3), [1.0], -1.5)
        trials = [solver.SolveResult(np.full((3, 2), float(t)), 0.0, 1,
                                     Termination.CONVERGED, (0.0,))
                  for t in range(len(rows))]

        def designed(points, problem):
            # the trial index is every coordinate of its points
            index = points[:, 0, 0].astype(int)
            return (np.array(points), np.array([rows[t][0] for t in index]),
                    np.array([rows[t][1] for t in index]))

        monkeypatch.setattr(solver, "_trial_results",
                            lambda *args: iter(trials))
        monkeypatch.setattr(solver, "_canonical_fingerprints", designed)
        monkeypatch.setattr(solver, "_BATCH_ENTRIES", chunk * 6 ** 2)
        reference = []    # [opening trial, fingerprint, hits]
        for t, (side, norms) in enumerate(rows):
            fp = solver.EquilibriumFingerprint(side, norms)
            for known in reference:
                if known[1].matches(fp):
                    known[2] += 1
                    break
            else:
                reference.append([t, fp, 1])
        assert [(t, hits) for t, _, hits in reference] == \
            [(0, 3), (1, 3), (3, 1), (5, 2), (8, 2)]
        classes = multistart_search(prob, len(trials), 0)
        assert [(int(cls.result.points[0, 0]), cls.hits)
                for cls in classes] == [(t, hits) for t, _, hits in reference]
        for cls, (_, fp, _) in zip(classes, reference):
            assert np.array_equal(cls.fingerprint.sorted_distances,
                                  fp.sorted_distances)

    def test_search_classes_match_pairwise_reference(self):
        # 16 equal masses: 83 classes from 89 converged trials; the stacked
        # lookup gives the classes, hits and order of a pairwise scan
        prob = Problem(2, np.ones(16), [1.0], -1.5)
        reference = []    # [canonical configuration, fingerprint, hits]
        for result in solver._trial_results(prob, 100, 3, SolveOptions()):
            if not result.converged:
                continue
            canonical = canonicalize(Configuration(result.points), prob)
            fp = fingerprint(canonical, prob)
            for known in reference:
                if known[1].matches(fp):
                    known[2] += 1
                    break
            else:
                reference.append([canonical, fp, 1])
        assert len(reference) == 83
        assert sum(hits for _, _, hits in reference) == 89
        classes = multistart_search(prob, 100, 3)
        for cls, (config, fp, hits) in zip(classes, reference, strict=True):
            assert np.array_equal(cls.result.config.points, config.points)
            assert cls.hits == hits
            assert np.array_equal(cls.fingerprint.sorted_distances,
                                  fp.sorted_distances)
            assert np.array_equal(cls.fingerprint.sorted_mass_weighted_norms,
                                  fp.sorted_mass_weighted_norms)


class TestUnequalMasses:
    def test_solve_recovers_closed_form(self):
        prob = Problem(2, [3.0, 1.0], [1.0], -1.5)
        exact = np.array(oracles.two_body_points(3.0, 1.0, 1.0, -1.5))
        rng = np.random.default_rng(44)
        seed = Configuration(exact + rng.uniform(-0.1, 0.1, exact.shape))
        result = solve_from_seed(seed, prob)
        assert result.converged
        sep = np.linalg.norm(result.config.points[0] - result.config.points[1])
        assert sep == pytest.approx(
            oracles.two_body_separation(3.0, 1.0, 1.0, -1.5), abs=1e-11)

    def test_multistart_single_class(self):
        prob = Problem(2, [3.0, 1.0], [1.0], -1.5)
        classes = multistart_search(prob, 40, 8)
        assert len(classes) == 1


def test_exponent_schedule_endpoints():
    sched = exponent_schedule(-1.5, -1.0, 10)
    assert sched.size == 10
    assert sched[-1] == pytest.approx(-1.0)
    assert np.all(np.diff(np.abs(sched)) < 0)
    with pytest.raises(ValueError):
        exponent_schedule(-1.5, -0.4, 10)
    with pytest.raises(ValueError):
        exponent_schedule(-1.5, -1.0, 0)
