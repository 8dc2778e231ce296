import numpy as np
import pytest

from releq import (
    Configuration,
    Problem,
    jacobian,
    lemma_identity_gap,
    lemma_identity_gaps,
    residual,
    residual_scale,
    rotation_generator,
    rotation_matrix,
    weighted_centroid_residual,
)

import oracles
from conftest import random_config


def loop_cluster_sum(pts, prob, body, cluster):
    # the per-pair Python-float loop the cluster sums replaced; body is
    # 0-based, cluster counts the first bodies
    out = np.zeros(prob.k)
    for j in range(cluster, prob.n):
        if j != body:
            u = pts[body] - pts[j]
            out += prob.masses[j] * u * float(u @ u) ** prob.a
    return out


def loop_identity_gap(pts, prob, cluster):
    # the per-pair Python-float form of the cluster identity's gap
    m = prob.masses
    lhs = prob.asq * sum(m[i] * (pts[0] - pts[i]) for i in range(1, cluster))
    inner = np.zeros(prob.k)
    for j in range(1, cluster):
        u = pts[0] - pts[j]
        inner += m[j] * u * float(u @ u) ** prob.a
    r_1l = loop_cluster_sum(pts, prob, 0, cluster)
    tail = np.zeros(prob.k)
    for i in range(1, cluster):
        tail += m[i] * (r_1l - loop_cluster_sum(pts, prob, i, cluster))
    rhs = float(m[:cluster].sum()) * inner + tail
    return float(np.linalg.norm(lhs - rhs))


def fd_jacobian(cfg, prob, h):
    n, k = cfg.points.shape
    out = np.zeros((n * k, n * k))
    pts = np.array(cfg.points)
    for col in range(n * k):
        plus = pts.copy()
        plus[col // k, col % k] += h
        minus = pts.copy()
        minus[col // k, col % k] -= h
        fp = residual(Configuration(plus), prob).per_body.ravel()
        fm = residual(Configuration(minus), prob).per_body.ravel()
        out[:, col] = (fp - fm) / (2.0 * h)
    return out


class TestResidual:
    def test_two_body_oracle(self, two_body):
        prob, cfg = two_body
        assert residual(cfg, prob).max_norm < 1e-14

    def test_two_body_closed_form_vs_bisection(self):
        r = oracles.two_body_separation(1.0, 1.0, 1.0, -1.5)
        assert r == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-15)
        assert r == pytest.approx(
            oracles.two_body_separation_bisect(1.0, 1.0, 1.0, -1.5), rel=1e-12)

    def test_trigon_oracle(self, trigon):
        prob, cfg = trigon
        rho = oracles.ngon_circumradius(3, 1.0, 1.0, -1.5)
        assert rho == pytest.approx(3.0 ** (-1.0 / 6.0), rel=1e-15)
        assert rho == pytest.approx(
            oracles.ngon_circumradius_bisect(3, 1.0, 1.0, -1.5), rel=1e-12)
        assert residual(cfg, prob).max_norm < 1e-13

    def test_matches_naive_evaluation(self):
        # independent pure-python route over a random configuration
        rng = np.random.default_rng(30)
        prob = Problem(3, [1.0, 2.0, 0.7, 1.4], [0.9], -0.75)
        cfg = random_config(rng, 4, 3)
        rep = residual(cfg, prob)
        naive = oracles.naive_residual(
            cfg.points.tolist(), prob.masses.tolist(),
            prob.frequencies.tolist(), prob.a)
        assert np.allclose(rep.per_body, naive, rtol=1e-12, atol=1e-13)

    def test_doubling_breaks_balance(self, two_body):
        prob, cfg = two_body
        doubled = Configuration(cfg.points * 2.0)
        assert residual(doubled, prob).max_norm > 1e-2

    def test_report_norms_consistent(self, two_body):
        prob, cfg = two_body
        rep = residual(Configuration(cfg.points * 2.0), prob)
        norms = np.sqrt((rep.per_body ** 2).sum(axis=1))
        assert rep.max_norm == pytest.approx(norms.max())
        assert rep.rms == pytest.approx(np.sqrt((rep.per_body ** 2).mean()))

    def test_rotation_equivariance(self, trigon):
        prob, cfg = trigon
        pts = cfg.points * 1.3  # off-equilibrium so the residual is nonzero
        S = rotation_matrix(prob.frequencies, 1.234, prob.k)
        f = residual(Configuration(pts), prob).per_body
        f_rot = residual(Configuration(pts @ S.T), prob).per_body
        scale = max(1.0, np.abs(f).max())
        assert np.abs(f_rot - f @ S.T).max() < 1e-12 * scale

    @pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
    def test_scaling_covariance(self, lam, two_body):
        # residual(Q, A) = 0 implies residual(lam Q, lam^a A) = 0
        prob, cfg = two_body
        scaled_cfg = Configuration(cfg.points * lam)
        scaled_prob = prob.with_frequencies(
            prob.frequencies * lam ** prob.a)
        rep = residual(scaled_cfg, scaled_prob)
        assert rep.max_norm < 1e-11 * residual_scale(scaled_cfg, scaled_prob)


class TestJacobian:
    @pytest.mark.parametrize("k,a", [(2, -0.75), (3, -1.5), (4, -0.75),
                                     (5, -1.5)])
    def test_matches_finite_differences(self, k, a):
        rng = np.random.default_rng(31 + k)
        prob = Problem(k, [1.0, 2.0, 0.5, 1.3], np.linspace(0.8, 1.5, k // 2), a)
        cfg = random_config(rng, 4, k)
        J = jacobian(cfg, prob)
        h = 1e-6 * max(1.0, np.abs(cfg.points).max())
        Jfd = fd_jacobian(cfg, prob, h)
        assert np.abs(J - Jfd).max() <= 1e-6 * max(1.0, np.abs(J).max())

    def test_translation_direction(self):
        # uniform translation direction maps to (asq e, ..., asq e)
        rng = np.random.default_rng(32)
        prob = Problem(2, [1.0, 2.0, 0.7], [1.1], -1.5)
        cfg = random_config(rng, 3, 2)
        J = jacobian(cfg, prob)
        e = rng.normal(size=2)
        direction = np.tile(e, 3)
        expected = np.tile(prob.asq * e, 3)
        assert np.allclose(J @ direction, expected, atol=1e-12)

    def test_rotation_equivariance_direction(self):
        # J (G Q_1, ..., G Q_n) = (G F_1, ..., G F_n) at any configuration
        rng = np.random.default_rng(33)
        prob = Problem(4, [1.0, 2.0, 0.7], [0.9, 1.7], -0.75)
        cfg = random_config(rng, 3, 4)
        G = rotation_generator(prob.frequencies, prob.k)
        J = jacobian(cfg, prob)
        direction = (cfg.points @ G.T).ravel()
        F = residual(cfg, prob).per_body
        expected = (F @ G.T).ravel()
        scale = max(1.0, np.abs(expected).max())
        assert np.abs(J @ direction - expected).max() < 1e-11 * scale

    def test_block_mass_swap_symmetry(self):
        rng = np.random.default_rng(34)
        prob = Problem(2, [1.0, 3.0, 0.5], [1.0], -1.5)
        cfg = random_config(rng, 3, 2)
        J = jacobian(cfg, prob)
        k = 2
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                bij = J[i * k:(i + 1) * k, j * k:(j + 1) * k]
                bji = J[j * k:(j + 1) * k, i * k:(i + 1) * k]
                assert np.allclose(bij / prob.masses[j],
                                   bji / prob.masses[i], rtol=1e-13)


class TestLemmaIdentity:
    def test_two_body_equilibrium(self, two_body):
        prob, cfg = two_body
        assert lemma_identity_gap(cfg, prob, 2).gap < 1e-13

    def test_trigon_equilibrium(self, trigon):
        prob, cfg = trigon
        for l in (2, 3):
            assert lemma_identity_gap(cfg, prob, l).gap < 1e-12

    def test_random_config_has_large_gap(self):
        rng = np.random.default_rng(36)
        prob = Problem(2, [1.0, 1.0, 1.0, 1.0], [1.0], -1.5)
        for _ in range(5):
            cfg = random_config(rng, 4, 2)
            gaps = [lemma_identity_gap(cfg, prob, l).gap for l in (2, 3, 4)]
            assert max(gaps) > 1e-3

    def test_gap_is_a_residual_combination(self):
        # near an equilibrium the gap is bounded by C_L times the residual
        rng = np.random.default_rng(37)
        prob = Problem(2, [1.0, 1.0, 1.0], [1.0], -1.5)
        rho = oracles.ngon_circumradius(3, 1.0, 1.0, -1.5)
        exact = np.array(oracles.ngon_points(3, rho))
        cfg = Configuration(exact + rng.normal(size=exact.shape) * 1e-7)
        eps = residual(cfg, prob).max_norm
        # C_L = n (1 + sum m), the linear-combination constant
        bound = 10.0 * prob.n * (1.0 + float(prob.masses.sum())) * eps
        for l in (2, 3):
            assert lemma_identity_gap(cfg, prob, l).gap <= bound

    def test_matches_per_pair_loop(self):
        # suffix sums over the pair terms against the per-pair loop, in
        # odd and even k, random masses and exponents
        rng = np.random.default_rng(38)
        for _ in range(20):
            n = int(rng.integers(2, 31))
            k = int(rng.integers(2, 6))
            prob = Problem(k, rng.uniform(0.1, 3.0, n),
                           rng.uniform(0.3, 2.0, k // 2),
                           rng.uniform(-3.0, -0.6))
            cfg = Configuration(rng.normal(size=(n, k)))
            pts = cfg.points
            scale = residual_scale(cfg, prob)
            gaps = lemma_identity_gaps(cfg, prob)
            assert [d.l for d in gaps] == list(range(2, n + 1))
            for l in range(2, n + 1):
                one = lemma_identity_gap(cfg, prob, l)
                assert one.gap == gaps[l - 2].gap
                assert one.lhs.tobytes() == gaps[l - 2].lhs.tobytes()
                assert one.rhs.tobytes() == gaps[l - 2].rhs.tobytes()
                assert abs(one.gap - loop_identity_gap(pts, prob, l)) \
                    <= 1e-12 * scale

    @pytest.mark.parametrize("cluster", [0, 1, 4])
    def test_cluster_size_out_of_range(self, trigon, cluster):
        # l = 1 would otherwise read the last entry, gaps[-1]
        prob, cfg = trigon
        with pytest.raises(IndexError,
                           match=r"cluster size must be in 2\.\.3"):
            lemma_identity_gap(cfg, prob, cluster)

    def test_overflowing_forces_give_non_finite_gap(self):
        # r^(2a) overflows a float at a = -200 with bodies 0.01 apart;
        # the identity reports that instead of raising OverflowError
        prob = Problem(2, [1.0, 1.0, 1.0], [1.0], -200.0)
        cfg = Configuration([[-0.01, 0.0], [0.0, 0.0], [0.01, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            for l in (2, 3):
                assert not np.isfinite(lemma_identity_gap(cfg, prob, l).gap)

    def test_gap_field_consistency(self, two_body):
        prob, cfg = two_body
        diag = lemma_identity_gap(Configuration(cfg.points * 1.7), prob, 2)
        assert diag.gap == pytest.approx(np.linalg.norm(diag.lhs - diag.rhs))
        assert diag.l == 2


class TestWeightedCentroid:
    def test_vanishes_at_equilibrium(self, trigon):
        prob, cfg = trigon
        scale = residual_scale(cfg, prob)
        assert np.abs(weighted_centroid_residual(cfg, prob)).max() \
            < 1e-12 * scale

    def test_translation_shifts_linearly(self, trigon):
        prob, cfg = trigon
        e = np.array([0.3, -0.8])
        shifted = Configuration(cfg.points + e)
        got = weighted_centroid_residual(shifted, prob)
        base = weighted_centroid_residual(cfg, prob)
        expected = base + prob.asq * e * prob.masses.sum()
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-13)

    def test_odd_k_trailing_component_always_zero(self):
        rng = np.random.default_rng(38)
        prob = Problem(3, [1.0, 2.0, 0.5], [1.2], -1.5)
        for _ in range(5):
            cfg = random_config(rng, 3, 3)
            assert weighted_centroid_residual(cfg, prob)[-1] == 0.0


class TestResidualScale:
    def test_never_below_one(self, two_body):
        prob, cfg = two_body
        assert residual_scale(cfg, prob) >= 1.0

    def test_two_body_rate_term_is_euclidean(self):
        # |Asq Q_i| = 4 for a unit pair at rate 2, also rotated by 45 deg
        prob = Problem(2, [1.0, 1.0], [2.0], -1.5)
        for pts in ([[1.0, 0.0], [-1.0, 0.0]],
                    np.sqrt(0.5) * np.array([[1.0, 1.0], [-1.0, -1.0]])):
            assert residual_scale(Configuration(pts), prob) == \
                pytest.approx(4.0, rel=1e-15)

    @pytest.mark.parametrize("k,rates,pts", [
        (2, [2.0], [[1.0, 0.0], [-0.4, 0.9], [0.2, -1.3]]),
        (4, [2.0, 3.0], [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.5, 0.0],
                         [-1.0, 0.5, 0.0, -1.0], [0.3, -1.2, 0.4, 0.9]]),
    ], ids=["k2", "k4"])
    def test_invariant_under_block_rotation(self, k, rates, pts):
        # the rate term dominates these scales
        prob = Problem(k, [1.0] * len(pts), rates, -1.5)
        cfg = Configuration(pts)
        scale = residual_scale(cfg, prob)
        assert scale > 4.0
        for t in (0.3, 0.7, 2.0):
            rot = rotation_matrix(rates, t, k)
            turned = Configuration(cfg.points @ rot.T)
            assert residual_scale(turned, prob) == \
                pytest.approx(scale, rel=1e-15)

    def test_tracks_force_terms_for_tight_pairs(self):
        # with a tight pair the r^(2a+1) term dominates the scale
        prob = Problem(2, [1.0, 1.0], [1.0], -1.5)
        cfg = Configuration([[0.005, 0.0], [-0.005, 0.0]])
        assert residual_scale(cfg, prob) >= 0.01 ** (-2.0)
