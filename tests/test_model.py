import numpy as np
import pytest

from releq import _kernels
from releq import (
    Configuration,
    Problem,
    frequency_matrix,
    rotation_generator,
    rotation_matrix,
)


class TestRotationMatrix:
    def test_identity_at_t_zero(self):
        assert np.array_equal(rotation_matrix([1.0], 0.0, 2), np.eye(2))

    def test_quarter_turn(self):
        T = rotation_matrix([1.0], np.pi / 2, 2)
        assert np.allclose(T @ np.array([1.0, 0.0]), [0.0, 1.0], atol=1e-15)

    def test_block_structure_k5(self):
        # freqs (1, 2), t = pi: blocks T(pi), T(2 pi), scalar 1
        T = rotation_matrix([1.0, 2.0], np.pi, 5)
        expected = np.zeros((5, 5))
        expected[:2, :2] = -np.eye(2)
        expected[2:4, 2:4] = np.eye(2)
        expected[4, 4] = 1.0
        assert np.allclose(T, expected, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rotation_matrix([1.0, 2.0], 0.5, 2)
        with pytest.raises(ValueError):
            rotation_matrix([1.0], 0.5, 4)

    def test_orthogonality(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            freqs = rng.uniform(0.1, 3.0, size=k // 2)
            t = rng.uniform(-10.0, 10.0)
            T = rotation_matrix(freqs, t, k)
            assert np.abs(T.T @ T - np.eye(k)).max() < 1e-14
            assert np.linalg.det(T) == pytest.approx(1.0, abs=1e-12)

    def test_norm_preservation(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            freqs = rng.uniform(0.1, 3.0, size=k // 2)
            T = rotation_matrix(freqs, rng.uniform(-5, 5), k)
            x = rng.normal(size=k)
            assert np.linalg.norm(T @ x) == pytest.approx(
                np.linalg.norm(x), rel=1e-13)

    def test_composition(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            k = int(rng.integers(2, 6))
            freqs = rng.uniform(0.1, 2.0, size=k // 2)
            t1, t2 = rng.uniform(-3, 3, size=2)
            lhs = rotation_matrix(freqs, t1 + t2, k)
            rhs = rotation_matrix(freqs, t1, k) @ rotation_matrix(freqs, t2, k)
            assert np.abs(lhs - rhs).max() < 1e-13

    def test_second_derivative_identity(self):
        # (T(At) x)'' == -Asq T(At) x, checked by central differences at O(h^2)
        rng = np.random.default_rng(4)
        freqs = rng.uniform(0.3, 2.0, size=2)
        k = 5
        asq = frequency_matrix(freqs, k) ** 2
        x = rng.normal(size=k)
        t = rng.uniform(0.0, 4.0)
        errs = []
        for h in (1e-3, 5e-4):
            fd2 = (
                rotation_matrix(freqs, t + h, k) @ x
                - 2.0 * rotation_matrix(freqs, t, k) @ x
                + rotation_matrix(freqs, t - h, k) @ x
            ) / h ** 2
            exact = -asq * (rotation_matrix(freqs, t, k) @ x)
            errs.append(np.abs(fd2 - exact).max())
        assert errs[0] < 1e-4
        # halving h should cut the error by roughly 4
        assert errs[1] < errs[0] / 2.5


class TestRotationGenerator:
    def test_planar_unit_generator(self):
        assert np.array_equal(rotation_generator([1.0], 2),
                              np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_k3_block(self):
        omega = 1.7
        G = rotation_generator([omega], 3)
        expected = np.array([[0.0, -omega, 0.0],
                             [omega, 0.0, 0.0],
                             [0.0, 0.0, 0.0]])
        assert np.array_equal(G, expected)

    def test_squares_to_minus_asq(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            k = int(rng.integers(2, 7))
            freqs = rng.uniform(0.1, 3.0, size=k // 2)
            G = rotation_generator(freqs, k)
            asq = frequency_matrix(freqs, k) ** 2
            assert np.abs(G @ G + np.diag(asq)).max() < 1e-14

    def test_is_derivative_of_rotation(self):
        freqs = np.array([0.9, 1.6])
        h = 1e-7
        fd = (rotation_matrix(freqs, h, 4) - rotation_matrix(freqs, -h, 4)) / (2 * h)
        assert np.abs(fd - rotation_generator(freqs, 4)).max() < 1e-9


class TestFrequencyMatrix:
    def test_single_plane(self):
        assert np.array_equal(frequency_matrix([3.0], 2), [3.0, 3.0])

    def test_even_k(self):
        assert np.array_equal(frequency_matrix([1.0, 2.0], 4),
                              [1.0, 1.0, 2.0, 2.0])

    def test_odd_k_trailing_zero(self):
        assert np.array_equal(frequency_matrix([1.0, 2.0], 5),
                              [1.0, 1.0, 2.0, 2.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            frequency_matrix([1.0], 4)


class TestPairwiseDistances:
    def test_three_four_five(self):
        cfg = Configuration([[0.0, 0.0], [3.0, 4.0]])
        d = _kernels.pair_distances(cfg.points)
        assert d[0, 1] == pytest.approx(5.0)
        assert cfg.min_distance == d[0, 1]

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(5, 3))
        d = _kernels.pair_distances(pts)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)

    def test_equilateral(self):
        s = 2.0
        cfg = Configuration([
            [0.0, 0.0], [s, 0.0], [s / 2, s * np.sqrt(3) / 2]])
        d = _kernels.pair_distances(cfg.points)
        off = d[np.triu_indices(3, 1)]
        assert np.allclose(off, s)


class TestDomainTypes:
    def test_exponent_domain(self):
        for bad in (-0.3, -0.5, float("nan"), float("-inf")):
            with pytest.raises(ValueError):
                Problem(2, [1.0, 1.0], [1.0], bad)
        prob = Problem(2, [1.0, 1.0], [1.0], -0.51)
        assert prob.a == -0.51
        assert type(prob.exponent) is float

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            Problem(2, [1.0, -1.0], [1.0], -1.5)
        with pytest.raises(ValueError):
            Problem(2, [1.0, 1.0], [0.0], -1.5)
        with pytest.raises(ValueError):
            Problem(2, [1.0, 1.0], [1.0, 1.0], -1.5)
        with pytest.raises(ValueError):
            Problem(1, [1.0, 1.0], [], -1.5)
        with pytest.raises(ValueError):
            Problem(2, [1.0], [1.0], -1.5)
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite"):
                Problem(2, [bad, 1.0], [1.0], -1.5)
            with pytest.raises(ValueError, match="finite"):
                Problem(2, [1.0, 1.0], [bad], -1.5)

    def test_two_bodies_accepted(self):
        # n = 2 is allowed even though the dynamics are stated for n >= 3
        prob = Problem(2, [1.0, 1.0], [1.0], -1.5)
        assert prob.n == 2

    def test_problem_derived_fields(self):
        prob = Problem(5, [1.0, 2.0, 3.0], [1.0, 2.0], -1.5)
        assert prob.a == -1.5
        assert np.array_equal(prob.asq, [1.0, 1.0, 4.0, 4.0, 0.0])

    def test_configuration_collision_rejected(self):
        with pytest.raises(ValueError):
            Configuration([[0.0, 0.0], [1e-14, 0.0]])

    def test_configuration_immutable(self):
        cfg = Configuration([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(ValueError):
            cfg.points[0, 0] = 2.0

    def test_problem_immutable(self):
        prob = Problem(2, [1.0, 1.0], [1.0], -1.5)
        with pytest.raises(ValueError):
            prob.masses[0] = 5.0
        with pytest.raises(ValueError):
            prob.asq[0] = 5.0
