import numpy as np

from releq import _kernels


def test_backend_reports_a_name():
    assert _kernels.backend() == "numpy"


def test_min_pair_distance_single_body():
    assert _kernels.min_pair_distance(np.zeros((1, 3))) == np.inf


def test_min_pair_distance_matches_pair_distances():
    rng = np.random.default_rng(13)
    for n, k, scale in ((2, 2, 1.0), (7, 3, 1e-6), (12, 5, 1e6)):
        pts = _kernels.as_input(rng.normal(size=(n, k)) * scale)
        d = _kernels.pair_distances(pts)
        assert _kernels.min_pair_distance(pts) == d[np.triu_indices(n, 1)].min()


def test_pair_indices_cached_and_read_only():
    for n in (2, 5, 12):
        iu, ju = _kernels.pair_indices(n)
        expected = np.triu_indices(n, 1)
        assert np.array_equal(iu, expected[0])
        assert np.array_equal(ju, expected[1])
        assert not iu.flags.writeable and not ju.flags.writeable
        assert _kernels.pair_indices(n)[0] is iu


def test_batch_kernels_match_one_configuration():
    rng = np.random.default_rng(14)
    masses = rng.uniform(0.5, 2.0, 6)
    asq = np.array([1.0, 1.0, 0.0])
    stack = rng.normal(size=(4, 6, 3))
    residuals = _kernels.residual_stack_batch(stack, masses, asq, -1.5)
    jacobians = _kernels.jacobian_dense_batch(stack, masses, asq, -1.5)
    distances = _kernels.min_pair_distance_batch(stack)
    for b, pts in enumerate(stack):
        pts = _kernels.as_input(pts)
        assert np.array_equal(
            residuals[b], _kernels.residual_stack(pts, masses, asq, -1.5))
        assert np.array_equal(
            jacobians[b], _kernels.jacobian_dense(pts, masses, asq, -1.5))
        assert distances[b] == _kernels.min_pair_distance(pts)


def test_residual_and_accel_share_one_force_law():
    rng = np.random.default_rng(15)
    masses = rng.uniform(0.5, 2.0, 5)
    asq = np.array([4.0, 4.0])
    stack = rng.normal(size=(3, 5, 2))
    accels = _kernels.accel_batch(stack, masses, -1.25)
    for b, pts in enumerate(stack):
        pts = _kernels.as_input(pts)
        acc = _kernels.accel(pts, masses, -1.25)
        assert np.array_equal(accels[b], acc)
        assert np.array_equal(
            _kernels.residual_stack(pts, masses, asq, -1.25), pts * asq + acc)
        # the force on body 0, summed pair by pair
        expected = sum(masses[j] * (pts[j] - pts[0])
                       * np.sum((pts[j] - pts[0]) ** 2) ** -1.25
                       for j in range(1, 5))
        assert np.allclose(acc[0], expected, rtol=1e-13, atol=0.0)
