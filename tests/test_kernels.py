import numpy as np

from releq import Configuration, Problem, _kernels, criterion


def _random_stacks(seed, count):
    # random (B, n, k) stacks with masses, squared rates and an exponent;
    # odd k leaves the trailing squared rate at zero, and a share of the
    # stacks puts bodies on shared coordinates so that exact zeros occur
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 41))
        k = int(rng.integers(2, 6))
        size = int(rng.integers(1, 6))
        problem = Problem(k, rng.uniform(0.1, 3.0, n),
                          rng.uniform(0.2, 2.0, k // 2),
                          -0.5 - rng.exponential(1.5))
        stack = rng.normal(size=(size, n, k)) * 10.0 ** rng.uniform(-3, 3)
        if rng.random() < 0.3:
            stack[:, :, 0] = np.round(stack[:, :, 0])
        yield problem, stack


def _reference_geometry(positions, diagonal):
    count, n = positions.shape[:2]
    diff = positions[:, None, :, :] - positions[:, :, None, :]
    r2 = np.einsum("bijk,bijk->bij", diff, diff)
    r2.reshape(count, n * n)[:, :: n + 1] = diagonal
    return diff, r2


def _block_jacobian_reference(positions, masses, asq, a):
    # the dense Jacobian as (B, n, n, k, k) blocks, diagonal blocks summed
    # over axis 2 in ascending body order, then transposed into rows
    count, n, k = positions.shape
    diff, r2 = _reference_geometry(positions, 1.0)
    idx = np.arange(n)
    r2a = r2 ** a
    coef = 2.0 * a * r2 ** (a - 1.0)
    blocks = coef[..., None, None] * diff[..., :, None] * diff[..., None, :]
    blocks += r2a[..., None, None] * np.eye(k)
    blocks *= masses[:, None, None]
    blocks[:, idx, idx] = 0.0
    diag = np.diag(asq) - blocks.sum(axis=2)
    blocks[:, idx, idx] = diag
    return blocks.transpose(0, 1, 3, 2, 4).reshape(count, n * k, n * k)


def _masked_scale_reference(points, problem):
    # residual_scale with the distance diagonal masked through 1.0
    idx = np.arange(problem.n)
    norms = np.sqrt(np.sum(points ** 2, axis=-1))
    dist = np.sqrt(_reference_geometry(points, 0.0)[1])
    dist[:, idx, idx] = 1.0
    heavier = np.maximum.outer(problem.masses, problem.masses)
    force_terms = heavier * dist ** (2.0 * problem.a + 1.0)
    force_terms[:, idx, idx] = 0.0
    rot_terms = np.sqrt(np.sum((points * problem.asq) ** 2, axis=-1))
    return np.maximum(1.0, np.max([norms.max(axis=-1),
                                   force_terms.max(axis=(1, 2)),
                                   rot_terms.max(axis=-1)], axis=0))


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


def test_batch_kernels_match_one_configuration():
    # the stacked pair_geometry + *_from path the LM runs
    rng = np.random.default_rng(14)
    masses = rng.uniform(0.5, 2.0, 6)
    asq = np.array([1.0, 1.0, 0.0])
    stack = rng.normal(size=(4, 6, 3))
    diff, r2 = _kernels.pair_geometry(stack)
    r2a = r2 ** -1.5
    residuals = stack * asq + _kernels.forces_from(diff, r2a, masses)
    jacobians = _kernels.jacobian_from(diff, r2, r2a, masses, asq, -1.5)
    distances = _kernels.min_distance_from(r2)
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
    diff, r2 = _kernels.pair_geometry(stack)
    accels = _kernels.forces_from(diff, r2 ** -1.25, masses)
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


def test_jacobian_matches_block_reference():
    # the per-plane assembly keeps every bit of the block formula,
    # including its ascending-body diagonal sums and signed zeros
    for problem, stack in _random_stacks(16, 500):
        args = (problem.masses, problem.asq, problem.a)
        expected = _block_jacobian_reference(stack, *args)
        diff, r2 = _kernels.pair_geometry(stack)
        got = _kernels.jacobian_from(diff, r2, r2 ** problem.a, *args)
        assert got.tobytes() == expected.tobytes()
        for b, pts in enumerate(stack):
            one = _kernels.jacobian_dense(_kernels.as_input(pts), *args)
            assert one.tobytes() == expected[b].tobytes()


def test_geometry_quantities_match_one_configuration():
    # what the LM derives from one pair_geometry pass: the guard's minimum
    # distance, the residual and the residual scale, member by member
    for problem, stack in _random_stacks(17, 300):
        masses, asq, a = problem.masses, problem.asq, problem.a
        diff, r2 = _kernels.pair_geometry(stack)
        min_dist = _kernels.min_distance_from(r2)
        defect = stack * asq + _kernels.forces_from(diff, r2 ** a, masses)
        scale = criterion.residual_scale_batch(stack, r2, problem)
        ref_diff, ref_r2 = _reference_geometry(stack, np.inf)
        assert defect.tobytes() == (stack * asq + np.einsum(
            "bij,bijk->bik", masses * ref_r2 ** a, ref_diff)).tobytes()
        assert scale.tobytes() == _masked_scale_reference(
            stack, problem).tobytes()
        for b, pts in enumerate(stack):
            pts = _kernels.as_input(pts)
            assert min_dist[b] == _kernels.min_pair_distance(pts)
            assert defect[b].tobytes() == _kernels.residual_stack(
                pts, masses, asq, a).tobytes()
            assert scale[b] == criterion.residual_scale(
                Configuration(pts), problem)
