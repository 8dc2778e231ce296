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
