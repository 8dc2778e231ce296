import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import releq
from releq import Configuration, Problem

import oracles

# Tests that spawn ``python -m releq.cli`` must run the package this
# session imports, whether it is installed or found through pytest's
# pythonpath setting.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(releq.__file__).parents[1]),
                  os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def two_body():
    prob = Problem(2, [1.0, 1.0], [1.0], -1.5)
    cfg = Configuration(oracles.two_body_points(1.0, 1.0, 1.0, -1.5))
    return prob, cfg


@pytest.fixture(scope="session")
def trigon():
    prob = Problem(2, [1.0, 1.0, 1.0], [1.0], -1.5)
    rho = oracles.ngon_circumradius(3, 1.0, 1.0, -1.5)
    cfg = Configuration(oracles.ngon_points(3, rho))
    return prob, cfg


def random_config(rng, n, k, spread=1.5, min_sep=0.3):
    # rejection-sample a well-separated random configuration
    for _ in range(200):
        pts = rng.normal(size=(n, k)) * spread
        dists = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        np.fill_diagonal(dists, np.inf)
        if dists.min() > min_sep:
            return Configuration(pts)
    raise RuntimeError("could not sample a separated configuration")
