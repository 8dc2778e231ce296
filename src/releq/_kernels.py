"""Hot numeric kernels: all-pairs forces, criterion residual, Jacobian.

All kernels are vectorized numpy, take C-contiguous float64 arrays and
are deterministic: summation order is the ascending body index. The
``*_batch`` kernels take a stack of configurations, shape (B, n, k), and
give every member the bits the one-configuration form gives it alone;
the one-configuration names wrap them, and no kernel calls them. The
force law is written once: ``residual_stack_batch`` is Asq Q plus
``accel_batch``.
"""

import functools

import numpy as np


def _pair_differences(positions, diagonal):
    """Q_j - Q_i and |Q_j - Q_i|^2 at [b, i, j], the latter's diagonal set."""
    count, n = positions.shape[:2]
    diff = positions[:, None, :, :] - positions[:, :, None, :]
    r2 = np.einsum("bijk,bijk->bij", diff, diff)
    r2.reshape(count, n * n)[:, :: n + 1] = diagonal
    return diff, r2


def accel_batch(positions, masses, a):
    """Accelerations sum_{j!=i} m_j (Q_j - Q_i) |Q_j - Q_i|^(2a), shape (B, n, k)."""
    diff, r2 = _pair_differences(positions, np.inf)    # inf ** a == 0
    return np.einsum("bij,bijk->bik", masses * r2 ** a, diff)


def accel(positions, masses, a):
    return accel_batch(positions[None], masses, a)[0]


def residual_stack_batch(positions, masses, asq, a):
    """Per-body balance defect asq*Q_i - sum_{j!=i} m_j (Q_i - Q_j) r^(2a)."""
    return positions * asq + accel_batch(positions, masses, a)


def residual_stack(positions, masses, asq, a):
    return residual_stack_batch(positions[None], masses, asq, a)[0]


def jacobian_dense_batch(positions, masses, asq, a):
    """Derivative of each stacked residual, shape (B, n*k, n*k)."""
    count, n, k = positions.shape
    diff, r2 = _pair_differences(positions, 1.0)
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


def jacobian_dense(positions, masses, asq, a):
    return jacobian_dense_batch(positions[None], masses, asq, a)[0]


def pair_distances_batch(positions):
    """Pairwise distance matrices, zero diagonal, shape (B, n, n)."""
    _, r2 = _pair_differences(positions, 0.0)
    return np.sqrt(r2)


def pair_distances(positions):
    return pair_distances_batch(positions[None])[0]


def min_pair_distance_batch(positions):
    """Smallest pairwise distance of each configuration; inf below 2 bodies."""
    _, r2 = _pair_differences(positions, np.inf)
    return np.sqrt(r2.min(axis=(1, 2), initial=np.inf))


def min_pair_distance(positions):
    return float(min_pair_distance_batch(positions[None])[0])


@functools.lru_cache(maxsize=16)
def pair_indices(n):
    """Row-major upper-triangle pairs (i < j) of n bodies; cached, read-only."""
    iu, ju = np.triu_indices(n, 1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


def potential(positions, masses, a):
    """Potential whose negative q_i-gradient is m_i times the acceleration."""
    iu, ju = pair_indices(positions.shape[0])
    r = np.sqrt(np.sum((positions[iu] - positions[ju]) ** 2, axis=1))
    if a == -1.0:
        phi = np.log(r)
    else:
        phi = r ** (2.0 * a + 2.0) / (2.0 * a + 2.0)
    return float(np.sum(masses[iu] * masses[ju] * phi))


def backend():
    """Name of the kernel backend; always 'numpy'."""
    return "numpy"


def as_input(arr):
    """Coerce an array to the C-contiguous float64 layout the kernels expect."""
    return np.ascontiguousarray(arr, dtype=np.float64)
