"""Hot numeric kernels: all-pairs forces, criterion residual, Jacobian.

All kernels are vectorized numpy, take C-contiguous float64 arrays and
are deterministic: summation order is the ascending body index.
"""

import numpy as np


def accel(positions, masses, a):
    """Accelerations sum_{j!=i} m_j (q_j - q_i) |q_j - q_i|^(2a), shape (n, k)."""
    diff = positions[None, :, :] - positions[:, None, :]
    r2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(r2, 1.0)
    w = masses[None, :] * r2 ** a
    np.fill_diagonal(w, 0.0)
    return np.einsum("ij,ijk->ik", w, diff)


def residual_stack(positions, masses, asq, a):
    """Per-body balance defect asq*Q_i - sum_{j!=i} m_j (Q_i - Q_j) r^(2a)."""
    diff = positions[:, None, :] - positions[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(r2, 1.0)
    w = masses[None, :] * r2 ** a
    np.fill_diagonal(w, 0.0)
    force = np.einsum("ij,ijk->ik", w, diff)
    return positions * asq[None, :] - force


def jacobian_dense(positions, masses, asq, a):
    """Derivative of the stacked residual, shape (n*k, n*k)."""
    n, k = positions.shape
    diff = positions[:, None, :] - positions[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(r2, 1.0)
    r2a = r2 ** a
    coef = 2.0 * a * r2 ** (a - 1.0)
    blocks = coef[:, :, None, None] * diff[:, :, :, None] * diff[:, :, None, :]
    blocks += r2a[:, :, None, None] * np.eye(k)[None, None, :, :]
    blocks *= masses[None, :, None, None]
    idx = np.arange(n)
    blocks[idx, idx] = 0.0
    diag = np.diag(asq)[None, :, :] - blocks.sum(axis=1)
    blocks[idx, idx] = diag
    return blocks.transpose(0, 2, 1, 3).reshape(n * k, n * k)


def pair_distances(positions):
    diff = positions[:, None, :] - positions[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(r2, 0.0)
    return np.sqrt(r2)


def min_pair_distance(positions):
    """Smallest pairwise distance; inf for fewer than two bodies."""
    diff = positions[:, None, :] - positions[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(r2, np.inf)
    return float(np.sqrt(r2.min(initial=np.inf)))


def potential(positions, masses, a):
    """Potential whose negative q_i-gradient is m_i times the acceleration."""
    n = positions.shape[0]
    iu, ju = np.triu_indices(n, 1)
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
