"""Hot numeric kernels: all-pairs forces, criterion residual, Jacobian.

All kernels are vectorized numpy, take C-contiguous float64 arrays and
are deterministic: summation order is the ascending body index.

Every pair quantity derives from one ``pair_geometry`` pass over a stack
of configurations, shape (B, n, k): Q_j - Q_i and r^2 with an inf
diagonal, where r^(2a) and r^(2a+1) vanish. The ``*_from`` kernels take
that geometry, so the LM solver, which keeps each trial's, measures no
pair twice; the integrator measures each stage into the buffers of a
``pair_geometry_workspace``, which takes about two thirds of a one-shot
pass's time at n = 3 to 12. Nothing else is written into buffers: the
arithmetic after the geometry costs no more as plain expressions.
The force law is written once, in ``forces_from``. The
one-configuration kernels (``accel``, the tests' and the benchmark's
reference, ``residual_stack``, ``jacobian_dense``, ``pair_distances``,
``min_pair_distance``) measure a stack of one and give the bits the
``*_from`` kernels give a stack's member. The Jacobian is assembled on
coordinate planes laid out [c, d, j, b, i]; its diagonal blocks sum over
the j axis, which numpy adds in ascending body order, a whole (b, i)
plane at a time.
"""

import functools

import numpy as np


def pair_geometry(positions):
    """Q_j - Q_i at [b, i, j, :] and |Q_j - Q_i|^2 at [b, i, j], inf diagonal.

    The squared distances are symmetric bit for bit: Q_i - Q_j is the
    exact negation of Q_j - Q_i.
    """
    return _measure_pairs(*_pair_views(positions))


def pair_geometry_workspace(positions):
    """A callable that measures ``pair_geometry`` of ``positions``, as they
    are when called, into its own two buffers through views built here."""
    return functools.partial(_measure_pairs, *_pair_views(positions))


def _pair_views(positions):
    """New diff and r2 buffers for ``positions`` and the views that
    ``_measure_pairs`` writes them through."""
    count, n, k = positions.shape
    diff = np.empty((count, n, n, k))
    r2 = np.empty((count, n, n))
    # subtracted in C order of diff's [b, k, i, j] view, so the inner loop
    # runs along j; numpy's own order runs it along k, a few entries long,
    # and takes 3x as long at n = 30: one subtraction per entry either way.
    coords = positions.transpose(0, 2, 1)
    return (coords[:, :, None, :], coords[:, :, :, None],
            diff.transpose(0, 3, 1, 2), diff, r2,
            r2.reshape(count, n * n)[:, :: n + 1])


def _measure_pairs(q_j, q_i, diff_kij, diff, r2, r2_diagonal):
    np.subtract(q_j, q_i, out=diff_kij, order="C")
    np.einsum("bijk,bijk->bij", diff, diff, out=r2)
    r2_diagonal[...] = np.inf
    return diff, r2


def min_distance_from(r2):
    """Smallest pairwise distance of each configuration; inf below 2 bodies."""
    return np.sqrt(np.minimum.reduce(r2, axis=(1, 2), initial=np.inf))


def forces_from(diff, r2a, masses):
    """sum_{j!=i} m_j (Q_j - Q_i) r2a_ij with r2a = r^(2a), shape (B, n, k)."""
    return np.einsum("bij,bijk->bik", masses * r2a, diff)


def jacobian_from(diff, r2, r2a, masses, asq, a):
    """Derivative of each stacked residual, shape (B, n*k, n*k).

    Off-diagonal block (i, j) is m_j (r^(2a) I + 2a r^(2a-2) u u^T) with
    u = Q_j - Q_i; the diagonal block is diag(asq) minus the sum of the
    other blocks of its row, added over j in ascending order.
    """
    count, n, _, k = diff.shape
    # the blocks are laid out [c, d, j, b, i], j the column body: u u^T
    # and r are symmetric in (i, j) bit for bit, so [j, b, i] copies of
    # the [b, i, j] geometry serve, and every pass below, the sum over j
    # too, runs along whole (b, i) planes
    planes = np.ascontiguousarray(diff.transpose(3, 1, 0, 2))
    coef = 2.0 * a * np.ascontiguousarray(r2.transpose(1, 0, 2)) ** (a - 1.0)
    blocks = coef * planes[:, None] * planes[None, :]
    # the r^(2a) I term: r2a is added in place to the c == d planes, and
    # 0.0 to every plane, which turns a -0.0 product off the axis diagonal
    # into +0.0 as adding r2a * eye(k) does; r2a >= +0.0, so the c == d
    # sums keep their bits. The j == i entries come out +0.0 (u = 0, and
    # r^(2a) = 0 at the inf diagonal of r2), as the sum over j needs.
    blocks.reshape(k * k, n, count, n)[:: k + 1] += \
        np.ascontiguousarray(r2a.transpose(1, 0, 2))
    blocks += 0.0
    blocks *= masses[:, None, None]
    body = np.arange(n)
    blocks[:, :, body, :, body] = (np.diag(asq)[:, :, None, None]
                                   - np.add.reduce(blocks, axis=2)
                                   ).transpose(3, 0, 1, 2)
    # copied plane by plane, so each copy runs along n, not along k
    jac = np.empty((count, n, k, n, k))
    for c in range(k):
        for d in range(k):
            jac[:, :, c, :, d] = blocks[c, d].transpose(1, 2, 0)
    return jac.reshape(count, n * k, n * k)


def accel(positions, masses, a):
    """Accelerations sum_{j!=i} m_j (Q_j - Q_i) |Q_j - Q_i|^(2a), shape (n, k)."""
    diff, r2 = pair_geometry(positions[None])
    return forces_from(diff, r2 ** a, masses)[0]


def residual_stack(positions, masses, asq, a):
    """Per-body balance defect asq*Q_i - sum_{j!=i} m_j (Q_i - Q_j) r^(2a)."""
    diff, r2 = pair_geometry(positions[None])
    return positions * asq + forces_from(diff, r2 ** a, masses)[0]


def jacobian_dense(positions, masses, asq, a):
    """Derivative of the stacked residual, shape (n*k, n*k)."""
    diff, r2 = pair_geometry(positions[None])
    return jacobian_from(diff, r2, r2 ** a, masses, asq, a)[0]


def pair_distances(positions):
    """Pairwise distance matrix, zero diagonal, shape (n, n)."""
    dist = np.sqrt(pair_geometry(positions[None])[1][0])
    np.fill_diagonal(dist, 0.0)
    return dist


def min_pair_distance(positions):
    """Smallest pairwise distance; inf below 2 bodies."""
    return float(min_distance_from(pair_geometry(positions[None])[1])[0])


def backend():
    """Name of the kernel backend; always 'numpy'."""
    return "numpy"


def as_input(arr):
    """Coerce an array to the C-contiguous float64 layout the kernels expect."""
    return np.ascontiguousarray(arr, dtype=np.float64)
