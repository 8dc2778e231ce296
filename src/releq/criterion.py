"""Algebraic balance test for rigidly rotating configurations.

A configuration Q rotates rigidly at the problem's rates exactly when the
per-body defect

    F_i = Asq Q_i - sum_{j!=i} m_j (Q_i - Q_j) |Q_i - Q_j|^(2a)

vanishes (Asq is the squared diagonal rate matrix). This module evaluates
the defect, its exact dense derivative, the cluster-sum identity that the
lower-bound argument rests on, and the weighted-centroid consequence of
summing the defect over all bodies. Every cluster of the identity comes
from one pair-geometry pass and suffix sums over the pair force terms,
in O(n^2 k). ``releq.cli`` builds the verify report from its records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .model import check_problem_config


@dataclass(frozen=True, eq=False)
class ResidualReport:
    """Per-body defect vectors with aggregate norms.

    max_norm is the largest per-body Euclidean norm; rms is the root mean
    square over all n*k stacked entries.
    """

    per_body: np.ndarray
    max_norm: float
    rms: float


@dataclass(frozen=True, eq=False)
class ClusterDiagnostics:
    """Both sides of the cluster identity for the first l bodies."""

    l: int
    lhs: np.ndarray
    rhs: np.ndarray
    gap: float


def residual(config, problem):
    """Evaluate the balance defect; zero iff ``config`` is an equilibrium."""
    check_problem_config(problem, config)
    per_body = _kernels.residual_stack(config.points, problem.masses,
                                       problem.asq, problem.a)
    norms = np.sqrt(np.sum(per_body ** 2, axis=1))
    rms = float(np.sqrt(np.mean(per_body ** 2)))
    return ResidualReport(per_body, float(norms.max()), rms)


def residual_scale(config, problem):
    """Magnitude reference for 'zero' tests on the defect.

    max(1, largest point norm, largest single term entering any F_i); the
    force terms span many orders of magnitude once a < -1/2.
    """
    check_problem_config(problem, config)
    pos = config.points[None]
    _, r2 = _kernels.pair_geometry(pos)
    return float(residual_scale_batch(pos, r2, problem)[0])


def residual_scale_batch(points, r2, problem):
    """``residual_scale`` of each configuration in a (B, n, k) stack.

    ``r2`` is the stack's squared pair distances with an inf diagonal, as
    ``_kernels.pair_geometry`` gives them.
    """
    norms = np.sqrt(np.sum(points ** 2, axis=-1))
    # per-pair force magnitude m_j * r^(2a+1), larger mass of each pair;
    # the inf diagonal gives 0 there, as 2a + 1 < 0
    heavier = np.maximum.outer(problem.masses, problem.masses)
    force_terms = heavier * np.sqrt(r2) ** (2.0 * problem.a + 1.0)
    rot_terms = np.sqrt(np.sum((points * problem.asq) ** 2, axis=-1))
    return np.maximum(1.0, np.max([norms.max(axis=-1),
                                   force_terms.max(axis=(1, 2)),
                                   rot_terms.max(axis=-1)], axis=0))


def jacobian(config, problem):
    """Dense derivative of the stacked defect, shape (n*k, n*k).

    Off-diagonal block (i, j) is m_j (r^(2a) I + 2a r^(2a-2) u u^T) with
    u = Q_i - Q_j; the diagonal block is Asq minus the sum of the other
    blocks in its row. Matches central finite differences of ``residual``.
    """
    check_problem_config(problem, config)
    return _kernels.jacobian_dense(config.points, problem.masses,
                                   problem.asq, problem.a)


def lemma_identity_gaps(config, problem):
    """Both sides of the cluster identity for every cluster l = 2..n.

    The identity is an exact consequence of the balance equations, so
    each gap vanishes at equilibria; away from them it equals the norm of
    sum_{i=2}^{l} m_i (F_1 - F_i). With bodies numbered 1..n, the pair
    force terms P[i, j] = m_j (Q_i - Q_j) r_ij^(2a) (zero diagonal) and
    their suffix sums S[i, l] = sum_{j > l} P[i, j], prefix sums over the
    body index give every l at once (sums over i, j <= l):

        lhs(l) = Asq sum_i m_i (Q_1 - Q_i)
        rhs(l) = (sum_i m_i) sum_j P[1, j] + sum_i m_i (S[1, l] - S[i, l])
    """
    check_problem_config(problem, config)
    pos, n, m = config.points, problem.n, problem.masses
    diff, r2 = _kernels.pair_geometry(pos[None])
    # diff[i, j] is Q_j - Q_i, so its transpose holds Q_i - Q_j; the inf
    # diagonal gives r^(2a) = 0 there
    pair = (m * r2[0] ** problem.a)[..., None] * diff[0].swapaxes(0, 1)
    suffix = np.zeros((n, n + 1, problem.k))
    suffix[:, :n] = np.cumsum(pair[:, ::-1], axis=1)[:, ::-1]
    clusters = np.arange(2, n + 1)
    # row l - 2 of each prefix sum runs over bodies 0..l-1 (0-based),
    # whose body-0 term is zero
    lhs = problem.asq * np.cumsum(m[:, None] * (pos[0] - pos), axis=0)[1:]
    inner = np.cumsum(m)[1:, None] * np.cumsum(pair[0], axis=0)[1:]
    spread = m[:, None, None] * (suffix[0, clusters] - suffix[:, clusters])
    inside = np.arange(n)[:, None] < clusters
    rhs = inner + np.where(inside[..., None], spread, 0.0).sum(axis=0)
    return tuple(
        ClusterDiagnostics(int(l), lhs[row], rhs[row],
                           float(np.linalg.norm(lhs[row] - rhs[row])))
        for row, l in enumerate(clusters))


def lemma_identity_gap(config, problem, cluster):
    """``lemma_identity_gaps`` entry of the first ``cluster`` bodies."""
    gaps = lemma_identity_gaps(config, problem)
    n = problem.n
    cluster = int(cluster)
    if not 2 <= cluster <= n:
        raise IndexError(f"cluster size must be in 2..{n}, got {cluster}")
    return gaps[cluster - 2]


def weighted_centroid_residual(config, problem):
    """Asq applied to the mass-weighted centroid sum; zero at any equilibrium.

    Summing the balance equations over i cancels the pairwise forces, so
    Asq sum_i m_i Q_i must vanish; for even k this pins the mass-weighted
    centroid at the origin, while an odd k leaves the trailing axis free.
    """
    check_problem_config(problem, config)
    weighted = (problem.masses[:, None] * config.points).sum(axis=0)
    return problem.asq * weighted

