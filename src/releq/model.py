"""Domain types and the block-rotation machinery of the rotating frame.

A configuration of n point masses in R^k rotates rigidly when it is spun by
a block-diagonal matrix of independent 2-plane rotations, one rate per
plane, with a fixed axis left over when k is odd. This module holds the
immutable problem description (dimension, masses, rates, force exponent),
candidate configurations, and the rotation/generator/rate-matrix
constructions everything else is built on. All operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels

# Configurations are rejected as colliding below this relative separation.
COLLISION_RTOL = 1e-12


def _frozen_array(values):
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Problem:
    """Immutable description of one rotating n-body problem.

    Parameters
    ----------
    k : int
        Ambient dimension, k >= 2.
    masses : array_like
        n strictly positive masses, n >= 2.
    frequencies : array_like
        floor(k/2) strictly positive rotation rates, one per 2-plane.
    exponent : float
        Force-law exponent a < -1/2: the pair force scales as r^(2a+1),
        and a = -3/2 gives the Newtonian force.
    """

    k: int
    masses: np.ndarray
    frequencies: np.ndarray
    exponent: float
    # diagonal of the squared rate matrix, shape (k,); derived, read-only
    asq: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        k = int(self.k)
        if k < 2:
            raise ValueError(f"dimension k must be >= 2, got {k}")
        masses = _frozen_array(self.masses)
        if masses.ndim != 1 or masses.size < 2:
            raise ValueError("masses must be a vector of at least 2 entries")
        if not np.all((masses > 0.0) & np.isfinite(masses)):
            raise ValueError("all masses must be finite and strictly positive")
        freqs = _frozen_array(self.frequencies)
        if freqs.ndim != 1 or freqs.size != k // 2:
            raise ValueError(
                f"expected floor(k/2) = {k // 2} frequencies, got {freqs.size}"
            )
        if not np.all((freqs > 0.0) & np.isfinite(freqs)):
            raise ValueError("all frequencies must be finite and strictly positive")
        exponent = float(self.exponent)
        if not -np.inf < exponent < -0.5:
            raise ValueError(
                f"exponent must be finite and satisfy a < -1/2, got {exponent}")
        asq = frequency_matrix(freqs, k) ** 2
        asq.setflags(write=False)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "asq", asq)

    @property
    def n(self):
        return self.masses.size

    @property
    def a(self):
        return self.exponent

    def with_exponent(self, a):
        return Problem(self.k, self.masses, self.frequencies, a)

    def with_frequencies(self, frequencies):
        return Problem(self.k, self.masses, frequencies, self.exponent)


@dataclass(frozen=True, eq=False)
class Configuration:
    """n fixed points in R^k; the rotating shape of a candidate equilibrium.

    Construction rejects configurations with any pair closer than
    COLLISION_RTOL relative to the configuration size, and keeps the
    minimum pairwise distance and maximum point norm it measured.
    """

    points: np.ndarray
    min_distance: float = field(init=False, repr=False)
    max_norm: float = field(init=False, repr=False)

    def __post_init__(self):
        points = _frozen_array(self.points)
        if points.ndim != 2 or points.shape[0] < 2:
            raise ValueError("points must be an (n, k) array with n >= 2")
        if not np.all(np.isfinite(points)):
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", points)
        max_norm = float(np.sqrt(np.sum(points ** 2, axis=1)).max())
        min_dist = _kernels.min_pair_distance(points)
        check_separation(min_dist, max_norm)
        object.__setattr__(self, "min_distance", min_dist)
        object.__setattr__(self, "max_norm", max_norm)


def check_separation(min_distance, max_norm):
    """Raise ValueError, as constructing a colliding ``Configuration``
    does, unless each minimum pairwise distance (a scalar or one per
    point set of a stack) exceeds COLLISION_RTOL * (1 + its largest point
    norm); NaN never does."""
    clear = min_distance > COLLISION_RTOL * (1.0 + max_norm)
    if not np.all(clear):
        first = np.ravel(min_distance)[np.argmin(clear)]
        raise ValueError(
            f"colliding configuration: min pairwise distance {first:.3e}")


def _check_frequency_dims(frequencies, k):
    freqs = np.asarray(frequencies, dtype=float)
    if int(k) < 2:
        raise ValueError(f"dimension k must be >= 2, got {k}")
    if freqs.ndim != 1 or freqs.size != int(k) // 2:
        raise ValueError(
            f"expected floor(k/2) = {int(k) // 2} frequencies for k={k}, "
            f"got {freqs.size}"
        )
    return freqs, int(k)


def rotation_matrix(frequencies, t, k):
    """Block-diagonal rotation by angle A_l*t in each 2-plane.

    For odd k the trailing axis is fixed (scalar block 1). The result is
    orthogonal with determinant 1.
    """
    freqs, k = _check_frequency_dims(frequencies, k)
    out = np.eye(k)
    for l, w in enumerate(freqs):
        c = np.cos(w * t)
        s = np.sin(w * t)
        out[2 * l, 2 * l] = c
        out[2 * l, 2 * l + 1] = -s
        out[2 * l + 1, 2 * l] = s
        out[2 * l + 1, 2 * l + 1] = c
    return out


def rotation_generator(frequencies, k):
    """Time derivative of the rotation at t=0: blocks A_l*[[0,-1],[1,0]].

    Satisfies G @ G == -diag(asq) where asq is the squared rate diagonal.
    """
    freqs, k = _check_frequency_dims(frequencies, k)
    out = np.zeros((k, k))
    for l, w in enumerate(freqs):
        out[2 * l, 2 * l + 1] = -w
        out[2 * l + 1, 2 * l] = w
    return out


def frequency_matrix(frequencies, k):
    """Diagonal rate matrix (A_1, A_1, ..., A_p, A_p[, 0])."""
    freqs, k = _check_frequency_dims(frequencies, k)
    if not np.all(freqs > 0.0):
        raise ValueError("all frequencies must be strictly positive")
    diag = np.zeros(k)
    diag[: 2 * (k // 2)] = np.repeat(freqs, 2)
    return diag


def check_problem_config(problem, config):
    """Raise if the shape of a configuration, or of an array of points,
    does not match the problem."""
    shape = np.shape(getattr(config, "points", config))
    if shape != (problem.n, problem.k):
        raise ValueError(
            f"configuration shape {shape} does not match "
            f"problem (n={problem.n}, k={problem.k})"
        )
