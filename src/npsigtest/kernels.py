"""Smoothing kernels, the pair weight psi for the covariates under test, and
the bandwidth rules.

All kernels are radial: a univariate profile applied to the Euclidean norm of
the (bandwidth-scaled) difference vector. Discrete coordinates contribute
exact-equality indicators instead of being smoothed.

psi is a name from ``PSI_FAMILIES``: ``triangular`` and ``normal`` are bounded
even densities (unit second moment) applied to the norm of the difference;
``indicator`` is the all-coordinates-equal indicator for discrete covariates.

The kernels here are n-by-n matrix builders. The scalar kernel at one
difference vector is written out independently in ``oracles``, which shares
no code with these builders, so the oracle tests check every kernel value
as well as every sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT6 = math.sqrt(6.0)
_NORMAL_C = 1.0 / math.sqrt(2.0 * math.pi)

PSI_FAMILIES = ("triangular", "normal", "indicator")


@dataclass(frozen=True)
class Bandwidths:
    g: float
    h: float
    c: float = 1.0

    def __post_init__(self):
        if not (self.g > 0 and self.h > 0):
            raise ValueError("bandwidths must be positive")


def default_bandwidths(n: int, c: float) -> Bandwidths:
    """Estimation bandwidth n^(-1/6) and test bandwidth c * n^(-2.1/6)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not c > 0:
        raise ValueError("bandwidth factor c must be positive")
    return Bandwidths(g=n ** (-1.0 / 6.0), h=c * n ** (-2.1 / 6.0), c=c)


def _epanechnikov_of_sqnorm(s):
    """0.75 * (1 - s) on s < 1, else 0, where s is the squared norm."""
    return np.where(s < 1.0, 0.75 * (1.0 - s), 0.0)


def psi_profile(psi: str, t):
    """Univariate density profile of a psi family, evaluated at |t| = norm."""
    t = np.abs(np.asarray(t, dtype=float))
    if psi == "triangular":
        # unit-second-moment triangular density: support [-sqrt(6), sqrt(6)]
        return np.maximum(0.0, (1.0 - t / SQRT6)) / SQRT6
    if psi == "normal":
        return _NORMAL_C * np.exp(-0.5 * t * t)
    raise ValueError(f"psi family {psi!r} has no density profile")


# ---------------------------------------------------------------------------
# Vectorized pairwise builders. These produce the n-by-n weight matrices the
# statistics reuse across bootstrap replications.
# ---------------------------------------------------------------------------


def _sq_dists(a: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between every pair of rows of a."""
    diff = a[:, None, :] - a[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _disc_equal(a: np.ndarray) -> np.ndarray:
    """1.0 where all discrete coordinates of two rows agree exactly, else 0.0."""
    eq = a[:, None, :] == a[None, :, :]
    return eq.all(axis=2).astype(float)


def mixed_kernel_matrix(cont: np.ndarray, disc: np.ndarray, bandwidth: float) -> np.ndarray:
    """Full pairwise mixed-kernel matrix with a zeroed diagonal."""
    if not bandwidth > 0:
        raise ValueError("bandwidth must be positive")
    s = _sq_dists(cont) / (bandwidth * bandwidth)
    m = _epanechnikov_of_sqnorm(s) * bandwidth ** (-cont.shape[1])
    if disc.shape[1]:
        m = m * _disc_equal(disc)
    np.fill_diagonal(m, 0.0)
    return m


def psi_matrix(psi: str, x: np.ndarray) -> np.ndarray:
    """Full pairwise psi-weight matrix over the covariates under test."""
    if psi not in PSI_FAMILIES:
        raise ValueError(f"unknown psi family {psi!r}")
    if psi == "indicator":
        return _disc_equal(x)
    return psi_profile(psi, np.sqrt(_sq_dists(x)))


def joint_x_kernel_matrix(x: np.ndarray, bandwidth: float) -> np.ndarray:
    """h^(-q) K((x_i - x_j)/h) pairwise; identically 1 when x is empty."""
    n = x.shape[0]
    if x.shape[1] == 0:
        return np.ones((n, n))
    s = _sq_dists(x) / (bandwidth * bandwidth)
    return _epanechnikov_of_sqnorm(s) * bandwidth ** (-x.shape[1])
