"""Leave-one-out kernel estimators of the design density and regression.

For each observation i the smoother produces, using every other observation:

* ``fhat``: the local design density of w,
* ``rhat``: the local regression of y on w (NaN where the local density is 0),
* ``uf``: the density-weighted residual (y_i - rhat_i) * fhat_i, accumulated
  as sum_k L_ik (y_i - y_k) / (n - 1) so it stays finite (zero) even where
  fhat is 0.

The kernel weights L are kept as ``PairWeights`` lists so the statistics and
the bootstrap can reuse them; ``fhat``, ``rhat`` and ``uf`` are sums over the
lists, ``fhat`` and ``rhat`` from the same row sums L 1 and product L y. A
bootstrap test can hold the memory of a few n-by-n float64 matrices at once
(the pair weights it multiplies densely where neighbourhoods are wide, the
dense triple sums of ``itilde``, and the lists), so samples are limited to
``MAX_OBSERVATIONS`` rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .kernels import PairWeights, mixed_kernel_matrix

# leave-one-out smoothing needs at least two other observations
MIN_OBSERVATIONS = 3
# largest sample whose n-by-n pair-weight matrices fit comfortably in memory
MAX_OBSERVATIONS = 4000


@dataclass(frozen=True)
class SmootherOutput:
    """Per-observation leave-one-out quantities plus the reusable kernel
    weights, and the estimation bandwidth ``g`` they were computed at.
    ``rhat`` is NaN where the local density is 0: consumers that divide by
    anything must check ``fhat > 0`` first.

    ``cache`` holds the pair-weight engines the bootstrap builds on this
    sample, and nothing else, so the tests of one Monte Carlo replication
    share them; they live as long as this object.
    """

    fhat: np.ndarray
    rhat: np.ndarray
    uf: np.ndarray
    pairwise: PairWeights
    g: float
    cache: dict = field(default_factory=dict, repr=False, compare=False)


def compute_smoother(d: Dataset, g: float) -> SmootherOutput:
    """Leave-one-out density, regression, and weighted-residual vectors."""
    n = d.n
    if n < MIN_OBSERVATIONS:
        raise ValueError(f"leave-one-out smoothing needs n >= {MIN_OBSERVATIONS}")
    if n > MAX_OBSERVATIONS:
        # the largest measured peak of a bootstrap test (tracemalloc, B = 199,
        # p = 1 or 2 continuous w columns, q = 1 or 5, c = 0.5 or 2, var_hat
        # or var_tilde), in n-by-n float64 matrices: 3.25 at n = 4000 (5.86
        # at n = 1500), with p = 1, whose rows have the most neighbours (L
        # lists 0.14 n^2 entries at n = 4000, and building itilde's
        # coefficients from them peaks at 2.3 matrices); with p = 2, 1.23
        # (1.48). It is smaller at larger n
        held = 4
        mb = 8 * n * n / 2**20
        raise ValueError(
            f"{n} observations exceed the limit of {MAX_OBSERVATIONS}: the test "
            f"would hold about {held} n-by-n matrices of {mb:.0f} MB each, "
            f"{held * mb:.0f} MB in all; subsample the data to at most "
            f"{MAX_OBSERVATIONS} rows"
        )
    if not g > 0:
        raise ValueError("estimation bandwidth g must be positive")
    y = d.y
    cont, disc = d.w_split()

    pair = mixed_kernel_matrix(cont, disc, g)
    row_sum, y_sum = pair.row_sums, pair.product(y)
    rhat = np.full(n, np.nan)
    pos = row_sum > 0.0
    rhat[pos] = y_sum[pos] / row_sum[pos]
    uf = recompute_uf(pair, y)
    return SmootherOutput(fhat=row_sum / (n - 1), rhat=rhat, uf=uf, pairwise=pair, g=g)


def recompute_uf(pairwise: PairWeights, y: np.ndarray) -> np.ndarray:
    """Leave-one-out weighted residuals of a response vector, or of each row
    of a block of responses, reusing stored kernel weights.

    The response is centred first (``centred``), so a constant response
    yields exact zeros rather than cancellation residue.
    """
    y = centred(y, pairwise)
    return (y * pairwise.row_sums - pairwise.product(y)) / (pairwise.n - 1)


def centred(y: np.ndarray, pairwise: PairWeights) -> np.ndarray:
    """y, or each row of y, less its value at the first observation with a
    neighbour (a nonzero kernel row, ``PairWeights.centre``).

    Every statistic depends on the response only through differences
    y_i - y_k of neighbours, so the shift changes none of them in exact
    arithmetic. It makes a constant response exactly zero, and the response
    of an isolated observation, whose kernel row and column vanish, enters
    no sum at all.

    A centred y is +0.0 there in every row, and y - (+0.0) is y bit for
    bit, so such a y is returned as it is, not copied: the bootstrap
    centres each block of draws once, and every statistic then reads that
    block.
    """
    shift = y[..., pairwise.centre, None]
    if not (shift.any() or np.signbit(shift).any()):
        return y
    return y - shift
