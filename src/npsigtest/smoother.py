"""Leave-one-out kernel estimators of the design density and regression.

For each observation i the smoother produces, using every other observation:

* ``fhat``: the local design density of w,
* ``rhat``: the local regression of y on w (NaN where the local density is 0),
* ``uf``: the density-weighted residual (y_i - rhat_i) * fhat_i, accumulated
  as sum_k L_ik (y_i - y_k) / (n - 1) so it stays finite (zero) even where
  fhat is 0.

The pairwise kernel matrix is kept so the statistics and the bootstrap can
reuse it. Every test holds a few n-by-n float64 matrices in memory at once,
so samples are limited to ``MAX_OBSERVATIONS`` rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ScaledDataset
from .kernels import mixed_kernel_matrix

# leave-one-out smoothing needs at least two other observations
MIN_OBSERVATIONS = 3
# largest sample whose n-by-n pair-weight matrices fit comfortably in memory
MAX_OBSERVATIONS = 4000


@dataclass(frozen=True)
class SmootherOutput:
    """Per-observation leave-one-out quantities plus the reusable kernel matrix.

    ``rhat`` is NaN where the local density is 0; consumers that divide by
    anything must check ``fhat > 0`` first.
    """

    fhat: np.ndarray
    rhat: np.ndarray
    uf: np.ndarray
    pairwise: np.ndarray


def compute_smoother(d: ScaledDataset, g: float) -> SmootherOutput:
    """Leave-one-out density, regression, and weighted-residual vectors."""
    n = d.n
    if n < MIN_OBSERVATIONS:
        raise ValueError(f"leave-one-out smoothing needs n >= {MIN_OBSERVATIONS}")
    if n > MAX_OBSERVATIONS:
        # a test's measured peak: about this many n-by-n float64 matrices,
        # more while the pairwise difference tensor of many columns is built
        held = max(6, d.dataset.p_cont + 2, d.dataset.q + 3)
        mb = 8 * n * n / 2**20
        raise ValueError(
            f"{n} observations exceed the limit of {MAX_OBSERVATIONS}: the test "
            f"would hold about {held} n-by-n matrices of {mb:.0f} MB each, "
            f"{held * mb:.0f} MB in all; subsample the data to at most "
            f"{MAX_OBSERVATIONS} rows"
        )
    if not g > 0:
        raise ValueError("estimation bandwidth g must be positive")
    y = d.dataset.y
    cont, disc = d.dataset.w_split()

    pair = mixed_kernel_matrix(cont, disc, g)
    row_sum = pair.sum(axis=1)
    y_sum = pair @ y
    uf = recompute_uf(pair, y)

    fhat = row_sum / (n - 1)
    rhat = np.full(n, np.nan)
    pos = row_sum > 0.0
    rhat[pos] = y_sum[pos] / row_sum[pos]
    return SmootherOutput(fhat=fhat, rhat=rhat, uf=uf, pairwise=pair)


def recompute_uf(pairwise: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Leave-one-out weighted residuals of a response vector, or of each row
    of a block of responses, reusing a stored pairwise kernel matrix.

    The response is centred first (``centred``), so a constant response
    yields exact zeros rather than cancellation residue. ``y @ pairwise``
    is the row-sum product ``pairwise @ y`` because the matrix is symmetric.
    """
    row_sum = pairwise.sum(axis=1)
    y = centred(y, row_sum)
    return (y * row_sum - y @ pairwise) / (pairwise.shape[0] - 1)


def centred(y: np.ndarray, row_sum: np.ndarray) -> np.ndarray:
    """y, or each row of y, less its value at the first observation with a
    neighbour (a positive kernel row sum).

    Every statistic depends on the response only through differences
    y_i - y_k of neighbours, so the shift changes none of them in exact
    arithmetic. It makes a constant response exactly zero, and the response
    of an isolated observation, whose kernel row and column vanish, enters
    no sum at all.
    """
    centre = int(np.argmax(row_sum > 0.0))
    return y - y[..., centre, None]
