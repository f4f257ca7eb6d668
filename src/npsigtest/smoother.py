"""Leave-one-out kernel estimators of the design density and regression.

For each observation i the smoother produces, using every other observation:

* ``fhat``: the local design density of w,
* ``rhat``: the local regression of y on w (NaN where the local density is 0),
* ``uf``: the density-weighted residual (y_i - rhat_i) * fhat_i, accumulated
  directly from pairwise differences so it stays finite even where fhat is 0.

The pairwise kernel matrix is kept so the statistics and the bootstrap can
reuse it. Every test holds a few n-by-n float64 matrices in memory at once,
so samples are limited to ``MAX_OBSERVATIONS`` rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ScaledDataset
from .kernels import mixed_kernel_matrix

# largest sample whose n-by-n pair-weight matrices fit comfortably in memory
MAX_OBSERVATIONS = 4000


@dataclass(frozen=True)
class SmootherOutput:
    """Per-observation leave-one-out quantities plus the reusable kernel matrix.

    ``resid`` is y - rhat (NaN where rhat is undefined); consumers that
    divide by anything must check ``fhat > 0`` first.
    """

    fhat: np.ndarray
    rhat: np.ndarray
    uf: np.ndarray
    resid: np.ndarray
    pairwise: np.ndarray


def compute_smoother(d: ScaledDataset, g: float) -> SmootherOutput:
    """Leave-one-out density, regression, and weighted-residual vectors."""
    n = d.n
    if n < 3:
        raise ValueError("leave-one-out smoothing needs n >= 3")
    if n > MAX_OBSERVATIONS:
        raise ValueError(
            f"{n} observations exceed the limit of {MAX_OBSERVATIONS}: the test "
            "holds several n-by-n matrices in memory; subsample the data to at "
            f"most {MAX_OBSERVATIONS} rows"
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
    return SmootherOutput(fhat=fhat, rhat=rhat, uf=uf, resid=y - rhat, pairwise=pair)


def recompute_uf(pairwise: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Leave-one-out weighted residuals for a replacement response vector,
    reusing a stored pairwise kernel matrix.

    Accumulated from pairwise differences so a constant (or shifted) response
    yields exact zeros rather than cancellation residue.
    """
    n = len(y)
    return ((y[:, None] - y[None, :]) * pairwise).sum(axis=1) / (n - 1)
