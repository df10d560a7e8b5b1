"""Pairwise inner-product reduction.

Reduces all row pairs i < j of an (n, p) matrix of unit rows to the sum
of inner products, the sum of squared inner products and the largest
absolute inner product.  Up to _TILE rows one BLAS Gram matrix is reduced
at once; beyond that the Gram matrix is reduced in row tiles
rows[i:i+_TILE] @ rows[i:].T, so extra memory is O(_TILE * n), not O(n^2).
"""

from __future__ import annotations

import numpy as np

__all__ = ["pairwise_reduce"]

# rows per Gram tile; up to this many rows the one-shot Gram matrix is faster
_TILE = 256


def pairwise_reduce(rows: np.ndarray) -> tuple[float, float, float]:
    """(sum, sum of squares, max abs) of inner products over row pairs i < j."""
    n = rows.shape[0]
    s = rows.sum(axis=0)
    sum_inner = (float(s @ s) - n) / 2.0
    if n <= _TILE:
        gram = rows @ rows.T
        sum_inner_sq = (float(np.einsum("ij,ij->", gram, gram)) - n) / 2.0
        np.fill_diagonal(gram, 0.0)
        return sum_inner, sum_inner_sq, float(np.abs(gram).max())
    sum_inner_sq = 0.0
    maxima = []
    for i in range(0, n, _TILE):
        tile = rows[i : i + _TILE] @ rows[i:].T
        b = tile.shape[0]
        # the leading b x b block holds pairs within the tile: keep j > i only
        tile[:, :b] = np.triu(tile[:, :b], k=1)
        sum_inner_sq += float(np.einsum("ij,ij->", tile, tile))
        maxima.append(np.abs(tile).max())
    # np.max, unlike the builtin, propagates a NaN from any tile
    return sum_inner, sum_inner_sq, float(np.max(maxima))
