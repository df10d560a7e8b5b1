"""Pairwise inner-product reduction.

Reduces all row pairs i < j of an (n, p) matrix of unit rows to the sum
of inner products, the sum of squared inner products and the largest
absolute inner product.  One loop reduces the Gram matrix in row tiles
rows[i:i+_TILE] @ rows[i:].T, so extra memory is O(_TILE * n), not O(n^2).
Up to _TILE rows the single tile is the whole Gram matrix.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pairwise_reduce"]

# rows per Gram tile: bounds the extra memory at _TILE * n floats
_TILE = 256


def pairwise_reduce(rows: np.ndarray) -> tuple[float, float, float]:
    """(sum, sum of squares, max abs) of inner products over row pairs i < j."""
    n = rows.shape[0]
    s = rows.sum(axis=0)
    sum_inner = (float(s @ s) - n) / 2.0
    sum_inner_sq = 0.0
    max_abs = 0.0
    for i in range(0, n, _TILE):
        tile = rows[i : i + _TILE] @ rows[i:].T
        b = tile.shape[0]
        # the leading b x b block is symmetric with a unit diagonal: its pairs give (sum - b) / 2
        block = tile[:, :b]
        sum_inner_sq += (float(np.einsum("ij,ij->", block, block)) - b) / 2.0
        if b < tile.shape[1]:
            rest = tile[:, b:]
            sum_inner_sq += float(np.einsum("ij,ij->", rest, rest))
        np.fill_diagonal(block, 0.0)
        # np.maximum, unlike the builtin max, propagates a NaN from any tile
        max_abs = np.maximum(max_abs, np.abs(tile).max())
    return sum_inner, sum_inner_sq, float(max_abs)
