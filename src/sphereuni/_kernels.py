"""Pairwise inner-product reduction.

Reduces all row pairs i < j of each (n, p) sample in a (B, n, p) stack of
unit rows to the sum of inner products, the sum of squared inner products
and the largest absolute inner product.  One loop reduces the Gram
matrices in row tiles rows[:, i:i+_TILE] @ rows[:, i:].T into one reused
buffer, so extra memory is O(B * _TILE * n), not O(B * n^2).  Up to _TILE
rows the single tile is the whole Gram matrix.  OpenBLAS is pinned to one
thread, so the bits do not depend on the host's BLAS setting.
"""

from __future__ import annotations

import numpy as np

from ._parallel import blas_pin

__all__ = ["pairwise_reduce"]

# rows per Gram tile: bounds the extra memory at _TILE * n floats per sample
_TILE = 256


def pairwise_reduce(stack: np.ndarray) -> np.ndarray:
    """(sum, sum of squares, max abs) of inner products over row pairs i < j,
    one row of the (B, 3) result per sample of the (B, n, p) stack."""
    count, n = stack.shape[:2]
    out = np.empty((count, 3))
    space = np.empty(count * min(n, _TILE) * n)  # one tile per sample; the first is the widest
    sum_sq, max_abs = 0.0, 0.0
    with blas_pin:
        s = stack.sum(axis=1)
        out[:, 0] = ((s[:, None, :] @ s[:, :, None])[:, 0, 0] - n) / 2.0
        for i in range(0, n, _TILE):
            rows = stack[:, i : i + _TILE]
            b, width = rows.shape[1], n - i
            # a C-contiguous view: into a strided `out` the product rounds differently
            tile = space[: count * b * width].reshape(count, b, width)
            np.matmul(rows, stack[:, i:].transpose(0, 2, 1), out=tile)
            # the leading b x b block is symmetric with a unit diagonal: its pairs give
            # (sum - b) / 2; einsum runs sample by sample, since over a stack it sums in
            # chunks, in another order
            sum_sq = sum_sq + np.array(
                [(float(np.einsum("ij,ij->", g[:, :b], g[:, :b])) - b) / 2.0 for g in tile]
            )
            if b < width:
                sum_sq = sum_sq + np.array(
                    [float(np.einsum("ij,ij->", g[:, b:], g[:, b:])) for g in tile]
                )
            tile.reshape(count, -1)[:, :: width + 1] = 0.0  # each leading block's diagonal
            # np.maximum, unlike the builtin max, propagates a NaN from any tile
            max_abs = np.maximum(max_abs, np.abs(tile, out=tile).max(axis=(1, 2)))
    out[:, 1] = sum_sq
    out[:, 2] = max_abs
    return out
