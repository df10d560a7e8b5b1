"""Pairwise inner-product reduction.

Reduces all row pairs i < j of each (n, p) sample in a (B, n, p) stack of
unit rows to the sum of inner products, the sum of squared inner products
and the largest absolute inner product.  One loop reduces the Gram
matrices in row tiles rows[:, i:i+_TILE] @ rows[:, j:j+_CHUNK].T for j >= i
into one reused buffer, so extra memory is at most B * _TILE * _CHUNK
floats (2 MiB a sample) whatever n is, not O(B * n^2).  Up to _CHUNK columns
a tile is one chunk, so up to n = _CHUNK the reductions take the same
operations whatever _CHUNK is, and up to _TILE rows the single tile is the
whole Gram matrix.  OpenBLAS is pinned to one thread, so the bits do not
depend on the host's BLAS setting.
"""

from __future__ import annotations

import numpy as np

from ._parallel import blas_pin

__all__ = ["pairwise_reduce"]

# rows per Gram tile, and columns per chunk of a tile: extra memory is at most
# _TILE * _CHUNK floats per sample
_TILE = 256
_CHUNK = 1024


def _sum_sq(tile: np.ndarray) -> np.ndarray:
    # einsum runs sample by sample, since over a stack it sums in chunks, in another order
    return np.array([float(np.einsum("ij,ij->", g, g)) for g in tile])


def pairwise_reduce(stack: np.ndarray) -> np.ndarray:
    """(sum, sum of squares, max abs) of inner products over row pairs i < j,
    one row of the (B, 3) result per sample of the (B, n, p) stack."""
    count, n = stack.shape[:2]
    out = np.empty((count, 3))
    # one chunk per sample; the first tile's first chunk is the largest
    space = np.empty(count * min(n, _TILE) * min(n, _CHUNK))
    sum_sq, max_abs = 0.0, 0.0
    with blas_pin:
        s = stack.sum(axis=1)
        out[:, 0] = ((s[:, None, :] @ s[:, :, None])[:, 0, 0] - n) / 2.0
        for i in range(0, n, _TILE):
            rows = stack[:, i : i + _TILE]
            b = rows.shape[1]
            for j in range(i, n, _CHUNK):
                width = min(_CHUNK, n - j)
                # a C-contiguous view: into a strided `out` the product rounds differently
                tile = space[: count * b * width].reshape(count, b, width)
                np.matmul(rows, stack[:, j : j + width].transpose(0, 2, 1), out=tile)
                if j == i:
                    # the leading b x b block is symmetric with a unit diagonal: its
                    # pairs give (sum - b) / 2
                    sum_sq = sum_sq + (_sum_sq(tile[:, :, :b]) - b) / 2.0
                    if b < width:
                        sum_sq = sum_sq + _sum_sq(tile[:, :, b:])
                    tile.reshape(count, -1)[:, :: width + 1] = 0.0  # the leading block's diagonal
                else:
                    sum_sq = sum_sq + _sum_sq(tile)
                # np.maximum, unlike the builtin max, propagates a NaN from any tile
                max_abs = np.maximum(max_abs, np.abs(tile, out=tile).max(axis=(1, 2)))
    out[:, 1] = sum_sq
    out[:, 2] = max_abs
    return out
