"""Null distributions of the three test statistics.

The Rayleigh and Bingham statistics are asymptotically standard normal;
the packing statistic follows a Gumbel-type law with CDF

    G(x) = exp(-(8*pi)**-0.5 * exp(-x/2)).

All three tests reject in the upper tail, so p-values are survival
probabilities.  ``stats`` scores each test through a ``p_value(statistic,
n, p)``; the two here, ``normal_p_value`` and ``gumbel_p_value``, are limit
laws that read neither n nor p, and ``upper_p_value(law, statistic)`` picks
one by law.  The normal CDF goes through the complementary error function
(scipy's ``ndtr``/``ndtri``), which stays accurate deep in both tails; the
Gumbel law has closed forms throughout.

``cdf`` and the p-values work elementwise: a scalar argument gives a
float, an array gives an array.  Scalars go through the same numpy code
as arrays, so a p-value computed for one sample is bit-identical to the
same entry of a vectorized Monte Carlo run.
"""

from __future__ import annotations

import enum
import math

import numpy as np
from scipy.special import ndtr, ndtri

from .sampling import _check_real

__all__ = ["NullLaw", "cdf", "quantile", "upper_p_value", "GUMBEL_RATE",
           "normal_p_value", "gumbel_p_value"]

# (8*pi)**-0.5, the rate constant in front of exp(-x/2)
GUMBEL_RATE = 1.0 / math.sqrt(8.0 * math.pi)

# exp(-x/2) overflows float64 below x ~ -1420, where the Gumbel CDF is 0;
# clamping the exponent here gives exactly 0 (cdf) and 1 (p-value) there
_MAX_EXPONENT = 700.0


class NullLaw(enum.Enum):
    STANDARD_NORMAL = "standard_normal"
    PACKING_GUMBEL = "packing_gumbel"


def _as_array(x, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if np.isnan(x).any():
        raise ValueError(f"{what} must not be NaN")
    return x


def _unwrap(values: np.ndarray) -> float | np.ndarray:
    """A float for a 0-d result (scalar argument), else the array itself."""
    return float(values) if values.ndim == 0 else values


def _gumbel_tail_term(x: np.ndarray) -> np.ndarray:
    """GUMBEL_RATE * exp(-x/2), so that G(x) = exp(-term)."""
    return GUMBEL_RATE * np.exp(np.minimum(-0.5 * x, _MAX_EXPONENT))


def cdf(law: NullLaw, x):
    """P(statistic <= x) under the null law."""
    values = _as_array(x, "x")
    if law is NullLaw.STANDARD_NORMAL:
        return _unwrap(ndtr(values))
    return _unwrap(np.exp(-_gumbel_tail_term(values)))


def quantile(law: NullLaw, u: float) -> float:
    """Inverse CDF on (0, 1); `u` must be a real number (`_check_real`)."""
    _check_real(u=u)
    u = float(u)  # ndtri would take a numpy float32 at its own precision, and refuse a Fraction
    if not 0.0 < u < 1.0:
        raise ValueError(f"quantile argument must lie in (0, 1), got {u}")
    if law is NullLaw.STANDARD_NORMAL:
        return float(ndtri(u))
    return -2.0 * math.log(-math.log(u) / GUMBEL_RATE)


def normal_p_value(statistic, n: int, p: int):
    """Upper-tail p-value under N(0, 1), in [0, 1]; reads neither n nor p."""
    return _unwrap(ndtr(-_as_array(statistic, "statistic")))


def gumbel_p_value(statistic, n: int, p: int):
    """Upper-tail p-value under the packing Gumbel law, in [0, 1]; reads neither n nor p."""
    # 1 - exp(-term) via expm1 keeps precision when G is near 1, and term >= 0 keeps it in [0, 1]
    return _unwrap(-np.expm1(-_gumbel_tail_term(_as_array(statistic, "statistic"))))


def upper_p_value(law: NullLaw, statistic):
    """Upper-tail p-value 1 - cdf(law, statistic) in [0, 1], by the law's row function."""
    p_value = normal_p_value if law is NullLaw.STANDARD_NORMAL else gumbel_p_value
    return p_value(statistic, n=None, p=None)
