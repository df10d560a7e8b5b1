"""The three uniformity statistics and their Fisher-style combination.

For a sample X_1..X_n on S^{p-1} with pairwise inner products g_ij:

    rayleigh = sqrt(2p)/n * sum_{i<j} g_ij
    bingham  = p/n * sum_{i<j} (g_ij^2 - 1/p)
    packing  = p * max_{i<j} g_ij^2 - 4*log(n) + log(log(n))

All three reject in the upper tail.  The combination test rejects when
the smallest of the three upper-tail p-values drops below
1 - (1-level)^(1/3), which is level-exact under asymptotic independence.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from . import _kernels, nulldist
from .nulldist import NullLaw
from .sampling import SphericalSample

__all__ = [
    "PairwiseSummary",
    "TestOutcome",
    "pairwise_summary",
    "rayleigh_statistic",
    "bingham_statistic",
    "packing_statistic",
    "fisher_combination",
    "fisher_threshold",
    "run_all_tests",
]


@dataclass(frozen=True)
class PairwiseSummary:
    """Reductions over all row pairs i < j, shared by the three statistics."""

    n: int
    p: int
    sum_inner: float
    sum_inner_sq: float
    max_abs_inner: float


@dataclass(frozen=True)
class TestOutcome:
    test: str  # "rayleigh" | "bingham" | "packing" | "fisher"
    statistic: float
    p_value: float
    reject: bool
    level: float


def pairwise_summary(sample: SphericalSample) -> PairwiseSummary:
    """Reduce all row pairs i < j; beyond 256 rows the Gram matrix is tiled."""
    if sample.n < 2:
        raise ValueError("pairwise statistics need n >= 2")
    s1, s2, m = _kernels.pairwise_reduce(sample.rows)
    return PairwiseSummary(
        n=sample.n, p=sample.p, sum_inner=s1, sum_inner_sq=s2, max_abs_inner=m
    )


def rayleigh_statistic(summary: PairwiseSummary) -> float:
    return math.sqrt(2.0 * summary.p) / summary.n * summary.sum_inner


def bingham_statistic(summary: PairwiseSummary) -> float:
    n, p = summary.n, summary.p
    # p/n * sum (g^2 - 1/p) = p/n * sum_inner_sq - (n-1)/2
    return p / n * summary.sum_inner_sq - (n - 1) / 2.0


def packing_statistic(summary: PairwiseSummary) -> float:
    n = summary.n
    if n < 2:
        raise ValueError("packing statistic needs n >= 2")
    if n == 2:
        warnings.warn(
            "packing statistic at n=2 is algebraically defined but its "
            "Gumbel null is meaningless",
            stacklevel=2,
        )
    m = summary.max_abs_inner
    return summary.p * m * m - 4.0 * math.log(n) + math.log(math.log(n))


def fisher_threshold(level: float) -> float:
    """Cutoff for the smallest p-value: 1 - (1-level)^(1/3)."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    return 1.0 - (1.0 - level) ** (1.0 / 3.0)


def fisher_combination(
    p_rayleigh: float, p_bingham: float, p_packing: float, level: float
) -> TestOutcome:
    """Combine three upper-tail p-values through their minimum.

    Rejects when min(p) <= 1 - (1-level)^(1/3).  The reported p-value is
    1 - (1-min)^3, the Sidak-style transform that makes "p <= level"
    equivalent to the threshold rule.
    """
    ps = (float(p_rayleigh), float(p_bingham), float(p_packing))
    for q in ps:
        if not 0.0 <= q <= 1.0 or math.isnan(q):
            raise ValueError(f"p-values must lie in [0, 1], got {q}")
    threshold = fisher_threshold(level)
    c = min(ps)
    combined = min(1.0, max(0.0, 1.0 - (1.0 - c) ** 3))
    return TestOutcome(
        test="fisher",
        statistic=c,
        p_value=combined,
        reject=c <= threshold,
        level=float(level),
    )


def run_all_tests(sample: SphericalSample, level: float = 0.05) -> list[TestOutcome]:
    """Compute all four test outcomes from one pairwise pass."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    if sample.n < 3:
        raise ValueError("run_all_tests needs n >= 3")
    summary = pairwise_summary(sample)

    outcomes: list[TestOutcome] = []
    p_values = {}
    for name, law, stat in (
        ("rayleigh", NullLaw.STANDARD_NORMAL, rayleigh_statistic(summary)),
        ("bingham", NullLaw.STANDARD_NORMAL, bingham_statistic(summary)),
        ("packing", NullLaw.PACKING_GUMBEL, packing_statistic(summary)),
    ):
        p = nulldist.upper_p_value(law, stat)
        p_values[name] = p
        outcomes.append(
            TestOutcome(test=name, statistic=stat, p_value=p, reject=p <= level, level=level)
        )
    outcomes.append(
        fisher_combination(p_values["rayleigh"], p_values["bingham"], p_values["packing"], level)
    )
    return outcomes
