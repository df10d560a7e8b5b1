"""The three uniformity statistics and their min-p combination.

For a sample X_1..X_n on S^{p-1} with pairwise inner products g_ij:

    rayleigh = sqrt(2p)/n * sum_{i<j} g_ij
    bingham  = p/n * sum_{i<j} (g_ij^2 - 1/p)
    packing  = p * max_{i<j} g_ij^2 - 4*log(n) + log(log(n))

All three reject in the upper tail.  The combination test rejects when
the smallest of the three upper-tail p-values drops below
1 - (1-level)^(1/3), which is level-exact under asymptotic independence:
Tippett's min-p rule with a Sidak cutoff.  It keeps the name "fisher" in
its outputs.

The statistics work elementwise on a PairwiseSummary whose reductions are
floats (one sample) or (R,) arrays (R Monte Carlo replications), and
``evaluate_tests`` is the one path from reductions to p-values and
rejections for both ``run_all_tests`` and the replication engine.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels, nulldist
from .nulldist import NullLaw
from .sampling import SphericalSample

__all__ = [
    "TEST_NAMES",
    "PairwiseSummary",
    "TestOutcome",
    "TestArrays",
    "pairwise_summary",
    "rayleigh_statistic",
    "bingham_statistic",
    "packing_statistic",
    "fisher_combination",
    "fisher_threshold",
    "evaluate_tests",
    "run_all_tests",
]

TEST_NAMES = ("rayleigh", "bingham", "packing", "fisher")


@dataclass(frozen=True)
class PairwiseSummary:
    """Reductions over all row pairs i < j, shared by the three statistics.

    Each reduction is a float for one sample, or an (R,) array holding one
    entry per replication of R samples of the same shape.
    """

    n: int
    p: int
    sum_inner: float | np.ndarray
    sum_inner_sq: float | np.ndarray
    max_abs_inner: float | np.ndarray


@dataclass(frozen=True)
class TestOutcome:
    test: str  # "rayleigh" | "bingham" | "packing" | "fisher"
    statistic: float
    p_value: float
    reject: bool
    level: float


class TestArrays(NamedTuple):
    """One test's results, elementwise over a summary's reductions."""

    statistic: float | np.ndarray
    p_value: float | np.ndarray
    reject: bool | np.ndarray


def pairwise_summary(sample: SphericalSample) -> PairwiseSummary:
    """Reduce all row pairs i < j, one chunk of at most 256 x 1024 Gram entries at a time.

    The chunks run one after another in the calling thread, with OpenBLAS
    pinned to one thread.
    """
    if sample.n < 2:
        raise ValueError("pairwise statistics need n >= 2")
    s1, s2, m = _kernels.pairwise_reduce(sample.rows[None])[0].tolist()
    return PairwiseSummary(
        n=sample.n, p=sample.p, sum_inner=s1, sum_inner_sq=s2, max_abs_inner=m
    )


def rayleigh_statistic(summary: PairwiseSummary) -> float | np.ndarray:
    return math.sqrt(2.0 * summary.p) / summary.n * summary.sum_inner


def bingham_statistic(summary: PairwiseSummary) -> float | np.ndarray:
    n, p = summary.n, summary.p
    # p/n * sum (g^2 - 1/p) = p/n * sum_inner_sq - (n-1)/2
    return p / n * summary.sum_inner_sq - (n - 1) / 2.0


def packing_statistic(summary: PairwiseSummary) -> float | np.ndarray:
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


# the three component tests: statistic and the null law of its p-value
_COMPONENTS = (
    ("rayleigh", rayleigh_statistic, NullLaw.STANDARD_NORMAL),
    ("bingham", bingham_statistic, NullLaw.STANDARD_NORMAL),
    ("packing", packing_statistic, NullLaw.PACKING_GUMBEL),
)


def fisher_threshold(level: float) -> float:
    """Cutoff for the smallest p-value: 1 - (1-level)^(1/3)."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    return 1.0 - (1.0 - level) ** (1.0 / 3.0)


def _fisher(p_rayleigh, p_bingham, p_packing, level: float) -> TestArrays:
    c = np.minimum(np.minimum(p_rayleigh, p_bingham), p_packing)
    # cube by products: numpy's vectorized pow may round differently from its scalar pow
    q = 1.0 - c
    combined = np.minimum(np.maximum(1.0 - q * q * q, 0.0), 1.0)
    return TestArrays(statistic=c, p_value=combined, reject=c <= fisher_threshold(level))


def fisher_combination(
    p_rayleigh: float, p_bingham: float, p_packing: float, level: float
) -> TestOutcome:
    """Combine three upper-tail p-values through their minimum.

    Rejects when min(p) <= 1 - (1-level)^(1/3).  The reported p-value is
    1 - (1-min)^3, the Sidak-style transform that makes "p <= level"
    equivalent to the threshold rule.  This is Tippett's min-p rule, not
    Fisher's -2 * sum(log p); the name and the "fisher" test label are kept
    so that artifacts stay stable.
    """
    ps = (float(p_rayleigh), float(p_bingham), float(p_packing))
    for q in ps:
        if not 0.0 <= q <= 1.0 or math.isnan(q):
            raise ValueError(f"p-values must lie in [0, 1], got {q}")
    c, combined, reject = _fisher(*ps, level)
    return TestOutcome(
        test="fisher",
        statistic=float(c),
        p_value=float(combined),
        reject=bool(reject),
        level=float(level),
    )


def _check_request(n: int, p: int, level: float) -> None:
    """Reject a shape or level that `evaluate_tests` cannot score: the one check of both."""
    # the combined test needs the packing p-value, which needs n >= 3
    if n < 3 or p < 1:
        raise ValueError("need n >= 3 and p >= 1")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")


def evaluate_tests(summary: PairwiseSummary, level: float) -> dict[str, TestArrays]:
    """Statistic, p-value and rejection of all four tests, in TEST_NAMES order.

    Elementwise over the summary's reductions.
    """
    _check_request(summary.n, summary.p, level)
    out: dict[str, TestArrays] = {}
    for name, statistic, law in _COMPONENTS:
        stat = statistic(summary)
        p = nulldist.upper_p_value(law, stat)
        out[name] = TestArrays(statistic=stat, p_value=p, reject=p <= level)
    out["fisher"] = _fisher(*(r.p_value for r in out.values()), level)
    return out


def run_all_tests(sample: SphericalSample, level: float = 0.05) -> list[TestOutcome]:
    """Compute all four test outcomes from one pairwise pass."""
    results = evaluate_tests(pairwise_summary(sample), level)
    return [
        TestOutcome(
            test=name,
            statistic=float(r.statistic),
            p_value=float(r.p_value),
            reject=bool(r.reject),
            level=level,
        )
        for name, r in results.items()
    ]
