"""The three uniformity statistics and their min-p combination.

For a sample X_1..X_n on S^{p-1} with pairwise inner products g_ij:

    rayleigh = sqrt(2p)/n * sum_{i<j} g_ij
    bingham  = p/n * sum_{i<j} (g_ij^2 - 1/p)
    packing  = p * max_{i<j} g_ij^2 - 4*log(n) + log(log(n))

All three reject in the upper tail.  Each is a ``_COMPONENTS`` row (name,
statistic, p_value), whose ``p_value(statistic, n, p)`` is the upper tail
of the test's null law; the default laws (``nulldist``) read neither n nor
p.  The combination test rejects when the smallest of the three p-values
drops below 1 - (1-level)^(1/3), which is level-exact under asymptotic
independence: Tippett's min-p rule with a Sidak cutoff.  It keeps the name
"fisher" in its outputs.

The statistics work elementwise on a PairwiseSummary whose reductions are
floats (one sample) or (R,) arrays (R Monte Carlo replications), and
``evaluate_tests`` is the one path from reductions to p-values and
rejections for both ``run_all_tests`` and the replication engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels, nulldist
from .sampling import SphericalSample, _check_integers, _check_real

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
    """One test's result on one sample.  It owns its numbers: statistic, p_value
    and level are stored as the float64 of `_check_real`, and reject as a bool, so
    a numpy scalar given here is kept as the Python value it equals."""

    test: str  # "rayleigh" | "bingham" | "packing" | "fisher"
    statistic: float
    p_value: float
    reject: bool
    level: float

    def __post_init__(self) -> None:
        for name in ("statistic", "p_value", "level"):
            object.__setattr__(self, name, _check_real(name, getattr(self, name)))
        object.__setattr__(self, "reject", bool(self.reject))


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
    n, m = summary.n, summary.max_abs_inner
    return summary.p * m * m - 4.0 * math.log(n) + math.log(math.log(n))


# the three component tests: statistic and p_value(statistic, n, p) under its null law
_COMPONENTS = (
    ("rayleigh", rayleigh_statistic, nulldist.normal_p_value),
    ("bingham", bingham_statistic, nulldist.normal_p_value),
    ("packing", packing_statistic, nulldist.gumbel_p_value),
)


def _check_level(level: float) -> float:
    """The one level rule of a request: the float64 of `_check_real`, with
    0 < level < 1, which also refuses NaN.  Returns that float64."""
    level = _check_real("level", level)
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    return level


def fisher_threshold(level: float) -> float:
    """Cutoff for the smallest p-value: 1 - (1-level)^(1/3), as -expm1(log1p(-level)/3)
    so that a tiny level keeps its digits instead of cancelling to 0.  A level
    outside (0, 1) is refused by `_check_level`."""
    level = _check_level(level)
    return -math.expm1(math.log1p(-level) / 3.0)


def _fisher(p_rayleigh, p_bingham, p_packing, level: float) -> TestArrays:
    c = np.minimum(np.minimum(p_rayleigh, p_bingham), p_packing)
    # 1 - (1-c)^3 without cancellation: a p-value of 1e-17 stays 3e-17, not 0;
    # c = 1 takes log1p(-1) = -inf, which gives exactly 1
    with np.errstate(divide="ignore"):
        combined = -np.expm1(3.0 * np.log1p(-c))
    return TestArrays(statistic=c, p_value=combined, reject=c <= fisher_threshold(level))


def fisher_combination(
    p_rayleigh: float, p_bingham: float, p_packing: float, level: float
) -> TestOutcome:
    """Combine three upper-tail p-values through their minimum.

    Rejects when min(p) <= 1 - (1-level)^(1/3).  The reported p-value is
    1 - (1-min)^3, the Sidak-style transform that makes "p <= level"
    equivalent to the threshold rule, computed as -expm1(3*log1p(-min)) so
    that a tiny min keeps its digits (min = 1e-17 gives 3e-17, not 0).
    This is Tippett's min-p rule, not Fisher's -2 * sum(log p); the name and
    the "fisher" test label are kept so that artifacts stay stable.
    """
    ps = (_check_real("p_rayleigh", p_rayleigh), _check_real("p_bingham", p_bingham),
          _check_real("p_packing", p_packing))
    for q in ps:
        if not 0.0 <= q <= 1.0:  # also refuses NaN
            raise ValueError(f"p-values must lie in [0, 1], got {q}")
    level = _check_level(level)
    return TestOutcome("fisher", *_fisher(*ps, level), level=level)


def _check_request(n: int, p: int, level: float) -> float:
    """Reject a shape or level that `evaluate_tests` cannot score: the one shape check
    of a scored request, and `_check_level`, whose float64 it returns."""
    _check_integers(n=n, p=p)
    # the combined test needs the packing p-value, which needs n >= 3
    if n < 3 or p < 1:
        raise ValueError("need n >= 3 and p >= 1")
    return _check_level(level)


def evaluate_tests(summary: PairwiseSummary, level: float) -> dict[str, TestArrays]:
    """Statistic, p-value and rejection of all four tests, in TEST_NAMES order.

    Elementwise over the summary's reductions.
    """
    level = _check_request(summary.n, summary.p, level)
    out: dict[str, TestArrays] = {}
    for name, statistic, p_value in _COMPONENTS:
        stat = statistic(summary)
        p = p_value(stat, summary.n, summary.p)
        out[name] = TestArrays(statistic=stat, p_value=p, reject=p <= level)
    out["fisher"] = _fisher(*(r.p_value for r in out.values()), level)
    return out


def run_all_tests(sample: SphericalSample, level: float = 0.05) -> list[TestOutcome]:
    """Compute all four test outcomes from one pairwise pass."""
    level = _check_request(sample.n, sample.p, level)  # before the O(n^2 p) kernel, not after it
    results = evaluate_tests(pairwise_summary(sample), level)
    return [TestOutcome(name, *r, level=level) for name, r in results.items()]
