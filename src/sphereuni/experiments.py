"""Seeded Monte Carlo experiments: size/power tables and asymptotic diagnostics.

Every table cell and every diagnostic is an ExperimentPlan, which
validates the whole request before one engine runs it.  The engine is
summary-first.  Replication i draws its sample from the stream
(master_seed, i) and keeps only the kernel's three pairwise reductions
(sum, sum of squares, max |g|) as row i of an (R, 3) array.  Statistics,
p-values and rejections of the plan's tests are then computed once,
vectorized over replications, through the same ``stats.evaluate_tests``
that ``run_all_tests`` uses for a single sample.

Replications run serially.  On a 2-vCPU host a thread pool made a
size-table cell slower at OpenBLAS's default thread count, so the
``threads`` argument is validated but has no effect on how the loop runs;
results are therefore identical for every requested count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy import stats as scipy_stats

from . import _kernels
from .sampling import (
    AlternativeModel,
    HeavyTailMarginal,
    SeedSpec,
    sample_from_model,
)
from .stats import TEST_NAMES, PairwiseSummary, TestArrays, _check_request, evaluate_tests

__all__ = [
    "TEST_NAMES",
    "TABLE1_SCENARIOS",
    "POWER_MARGINALS",
    "ExperimentPlan",
    "TestAggregate",
    "ExperimentResult",
    "DiagnosticReport",
    "run_rejection_experiment",
    "run_rayleigh_blindness_diagnostic",
    "run_bingham_scaling_diagnostic",
    "run_packing_lln_diagnostic",
    "run_independence_diagnostic",
    "run_fvml_packing_blindness",
    "fvml_kappa",
]

# scenario triple from the published size table
TABLE1_SCENARIOS = ((80, 40), (100, 100), (100, 120))

POWER_MARGINALS = (
    HeavyTailMarginal.centered_chisq1(),
    HeavyTailMarginal.cauchy(),
    HeavyTailMarginal.student_t(1.5),
)

_QUANTILE_KEYS = (("q05", 0.05), ("q50", 0.50), ("q95", 0.95))


@dataclass(frozen=True)
class ExperimentPlan:
    n: int
    p: int
    model: AlternativeModel
    replications: int
    level: float = 0.05
    master_seed: int = 0
    tests: tuple[str, ...] = TEST_NAMES

    def __post_init__(self) -> None:
        if self.n < 2 or self.p < 1:
            raise ValueError("need n >= 2 and p >= 1")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        SeedSpec(self.master_seed)  # a bad seed is a usage error, not a failed replication
        _check_request(self.n, self.level, self.tests)


@dataclass(frozen=True)
class TestAggregate:
    rejections: int
    rate: float
    standard_error: float
    stat_mean: float
    stat_sd: float
    stat_quantiles: dict[str, float]


@dataclass(frozen=True)
class ExperimentResult:
    plan: ExperimentPlan
    replications_completed: int
    per_test: dict[str, TestAggregate]


@dataclass(frozen=True)
class DiagnosticReport:
    """Named scalar metrics from one diagnostic run."""

    kind: str
    metrics: dict[str, float]

    def __post_init__(self) -> None:
        for key, value in self.metrics.items():
            if not math.isfinite(value):
                raise ValueError(f"diagnostic metric {key} is not finite: {value}")


def _resolve_workers(threads: int) -> int:
    """Workers actually used for a requested thread count: always 1."""
    if threads < 0:
        raise ValueError("threads must be >= 0")
    return 1


def _simulate(
    plan: ExperimentPlan, threads: int, seed_offset: int = 0
) -> tuple[PairwiseSummary, dict[str, TestArrays]]:
    """Pairwise reductions of the plan's replications seed_offset .. seed_offset+R-1
    as (R,) arrays, and the plan's tests scored on them."""
    _resolve_workers(threads)  # a negative count is a usage error
    n, p = plan.n, plan.p
    reductions = np.empty((plan.replications, 3))
    for k in range(plan.replications):
        index = seed_offset + k
        try:
            sample = sample_from_model(plan.model, n, p, SeedSpec(plan.master_seed, index))
            reductions[k] = _kernels.pairwise_reduce(sample.rows)
        except Exception as exc:
            raise RuntimeError(f"replication {index} failed: {exc}") from exc

    bad = np.flatnonzero(~np.isfinite(reductions).all(axis=1))
    if bad.size:
        k = int(bad[0])
        raise RuntimeError(
            f"replication {seed_offset + k} failed: "
            f"pairwise reductions {reductions[k].tolist()} are not finite"
        )
    summary = PairwiseSummary(
        n=n, p=p, sum_inner=reductions[:, 0], sum_inner_sq=reductions[:, 1],
        max_abs_inner=reductions[:, 2],
    )
    return summary, evaluate_tests(summary, plan.level, plan.tests)


def _aggregate(statistic: np.ndarray, reject: np.ndarray) -> TestAggregate:
    reps = reject.size
    k = int(reject.sum())
    rate = k / reps
    quantiles = {
        key: float(np.quantile(statistic, q)) for key, q in _QUANTILE_KEYS
    }
    return TestAggregate(
        rejections=k,
        rate=rate,
        standard_error=math.sqrt(rate * (1.0 - rate) / reps),
        stat_mean=float(statistic.mean()),
        stat_sd=float(statistic.std(ddof=1)) if reps > 1 else 0.0,
        stat_quantiles=quantiles,
    )


def run_rejection_experiment(plan: ExperimentPlan, threads: int = 0) -> ExperimentResult:
    """Monte Carlo rejection rates for the planned tests.

    Replication i draws from its own stream (master_seed, i), so the result
    depends only on the plan; ``threads`` is validated and otherwise unused.
    """
    _, results = _simulate(plan, threads)
    per_test = {
        name: _aggregate(results[name].statistic, results[name].reject)
        for name in plan.tests
    }
    return ExperimentResult(
        plan=plan, replications_completed=plan.replications, per_test=per_test
    )


def _require_symmetric(marginal: HeavyTailMarginal, what: str) -> None:
    if not marginal.is_symmetric:
        raise ValueError(f"{what} requires a symmetric marginal, got {marginal.kind}")


def _require_tail_index(marginal: HeavyTailMarginal, what: str) -> float:
    alpha = marginal.tail_index
    if alpha is None:
        raise ValueError(f"{what} needs a regular-variation index in (0, 2)")
    return alpha


def run_rayleigh_blindness_diagnostic(
    n: int,
    p: int,
    marginal: HeavyTailMarginal,
    replications: int,
    master_seed: int,
    level: float = 0.05,
    threads: int = 0,
) -> DiagnosticReport:
    """How close the mean-direction statistic stays to N(0,1) under the
    symmetric heavy-tailed alternative (where it is asymptotically blind)."""
    _require_symmetric(marginal, "rayleigh blindness diagnostic")
    plan = ExperimentPlan(
        n=n, p=p, model=AlternativeModel.alpha_spherical(marginal), replications=replications,
        level=level, master_seed=master_seed, tests=("rayleigh",),
    )
    _, results = _simulate(plan, threads)
    values = results["rayleigh"].statistic
    ks = scipy_stats.kstest(values, "norm")
    return DiagnosticReport(
        kind="rayleigh-blindness",
        metrics={
            "ks_distance": float(ks.statistic),
            "ks_pvalue": float(ks.pvalue),
            "rejection_rate": float(results["rayleigh"].reject.mean()),
            "stat_mean": float(values.mean()),
            "stat_sd": float(values.std(ddof=1)),
        },
    )


def run_bingham_scaling_diagnostic(
    n: int,
    p: int,
    marginal: HeavyTailMarginal,
    replications: int,
    master_seed: int,
    level: float = 0.05,
    threads: int = 0,
) -> DiagnosticReport:
    """Spread of sqrt(n)/p times the axial statistic against its
    heavy-tailed limit sd (2-alpha)/sqrt(8*gamma) with gamma = p/n."""
    _require_symmetric(marginal, "bingham scaling diagnostic")
    alpha = _require_tail_index(marginal, "bingham scaling diagnostic")
    gamma = p / n
    plan = ExperimentPlan(
        n=n, p=p, model=AlternativeModel.alpha_spherical(marginal), replications=replications,
        level=level, master_seed=master_seed, tests=("bingham",),
    )
    _, results = _simulate(plan, threads)
    scaled = math.sqrt(n) / p * results["bingham"].statistic
    theoretical_sd = (2.0 - alpha) / math.sqrt(8.0 * gamma)
    empirical_sd = float(scaled.std(ddof=1))
    return DiagnosticReport(
        kind="bingham-scaling",
        metrics={
            "alpha": alpha,
            "gamma": gamma,
            "empirical_mean": float(scaled.mean()),
            "empirical_sd": empirical_sd,
            "theoretical_sd": theoretical_sd,
            "sd_ratio": empirical_sd / theoretical_sd,
            "rejection_rate": float(results["bingham"].reject.mean()),
        },
    )


def run_packing_lln_diagnostic(
    n: int,
    p: int,
    model: AlternativeModel | HeavyTailMarginal,
    replications: int,
    master_seed: int,
    level: float = 0.05,
    threads: int = 0,
) -> DiagnosticReport:
    """Location of the largest absolute inner product: near 1 under
    heavy tails, near sqrt(4 log n / p) under uniformity.

    Accepts a bare marginal (wrapped as its spherical projection) or any
    AlternativeModel, so the uniform reference runs through the same path.
    """
    if isinstance(model, HeavyTailMarginal):
        model = AlternativeModel.alpha_spherical(model)
    plan = ExperimentPlan(
        n=n, p=p, model=model, replications=replications, level=level,
        master_seed=master_seed, tests=("packing",),
    )
    summary, results = _simulate(plan, threads)
    max_abs = summary.max_abs_inner
    return DiagnosticReport(
        kind="packing-lln",
        metrics={
            "median_max_abs_inner": float(np.quantile(max_abs, 0.5)),
            "q10_max_abs_inner": float(np.quantile(max_abs, 0.1)),
            "null_max_reference": math.sqrt(4.0 * math.log(n) / p),
            "packing_rate": float(results["packing"].reject.mean()),
        },
    )


def run_independence_diagnostic(
    n: int,
    p: int,
    replications: int,
    level: float,
    master_seed: int,
    threads: int = 0,
) -> DiagnosticReport:
    """Pairwise correlations and the joint-below-medians probability of
    the three statistics under uniformity, plus the combined test's size."""
    plan = ExperimentPlan(
        n=n, p=p, model=AlternativeModel.uniform(), replications=replications, level=level,
        master_seed=master_seed,
    )
    if p < 5.0 * math.log(n) ** 2:
        warnings.warn(
            f"independence diagnostic at p={p}, n={n}: the asymptotic regime "
            f"expects p well above (log n)^2 = {math.log(n) ** 2:.1f}",
            stacklevel=2,
        )
    _, results = _simulate(plan, threads)
    r = results["rayleigh"].statistic
    b = results["bingham"].statistic
    pk = results["packing"].statistic
    below = [(v <= np.quantile(v, 0.5)) for v in (r, b, pk)]
    joint = float((below[0] & below[1] & below[2]).mean())
    return DiagnosticReport(
        kind="independence",
        metrics={
            "corr_rb": float(np.corrcoef(r, b)[0, 1]),
            "corr_rp": float(np.corrcoef(r, pk)[0, 1]),
            "corr_bp": float(np.corrcoef(b, pk)[0, 1]),
            "joint_at_medians": joint,
            "joint_vs_product_gap": abs(joint - 0.125),
            "fisher_size": float(results["fisher"].reject.mean()),
        },
    )


def fvml_kappa(n: int, p: int, tau: float) -> float:
    """Concentration tau * p^(3/4) / sqrt(n), the detection-boundary rate."""
    return tau * p**0.75 / math.sqrt(n)


def run_fvml_packing_blindness(
    n: int,
    p: int,
    tau: float,
    replications: int,
    master_seed: int,
    level: float = 0.05,
    threads: int = 0,
) -> DiagnosticReport:
    """Packing vs Rayleigh behaviour at the FvML detection boundary.

    Draws FvML samples at kappa = tau * p^(3/4)/sqrt(n) with a fresh
    random direction each replication, plus a matched uniform run with
    disjoint streams.  At this rate the packing test should keep its
    null rejection rate while the mean-direction test gains power.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if p < 2:
        raise ValueError("need p >= 2")
    kappa = fvml_kappa(n, p, tau)
    plan = ExperimentPlan(
        n=n, p=p, model=AlternativeModel.fvml(kappa), replications=replications, level=level,
        master_seed=master_seed, tests=("rayleigh", "packing"),
    )
    _, alt = _simulate(plan, threads)
    null_plan = replace(plan, model=AlternativeModel.uniform())
    _, null = _simulate(null_plan, threads, seed_offset=replications)
    packing_rate = float(alt["packing"].reject.mean())
    packing_rate_null = float(null["packing"].reject.mean())
    ks = scipy_stats.ks_2samp(alt["packing"].statistic, null["packing"].statistic)
    return DiagnosticReport(
        kind="fvml-blindness",
        metrics={
            "kappa": kappa,
            "packing_rate": packing_rate,
            "packing_rate_null": packing_rate_null,
            "packing_rate_gap": abs(packing_rate - packing_rate_null),
            "rayleigh_rate": float(alt["rayleigh"].reject.mean()),
            "rayleigh_rate_null": float(null["rayleigh"].reject.mean()),
            "ks_distance_packing_vs_null": float(ks.statistic),
            "ks_pvalue_packing_vs_null": float(ks.pvalue),
        },
    )
