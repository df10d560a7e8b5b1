"""Seeded Monte Carlo experiments: size/power tables and asymptotic diagnostics.

Every table cell and every diagnostic is an ExperimentPlan, which
validates the whole request before one engine runs it.  The engine is
summary-first.  Replication i draws its sample from the stream
(master_seed, i) and keeps only the kernel's three pairwise reductions
(sum, sum of squares, max |g|) as row i of an (R, 3) array.  Statistics,
p-values and rejections of all four tests are then computed once,
vectorized over replications, through the same ``stats.evaluate_tests``
that ``run_all_tests`` uses for a single sample.

Replications run in fixed blocks of up to 8 on the thread map, with
OpenBLAS pinned to one thread: ``threads`` workers, or one per available
CPU when it is 0, never more than there are blocks.  Each worker fills its
own (B, n, p) block buffer; the block's norms, unit-norm check and Gram
reductions run once per block.  Replication i depends on i alone, so
results are bit-identical for every worker count and block split.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy import stats as scipy_stats

from . import _kernels
from ._parallel import blas_pin, thread_map
from ._parallel import resolve_workers as _resolve_workers
from .sampling import (
    UNIT_NORM_TOL,
    AlternativeModel,
    HeavyTailMarginal,
    SeedSpec,
    _check_model_dimension,
    _norm_deviation,
    _sample_block,
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

@dataclass(frozen=True)
class ExperimentPlan:
    n: int
    p: int
    model: AlternativeModel
    replications: int
    level: float = 0.05
    master_seed: int = 0

    def __post_init__(self) -> None:
        _check_request(self.n, self.p, self.level)
        _check_model_dimension(self.model, self.p)
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        SeedSpec(self.master_seed)  # a bad seed is a usage error, not a failed replication


@dataclass(frozen=True)
class TestAggregate:
    """One test over a plan's replications: rejection count and rate, the
    rate's binomial standard error, and the statistic's mean."""

    rejections: int
    rate: float
    standard_error: float
    stat_mean: float


@dataclass(frozen=True)
class ExperimentResult:
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


# replications per block: 8, fewer when a sample and its Gram tile would pass _BLOCK_FLOATS
_BLOCK = 8
_BLOCK_FLOATS = _BLOCK * _kernels._TILE * _kernels._TILE


def _block_size(n: int, p: int) -> int:
    return max(1, min(_BLOCK, _BLOCK_FLOATS // (n * max(p, min(n, _kernels._TILE)))))


def _simulate(
    plan: ExperimentPlan, threads: int, seed_offset: int = 0
) -> tuple[PairwiseSummary, dict[str, TestArrays]]:
    """Pairwise reductions of the plan's replications seed_offset .. seed_offset+R-1
    as (R,) arrays, and the four tests scored on them.

    Blocks of replications run on the thread map; `threads` is its worker count.
    """
    n, p, reps = plan.n, plan.p, plan.replications
    size = _block_size(n, p)
    reductions = np.empty((reps, 3))

    def run_block(start: int, rows: np.ndarray) -> None:
        block = rows[: min(size, reps - start)]
        seeds = [SeedSpec(plan.master_seed, seed_offset + start + k) for k in range(len(block))]
        try:
            _sample_block(plan.model, p, seeds, block)
            if not (_norm_deviation(block) <= UNIT_NORM_TOL).all():  # also catches NaN rows
                raise RuntimeError("row norms deviate from 1")
        except Exception as exc:
            # a sample drawn alone has the bits it has in the block, so it fails alone too
            for seed in seeds:
                try:
                    sample_from_model(plan.model, n, p, seed)
                except Exception as alone:
                    raise RuntimeError(
                        f"replication {seed.replication_index} failed: {alone}"
                    ) from alone
            first, last = seeds[0].replication_index, seeds[-1].replication_index
            raise RuntimeError(f"replications {first}..{last} failed: {exc}") from exc
        reductions[start : start + len(block)] = _kernels.pairwise_reduce(block)

    starts = range(0, reps, size)
    blocks = [np.empty((size, n, p)) for _ in range(_resolve_workers(threads, len(starts)))]
    with blas_pin:
        thread_map(run_block, starts, blocks)

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
    return summary, evaluate_tests(summary, plan.level)


def _aggregate(statistic: np.ndarray, reject: np.ndarray) -> TestAggregate:
    reps = reject.size
    k = int(reject.sum())
    rate = k / reps
    return TestAggregate(
        rejections=k,
        rate=rate,
        standard_error=math.sqrt(rate * (1.0 - rate) / reps),
        stat_mean=float(statistic.mean()),
    )


def run_rejection_experiment(plan: ExperimentPlan, threads: int = 0) -> ExperimentResult:
    """Monte Carlo rejection rates of the four tests, keyed in TEST_NAMES order.

    Replication i draws from its own stream (master_seed, i), so the result
    depends only on the plan, not on ``threads`` (the worker count, 0 for
    one per available CPU).
    """
    _, results = _simulate(plan, threads)
    per_test = {name: _aggregate(r.statistic, r.reject) for name, r in results.items()}
    return ExperimentResult(per_test=per_test)


def _require_symmetric(marginal: HeavyTailMarginal, what: str) -> None:
    if not marginal.is_symmetric:
        raise ValueError(f"{what} requires a symmetric marginal, got {marginal.kind}")


def _require_tail_index(marginal: HeavyTailMarginal, what: str) -> float:
    alpha = marginal.tail_index
    if alpha is None:
        raise ValueError(f"{what} needs a regular-variation index in (0, 2)")
    return alpha


def _require_spread(plan: ExperimentPlan, what: str) -> None:
    # a standard deviation or a correlation needs at least two replications
    if plan.replications < 2:
        raise ValueError(f"{what}: replications must be >= 2")


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
        level=level, master_seed=master_seed,
    )
    _require_spread(plan, "rayleigh blindness diagnostic")
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
    plan = ExperimentPlan(
        n=n, p=p, model=AlternativeModel.alpha_spherical(marginal), replications=replications,
        level=level, master_seed=master_seed,
    )
    _require_spread(plan, "bingham scaling diagnostic")
    gamma = p / n
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
        master_seed=master_seed,
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
    _require_spread(plan, "independence diagnostic")
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
    if not 0.0 <= tau < math.inf:  # also rejects NaN
        raise ValueError("tau must be finite and >= 0")
    # the uniform plan checks n, p, replications, level and seed before kappa is computed
    null_plan = ExperimentPlan(
        n=n, p=p, model=AlternativeModel.uniform(), replications=replications, level=level,
        master_seed=master_seed,
    )
    kappa = fvml_kappa(n, p, tau)
    if not math.isfinite(kappa):
        raise ValueError(f"tau = {tau} is too large: kappa = tau * p^(3/4) / sqrt(n) overflows")
    _, alt = _simulate(replace(null_plan, model=AlternativeModel.fvml(kappa)), threads)
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
