"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v`.  Heavy Monte Carlo runs are
shared through module-scoped fixtures; every stream is pinned to a fixed
master seed, so the whole module is reproducible bit for bit.

Three sub-criteria are known to fail for exactly unit-normalized samples
(packing empirical size band, packing power under the centered chi-square
marginal, and the bingham/packing correlation bound); the failure messages
carry the independently computed values showing the implementation is
faithful.  Everything else passes.
"""

import math
import time
import warnings

import numpy as np
import pytest

from sphereuni.experiments import (
    ExperimentPlan,
    run_bingham_scaling_diagnostic,
    run_fvml_packing_blindness,
    run_independence_diagnostic,
    run_packing_lln_diagnostic,
    run_rayleigh_blindness_diagnostic,
    run_rejection_experiment,
)
from sphereuni.nulldist import NullLaw, cdf, quantile
from sphereuni.oracles import brute_statistics, uniform_inner_moment
from sphereuni.sampling import (
    AlternativeModel,
    HeavyTailMarginal,
    SeedSpec,
    SphericalSample,
    sample_uniform_sphere,
)
from sphereuni.stats import (
    bingham_statistic,
    packing_statistic,
    pairwise_summary,
    rayleigh_statistic,
)

SEED = 20260808
REPS = 2000
LEVEL = 0.05
THREADS = 4

SIZE_SCENARIOS = ((100, 100), (100, 120))

# reference rejection rates the tolerances are anchored to
SIZE_CELLS = {
    (100, 100): {"rayleigh": 0.0495, "bingham": 0.0485, "fisher": 0.045},
    (100, 120): {"rayleigh": 0.0515, "bingham": 0.045, "fisher": 0.047},
}
BINGHAM_POWER_CELLS = {
    ("cauchy", (100, 100)): 0.3105,
    ("cauchy", (100, 120)): 0.339,
    ("t1.5", (100, 100)): 0.242,
    ("t1.5", (100, 120)): 0.27,
}

MARGINALS = {
    "chisq1": HeavyTailMarginal.centered_chisq1(),
    "cauchy": HeavyTailMarginal.cauchy(),
    "t1.5": HeavyTailMarginal.student_t(1.5),
}


def report(criterion, ok, detail):
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def table1():
    start = time.time()
    results = {}
    for n, p in SIZE_SCENARIOS:
        plan = ExperimentPlan(
            n=n, p=p, model=AlternativeModel.uniform(), replications=REPS,
            level=LEVEL, master_seed=SEED,
        )
        results[(n, p)] = run_rejection_experiment(plan, threads=THREADS)
    return results, time.time() - start


@pytest.fixture(scope="module")
def table2():
    start = time.time()
    results = {}
    for label, marginal in MARGINALS.items():
        for n, p in SIZE_SCENARIOS:
            plan = ExperimentPlan(
                n=n, p=p, model=AlternativeModel.alpha_spherical(marginal),
                replications=REPS, level=LEVEL, master_seed=SEED + 1,
            )
            results[(label, (n, p))] = run_rejection_experiment(plan, threads=THREADS)
    return results, time.time() - start


@pytest.fixture(scope="module")
def independence():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_independence_diagnostic(100, 100, REPS, SEED + 7, LEVEL, threads=THREADS)


def test_criterion1_sizes_rayleigh_bingham_fisher(table1):
    results, elapsed = table1
    lines = []
    ok = True
    for (n, p), cells in SIZE_CELLS.items():
        for test, cell in cells.items():
            rate = results[(n, p)].per_test[test].rate
            ok = ok and abs(rate - cell) <= 0.02
            lines.append(f"{test}@({n},{p})={rate:.4f} (target {cell}+-0.02)")
    ok = ok and elapsed <= 120.0
    report("criterion 1: size table, normal-limit tests", ok,
           "; ".join(lines) + f"; elapsed {elapsed:.1f}s (limit 120s)")


def test_criterion1_packing_size_band(table1):
    results, _ = table1
    rates = {sc: results[sc].per_test["packing"].rate for sc in SIZE_SCENARIOS}
    ok = all(0.08 <= r <= 0.15 for r in rates.values())
    report(
        "criterion 1: packing size in [0.08, 0.15]", ok,
        f"measured {rates}; the exact per-pair tail (t^2 ~ Beta(1/2,(p-1)/2)) "
        "bounds the size near 0.017-0.021 at these scales for exactly "
        "unit-normalized rows, so the band is unreachable; the reference "
        "values are only consistent with non-projected draws",
    )


def test_small_sample_scenarios_reported():
    # the two n=80 variants are reported for completeness; the criteria
    # only bind at the (100, 100) and (100, 120) scenarios
    lines = []
    for n, p in ((80, 40), (80, 100)):
        plan = ExperimentPlan(
            n=n, p=p, model=AlternativeModel.uniform(), replications=REPS,
            level=LEVEL, master_seed=SEED,
        )
        res = run_rejection_experiment(plan, threads=THREADS)
        rates = {t: a.rate for t, a in res.per_test.items()}
        assert all(0.0 <= r <= 1.0 for r in rates.values())
        lines.append(f"({n},{p}): " + ", ".join(f"{t}={r:.4f}" for t, r in rates.items()))
    report("size table, n=80 scenarios (informational)", True, "; ".join(lines))


def test_criterion2_packing_power_heavy_tails(table2):
    results, elapsed = table2
    rates = {
        (label, sc): results[(label, sc)].per_test["packing"].rate
        for label in ("cauchy", "t1.5")
        for sc in SIZE_SCENARIOS
    }
    ok = all(r >= 0.99 for r in rates.values()) and elapsed <= 600.0
    report("criterion 2: packing power, cauchy and t1.5", ok,
           f"{rates}; elapsed {elapsed:.1f}s (limit 600s)")


def test_criterion2_packing_power_chisq1(table2):
    results, _ = table2
    rates = {sc: results[("chisq1", sc)].per_test["packing"].rate for sc in SIZE_SCENARIOS}
    ok = all(r >= 0.90 for r in rates.values())
    report(
        "criterion 2: packing power >= 0.90 under centered chi-square(1)", ok,
        f"measured {rates}; the same unit-normalization gap that deflates the "
        "null size deflates this cell (fisher-combination power below, which "
        "matches its reference within noise, is consistent with these rates)",
    )


def test_criterion2_rayleigh_blind_power(table2):
    results, _ = table2
    rates = {
        (label, sc): results[(label, sc)].per_test["rayleigh"].rate
        for label in ("cauchy", "t1.5")
        for sc in SIZE_SCENARIOS
    }
    ok = all(abs(r - 0.05) <= 0.02 for r in rates.values())
    report("criterion 2: rayleigh power stays at size under heavy tails", ok, f"{rates}")


def test_criterion2_bingham_power(table2):
    results, _ = table2
    lines = []
    ok = True
    for (label, sc), cell in BINGHAM_POWER_CELLS.items():
        rate = results[(label, sc)].per_test["bingham"].rate
        ok = ok and abs(rate - cell) <= 0.07
        lines.append(f"{label}@{sc}={rate:.4f} (target {cell}+-0.07)")
    report("criterion 2: bingham power", ok, "; ".join(lines))


def test_criterion3_rayleigh_normal_limit_under_cauchy():
    rep = run_rayleigh_blindness_diagnostic(
        100, 100, MARGINALS["cauchy"], REPS, SEED + 2, level=LEVEL, threads=THREADS
    )
    ks = rep.metrics["ks_distance"]
    report("criterion 3: rayleigh KS to N(0,1) under cauchy projections", ks < 0.05,
           f"ks={ks:.4f} (< 0.05 required), rejection rate "
           f"{rep.metrics['rejection_rate']:.4f}")


def test_criterion4_bingham_scaling_limit():
    rep = run_bingham_scaling_diagnostic(
        200, 200, MARGINALS["cauchy"], REPS, SEED + 3, level=LEVEL, threads=THREADS
    )
    sd, target = rep.metrics["empirical_sd"], rep.metrics["theoretical_sd"]
    mean = rep.metrics["empirical_mean"]
    mean_band = 3.0 * sd / math.sqrt(REPS)
    ok = abs(sd - target) <= 0.2 * target and abs(mean) <= mean_band
    report("criterion 4: bingham heavy-tail scaling limit", ok,
           f"sd={sd:.4f} vs (2-a)/sqrt(8g)={target:.4f} (+-20%), "
           f"mean={mean:+.4f} (|.|<= {mean_band:.4f})")


def test_criterion5_packing_lln():
    heavy = run_packing_lln_diagnostic(
        200, 100, MARGINALS["cauchy"], 500, SEED + 5, level=LEVEL, threads=THREADS
    )
    null = run_packing_lln_diagnostic(
        200, 100, AlternativeModel.uniform(), 500, SEED + 5, level=LEVEL, threads=THREADS
    )
    med_heavy = heavy.metrics["median_max_abs_inner"]
    med_null = null.metrics["median_max_abs_inner"]
    ref = null.metrics["null_max_reference"]
    ok = med_heavy >= 0.9 and abs(med_null - ref) <= 0.25 * ref
    report("criterion 5: largest inner product LLN", ok,
           f"cauchy median={med_heavy:.4f} (>=0.9), uniform median={med_null:.4f} "
           f"vs sqrt(4 log n / p)={ref:.4f} (+-25%)")


def test_criterion6_pairwise_correlations(independence):
    m = independence.metrics
    corrs = {k: m[k] for k in ("corr_rb", "corr_rp", "corr_bp")}
    ok = all(abs(v) <= 0.1 for v in corrs.values())
    report(
        "criterion 6: |pairwise correlations| <= 0.1", ok,
        f"{ {k: round(v, 4) for k, v in corrs.items()} }; corr(bingham, packing) "
        "at (100,100) is genuinely ~0.12: iid surrogates of the sum/max pair "
        "over 4950 squared inner products reproduce it, so the bound sits "
        "below the true finite-scale value",
    )


def test_criterion6_joint_factorization_and_fisher_size(independence):
    m = independence.metrics
    ok = m["joint_vs_product_gap"] <= 0.03 and abs(m["fisher_size"] - 0.05) <= 0.02
    report("criterion 6: joint median factorization and fisher size", ok,
           f"|joint-0.125|={m['joint_vs_product_gap']:.4f} (<=0.03), "
           f"fisher size={m['fisher_size']:.4f} (0.05+-0.02)")


def test_criterion7_fvml_blindness_at_detection_rate():
    rep = run_fvml_packing_blindness(
        100, 100, 1.0, REPS, SEED + 8, level=LEVEL, threads=THREADS
    )
    m = rep.metrics
    gap = m["packing_rate_gap"]
    lift = m["rayleigh_rate"] - m["rayleigh_rate_null"]
    ok = gap <= 0.03 and lift >= 0.05
    report("criterion 7: packing blind but rayleigh awake at kappa=p^(3/4)/sqrt(n)",
           ok,
           f"packing {m['packing_rate']:.4f} vs null {m['packing_rate_null']:.4f} "
           f"(gap {gap:.4f} <= 0.03); rayleigh {m['rayleigh_rate']:.4f} vs null "
           f"{m['rayleigh_rate_null']:.4f} (lift {lift:.4f} >= 0.05)")


def test_criterion8_fast_path_equals_brute_force():
    rng = np.random.default_rng(SEED + 10)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 31))
        p = int(rng.integers(1, 31))
        z = rng.standard_normal((n, p))
        sample = SphericalSample.from_rows(z / np.linalg.norm(z, axis=1)[:, None])
        summary = pairwise_summary(sample)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fast = (
                rayleigh_statistic(summary),
                bingham_statistic(summary),
                packing_statistic(summary),
            )
        slow = brute_statistics(sample)
        for a, b in zip(fast, slow):
            scale = max(1.0, abs(b))
            worst = max(worst, abs(a - b) / scale)
    report("criterion 8: fast path vs brute force on 200 random samples",
           worst <= 1e-9, f"worst relative deviation {worst:.2e} (<= 1e-9)")


def test_criterion8_uniform_moments_match_monte_carlo():
    lines = []
    ok = True
    for p in (2, 10, 100):
        s = sample_uniform_sphere(200_000, p, SeedSpec(SEED + 11 + p))
        g = np.einsum("ij,ij->i", s.rows[:100_000], s.rows[100_000:])
        for tau in (1, 2, 3):
            v = g ** (2 * tau)
            se = v.std(ddof=1) / math.sqrt(len(v))
            dev = abs(v.mean() - uniform_inner_moment(p, tau).value) / se
            ok = ok and dev <= 4.0
            lines.append(f"p={p},tau={tau}: {dev:.2f}se")
    report("criterion 8: uniform inner-product moments vs monte carlo (4 SE)",
           ok, "; ".join(lines))


def test_criterion8_gumbel_round_trip():
    worst = 0.0
    for u in np.concatenate(([1e-6], np.linspace(0.01, 0.99, 99), [1 - 1e-6])):
        worst = max(worst, abs(cdf(NullLaw.PACKING_GUMBEL,
                                   quantile(NullLaw.PACKING_GUMBEL, u)) - u))
    report("criterion 8: gumbel cdf/quantile round trip", worst <= 1e-10,
           f"worst |cdf(quantile(u)) - u| = {worst:.2e} (<= 1e-10)")


def test_criterion8_determinism_across_worker_counts():
    plan = ExperimentPlan(
        n=60, p=40, model=AlternativeModel.alpha_spherical(MARGINALS["cauchy"]),
        replications=150, level=LEVEL, master_seed=SEED + 12,
    )
    runs = [run_rejection_experiment(plan, threads=k) for k in (1, 4, 16)]
    diags = [
        run_fvml_packing_blindness(40, 30, 0.7, 80, SEED + 13, threads=k)
        for k in (1, 4, 16)
    ]
    ok = all(r == runs[0] for r in runs) and all(d == diags[0] for d in diags)
    report("criterion 8: identical results under 1, 4, 16 worker threads", ok,
           "experiment results and diagnostic reports compared field by field")
