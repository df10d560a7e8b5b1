import math
import warnings

import numpy as np
import pytest

from sphereuni import _kernels, experiments
from sphereuni.experiments import (
    DiagnosticReport,
    ExperimentPlan,
    fvml_kappa,
    run_bingham_scaling_diagnostic,
    run_fvml_packing_blindness,
    run_independence_diagnostic,
    run_packing_lln_diagnostic,
    run_rayleigh_blindness_diagnostic,
    run_rejection_experiment,
)
from sphereuni.sampling import AlternativeModel, HeavyTailMarginal, SeedSpec, sample_from_model
from sphereuni.stats import run_all_tests

CAUCHY = HeavyTailMarginal.cauchy()
UNIFORM = AlternativeModel.uniform()


def small_plan(**overrides):
    base = dict(
        n=40, p=20, model=UNIFORM, replications=60, level=0.05, master_seed=9001
    )
    base.update(overrides)
    return ExperimentPlan(**base)


class TestPlanValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            small_plan(replications=0)
        with pytest.raises(ValueError):
            small_plan(level=0.0)
        with pytest.raises(ValueError):
            small_plan(tests=("rayleigh", "watson"))
        with pytest.raises(ValueError):
            small_plan(tests=())
        with pytest.raises(ValueError):
            small_plan(n=2)  # packing/fisher need n >= 3

    def test_rayleigh_only_plan_allows_n2(self):
        plan = small_plan(n=2, tests=("rayleigh", "bingham"))
        result = run_rejection_experiment(plan, threads=1)
        assert set(result.per_test) == {"rayleigh", "bingham"}


class TestRejectionExperiment:
    def test_single_replication_rate_is_binary(self):
        res = run_rejection_experiment(small_plan(replications=1), threads=1)
        for agg in res.per_test.values():
            assert agg.rate in (0.0, 1.0)

    def test_tallies_and_standard_errors(self):
        res = run_rejection_experiment(small_plan(), threads=2)
        assert res.replications_completed == 60
        for agg in res.per_test.values():
            assert 0 <= agg.rejections <= 60
            assert agg.rate == agg.rejections / 60
            assert agg.standard_error == pytest.approx(
                math.sqrt(agg.rate * (1.0 - agg.rate) / 60), abs=1e-15
            )
            assert set(agg.stat_quantiles) == {"q05", "q50", "q95"}

    def test_deterministic_across_worker_counts(self):
        plan = small_plan(model=AlternativeModel.alpha_spherical(CAUCHY))
        results = [run_rejection_experiment(plan, threads=k) for k in (1, 4, 16)]
        for other in results[1:]:
            assert other == results[0]

    def test_requested_tests_only(self):
        res = run_rejection_experiment(small_plan(tests=("packing",)), threads=1)
        assert list(res.per_test) == ["packing"]


class TestDiagnosticReportType:
    def test_rejects_non_finite_metrics(self):
        with pytest.raises(ValueError):
            DiagnosticReport(kind="x", metrics={"bad": float("nan")})


class TestRayleighBlindness:
    def test_rejects_asymmetric_marginal(self):
        with pytest.raises(ValueError):
            run_rayleigh_blindness_diagnostic(
                50, 50, HeavyTailMarginal.centered_chisq1(), 10, 1
            )

    def test_smoke_on_degenerate_scale(self):
        rep = run_rayleigh_blindness_diagnostic(3, 4, CAUCHY, 25, 2, threads=1)
        assert rep.kind == "rayleigh-blindness"
        assert set(rep.metrics) >= {"ks_distance", "rejection_rate", "stat_mean"}
        assert 0.0 <= rep.metrics["ks_distance"] <= 1.0

    def test_runs_at_n2(self):
        # the diagnostic reads only the Rayleigh test, which is defined at n = 2
        rep = run_rayleigh_blindness_diagnostic(2, 4, CAUCHY, 25, 2)
        assert rep.metrics["stat_sd"] > 0.0


class TestBinghamScaling:
    def test_needs_tail_index(self):
        with pytest.raises(ValueError):
            run_bingham_scaling_diagnostic(50, 50, HeavyTailMarginal.student_t(3.0), 10, 1)
        with pytest.raises(ValueError):
            run_bingham_scaling_diagnostic(
                50, 50, HeavyTailMarginal.centered_chisq1(), 10, 1
            )

    def test_lighter_tail_gives_smaller_spread(self):
        heavy = run_bingham_scaling_diagnostic(200, 200, CAUCHY, 800, 3, threads=4)
        light = run_bingham_scaling_diagnostic(
            200, 200, HeavyTailMarginal.student_t(1.95), 800, 3, threads=4
        )
        assert light.metrics["empirical_sd"] < heavy.metrics["empirical_sd"]
        assert heavy.metrics["theoretical_sd"] == pytest.approx(1.0 / math.sqrt(8.0))

    def test_runs_at_n2(self):
        rep = run_bingham_scaling_diagnostic(2, 4, CAUCHY, 25, 2)
        assert rep.metrics["empirical_sd"] > 0.0


class TestPackingLln:
    def test_cauchy_median_near_one(self):
        rep = run_packing_lln_diagnostic(200, 100, CAUCHY, 500, 20260813, threads=4)
        assert rep.metrics["median_max_abs_inner"] >= 0.9
        assert rep.metrics["packing_rate"] >= 0.99

    def test_uniform_reference(self):
        rep = run_packing_lln_diagnostic(200, 100, UNIFORM, 500, 20260813, threads=4)
        ref = rep.metrics["null_max_reference"]
        assert ref == pytest.approx(math.sqrt(4.0 * math.log(200) / 100), abs=1e-12)
        assert abs(rep.metrics["median_max_abs_inner"] - ref) <= 0.25 * ref

    def test_accepts_bare_marginal_or_model(self):
        a = run_packing_lln_diagnostic(20, 10, CAUCHY, 10, 4, threads=1)
        b = run_packing_lln_diagnostic(
            20, 10, AlternativeModel.alpha_spherical(CAUCHY), 10, 4, threads=1
        )
        assert a == b


class TestIndependence:
    def test_metric_names_and_ranges(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = run_independence_diagnostic(40, 30, 200, 0.05, 5, threads=2)
        assert set(rep.metrics) == {
            "corr_rb",
            "corr_rp",
            "corr_bp",
            "joint_at_medians",
            "joint_vs_product_gap",
            "fisher_size",
        }
        for key in ("corr_rb", "corr_rp", "corr_bp"):
            assert -1.0 <= rep.metrics[key] <= 1.0

    def test_warns_when_p_is_small_for_regime(self):
        with pytest.warns(UserWarning, match="asymptotic regime"):
            run_independence_diagnostic(40, 10, 20, 0.05, 6, threads=1)


class TestFvmlBlindness:
    def test_kappa_rate(self):
        assert fvml_kappa(100, 100, 1.0) == pytest.approx(100**0.75 / 10.0)

    def test_tau_zero_matches_null(self):
        rep = run_fvml_packing_blindness(100, 100, 0.0, 500, 20260817, threads=4)
        assert rep.metrics["kappa"] == 0.0
        assert rep.metrics["packing_rate_gap"] <= 0.03
        assert abs(rep.metrics["rayleigh_rate"] - rep.metrics["rayleigh_rate_null"]) <= 0.04

    def test_domain(self):
        with pytest.raises(ValueError):
            run_fvml_packing_blindness(100, 100, -1.0, 10, 1)
        with pytest.raises(ValueError):
            run_fvml_packing_blindness(100, 1, 1.0, 10, 1)

    def test_deterministic_and_streams_disjoint(self):
        a = run_fvml_packing_blindness(30, 20, 0.5, 40, 7, threads=1)
        b = run_fvml_packing_blindness(30, 20, 0.5, 40, 7, threads=4)
        assert a == b


class TestReplicationErrorAnnotation:
    def test_failure_names_replication(self):
        # p=1 makes the fvml sampler fail inside the replication loop
        plan = ExperimentPlan(
            n=5, p=1, model=AlternativeModel.fvml(1.0), replications=3,
            master_seed=1, tests=("rayleigh",),
        )
        with pytest.raises(RuntimeError, match="replication 0"):
            run_rejection_experiment(plan, threads=1)


class TestEngine:
    @pytest.mark.parametrize(
        "model",
        [UNIFORM, AlternativeModel.alpha_spherical(CAUCHY), AlternativeModel.fvml(3.0)],
        ids=["uniform", "cauchy", "fvml"],
    )
    @pytest.mark.parametrize("n, p", [(3, 5), (40, 20), (300, 8)])
    def test_matches_run_all_tests_bit_for_bit(self, model, n, p):
        # n=300 takes the kernel's tiled path; vectorized p-values must not drift
        reps, seed, offset = 5, 31, 7
        plan = ExperimentPlan(n=n, p=p, model=model, replications=reps, master_seed=seed)
        _, results = experiments._simulate(plan, threads=2, seed_offset=offset)
        for k in range(reps):
            sample = sample_from_model(model, n, p, SeedSpec(seed, offset + k))
            for o in run_all_tests(sample, 0.05):
                r = results[o.test]
                assert r.statistic[k] == o.statistic
                assert r.p_value[k] == o.p_value
                assert r.reject[k] == o.reject

    def test_n2_plan_runs(self):
        plan = small_plan(n=2, tests=("rayleigh", "bingham"))
        result = run_rejection_experiment(plan, threads=1)
        assert set(result.per_test) == {"rayleigh", "bingham"}
        assert result.per_test["bingham"].stat_sd > 0.0

    def test_always_serial(self):
        assert experiments._resolve_workers(0) == 1
        assert experiments._resolve_workers(3) == 1
        with pytest.raises(ValueError, match="threads must be >= 0"):
            experiments._resolve_workers(-1)

    def test_nan_reduction_names_replication(self, monkeypatch):
        plan = small_plan(replications=12)
        target = sample_from_model(plan.model, plan.n, plan.p, SeedSpec(plan.master_seed, 7)).rows
        real = _kernels.pairwise_reduce

        def poisoned(rows):
            s1, s2, m = real(rows)
            return (s1, s2, math.nan) if np.array_equal(rows, target) else (s1, s2, m)

        monkeypatch.setattr(_kernels, "pairwise_reduce", poisoned)
        with pytest.raises(RuntimeError, match="replication 7 failed"):
            run_rejection_experiment(plan)

    def test_bad_master_seed_is_value_error(self):
        with pytest.raises(ValueError, match="master_seed"):
            run_rejection_experiment(small_plan(master_seed=-1), threads=1)
