import math
import os
import time
import warnings

import numpy as np
import pytest

from sphereuni import _kernels, _parallel, experiments, sampling
from sphereuni.experiments import (
    TEST_NAMES,
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
            small_plan(n=2)  # packing/fisher need n >= 3

    def test_fvml_needs_p_at_least_2_before_any_replication(self):
        with pytest.raises(ValueError, match=r"FvML sampling needs p >= 2"):
            small_plan(p=1, model=AlternativeModel.fvml(1.0))

    def test_fvml_direction_must_match_p_before_any_replication(self):
        model = AlternativeModel.fvml(1.0, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match=r"direction must have shape \(3,\)"):
            small_plan(p=3, model=model)

    def test_every_plan_needs_n3_and_scores_all_four_tests(self):
        with pytest.raises(ValueError, match=r"need n >= 3 and p >= 1"):
            small_plan(n=2)
        result = run_rejection_experiment(small_plan(n=3, replications=5), threads=1)
        assert tuple(result.per_test) == TEST_NAMES


# each diagnostic with the argument it takes after n and p, if any
DIAGNOSTIC_CALLS = {
    "rayleigh-blindness": (run_rayleigh_blindness_diagnostic, (CAUCHY,)),
    "bingham-scaling": (run_bingham_scaling_diagnostic, (CAUCHY,)),
    "packing-lln": (run_packing_lln_diagnostic, (CAUCHY,)),
    "independence": (run_independence_diagnostic, ()),
    "fvml-blindness": (run_fvml_packing_blindness, (1.0,)),
}


class TestShapeCheck:
    @pytest.mark.parametrize("n, p", [(0, 5), (2, 5), (5, 0)], ids=["n0", "n2", "p0"])
    @pytest.mark.parametrize("kind", DIAGNOSTIC_CALLS)
    def test_every_diagnostic_refuses_the_shape_before_using_it(self, kind, n, p):
        # the plan is built before any arithmetic on n or p, so n = 0 divides nothing
        run, read = DIAGNOSTIC_CALLS[kind]
        with pytest.raises(ValueError, match=r"need n >= 3 and p >= 1"):
            run(n, p, *read, replications=10, master_seed=1, level=0.05, threads=1)

    def test_run_all_tests_gives_the_same_message(self):
        sample = sample_from_model(UNIFORM, 2, 4, SeedSpec(1))
        with pytest.raises(ValueError, match=r"need n >= 3 and p >= 1"):
            run_all_tests(sample)


class TestRejectionExperiment:
    def test_single_replication_rate_is_binary(self):
        res = run_rejection_experiment(small_plan(replications=1), threads=1)
        for agg in res.per_test.values():
            assert agg.rate in (0.0, 1.0)

    def test_tallies_and_standard_errors(self):
        res = run_rejection_experiment(small_plan(), threads=2)
        for agg in res.per_test.values():
            assert 0 <= agg.rejections <= 60
            assert agg.rate == agg.rejections / 60
            assert agg.standard_error == pytest.approx(
                math.sqrt(agg.rate * (1.0 - agg.rate) / 60), abs=1e-15
            )

    def test_deterministic_across_worker_counts(self):
        plan = small_plan(model=AlternativeModel.alpha_spherical(CAUCHY))
        results = [run_rejection_experiment(plan, threads=k) for k in (1, 4, 16)]
        for other in results[1:]:
            assert other == results[0]


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
        # refused: every plan scores the combined test, which needs n >= 3
        with pytest.raises(ValueError, match=r"need n >= 3"):
            run_rayleigh_blindness_diagnostic(2, 4, CAUCHY, 25, 2)


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
        # refused: every plan scores the combined test, which needs n >= 3
        with pytest.raises(ValueError, match=r"need n >= 3"):
            run_bingham_scaling_diagnostic(2, 4, CAUCHY, 25, 2)


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
        for tau in (math.nan, math.inf):
            with pytest.raises(ValueError, match="tau"):
                run_fvml_packing_blindness(100, 100, tau, 10, 1)
        with pytest.raises(ValueError):
            run_fvml_packing_blindness(100, 1, 1.0, 10, 1)
        # a finite tau whose kappa overflows is named as tau
        with pytest.raises(ValueError, match="tau"):
            run_fvml_packing_blindness(10, 5, 1e308, 10, 1)
        # n is checked before kappa divides by its square root
        for n in (0, -4):
            with pytest.raises(ValueError, match="need n >= 3"):
                run_fvml_packing_blindness(n, 5, 1.0, 2, 1)

    def test_deterministic_and_streams_disjoint(self):
        a = run_fvml_packing_blindness(30, 20, 0.5, 40, 7, threads=1)
        b = run_fvml_packing_blindness(30, 20, 0.5, 40, 7, threads=4)
        assert a == b


class TestReplicationErrorAnnotation:
    def test_failure_names_replication(self, monkeypatch):
        real = sampling._draw_rows

        def failing(model, p, seed, out):
            if seed.replication_index == 0:
                raise ValueError("synthetic sampler failure")
            return real(model, p, seed, out)

        monkeypatch.setattr(sampling, "_draw_rows", failing)
        plan = ExperimentPlan(
            n=5, p=3, model=UNIFORM, replications=3, master_seed=1,
        )
        with pytest.raises(RuntimeError, match="replication 0"):
            run_rejection_experiment(plan, threads=1)

    def test_zero_norm_row_names_replication(self, monkeypatch):
        # a zero-norm draw is not redrawn: the replication that drew it fails
        real = sampling._draw_rows

        def zero_row(model, p, seed, out):
            real(model, p, seed, out)
            if seed.replication_index == 10:
                out[2] = 0.0

        monkeypatch.setattr(sampling, "_draw_rows", zero_row)
        plan = small_plan(n=5, p=3, replications=20)
        with pytest.raises(
            RuntimeError, match="replication 10 failed: uniform sampler: drew a zero-norm row"
        ):
            run_rejection_experiment(plan, threads=2)

    def test_two_workers_name_the_lowest_failing_replication(self, monkeypatch):
        # replication 20 (third block) fails at once, replication 9 (second block) later
        real = sampling._draw_rows

        def failing(model, p, seed, out):
            if seed.replication_index == 9:
                time.sleep(0.2)
            if seed.replication_index in (9, 20):
                raise ValueError("synthetic sampler failure")
            return real(model, p, seed, out)

        monkeypatch.setattr(sampling, "_draw_rows", failing)
        plan = small_plan(n=5, p=3, replications=40)
        assert experiments._block_size(5, 3) == 8
        with pytest.raises(RuntimeError, match="replication 9 failed"):
            run_rejection_experiment(plan, threads=2)

    def test_failure_cancels_pending_blocks(self, monkeypatch):
        real = sampling._draw_rows
        drawn = []

        def failing(model, p, seed, out):
            if seed.replication_index == 0:
                raise ValueError("synthetic sampler failure")
            drawn.append(seed.replication_index)
            time.sleep(0.002)
            return real(model, p, seed, out)

        monkeypatch.setattr(sampling, "_draw_rows", failing)
        plan = small_plan(n=5, p=3, replications=400)  # 50 blocks of 8
        with pytest.raises(RuntimeError, match="replication 0 failed"):
            run_rejection_experiment(plan, threads=2)
        # the block in flight on the other worker, and perhaps one more, still run
        assert len(drawn) <= 4 * 8

    def test_block_failure_no_sample_repeats_stays_runtime_error(self, monkeypatch):
        # every sample draws fine alone, so no replication can be named: the block's
        # failure must still not look like a usage error (ValueError)
        def failing(model, p, seeds, out):
            raise ValueError("synthetic block failure")

        monkeypatch.setattr(experiments, "_sample_block", failing)
        plan = small_plan(n=5, p=3, replications=12)
        with pytest.raises(RuntimeError, match=r"replications 0\.\.7 failed: synthetic block"):
            run_rejection_experiment(plan, threads=1)

    def test_blas_thread_count_restored(self, monkeypatch):
        calls = _parallel._openblas()
        if calls is None:
            pytest.skip("numpy's bundled OpenBLAS thread calls are not available")
        get, set_ = calls
        real = sampling._draw_rows
        seen = []

        def spy(model, p, seed, out):
            seen.append(get())
            if seed.replication_index == 5:
                raise ValueError("synthetic sampler failure")
            return real(model, p, seed, out)

        monkeypatch.setattr(sampling, "_draw_rows", spy)
        before = get()
        try:
            set_(2)
            run_rejection_experiment(small_plan(replications=5), threads=2)
            assert get() == 2
            with pytest.raises(RuntimeError, match="replication 5 failed"):
                run_rejection_experiment(small_plan(replications=12), threads=2)
            assert get() == 2
        finally:
            set_(before)
        assert set(seen) == {1}


class TestEngine:
    @pytest.mark.parametrize(
        "model",
        [UNIFORM, AlternativeModel.alpha_spherical(CAUCHY), AlternativeModel.fvml(3.0)],
        ids=["uniform", "cauchy", "fvml"],
    )
    @pytest.mark.parametrize("n, p", [(3, 5), (40, 20), (100, 100), (100, 120), (300, 8)])
    def test_matches_run_all_tests_bit_for_bit(self, model, n, p):
        # n=300 spans two kernel tiles; vectorized p-values must not drift
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

    def test_worker_rule(self):
        cpus = len(os.sched_getaffinity(0))
        assert experiments._resolve_workers(0) == cpus
        assert experiments._resolve_workers(0, 1) == 1
        assert experiments._resolve_workers(3, 13) == 3
        assert experiments._resolve_workers(16, 5) == 5
        assert experiments._resolve_workers(1_000_000, 1) == 1
        with pytest.raises(ValueError, match="threads must be >= 0"):
            experiments._resolve_workers(-1)
        with pytest.raises(ValueError, match="threads must be >= 0"):
            experiments._resolve_workers(-1, 5)

    @pytest.mark.parametrize("model", [UNIFORM, AlternativeModel.alpha_spherical(CAUCHY)],
                             ids=["uniform", "cauchy"])
    @pytest.mark.parametrize("n, p", [(80, 40), (100, 120), (300, 8)])
    def test_reductions_independent_of_workers_and_blocks(self, model, n, p):
        # (300, 8) spans two kernel tiles and takes blocks of fewer than 8
        b = experiments._block_size(n, p)
        full = None
        for reps in (100, 1, b - 1, b, b + 1):
            if reps < 1:
                continue
            plan = ExperimentPlan(n=n, p=p, model=model, replications=reps, master_seed=13)
            runs = [experiments._simulate(plan, threads=w)[0] for w in (1, 2, 3, 16)]
            for run in runs:
                got = np.stack([run.sum_inner, run.sum_inner_sq, run.max_abs_inner])
                full = got if full is None else full
                # replication i's reductions depend on i alone, not on R or the block split
                np.testing.assert_array_equal(got.view(np.uint64), full[:, :reps].view(np.uint64))

    def test_nan_reduction_names_replication(self, monkeypatch):
        plan = small_plan(replications=12)
        target = sample_from_model(plan.model, plan.n, plan.p, SeedSpec(plan.master_seed, 7)).rows
        real = _kernels.pairwise_reduce

        def poisoned(stack):
            out = real(stack)
            for k, rows in enumerate(stack):
                if np.array_equal(rows, target):
                    out[k, 2] = math.nan
            return out

        monkeypatch.setattr(_kernels, "pairwise_reduce", poisoned)
        with pytest.raises(RuntimeError, match="replication 7 failed"):
            run_rejection_experiment(plan)

    def test_bad_master_seed_is_value_error(self):
        with pytest.raises(ValueError, match="master_seed"):
            run_rejection_experiment(small_plan(master_seed=-1), threads=1)
