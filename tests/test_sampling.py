import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from sphereuni import sampling
from sphereuni.sampling import (
    AlternativeModel,
    HeavyTailMarginal,
    SeedSpec,
    SphericalSample,
    _fvml_cosines,
    _normalize_rows,
    _row_norms,
    _sample_block,
    draw_marginal,
    sample_alpha_spherical,
    sample_from_model,
    sample_fvml,
    sample_uniform_sphere,
)

CAUCHY = HeavyTailMarginal.cauchy()


def pair_inners(sample_fn, pairs, seed):
    """Inner products of `pairs` independent row pairs."""
    s = sample_fn(2 * pairs, seed)
    return np.einsum("ij,ij->i", s.rows[:pairs], s.rows[pairs:])


class TestSeedSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SeedSpec(-1)
        with pytest.raises(ValueError):
            SeedSpec(2**64)
        with pytest.raises(ValueError):
            SeedSpec(0, -1)

    @pytest.mark.parametrize("field", ["master_seed", "replication_index"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, np.bool_(True), "3"],
                             ids=["fraction", "integral-float", "bool", "numpy-bool", "str"])
    def test_non_integer_is_refused(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SeedSpec(**{"master_seed": 1, field: value})

    def test_numpy_integers_pass(self):
        a = SeedSpec(np.uint64(2**64 - 1), np.int32(3)).generator().random(4)
        b = SeedSpec(2**64 - 1, 3).generator().random(4)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ_by_index(self):
        a = SeedSpec(7, 0).generator().random(4)
        b = SeedSpec(7, 1).generator().random(4)
        assert not np.allclose(a, b)

    def test_stream_is_pure_function(self):
        a = SeedSpec(7, 3).generator().random(4)
        b = SeedSpec(7, 3).generator().random(4)
        np.testing.assert_array_equal(a, b)


class TestSphericalSample:
    def test_rejects_non_unit_rows(self):
        with pytest.raises(ValueError):
            SphericalSample.from_rows(np.array([[1.0, 1.0]]))

    def test_rejects_nan_row(self):
        rows = np.eye(3, 4)
        rows[1, 2] = np.nan
        with pytest.raises(ValueError):
            SphericalSample.from_rows(rows)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            SphericalSample(n=2, p=2, rows=np.eye(3))

    @pytest.mark.parametrize("n, p, message", [(True, 2, "n must be an integer, got True"),
                                               (1.0, 2, "n must be an integer, got 1.0"),
                                               (1, 2.0, "p must be an integer, got 2.0")],
                             ids=["n-bool", "n-float", "p-float"])
    def test_non_integer_shape_is_refused(self, n, p, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SphericalSample(n=n, p=p, rows=np.array([[1.0, 0.0]]))

    def test_rows_that_are_not_an_array_are_refused(self):
        with pytest.raises(ValueError, match=r"^rows must be a numpy array, got list; "
                                             r"SphericalSample\.from_rows converts"):
            SphericalSample(n=1, p=2, rows=[[1.0, 0.0]])

    def test_rows_must_be_a_matrix(self):
        with pytest.raises(ValueError, match="rows must be a 2-d array"):
            SphericalSample.from_rows(np.ones(3))

    def test_row_whose_norm_overflows_is_refused_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="row norms deviate from 1 by up to inf"):
                SphericalSample.from_rows(np.array([[1e200, 0.0], [1.0, 0.0], [0.0, 1.0]]))


# values that are not a real number: a str, None, a bool, a complex number, an array
NOT_REAL = ["3", None, True, np.True_, 1.5 + 0j, np.array(1.5)]
NOT_REAL_IDS = ["str", "none", "bool", "numpy-bool", "complex", "array"]


class TestRealRule:
    """`_check_real` is the one type test of a marginal's param and a model's kappa."""

    @pytest.mark.parametrize("value", NOT_REAL, ids=NOT_REAL_IDS)
    @pytest.mark.parametrize("make", [
        lambda v: HeavyTailMarginal("student_t", v),
        lambda v: HeavyTailMarginal("pareto", v),
        HeavyTailMarginal.student_t,
        HeavyTailMarginal.pareto,
    ], ids=["student_t", "pareto", "student_t-classmethod", "pareto-classmethod"])
    def test_param_that_is_not_real_is_refused(self, make, value):
        message = f"^param must be a real number, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            make(value)

    @pytest.mark.parametrize("value", NOT_REAL, ids=NOT_REAL_IDS)
    @pytest.mark.parametrize("make", [lambda v: AlternativeModel("fvml", kappa=v),
                                      AlternativeModel.fvml], ids=["fvml", "fvml-classmethod"])
    def test_kappa_that_is_not_real_is_refused(self, make, value):
        message = f"^kappa must be a real number, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            make(value)

    @pytest.mark.parametrize("value", [Fraction(3, 2), np.float32(1.5)],
                             ids=["fraction", "numpy-float32"])
    def test_any_real_param_draws_the_bits_of_its_float(self, value):
        for kind in ("student_t", "pareto"):
            direct = draw_marginal(HeavyTailMarginal(kind, value), 50, SeedSpec(4))
            built = getattr(HeavyTailMarginal, kind)(value)
            assert type(built.param) is float
            np.testing.assert_array_equal(direct, draw_marginal(built, 50, SeedSpec(4)))
        model = AlternativeModel("fvml", kappa=value)
        np.testing.assert_array_equal(
            sample_from_model(model, 6, 3, SeedSpec(4)).rows,
            sample_from_model(AlternativeModel.fvml(value), 6, 3, SeedSpec(4)).rows,
        )

    @pytest.mark.parametrize("value", [Fraction(3, 2), np.float32(1.5), 1],
                             ids=["fraction", "numpy-float32", "int"])
    def test_constructor_stores_the_float_the_classmethod_stores(self, value):
        for kind in ("student_t", "pareto"):
            direct = HeavyTailMarginal(kind, value)
            assert type(direct.param) is float
            assert repr(direct) == repr(getattr(HeavyTailMarginal, kind)(value))
        model = AlternativeModel("fvml", kappa=value)
        assert type(model.kappa) is float
        assert repr(model) == repr(AlternativeModel.fvml(value))
        assert model == AlternativeModel.fvml(float(value))
        assert hash(model) == hash(AlternativeModel.fvml(float(value)))


class TestRowNorms:
    # shapes of one chunk, several chunks, rows wider than a chunk, and blocks of samples
    @pytest.mark.parametrize("shape", [(1, 1), (5, 2), (80, 40), (100, 120), (8, 100, 120),
                                       (4000, 100), (3, 40000), (33000, 1), (5, 200, 17)])
    def test_same_bits_as_linalg_norm(self, shape):
        rng = np.random.default_rng(82)
        rows = rng.standard_normal(shape) * 10.0 ** rng.integers(-150, 150, shape)
        np.testing.assert_array_equal(
            _row_norms(rows).view(np.uint64), np.linalg.norm(rows, axis=-1).view(np.uint64)
        )

    def test_no_temporary_of_the_input_size(self):
        rows = np.random.default_rng(83).standard_normal((4000, 100))  # 3.2 MB
        tracemalloc.start()
        try:
            _row_norms(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestUniformSampler:
    def test_p1_rows_are_signs(self):
        s = sample_uniform_sphere(8, 1, SeedSpec(1))
        assert set(np.unique(s.rows)) <= {-1.0, 1.0}

    def test_unit_norms(self):
        s = sample_uniform_sphere(3, 5, SeedSpec(2))
        assert np.abs(np.linalg.norm(s.rows, axis=1) - 1.0).max() <= 1e-12

    def test_deterministic(self):
        a = sample_uniform_sphere(10, 4, SeedSpec(3, 9))
        b = sample_uniform_sphere(10, 4, SeedSpec(3, 9))
        np.testing.assert_array_equal(a.rows, b.rows)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_uniform_sphere(0, 5, SeedSpec(1))
        with pytest.raises(ValueError):
            sample_uniform_sphere(5, 0, SeedSpec(1))

    def test_second_moment_of_inner_product(self):
        # E[p (x.y)^2] = 1/p * p = 1 exactly under uniformity
        g = pair_inners(lambda m, sd: sample_uniform_sphere(m, 100, sd), 2000, SeedSpec(11))
        v = 100.0 * g**2
        se = v.std(ddof=1) / math.sqrt(len(v))
        assert abs(v.mean() - 1.0) <= 3.0 * se


class TestDrawMarginal:
    def test_cauchy_tail_index_one(self):
        d = draw_marginal(CAUCHY, 100_000, SeedSpec(10))
        n10 = int((np.abs(d) > 10).sum())
        n100 = int((np.abs(d) > 100).sum())
        assert n100 > 0
        assert 7.0 <= n10 / n100 <= 13.0  # exceedance ratio ~ 10 for index 1

    def test_chisq1_standardized(self):
        d = draw_marginal(HeavyTailMarginal.centered_chisq1(), 100_000, SeedSpec(12))
        assert abs(d.mean()) <= 3.0 * math.sqrt(2.0 / 100_000)
        assert abs(d.var() - 1.0) <= 0.05

    def test_pareto_reproducible(self):
        a = draw_marginal(HeavyTailMarginal.pareto(1.5), 1, SeedSpec(13))
        b = draw_marginal(HeavyTailMarginal.pareto(1.5), 1, SeedSpec(13))
        assert a[0] == b[0]
        assert abs(a[0]) >= 1.0  # pareto magnitude support starts at 1

    def test_pareto_signs_balanced(self):
        d = draw_marginal(HeavyTailMarginal.pareto(1.0), 40_000, SeedSpec(14))
        assert abs((d > 0).mean() - 0.5) < 0.02

    @pytest.mark.parametrize("marginal", [HeavyTailMarginal.pareto(1e-300),
                                          HeavyTailMarginal.student_t(1e-5)])
    def test_tiny_tail_parameter_draws_inf_without_warning(self, marginal):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            d = draw_marginal(marginal, 4, SeedSpec(1))
        assert np.isinf(d).any()

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            HeavyTailMarginal.student_t(0.0)
        with pytest.raises(ValueError):
            HeavyTailMarginal.pareto(2.0)
        with pytest.raises(ValueError):
            HeavyTailMarginal.pareto(0.0)
        with pytest.raises(ValueError):
            HeavyTailMarginal("lognormal")
        with pytest.raises(ValueError):
            draw_marginal(CAUCHY, 0, SeedSpec(1))

    @pytest.mark.parametrize("count", [2.5, True], ids=["float", "bool"])
    def test_non_integer_count_is_refused_before_any_draw(self, count, monkeypatch):
        def unreachable(*args):
            raise AssertionError("drew before the count was checked")

        monkeypatch.setattr(sampling, "_draw_raw", unreachable)
        with pytest.raises(ValueError, match=f"^count must be an integer, got {count!r}$"):
            draw_marginal(CAUCHY, count, SeedSpec(0))

    @pytest.mark.parametrize("kind", ["cauchy", "centered_chisq1"])
    def test_parameter_of_a_parameterless_kind_is_rejected(self, kind):
        with pytest.raises(ValueError, match=f"{kind} takes no parameter"):
            HeavyTailMarginal(kind, 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_rejected(self, value):
        with pytest.raises(ValueError):
            HeavyTailMarginal.student_t(value)
        with pytest.raises(ValueError):
            HeavyTailMarginal.pareto(value)

    def test_tail_index_property(self):
        assert CAUCHY.tail_index == 1.0
        assert HeavyTailMarginal.student_t(1.5).tail_index == 1.5
        assert HeavyTailMarginal.student_t(3.0).tail_index is None
        assert HeavyTailMarginal.centered_chisq1().tail_index is None
        assert not HeavyTailMarginal.centered_chisq1().is_symmetric

    def test_pareto_tail_index_is_its_param(self):
        assert HeavyTailMarginal.pareto(1.2).tail_index == 1.2
        assert HeavyTailMarginal.student_t(2.5).tail_index is None


class TestAlphaSphericalSampler:
    def test_p1_symmetric_rows_are_signs(self):
        s = sample_alpha_spherical(400, 1, CAUCHY, SeedSpec(15))
        assert set(np.unique(s.rows)) <= {-1.0, 1.0}
        assert abs(s.rows.mean()) < 0.2  # both signs occur

    def test_unit_norms_and_determinism(self):
        a = sample_alpha_spherical(20, 7, HeavyTailMarginal.student_t(1.5), SeedSpec(16))
        b = sample_alpha_spherical(20, 7, HeavyTailMarginal.student_t(1.5), SeedSpec(16))
        np.testing.assert_array_equal(a.rows, b.rows)
        assert np.abs(np.linalg.norm(a.rows, axis=1) - 1.0).max() <= 1e-12

    def test_cauchy_second_moment_matches_uniform(self):
        # E[p (x.y)^2] = 1 exactly for symmetric projections as well
        g = pair_inners(
            lambda m, sd: sample_alpha_spherical(m, 100, CAUCHY, sd), 2000, SeedSpec(2)
        )
        v = 100.0 * g**2
        se = v.std(ddof=1) / math.sqrt(len(v))
        assert abs(v.mean() - 1.0) <= 3.0 * se

    def test_cauchy_fourth_moment_leading_order(self):
        # E[p (x.y)^4] -> ((2-alpha)/2)^2 = 0.25 at alpha=1
        g = pair_inners(
            lambda m, sd: sample_alpha_spherical(m, 100, CAUCHY, sd), 20_000, SeedSpec(3)
        )
        v = 100.0 * g**4
        assert v.mean() == pytest.approx(0.25, rel=0.15)

    def test_symmetric_coordinate_moments(self):
        s = sample_alpha_spherical(4000, 50, CAUCHY, SeedSpec(18))
        x = s.rows[:, 0]
        se_mean = x.std(ddof=1) / math.sqrt(len(x))
        assert abs(x.mean()) <= 3.0 * se_mean
        v = 50.0 * s.rows**2
        se_var = v.std(ddof=1) / math.sqrt(v.size)
        assert abs(v.mean() - 1.0) <= 3.0 * se_var

    def test_zero_norm_row_raises(self):
        # a zero-norm row has probability zero, so it means a broken generator
        raw = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(RuntimeError, match="broken marginal: drew a zero-norm row"):
            _normalize_rows(raw[None], "broken marginal")


BLOCK_MODELS = {
    "uniform": AlternativeModel.uniform(),
    "cauchy": AlternativeModel.alpha_spherical(CAUCHY),
    "t1.5": AlternativeModel.alpha_spherical(HeavyTailMarginal.student_t(1.5)),
    "chisq1": AlternativeModel.alpha_spherical(HeavyTailMarginal.centered_chisq1()),
    "t1e-5": AlternativeModel.alpha_spherical(HeavyTailMarginal.student_t(1e-5)),
    "pareto1e-300": AlternativeModel.alpha_spherical(HeavyTailMarginal.pareto(1e-300)),
    "fvml": AlternativeModel.fvml(2.5),
}


@pytest.mark.parametrize("model", BLOCK_MODELS.values(), ids=BLOCK_MODELS.keys())
def test_block_rows_equal_samples_drawn_alone(model):
    # the block normalizes all its rows at once; each sample must keep its own bits
    n, p = 30, 12
    seeds = [SeedSpec(41, i) for i in range(5)]
    block = np.empty((len(seeds), n, p))
    _sample_block(model, p, seeds, block)
    for rows, seed in zip(block, seeds):
        alone = sample_from_model(model, n, p, seed).rows
        np.testing.assert_array_equal(rows.view(np.uint64), alone.view(np.uint64))


class TestOverflowingRows:
    def test_rows_whose_norm_overflows_take_their_limit_direction(self):
        raw = np.array([
            [3.0, -4.0],
            [1e200, -1e200],
            [np.inf, -5.0],
            [-np.inf, np.inf],
            [1e300, 1.0],
            [0.5, -1e-310],
        ])
        kept = raw[[0, 5]] / np.linalg.norm(raw[[0, 5]], axis=1)[:, None]
        rows = raw.copy()
        with np.errstate(over="ignore"):
            _normalize_rows(rows[None], "test rows")
        h = 1.0 / math.sqrt(2.0)
        np.testing.assert_array_equal(rows[[1, 2, 3, 4]], [[h, -h], [1.0, 0.0], [-h, h], [1.0, 1e-300]])
        # every row whose norm is finite keeps its bits
        np.testing.assert_array_equal(rows[[0, 5]].view(np.uint64), kept.view(np.uint64))

    @pytest.mark.parametrize("p", [1, 3, 50])
    def test_pareto_tiny_index_gives_sign_vectors(self, p):
        # (1-u)^(-1/alpha) is inf for alpha = 1e-300, so each row is a sign vector / sqrt(p)
        rows = sample_alpha_spherical(40, p, HeavyTailMarginal.pareto(1e-300), SeedSpec(24)).rows
        np.testing.assert_array_equal(np.abs(rows), 1.0 / np.sqrt(p))

    @pytest.mark.parametrize("marginal", [HeavyTailMarginal.student_t(1e-5),
                                          HeavyTailMarginal.student_t(0.01),
                                          HeavyTailMarginal.pareto(0.01)])
    def test_tiny_tail_parameter_gives_unit_rows(self, marginal):
        rows = sample_alpha_spherical(200, 30, marginal, SeedSpec(25)).rows
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)


def fvml_direction(p, seed):
    """The mean direction of an FvML sample: its stream's first p normals, normalized."""
    mu = seed.generator().standard_normal(p)
    return mu / np.linalg.norm(mu)


def fvml_oracle(kappa, n, p, seed):
    """An FvML sample rebuilt from its stream, with numpy's norms in place of _row_norms."""
    rng = seed.generator()
    mu = rng.standard_normal(p)
    mu /= np.linalg.norm(mu)
    t = _fvml_cosines(n, p, float(kappa), rng)
    x = rng.standard_normal((n, p))
    xi = x - np.outer(x @ mu, mu)
    xi = xi / np.linalg.norm(xi, axis=1)[:, None]
    rows = t[:, None] * mu[None, :] + np.sqrt(1.0 - t * t)[:, None] * xi
    return rows / np.linalg.norm(rows, axis=1)[:, None]


class TestFvmlSampler:
    @pytest.mark.parametrize("kappa", [0.0, 2.5, 1e6, 1e300])
    @pytest.mark.parametrize("n, p", [(1, 2), (30, 12), (100, 100)])
    # every FvML sample draws its own ("free") direction from its stream
    @pytest.mark.parametrize("direction", ["free"])
    def test_rows_match_an_independent_construction(self, kappa, n, p, direction):
        model = AlternativeModel.fvml(kappa)
        seeds = [SeedSpec(43, i) for i in range(5)]
        block = np.empty((len(seeds), n, p))
        _sample_block(model, p, seeds, block)
        for rows, seed in zip(block, seeds):
            expected = fvml_oracle(kappa, n, p, seed).view(np.uint64)
            np.testing.assert_array_equal(rows.view(np.uint64), expected)
            alone = sample_from_model(model, n, p, seed).rows
            np.testing.assert_array_equal(alone.view(np.uint64), expected)

    def test_kappa_zero_matches_uniform_law(self):
        # concentration zero must behave exactly like the null: check the
        # rayleigh rejection rate over full monte carlo in experiments tests;
        # here check norms/determinism and that the cosine law is symmetric
        s = sample_fvml(4000, 8, 0.0, SeedSpec(19))
        t = s.rows @ fvml_direction(8, SeedSpec(19))
        assert abs(t.mean()) < 3.0 * t.std(ddof=1) / math.sqrt(len(t))
        assert np.abs(np.linalg.norm(s.rows, axis=1) - 1.0).max() <= 1e-12

    def test_large_kappa_concentrates_on_direction(self):
        # the mean resultant length is E[t] ~ 1 - (p-1)/(2 kappa) = 0.99955 here,
        # against about 1/sqrt(n) = 0.07 for uniform rows
        s = sample_fvml(200, 10, 1e4, SeedSpec(20))
        assert np.linalg.norm(s.rows.mean(axis=0)) > 0.999

    @pytest.mark.parametrize("kappa", [1e14, 1e17, 1e160, 1e300, 1.7e308])
    @pytest.mark.parametrize("p", [2, 4, 100])
    def test_extreme_kappa_is_accepted(self, kappa, p):
        # 1 - t is about (p-1)/(2 kappa); the textbook acceptance test fails from ~1e17
        t = sample_fvml(50, p, kappa, SeedSpec(22)).rows @ fvml_direction(p, SeedSpec(22))
        assert np.all(1.0 - t <= 100.0 * (p - 1) / kappa + 1e-15)

    def test_deterministic(self):
        a = sample_fvml(12, 5, 2.0, SeedSpec(21, 4))
        b = sample_fvml(12, 5, 2.0, SeedSpec(21, 4))
        np.testing.assert_array_equal(a.rows, b.rows)

    def test_gives_up_when_no_proposal_is_accepted(self, fvml_never_accepts):
        with pytest.raises(RuntimeError,
                           match="^FvML cosine sampler failed to accept after 1000 rounds$"):
            _fvml_cosines(5, 3, 1.0, SeedSpec(1).generator())

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="kappa must be finite and >= 0"):
            sample_fvml(5, 2, -1.0, SeedSpec(1))
        with pytest.raises(ValueError, match=r"FvML sampling needs p >= 2"):
            sample_fvml(5, 1, 1.0, SeedSpec(1))


ALL_KINDS = [AlternativeModel.uniform(), AlternativeModel.alpha_spherical(CAUCHY),
             AlternativeModel.fvml(2.5)]


class TestAlternativeModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            AlternativeModel("watson")
        with pytest.raises(ValueError):
            AlternativeModel("alpha_spherical")
        with pytest.raises(ValueError):
            AlternativeModel.fvml(-0.5)

    @pytest.mark.parametrize(
        "kind, fields, message",
        [
            ("watson", {}, "unknown model kind 'watson'"),
            ("uniform", {"marginal": CAUCHY}, "model uniform takes no marginal"),
            ("uniform", {"kappa": 1.0}, "model uniform takes no kappa"),
            ("uniform", {"kappa": math.nan}, "model uniform takes no kappa"),
            ("alpha_spherical", {}, "model alpha_spherical needs a marginal"),
            ("alpha_spherical", {"marginal": "cauchy"},
             "^model alpha_spherical needs a marginal .*got 'cauchy'$"),
            ("alpha_spherical", {"marginal": CAUCHY, "kappa": 1.0},
             "model alpha_spherical takes no kappa"),
            ("fvml", {"marginal": CAUCHY, "kappa": 1.0}, "model fvml takes no marginal"),
            *(("fvml", {"kappa": kappa}, "kappa must be finite and >= 0")
              for kappa in (-0.5, math.inf, math.nan)),
        ],
        ids=["unknown", "uniform-marginal", "uniform-kappa", "uniform-kappa-nan",
             "alpha-no-marginal", "alpha-string-marginal", "alpha-kappa", "fvml-marginal",
             "fvml-kappa-negative", "fvml-kappa-inf", "fvml-kappa-nan"],
    )
    def test_each_kind_refuses_the_fields_it_does_not_read(self, kind, fields, message):
        with pytest.raises(ValueError, match=message):
            AlternativeModel(kind, **fields)

    @pytest.mark.parametrize("n, p", [(5.5, 3), (True, 3), (5, 2.0)],
                             ids=["n-float", "n-bool", "p-float"])
    def test_non_integer_shape_is_refused_before_any_draw(self, n, p, monkeypatch):
        def unreachable(*args):
            raise AssertionError("drew before the shape was checked")

        monkeypatch.setattr(sampling, "_sample_block", unreachable)
        with pytest.raises(ValueError, match=r"^[np] must be an integer, got "):
            sample_from_model(AlternativeModel.uniform(), n, p, SeedSpec(0))

    def test_no_fixed_direction(self):
        with pytest.raises(TypeError):
            AlternativeModel("fvml", kappa=1.0, direction=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("model", ALL_KINDS, ids=lambda m: m.kind)
    def test_hashes_and_compares_by_value(self, model):
        twin = AlternativeModel(model.kind, model.marginal, model.kappa)
        assert twin == model and twin is not model
        assert hash(twin) == hash(model)
        assert len({model, twin, *ALL_KINDS}) == 3

    def test_dispatch_deterministic(self):
        for model in ALL_KINDS:
            a = sample_from_model(model, 8, 6, SeedSpec(22, 1))
            b = sample_from_model(model, 8, 6, SeedSpec(22, 1))
            np.testing.assert_array_equal(a.rows, b.rows)

    def test_fvml_fresh_direction_varies_with_index(self):
        model = AlternativeModel.fvml(50.0)
        a = sample_from_model(model, 50, 6, SeedSpec(23, 0))
        b = sample_from_model(model, 50, 6, SeedSpec(23, 1))
        da = a.rows.mean(axis=0)
        db = b.rows.mean(axis=0)
        cos = da @ db / (np.linalg.norm(da) * np.linalg.norm(db))
        assert cos < 0.99  # replications do not share one direction
