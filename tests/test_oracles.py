import math

import numpy as np
import pytest

from sphereuni.oracles import (
    alpha_fourth_inner_moment,
    alpha_mixed_moment,
    brute_statistics,
    null_max_reference,
    random_rotation,
    uniform_inner_moment,
)
from sphereuni.sampling import (
    HeavyTailMarginal,
    SeedSpec,
    SphericalSample,
    sample_alpha_spherical,
    sample_uniform_sphere,
)
from sphereuni.stats import (
    bingham_statistic,
    packing_statistic,
    pairwise_summary,
    rayleigh_statistic,
)


@pytest.mark.parametrize("call, message", [
    (lambda: alpha_fourth_inner_moment(2.0, 10), r"alpha must lie in \(0, 2\)"),
    (lambda: alpha_fourth_inner_moment(0.0, 10), r"alpha must lie in \(0, 2\)"),
    (lambda: alpha_fourth_inner_moment(1.0, 0), "p must be positive"),
    (lambda: brute_statistics(SphericalSample.from_rows(np.eye(1, 3))), "need n >= 2"),
    (lambda: null_max_reference(10, 0), "p must be positive"),
    (lambda: random_rotation(0, SeedSpec(1)), "p must be positive"),
], ids=["fourth-moment-alpha-2", "fourth-moment-alpha-0", "fourth-moment-p",
        "brute-n", "null-max-p", "rotation-p"])
def test_oracle_refuses_its_domain(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestUniformInnerMoment:
    def test_tau_one_is_reciprocal_p(self):
        for p in (1, 2, 10, 250):
            assert uniform_inner_moment(p, 1).value == pytest.approx(1.0 / p, rel=1e-15)

    def test_tau_two(self):
        for p in (2, 10, 100):
            assert uniform_inner_moment(p, 2).value == pytest.approx(
                3.0 / (p * (p + 2)), rel=1e-15
            )

    def test_p_one_degenerate(self):
        for tau in (1, 2, 3, 4):
            assert uniform_inner_moment(1, tau).value == 1.0

    def test_kind_exact(self):
        assert uniform_inner_moment(5, 2).kind == "exact"

    def test_domain(self):
        with pytest.raises(ValueError):
            uniform_inner_moment(0, 1)
        with pytest.raises(ValueError):
            uniform_inner_moment(5, 0)

    @pytest.mark.parametrize("p", [2, 10, 100])
    def test_monte_carlo_agreement(self, p):
        s = sample_uniform_sphere(20_000, p, SeedSpec(6 + p))
        g = np.einsum("ij,ij->i", s.rows[:10_000], s.rows[10_000:])
        for tau in (1, 2, 3):
            v = g ** (2 * tau)
            se = v.std(ddof=1) / math.sqrt(len(v))
            assert abs(v.mean() - uniform_inner_moment(p, tau).value) <= 4.0 * se


class TestAlphaMixedMoment:
    def test_second_moment_collapses_to_reciprocal_p(self):
        for alpha in (0.3, 1.0, 1.7):
            for p in (3, 50):
                assert alpha_mixed_moment(alpha, [1], p).value == pytest.approx(
                    1.0 / p, rel=1e-12
                )

    def test_fourth_coordinate_moment_at_alpha_one(self):
        # Gamma(3/2)/(Gamma(1/2) Gamma(2)) = 1/2
        assert alpha_mixed_moment(1.0, [2], 10).value == pytest.approx(0.05, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            alpha_mixed_moment(2.0, [1], 5)
        with pytest.raises(ValueError):
            alpha_mixed_moment(0.0, [1], 5)
        with pytest.raises(ValueError):
            alpha_mixed_moment(1.0, [], 5)
        with pytest.raises(ValueError):
            alpha_mixed_moment(1.0, [1, 0], 5)
        with pytest.raises(ValueError):
            alpha_mixed_moment(1.0, [1, 1, 1], 2)

    def test_monte_carlo_coordinate_fourth_moment(self):
        # cauchy projection at p=200: p E[X1^4] near Gamma-formula value 1/2
        s = sample_alpha_spherical(100_000, 200, HeavyTailMarginal.cauchy(), SeedSpec(5))
        measured = float((s.rows[:, 0] ** 4).mean())
        formula = alpha_mixed_moment(1.0, [2], 200).value
        assert measured == pytest.approx(formula, rel=0.20)

    def test_kind_asymptotic(self):
        assert alpha_mixed_moment(1.0, [2, 1], 10).kind == "asymptotic"


class TestAlphaFourthInnerMoment:
    def test_arithmetic(self):
        assert alpha_fourth_inner_moment(1.0, 100).value == pytest.approx(0.0025, abs=1e-15)

    def test_vanishes_as_alpha_approaches_two(self):
        assert alpha_fourth_inner_moment(1.999, 10).value < 1e-6

    def test_consistent_with_mixed_moment(self):
        # leading order: E (x.y)^4 ~ p * (E X^4)^2
        for alpha in (0.5, 1.0, 1.5):
            for p in (20, 200):
                via_mixed = p * alpha_mixed_moment(alpha, [2], p).value ** 2
                assert alpha_fourth_inner_moment(alpha, p).value == pytest.approx(
                    via_mixed, rel=1e-12
                )

    def test_monte_carlo_cauchy(self):
        s = sample_alpha_spherical(40_000, 100, HeavyTailMarginal.cauchy(), SeedSpec(3))
        g = np.einsum("ij,ij->i", s.rows[:20_000], s.rows[20_000:])
        measured = float((g**4).mean())
        assert measured == pytest.approx(alpha_fourth_inner_moment(1.0, 100).value, rel=0.15)

    def test_monte_carlo_alpha_15_order_and_universality(self):
        # at alpha=1.5 the 1+o(1) factor is still ~1.8 at p=100 (pilot: 1.85
        # for t, 1.66 for symmetrized pareto), so only order of magnitude and
        # marginal-universality are asserted at this scale
        formula = alpha_fourth_inner_moment(1.5, 100).value
        means = []
        for marginal, seed in (
            (HeavyTailMarginal.student_t(1.5), 17),
            (HeavyTailMarginal.pareto(1.5), 18),
        ):
            s = sample_alpha_spherical(60_000, 100, marginal, SeedSpec(seed))
            g = np.einsum("ij,ij->i", s.rows[:30_000], s.rows[30_000:])
            means.append(float((g**4).mean()))
        for m in means:
            assert formula < m < 2.5 * formula
        assert abs(means[0] - means[1]) <= 0.35 * max(means)


class TestBruteStatistics:
    def test_identical_rows(self):
        row = np.array([1.0, 0.0])
        s = SphericalSample.from_rows(np.tile(row, (2, 1)))
        r, b, pk = brute_statistics(s)
        assert r == pytest.approx(1.0)
        assert b == pytest.approx(0.5)

    def test_orthogonal_rows(self):
        s = SphericalSample.from_rows(np.eye(2, 6))
        r, b, _ = brute_statistics(s)
        assert r == 0.0
        assert b == pytest.approx(-0.5)

    def test_matches_fast_path_on_random_grid(self):
        rng = np.random.default_rng(81)
        for _ in range(40):
            n = int(rng.integers(2, 31))
            p = int(rng.integers(1, 31))
            z = rng.standard_normal((n, p))
            sample = SphericalSample.from_rows(z / np.linalg.norm(z, axis=1)[:, None])
            summary = pairwise_summary(sample)
            fast = (
                rayleigh_statistic(summary),
                bingham_statistic(summary),
                packing_statistic(summary) if n > 2 else None,
            )
            slow = brute_statistics(sample)
            assert fast[0] == pytest.approx(slow[0], rel=1e-9, abs=1e-9)
            assert fast[1] == pytest.approx(slow[1], rel=1e-9, abs=1e-9)
            if n > 2:
                assert fast[2] == pytest.approx(slow[2], rel=1e-9, abs=1e-9)


class TestNullMaxReference:
    def test_arithmetic(self):
        assert null_max_reference(100, 100) == pytest.approx(0.4291932052578694, abs=1e-12)

    def test_vanishes_in_p(self):
        values = [null_max_reference(100, p) for p in (10, 100, 1000, 100_000)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 0.03

    def test_domain(self):
        with pytest.raises(ValueError):
            null_max_reference(2, 10)

    def test_monte_carlo_median(self):
        maxima = []
        for i in range(500):
            s = sample_uniform_sphere(100, 400, SeedSpec(82, i))
            maxima.append(pairwise_summary(s).max_abs_inner)
        ref = null_max_reference(100, 400)
        assert abs(np.median(maxima) - ref) <= 0.25 * ref


class TestRandomRotation:
    def test_p_one(self):
        q = random_rotation(1, SeedSpec(83))
        assert q.shape == (1, 1)
        assert abs(q[0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_p50(self):
        q = random_rotation(50, SeedSpec(84))
        err = np.linalg.norm(q.T @ q - np.eye(50))
        assert err <= 1e-10

    def test_statistics_invariant(self):
        sample = sample_uniform_sphere(20, 15, SeedSpec(85))
        q = random_rotation(15, SeedSpec(86))
        rotated = SphericalSample.from_rows(sample.rows @ q)
        a = brute_statistics(sample)
        b = brute_statistics(rotated)
        for x, y in zip(a, b):
            assert x == pytest.approx(y, abs=1e-8)
