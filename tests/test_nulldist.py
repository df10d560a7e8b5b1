import math
import re
from fractions import Fraction

import numpy as np
import pytest

from sphereuni.nulldist import GUMBEL_RATE, NullLaw, cdf, quantile, upper_p_value

NORMAL = NullLaw.STANDARD_NORMAL
GUMBEL = NullLaw.PACKING_GUMBEL


class TestCdf:
    def test_normal_at_zero(self):
        assert cdf(NORMAL, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_gumbel_at_zero(self):
        # exp(-(8 pi)^(-1/2)), evaluated with 30-digit arithmetic
        assert cdf(GUMBEL, 0.0) == pytest.approx(0.8191638613764112, abs=1e-14)

    def test_gumbel_limits(self):
        assert cdf(GUMBEL, 60.0) >= 1.0 - 1e-12
        assert cdf(GUMBEL, -60.0) <= 1e-12
        assert cdf(GUMBEL, -4000.0) == 0.0

    def test_nan_rejected(self):
        for law in (NORMAL, GUMBEL):
            with pytest.raises(ValueError):
                cdf(law, float("nan"))

    @pytest.mark.parametrize("law", [NORMAL, GUMBEL])
    def test_monotone_and_bounded_on_grid(self, law):
        grid = np.linspace(-100.0, 100.0, 10_000)
        values = np.array([cdf(law, x) for x in grid])
        assert np.all(values >= 0.0) and np.all(values <= 1.0)
        assert np.all(np.diff(values) >= 0.0)

    def test_gumbel_matches_trapezoid_of_density(self):
        # density g(x) = G(x) * rate * exp(-x/2) / 2
        x = np.linspace(-10.0, 30.0, 200_001)
        g = np.array([cdf(GUMBEL, v) for v in x])
        dens = g * GUMBEL_RATE * np.exp(-x / 2.0) / 2.0
        integral = np.concatenate(
            ([0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(x)))
        )
        recon = cdf(GUMBEL, -10.0) + integral
        assert np.abs(recon - g).max() < 1e-8


class TestQuantile:
    def test_gumbel_round_trip_value(self):
        assert quantile(GUMBEL, cdf(GUMBEL, 1.7)) == pytest.approx(1.7, abs=1e-10)

    def test_normal_classical_value(self):
        q = quantile(NORMAL, 0.975)
        assert q == pytest.approx(1.959964, abs=1e-6)
        # cross-check by bisection on the cdf
        lo, hi = 0.0, 10.0
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if cdf(NORMAL, mid) < 0.975:
                lo = mid
            else:
                hi = mid
        assert q == pytest.approx((lo + hi) / 2.0, abs=1e-12)

    def test_gumbel_closed_form(self):
        expected = -2.0 * math.log(-math.sqrt(8.0 * math.pi) * math.log(0.95))
        assert quantile(GUMBEL, 0.95) == pytest.approx(expected, rel=1e-15)
        assert quantile(GUMBEL, 0.95) == pytest.approx(2.716219070555093, abs=1e-12)

    @pytest.mark.parametrize("law", [NORMAL, GUMBEL])
    def test_round_trip_grid(self, law):
        grid = np.concatenate(
            ([1e-6, 1e-4, 1e-2], np.linspace(0.05, 0.95, 19), [1 - 1e-2, 1 - 1e-4, 1 - 1e-6])
        )
        for u in grid:
            assert abs(cdf(law, quantile(law, u)) - u) <= 1e-10

    @pytest.mark.parametrize("law", [NORMAL, GUMBEL])
    @pytest.mark.parametrize("u", [0.0, 1.0, -0.1, 1.1])
    def test_domain(self, law, u):
        with pytest.raises(ValueError):
            quantile(law, u)

    @pytest.mark.parametrize("u", ["0.5", None, True, 0.5 + 0j, np.array(0.5)],
                             ids=["str", "none", "bool", "complex", "array"])
    def test_argument_that_is_not_real_is_refused(self, u):
        message = f"^u must be a real number, got {re.escape(repr(u))}$"
        with pytest.raises(ValueError, match=message):
            quantile(NORMAL, u)

    @pytest.mark.parametrize("law", [NORMAL, GUMBEL])
    @pytest.mark.parametrize("u", [np.float32(0.975), Fraction(3, 4)], ids=["float32", "fraction"])
    def test_any_real_argument_gives_the_float64_quantile(self, law, u):
        assert quantile(law, u) == quantile(law, float(u))


class TestUpperPValue:
    def test_normal_at_zero(self):
        assert upper_p_value(NORMAL, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_gumbel_at_zero(self):
        assert upper_p_value(GUMBEL, 0.0) == pytest.approx(0.18083613862358884, abs=1e-14)

    @pytest.mark.parametrize("law", [NORMAL, GUMBEL])
    def test_strictly_decreasing(self, law):
        grid = np.linspace(-8.0, 8.0, 200)
        p = np.array([upper_p_value(law, x) for x in grid])
        assert np.all(np.diff(p) < 0.0)

    @pytest.mark.parametrize("law", [NORMAL, GUMBEL])
    def test_clamped(self, law):
        for x in (-300.0, 300.0):
            assert 0.0 <= upper_p_value(law, x) <= 1.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            upper_p_value(NORMAL, float("nan"))


class TestElementwise:
    @pytest.mark.parametrize("law", [NORMAL, GUMBEL])
    @pytest.mark.parametrize("fn", [cdf, upper_p_value])
    def test_array_matches_scalar_calls_bit_for_bit(self, law, fn):
        x = np.concatenate((np.linspace(-3000.0, 60.0, 997), [-1420.0, 0.0, 1e300]))
        values = fn(law, x)
        assert isinstance(values, np.ndarray) and values.shape == x.shape
        assert isinstance(fn(law, 0.5), float)
        assert values.tolist() == [fn(law, float(v)) for v in x]

    def test_nan_anywhere_rejected(self):
        with pytest.raises(ValueError, match="must not be NaN"):
            upper_p_value(GUMBEL, np.array([0.0, float("nan")]))
