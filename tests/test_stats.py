import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as scipy_stats

from sphereuni import _kernels, _parallel
from sphereuni.oracles import brute_statistics, random_rotation
from sphereuni.sampling import SeedSpec, SphericalSample, sample_uniform_sphere
from sphereuni.stats import (
    bingham_statistic,
    fisher_combination,
    fisher_threshold,
    packing_statistic,
    pairwise_summary,
    rayleigh_statistic,
    run_all_tests,
)


def identical_rows(n, p):
    row = np.zeros(p)
    row[0] = 1.0
    return SphericalSample.from_rows(np.tile(row, (n, 1)))


def basis_rows(p):
    return SphericalSample.from_rows(np.eye(2, p))


def full_width_tiles_reduce(stack):
    """The kernel before tiles were cut into column chunks: each 256-row tile
    spans every later column.  Kept as the oracle for n <= _kernels._CHUNK."""
    count, n = stack.shape[:2]
    out = np.empty((count, 3))
    sum_sq, max_abs = 0.0, 0.0
    with _parallel.blas_pin:
        s = stack.sum(axis=1)
        out[:, 0] = ((s[:, None, :] @ s[:, :, None])[:, 0, 0] - n) / 2.0
        for i in range(0, n, 256):
            rows = stack[:, i : i + 256]
            b, width = rows.shape[1], n - i
            tile = np.empty((count, b, width))
            np.matmul(rows, stack[:, i:].transpose(0, 2, 1), out=tile)
            sum_sq = sum_sq + np.array(
                [(float(np.einsum("ij,ij->", g[:, :b], g[:, :b])) - b) / 2.0 for g in tile]
            )
            if b < width:
                sum_sq = sum_sq + np.array(
                    [float(np.einsum("ij,ij->", g[:, b:], g[:, b:])) for g in tile]
                )
            tile.reshape(count, -1)[:, :: width + 1] = 0.0
            max_abs = np.maximum(max_abs, np.abs(tile, out=tile).max(axis=(1, 2)))
    out[:, 1] = sum_sq
    out[:, 2] = max_abs
    return out


class TestPairwiseSummary:
    def test_two_identical_rows(self):
        s = pairwise_summary(identical_rows(2, 3))
        assert (s.sum_inner, s.sum_inner_sq, s.max_abs_inner) == (1.0, 1.0, 1.0)

    def test_orthogonal_rows(self):
        s = pairwise_summary(basis_rows(4))
        assert (s.sum_inner, s.sum_inner_sq, s.max_abs_inner) == (0.0, 0.0, 0.0)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            pairwise_summary(identical_rows(1, 3))

    def test_matches_double_loop(self):
        sample = sample_uniform_sphere(50, 20, SeedSpec(71))
        s = pairwise_summary(sample)
        s1 = s2 = 0.0
        m = 0.0
        for i in range(50):
            for j in range(i + 1, 50):
                g = float(sample.rows[i] @ sample.rows[j])
                s1 += g
                s2 += g * g
                m = max(m, abs(g))
        assert s.sum_inner == pytest.approx(s1, rel=1e-9)
        assert s.sum_inner_sq == pytest.approx(s2, rel=1e-9)
        assert s.max_abs_inner == pytest.approx(m, rel=1e-9)

    def test_invariants(self):
        s = pairwise_summary(sample_uniform_sphere(30, 10, SeedSpec(72)))
        assert s.sum_inner_sq >= 0.0
        assert 0.0 <= s.max_abs_inner <= 1.0 + 1e-12
        assert s.sum_inner_sq >= s.max_abs_inner**2

    # n straddles the 256-row tile: one tile up to 256, a partial last tile beyond
    @pytest.mark.parametrize("p", [1, 5, 100])
    @pytest.mark.parametrize("n", [3, 255, 256, 257, 513])
    def test_matches_brute_force_across_tile_boundary(self, n, p):
        sample = sample_uniform_sphere(n, p, SeedSpec(73, n * 1000 + p))
        summary = pairwise_summary(sample)
        fast = (
            rayleigh_statistic(summary),
            bingham_statistic(summary),
            packing_statistic(summary),
        )
        for got, want in zip(fast, brute_statistics(sample)):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    # the one-shot Gram formula behind perfbench/reference.json; up to 256 rows (one tile)
    # the kernel must reproduce it bit for bit, at the size table's dimensions
    @pytest.mark.parametrize("p", [40, 100, 120])
    @pytest.mark.parametrize("n", [3, 80, 100, 255, 256])
    def test_single_tile_matches_one_shot_gram_bit_for_bit(self, n, p):
        rows = sample_uniform_sphere(n, p, SeedSpec(75, n * 1000 + p)).rows
        s = rows.sum(axis=0)
        g = rows @ rows.T
        sum_inner_sq = (float(np.einsum("ij,ij->", g, g)) - n) / 2.0
        np.fill_diagonal(g, 0.0)
        want = ((float(s @ s) - n) / 2.0, sum_inner_sq, float(np.abs(g).max()))
        assert tuple(_kernels.pairwise_reduce(rows[None])[0]) == want

    @pytest.mark.parametrize("n", [30, 300])
    def test_nan_in_last_tile_makes_max_nan(self, n):
        rows = sample_uniform_sphere(n, 5, SeedSpec(76)).rows.copy()
        rows[n - 1, 0] = np.nan
        assert math.isnan(_kernels.pairwise_reduce(rows[None])[0, 2])

    @pytest.mark.parametrize("n, p", [(100, 120), (300, 8)])
    def test_same_bits_whatever_the_blas_thread_count(self, n, p):
        calls = _parallel._openblas()
        if calls is None:
            pytest.skip("numpy's bundled OpenBLAS thread calls are not available")
        get, set_ = calls
        stack = np.stack([sample_uniform_sphere(n, p, SeedSpec(77, k)).rows for k in range(24)])
        before = get()
        results = []
        try:
            for count in (1, 2):
                set_(count)
                results.append(_kernels.pairwise_reduce(stack))
                assert get() == count
        finally:
            set_(before)
        np.testing.assert_array_equal(results[0].view(np.uint64), results[1].view(np.uint64))

    # up to n = _CHUNK a tile is one chunk, with the operations of the full-width tiles
    @pytest.mark.parametrize("n, p", [(3, 5), (80, 40), (100, 120), (257, 100), (513, 20),
                                      (1024, 50)])
    def test_matches_full_width_tiles_bit_for_bit_up_to_one_chunk(self, n, p):
        stack = np.stack([sample_uniform_sphere(n, p, SeedSpec(79, k)).rows for k in range(2)])
        got = _kernels.pairwise_reduce(stack)
        want = full_width_tiles_reduce(stack)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("n, p", [(1025, 50), (1300, 10), (2100, 3)])
    def test_column_chunks_match_brute_force(self, n, p):
        sample = sample_uniform_sphere(n, p, SeedSpec(80, n))
        summary = pairwise_summary(sample)
        fast = (rayleigh_statistic(summary), bingham_statistic(summary),
                packing_statistic(summary))
        for got, want in zip(fast, brute_statistics(sample)):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_chunked_tile_peak_memory(self):
        # a full-width 256 x 6000 tile alone would take 12.3 MB; a chunk takes 2 MiB
        sample = sample_uniform_sphere(6000, 20, SeedSpec(81))
        tracemalloc.start()
        try:
            pairwise_summary(sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_tiled_peak_memory(self, monkeypatch):
        # the one-shot Gram matrix alone would take 2000^2 * 8 B = 32 MB; one sample's
        # extra memory is one 256-row tile however many CPUs there are
        monkeypatch.setattr(_parallel, "_available_cpus", lambda: 64)
        sample = sample_uniform_sphere(2000, 100, SeedSpec(74))
        tracemalloc.start()
        try:
            pairwise_summary(sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestRayleigh:
    def test_identical_rows_p2(self):
        assert rayleigh_statistic(pairwise_summary(identical_rows(2, 2))) == pytest.approx(1.0)

    def test_orthogonal_rows(self):
        assert rayleigh_statistic(pairwise_summary(basis_rows(3))) == 0.0

    def test_null_distribution_is_standard_normal(self):
        values = []
        for i in range(2000):
            s = sample_uniform_sphere(100, 100, SeedSpec(555, i))
            values.append(rayleigh_statistic(pairwise_summary(s)))
        res = scipy_stats.kstest(values, "norm")
        assert res.pvalue > 0.01


class TestBingham:
    def test_orthogonal_rows(self):
        for p in (2, 5, 11):
            assert bingham_statistic(pairwise_summary(basis_rows(p))) == pytest.approx(-0.5)

    def test_identical_rows(self):
        for p in (2, 7):
            expected = (p - 1) / 2.0
            assert bingham_statistic(pairwise_summary(identical_rows(2, p))) == pytest.approx(
                expected
            )

    def test_null_distribution_is_standard_normal(self):
        values = []
        for i in range(2000):
            s = sample_uniform_sphere(100, 100, SeedSpec(556, i))
            values.append(bingham_statistic(pairwise_summary(s)))
        res = scipy_stats.kstest(values, "norm")
        assert res.pvalue > 0.01


class TestPacking:
    def test_identical_rows_closed_form(self):
        # 4 - 4 log 2 + log log 2, thirty-digit value
        with pytest.warns(UserWarning):
            got = packing_statistic(pairwise_summary(identical_rows(2, 4)))
        assert got == pytest.approx(0.8608983571785544, abs=1e-12)

    def test_orthogonal_rows_closed_form(self):
        with pytest.warns(UserWarning):
            got = packing_statistic(pairwise_summary(basis_rows(5)))
        assert got == pytest.approx(-3.1391016428214456, abs=1e-12)

    def test_n2_warns(self):
        with pytest.warns(UserWarning, match="n=2"):
            packing_statistic(pairwise_summary(identical_rows(2, 4)))

    def test_n3_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            packing_statistic(pairwise_summary(identical_rows(3, 4)))


class TestFisherCombination:
    def test_threshold_value(self):
        assert fisher_threshold(0.05) == pytest.approx(0.016952427508441499, abs=1e-15)

    def test_midway_accepts(self):
        out = fisher_combination(0.5, 0.5, 0.5, 0.05)
        assert out.statistic == 0.5
        assert not out.reject

    def test_small_p_rejects(self):
        assert fisher_combination(0.001, 0.9, 0.9, 0.05).reject

    def test_all_ones(self):
        out = fisher_combination(1.0, 1.0, 1.0, 0.05)
        assert not out.reject
        assert out.p_value == 1.0

    def test_threshold_rule_matches_combined_p_value(self):
        rng = np.random.default_rng(74)
        for _ in range(500):
            ps = rng.random(3)
            level = rng.uniform(0.001, 0.3)
            out = fisher_combination(*ps, level)
            assert out.reject == (min(ps) <= fisher_threshold(level))
            assert out.reject == (out.p_value <= level)
            # combined p-value is the Sidak transform of the minimum
            assert out.p_value == pytest.approx(1.0 - (1.0 - min(ps)) ** 3, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fisher_combination(0.5, 0.5, 1.5, 0.05)
        with pytest.raises(ValueError):
            fisher_combination(0.5, 0.5, 0.5, 0.0)
        with pytest.raises(ValueError):
            fisher_combination(0.5, 0.5, 0.5, 1.0)


class TestRunAllTests:
    def test_outcome_contract(self):
        sample = sample_uniform_sphere(30, 10, SeedSpec(75))
        outcomes = run_all_tests(sample, 0.05)
        assert [o.test for o in outcomes] == ["rayleigh", "bingham", "packing", "fisher"]
        for o in outcomes[:3]:
            assert o.reject == (o.p_value <= o.level)
            assert 0.0 <= o.p_value <= 1.0
        from sphereuni.stats import TestOutcome

        assert isinstance(outcomes[0], TestOutcome)

    def test_identical_rows_all_reject(self):
        # p must exceed ~4 log n + 24 for the packing p-value to hit 1e-6
        outcomes = run_all_tests(identical_rows(20, 50), 0.05)
        for o in outcomes[:3]:
            assert o.p_value <= 1e-6
        assert all(o.reject for o in outcomes)

    def test_needs_three_rows(self):
        with pytest.raises(ValueError):
            run_all_tests(identical_rows(2, 5), 0.05)
        with pytest.raises(ValueError):
            run_all_tests(identical_rows(5, 5), 1.5)


class TestInvariances:
    def test_row_permutation(self):
        sample = sample_uniform_sphere(25, 12, SeedSpec(76))
        perm = np.random.default_rng(77).permutation(25)
        shuffled = SphericalSample.from_rows(sample.rows[perm])
        a = pairwise_summary(sample)
        b = pairwise_summary(shuffled)
        assert a.sum_inner == pytest.approx(b.sum_inner, abs=1e-10)
        assert a.sum_inner_sq == pytest.approx(b.sum_inner_sq, abs=1e-10)
        assert a.max_abs_inner == pytest.approx(b.max_abs_inner, abs=1e-12)

    def test_rotation(self):
        sample = sample_uniform_sphere(25, 12, SeedSpec(78))
        q = random_rotation(12, SeedSpec(79))
        rotated = SphericalSample.from_rows(sample.rows @ q)
        sa, sb = pairwise_summary(sample), pairwise_summary(rotated)
        for stat in (rayleigh_statistic, bingham_statistic, packing_statistic):
            assert abs(stat(sa) - stat(sb)) <= 1e-8
