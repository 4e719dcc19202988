"""Tests for special functions and seeded samplers."""

import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from causal_ssd.numerics import (
    RandomStream,
    WishartParams,
    regularized_incomplete_beta,
    sample_wishart,
    whole,
)
from causal_ssd.predictive import log_g_of_n
from causal_ssd.ssd import DceThresholds, h0_band_probabilities

from helpers import matmul_sample_wishart

# Bayes-factor thresholds whose r^2 cuts the H0 bands evaluate
BF_CUTS = (3.0, 6.0, 10.0, 1 / 3, 1 / 6, 1 / 10)


def pipeline_points(n):
    """(x, a, b) at which the H0 bands call I_x((n-1)/2, 1/2) for sample size n:
    the r^2 cut (k / g(n))^(2/(n-1)) of each reachable threshold k < g(n)."""
    g = math.exp(log_g_of_n(n))
    return [((k / g) ** (2.0 / (n - 1)), (n - 1) / 2.0, 0.5) for k in BF_CUTS if k < g]


def mp_betainc(x, a, b):
    with mpmath.workdps(40):
        return float(mpmath.betainc(a, b, 0, x, regularized=True))


class TestRandomStream:
    def test_same_seed_and_path_reproduce(self):
        s = RandomStream(123, (4, 5))
        a = s.generator().standard_normal(16)
        b = s.generator().standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_distinct_paths_differ(self):
        s = RandomStream(123)
        a = s.child(0).generator().standard_normal(16)
        b = s.child(1).generator().standard_normal(16)
        assert not np.array_equal(a, b)

    def test_child_extends_path(self):
        s = RandomStream(7, (1,))
        assert s.child(2, 3).path == (1, 2, 3)

    def test_negative_path_rejected(self):
        with pytest.raises(ValueError):
            RandomStream(1, (-1,))

    @pytest.mark.parametrize("seed", [True, False, -1, 1.5, 1.0, "1", None])
    def test_seed_not_a_nonnegative_integer_rejected(self, seed):
        # True was seed 1; -1 and 1.5 failed only once a generator was made
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got "):
            RandomStream(seed)

    @pytest.mark.parametrize("index", [1.5, 2.0, True])
    def test_child_index_not_an_integer_rejected(self, index):
        with pytest.raises(ValueError, match="stream path entry"):
            RandomStream(1).child(index)

    def test_numpy_integers_become_ints(self):
        s = RandomStream(np.int64(7), (np.int32(1),)).child(np.uint8(2))
        assert s == RandomStream(7, (1, 2))
        assert type(s.seed) is int and all(type(p) is int for p in s.path)


class TestWhole:
    @pytest.mark.parametrize("value", [2, 5, np.int64(2), np.uint16(9)])
    def test_integers_in_range_pass_as_int(self, value):
        got = whole("k", value, 2, 9)
        assert got == value and type(got) is int

    @pytest.mark.parametrize(
        "value, least, most, message",
        [
            (1, 2, None, "k must be an integer >= 2, got 1"),
            (10, 2, 9, "k must be an integer in [2, 9], got 10"),
            (True, 0, None, "k must be an integer >= 0, got True"),
            (np.bool_(True), 0, None, "k must be an integer >= 0, got "),
            (3.0, 2, None, "k must be an integer >= 2, got 3.0"),
            (np.float64(3.0), 2, None, "k must be an integer >= 2, got "),
            (None, 2, None, "k must be an integer >= 2, got None"),
            ("3", 2, None, "k must be an integer >= 2, got '3'"),
        ],
    )
    def test_anything_else_rejected(self, value, least, most, message):
        with pytest.raises(ValueError) as info:
            whole("k", value, least, most)
        assert str(info.value).startswith(message)

    def test_huge_integers_compared_exactly(self):
        assert whole("k", 10**30, 0) == 10**30
        with pytest.raises(ValueError):
            whole("k", 2**63, 0, 2**63 - 1)


class TestLogGOfN:
    def test_against_high_precision(self):
        # independent oracle: 50-digit arithmetic.  The difference of the two
        # log-gammas loses up to a few ulps of the larger one
        with mpmath.workdps(50):
            for n in [2, 3, 57, 1000, 10**6]:
                expected = float(
                    mpmath.log(n)
                    + mpmath.loggamma(mpmath.mpf(n) / 2)
                    - mpmath.loggamma(mpmath.mpf(n + 1) / 2)
                    - mpmath.log(mpmath.pi) / 2
                )
                bound = 4 * np.finfo(float).eps * max(1.0, math.lgamma((n + 1) / 2))
                assert abs(log_g_of_n(n) - expected) <= bound


class TestRegularizedIncompleteBeta:
    def test_trivial_values(self):
        assert regularized_incomplete_beta(1.0, 2.3, 4.5) == 1.0
        assert regularized_incomplete_beta(0.0, 2.3, 4.5) == 0.0
        for x in [0.0, 0.25, 0.5, 0.75, 1.0]:
            assert regularized_incomplete_beta(x, 1.0, 1.0) == pytest.approx(x, abs=1e-14)
        assert regularized_incomplete_beta(0.5, 0.5, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_against_high_precision(self):
        with mpmath.workdps(50):
            rng = np.random.default_rng(0)
            for _ in range(40):
                a = float(rng.uniform(0.1, 60.0))
                b = float(rng.uniform(0.1, 60.0))
                x = float(rng.uniform(0.0, 1.0))
                expected = float(mpmath.betainc(a, b, 0, x, regularized=True))
                assert abs(regularized_incomplete_beta(x, a, b) - expected) <= 1e-10

    def test_extreme_shapes_stable(self):
        # shapes used by the evidence-band machinery: (1/2, (n-1)/2), n up to 1e4
        with mpmath.workdps(60):
            for n in [10, 100, 1000, 10000]:
                a, b = 0.5, (n - 1) / 2.0
                for x in [1e-6, 1e-3, 0.02, 0.5, 0.999]:
                    expected = float(mpmath.betainc(a, b, 0, x, regularized=True))
                    assert abs(regularized_incomplete_beta(x, a, b) - expected) <= 1e-10

    def test_pipeline_shapes_against_mpmath(self):
        sizes = sorted({*np.geomspace(2, 10**6, 40).round().astype(int).tolist(), 157, 10**6})
        checked = 0
        for n in sizes:
            for x, a, b in pipeline_points(n):
                got = regularized_incomplete_beta(x, a, b)
                assert abs(got - mp_betainc(x, a, b)) <= 1e-14, (n, x)
                checked += 1
        assert checked > 5 * len(sizes)

    def test_pipeline_shapes_against_scipy(self):
        # scipy is a test-only oracle; the package computes I_x itself
        for n in range(2, 1001):
            for x, a, b in pipeline_points(n):
                got = regularized_incomplete_beta(x, a, b)
                assert abs(got - scipy.special.betainc(a, b, x)) <= 1e-13, (n, x)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.floats(0.05, 1e3), st.floats(0.05, 1e3), st.floats(0.0, 1.0))
    def test_sweep_against_mpmath_and_symmetry(self, a, b, x):
        got = regularized_incomplete_beta(x, a, b)
        assert abs(got - mp_betainc(x, a, b)) <= 1e-12
        # 1 - x rounds for x < 1/2; then 1 - (1 - x) and 1 - x sum to 1 exactly
        y = 1.0 - x
        x = 1.0 - y
        mirrored = 1.0 - regularized_incomplete_beta(y, b, a)
        assert abs(regularized_incomplete_beta(x, a, b) - mirrored) <= 1e-12

    def test_h0_triple_is_a_distribution(self):
        th = DceThresholds()
        for n in sorted({*np.geomspace(2, 10**6, 60).round().astype(int).tolist(), 10**6}):
            triple = h0_band_probabilities(th, n)
            assert all(0.0 <= p <= 1.0 for p in triple), (n, triple)
            assert abs(sum(triple) - 1.0) <= 1e-15, (n, triple)

    def test_monotone_in_x(self):
        grid = np.linspace(0.0, 1.0, 101)
        vals = [regularized_incomplete_beta(x, 24.5, 0.5) for x in grid]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.5, 1.0, -2.0)


class TestWishartParams:
    def test_symmetric_rate_kept_bit_for_bit(self):
        # entries above half the float range, and subnormal ones, survive the
        # symmetrization unchanged and without an overflow warning
        for u in ([[1.44e308, 1e154], [1e154, 1e308]], [[3e-320, 1e-321], [1e-321, 2e-320]]):
            np.testing.assert_array_equal(WishartParams(5.0, np.array(u)).rate, u)
        near = WishartParams(5.0, np.array([[2.0, 0.6], [0.6 + 1e-14, 1.5]])).rate
        np.testing.assert_array_equal(near, near.T)

    def test_rejects_non_positive_definite(self):
        with pytest.raises(ValueError):
            WishartParams(5.0, np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            WishartParams(5.0, np.array([[1.0, 0.5], [0.1, 1.0]]))

    def test_rejects_improper_df(self):
        with pytest.raises(ValueError):
            WishartParams(1.0, np.eye(3))


class TestSampleWishart:
    def test_one_dimensional_gamma_reduction(self):
        # T = 1: Wishart(a, s) draws are Gamma with mean a / s
        a, s = 6.0, 2.5
        draws = sample_wishart(RandomStream(31), WishartParams(a, np.array([[s]])), size=100_000)
        assert np.mean(draws) == pytest.approx(a / s, rel=0.01)

    def test_mean_matrix_2x2(self):
        u = np.array([[2.0, 0.6], [0.6, 1.5]])
        params = WishartParams(8.0, u)
        draws = sample_wishart(RandomStream(32), params, size=100_000)
        np.testing.assert_allclose(draws.mean(axis=0), 8.0 * np.linalg.inv(u), rtol=0.02)

    def test_draws_are_symmetric_positive_definite(self):
        params = WishartParams(5.0, np.array([[1.0, 0.2, 0.0], [0.2, 1.0, 0.1], [0.0, 0.1, 1.0]]))
        draws = sample_wishart(RandomStream(33), params, size=200)
        for q in draws:
            np.testing.assert_allclose(q, q.T, atol=1e-12)
            np.linalg.cholesky(q)  # raises if not positive definite

    def test_additivity_in_degrees_of_freedom(self):
        # W(a1, U) + W(a2, U) is distributed W(a1 + a2, U): check the mean
        u = np.array([[1.5, 0.4], [0.4, 1.2]])
        d1 = sample_wishart(RandomStream(34), WishartParams(4.0, u), size=50_000)
        d2 = sample_wishart(RandomStream(35), WishartParams(3.0, u), size=50_000)
        total = (d1 + d2).mean(axis=0)
        np.testing.assert_allclose(total, 7.0 * np.linalg.inv(u), rtol=0.02)

    @pytest.mark.parametrize("size", [None, 10_000])
    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_matches_matmul_oracle(self, t, size):
        # same stream, same draw order: only the rounding of the sums differs
        z = np.random.default_rng(40 + t).standard_normal((30, t))
        params = WishartParams(t + 4.0, z.T @ z)
        got = sample_wishart(RandomStream(41, (t,)), params, size=size)
        want = matmul_sample_wishart(RandomStream(41, (t,)), params, size=size)
        assert got.shape == want.shape == ((t, t) if size is None else (size, t, t))
        # near-zero off-diagonals cancel; an absolute floor covers them
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14 * np.abs(want).max())
        np.testing.assert_array_equal(got, np.swapaxes(got, -1, -2))

    def test_single_draw_shape_and_determinism(self):
        params = WishartParams(5.0, np.eye(2))
        q1 = sample_wishart(RandomStream(36), params)
        q2 = sample_wishart(RandomStream(36), params)
        assert q1.shape == (2, 2)
        np.testing.assert_array_equal(q1, q2)
