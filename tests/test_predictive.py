"""Tests for the predictive Bayes-factor machinery."""

import math

import mpmath
import numpy as np
import pytest
from scipy import stats

from causal_ssd.bayes import g_of_n
from causal_ssd.numerics import RandomStream, regularized_incomplete_beta, sample_wishart
from causal_ssd.predictive import (
    BfPredictiveSample,
    InsufficientDataError,
    InterventionDensity,
    build_design_posterior,
    draw_h1_edge,
    prob_bf_band_h0,
    sample_bf_h0,
    sample_bf_h1,
)

from helpers import (
    CholeskyPair,
    derive_cholesky_pair,
    matmul_sample_wishart,
    pairs_sample_bf_h1,
    reference_sample_bf_h1,
)


def observational_data(seed, n_rows=50, beta=0.5):
    rng = np.random.default_rng(seed)
    zu = rng.standard_normal(n_rows)
    zv = beta * zu + rng.standard_normal(n_rows)
    return np.column_stack([zu, zv])


def two_node_posterior(seed, n_rows=50, beta=0.5):
    return build_design_posterior(observational_data(seed, n_rows, beta), 1.0, labels=("u", "v"))


def h0_cdf(c, n):
    if c <= 0:
        return 0.0
    t = min((c / g_of_n(n)) ** (2.0 / (n - 1)), 1.0)
    return regularized_incomplete_beta(t, (n - 1) / 2.0, 0.5)


class TestBuildDesignPosterior:
    def test_fifty_rows_degrees(self):
        post = two_node_posterior(0)
        assert post.df == 51.0
        assert post.labels == ("u", "v")
        # 2x2 conditional-precision degrees: df - (T - 2) = 51
        assert post.pair_precision_params("u", "v").df == 51.0

    def test_zero_data_rejected(self):
        with pytest.raises(InsufficientDataError):
            build_design_posterior(np.zeros((5, 2)), 1.0)

    def test_rank_deficient_rejected(self):
        col = np.random.default_rng(1).standard_normal(10)
        with pytest.raises(InsufficientDataError):
            build_design_posterior(np.column_stack([col, 2 * col]), 1.0)

    def test_improper_degrees_rejected(self):
        z = np.random.default_rng(2).standard_normal((1, 4))
        # df - (T - 2) = 1 + 1 - 2 = 0 <= 1
        with pytest.raises(InsufficientDataError):
            build_design_posterior(z, 0.0)


class TestInterventionDensity:
    @pytest.mark.parametrize("bad_sd", [0.0, -1.0, math.nan, math.inf])
    def test_degenerate_sd_rejected(self, bad_sd):
        with pytest.raises(ValueError):
            InterventionDensity(mean=0.0, sd=bad_sd)

    def test_non_finite_mean_rejected(self):
        with pytest.raises(ValueError):
            InterventionDensity(mean=math.nan)


class TestDeriveCholeskyPair:
    def test_identity(self):
        pair = derive_cholesky_pair(np.eye(2))
        assert pair.l_uv == 0.0
        assert pair.d_vv == 1.0

    def test_unit_correlation_matrix(self):
        rho = 0.6
        pair = derive_cholesky_pair(np.array([[1.0, rho], [rho, 1.0]]))
        assert pair.l_uv == pytest.approx(-rho)
        assert pair.d_vv == pytest.approx(1.0 - rho**2)

    def test_hand_computed(self):
        pair = derive_cholesky_pair(np.array([[4.0, 2.0], [2.0, 2.0]]))
        assert pair.l_uv == pytest.approx(-0.5)
        assert pair.d_vv == pytest.approx(1.0)

    def test_monte_carlo_regression_check(self):
        # the sampling mean of x_v given x_u is -l_uv * x_u with residual
        # variance d_vv
        sigma = np.array([[2.0, -0.8], [-0.8, 1.5]])
        pair = derive_cholesky_pair(sigma)
        rng = np.random.default_rng(3)
        draws = rng.multivariate_normal([0.0, 0.0], sigma, size=200_000)
        slope = np.sum(draws[:, 0] * draws[:, 1]) / np.sum(draws[:, 0] ** 2)
        assert slope == pytest.approx(-pair.l_uv, abs=0.01)
        resid = draws[:, 1] - slope * draws[:, 0]
        assert np.var(resid) == pytest.approx(pair.d_vv, rel=0.02)

    def test_not_positive_definite_rejected(self):
        with pytest.raises(ValueError):
            derive_cholesky_pair(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError):
            CholeskyPair(l_uv=0.0, d_vv=0.0)

    def test_sampler_slope_and_sd_match_the_oracle(self):
        # the sampler reads the slope as -Q_uv / Q_vv and the conditional sd
        # as sqrt(1 / Q_vv) off a precision draw Q; the oracle derives them
        # from the covariance Q^{-1}
        post = two_node_posterior(2)
        params = post.pair_precision_params("u", "v")
        for q in sample_wishart(RandomStream(4), params, size=20):
            slope, sd = -q[0, 1] / q[1, 1], math.sqrt(1.0 / q[1, 1])
            pair = derive_cholesky_pair(np.linalg.inv(q))
            assert slope == pytest.approx(-pair.l_uv, rel=1e-12)
            assert sd**2 == pytest.approx(pair.d_vv, rel=1e-12)


class TestSampleBfH0:
    def test_mean_r2_matches_beta_identity(self):
        n = 50
        sample = sample_bf_h0(n, 100_000, RandomStream(10))
        r2 = 1.0 - (sample.draws / g_of_n(n)) ** (2.0 / (n - 1))
        assert np.mean(r2) == pytest.approx(1.0 / n, abs=0.001)

    def test_draws_bounded_by_ceiling(self):
        for n in (2, 10, 50):
            sample = sample_bf_h0(n, 20_000, RandomStream(11))
            assert np.all(sample.draws > 0.0)
            assert np.all(sample.draws <= g_of_n(n))

    def test_moderate_band_frequency(self):
        sample = sample_bf_h0(50, 100_000, RandomStream(12))
        assert sample.fraction_in(3.0, 10.0) == pytest.approx(0.7364, abs=0.01)

    def test_determinism(self):
        a = sample_bf_h0(20, 1000, RandomStream(13))
        b = sample_bf_h0(20, 1000, RandomStream(13))
        np.testing.assert_array_equal(a.draws, b.draws)


class TestProbBfBandH0:
    def test_zero_above_ceiling_exactly(self):
        for n in range(2, 151):
            assert prob_bf_band_h0(10.0, math.inf, n) == 0.0
        for n in (157, 160, 200):
            assert prob_bf_band_h0(10.0, math.inf, n) > 0.0

    def test_moderate_band_at_50_and_100(self):
        # high-precision frozen values of the exact law; the commonly quoted
        # grid entries 0.7364 and 0.8439 carry their own simulation noise
        with mpmath.workdps(30):
            for n, quoted, tol in ((50, 0.7364, 0.0025), (100, 0.8439, 0.0075)):
                t3 = float((3.0 / g_of_n(n)) ** (2.0 / (n - 1)))
                expected = 1.0 - float(
                    mpmath.betainc((n - 1) / 2.0, 0.5, 0, t3, regularized=True)
                )
                got = prob_bf_band_h0(3.0, 10.0, n)
                assert got == pytest.approx(expected, abs=1e-12)
                assert got == pytest.approx(quoted, abs=tol)

    def test_frozen_exact_values(self):
        assert prob_bf_band_h0(3.0, 10.0, 50) == pytest.approx(0.7384091212882506, rel=1e-12)
        assert prob_bf_band_h0(3.0, 10.0, 100) == pytest.approx(0.8375745290837602, rel=1e-12)

    def test_band_partition(self):
        for n in (5, 50, 400):
            left = prob_bf_band_h0(0.0, 1.0 / 6.0, n)
            middle = prob_bf_band_h0(1.0 / 6.0, 6.0, n)
            right = prob_bf_band_h0(6.0, math.inf, n)
            assert left + middle + right == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_monte_carlo(self):
        n, draws = 50, 100_000
        sample = sample_bf_h0(n, draws, RandomStream(14))
        for lo, hi in ((0.0, 1.0 / 3.0), (1.0 / 3.0, 3.0), (3.0, 10.0)):
            exact = prob_bf_band_h0(lo, hi, n)
            emp = sample.fraction_in(lo, hi)
            se = math.sqrt(exact * (1 - exact) / draws)
            assert abs(emp - exact) <= 3 * se

    def test_threshold_above_ceiling_does_not_overflow(self):
        # (c / g(n))^(2 / (n - 1)) overflows for c near the float maximum
        for n in (2, 10, 1000):
            assert prob_bf_band_h0(1e308, math.inf, n) == 0.0
            assert prob_bf_band_h0(0.0, 1e308, n) == 1.0

    def test_bad_band_rejected(self):
        with pytest.raises(ValueError):
            prob_bf_band_h0(3.0, 3.0, 10)
        with pytest.raises(ValueError):
            prob_bf_band_h0(-1.0, 3.0, 10)


class TestSampleBfH1:
    def test_two_node_study_cells(self):
        # frozen representative observational draw; the cells move a lot
        # across regenerated datasets, hence the wide bands
        posterior = two_node_posterior(3)
        edge = draw_h1_edge(posterior, "u", "v", InterventionDensity(), 20_000, RandomStream(20))
        p = {}
        for n in (50, 100):
            p[n] = sample_bf_h1(edge, n).fraction_in(0.0, 1.0 / 10.0)
        assert p[50] == pytest.approx(0.829, abs=0.15)
        assert p[100] == pytest.approx(0.962, abs=0.08)
        assert p[100] > p[50]

    @pytest.mark.parametrize("draws", [1, 7, 10_000])
    def test_bit_identical_to_reference(self, draws):
        # the in-place kernel repeats the reference's floating-point
        # operations in the same order on the same variates
        rng = np.random.default_rng(13)
        z = rng.standard_normal((40, 3))
        z[:, 1] += 0.7 * z[:, 0]
        post = build_design_posterior(z, 1.0, labels=("a", "b", "c"))
        densities = [InterventionDensity(0.0, 1.0), InterventionDensity(0.0, 2.3),
                     InterventionDensity(0.7, 1.3)]
        stream = RandomStream(14, (2, 1))
        for u, v in (("a", "b"), ("b", "a")):
            for f_u in densities:
                edge = draw_h1_edge(post, u, v, f_u, draws, stream)
                for n in (2, 3, 57, 660, 1000):
                    got = sample_bf_h1(edge, n)
                    want = reference_sample_bf_h1(post, u, v, f_u, n, draws, stream)
                    assert np.array_equal(got.draws, want), (u, v, n, f_u)

    def test_chisquare_is_twice_standard_gamma(self):
        # the kernel draws chi-square(k) as 2 * standard_gamma(k / 2) with out=
        for df in (1.0, 2.0, 2.5, 50.0, 51.0, 999.0, 1000.0, 1e4 + 1.0):
            want = RandomStream(15).generator().chisquare(df, size=5000)
            got = np.empty(5000)
            RandomStream(15).generator().standard_gamma(df / 2.0, out=got)
            got *= 2.0
            assert np.array_equal(got, want), df

    def test_matches_draws_from_matmul_oracle(self):
        post = two_node_posterior(11)
        stream = RandomStream(12, (0, 1))
        f_u = InterventionDensity()
        got = sample_bf_h1(draw_h1_edge(post, "u", "v", f_u, 5000, stream), 60)
        want = reference_sample_bf_h1(
            post, "u", "v", f_u, 60, 5000, stream, wishart=matmul_sample_wishart
        )
        np.testing.assert_allclose(got.draws, want, rtol=1e-12)

    def test_scatter_and_pairs_methods_agree(self):
        # every n drawn from one shared edge draw keeps the law of n
        # explicitly simulated pairs
        posterior = two_node_posterior(4)
        for f_u in (InterventionDensity(), InterventionDensity(mean=3.0, sd=2.0)):
            edge = draw_h1_edge(posterior, "u", "v", f_u, 8000, RandomStream(21))
            for n in (2, 20, 150):
                a = sample_bf_h1(edge, n)
                b = pairs_sample_bf_h1(posterior, "u", "v", f_u, n, 8000, RandomStream(22, (n,)))
                assert stats.ks_2samp(a.draws, b).pvalue > 0.01, (f_u, n)

    def test_limiting_case_approaches_h0_law(self):
        # independent columns and a huge observational sample concentrate the
        # posterior at zero correlation, so r^2 draws approach the exact law
        n = 20
        ks_stats = {}
        for n_rows in (200, 100_000):
            rng = np.random.default_rng(5)
            z = rng.standard_normal((n_rows, 2))
            posterior = build_design_posterior(z, 1.0, labels=("u", "v"))
            edge = draw_h1_edge(posterior, "u", "v", InterventionDensity(), 20_000, RandomStream(23))
            sample = sample_bf_h1(edge, n)
            r2 = 1.0 - (sample.draws / g_of_n(n)) ** (2.0 / (n - 1))
            res = stats.kstest(
                r2, lambda q: np.vectorize(regularized_incomplete_beta)(q, 0.5, (n - 1) / 2.0)
            )
            ks_stats[n_rows] = res.statistic
        assert ks_stats[100_000] < ks_stats[200]
        assert ks_stats[100_000] < 0.02

    def test_h0_style_generation_matches_beta_law(self):
        # x_v independent of x_u: simulated r^2 follows Beta(1/2, (n-1)/2)
        # for any nondegenerate interventional density
        rng = np.random.default_rng(6)
        for n in (10, 50):
            x_u = rng.uniform(-2.0, 5.0, size=(10_000, n))  # arbitrary f_u
            x_v = rng.standard_normal((10_000, n))
            num = np.einsum("ij,ij->i", x_u, x_v) ** 2
            den = np.einsum("ij,ij->i", x_u, x_u) * np.einsum("ij,ij->i", x_v, x_v)
            r2 = num / den
            res = stats.kstest(
                r2, lambda q, n=n: np.vectorize(regularized_incomplete_beta)(q, 0.5, (n - 1) / 2.0)
            )
            assert res.pvalue > 0.01

    def test_draws_within_bounds(self):
        posterior = two_node_posterior(7)
        edge = draw_h1_edge(posterior, "u", "v", InterventionDensity(), 5000, RandomStream(24))
        sample = sample_bf_h1(edge, 30)
        assert np.all(sample.draws > 0.0)
        assert np.all(sample.draws <= g_of_n(30))

    def test_determinism_and_substream_independence(self):
        posterior = two_node_posterior(8)
        f_u = InterventionDensity()
        a, b, c = (
            sample_bf_h1(draw_h1_edge(posterior, "u", "v", f_u, 2000, RandomStream(seed)), 15)
            for seed in (25, 25, 26)
        )
        np.testing.assert_array_equal(a.draws, b.draws)
        assert not np.array_equal(a.draws, c.draws)

    def test_singular_pair_block_rejected(self):
        # nearly collinear columns already fail the full-scatter check
        rng = np.random.default_rng(9)
        col = rng.standard_normal(30)
        z = np.column_stack([col, 2.0 * col, rng.standard_normal(30)])
        with pytest.raises(InsufficientDataError):
            build_design_posterior(z, 2.0, labels=("a", "b", "c"))
        # a directly built posterior with a singular pair block is caught
        # when the block is requested
        from causal_ssd.predictive import DesignPosterior

        scatter = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        posterior = DesignPosterior(df=10.0, scatter=scatter, labels=("a", "b", "c"))
        with pytest.raises(InsufficientDataError):
            posterior.pair_precision_params("a", "b")

    def test_reversed_roles_differ(self):
        # conditioning direction matters: (u, v) regresses v on u
        posterior = two_node_posterior(10)
        f_u = InterventionDensity()
        uv = sample_bf_h1(draw_h1_edge(posterior, "u", "v", f_u, 4000, RandomStream(27)), 25)
        vu = sample_bf_h1(draw_h1_edge(posterior, "v", "u", f_u, 4000, RandomStream(27)), 25)
        assert not np.array_equal(uv.draws, vu.draws)


class TestBfPredictiveSample:
    def test_validation(self):
        with pytest.raises(ValueError):
            BfPredictiveSample(hypothesis="H2", n=10, draws=np.ones(3), stream=RandomStream(0))
        with pytest.raises(ValueError):
            BfPredictiveSample(hypothesis="H0", n=10, draws=np.ones((2, 2)), stream=RandomStream(0))

    def test_fraction_in(self):
        s = BfPredictiveSample(
            hypothesis="H0", n=10, draws=np.array([0.5, 1.5, 2.5]), stream=RandomStream(0)
        )
        assert s.fraction_in(1.0, math.inf) == pytest.approx(2.0 / 3.0)
        assert s.count == 3
