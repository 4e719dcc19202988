"""Tests for the predictive Bayes-factor machinery."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import special, stats

from causal_ssd.numerics import RandomStream, regularized_incomplete_beta, sample_wishart
from causal_ssd.predictive import (
    H1_BLOCK,
    H1_BYTES_PER_DRAW,
    BfPredictiveSample,
    DatasetMatrix,
    DesignPosterior,
    H1EdgeDraw,
    InsufficientDataError,
    InterventionDensity,
    build_design_posterior,
    draw_h1_edge,
    log_g_of_n,
    pair_factor,
    prob_bf_band_h0,
    sample_bf_h0,
    sample_bf_h1,
)

from helpers import (
    CholeskyPair,
    derive_cholesky_pair,
    g_of_n,
    h1_block_draws,
    lam_cdf,
    linear_sem_data,
    matmul_sample_wishart,
    pair_wishart_params,
    pairs_sample_bf_h1,
    reference_sample_bf_h1,
)


def observational_data(seed, n_rows=50, beta=0.5):
    rng = np.random.default_rng(seed)
    zu = rng.standard_normal(n_rows)
    zv = beta * zu + rng.standard_normal(n_rows)
    return np.column_stack([zu, zv])


def two_node_posterior(seed, n_rows=50, beta=0.5):
    return build_design_posterior(DatasetMatrix("uv", observational_data(seed, n_rows, beta)), 1.0)


def exact_lam_and_z(posterior, u, v, draws, stream):
    """|lam| = |Q_uv| / sqrt(Q_vv) in 40 digits, sorted ascending, with
    Q = M M^T and M = F B the product of the rate's upper factor
    F = chol(rate)^{-T}, itself in 40 digits, and the Bartlett matrix, from
    the raw draws of ``stream.child(0)``: b00^2, b11^2, b10, then the
    cross-term normal ``z``, in the order drawn."""
    params = pair_wishart_params(posterior, u, v)
    gen = stream.child(0).generator()
    b00_sq = gen.chisquare(params.df, size=draws)
    b11_sq = gen.chisquare(params.df - 1.0, size=draws)
    b10 = gen.standard_normal(size=draws)
    z = gen.standard_normal(size=draws)
    lam = []
    with mpmath.workdps(40):
        f = mpmath.cholesky(mpmath.matrix(params.rate.tolist())) ** -1
        f = f.T
        for i in range(draws):
            b = mpmath.matrix([[mpmath.sqrt(b00_sq[i]), 0], [b10[i], mpmath.sqrt(b11_sq[i])]])
            m = f * b
            q = m * m.T
            lam.append(abs(q[0, 1]) / mpmath.sqrt(q[1, 1]))
    return sorted(lam), z


def exact_log_bf_h1(lam, z, f_u, n, stream):
    """log BF at n in 40 digits, from ``exact_lam_and_z`` and the raw draws of
    ``stream.child(n)`` (``h1_block_draws``): block by block, the chi-square
    of sum x_u^2, then the residual."""
    draws = len(z)
    chi, resid = h1_block_draws(f_u, n, draws, stream)
    out = np.empty(draws)
    with mpmath.workdps(40):
        log_g = (mpmath.log(n) + mpmath.loggamma(mpmath.mpf(n) / 2)
                 - mpmath.loggamma(mpmath.mpf(n + 1) / 2) - mpmath.log(mpmath.pi) / 2)
        floor = mpmath.mpf(2) ** -53
        for i in range(draws):
            w = z[i] + lam[i] * f_u.sd * mpmath.sqrt(chi[i])
            ratio = max(resid[i] / (w * w + resid[i]), floor)
            out[i] = float(log_g + mpmath.mpf(n - 1) / 2 * mpmath.log(ratio))
    return out


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
        assert pair_factor(post, "u", "v")[0] == 51.0

    def test_a_omega_defaults_to_t_minus_one(self):
        z = np.random.default_rng(3).standard_normal((20, 3))
        post = build_design_posterior(DatasetMatrix("abc", z))
        assert (post.df, post.labels) == (2.0 + 20, ("a", "b", "c"))
        np.testing.assert_allclose(post.scatter, z.T @ z, rtol=1e-12)

    def test_zero_data_rejected(self):
        with pytest.raises(InsufficientDataError):
            build_design_posterior(DatasetMatrix("uv", np.zeros((5, 2))), 1.0)

    def test_rank_deficient_rejected(self):
        col = np.random.default_rng(1).standard_normal(10)
        with pytest.raises(InsufficientDataError):
            build_design_posterior(DatasetMatrix("uv", np.column_stack([col, 2 * col])), 1.0)

    def test_improper_degrees_rejected(self):
        z = np.random.default_rng(2).standard_normal((1, 4))
        # df - (T - 2) = 1 + 1 - 2 = 0 <= 1
        with pytest.raises(InsufficientDataError):
            build_design_posterior(DatasetMatrix("abcd", z), 0.0)

    @pytest.mark.parametrize("a_omega", [math.nan, math.inf, -math.inf])
    def test_non_finite_degrees_rejected(self, a_omega):
        data = DatasetMatrix("uv", np.random.default_rng(2).standard_normal((10, 2)))
        with pytest.raises(ValueError, match="df must be finite") as info:
            build_design_posterior(data, a_omega)
        assert not isinstance(info.value, InsufficientDataError)

    @pytest.mark.parametrize(
        "cells",
        [
            {(0, 0): 1e200},  # a product past the float range
            {(0, 0): 1e170, (0, 1): 1e170, (1, 0): 1e170, (1, 1): -1e170},  # inf - inf
            {(0, 0): 1.2e154, (1, 0): 1.2e154},  # a sum past it
        ],
    )
    def test_scatter_outside_the_float_range_rejected(self, cells):
        # the pytest configuration makes an overflow warning an error, so none is emitted
        z = observational_data(4)
        for cell, value in cells.items():
            z[cell] = value
        with pytest.raises(InsufficientDataError, match="scatter leaves the float range"):
            build_design_posterior(DatasetMatrix("uv", z))


    @pytest.mark.parametrize("scale", [1.0, 1e150])
    def test_scatter_equals_fsum_over_the_product_array(self, scale, monkeypatch):
        # oracle: fsum iterating over the product array, as it did before it
        # read a list.  At 1e150 the a column's squares overflow one by one,
        # the a-b products reach +inf and -inf, and the other sums stay finite
        import causal_ssd.predictive as predictive_mod

        z = np.random.default_rng(29).standard_normal((500, 5)) * scale
        z[:, :2] *= 1e4
        expected = np.empty((5, 5))
        with np.errstate(over="ignore"):
            for i in range(5):
                for j in range(i + 1):
                    try:
                        entry = math.fsum(z[:, i] * z[:, j])
                    except (OverflowError, ValueError):
                        entry = math.inf
                    expected[i, j] = expected[j, i] = entry
        built = []
        monkeypatch.setattr(predictive_mod, "DesignPosterior", lambda **kw: built.append(kw))
        build_design_posterior(DatasetMatrix("abcde", z))
        (posterior,) = built
        assert posterior["scatter"].tobytes() == expected.tobytes()
        assert np.isinf(expected).any() == (scale > 1.0)


class TestInterventionDensity:
    @pytest.mark.parametrize("bad_sd", [0.0, -1.0, math.nan, math.inf])
    def test_degenerate_sd_rejected(self, bad_sd):
        with pytest.raises(ValueError):
            InterventionDensity(mean=0.0, sd=bad_sd)

    def test_non_finite_mean_rejected(self):
        with pytest.raises(ValueError):
            InterventionDensity(mean=math.nan)

    def test_noncentrality_is_n_times_the_squared_ratio(self):
        for mean, sd, n in ((0.0, 1.0, 2), (0.5, 2.0, 30), (-0.7, 1.3, 1000), (1e153, 1.0, 179)):
            assert InterventionDensity(mean, sd).noncentrality(n) == n * (mean / sd) ** 2

    @pytest.mark.parametrize("mean, sd, n", [
        (1e200, 1.0, 2),  # the square overflows: an OverflowError before
        (1e200, 1e-200, 2),  # the ratio is inf: an inf noncentrality before
        (1e153, 1.0, 180),  # the product with n overflows to inf
    ])
    def test_noncentrality_not_a_finite_float_rejected(self, mean, sd, n):
        f_u = InterventionDensity(mean, sd)
        with pytest.raises(ValueError, match="noncentrality .* is not a finite float"):
            f_u.noncentrality(n)
        edge = draw_h1_edge(two_node_posterior(7), "u", "v", f_u, 10, RandomStream(11))
        with pytest.raises(ValueError, match="noncentrality .* is not a finite float"):
            sample_bf_h1(edge, n)


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
        params = pair_wishart_params(post, "u", "v")
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

    @pytest.mark.parametrize("draws", [200.5, 200.0, True, 0, -1])
    def test_draws_not_a_positive_integer_rejected(self, draws):
        # 200.5 was truncated to 200 draws
        with pytest.raises(ValueError, match=r"^draws must be an integer >= 1, got "):
            sample_bf_h0(10, draws, RandomStream(13))


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

    @pytest.mark.parametrize("n", [10.5, 10.0, True, 1])
    def test_n_not_an_integer_of_at_least_two_rejected(self, n):
        # 10.5 was truncated to 10 by each of them
        edge = draw_h1_edge(two_node_posterior(7), "u", "v", InterventionDensity(), 10,
                            RandomStream(24))
        for call in (
            lambda: log_g_of_n(n),
            lambda: prob_bf_band_h0(3.0, 10.0, n),
            lambda: sample_bf_h0(n, 10, RandomStream(13)),
            lambda: sample_bf_h1(edge, n),
        ):
            with pytest.raises(ValueError, match=r"^n must be an integer >= 2, got "):
                call()


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

    @pytest.mark.parametrize("u, v", [("a", "b"), ("b", "a")])
    def test_log_bf_matches_40_digit_oracle(self, u, v):
        # the kernel against exact arithmetic on the raw generator draws it
        # consumes, so this also pins the substream layout; at n = 2 forming
        # 1 - r^2 from the scatter sums lost up to 6e-9 here to cancellation
        rng = np.random.default_rng(13)
        data = rng.standard_normal((40, 3))
        data[:, 1] += 0.7 * data[:, 0]
        post = build_design_posterior(DatasetMatrix("abc", data), 1.0)
        # three blocks, the last one partial, so the interleaving shows
        stream, draws = RandomStream(14, (2, 1)), 2 * H1_BLOCK + H1_BLOCK // 3
        lam, z = exact_lam_and_z(post, u, v, draws, stream)
        for f_u in (InterventionDensity(0.0, 1.0), InterventionDensity(0.0, 2.3),
                    InterventionDensity(0.7, 1.3)):
            edge = draw_h1_edge(post, u, v, f_u, draws, stream)
            for n in (2, 3, 57, 660, 1000):
                got = sample_bf_h1(edge, n).draws
                want = exact_log_bf_h1(lam, z, f_u, n, stream)
                normal = want > -700.0  # below, exp(log BF) leaves the normal floats
                assert np.all(got[~normal] < 1e-300), (f_u, n)
                err = np.abs(np.log(got[normal]) - want[normal])
                assert err.max() <= 1e-12, (f_u, n)

    @pytest.mark.parametrize("mean", [0.0, 1.5])
    def test_stopped_sample_is_a_prefix_of_the_full_sample(self, mean):
        draws, n = 3 * H1_BLOCK + 100, 40
        edge = draw_h1_edge(two_node_posterior(7), "u", "v", InterventionDensity(mean=mean),
                            draws, RandomStream(29))
        full = sample_bf_h1(edge, n).draws
        # a draw of the first block as the cut, so that a draw lies on it
        cut = float(np.sort(full[:H1_BLOCK])[H1_BLOCK // 2])
        misses = np.cumsum(full > cut)
        hits = draws - int(misses[-1])
        ends = [min(end, draws) for end in range(H1_BLOCK, draws + H1_BLOCK, H1_BLOCK)]
        counts = []
        # the fourth need allows exactly the misses of the first block
        for need in (1, hits, hits + 1, draws - int(misses[H1_BLOCK - 1]), draws):
            blocks = []

            def stop(block, need=need):
                # true once fewer than need draws can lie at or below the cut
                blocks.append(block.copy())
                return sum(np.count_nonzero(b > cut) for b in blocks) > draws - need

            got = sample_bf_h1(edge, n, stop=stop)
            # it ends after the first block whose misses exceed draws - need
            want = next((end for end in ends if misses[end - 1] > draws - need), draws)
            assert got.count == want, need
            assert got.draws.tobytes() == full[:want].tobytes(), need
            # stop saw each block once, in order, and nothing past the last
            assert [b.size for b in blocks] == [min(H1_BLOCK, want - s) for s in
                                                range(0, want, H1_BLOCK)], need
            assert np.concatenate(blocks).tobytes() == got.draws.tobytes(), need
            counts.append(got.count)
        # need = hits + 1 stops after the last block that holds a miss: the
        # partial block at the end, with the largest |lam|, holds none
        assert counts == [draws, draws, 3 * H1_BLOCK, 2 * H1_BLOCK, H1_BLOCK]

    @pytest.mark.parametrize("n", [20, 100])
    @pytest.mark.parametrize("lam, sd", [(0.1, 1.0), (0.3, 1.0), (0.5, 1.0), (0.15, 2.0)])
    def test_band_fractions_at_fixed_lam_match_the_exact_series(self, lam, sd, n):
        # at fixed lam and f_u = N(0, sd^2), w^2 given uu ~ chi-square(n) is
        # noncentral chi-square(1, lam^2 sd^2 uu), so 1 - r^2 given uu is
        # Beta((n-1)/2, 1/2 + K) with K ~ Poisson(lam^2 sd^2 uu / 2), and over
        # uu, K ~ NB(n/2, 1 - rho^2) with rho^2 = lam^2 sd^2 / (1 + lam^2 sd^2).
        # BF <= c iff 1 - r^2 <= (c / g(n))^(2/(n-1)).  Every n of one edge
        # draw shares its z, so each cell draws its own
        draws, k0, k1 = 200_000, 6.0, 6.0
        cell = (int(lam * 100), int(sd), n)
        z = np.random.default_rng(cell).standard_normal(draws)
        edge = H1EdgeDraw(f_u=InterventionDensity(sd=sd), lam=np.full(draws, lam), z=z,
                          stream=RandomStream(43, cell))
        sample = sample_bf_h1(edge, n).draws
        rho_sq = (lam * sd) ** 2 / (1.0 + (lam * sd) ** 2)
        k = np.arange(4000)
        weights = stats.nbinom.pmf(k, n / 2.0, 1.0 - rho_sq)
        assert 1.0 - weights.sum() < 1e-12  # the series' tail is negligible

        def exact_cdf(c):  # P(BF <= c); BF <= g(n), so t is at most 1
            t = min((c / g_of_n(n)) ** (2.0 / (n - 1)), 1.0)
            return float(np.sum(weights * special.betainc((n - 1) / 2.0, 0.5 + k, t)))

        for got, want in ((np.mean(sample <= 1.0 / k1), exact_cdf(1.0 / k1)),
                          (np.mean(sample >= k0), 1.0 - exact_cdf(k0))):
            se = math.sqrt(want * (1.0 - want) / draws)
            assert abs(got - want) <= 4.0 * se + 1e-12, (got, want)

    @pytest.mark.parametrize("seed, sd", [(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0), (4, 2.0)])
    def test_band_fractions_match_the_exact_series_over_the_edge_draw(self, seed, sd):
        # Rao-Blackwellised over lam: given the edge draw's lam but not its z,
        # draw i falls at or below c with the probability p_i of the series
        # above at lam_i, independently of the others, so the fraction has
        # mean mean(p_i) and variance sum p_i (1 - p_i) / draws^2.  Every n
        # of the edge shares its z, so the seeds vary, not n
        draws, k0, k1 = 40_000, 6.0, 6.0
        edge = draw_h1_edge(two_node_posterior(seed, beta=0.2), "u", "v",
                            InterventionDensity(sd=sd), draws, RandomStream(50, (seed,)))
        rho_sq = (edge.lam * sd) ** 2 / (1.0 + (edge.lam * sd) ** 2)
        for n in (30, 80, 200):
            # NB(n/2, 1 - rho^2) pmf by its ratio recursion, to far past the
            # largest mean plus 40 sd
            shape = n / 2.0
            top = int(np.max(shape * rho_sq / (1.0 - rho_sq)
                             + 40.0 * np.sqrt(shape * rho_sq) / (1.0 - rho_sq))) + 40
            pmf, mass = (1.0 - rho_sq) ** shape, np.zeros(draws)
            below = {c: np.zeros(draws) for c in (1.0 / k1, k0)}
            terms = {c: special.betainc((n - 1) / 2.0, 0.5 + np.arange(top + 1),
                                        min((c / g_of_n(n)) ** (2.0 / (n - 1)), 1.0))
                     for c in below}
            for k in range(top + 1):
                mass += pmf
                for c in below:
                    below[c] += pmf * terms[c][k]
                pmf = pmf * ((k + shape) / (k + 1)) * rho_sq
            assert np.all(1.0 - mass < 1e-12)  # the series' tail is negligible
            sample = sample_bf_h1(edge, n).draws
            for got, p in ((np.mean(sample <= 1.0 / k1), below[1.0 / k1]),
                           (np.mean(sample >= k0), 1.0 - below[k0])):
                se = math.sqrt(np.sum(p * (1.0 - p))) / draws
                assert abs(got - np.mean(p)) <= 4.0 * se, (n, got, np.mean(p))

    @pytest.mark.parametrize("component, u, v", [("uv", "u", "v"), ("12345", "2", "4")])
    def test_abs_lam_follows_its_closed_form_law(self, component, u, v):
        # the largest gap between the ECDF of |lam| and helpers.lam_cdf, at
        # 199 quantiles, is below the 1 % Kolmogorov-Smirnov value; the law
        # takes df and the pair block from pair_wishart_params.  At T = 5,
        # the full posterior's df, or b * 1.1, gives a gap ten times that value
        if component == "uv":
            posterior = two_node_posterior(3)
        else:
            arrows = [("1", "2"), ("1", "3"), ("2", "3"), ("2", "4"), ("2", "5"), ("4", "5")]
            data = linear_sem_data(component, {e: 0.6 for e in arrows}, 80, RandomStream(0))
            posterior = build_design_posterior(data)
        draws = 200_000
        lam = draw_h1_edge(posterior, u, v, InterventionDensity(), draws, RandomStream(7)).lam
        params = pair_wishart_params(posterior, u, v)
        (a, b), c = params.rate[0], params.rate[1, 1]
        at = np.arange(1, 200) * draws // 200  # lam is sorted, so lam[i] has i + 1 at or below
        gap = np.max(np.abs((at + 1) / draws - lam_cdf(lam[at], params.df, a, b, c)))
        assert gap < 1.63 / math.sqrt(draws)

    @pytest.mark.parametrize("mean", [0.0, 1.5])
    def test_edge_draw_holds_abs_lam_ascending(self, mean):
        edge = draw_h1_edge(two_node_posterior(7), "u", "v", InterventionDensity(mean=mean),
                            3 * H1_BLOCK + 100, RandomStream(29))
        assert np.all(edge.lam >= 0.0)
        assert np.all(np.diff(edge.lam) >= 0.0)

    @pytest.mark.parametrize("mean", [0.0, 1.5])
    def test_abs_lam_with_flipped_z_is_bitwise_the_signed_draw(self, mean):
        # w = z + lam sqrt(uu) and -w = -z + |lam| sqrt(uu) for lam < 0, in
        # floating point too, and only w^2 enters the Bayes factor
        rng = np.random.default_rng(31)
        lam, z = 2.0 * rng.standard_normal(5000), rng.standard_normal(5000)
        f_u, stream = InterventionDensity(mean=mean, sd=1.3), RandomStream(32)
        signed = H1EdgeDraw(f_u=f_u, lam=lam, z=z, stream=stream)
        flipped = H1EdgeDraw(f_u=f_u, lam=np.abs(lam), z=np.where(lam < 0, -z, z), stream=stream)
        for n in (2, 40, 660):
            assert (sample_bf_h1(signed, n).draws.tobytes()
                    == sample_bf_h1(flipped, n).draws.tobytes()), n

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
            posterior = build_design_posterior(DatasetMatrix("uv", z), 1.0)
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

    def test_vanishing_intervention_sd_is_the_no_power_limit(self):
        # sd^2 underflows to 0, so uu = 0; from the scatter sums r^2 was 0 / 0
        # and every draw nan.  With uu = 0, w = z and r^2 = z^2 / (z^2 + resid)
        # follows the H0 law Beta(1/2, (n-1)/2)
        n = 20
        edge = draw_h1_edge(two_node_posterior(7), "u", "v", InterventionDensity(sd=1e-200),
                            5000, RandomStream(27))
        sample = sample_bf_h1(edge, n)
        assert np.all(np.isfinite(sample.draws))
        r2 = 1.0 - (sample.draws / g_of_n(n)) ** (2.0 / (n - 1))
        res = stats.kstest(
            r2, lambda q: np.vectorize(regularized_incomplete_beta)(q, 0.5, (n - 1) / 2.0)
        )
        assert res.pvalue > 0.01

    def test_huge_intervention_sd_is_the_full_power_limit(self):
        # sd^2 overflowed (an OverflowError); sqrt(uu) = sd sqrt(chi^2) is
        # finite, w^2 is not, and 1 - r^2 sits at its floor in every draw
        edge = draw_h1_edge(two_node_posterior(7), "u", "v", InterventionDensity(sd=1e200),
                            5000, RandomStream(27))
        floor = g_of_n(20) * 2.0 ** (-53 * 9.5)
        np.testing.assert_allclose(sample_bf_h1(edge, 20).draws, floor, rtol=1e-12)

    @pytest.mark.parametrize("mean", [0.0, 1.5])
    def test_peak_memory_within_budget(self, mean):
        # the --draws limit of the CLI is H1_BUDGET_BYTES // H1_BYTES_PER_DRAW
        posterior, draws = two_node_posterior(7), 200_000
        tracemalloc.start()
        try:
            edge = draw_h1_edge(posterior, "u", "v", InterventionDensity(mean=mean, sd=2.0),
                                draws, RandomStream(28))
            sample_bf_h1(edge, 57)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= H1_BYTES_PER_DRAW * draws + 64 * 1024

    def test_draws_within_bounds(self):
        posterior = two_node_posterior(7)
        edge = draw_h1_edge(posterior, "u", "v", InterventionDensity(), 5000, RandomStream(24))
        sample = sample_bf_h1(edge, 30)
        assert np.all(sample.draws > 0.0)
        assert np.all(sample.draws <= g_of_n(30))

    @pytest.mark.parametrize("draws", [200.5, 200.0, True, 0])
    def test_draws_not_a_positive_integer_rejected(self, draws):
        # 200.5 was truncated to 200 draws, which a scan then compared with 200.5
        with pytest.raises(ValueError, match=r"^draws must be an integer in \[1, "):
            draw_h1_edge(two_node_posterior(7), "u", "v", InterventionDensity(), draws,
                         RandomStream(24))

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
            build_design_posterior(DatasetMatrix("abc", z), 2.0)
        # a directly built posterior with a singular pair block is rejected
        # by the same check, when it is built
        scatter = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(InsufficientDataError, match="singular"):
            DesignPosterior(df=10.0, scatter=scatter, labels=("a", "b", "c"))

    @pytest.mark.parametrize("scale", [1e150, 1e-160])
    def test_pair_factor_outside_the_float_range_rejected(self, scale):
        # the scatter is finite and positive definite, but b * b overflows at
        # 1e150 and a * sqrt(c - b^2 / a) underflows to 0 at 1e-160
        posterior = build_design_posterior(DatasetMatrix("uv", scale * observational_data(4)))
        for u, v in (("u", "v"), ("v", "u")):
            with pytest.raises(InsufficientDataError, match="float range"):
                pair_factor(posterior, u, v)
            with pytest.raises(InsufficientDataError, match="float range"):
                draw_h1_edge(posterior, u, v, InterventionDensity(), 10, RandomStream(29))

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
            BfPredictiveSample(hypothesis="H2", n=10, draws=np.ones(3))
        with pytest.raises(ValueError):
            BfPredictiveSample(hypothesis="H0", n=10, draws=np.ones((2, 2)))

    def test_fraction_in(self):
        s = BfPredictiveSample(hypothesis="H0", n=10, draws=np.array([0.5, 1.5, 2.5]))
        assert s.fraction_in(1.0, math.inf) == pytest.approx(2.0 / 3.0)
        assert s.count == 3
