"""Tests for marginal likelihoods and Bayes factors."""

import math
import time

import mpmath
import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from causal_ssd.numerics import WishartParams

from helpers import (
    FbfConfig,
    PairedSample,
    bf01,
    bf01_subjective,
    fbf_objective_bf,
    g_of_n,
    marginal_likelihood_subset,
    uncentered_correlation_sq,
)


def random_pair(rng, n, scale_u=1.0, scale_v=1.0):
    return PairedSample(
        x_u=scale_u * rng.standard_normal(n), x_v=scale_v * rng.standard_normal(n)
    )


class TestGofN:
    def test_n2_analytic(self):
        # Gamma(1) = 1 and Gamma(3/2) = sqrt(pi)/2 give g(2) = 4/pi
        assert g_of_n(2) == pytest.approx(4.0 / math.pi, rel=1e-14)

    def test_against_high_precision(self):
        with mpmath.workdps(40):
            for n in [2, 5, 10, 100, 1234, 100000]:
                expected = float(
                    n * mpmath.gamma(n / 2) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma((n + 1) / 2))
                )
                # differencing log-gammas of size ~n log n bounds the achievable
                # relative accuracy near n * eps
                rel = 1e-12 if n <= 2000 else 1e-9
                assert g_of_n(n) == pytest.approx(expected, rel=rel)

    def test_monotone_and_asymptotic(self):
        values = [g_of_n(n) for n in range(2, 400)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert g_of_n(10_000) == pytest.approx(math.sqrt(2 * 10_000 / math.pi), rel=1e-3)

    def test_crossing_of_ten_at_157(self):
        assert g_of_n(156) < 10.0 < g_of_n(157)
        assert all(g_of_n(n) < 10.0 for n in range(2, 151))

    def test_domain(self):
        with pytest.raises(ValueError):
            g_of_n(1)


class TestUncenteredCorrelation:
    def test_proportional_is_one(self):
        x = np.array([1.0, -2.0, 3.0])
        s = PairedSample(x_u=x, x_v=-2.5 * x)
        assert uncentered_correlation_sq(s) == pytest.approx(1.0, rel=1e-14)

    def test_orthogonal_is_zero(self):
        s = PairedSample(x_u=np.array([1.0, 0.0]), x_v=np.array([0.0, 1.0]))
        assert uncentered_correlation_sq(s) == 0.0

    def test_hand_computed(self):
        s = PairedSample(x_u=np.array([1.0, 0.0]), x_v=np.array([1.0, 1.0]))
        assert uncentered_correlation_sq(s) == pytest.approx(0.5, rel=1e-14)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        s = random_pair(rng, 20)
        r2 = uncentered_correlation_sq(s)
        scaled = PairedSample(x_u=3.7 * s.x_u, x_v=-0.2 * s.x_v)
        assert uncentered_correlation_sq(scaled) == pytest.approx(r2, rel=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            PairedSample(x_u=np.zeros(3), x_v=np.ones(3))
        with pytest.raises(ValueError):
            PairedSample(x_u=np.array([1.0]), x_v=np.array([1.0]))


class TestBf01:
    def test_orthogonal_attains_ceiling(self):
        x_u = np.zeros(10)
        x_u[0] = 1.0
        x_v = np.zeros(10)
        x_v[1] = 1.0
        s = PairedSample(x_u=x_u, x_v=x_v)
        assert bf01(s) == pytest.approx(g_of_n(10), rel=1e-14)

    def test_proportional_is_zero(self):
        x = np.linspace(1, 2, 8)
        assert bf01(PairedSample(x_u=x, x_v=2 * x)) == 0.0

    def test_bounds_and_rescale_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            s = random_pair(rng, n)
            value = bf01(s)
            assert 0.0 < value <= g_of_n(n)
            rescaled = PairedSample(x_u=s.x_u * 10.0, x_v=s.x_v / 7.0)
            assert bf01(rescaled) == pytest.approx(value, rel=1e-12)

    def test_no_overflow_huge_n(self):
        rng = np.random.default_rng(2)
        s = random_pair(rng, 100_000)
        assert math.isfinite(bf01(s))


class TestMarginalLikelihoodSubset:
    def test_one_dimensional_quadrature_oracle(self):
        # integrate the Gaussian likelihood against the Gamma prior directly
        rng = np.random.default_rng(3)
        for a, u_rate, n in [(3.0, 2.0, 6), (1.5, 0.5, 4), (7.0, 4.0, 12)]:
            x = rng.standard_normal((n, 1))
            s = float(x[:, 0] @ x[:, 0])
            prior = WishartParams(a, np.array([[u_rate]]))
            got = marginal_likelihood_subset(x, (0,), prior)

            def integrand(w):
                loglik = 0.5 * n * (math.log(w) - math.log(2 * math.pi)) - 0.5 * w * s
                return math.exp(loglik) * stats.gamma.pdf(w, a / 2.0, scale=2.0 / u_rate)

            integral, _ = quad(integrand, 0.0, np.inf)
            assert got == pytest.approx(math.log(integral), rel=1e-6)

    def test_no_data_unit_marginal(self):
        prior = WishartParams(4.0, np.eye(2))
        empty = np.empty((0, 2))
        assert marginal_likelihood_subset(empty, (0,), prior) == 0.0
        assert marginal_likelihood_subset(empty, (0, 1), prior) == 0.0

    def test_chain_rule_on_nested_priors(self):
        # m(X_{u,v}) = m(X_u) + conditional, with the conditional expressible
        # through the one-dimensional formula under the Schur-complement
        # prior, up to the 1/2 log-ratio of the u-blocks
        rng = np.random.default_rng(4)
        for _ in range(20):
            t = int(rng.integers(2, 5))
            n = int(rng.integers(2, 30))
            a = t - 1 + rng.uniform(0.5, 3.0)
            m = rng.standard_normal((t, t))
            u_full = m @ m.T + t * np.eye(t)
            prior = WishartParams(a, u_full)
            data = rng.standard_normal((n, t))
            lm_u = marginal_likelihood_subset(data, (0,), prior)
            lm_uv = marginal_likelihood_subset(data, (0, 1), prior)

            u2 = u_full[np.ix_((0, 1), (0, 1))]
            sub = data[:, (0, 1)]
            s2 = sub.T @ sub
            post = u2 + s2
            u_schur = u2[1, 1] - u2[0, 1] ** 2 / u2[0, 0]
            post_schur = post[1, 1] - post[0, 1] ** 2 / post[0, 0]
            alpha = a - (t - 2)
            lg = math.lgamma
            cond = (
                lg((alpha + n) / 2) - lg(alpha / 2)
                + 0.5 * alpha * math.log(u_schur)
                - 0.5 * (alpha + n) * math.log(post_schur)
                - 0.5 * n * math.log(math.pi)
                + 0.5 * (math.log(u2[0, 0]) - math.log(post[0, 0]))
            )
            assert lm_uv == pytest.approx(lm_u + cond, rel=1e-10)

    def test_bad_subset_rejected(self):
        prior = WishartParams(4.0, np.eye(2))
        data = np.zeros((3, 2))
        with pytest.raises(ValueError):
            marginal_likelihood_subset(data, (), prior)
        with pytest.raises(ValueError):
            marginal_likelihood_subset(data, (0, 0), prior)
        with pytest.raises(ValueError):
            marginal_likelihood_subset(data, (2,), prior)


class TestBf01Subjective:
    def test_no_data_gives_one(self):
        prior = WishartParams(5.0, np.eye(3))
        assert bf01_subjective(np.empty((0, 3)), 0, 1, prior) == pytest.approx(1.0)

    def test_matches_direct_four_factor_formula(self):
        # independent coding of the same closed form: two gamma ratios and
        # two determinant ratios
        rng = np.random.default_rng(5)
        for _ in range(30):
            t = int(rng.integers(2, 5))
            n = int(rng.integers(2, 40))
            a = t - 1 + rng.uniform(0.5, 4.0)
            m = rng.standard_normal((t, t))
            u_full = m @ m.T + t * np.eye(t)
            prior = WishartParams(a, u_full)
            data = rng.standard_normal((n, t))
            got = bf01_subjective(data, 0, 1, prior)

            s_full = data.T @ data
            uu, vv = u_full[0, 0], u_full[1, 1]
            u2 = u_full[np.ix_((0, 1), (0, 1))]
            s2 = s_full[np.ix_((0, 1), (0, 1))]
            lg = math.lgamma
            log_direct = (
                lg((a - (t - 1) + n) / 2) - lg((a - (t - 1)) / 2)
                + lg((a - (t - 2)) / 2) - lg((a - (t - 2) + n) / 2)
                + 0.5 * (a - (t - 1)) * math.log(uu * vv)
                - 0.5 * (a - (t - 2)) * math.log(np.linalg.det(u2))
                + 0.5 * (a - (t - 2) + n) * math.log(np.linalg.det(u2 + s2))
                - 0.5 * (a - (t - 1) + n) * math.log((uu + s_full[0, 0]) * (vv + s_full[1, 1]))
            )
            assert got == pytest.approx(math.exp(log_direct), rel=1e-12)

    def test_diagonal_prior_orthogonal_data_reduces_to_gamma_ratio(self):
        # with a diagonal rate and r^2 = 0 the determinant terms factorize
        t, n = 2, 6
        a = 3.0
        prior = WishartParams(a, np.diag([2.0, 3.0]))
        data = np.zeros((n, t))
        data[:3, 0] = [1.0, -1.0, 0.5]
        data[3:, 1] = [2.0, 1.0, -0.5]
        got = bf01_subjective(data, 0, 1, prior)
        suu = float(data[:, 0] @ data[:, 0])
        svv = float(data[:, 1] @ data[:, 1])
        lg = math.lgamma
        expected = (
            lg((a - 1 + n) / 2) - lg((a - 1) / 2) + lg(a / 2) - lg((a + n) / 2)
            + 0.5 * (a - 1) * math.log(2.0 * 3.0)
            - 0.5 * a * math.log(2.0 * 3.0)
            + 0.5 * (a + n) * math.log((2.0 + suu) * (3.0 + svv))
            - 0.5 * (a - 1 + n) * math.log((2.0 + suu) * (3.0 + svv))
        )
        assert got == pytest.approx(math.exp(expected), rel=1e-12)


class TestFbfObjective:
    def test_reduces_to_closed_form(self):
        # 100 random datasets, T in 2..6, n in 5..50, defaults a_omega = T-1, n0 = 1
        rng = np.random.default_rng(6)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(100):
            t = int(rng.integers(2, 7))
            n = int(rng.integers(5, 51))
            s = random_pair(rng, n, scale_u=rng.uniform(0.5, 2), scale_v=rng.uniform(0.5, 2))
            closed = bf01(s)
            fractional = fbf_objective_bf(s, FbfConfig(), t)
            worst = max(worst, abs(fractional - closed) / closed)
        elapsed = time.perf_counter() - start
        assert worst <= 1e-10
        assert elapsed < 1.0

    def test_orthogonal_gives_ceiling(self):
        x_u = np.zeros(12)
        x_u[0] = 2.0
        x_v = np.zeros(12)
        x_v[1] = -1.0
        s = PairedSample(x_u=x_u, x_v=x_v)
        assert fbf_objective_bf(s, FbfConfig(), 2) == pytest.approx(g_of_n(12), rel=1e-12)

    def test_invariant_to_component_dimension(self):
        rng = np.random.default_rng(7)
        s = random_pair(rng, 25)
        assert fbf_objective_bf(s, FbfConfig(), 2) == pytest.approx(
            fbf_objective_bf(s, FbfConfig(), 7), rel=1e-12
        )

    def test_n_must_exceed_n0(self):
        rng = np.random.default_rng(8)
        s = random_pair(rng, 3)
        with pytest.raises(ValueError):
            fbf_objective_bf(s, FbfConfig(n0=3), 2)

    def test_improper_config_rejected(self):
        rng = np.random.default_rng(9)
        s = random_pair(rng, 10)
        with pytest.raises(ValueError):
            fbf_objective_bf(s, FbfConfig(a_omega=0.0, n0=1), 3)
