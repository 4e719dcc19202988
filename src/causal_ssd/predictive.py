"""Predictive distribution of the Bayes factor before interventional data exist.

Under H0 (u <- v, post-intervention independence) the squared correlation is
ancillary: r^2 ~ Beta(1/2, (n-1)/2) regardless of the observational data and
of the interventional density, so band probabilities are exact.  Under H1
(u -> v) the predictive is simulated: a design posterior built from the
observational data supplies Wishart draws of the 2x2 conditional precision
Q, and r^2 depends on a draw only through lam = -Q_uv / sqrt(Q_vv), the
regression slope in units of the conditional sd.  lam and the normal of the
cross term are drawn once per edge and shared by every n (``draw_h1_edge``);
each n draws only the two chi-square sums of its n interventional pairs
(``sample_bf_h1``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from causal_ssd.numerics import (
    RandomStream,
    WishartParams,
    log_gamma,
    regularized_incomplete_beta,
    sample_wishart,  # noqa: F401  (no caller; bench/tracing.py wraps predictive.sample_wishart)
)

# the floor of 1 - r^2: its value at the largest r^2 below 1
_RATIO_FLOOR = 2.0**-53


def log_g_of_n(n: int) -> float:
    """log of the Bayes-factor ceiling g(n) = n Gamma(n/2) / (sqrt(pi) Gamma((n+1)/2)).

    The closed-form objective Bayes factor of the unit training sample is
    BF01(n) = g(n) (1 - r^2)^((n-1)/2), so g(n), strictly increasing and
    asymptotically sqrt(2 n / pi), is its value at r^2 = 0.
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"g(n) requires n >= 2, got {n}")
    return math.log(n) + log_gamma(n / 2.0) - log_gamma((n + 1) / 2.0) - 0.5 * math.log(math.pi)


class InsufficientDataError(ValueError):
    """Observational data cannot support a proper design posterior."""


@dataclass(frozen=True)
class DesignPosterior:
    """Wishart posterior of the precision matrix given observational data.

    ``df`` is a_omega + N and ``scatter`` is Z^T Z; the posterior law is
    Wishart(df, rate=scatter) in the rate parameterization (expectation
    df * scatter^{-1}).  It acts as the generating design prior for the
    parameters of the post-intervention model.
    """

    df: float
    scatter: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        scatter = np.array(self.scatter, dtype=float)
        labels = tuple(str(x) for x in self.labels)
        t = len(labels)
        if scatter.shape != (t, t):
            raise ValueError("scatter shape must match the number of labels")
        if len(set(labels)) != t:
            raise ValueError("column labels must be distinct")
        if not np.all(np.isfinite(scatter)):
            raise ValueError("scatter must be finite")
        if self.df - (t - 2) <= 1.0:
            raise InsufficientDataError(
                "design posterior improper: need df - (T - 2) > 1"
            )
        scatter = 0.5 * (scatter + scatter.T)
        scatter.setflags(write=False)
        object.__setattr__(self, "scatter", scatter)
        object.__setattr__(self, "df", float(self.df))
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def column_index(self, label: str) -> int:
        try:
            return self.labels.index(str(label))
        except ValueError:
            raise KeyError(f"no column {label!r} in design posterior") from None

    def pair_precision_params(self, u: str, v: str) -> WishartParams:
        """Wishart law of the 2x2 conditional precision of (u, v).

        Degrees of freedom drop by T - 2 (the conditioned-out coordinates);
        the rate is the (u, v) scatter block.  Ordering matters: v is the
        regressed coordinate.
        """
        iu, iv = self.column_index(u), self.column_index(v)
        if iu == iv:
            raise ValueError("u and v must be distinct columns")
        block = self.scatter[np.ix_((iu, iv), (iu, iv))]
        try:
            np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            raise InsufficientDataError(f"scatter submatrix for ({u}, {v}) is singular") from None
        return WishartParams(self.df - (self.dim - 2), block)


def build_design_posterior(
    z: np.ndarray, a_omega: float, labels: Sequence[str] | None = None
) -> DesignPosterior:
    """Design posterior from an N x T observational data matrix.

    ``df = a_omega + N`` and ``scatter = Z^T Z``.  The scatter must be
    positive definite (an all-zero or rank-deficient Z is rejected).
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[0] < 1 or z.shape[1] < 1:
        raise ValueError("z must be a nonempty N x T matrix")
    if not np.all(np.isfinite(z)):
        raise ValueError("observational data must be finite")
    n_rows, t = z.shape
    if labels is None:
        labels = tuple(f"x{i + 1}" for i in range(t))
    scatter = z.T @ z
    try:
        np.linalg.cholesky(scatter)
    except np.linalg.LinAlgError:
        raise InsufficientDataError(
            "observational scatter is singular; more (or less collinear) rows needed"
        ) from None
    return DesignPosterior(df=float(a_omega) + n_rows, scatter=scatter, labels=tuple(labels))


@dataclass(frozen=True)
class InterventionDensity:
    """Gaussian density used to set the manipulated variable exogenously."""

    mean: float = 0.0
    sd: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean):
            raise ValueError("intervention mean must be finite")
        if not (math.isfinite(self.sd) and self.sd > 0.0):
            raise ValueError(
                "intervention sd must be positive: a point mass makes the "
                "correlation statistic undefined"
            )


@dataclass(frozen=True)
class BfPredictiveSample:
    """Tagged Bayes-factor draws under one hypothesis for one (edge, n)."""

    hypothesis: str
    n: int
    draws: np.ndarray

    def __post_init__(self) -> None:
        if self.hypothesis not in ("H0", "H1"):
            raise ValueError(f"hypothesis must be 'H0' or 'H1', got {self.hypothesis!r}")
        draws = np.asarray(self.draws, dtype=float)
        if draws.ndim != 1:
            raise ValueError("draws must be one-dimensional")
        draws.setflags(write=False)
        object.__setattr__(self, "draws", draws)

    @property
    def count(self) -> int:
        return self.draws.size

    def fraction_in(self, lo: float, hi: float) -> float:
        """Empirical probability of lo < BF < hi (inclusive at finite ends)."""
        return float(np.mean((self.draws >= lo) & (self.draws <= hi)))


def sample_bf_h0(n: int, draws: int, stream: RandomStream) -> BfPredictiveSample:
    """Exact predictive draws of the Bayes factor under H0.

    BF = g(n) * b^((n-1)/2) with b ~ Beta((n-1)/2, 1/2); the law depends on
    neither the design posterior nor the interventional density (r^2 is
    ancillary), so no data enter.
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if draws < 1:
        raise ValueError("draws must be positive")
    b = stream.generator().beta((n - 1) / 2.0, 0.5, size=int(draws))
    b = np.clip(b, np.nextafter(0.0, 1.0), 1.0)
    bf = np.exp(log_g_of_n(n) + 0.5 * (n - 1) * np.log(b))
    return BfPredictiveSample(hypothesis="H0", n=n, draws=bf)


def _h0_cdf_cut(c: float, n: int) -> float:
    """P(BF <= c | H0), exact."""
    if c <= 0.0:
        return 0.0
    g = math.exp(log_g_of_n(n))
    if c >= g:  # BF <= g(n) always; also keeps the power below from overflowing
        return 1.0
    t = (c / g) ** (2.0 / (n - 1))
    return regularized_incomplete_beta(t, (n - 1) / 2.0, 0.5)


def prob_bf_band_h0(lo: float, hi: float, n: int) -> float:
    """Exact P(lo < BF < hi | H0), no Monte Carlo.

    The bound BF <= g(n) makes bands above g(n) exactly empty; in particular
    the band (10, inf) is zero for every n with g(n) < 10, i.e. all n <= 156.
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    lo = float(lo)
    hi = float(hi)
    if lo < 0.0 or not hi > lo:
        raise ValueError(f"need 0 <= lo < hi, got lo={lo}, hi={hi}")
    return _h0_cdf_cut(hi, n) - _h0_cdf_cut(lo, n)


# float64 arrays of ``draws`` entries that one H1 evaluation holds at its
# peak: the edge draw's two (three while it is drawn), and the n step's two
H1_BYTES_PER_DRAW = 4 * 8


@dataclass(frozen=True)
class H1EdgeDraw:
    """The variates of one edge's H1 predictive whose law does not depend on n.

    Per draw of the 2x2 conditional precision Q from the design posterior,
    ``lam`` = -Q_uv / sqrt(Q_vv): the slope of v on u over the conditional
    sd, the one function of Q that r^2 depends on.  ``z`` is the standard
    normal of the cross term.  Every n of the edge reuses them (common
    random numbers across n); ``sample_bf_h1`` adds the two chi-square sums
    of each n from ``stream.child(n)``.
    """

    f_u: InterventionDensity
    lam: np.ndarray
    z: np.ndarray
    stream: RandomStream

    def __post_init__(self) -> None:
        for values in (self.lam, self.z):
            values.setflags(write=False)

    @property
    def draws(self) -> int:
        return self.z.size


def draw_h1_edge(
    posterior: DesignPosterior,
    u: str,
    v: str,
    f_u: InterventionDensity,
    draws: int,
    stream: RandomStream,
) -> H1EdgeDraw:
    """Draw the n-free H1 variates of the edge u - v, u manipulated.

    ``stream`` is the edge task's substream; the draw comes from
    ``stream.child(0)``.  The precision is drawn as ``numerics.sample_wishart``
    draws it, in the same order (the Bartlett entries b00, b11^2, b10), then
    ``z``.  With F the upper factor of the rate, Q = F B B^T F^T gives
    lam = -(f00 b00 b10 / sqrt(s) + f01 sqrt(s)) with s = b11^2 + b10^2; f11
    cancels.  A chi-square(k) draw is taken as twice a standard gamma(k / 2)
    draw, which is how numpy computes it.
    """
    draws = int(draws)
    if draws < 1:
        raise ValueError("draws must be positive")
    params = posterior.pair_precision_params(u, v)
    (f00, f01), _ = params.upper_factor.tolist()
    # three separate arrays, so that s is freed and only lam and z stay
    lam, s, z = np.empty(draws), np.empty(draws), np.empty(draws)

    gen = stream.child(0).generator()
    np.sqrt(_chisquare(gen, params.df, lam), out=lam)  # b00
    _chisquare(gen, params.df - 1.0, s)  # b11^2
    gen.standard_normal(out=z)  # b10
    lam *= z
    s += np.square(z, out=z)
    gen.standard_normal(out=z)
    np.sqrt(s, out=s)
    lam /= s
    lam *= -f00
    lam -= np.multiply(s, f01, out=s)
    return H1EdgeDraw(f_u=f_u, lam=lam, z=z, stream=stream)


def sample_bf_h1(edge: H1EdgeDraw, n: int) -> BfPredictiveSample:
    """Monte Carlo predictive draws of the Bayes factor under H1 at n.

    Per draw of ``edge``, the sufficient statistic of the n interventional
    pairs is drawn directly: uu = sum x_u^2 is a scaled (noncentral)
    chi-square(n), and the residual sum of squares of v on u a chi-square
    with n-1 degrees of freedom.  In units of the conditional sd, the
    projection of x_v on x_u is w = z + lam sqrt(uu), so
    1 - r^2 = resid / (w^2 + resid) without cancellation, and the closed-form
    Bayes factor g(n) (1 - r^2)^((n-1)/2) follows.  This is exact in
    distribution for the Gaussian interventional family at every n and costs
    O(1) per draw instead of O(n).  Only uu and the residual depend on n;
    both come from ``edge.stream.child(n)``, in that order.  1 - r^2 is
    clipped to [2^-53, 1], so the factor lies in [0, g(n)].
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    gen = edge.stream.child(n).generator()
    f_u = edge.f_u
    if f_u.mean == 0.0:
        w = _chisquare(gen, n, np.empty(edge.draws))
    else:
        w = gen.noncentral_chisquare(n, n * (f_u.mean / f_u.sd) ** 2, size=edge.draws)
    resid = _chisquare(gen, n - 1, np.empty(edge.draws))
    np.sqrt(w, out=w)
    with np.errstate(over="ignore"):  # an infinite w^2 is 1 - r^2 = 0, floored below
        w *= f_u.sd  # sqrt(uu)
        w *= edge.lam
        w += edge.z
        w *= w
    w += resid
    np.divide(resid, w, out=w)  # 1 - r^2
    np.clip(w, _RATIO_FLOOR, 1.0, out=w)
    np.log(w, out=w)
    w *= 0.5 * (n - 1)
    w += log_g_of_n(n)
    np.exp(w, out=w)
    return BfPredictiveSample(hypothesis="H1", n=n, draws=w)


def _chisquare(gen: np.random.Generator, df: float, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with chi-square(df) draws, bitwise as ``gen.chisquare(df)``."""
    gen.standard_gamma(df / 2.0, out=out)
    out *= 2.0
    return out
