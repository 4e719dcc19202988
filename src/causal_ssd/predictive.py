"""Predictive distribution of the Bayes factor before interventional data exist.

Under H0 (u <- v, post-intervention independence) the squared correlation is
ancillary: r^2 ~ Beta(1/2, (n-1)/2) regardless of the observational data and
of the interventional density, so band probabilities are exact.  Under H1
(u -> v) the predictive is simulated: a design posterior built from the
observational data supplies Wishart draws of the 2x2 conditional precision,
each draw fixes a regression coefficient and conditional variance, and n
interventional pairs are generated per draw.  The draws of the precision are
made once per edge and shared by every n (``draw_h1_edge``); each n draws
only the sums that depend on it (``sample_bf_h1``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from causal_ssd.numerics import (
    RandomStream,
    WishartParams,
    log_gamma,
    regularized_incomplete_beta,
    sample_wishart,  # noqa: F401  (no caller; bench/tracing.py wraps predictive.sample_wishart)
)

_ONE_BELOW_ONE = float(np.nextafter(1.0, 0.0))


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
    _pair_params: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        regressed coordinate.  Built once per ordered pair and kept.
        """
        key = (str(u), str(v))
        params = self._pair_params.get(key)
        if params is None:
            iu, iv = self.column_index(u), self.column_index(v)
            if iu == iv:
                raise ValueError("u and v must be distinct columns")
            block = self.scatter[np.ix_((iu, iv), (iu, iv))]
            try:
                np.linalg.cholesky(block)
            except np.linalg.LinAlgError:
                raise InsufficientDataError(
                    f"scatter submatrix for ({u}, {v}) is singular"
                ) from None
            params = self._pair_params[key] = WishartParams(self.df - (self.dim - 2), block)
        return params


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
    stream: RandomStream

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
    return BfPredictiveSample(hypothesis="H0", n=n, draws=bf, stream=stream)


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
# peak: the three of the edge draw, and the four work arrays and the output of
# the n step (one more with a nonzero intervention mean)
H1_BYTES_PER_DRAW = 9 * 8


@dataclass(frozen=True)
class H1EdgeDraw:
    """The variates of one edge's H1 predictive whose law does not depend on n.

    Per draw: the regression slope -Q_uv / Q_vv of v on u and the conditional
    sd sqrt(1 / Q_vv) of a 2x2 conditional precision Q from the design
    posterior, and the standard normal ``z`` of the cross term.  Every n of
    the edge reuses them (common random numbers across n); ``sample_bf_h1``
    adds the two chi-square sums of each n from ``stream.child(n)``.
    """

    f_u: InterventionDensity
    slope: np.ndarray
    cond_sd: np.ndarray
    z: np.ndarray
    stream: RandomStream

    def __post_init__(self) -> None:
        for values in (self.slope, self.cond_sd, self.z):
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
    draws it, in the same order (the Bartlett entries b00, b11, b10), then
    ``z``; Q_uu is never formed.  A chi-square(k) draw is taken as twice a
    standard gamma(k / 2) draw, which is how numpy computes it.
    """
    draws = int(draws)
    if draws < 1:
        raise ValueError("draws must be positive")
    params = posterior.pair_precision_params(u, v)
    (f00, f01), (_, f11) = params.upper_factor.tolist()
    a, c, z = np.empty((3, draws))
    b, d = np.empty((2, draws))

    # Bartlett entries of the precision draw, then M = F B entry by entry
    gen = stream.child(0).generator()
    np.sqrt(_chisquare(gen, params.df, a), out=a)  # b00
    np.sqrt(_chisquare(gen, params.df - 1.0, b), out=b)  # b11
    gen.standard_normal(out=c)  # b10
    gen.standard_normal(out=z)
    a *= f00
    np.multiply(c, f01, out=d)
    a += d  # m00
    np.multiply(b, f01, out=d)  # m01
    c *= f11  # m10
    b *= f11  # m11
    # q_uv = m10 m00 + m11 m01 and q_vv = m10^2 + m11^2
    a *= c
    d *= b
    a += d
    c *= c
    b *= b
    c += b
    slope = np.negative(np.divide(a, c, out=a), out=a)
    cond_sd = np.sqrt(np.divide(1.0, c, out=c), out=c)
    return H1EdgeDraw(f_u=f_u, slope=slope, cond_sd=cond_sd, z=z, stream=stream)


def sample_bf_h1(edge: H1EdgeDraw, n: int) -> BfPredictiveSample:
    """Monte Carlo predictive draws of the Bayes factor under H1 at n.

    Per draw of ``edge``, the trivariate sufficient statistic of the n
    interventional pairs is drawn directly: sum x_u^2 is a scaled
    (noncentral) chi-square(n), the cross term is sqrt(uu) times the
    conditional sd times the edge's ``z``, and the residual sum of squares a
    chi-square with n-1 degrees of freedom.  Then r^2 and the closed-form
    Bayes factor follow.  This is exact in distribution for the Gaussian
    interventional family at every n and costs O(1) per draw instead of
    O(n).  Only uu and the residual depend on n; both come from
    ``edge.stream.child(n)``, in that order.  All arithmetic runs in place
    in a few arrays of ``draws`` entries.
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    stream = edge.stream.child(n)
    gen = stream.generator()
    f_u, slope, cond_sd, z = edge.f_u, edge.slope, edge.cond_sd, edge.z
    uu, ee, ue, e = np.empty((4, edge.draws))
    bf = np.empty(edge.draws)

    if f_u.mean == 0.0:
        _chisquare(gen, n, uu)
    else:
        nonc = n * (f_u.mean / f_u.sd) ** 2
        uu[:] = gen.noncentral_chisquare(n, nonc, size=edge.draws)
    uu *= f_u.sd**2
    _chisquare(gen, n - 1, ee)  # the residual, then ee = z^2 + residual
    ee += np.multiply(z, z, out=bf)
    np.sqrt(uu, out=ue)
    ue *= z
    uv = np.multiply(slope, uu, out=bf)
    uv += np.multiply(cond_sd, ue, out=e)
    # vv = slope^2 uu + 2 slope sd ue + sd^2 ee, summed left to right
    cross = np.multiply(2.0, slope, out=e)
    cross *= cond_sd
    cross *= ue
    vv = np.square(slope, out=ue)
    vv *= uu
    vv += cross
    sd2_ee = np.square(cond_sd, out=e)
    sd2_ee *= ee
    vv += sd2_ee
    # r^2 = uv^2 / (uu vv), then the Bayes factor
    r2 = np.multiply(uv, uv, out=bf)
    r2 /= np.multiply(uu, vv, out=e)
    np.clip(r2, 0.0, _ONE_BELOW_ONE, out=r2)
    np.negative(r2, out=r2)
    np.log1p(r2, out=r2)
    r2 *= 0.5 * (n - 1)
    r2 += log_g_of_n(n)
    np.exp(r2, out=bf)
    return BfPredictiveSample(hypothesis="H1", n=n, draws=bf, stream=stream)


def _chisquare(gen: np.random.Generator, df: float, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with chi-square(df) draws, bitwise as ``gen.chisquare(df)``."""
    gen.standard_gamma(df / 2.0, out=out)
    out *= 2.0
    return out
