"""Predictive distribution of the Bayes factor before interventional data exist.

The observational data enter only here, through one path: a
``DatasetMatrix`` (parsed by ``harness.ingest_csv``, or restricted to a
chain component's columns) goes to ``build_design_posterior``, and the
``DesignPosterior`` it returns checks, once, that its scatter is finite and
positive definite.  Data that fail raise ``InsufficientDataError``.

Under H0 (u <- v, post-intervention independence) the squared correlation is
ancillary: r^2 ~ Beta(1/2, (n-1)/2) regardless of the observational data and
of the interventional density, so band probabilities are exact.  Under H1
(u -> v) the predictive is simulated: a design posterior built from the
observational data supplies Wishart draws of the 2x2 conditional precision
Q, and r^2 depends on a draw only through lam = -Q_uv / sqrt(Q_vv), the
regression slope in units of the conditional sd, and only through |lam| in
law.  |lam|, sorted ascending, and the normal of the cross term are drawn
once per edge and shared by every n (``draw_h1_edge``); each n draws only
the two chi-square sums of its n interventional pairs, in blocks of draws,
and can stop after any block (``sample_bf_h1``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from causal_ssd.numerics import (
    RandomStream,
    instance,
    regularized_incomplete_beta,
    sample_wishart,  # noqa: F401  (no caller; bench/tracing.py wraps predictive.sample_wishart)
    whole,
)

# the floor of 1 - r^2: its value at the largest r^2 below 1
_RATIO_FLOOR = 2.0**-53


def log_g_of_n(n: int) -> float:
    """log of the Bayes-factor ceiling g(n) = n Gamma(n/2) / (sqrt(pi) Gamma((n+1)/2)).

    The closed-form objective Bayes factor of the unit training sample is
    BF01(n) = g(n) (1 - r^2)^((n-1)/2), so g(n), strictly increasing and
    asymptotically sqrt(2 n / pi), is its value at r^2 = 0.
    """
    n = whole("n", n, 2)
    return math.log(n) + math.lgamma(n / 2.0) - math.lgamma((n + 1) / 2.0) - 0.5 * math.log(math.pi)


class InsufficientDataError(ValueError):
    """Observational data cannot support a proper design posterior."""


class MissingColumnsError(ValueError):
    """The dataset has no column for some of the requested labels."""


@dataclass(frozen=True)
class DatasetMatrix:
    """Labeled numeric data matrix without missing values."""

    labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        labels = tuple(str(x) for x in self.labels)
        values = np.array(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError("values must be a 2-D matrix")
        if values.shape[0] < 1:
            raise ValueError("dataset needs at least one row")
        if values.shape[1] != len(labels):
            raise ValueError("number of labels must match number of columns")
        if len(set(labels)) != len(labels):
            raise ValueError("column labels must be distinct")
        if not np.all(np.isfinite(values)):
            raise ValueError("dataset values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", values)

    def restrict(self, labels: Sequence[str]) -> "DatasetMatrix":
        """Columns for the given labels, in the given order."""
        wanted = [str(x) for x in labels]
        missing = sorted(set(wanted) - set(self.labels))
        if missing:
            raise MissingColumnsError(f"dataset is missing columns: {missing}")
        idx = [self.labels.index(x) for x in wanted]
        return DatasetMatrix(labels=tuple(wanted), values=self.values[:, idx])


@dataclass(frozen=True)
class DesignPosterior:
    """Wishart posterior of the precision matrix given observational data.

    ``df`` is a_omega + N and ``scatter`` is Z^T Z; the posterior law is
    Wishart(df, rate=scatter) in the rate parameterization (expectation
    df * scatter^{-1}).  It acts as the generating design prior for the
    parameters of the post-intervention model.  Construction raises
    ``InsufficientDataError`` if the scatter is not finite or not positive
    definite, or if df is too small for a proper law, and ``ValueError`` if
    df is not finite.
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
        if not math.isfinite(self.df):
            raise ValueError(f"df must be finite, got {self.df}")
        if not np.all(np.isfinite(scatter)):
            raise InsufficientDataError("observational scatter leaves the float range")
        try:
            np.linalg.cholesky(scatter)
        except np.linalg.LinAlgError:
            raise InsufficientDataError(
                "observational scatter is singular; more (or less collinear) rows needed"
            ) from None
        if self.df - (t - 2) <= 1.0:
            raise InsufficientDataError(
                "design posterior improper: need df - (T - 2) > 1"
            )
        scatter.setflags(write=False)
        object.__setattr__(self, "scatter", scatter)
        object.__setattr__(self, "df", float(self.df))
        object.__setattr__(self, "labels", labels)

    def column_index(self, label: str) -> int:
        try:
            return self.labels.index(str(label))
        except ValueError:
            raise KeyError(f"no column {label!r} in design posterior") from None


def build_design_posterior(data: DatasetMatrix, a_omega: float | None = None) -> DesignPosterior:
    """Design posterior of the columns of ``data``: the one path from
    observational data to a ``DesignPosterior``.

    ``df = a_omega + N``, with ``a_omega`` T - 1 for T columns by default,
    and ``scatter = Z^T Z``, each entry summed by ``math.fsum``.  A product
    or sum past the float range makes the entry infinite, and the posterior
    then rejects the scatter, as it rejects one that is not positive
    definite (an all-zero or rank-deficient Z).
    """
    z = data.values
    n_rows, t = z.shape
    a_omega = t - 1.0 if a_omega is None else float(a_omega)
    # each entry a correctly rounded sum of its products, so that no BLAS
    # kernel reaches the bytes; fsum reads a list of floats faster than it
    # iterates over an array
    scatter = np.empty((t, t))
    with np.errstate(over="ignore"):  # an infinite product is an infinite entry
        for i in range(t):
            for j in range(i + 1):
                try:
                    entry = math.fsum((z[:, i] * z[:, j]).tolist())
                except (OverflowError, ValueError):  # a sum past the float range, or inf - inf
                    entry = math.inf
                scatter[i, j] = scatter[j, i] = entry
    return DesignPosterior(df=a_omega + n_rows, scatter=scatter, labels=data.labels)


@dataclass(frozen=True)
class InterventionDensity:
    """Gaussian density used to set the manipulated variable exogenously."""

    mean: float = 0.0
    sd: float = 1.0

    def __post_init__(self) -> None:
        if isinstance(self.mean, bool) or isinstance(self.sd, bool):
            raise ValueError("intervention mean and sd must be numbers, not bools, "
                             f"got {self.mean!r} and {self.sd!r}")
        if not math.isfinite(self.mean):
            raise ValueError("intervention mean must be finite")
        if not (math.isfinite(self.sd) and self.sd > 0.0):
            raise ValueError(
                "intervention sd must be positive: a point mass makes the "
                "correlation statistic undefined"
            )

    def noncentrality(self, n: int) -> float:
        """n (mean / sd)^2, the noncentrality of the chi-square(n) sum of n
        intervened values over sd^2; ``ValueError`` unless it is a finite
        float.  It grows with n, so one check at the largest n covers a grid."""
        try:
            nonc = n * (self.mean / self.sd) ** 2
        except OverflowError:  # the square of a finite ratio past the float range
            nonc = math.inf
        if not math.isfinite(nonc):
            raise ValueError(
                f"the noncentrality n (mean / sd)^2 of intervention mean {self.mean} "
                f"and sd {self.sd} at n = {n} is not a finite float"
            )
        return nonc


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
    """Exact predictive draws of the Bayes factor under H0 at n.

    BF = g(n) * b^((n-1)/2) with b ~ Beta((n-1)/2, 1/2); the law depends on
    neither the design posterior nor the interventional density (r^2 is
    ancillary), so no data enter.  The draws come from ``E.child(n, 3)`` of
    the edge task's substream E = ``stream``, a ``RandomStream``
    (``numerics.instance``, else ``TypeError``).  ``draws`` must be an
    integer from 1 to ``MAX_DRAWS`` (``numerics.whole``), as in
    ``draw_h1_edge``, and is checked before anything is allocated.
    """
    n, draws = whole("n", n, 2), whole("draws", draws, 1, MAX_DRAWS)
    instance("stream", stream, RandomStream)
    b = stream.child(n, 3).generator().beta((n - 1) / 2.0, 0.5, size=draws)
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
    n = whole("n", n, 2)
    lo = float(lo)
    hi = float(hi)
    if lo < 0.0 or not hi > lo:
        raise ValueError(f"need 0 <= lo < hi, got lo={lo}, hi={hi}")
    return _h0_cdf_cut(hi, n) - _h0_cdf_cut(lo, n)


# float64 arrays of ``draws`` entries that one H1 evaluation holds at its
# peak: the edge draw's two (three while it is drawn), and the n step's two
H1_BYTES_PER_DRAW = 4 * 8

# memory the H1 evaluations of one run may hold together, over all its
# processes: it caps the draws, and the processes of ssd.fork_map
H1_BUDGET_BYTES = 2**28

# the most draws one H1 evaluation, the edge draw and one n step, may hold
MAX_DRAWS = H1_BUDGET_BYTES // H1_BYTES_PER_DRAW

# draws per block of ``E.child(n)``: each block draws its chi-square(n) sums
# and then its chi-square(n - 1) residuals, so the first blocks of a sample
# are the same draws whether or not it runs to the end
H1_BLOCK = 2048


@dataclass(frozen=True)
class H1EdgeDraw:
    """The variates of one edge's H1 predictive whose law does not depend on n.

    Per draw of the 2x2 conditional precision Q from the design posterior,
    ``lam`` holds |Q_uv| / sqrt(Q_vv): the size of the slope of v on u over
    the conditional sd, the one function of Q that the law of r^2 depends
    on.  It is sorted ascending, so the draws likeliest to fall above a cut
    on the Bayes factor come first.  ``z`` is the standard normal of the
    cross term, in the order drawn.  Every n of the edge reuses them (common
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


def pair_factor(posterior: DesignPosterior, u: str, v: str) -> tuple[float, float, float]:
    """The Wishart law of the (u, v) conditional precision, v regressed on u:
    its degrees of freedom, the posterior's df less the T - 2
    conditioned-out coordinates, and the entries f00 = 1 / sqrt(a) and
    f01 = -b / (a sqrt(c - b^2 / a)) of the upper factor F = chol(U)^{-T} of
    its rate, the scatter block U = [[a, b], [b, c]].  ``DesignPosterior``
    has checked that the scatter is finite and positive definite and that
    df - (T - 2) > 1; ``InsufficientDataError`` is raised when the terms of
    f01 overflow or underflow all the same.
    """
    iu, iv = posterior.column_index(u), posterior.column_index(v)
    if iu == iv:
        raise ValueError("u and v must be distinct columns")
    scatter = posterior.scatter
    a, b, c = scatter[iu, iu].item(), scatter[iu, iv].item(), scatter[iv, iv].item()
    f00 = 1.0 / math.sqrt(a)
    schur = c - b * b / a  # -inf when b * b overflows
    den = a * math.sqrt(schur) if schur > 0.0 else 0.0
    if not 0.0 < den < math.inf:
        raise InsufficientDataError(f"the ({u}, {v}) pair factor leaves the float range")
    return posterior.df - (len(posterior.labels) - 2), f00, -b / den


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
    ``z``.  With F = chol(U)^{-T} the upper factor of the rate
    U = [[a, b], [b, c]], Q = F B B^T F^T gives
    lam = -(f00 b00 b10 / sqrt(s) + f01 sqrt(s)) with s = b11^2 + b10^2; f11
    cancels.  f00 and f01 are taken in closed form by ``pair_factor``, so no
    LAPACK kernel reaches the draws; a pair block whose f01 terms overflow or
    underflow raises ``InsufficientDataError`` there.  lam is then
    replaced in place by |lam|, sorted ascending; ``z`` stays as drawn.  A
    chi-square(k) draw is taken as twice a standard gamma(k / 2) draw, which
    is how numpy computes it.  ``draws`` must be an integer from 1 to
    ``MAX_DRAWS`` (``numerics.whole``), and is checked before anything is
    allocated, after ``posterior``, ``f_u`` and ``stream``, which must be a
    ``DesignPosterior``, an ``InterventionDensity`` and a ``RandomStream``
    (``numerics.instance``, else ``TypeError``).
    """
    instance("posterior", posterior, DesignPosterior)
    instance("f_u", f_u, InterventionDensity)
    instance("stream", stream, RandomStream)
    draws = whole("draws", draws, 1, MAX_DRAWS)
    df, f00, f01 = pair_factor(posterior, u, v)
    # three separate arrays, so that s is freed and only lam and z stay
    lam, s, z = np.empty(draws), np.empty(draws), np.empty(draws)

    gen = stream.child(0).generator()
    np.sqrt(_chisquare(gen, df, lam), out=lam)  # b00
    _chisquare(gen, df - 1.0, s)  # b11^2
    gen.standard_normal(out=z)  # b10
    lam *= z
    s += np.square(z, out=z)
    gen.standard_normal(out=z)
    np.sqrt(s, out=s)
    lam /= s
    lam *= -f00
    lam -= np.multiply(s, f01, out=s)
    # w = sign(lam) (sign(lam) z + |lam| sqrt(uu)) exactly, and sign(lam) z
    # has the law of z whatever lam is, so |lam| with z as drawn keeps the
    # law of w^2; z is independent of lam, so sorting lam keeps it too.
    # Ascending, the draws likeliest to miss come first, and a sample that
    # cannot reach its target stops sooner
    np.abs(lam, out=lam)
    lam.sort()
    return H1EdgeDraw(f_u=f_u, lam=lam, z=z, stream=stream)


def sample_bf_h1(
    edge: H1EdgeDraw, n: int, *, stop: Callable[[np.ndarray], bool] | None = None
) -> BfPredictiveSample:
    """Monte Carlo predictive draws of the Bayes factor under H1 at n.

    Per draw of ``edge``, the sufficient statistic of the n interventional
    pairs is drawn directly: uu = sum x_u^2 is a scaled chi-square(n) of
    noncentrality ``f_u.noncentrality(n)`` (``ValueError`` if not finite),
    and the residual sum of squares of v on u a chi-square with n-1 degrees
    of freedom.  In units of the conditional sd, the projection of x_v on
    x_u is w = z + lam sqrt(uu), so 1 - r^2 = resid / (w^2 + resid) without
    cancellation, and the closed-form Bayes factor g(n) (1 - r^2)^((n-1)/2)
    follows.  This is exact in distribution for the Gaussian interventional
    family at every n and costs O(1) per draw instead of O(n).  Only uu and
    the residual depend on n; both come from ``edge.stream.child(n)``, in
    blocks of ``H1_BLOCK`` draws: each block draws its uu and then its
    residual.  1 - r^2 is clipped to [2^-53, 1], so the factor lies in
    [0, g(n)].

    With ``stop``, each block's Bayes factors are passed to ``stop`` in
    order, and the sampler returns the draws made so far after the first
    block for which it returns true; they are, bit for bit, the first ones
    of the full sample.  Without it, the sampler returns every draw.
    ``edge`` must be an ``H1EdgeDraw`` (``numerics.instance``, else
    ``TypeError``).
    """
    instance("edge", edge, H1EdgeDraw)
    n = whole("n", n, 2)
    gen = edge.stream.child(n).generator()
    f_u = edge.f_u
    draws = edge.draws
    nonc, log_g = f_u.noncentrality(n), log_g_of_n(n)
    # the draws that one pass of the arithmetic covers: a block when the
    # stop is checked, else all of them, which saves a dozen numpy calls a
    # block; the arithmetic is element-wise, so the numbers are the same
    span = draws if stop is None else H1_BLOCK
    out = np.empty(draws)
    resid = np.empty(min(draws, span))
    for start in range(0, draws, span):
        end = min(start + span, draws)
        w, r = out[start:end], resid[: end - start]
        for lo in range(0, end - start, H1_BLOCK):
            hi = min(lo + H1_BLOCK, end - start)
            # a speed path: the draws of noncentrality 0, made in place, save ~6 % of the sampler
            if f_u.mean == 0.0:
                _chisquare(gen, n, w[lo:hi])
            else:
                w[lo:hi] = gen.noncentral_chisquare(n, nonc, size=hi - lo)
            _chisquare(gen, n - 1, r[lo:hi])
        np.sqrt(w, out=w)
        with np.errstate(over="ignore"):  # an infinite w^2 is 1 - r^2 = 0, floored below
            w *= f_u.sd  # sqrt(uu)
            w *= edge.lam[start:end]
            w += edge.z[start:end]
            w *= w
        w += r
        np.divide(r, w, out=w)  # 1 - r^2
        np.clip(w, _RATIO_FLOOR, 1.0, out=w)
        np.log(w, out=w)
        w *= 0.5 * (n - 1)
        w += log_g
        np.exp(w, out=w)
        if stop is not None and stop(w):
            return BfPredictiveSample(hypothesis="H1", n=n, draws=out[:end])
    return BfPredictiveSample(hypothesis="H1", n=n, draws=out)


def _chisquare(gen: np.random.Generator, df: float, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with chi-square(df) draws, bitwise as ``gen.chisquare(df)``."""
    gen.standard_gamma(df / 2.0, out=out)
    out *= 2.0
    return out
