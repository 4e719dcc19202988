"""Special functions and seeded random sampling shared by the statistical modules.

All samplers are pure functions of an explicit :class:`RandomStream`: calling a
sampler twice with the same stream and parameters returns the same draws.
Distinct tasks must derive distinct substreams via :meth:`RandomStream.child`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

# gamma arguments from which Stirling's series gives the remainder
_STIRLING_MIN = 10.0
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# stand-in for a modified Lentz denominator that is exactly zero
_LENTZ_TINY = 1e-300
_EPS = sys.float_info.epsilon
# the continued fraction needs at most ~60 terms for shapes up to 1e3 and
# for the pipeline's ((n - 1)/2, 1/2) at any n; balanced shapes a = b at
# the mode need more as they grow (2,553 at 1e8) and reach this cap
# between 5e9 and 7e9
_BETA_CF_MAX_TERMS = 10_000


def whole(name: str, value, least: int, most: int | None = None) -> int:
    """``value`` as an int if it is an integer from ``least`` to ``most`` (no
    upper bound when None), else ``ValueError`` with a message that starts
    with ``name``.  A bool or a float, even an integral one, is no integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not (
        least <= value and (most is None or value <= most)
    ):
        bound = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def instance(name: str, value, kind: type):
    """``value`` if it is a ``kind``, else ``TypeError`` with a message that
    starts with ``name must be a`` (or ``an``) and names both types."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0].lower() in "aeiou" else "a"
        raise TypeError(f"{name} must be {article} {kind.__name__}, got {type(value).__name__}")
    return value


def _require_finite_positive(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"{name} must be a finite positive real, got {x!r}")
    return x


@dataclass(frozen=True)
class RandomStream:
    """Seeded random stream with hierarchical substream derivation.

    Identical (seed, path) pairs yield identical draw sequences; distinct
    paths derived from one master seed are statistically independent.  Built
    on ``numpy.random.SeedSequence`` spawn keys, so substreams are safe to
    consume concurrently.  The seed and every path entry are nonnegative
    integers (``whole``), checked at construction.
    """

    seed: int
    path: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", whole("seed", self.seed, 0))
        object.__setattr__(self, "path", tuple(whole("stream path entry", p, 0) for p in self.path))

    def child(self, *indices: int) -> "RandomStream":
        """Derive the substream identified by appending ``indices`` to the path."""
        return RandomStream(self.seed, self.path + indices)

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class WishartParams:
    """Degrees of freedom and rate matrix of a Wishart law.

    Rate parameterization throughout: a draw Q with parameters (df=a, rate=U)
    has density proportional to |Q|^((a-T-1)/2) * exp(-tr(U Q)/2) and
    expectation a * U^{-1}.  Many references use the scale convention
    (expectation a * V); the rate U here corresponds to scale V = U^{-1}.
    """

    df: float
    rate: np.ndarray

    def __post_init__(self) -> None:
        rate = np.array(self.rate, dtype=float)
        if rate.ndim != 2 or rate.shape[0] != rate.shape[1]:
            raise ValueError(f"rate must be a square matrix, got shape {rate.shape}")
        if not np.all(np.isfinite(rate)):
            raise ValueError("rate must be finite")
        if not np.allclose(rate, rate.T, rtol=1e-10, atol=1e-12):
            raise ValueError("rate must be symmetric")
        if not np.array_equal(rate, rate.T):  # no arithmetic, so no overflow, when symmetric
            rate = 0.5 * (rate + rate.T)
        try:
            np.linalg.cholesky(rate)
        except np.linalg.LinAlgError:
            raise ValueError("rate must be positive definite") from None
        df = float(self.df)
        t = rate.shape[0]
        if not math.isfinite(df) or df <= t - 1:
            raise ValueError(f"df must exceed T - 1 = {t - 1} for a proper law, got {df}")
        rate.setflags(write=False)
        object.__setattr__(self, "df", df)
        object.__setattr__(self, "rate", rate)


def _stirling_tail(z: float) -> float:
    """ln Gamma(z) - [(z - 1/2) ln z - z + ln sqrt(2 pi)], the remainder of Stirling's formula."""
    if z < _STIRLING_MIN:
        return math.lgamma(z) - ((z - 0.5) * math.log(z) - z + _LOG_SQRT_2PI)
    w = 1.0 / (z * z)  # the asymptotic series, to about 1e-17 from z = 10 up
    series = 691.0 / 360360.0 - w / 156.0
    for coef in (1.0 / 1188.0, 1.0 / 1680.0, 1.0 / 1260.0, 1.0 / 360.0, 1.0 / 12.0):
        series = coef - w * series
    return series / z


def _log_beta_front(x: float, y: float, a: float, b: float) -> float:
    """ln[x^a y^b / B(a, b)] for 0 < x < 1 and y = 1 - x.

    Summing the three log-gammas of B(a, b) would cost as many ulps as
    their size, about 6e6 at a = 5e5.  With Stirling's formula split off
    they cancel analytically, and what is left is a ln(x / x0) +
    b ln(y / y0) about the mode x0 = a / (a + b), a ln sqrt(ab / (a + b)),
    and the small remainders; every term is of the size of the result.
    """
    small, big = sorted((a, b))
    # near the mode, lam = a - (a + b) x gives both logs by log1p without
    # cancellation; far from it, where log1p would cancel instead, the plain
    # logs are used, and the front factor is then far out in a tail
    lam = a * y - b * x
    log_a = math.log1p(-lam / a) if abs(lam) <= 0.5 * a else math.log(x) + math.log1p(b / a)
    log_b = math.log1p(lam / b) if abs(lam) <= 0.5 * b else math.log1p(-x) + math.log1p(a / b)
    return (
        a * log_a
        + b * log_b
        + 0.5 * (math.log(small) - math.log1p(small / big))
        - _LOG_SQRT_2PI
        + _stirling_tail(a + b)
        - _stirling_tail(a)
        - _stirling_tail(b)
    )


def _beta_continued_fraction(x: float, y: float, a: float, b: float) -> float:
    """Denominator D with I_x(a, b) = x^a y^b / (B(a, b) D), for x < (a + 1)/(a + b + 2).

    The continued fraction of the incomplete beta in the form of DiDonato
    & Morris (ACM TOMS 708, 1992), b0 + a1/(b1 + a2/(b2 + ...)), evaluated
    by the modified Lentz method.  Its terms are written through
    a y - b x + 1, which has no cancellation near x = 1; the even/odd form
    of Numerical Recipes' betacf subtracts x from 1 at every odd term and
    loses about a ulps there, some 1e-11 relative at a = 1e5.
    """
    lam1 = a * y - b * x + 1.0
    f = a * lam1 / (a + 1.0)  # b0; positive below the switch point
    c, d = f, 0.0
    xx, two_minus_x, ab1 = x * x, 2.0 - x, a + b - 1.0
    for m in range(1, _BETA_CF_MAX_TERMS + 1):
        den = a + (2 * m - 1)
        am = (m * (a + m - 1.0) / den) * ((ab1 + m) / den) * (b - m) * xx
        bm = m + m * (b - m) * x / den + (a + m) * (lam1 + m * two_minus_x) / (den + 2.0)
        d = bm + am * d
        if d == 0.0:
            d = _LENTZ_TINY
        c = bm + am / c
        if c == 0.0:
            c = _LENTZ_TINY
        d = 1.0 / d
        delta = c * d
        f *= delta
        if -_EPS <= delta - 1.0 <= _EPS:
            return f
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge in {_BETA_CF_MAX_TERMS} "
        f"terms at x={x!r}, a={a!r}, b={b!r}"
    )


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Equals the CDF of a Beta(a, b) law at ``x``; monotone nondecreasing in
    ``x`` with I_0 = 0 and I_1 = 1.  Pure Python: the log prefactor
    ln[x^a (1-x)^b / B(a, b)] from Stirling differences, times a continued
    fraction, with the symmetry I_x(a, b) = 1 - I_{1-x}(b, a) above
    x = (a + 1)/(a + b + 2) so that the fraction converges fast.  Within
    about 1e-15 of 40-digit arithmetic at the pipeline's shapes
    ((n - 1)/2, 1/2) and 1e-14 for shapes up to 1e3.  Shapes so large and
    balanced that the fraction needs more than 10,000 terms (a = b = 1e10
    at the mode) raise ``ArithmeticError`` instead of looping on.
    """
    a = _require_finite_positive("a", a)
    b = _require_finite_positive("b", b)
    x = float(x)
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    if x == 0.0 or x == 1.0:
        return x
    y = 1.0 - x
    front = math.exp(_log_beta_front(x, y, a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front / _beta_continued_fraction(x, y, a, b)
    return 1.0 - front / _beta_continued_fraction(y, x, b, a)


def sample_wishart(stream: RandomStream, params: WishartParams, size: int | None = None):
    """Draw symmetric positive-definite matrices from the Wishart law.

    Uses the Bartlett construction: a lower-triangular factor B with
    chi-square diagonals and standard-normal off-diagonals, pushed through
    the upper-triangular factor F = chol(rate)^{-T} of rate^{-1}, so a draw
    is M M^T with M = F B.  Expectation of a draw is df * rate^{-1} (rate
    parameterization, see :class:`WishartParams`).

    The construction runs element by element: each entry of B is one array
    over the draws, and each entry of M and of M M^T is a sum of
    scalar-times-array products over the nonzero terms of the triangles
    (M[r, c] sums F[r, k] B[k, c] over k >= max(r, c)).  The stream is
    consumed row by row of B: row i's chi-square(df - i) diagonal for all
    draws, then row i's i standard normals as one (size, i) block.
    """
    n = 1 if size is None else int(size)
    if n < 1:
        raise ValueError(f"size must be positive, got {size!r}")
    t = params.rate.shape[0]
    factor = np.linalg.inv(np.linalg.cholesky(params.rate)).T.tolist()
    gen = stream.generator()
    bart = [[None] * t for _ in range(t)]  # bart[k][c] is set for c <= k
    for i in range(t):
        bart[i][i] = np.sqrt(gen.chisquare(params.df - i, size=n))
        if i > 0:
            normals = gen.standard_normal(size=(n, i))
            for j in range(i):
                bart[i][j] = normals[:, j]
    m = [[None] * t for _ in range(t)]
    for r in range(t):
        for c in range(t):
            k0 = max(r, c)
            acc = factor[r][k0] * bart[k0][c]
            for k in range(k0 + 1, t):
                acc += factor[r][k] * bart[k][c]
            m[r][c] = acc
    draws = np.empty((n, t, t))
    for r in range(t):
        for s in range(r + 1):
            acc = m[r][0] * m[s][0]
            for c in range(1, t):
                acc += m[r][c] * m[s][c]
            draws[:, r, s] = acc
            draws[:, s, r] = acc
    return draws[0] if size is None else draws
