"""Special functions and seeded random sampling shared by the statistical modules.

All samplers are pure functions of an explicit :class:`RandomStream`: calling a
sampler twice with the same stream and parameters returns the same draws.
Distinct tasks must derive distinct substreams via :meth:`RandomStream.child`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc as _betainc


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
    consume concurrently.
    """

    seed: int
    path: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if not all(isinstance(p, (int, np.integer)) and p >= 0 for p in self.path):
            raise ValueError(f"stream path must be nonnegative integers, got {self.path!r}")
        object.__setattr__(self, "path", tuple(int(p) for p in self.path))

    def child(self, *indices: int) -> "RandomStream":
        """Derive the substream identified by appending ``indices`` to the path."""
        return RandomStream(self.seed, self.path + tuple(int(i) for i in indices))

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
    ``upper_factor`` is F = chol(U)^{-T}, upper triangular with F F^T =
    U^{-1}, built from the Cholesky factor that validation computes.
    """

    df: float
    rate: np.ndarray
    upper_factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rate = np.array(self.rate, dtype=float)
        if rate.ndim != 2 or rate.shape[0] != rate.shape[1]:
            raise ValueError(f"rate must be a square matrix, got shape {rate.shape}")
        if not np.all(np.isfinite(rate)):
            raise ValueError("rate must be finite")
        if not np.allclose(rate, rate.T, rtol=1e-10, atol=1e-12):
            raise ValueError("rate must be symmetric")
        rate = 0.5 * (rate + rate.T)
        try:
            chol = np.linalg.cholesky(rate)
        except np.linalg.LinAlgError:
            raise ValueError("rate must be positive definite") from None
        df = float(self.df)
        t = rate.shape[0]
        if not math.isfinite(df) or df <= t - 1:
            raise ValueError(f"df must exceed T - 1 = {t - 1} for a proper law, got {df}")
        factor = np.linalg.inv(chol).T
        rate.setflags(write=False)
        factor.setflags(write=False)
        object.__setattr__(self, "df", df)
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "upper_factor", factor)

    @property
    def dim(self) -> int:
        return self.rate.shape[0]

    def mean(self) -> np.ndarray:
        """Expectation a * U^{-1} of a draw."""
        return self.df * np.linalg.inv(self.rate)


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for positive real ``x``."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"log_gamma requires a finite positive argument, got {x!r}")
    return math.lgamma(x)


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Equals the CDF of a Beta(a, b) law at ``x``; monotone nondecreasing in
    ``x`` with I_0 = 0 and I_1 = 1.
    """
    a = _require_finite_positive("a", a)
    b = _require_finite_positive("b", b)
    x = float(x)
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    return float(_betainc(a, b, x))


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
    t = params.dim
    factor = params.upper_factor.tolist()
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
