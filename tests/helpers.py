"""Shared fixtures and brute-force oracles used across test modules."""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from causal_ssd.bayes import log_g_of_n
from causal_ssd.graph import Dag, PartiallyDirectedGraph, UndirectedGraph
from causal_ssd.numerics import RandomStream, WishartParams, sample_wishart
from causal_ssd.predictive import DesignPosterior, InterventionDensity

_ONE_BELOW_ONE = float(np.nextafter(1.0, 0.0))

# the five-node tree component used throughout: 3 - {1, 2, 5}, 2 - 4
TREE5_EDGES = [("1", "3"), ("2", "3"), ("2", "4"), ("3", "5")]

# two-component chain graph: triangle {1,2,3}, pair {4,5}, arrows 2->4, 2->5
CHAIN5 = PartiallyDirectedGraph(
    nodes="12345",
    directed=[("2", "4"), ("2", "5")],
    undirected=[("1", "2"), ("2", "3"), ("1", "3"), ("4", "5")],
)


def brute_force_class(g: UndirectedGraph) -> list[Dag]:
    """Oracle: all orientations of g that are acyclic and create no v-structure."""
    edges = g.edges()
    out = []
    for mask in itertools.product([0, 1], repeat=len(edges)):
        oriented = [(u, v) if m == 0 else (v, u) for (u, v), m in zip(edges, mask)]
        try:
            d = Dag(g.nodes, oriented)
        except ValueError:
            continue
        if not d.v_structures():
            out.append(d)
    return out


def random_chordal(rng: np.random.Generator, n_nodes: int) -> UndirectedGraph:
    """Random connected chordal graph grown clique by clique."""
    cliques = [{"0"}]
    for i in range(1, n_nodes):
        base = cliques[rng.integers(len(cliques))]
        k = int(rng.integers(1, len(base) + 1))
        attach = set(rng.choice(sorted(base), size=k, replace=False))
        cliques.append(attach | {str(i)})
    edges = []
    for c in cliques:
        edges.extend(itertools.combinations(sorted(c), 2))
    return UndirectedGraph([str(i) for i in range(n_nodes)], edges)


def random_dag(rng: np.random.Generator, n_nodes: int, p: float) -> Dag:
    order = [str(i) for i in range(n_nodes)]
    perm = list(rng.permutation(order))
    edges = []
    for i, j in itertools.combinations(range(n_nodes), 2):
        if rng.uniform() < p:
            edges.append((perm[i], perm[j]))
    return Dag(order, edges)


def matmul_sample_wishart(
    stream: RandomStream, params: WishartParams, size: int | None = None
) -> np.ndarray:
    """Oracle: the Bartlett construction as a stacked (size, T, T) factor and
    batched matmuls, drawing from the stream in the same order as
    ``numerics.sample_wishart``."""
    n = 1 if size is None else int(size)
    t = params.dim
    factor = np.linalg.inv(np.linalg.cholesky(params.rate)).T
    gen = stream.generator()
    bart = np.zeros((n, t, t))
    for i in range(t):
        bart[:, i, i] = np.sqrt(gen.chisquare(params.df - i, size=n))
        if i > 0:
            bart[:, i, :i] = gen.standard_normal(size=(n, i))
    m = factor @ bart
    draws = m @ m.transpose(0, 2, 1)
    return draws[0] if size is None else draws


def _bf_from_r2(r2: np.ndarray, n: int) -> np.ndarray:
    r2 = np.clip(r2, 0.0, _ONE_BELOW_ONE)
    return np.exp(log_g_of_n(n) + 0.5 * (n - 1) * np.log1p(-r2))


def _regression_draws(
    posterior: DesignPosterior, u: str, v: str, draws: int, stream: RandomStream, wishart
) -> tuple[np.ndarray, np.ndarray]:
    """Per-draw slope -Q_uv / Q_vv and conditional sd sqrt(1 / Q_vv) from
    full (draws, 2, 2) Wishart draws of the pair precision."""
    q = wishart(stream, posterior.pair_precision_params(u, v), size=draws)
    return -q[:, 0, 1] / q[:, 1, 1], np.sqrt(1.0 / q[:, 1, 1])


def reference_sample_bf_h1(
    posterior: DesignPosterior,
    u: str,
    v: str,
    f_u: InterventionDensity,
    n: int,
    draws: int,
    stream: RandomStream,
    wishart=sample_wishart,
) -> np.ndarray:
    """Oracle: the H1 Bayes-factor draws of ``predictive.sample_bf_h1`` built
    from full Wishart draws (``numerics.sample_wishart`` by default) and
    whole-array expressions, drawing from the same substreams in the same
    order."""
    slope, cond_sd = _regression_draws(posterior, u, v, draws, stream.child(0), wishart)
    gen = stream.child(1).generator()
    if f_u.mean == 0.0:
        uu = f_u.sd**2 * gen.chisquare(n, size=draws)
    else:
        nonc = n * (f_u.mean / f_u.sd) ** 2
        uu = f_u.sd**2 * gen.noncentral_chisquare(n, nonc, size=draws)
    z = gen.standard_normal(size=draws)
    resid = gen.chisquare(n - 1, size=draws)
    ue = np.sqrt(uu) * z
    ee = z * z + resid
    uv = slope * uu + cond_sd * ue
    vv = slope**2 * uu + 2.0 * slope * cond_sd * ue + cond_sd**2 * ee
    return _bf_from_r2(uv * uv / (uu * vv), n)


def pairs_sample_bf_h1(
    posterior: DesignPosterior,
    u: str,
    v: str,
    f_u: InterventionDensity,
    n: int,
    draws: int,
    stream: RandomStream,
) -> np.ndarray:
    """Oracle: H1 Bayes-factor draws from n explicitly simulated pairs per
    draw (x_u from ``f_u``, x_v Gaussian around slope * x_u), equal in
    distribution to ``predictive.sample_bf_h1``."""
    slope, cond_sd = _regression_draws(posterior, u, v, draws, stream.child(0), sample_wishart)
    gen = stream.child(2).generator()
    x_u = f_u.mean + f_u.sd * gen.standard_normal(size=(draws, n))
    x_v = slope[:, None] * x_u + cond_sd[:, None] * gen.standard_normal(size=(draws, n))
    uu = np.einsum("ij,ij->i", x_u, x_u)
    uv = np.einsum("ij,ij->i", x_u, x_v)
    vv = np.einsum("ij,ij->i", x_v, x_v)
    return _bf_from_r2(uv * uv / (uu * vv), n)


@dataclass(frozen=True)
class CholeskyPair:
    """Regression reparameterization of a 2x2 covariance block.

    ``l_uv`` is the (negated) regression coefficient of v on u under the
    node-wise Cholesky convention, ``d_vv`` the positive conditional
    variance; the sampling mean of X_v given X_u = x is -l_uv * x.
    """

    l_uv: float
    d_vv: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.l_uv) and math.isfinite(self.d_vv)):
            raise ValueError("Cholesky parameters must be finite")
        if self.d_vv <= 0.0:
            raise ValueError("conditional variance must be positive")


def derive_cholesky_pair(sigma_2x2: np.ndarray) -> CholeskyPair:
    """Oracle: Cholesky parameters (L_uv, D_vv) of a 2x2 covariance matrix.

    L_uv = -Sigma_uv / Sigma_uu and D_vv = Sigma_vv - Sigma_uv^2 / Sigma_uu,
    the conditional variance of v given u.
    """
    sigma = np.asarray(sigma_2x2, dtype=float)
    if sigma.shape != (2, 2):
        raise ValueError("expected a 2x2 covariance matrix")
    if not np.allclose(sigma, sigma.T, rtol=1e-10, atol=1e-12):
        raise ValueError("covariance must be symmetric")
    try:
        np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise ValueError("covariance must be positive definite") from None
    l_uv = -sigma[0, 1] / sigma[0, 0]
    d_vv = sigma[1, 1] - sigma[0, 1] ** 2 / sigma[0, 0]
    return CholeskyPair(l_uv=float(l_uv), d_vv=float(d_vv))
