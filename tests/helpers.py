"""Shared fixtures and brute-force oracles used across test modules.

The reference implementations that only tests use live here: the Bayes
factors and marginal likelihoods behind the closed form, an acyclicity check
for oriented graphs, the DAG-to-CPDAG conversion, the definition of a
sufficient sequence, the closed-form law of an edge draw's |lam|, the
evidence probabilities at one n, the fewest
decisive H1 draws that reach zeta, the full-sample scan for an edge's
optimal n, plans built from given edge sizes, the whole-text writer of the
Bayes-factor sample CSV, data drawn from a linear structural equation
model, and a deadline for tests that may block.

An oriented graph (a DAG) is a ``PartiallyDirectedGraph`` with directed
edges only, the type of ``graph.enumerate_class``'s members.
"""

import contextlib
import csv
import io
import itertools
import math
import signal
from dataclasses import dataclass

import numpy as np
from scipy import special, stats

from causal_ssd.graph import (
    PartiallyDirectedGraph,
    enumerate_class,
    meek_closure,
)
from causal_ssd.harness import format_float
from causal_ssd.numerics import RandomStream, WishartParams, sample_wishart
from causal_ssd.predictive import (
    H1_BLOCK,
    BfPredictiveSample,
    DatasetMatrix,
    DesignPosterior,
    InterventionDensity,
    draw_h1_edge,
    log_g_of_n,
    sample_bf_h1,
)
from causal_ssd.ssd import (
    DceThresholds,
    RunConfig,
    assemble_dce,
    h0_band_probabilities,
    h1_band_counts,
    plan_entry,
)

_ONE_BELOW_ONE = float(np.nextafter(1.0, 0.0))


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise ``TimeoutError`` in the block once it has run ``seconds`` (SIGALRM)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

# the five-node tree component used throughout: 3 - {1, 2, 5}, 2 - 4
TREE5_EDGES = [("1", "3"), ("2", "3"), ("2", "4"), ("3", "5")]

# two-component chain graph: triangle {1,2,3}, pair {4,5}, arrows 2->4, 2->5
CHAIN5 = PartiallyDirectedGraph(
    nodes="12345",
    directed=[("2", "4"), ("2", "5")],
    undirected=[("1", "2"), ("2", "3"), ("1", "3"), ("4", "5")],
)


def brute_force_class(g: PartiallyDirectedGraph) -> list[PartiallyDirectedGraph]:
    """Oracle: all orientations of g that are acyclic and create no v-structure."""
    edges = g.undirected_edges()
    out = []
    for mask in itertools.product([0, 1], repeat=len(edges)):
        oriented = [(u, v) if m == 0 else (v, u) for (u, v), m in zip(edges, mask)]
        d = PartiallyDirectedGraph(g.nodes, directed=oriented)
        if is_acyclic(d) and not v_structures(d):
            out.append(d)
    return out


def random_chordal(rng: np.random.Generator, n_nodes: int) -> PartiallyDirectedGraph:
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
    return PartiallyDirectedGraph([str(i) for i in range(n_nodes)], undirected=edges)


def random_dag(rng: np.random.Generator, n_nodes: int, p: float) -> PartiallyDirectedGraph:
    """Random DAG whose arrows follow a random permutation of the nodes."""
    order = [str(i) for i in range(n_nodes)]
    perm = list(rng.permutation(order))
    edges = []
    for i, j in itertools.combinations(range(n_nodes), 2):
        if rng.uniform() < p:
            edges.append((perm[i], perm[j]))
    return PartiallyDirectedGraph(order, directed=edges)


def linear_sem_data(
    order: str | list[str], coefficients: dict, n_rows: int, stream: RandomStream
) -> DatasetMatrix:
    """Rows of the linear model in which each node is the coefficient-weighted
    sum of its parents plus N(0, 1) noise.  ``order`` lists every node in a
    topological order; each node's column is drawn from ``stream.generator()``
    in that order, and its parents are added in label order.  The columns come
    out in label order."""
    gen = stream.generator()
    columns: dict[str, np.ndarray] = {}
    for node in order:
        x = gen.standard_normal(n_rows)
        for (parent, child), coefficient in sorted(coefficients.items()):
            if child == node:
                x = x + coefficient * columns[parent]
        columns[node] = x
    labels = tuple(sorted(columns))
    return DatasetMatrix(labels=labels, values=np.column_stack([columns[n] for n in labels]))


def matmul_sample_wishart(
    stream: RandomStream, params: WishartParams, size: int | None = None
) -> np.ndarray:
    """Oracle: the Bartlett construction as a stacked (size, T, T) factor and
    batched matmuls, drawing from the stream in the same order as
    ``numerics.sample_wishart``."""
    n = 1 if size is None else int(size)
    t = params.rate.shape[0]
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


def pair_wishart_params(posterior: DesignPosterior, u: str, v: str) -> WishartParams:
    """Oracle of the pair law in ``predictive.pair_factor``: the Wishart law
    of the precision of (u, v), v the regressed coordinate, derived from the
    posterior's fields alone.

    The covariance Omega^{-1} of a Wishart(df, rate S) precision Omega on T
    coordinates is inverse Wishart; its (u, v) block is inverse Wishart with
    the degrees of freedom lowered by the T - 2 coordinates integrated out
    and the (u, v) block of S, so the inverse of that block is
    Wishart(df - (T - 2), rate S[(u, v), (u, v)]).
    """
    t = posterior.scatter.shape[0]
    idx = [posterior.labels.index(u), posterior.labels.index(v)]
    return WishartParams(posterior.df - (t - 2), posterior.scatter[np.ix_(idx, idx)])


def lam_cdf(x, df: float, a: float, b: float, c: float) -> np.ndarray:
    """Oracle of the law of ``H1EdgeDraw.lam``: P(|lam| <= x), in closed
    form, for the pair precision Q ~ Wishart(df, rate [[a, b], [b, c]]) of
    ``pair_wishart_params``.

    Q_vv is a / (a c - b^2) times a chi-square(df), and given Q_vv,
    lam = -Q_uv / sqrt(Q_vv) is normal with mean sqrt(Q_vv) b / a and
    variance 1 / a.  So a lam^2 is a noncentral chi-square(1) whose
    noncentrality is delta = b^2 / (a c - b^2) times that chi-square(df),
    and its Poisson index J is negative binomial:
    P(J = j) = Gamma(r + j) / (Gamma(r) j!) q^j (1 - q)^r, with r = df / 2
    and q = delta / (1 + delta).  Hence
    F(x) = sum_j P(J = j) P(1/2 + j, a x^2 / 2), P the regularized lower
    gamma; the sum runs to the negative binomial's 1 - 1e-15 quantile.
    """
    x = np.asarray(x, dtype=float)
    delta = b * b / (a * c - b * b)
    index = stats.nbinom(df / 2.0, 1.0 / (1.0 + delta))
    j = np.arange(index.ppf(1.0 - 1e-15) + 1.0)
    return index.pmf(j) @ special.gammainc(0.5 + j[:, None], a * x[None, :] ** 2 / 2.0)


def _regression_draws(
    posterior: DesignPosterior, u: str, v: str, draws: int, stream: RandomStream, wishart
) -> tuple[np.ndarray, np.ndarray]:
    """Per-draw slope -Q_uv / Q_vv and conditional sd sqrt(1 / Q_vv) from
    full (draws, 2, 2) Wishart draws of the pair precision."""
    q = wishart(stream, pair_wishart_params(posterior, u, v), size=draws)
    return -q[:, 0, 1] / q[:, 1, 1], np.sqrt(1.0 / q[:, 1, 1])


def h1_block_draws(
    f_u: InterventionDensity, n: int, draws: int, stream: RandomStream
) -> tuple[np.ndarray, np.ndarray]:
    """The raw n-dependent H1 variates of the edge whose substream is
    ``stream``: the (noncentral) chi-square(n) of sum x_u^2 / sd^2 and the
    residual chi-square(n - 1), from ``stream.child(n)``.  Each block of
    ``H1_BLOCK`` draws, the last one partial, draws its chi-square(n) values
    and then its residuals."""
    gen = stream.child(n).generator()
    chi, resid = [], []
    for start in range(0, draws, H1_BLOCK):
        size = min(H1_BLOCK, draws - start)
        if f_u.mean == 0.0:
            chi.append(gen.chisquare(n, size=size))
        else:
            chi.append(gen.noncentral_chisquare(n, n * (f_u.mean / f_u.sd) ** 2, size=size))
        resid.append(gen.chisquare(n - 1, size=size))
    return np.concatenate(chi), np.concatenate(resid)


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
    """Oracle: the H1 Bayes-factor draws of ``predictive.sample_bf_h1`` at n
    for the edge whose substream is ``stream``, built from full Wishart draws
    (``numerics.sample_wishart`` by default) and whole-array expressions.

    It draws from the same substreams in the same order: the precision and
    then ``z`` from ``stream.child(0)``, and uu and the residual from
    ``stream.child(n)``, block by block of ``H1_BLOCK`` draws
    (``h1_block_draws``).  ``z`` follows the Bartlett entries b00, b11, b10 on
    one generator, so a replay of those three draws positions it.  The
    precision draws are put in ascending order of |slope / cond_sd| = |lam|
    and the slope's sign is dropped, as the kernel does; ``z`` keeps the
    order drawn.
    """
    edge = stream.child(0)
    slope, cond_sd = _regression_draws(posterior, u, v, draws, edge, wishart)
    order = np.argsort(np.abs(slope / cond_sd))
    slope, cond_sd = np.abs(slope[order]), cond_sd[order]
    df = pair_wishart_params(posterior, u, v).df
    gen = edge.generator()
    gen.chisquare(df, size=draws)
    gen.chisquare(df - 1.0, size=draws)
    gen.standard_normal(size=draws)
    z = gen.standard_normal(size=draws)
    chi, resid = h1_block_draws(f_u, n, draws, stream)
    uu = f_u.sd**2 * chi
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
    distribution to ``predictive.sample_bf_h1``.  ``stream`` is the edge's
    substream, laid out as the sampler lays it out: the precision from
    ``stream.child(0)`` and the pairs of n from ``stream.child(n)``."""
    slope, cond_sd = _regression_draws(posterior, u, v, draws, stream.child(0), sample_wishart)
    gen = stream.child(n).generator()
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


# ---------------------------------------------------------------------------
# graph oracles
# ---------------------------------------------------------------------------


def is_acyclic(d: PartiallyDirectedGraph) -> bool:
    """True iff the directed edges of ``d`` form no cycle: peeling off the
    nodes with no arrow from a remaining node must empty the graph."""
    remaining = set(d.nodes)
    arrows = d.directed_edges()
    while remaining:
        sources = remaining - {b for a, b in arrows if a in remaining}
        if not sources:
            return False
        remaining -= sources
    return True


def v_structures(d: PartiallyDirectedGraph) -> set[tuple[str, str, str]]:
    """Triples (a, b, c), a < c, with a -> b <- c and a, c nonadjacent."""
    adjacent = {frozenset(e) for e in d.directed_edges() + d.undirected_edges()}
    out: set[tuple[str, str, str]] = set()
    # the arrows are sorted, so a pair into one head b has a < c
    for (a, b), (c, head) in itertools.combinations(d.directed_edges(), 2):
        if b == head and frozenset((a, c)) not in adjacent:
            out.add((a, b, c))
    return out


def dag_to_cpdag(d: PartiallyDirectedGraph) -> PartiallyDirectedGraph:
    """Essential graph of the Markov equivalence class of ``d``.

    Edges taking the same orientation in every equivalent DAG stay directed;
    reversible edges become undirected.  Computed by keeping the v-structure
    arrows and closing under the orientation rules.
    """
    vstruct_arrows: set[tuple[str, str]] = set()
    for a, b, c in v_structures(d):
        vstruct_arrows.add((a, b))
        vstruct_arrows.add((c, b))
    undirected = [
        (u, v) for u, v in d.directed_edges() if (u, v) not in vstruct_arrows
    ]
    pattern = PartiallyDirectedGraph(
        d.nodes, directed=sorted(vstruct_arrows), undirected=undirected
    )
    return meek_closure(pattern)


def format_edge_list(g: PartiallyDirectedGraph) -> str:
    """Serialize a graph to the edge-list text format (round-trips with parse)."""
    lines = [f"{u} -- {v}" for u, v in g.undirected_edges()]
    lines += [f"{u} -> {v}" for u, v in g.directed_edges()]
    covered = {n for e in g.undirected_edges() + g.directed_edges() for n in e}
    lines += [n for n in g.nodes if n not in covered]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# the definition of a sufficient sequence, oracle of design.optimal_sequences
# ---------------------------------------------------------------------------


def _oriented_pattern(
    g: PartiallyDirectedGraph, targets: set[str], member: PartiallyDirectedGraph
) -> PartiallyDirectedGraph:
    """Pattern with every edge incident to a target oriented as in ``member``."""
    arrows = set(member.directed_edges())
    directed, undirected = [], []
    for u, v in g.undirected_edges():
        if u in targets or v in targets:
            directed.append((u, v) if (u, v) in arrows else (v, u))
        else:
            undirected.append((u, v))
    return PartiallyDirectedGraph(g.nodes, directed=directed, undirected=undirected)


def _sufficient_for_class(
    g: PartiallyDirectedGraph, targets: set[str], dags: list[PartiallyDirectedGraph]
) -> bool:
    for member in dags:
        closed = meek_closure(_oriented_pattern(g, targets, member))
        # a closure with an undirected edge left differs from the member; a
        # sound closure cannot disagree on an arrow, but that is checked too
        if closed != member:
            return False
    return True


def is_sufficient(g: PartiallyDirectedGraph, targets: tuple[str, ...]) -> bool:
    """True iff manipulating ``targets`` identifies every class member.

    For each perfect directed version of ``g``, orienting the edges incident
    to the targets accordingly and closing under the orientation rules must
    recover the full DAG.
    """
    targets = set(targets)
    missing = targets - set(g.nodes)
    if missing:
        raise ValueError(f"targets not in component: {sorted(missing)}")
    return _sufficient_for_class(g, targets, enumerate_class(g))


# ---------------------------------------------------------------------------
# evidence probabilities at one n
# ---------------------------------------------------------------------------


def dce_probabilities(
    u: str,
    v: str,
    thresholds: DceThresholds,
    n: int,
    p_h0: float,
    posterior: DesignPosterior,
    f_u: InterventionDensity,
    draws: int = RunConfig.draws,
    stream: RandomStream = RandomStream(0),
) -> dict:
    """The ``ssd.assemble_dce`` mapping at n for manipulating u and testing
    the edge u - v.

    ``stream`` is the edge task's substream, so the ``ssd.dce_curve_row``
    of the result is, bit for bit, the row at n of ``ssd.dce_curve`` of the
    edge draw from it; it costs one edge draw and one n step.
    """
    sample = sample_bf_h1(draw_h1_edge(posterior, u, v, f_u, draws, stream), n)
    counts = h1_band_counts(sample, thresholds)
    return assemble_dce(h0_band_probabilities(thresholds, n), p_h0, counts, draws)


def decisive_draws_needed(
    h0_bands: tuple[float, float, float], thresholds: DceThresholds, p_h0: float, draws: int
) -> int:
    """The fewest of ``draws`` H1 draws at or below 1/k1 with which
    ``ssd.assemble_dce`` gives overall_dc >= zeta, or ``draws + 1`` if none
    do: a binary search over the float expression of the mixture, which is
    nondecreasing in the count.  The oracle of ``ssd.reaches_zeta``."""

    def mixture(count: int) -> float:
        return p_h0 * h0_bands[0] + (1.0 - p_h0) * (count / draws)

    if mixture(draws) < thresholds.zeta:
        return draws + 1
    lo, hi = 0, draws
    while lo < hi:
        mid = (lo + hi) // 2
        if mixture(mid) >= thresholds.zeta:
            hi = mid
        else:
            lo = mid + 1
    return lo


def edge_entry(
    u: str, v: str, p_h0: float, n_star: int | None, dce: dict | None, n_max: int
) -> dict:
    """The ``plan.json`` edge entry, its keys written out here and not read
    from ``src``, so that it is also the schema's oracle."""
    return {
        "u": u,
        "v": v,
        "p_h0": p_h0,
        "n_star": n_star,
        "achieved": n_star is not None,
        "n_max": n_max,
        "dce_at_n_star": dce,
        "se_overall": None if dce is None else dce["mc_se"]["overall_dc"],
    }


def linear_scan_optimal_n_edge(
    u: str,
    v: str,
    thresholds: DceThresholds,
    p_h0: float,
    posterior: DesignPosterior,
    config: RunConfig,
    stream: RandomStream,
) -> dict:
    """Oracle of ``ssd.optimal_n_edge``: the scan with a full sample at every
    n that the exact H0 side lets through, and no early stop."""
    draws, n_max = config.draws, config.n_max
    h1 = None
    for n in range(2, n_max + 1):
        h0_bands = h0_band_probabilities(thresholds, n)
        if p_h0 * h0_bands[0] + (1.0 - p_h0) < thresholds.zeta:
            continue
        if h1 is None:
            h1 = draw_h1_edge(posterior, u, v, config.f_u, draws, stream)
        counts = h1_band_counts(sample_bf_h1(h1, n), thresholds)
        dce = assemble_dce(h0_bands, p_h0, counts, draws)
        if dce["overall_dc"] >= thresholds.zeta:
            return edge_entry(u, v, p_h0, n, dce, n_max)
    return edge_entry(u, v, p_h0, None, None, n_max)


def whole_bf_samples_csv(samples: list[BfPredictiveSample]) -> str:
    """Oracle of ``harness.bf_samples_csv``: the whole text from ``csv.writer``,
    one ``format_float`` call a draw."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["hypothesis", "n", "draw_index", "bf"])
    for sample in samples:
        for i, value in enumerate(sample.draws):
            writer.writerow([sample.hypothesis, sample.n, i, format_float(value)])
    return buf.getvalue()


def plan_from_stars(edge_stars: dict[str, list[int | None]]) -> dict:
    """The ``plan_entry`` whose target u has one edge result per n* listed under u.

    The sequence is the keys of ``edge_stars`` in their order; None marks an
    edge whose n* was not achieved.
    """
    edge_results = {
        u: [edge_entry(u, f"w{i}", 0.5, n_star, None, 100) for i, n_star in enumerate(stars)]
        for u, stars in edge_stars.items()
    }
    return plan_entry(list(edge_stars), edge_results)


# ---------------------------------------------------------------------------
# Bayes factors and marginal likelihoods behind the closed form
# ---------------------------------------------------------------------------
#
# The pipeline evaluates the objective Bayes factor of the unit training
# sample in closed form,
#
#     BF01(n) = g(n) * (1 - r^2)^((n-1)/2),
#     g(n)    = n * Gamma(n/2) / (sqrt(pi) * Gamma((n+1)/2)),
#
# with r^2 the uncentered squared sample correlation.  The subjective-prior
# formula and its fractional reduction below are its oracles; all marginal
# likelihoods are computed on the log scale (gamma ratios overflow for n of
# a few hundred otherwise).


@dataclass(frozen=True)
class FbfConfig:
    """Fractional-prior configuration: degrees parameter and training size.

    ``a_omega=None`` resolves to T - 1 at evaluation time, the smallest
    choice keeping the fractional prior proper with a single training
    observation.
    """

    a_omega: float | None = None
    n0: int = 1

    def __post_init__(self) -> None:
        if self.n0 < 1:
            raise ValueError(f"n0 must be a positive integer, got {self.n0!r}")

    def resolve_a_omega(self, t: int) -> float:
        a = float(t - 1) if self.a_omega is None else float(self.a_omega)
        if a + self.n0 <= t - 1:
            raise ValueError(
                f"fractional prior improper: a_omega + n0 = {a + self.n0} <= T - 1 = {t - 1}"
            )
        return a


@dataclass(frozen=True)
class PairedSample:
    """Two equal-length interventional data columns with nondegenerate scale."""

    x_u: np.ndarray
    x_v: np.ndarray

    def __post_init__(self) -> None:
        xu = np.asarray(self.x_u, dtype=float)
        xv = np.asarray(self.x_v, dtype=float)
        if xu.ndim != 1 or xv.ndim != 1 or xu.shape != xv.shape:
            raise ValueError("x_u and x_v must be one-dimensional and equally long")
        if xu.size < 2:
            raise ValueError(
                "need n >= 2: the uncentered correlation of a single pair is always 1"
            )
        if not (np.all(np.isfinite(xu)) and np.all(np.isfinite(xv))):
            raise ValueError("sample values must be finite")
        if not (np.dot(xu, xu) > 0.0 and np.dot(xv, xv) > 0.0):
            raise ValueError("degenerate sample: a column has zero sum of squares")
        xu.setflags(write=False)
        xv.setflags(write=False)
        object.__setattr__(self, "x_u", xu)
        object.__setattr__(self, "x_v", xv)

    @property
    def n(self) -> int:
        return self.x_u.size

    def scatter(self) -> np.ndarray:
        """2x2 cross-product matrix of (x_u, x_v)."""
        xu, xv = self.x_u, self.x_v
        return np.array(
            [[xu @ xu, xu @ xv], [xu @ xv, xv @ xv]], dtype=float
        )


def g_of_n(n: int) -> float:
    """The factor g(n) = n Gamma(n/2) / (sqrt(pi) Gamma((n+1)/2)).

    Strictly increasing in n, asymptotically sqrt(2 n / pi); it is the
    supremum of the Bayes factor at sample size n, attained at r^2 = 0.
    """
    return math.exp(log_g_of_n(n))


def uncentered_correlation_sq(s: PairedSample) -> float:
    """Squared sample correlation without mean subtraction (zero-mean model)."""
    xu, xv = s.x_u, s.x_v
    return float((xu @ xv) ** 2 / ((xu @ xu) * (xv @ xv)))


def bf01(s: PairedSample) -> float:
    """Closed-form objective Bayes factor of independence vs dependence.

    Lies in (0, g(n)], equal to g(n) exactly when the columns are orthogonal;
    proportional columns give 0 (total evidence for dependence).
    """
    r2 = uncentered_correlation_sq(s)
    if r2 >= 1.0:
        return 0.0
    return math.exp(log_g_of_n(s.n) + 0.5 * (s.n - 1) * math.log1p(-r2))


def _log_marginal_from_scatter(
    s_aa: np.ndarray, n: float, u_aa: np.ndarray, a: float, t: int
) -> float:
    """Log marginal data distribution of a variable subset, from its scatter.

    ``s_aa`` and ``u_aa`` are the scatter and prior-rate blocks of the subset
    A; ``a`` the prior degrees of freedom of the T-dimensional Wishart.  With
    alpha = a - (T - |A|), the value is

      sum_j [ lG((alpha+n+1-j)/2) - lG((alpha+1-j)/2) ]
      + (alpha/2) log|U_AA| - ((alpha+n)/2) log|U_AA + S_AA|
      - (n |A| / 2) log pi.

    The pi term is the normalizing constant of the Gaussian integrals; it is
    kept so the value matches the actual integral (it cancels in every
    Bayes-factor ratio).
    """
    u_aa = np.atleast_2d(np.asarray(u_aa, dtype=float))
    s_aa = np.atleast_2d(np.asarray(s_aa, dtype=float))
    size = u_aa.shape[0]
    alpha = a - (t - size)
    if alpha - size + 1 <= 0:
        raise ValueError(f"improper prior for subset of size {size}: need a > T - 1")
    total = 0.0
    for j in range(1, size + 1):
        total += math.lgamma((alpha + n + 1 - j) / 2.0) - math.lgamma((alpha + 1 - j) / 2.0)
    sign_u, logdet_u = np.linalg.slogdet(u_aa)
    sign_post, logdet_post = np.linalg.slogdet(u_aa + s_aa)
    if sign_u <= 0 or sign_post <= 0:
        raise ValueError("singular prior-rate or posterior-rate block")
    total += 0.5 * alpha * logdet_u - 0.5 * (alpha + n) * logdet_post
    total -= 0.5 * n * size * math.log(math.pi)
    return total


def marginal_likelihood_subset(
    data: np.ndarray, subset: tuple[int, ...], prior: WishartParams
) -> float:
    """Log marginal likelihood of the data restricted to the given columns.

    ``data`` is an n x T matrix (n = 0 gives log 1 = 0); ``subset`` holds
    column indices.  The prior is the T-dimensional Wishart on the precision
    matrix, rate parameterization.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError("data must be a 2-D matrix")
    t = prior.rate.shape[0]
    if data.shape[1] != t:
        raise ValueError(f"data has {data.shape[1]} columns but prior dimension is {t}")
    cols = tuple(int(c) for c in subset)
    if not cols or len(set(cols)) != len(cols) or not all(0 <= c < t for c in cols):
        raise ValueError(f"subset must be distinct column indices in range, got {subset!r}")
    n = data.shape[0]
    sub = data[:, cols]
    s_aa = sub.T @ sub
    u_aa = prior.rate[np.ix_(cols, cols)]
    return _log_marginal_from_scatter(s_aa, n, u_aa, prior.df, t)


def bf01_subjective(data: np.ndarray, u: int, v: int, prior: WishartParams) -> float:
    """Subjective-prior Bayes factor m(X_u) m(X_v) / m(X_{u,v})."""
    log_bf = (
        marginal_likelihood_subset(data, (u,), prior)
        + marginal_likelihood_subset(data, (v,), prior)
        - marginal_likelihood_subset(data, (u, v), prior)
    )
    return math.exp(log_bf)


def fbf_objective_bf(s: PairedSample, cfg: FbfConfig, t: int) -> float:
    """Fractional Bayes factor for the pair, under a T-variable component.

    Specializes the subjective formula with a -> a_omega + n0, n -> n - n0,
    U -> (n0/n) S and S -> ((n-n0)/n) S.  With the defaults a_omega = T - 1
    and n0 = 1 this reduces exactly to :func:`bf01`.
    """
    t = int(t)
    if t < 1:
        raise ValueError(f"component dimension must be positive, got {t}")
    n = s.n
    n0 = cfg.n0
    if n <= n0:
        raise ValueError(f"need n > n0, got n = {n}, n0 = {n0}")
    a_omega = cfg.resolve_a_omega(t)
    scatter = s.scatter()
    a_sub = a_omega + n0
    n_sub = n - n0
    u_sub = (n0 / n) * scatter
    s_sub = ((n - n0) / n) * scatter
    log_bf = (
        _log_marginal_from_scatter(s_sub[:1, :1], n_sub, u_sub[:1, :1], a_sub, t)
        + _log_marginal_from_scatter(s_sub[1:, 1:], n_sub, u_sub[1:, 1:], a_sub, t)
        - _log_marginal_from_scatter(s_sub, n_sub, u_sub, a_sub, t)
    )
    return math.exp(log_bf)
