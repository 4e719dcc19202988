"""Evidence probabilities, optimal sample sizes, and intervention plans.

For an edge u - v with u manipulated, evidence at sample size n is decisive
for H0 when BF >= k0, decisive for H1 when BF <= 1/k1, inconclusive in
between, and misleading when decisive for the false hypothesis.  The overall
probability of decisive-and-correct evidence mixes the conditional
probabilities with the class-count orientation prior; the optimal n is the
first point of the sample-size grid where it reaches the target zeta.

H0-side probabilities are exact (closed-form bands); H1-side ones are Monte
Carlo from one substream per edge (the n-free variates) and one per (edge,
n), so for a fixed master seed the whole curve, and therefore the returned
optimal n, is reproducible bit for bit.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from causal_ssd.design import (
    EdgeHypothesisPrior,
    InterventionSequence,
    best_size_optimal_sequence,
    optimal_sequences,
    prior_h0,
)
from causal_ssd.graph import (
    CapacityError,
    NotDecomposableError,
    PartiallyDirectedGraph,
    chain_components,
    enumerate_class,  # noqa: F401  (no caller; bench/tracing.py wraps ssd.enumerate_class)
)
from causal_ssd.numerics import RandomStream
from causal_ssd.predictive import (
    BfPredictiveSample,
    DesignPosterior,
    InsufficientDataError,
    InterventionDensity,
    build_design_posterior,
    draw_h1_edge,
    prob_bf_band_h0,
    sample_bf_h1,
)

DEFAULT_N_MAX = 1000
DEFAULT_DRAWS = 10_000


@dataclass(frozen=True)
class DceThresholds:
    """Bayes-factor thresholds and target probability of decisive correct evidence."""

    k0: float = 6.0
    k1: float = 6.0
    zeta: float = 0.8

    def __post_init__(self) -> None:
        if not (math.isfinite(self.k0) and self.k0 > 1.0):
            raise ValueError(f"k0 must exceed 1, got {self.k0!r}")
        if not (math.isfinite(self.k1) and self.k1 > 1.0):
            raise ValueError(f"k1 must exceed 1, got {self.k1!r}")
        if not (0.0 < self.zeta < 1.0):
            raise ValueError(f"zeta must lie in (0, 1), got {self.zeta!r}")
        # k0 > 1 > 1/k1 already guarantees a nonempty inconclusive band


@dataclass(frozen=True)
class DceProbabilities:
    """Decisive / inconclusive / misleading probabilities under both hypotheses.

    The H0 triple is exact and sums to one by construction; the H1 triple is
    Monte Carlo with binomial standard errors in ``mc_se``.  ``overall_dc``
    is the prior-weighted mixture of the two decisive-and-correct entries.
    """

    p0_dc: float
    p0_inc: float
    p0_mis: float
    p1_dc: float
    p1_inc: float
    p1_mis: float
    overall_dc: float
    mc_se: dict = field(compare=False)

    def to_dict(self) -> dict:
        return {
            "p0_dc": self.p0_dc,
            "p0_inc": self.p0_inc,
            "p0_mis": self.p0_mis,
            "p1_dc": self.p1_dc,
            "p1_inc": self.p1_inc,
            "p1_mis": self.p1_mis,
            "overall_dc": self.overall_dc,
            "mc_se": dict(self.mc_se),
        }


@functools.lru_cache(maxsize=4096)
def h0_band_probabilities(thresholds: DceThresholds, n: int) -> tuple[float, float, float]:
    """Exact (decisive, inconclusive, misleading) probabilities under H0.

    They depend on the thresholds and n alone, so the result is cached:
    every edge of a plan scans the same n and reuses the bands.  The bound
    keeps a huge ``n_max`` from growing the cache without limit.
    """
    p0_dc = prob_bf_band_h0(thresholds.k0, math.inf, n)
    p0_mis = prob_bf_band_h0(0.0, 1.0 / thresholds.k1, n)
    p0_inc = 1.0 - p0_dc - p0_mis
    return p0_dc, p0_inc, p0_mis


def h1_band_probabilities(
    sample: BfPredictiveSample, thresholds: DceThresholds
) -> tuple[float, float, float]:
    """Empirical (decisive, inconclusive, misleading) probabilities under H1."""
    draws = sample.draws
    p1_dc = float(np.count_nonzero(draws <= 1.0 / thresholds.k1) / draws.size)
    p1_mis = float(np.count_nonzero(draws >= thresholds.k0) / draws.size)
    p1_inc = 1.0 - p1_dc - p1_mis
    return p1_dc, p1_inc, p1_mis


def binomial_se(p: float, draws: int) -> float:
    """Standard error of a proportion ``p`` estimated from ``draws`` draws."""
    return math.sqrt(max(p * (1.0 - p), 0.0) / draws)


def assemble_dce(
    h0_bands: tuple[float, float, float],
    thresholds: DceThresholds,
    prior: EdgeHypothesisPrior,
    h1_sample: BfPredictiveSample,
) -> DceProbabilities:
    """Mix the exact H0 triple with the H1 triple of ``h1_sample``."""
    p0_dc, p0_inc, p0_mis = h0_bands
    p1_dc, p1_inc, p1_mis = h1_band_probabilities(h1_sample, thresholds)
    draws = h1_sample.count
    overall = prior.p_h0 * p0_dc + prior.p_h1 * p1_dc
    se_dc = binomial_se(p1_dc, draws)
    mc_se = {
        "p1_dc": se_dc,
        "p1_inc": binomial_se(p1_inc, draws),
        "p1_mis": binomial_se(p1_mis, draws),
        "overall_dc": prior.p_h1 * se_dc,
    }
    return DceProbabilities(
        p0_dc=p0_dc,
        p0_inc=p0_inc,
        p0_mis=p0_mis,
        p1_dc=p1_dc,
        p1_inc=p1_inc,
        p1_mis=p1_mis,
        overall_dc=overall,
        mc_se=mc_se,
    )


@dataclass(frozen=True)
class EdgeSsdResult:
    """Optimal sample size for one (target, neighbor) pair.

    ``n_star`` is None when no n on the grid {2, ..., n_max} reaches the
    target probability (not achievable is a value, not an error).
    """

    edge: tuple[str, str]
    p_h0: float
    n_star: int | None
    dce_at_n_star: DceProbabilities | None
    n_max: int

    @property
    def achieved(self) -> bool:
        return self.n_star is not None

    def to_dict(self) -> dict:
        return {
            "u": self.edge[0],
            "v": self.edge[1],
            "p_h0": self.p_h0,
            "n_star": self.n_star,
            "achieved": self.achieved,
            "n_max": self.n_max,
            "dce_at_n_star": None if self.dce_at_n_star is None else self.dce_at_n_star.to_dict(),
            "se_overall": None
            if self.dce_at_n_star is None
            else self.dce_at_n_star.mc_se["overall_dc"],
        }


def optimal_n_edge(
    u: str,
    v: str,
    thresholds: DceThresholds,
    prior: EdgeHypothesisPrior,
    posterior: DesignPosterior,
    f_u: InterventionDensity,
    n_max: int = DEFAULT_N_MAX,
    draws: int = DEFAULT_DRAWS,
    stream: RandomStream = RandomStream(0),
) -> EdgeSsdResult:
    """Smallest n on {2, ..., n_max} whose overall DCE probability reaches zeta.

    The grid is scanned in increasing order, every n from the edge's one
    draw of n-free variates and its own substream, so the result is the
    first crossing of the reproducible per-seed curve.  Monte Carlo draws
    are skipped at grid points where even a perfect H1 side could not reach
    zeta (the exact H0 side caps the mixture); this cannot change the
    crossing because the skipped points cannot qualify.  The edge draw is
    made at the first point the bound lets through, in the process that
    runs the scan.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    h1 = None
    for n in range(2, n_max + 1):
        h0_bands = h0_band_probabilities(thresholds, n)
        if prior.p_h0 * h0_bands[0] + prior.p_h1 < thresholds.zeta:
            continue
        if h1 is None:
            h1 = draw_h1_edge(posterior, u, v, f_u, draws, stream)
        dce = assemble_dce(h0_bands, thresholds, prior, sample_bf_h1(h1, n))
        if dce.overall_dc >= thresholds.zeta:
            return EdgeSsdResult(
                edge=(u, v), p_h0=prior.p_h0, n_star=n, dce_at_n_star=dce, n_max=n_max
            )
    return EdgeSsdResult(edge=(u, v), p_h0=prior.p_h0, n_star=None, dce_at_n_star=None, n_max=n_max)


@dataclass
class InterventionPlan:
    """One candidate sequence and the edge results of each of its targets.

    The sizes are derived from ``edge_results``: a target's size is the
    largest n* of its edges, and ``total_n`` is the sum over the targets.
    Either is None (not achievable) as soon as one n* it depends on is None.
    """

    sequence: InterventionSequence
    edge_results: dict[str, tuple[EdgeSsdResult, ...]]
    bos: bool = False

    @property
    def node_sizes(self) -> dict[str, int | None]:
        sizes = {}
        for u in self.sequence.targets:
            stars = [r.n_star for r in self.edge_results[u]]
            sizes[u] = None if None in stars else max(stars)
        return sizes

    @property
    def total_n(self) -> int | None:
        sizes = self.node_sizes.values()
        return None if None in sizes else sum(sizes)

    @property
    def achieved(self) -> bool:
        return self.total_n is not None

    def to_dict(self) -> dict:
        sizes = self.node_sizes
        return {
            "sequence": list(self.sequence.targets),
            "targets": {
                u: {
                    "edges": [r.to_dict() for r in self.edge_results[u]],
                    "n_star_node": sizes[u],
                }
                for u in self.sequence.targets
            },
            "total_n": self.total_n,
            "achieved": self.achieved,
            "bos": self.bos,
        }


@dataclass
class ComponentPlans:
    """Plans (or a setup-failure report) for one multi-node chain component."""

    component: tuple[str, ...]
    plans: list[InterventionPlan]
    error: str | None = None

    @property
    def feasible(self) -> bool:
        """True when some candidate sequence achieved every target size."""
        return self.error is None and any(p.achieved for p in self.plans)

    def to_dict(self) -> dict:
        return {
            "component": list(self.component),
            "plans": [p.to_dict() for p in self.plans],
            "feasible": self.feasible,
            "error": self.error,
        }


def component_posterior(
    data, component: tuple[str, ...], a_omega: float | None = None
) -> DesignPosterior:
    """Design posterior of one chain component from its nodes' data columns.

    ``a_omega`` defaults to T - 1 for a component of T nodes.  ``data`` is a
    ``DatasetMatrix``; a missing column raises its ``MissingColumnsError``.
    """
    restricted = data.restrict(component)
    a_comp = float(len(component) - 1) if a_omega is None else float(a_omega)
    return build_design_posterior(restricted.values, a_comp, labels=restricted.labels)


def edge_stream(
    stream: RandomStream, component_index: int, component: tuple[str, ...], u: str, v: str
) -> RandomStream:
    """The fixed substream of the edge u - v of the chain component at ``component_index``."""
    return stream.child(component_index, component.index(u), component.index(v))


def plan_cpdag(
    cpdag: PartiallyDirectedGraph,
    data,
    thresholds: DceThresholds,
    f_u: InterventionDensity = InterventionDensity(),
    stream: RandomStream = RandomStream(0),
    a_omega: float | None = None,
    n_max: int = DEFAULT_N_MAX,
    draws: int = DEFAULT_DRAWS,
    workers: int = 1,
) -> list[ComponentPlans]:
    """Plans for every multi-node chain component of a CPDAG.

    The result holds one ``ComponentPlans`` per component of two or more
    nodes, in the order of ``chain_components``; singleton components have
    no edges to orient and are skipped.  Each component gets its design
    posterior from the observational columns matching its node labels
    (``a_omega`` defaults to T - 1 per component) and all optimal sequences.
    Once every edge task has run, it gets one plan per sequence, and the
    best-size optimal sequence is flagged ``bos`` if any sequence is
    achieved.  Failures (missing data columns, a component above
    ``ENUMERATION_CAP`` nodes, a non-chordal component, an improper
    posterior) are reported per component without aborting the others.

    ``workers`` > 1 evaluates edges in parallel processes, at most one per
    edge task and per CPU; results are independent of the worker count
    because every edge owns a fixed substream (``edge_stream``).
    """
    from causal_ssd.harness import DatasetMatrix  # local import to avoid a cycle

    if not isinstance(data, DatasetMatrix):
        raise TypeError("data must be a DatasetMatrix")
    out: list[ComponentPlans] = []
    searched = []  # (entry of out, index, subgraph, sequences) of the error-free components
    tasks: dict[tuple[int, str, str], tuple] = {}  # optimal_n_edge arguments per edge
    for ci, sub in enumerate(chain_components(cpdag)):
        comp = sub.nodes
        if len(comp) < 2:
            continue
        entry = ComponentPlans(component=comp, plans=[])
        out.append(entry)
        try:
            missing = sorted(set(comp) - set(data.labels))
            if missing:
                raise InsufficientDataError(
                    f"data has no columns for component nodes: {missing}"
                )
            posterior = component_posterior(data, comp, a_omega)
            sequences = optimal_sequences(sub)
        except (CapacityError, NotDecomposableError, InsufficientDataError) as exc:
            entry.error = str(exc)
            continue
        for seq in sequences:
            for u in seq.targets:
                for v in sub.neighbors(u):
                    if (ci, u, v) not in tasks:
                        tasks[(ci, u, v)] = (
                            u, v, thresholds, prior_h0(sub, u, v), posterior, f_u,
                            n_max, draws, edge_stream(stream, ci, comp, u, v),
                        )
        searched.append((entry, ci, sub, sequences))

    # optimal_n_edge is looked up at call time, so a wrapper bound to the
    # module attribute also sees the calls made in pool workers
    if workers > 1 and len(tasks) > 1:
        # a fork pool starts every worker at the first submit
        pool_size = min(workers, len(tasks), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            evaluated = list(pool.map(optimal_n_edge, *zip(*tasks.values())))
    else:
        evaluated = [optimal_n_edge(*args) for args in tasks.values()]
    results = dict(zip(tasks, evaluated))

    for entry, ci, sub, sequences in searched:
        entry.plans = [
            InterventionPlan(
                seq,
                {u: tuple(results[(ci, u, v)] for v in sub.neighbors(u)) for u in seq.targets},
            )
            for seq in sequences
        ]
        best = best_size_optimal_sequence(
            [(p.sequence, list(p.node_sizes.values())) for p in entry.plans]
        )
        if best is not None:
            entry.plans[sequences.index(best)].bos = True
    return out
