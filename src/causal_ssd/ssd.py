"""Evidence probabilities, optimal sample sizes, and intervention plans.

For an edge u - v with u manipulated, evidence at sample size n is decisive
for H0 when BF >= k0, decisive for H1 when BF <= 1/k1, inconclusive in
between, and misleading when decisive for the false hypothesis.  The overall
probability of decisive-and-correct evidence mixes the conditional
probabilities with the class-count orientation prior; the optimal n is the
first point of the sample-size grid where it reaches the target zeta.

H0-side probabilities are exact (closed-form bands); H1-side ones are Monte
Carlo with per-n substreams, so for a fixed master seed the whole curve, and
therefore the returned optimal n, is reproducible bit for bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from causal_ssd.design import (
    EdgeHypothesisPrior,
    InterventionSequence,
    optimal_sequences,
    prior_h0,
)
from causal_ssd.graph import (
    CapacityError,
    ENUMERATION_CAP,
    NotDecomposableError,
    PartiallyDirectedGraph,
    UndirectedGraph,
    chain_components,
    enumerate_class,  # noqa: F401  (no caller; bench/tracing.py wraps ssd.enumerate_class)
)
from causal_ssd.numerics import RandomStream
from causal_ssd.predictive import (
    BfPredictiveSample,
    DesignPosterior,
    InsufficientDataError,
    InterventionDensity,
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


def h0_band_probabilities(thresholds: DceThresholds, n: int) -> tuple[float, float, float]:
    """Exact (decisive, inconclusive, misleading) probabilities under H0."""
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


def _binomial_se(p: float, draws: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / draws)


def combine_dce(
    thresholds: DceThresholds,
    n: int,
    prior: EdgeHypothesisPrior,
    h1_sample: BfPredictiveSample,
) -> DceProbabilities:
    """Assemble the evidence probabilities from an existing H1 sample."""
    return _assemble_dce(h0_band_probabilities(thresholds, n), thresholds, prior, h1_sample)


def _assemble_dce(
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
    se_dc = _binomial_se(p1_dc, draws)
    mc_se = {
        "p1_dc": se_dc,
        "p1_inc": _binomial_se(p1_inc, draws),
        "p1_mis": _binomial_se(p1_mis, draws),
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


def dce_probabilities(
    u: str,
    v: str,
    thresholds: DceThresholds,
    n: int,
    prior: EdgeHypothesisPrior,
    posterior: DesignPosterior,
    f_u: InterventionDensity,
    draws: int = DEFAULT_DRAWS,
    stream: RandomStream = RandomStream(0),
) -> DceProbabilities:
    """Evidence probabilities for manipulating u and testing the edge u - v."""
    sample = sample_bf_h1(posterior, u, v, f_u, n, draws, stream)
    return combine_dce(thresholds, n, prior, sample)


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

    The grid is scanned in increasing order with per-n substreams, so the
    result is the first crossing of the reproducible per-seed curve.  Monte
    Carlo draws are skipped at grid points where even a perfect H1 side
    could not reach zeta (the exact H0 side caps the mixture); this cannot
    change the crossing because the skipped points cannot qualify.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    for n in range(2, n_max + 1):
        h0_bands = h0_band_probabilities(thresholds, n)
        if prior.p_h0 * h0_bands[0] + prior.p_h1 < thresholds.zeta:
            continue
        dce = _assemble_dce(
            h0_bands,
            thresholds,
            prior,
            sample_bf_h1(posterior, u, v, f_u, n, draws, stream.child(n)),
        )
        if dce.overall_dc >= thresholds.zeta:
            return EdgeSsdResult(
                edge=(u, v), p_h0=prior.p_h0, n_star=n, dce_at_n_star=dce, n_max=n_max
            )
    return EdgeSsdResult(edge=(u, v), p_h0=prior.p_h0, n_star=None, dce_at_n_star=None, n_max=n_max)


def optimal_n_node(u: str, neighbor_results: Iterable[EdgeSsdResult]) -> int | None:
    """Sample size for an intervention on u: the maximum over its edges.

    None (not achievable) as soon as any incident edge is not achievable.
    """
    results = list(neighbor_results)
    if not results:
        raise ValueError(f"node {u!r} has no neighbor results")
    sizes = [r.n_star for r in results]
    if any(s is None for s in sizes):
        return None
    return max(sizes)


@dataclass
class InterventionPlan:
    """Per-edge and per-node optimal sizes for one candidate sequence."""

    component: tuple[str, ...]
    sequence: InterventionSequence
    edge_results: dict[str, tuple[EdgeSsdResult, ...]]
    node_sizes: dict[str, int | None]
    total_n: int | None
    bos: bool = False

    @property
    def achieved(self) -> bool:
        return self.total_n is not None

    def to_dict(self) -> dict:
        return {
            "sequence": list(self.sequence.targets),
            "targets": {
                u: {
                    "edges": [r.to_dict() for r in self.edge_results[u]],
                    "n_star_node": self.node_sizes[u],
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


def _assemble_plan(
    component: tuple[str, ...],
    sequence: InterventionSequence,
    edge_results: dict[str, tuple[EdgeSsdResult, ...]],
) -> InterventionPlan:
    """Plan of one sequence from the edge results of each of its targets."""
    node_sizes = {
        u: (optimal_n_node(u, edge_results[u]) if edge_results[u] else 0)
        for u in sequence.targets
    }
    sizes = [node_sizes[u] for u in sequence.targets]
    total = None if any(s is None for s in sizes) else int(sum(sizes))
    return InterventionPlan(
        component=component,
        sequence=sequence,
        edge_results=edge_results,
        node_sizes=node_sizes,
        total_n=total,
    )


def plan_sequence(
    component: UndirectedGraph,
    sequence: InterventionSequence,
    thresholds: DceThresholds,
    posterior: DesignPosterior,
    f_u: InterventionDensity,
    n_max: int = DEFAULT_N_MAX,
    draws: int = DEFAULT_DRAWS,
    stream: RandomStream = RandomStream(0),
    edge_cache: dict | None = None,
) -> InterventionPlan:
    """Per-target optimal sizes for one sequence of manipulated variables.

    For each target u the full neighbor set of u in the component graph is
    used (batch semantics: neighbor sets are not reduced by orientations
    implied by earlier targets).  ``edge_cache`` may be shared across the
    candidate sequences of one component so a (target, neighbor) pair is
    evaluated once.
    """
    targets = sequence.targets
    missing = set(targets) - set(component.nodes)
    if missing:
        raise ValueError(f"targets not in component: {sorted(missing)}")
    if edge_cache is None:
        edge_cache = {}
    index = {node: i for i, node in enumerate(component.nodes)}

    edge_results: dict[str, tuple[EdgeSsdResult, ...]] = {}
    for u in targets:
        for v in component.neighbors(u):
            if (u, v) not in edge_cache:
                edge_cache[(u, v)] = optimal_n_edge(
                    u,
                    v,
                    thresholds,
                    prior_h0(component, u, v),
                    posterior,
                    f_u,
                    n_max=n_max,
                    draws=draws,
                    stream=stream.child(index[u], index[v]),
                )
        edge_results[u] = tuple(edge_cache[(u, v)] for v in component.neighbors(u))
    return _assemble_plan(component.nodes, sequence, edge_results)


@dataclass(frozen=True)
class _EdgeTask:
    component_index: int
    u: str
    v: str
    prior: EdgeHypothesisPrior
    thresholds: DceThresholds
    posterior: DesignPosterior
    f_u: InterventionDensity
    n_max: int
    draws: int
    stream: RandomStream


def _evaluate_edge_task(task: _EdgeTask) -> EdgeSsdResult:
    return optimal_n_edge(
        task.u,
        task.v,
        task.thresholds,
        task.prior,
        task.posterior,
        task.f_u,
        n_max=task.n_max,
        draws=task.draws,
        stream=task.stream,
    )


def mark_best_sequence(plans: list[InterventionPlan]) -> InterventionPlan | None:
    """Flag the achieved plan with the smallest total size (ties: lexicographic)."""
    feasible = [p for p in plans if p.achieved]
    if not feasible:
        return None
    best = min(feasible, key=lambda p: (p.total_n, p.sequence.canonical().targets))
    best.bos = True
    return best


def plan_cpdag(
    cpdag: PartiallyDirectedGraph,
    data,
    thresholds: DceThresholds,
    f_u: InterventionDensity = InterventionDensity(),
    stream: RandomStream = RandomStream(0),
    a_omega: float | None = None,
    n_max: int = DEFAULT_N_MAX,
    draws: int = DEFAULT_DRAWS,
    cap: int = ENUMERATION_CAP,
    workers: int = 1,
) -> list[ComponentPlans]:
    """Plans for every multi-node chain component of a CPDAG.

    Singleton components have no edges to orient and are skipped.  Each
    remaining component gets its design posterior from the observational
    columns matching its node labels (``a_omega`` defaults to T - 1 per
    component), all optimal sequences, one plan per sequence, and a flag on
    the best-size optimal sequence.  Failures (missing data columns, a
    component above ``cap`` nodes, a non-chordal component, an improper
    posterior) are reported per component without aborting the others.

    ``workers`` > 1 evaluates edges in parallel processes; results are
    independent of the worker count because every edge owns a fixed
    substream.
    """
    from causal_ssd.harness import DatasetMatrix  # local import to avoid a cycle

    if not isinstance(data, DatasetMatrix):
        raise TypeError("data must be a DatasetMatrix")
    decomposition = chain_components(cpdag)

    prepared = []  # ComponentPlans for failures, else (ci, comp, sub, sequences)
    tasks: list[_EdgeTask] = []
    for ci, (comp, sub) in enumerate(zip(decomposition.components, decomposition.subgraphs)):
        if len(comp) < 2:
            continue
        try:
            missing = sorted(set(comp) - set(data.labels))
            if missing:
                raise InsufficientDataError(
                    f"data has no columns for component nodes: {missing}"
                )
            restricted = data.restrict(comp)
            a_comp = float(len(comp) - 1) if a_omega is None else float(a_omega)
            posterior = build_design_posterior_from(restricted, a_comp)
            sequences = optimal_sequences(sub, cap=cap)
        except (CapacityError, NotDecomposableError, InsufficientDataError) as exc:
            prepared.append(ComponentPlans(component=comp, plans=[], error=str(exc)))
            continue
        index = {node: i for i, node in enumerate(sub.nodes)}
        seen: set[tuple[str, str]] = set()
        for seq in sequences:
            for u in seq.targets:
                for v in sub.neighbors(u):
                    if (u, v) in seen:
                        continue
                    seen.add((u, v))
                    tasks.append(
                        _EdgeTask(
                            component_index=ci,
                            u=u,
                            v=v,
                            prior=prior_h0(sub, u, v, cap),
                            thresholds=thresholds,
                            posterior=posterior,
                            f_u=f_u,
                            n_max=n_max,
                            draws=draws,
                            stream=stream.child(ci, index[u], index[v]),
                        )
                    )
        prepared.append((ci, comp, sub, sequences))

    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            evaluated = list(pool.map(_evaluate_edge_task, tasks))
    else:
        evaluated = [_evaluate_edge_task(t) for t in tasks]
    cache: dict[tuple[int, str, str], EdgeSsdResult] = {
        (t.component_index, t.u, t.v): r for t, r in zip(tasks, evaluated)
    }

    out: list[ComponentPlans] = []
    for entry in prepared:
        if isinstance(entry, ComponentPlans):
            out.append(entry)
            continue
        ci, comp, sub, sequences = entry
        plans = [
            _assemble_plan(
                comp,
                seq,
                {u: tuple(cache[(ci, u, v)] for v in sub.neighbors(u)) for u in seq.targets},
            )
            for seq in sequences
        ]
        mark_best_sequence(plans)
        out.append(ComponentPlans(component=comp, plans=plans))
    return out


def build_design_posterior_from(dataset, a_omega: float) -> DesignPosterior:
    """Design posterior from a DatasetMatrix (labels preserved)."""
    from causal_ssd.predictive import build_design_posterior

    return build_design_posterior(dataset.values, a_omega, labels=dataset.labels)
