"""Intervention-target selection within one chain component.

Sufficiency and optimality of manipulation sequences, class-count edge
orientation priors, and selection of the best-size optimal sequence.
Sufficiency here is graph-theoretic: every orientation test at an intervened
node is assumed to return the truth; statistical error is handled separately
by the sample-size machinery.

For single-vertex batch interventions on a chordal component, a target set
is sufficient exactly when it is a vertex cover of the component:

* suppose an edge u - v has no target at either end;
* two class members start their perfect orderings with u, v and with v, u,
  and agree everywhere else;
* every intervened variable sees the same orientations in both, so the
  orientation rules cannot orient u - v;
* if every edge touches a target, every edge is oriented directly.

So the optimal sequences are the minimum vertex covers, and
``optimal_sequences`` searches for those without enumerating the class (He &
Geng, JMLR 2008; Hauser & Buhlmann, IJAR 2014; Eberhardt, Glymour & Scheines,
UAI 2005).  ``is_sufficient`` keeps the definition itself, closure under the
orientation rules against every class member, as the oracle for that search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from causal_ssd.graph import (
    CapacityError,
    Dag,
    ENUMERATION_CAP,
    NotDecomposableError,
    PartiallyDirectedGraph,
    UndirectedGraph,
    enumerate_class,
    is_decomposable,
    meek_closure,
)


class NoFeasibleSequenceError(ValueError):
    """Every candidate sequence has an unachievable target sample size."""


@dataclass(frozen=True)
class InterventionSequence:
    """Ordered distinct intervention targets within one chain component.

    Order does not affect identifiability (targets act as a batch); sequences
    are reported in sorted order.
    """

    targets: tuple[str, ...]

    def __post_init__(self) -> None:
        targets = tuple(str(t) for t in self.targets)
        if len(set(targets)) != len(targets):
            raise ValueError(f"targets must be distinct, got {targets!r}")
        object.__setattr__(self, "targets", targets)

    def canonical(self) -> "InterventionSequence":
        return InterventionSequence(tuple(sorted(self.targets)))

    def __len__(self) -> int:
        return len(self.targets)

    def __iter__(self):
        return iter(self.targets)


@dataclass(frozen=True)
class EdgeHypothesisPrior:
    """Orientation prior for one undirected edge, in target/neighbor roles.

    ``p_h0`` is the probability of u <- v (post-intervention independence when
    u is manipulated); ``p_h1`` of u -> v.  Probabilities have denominator
    equal to the class size: every class member orients the edge one way.
    """

    u: str
    v: str
    p_h0: float
    p_h1: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_h0 <= 1.0 and 0.0 <= self.p_h1 <= 1.0):
            raise ValueError("prior probabilities must lie in [0, 1]")
        if abs(self.p_h0 + self.p_h1 - 1.0) > 1e-12:
            raise ValueError("p_h0 + p_h1 must equal 1")


def _oriented_pattern(
    g: UndirectedGraph, targets: set[str], member: Dag
) -> PartiallyDirectedGraph:
    """Pattern with every edge incident to a target oriented as in ``member``."""
    directed, undirected = [], []
    for u, v in g.edges():
        if u in targets or v in targets:
            directed.append((u, v) if member.has_edge(u, v) else (v, u))
        else:
            undirected.append((u, v))
    return PartiallyDirectedGraph(g.nodes, directed=directed, undirected=undirected)


def _sufficient_for_class(g: UndirectedGraph, targets: set[str], dags: list[Dag]) -> bool:
    for member in dags:
        closed = meek_closure(_oriented_pattern(g, targets, member))
        if not closed.is_fully_directed():
            return False
        if closed.to_dag() != member:  # sound closure cannot disagree; guard anyway
            return False
    return True


def is_sufficient(
    g: UndirectedGraph, s: InterventionSequence, cap: int = ENUMERATION_CAP
) -> bool:
    """True iff manipulating the targets of ``s`` identifies every class member.

    For each perfect directed version of ``g``, orienting the edges incident
    to the targets accordingly and closing under the orientation rules must
    recover the full DAG.
    """
    targets = set(s.targets)
    missing = targets - set(g.nodes)
    if missing:
        raise ValueError(f"targets not in component: {sorted(missing)}")
    return _sufficient_for_class(g, targets, enumerate_class(g, cap=cap))


def optimal_sequences(
    g: UndirectedGraph, cap: int = ENUMERATION_CAP
) -> list[InterventionSequence]:
    """All minimum-size sufficient sequences, canonicalized and sorted.

    A target set is sufficient exactly when it is a vertex cover of the
    chordal component (see the module docstring for the proof), so these
    are the minimum vertex covers.  Subsets are searched by increasing
    cardinality and the search stops at the first cardinality containing a
    cover.  A component without edges needs no intervention: the result is
    the singleton empty sequence.  Components above ``cap`` nodes raise
    ``CapacityError`` and non-chordal ones ``NotDecomposableError``.
    """
    if g.num_edges() == 0:
        return [InterventionSequence(())]
    if g.num_nodes() > cap:
        raise CapacityError(
            f"component has {g.num_nodes()} nodes, the sequence search is capped at {cap}"
        )
    if not is_decomposable(g):
        raise NotDecomposableError("graph is not decomposable")
    edges = g.edges()
    nodes = g.nodes
    for size in range(1, len(nodes) + 1):
        found = [
            InterventionSequence(combo)
            for combo in itertools.combinations(nodes, size)
            if all(u in combo or v in combo for u, v in edges)
        ]
        if found:
            return sorted(found, key=lambda s: s.targets)
    raise AssertionError("unreachable: manipulating all nodes is always sufficient")


def prior_h0(
    g: UndirectedGraph,
    u: str,
    v: str,
    cap: int = ENUMERATION_CAP,
    dags: list[Dag] | None = None,
) -> EdgeHypothesisPrior:
    """Class-count orientation prior for the undirected edge u - v.

    ``p_h0`` is the fraction of perfect directed versions of ``g`` containing
    u <- v.  A precomputed class may be passed to avoid re-enumeration.
    """
    u, v = str(u), str(v)
    if not g.has_edge(u, v):
        raise ValueError(f"{u}-{v} is not an undirected edge of the component")
    if dags is None:
        dags = enumerate_class(g, cap=cap)
    n_h0 = sum(1 for d in dags if d.has_edge(v, u))
    p0 = n_h0 / len(dags)
    return EdgeHypothesisPrior(u=u, v=v, p_h0=p0, p_h1=1.0 - p0)


def best_size_optimal_sequence(
    candidates: list[tuple[InterventionSequence, list[int | None]]],
) -> InterventionSequence:
    """Candidate sequence minimizing the total sample size.

    Each candidate pairs a sequence with its per-target optimal sizes, where
    ``None`` marks an unachievable target; such candidates are excluded.
    Ties break toward the lexicographically smallest canonical sequence.
    """
    if not candidates:
        raise ValueError("no candidate sequences given")
    feasible = []
    for seq, sizes in candidates:
        if len(sizes) != len(seq.targets):
            raise ValueError(
                f"sequence {seq.targets!r} has {len(seq.targets)} targets "
                f"but {len(sizes)} sizes"
            )
        if any(s is None for s in sizes):
            continue
        feasible.append((sum(sizes), seq.canonical().targets, seq))
    if not feasible:
        raise NoFeasibleSequenceError("every candidate has an unachievable target size")
    feasible.sort(key=lambda item: (item[0], item[1]))
    return feasible[0][2]
