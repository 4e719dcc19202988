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
UAI 2005).  ``is_sufficient`` in ``tests/helpers.py`` keeps the definition
itself, closure under the orientation rules against every class member, as
the oracle for that search.

The orientation prior of an edge is a ratio of two class counts, and
``orientation_counts`` finds both without building the class (He, Jia & Yu,
JMLR 2015):

* every member of the class of a connected chordal component has exactly one
  source, so the class splits by its root r;
* the members rooted at r are described by the closure of r -> N(r) under
  the orientation rules; its undirected parts are connected chordal
  components, oriented independently, so their number is the product of the
  class sizes of those parts;
* an arrow a -> b belongs to every member rooted at r if the closure directs
  it so, to none if it directs it the other way, and otherwise to the
  members of the part holding a - b that contain it, times the sizes of the
  other parts.

The recursion is memoized on the node sets of the parts, which are induced
subgraphs of the component, so it scans at most 2^nodes of them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from causal_ssd.graph import (
    CapacityError,
    ENUMERATION_CAP,
    NotDecomposableError,
    PartiallyDirectedGraph,
    UndirectedGraph,
    chain_components,
    enumerate_class,  # noqa: F401  (no caller; bench/tracing.py wraps design.enumerate_class)
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


def optimal_sequences(g: UndirectedGraph) -> list[InterventionSequence]:
    """All minimum-size sufficient sequences, canonicalized and sorted.

    A target set is sufficient exactly when it is a vertex cover of the
    chordal component (see the module docstring for the proof), so these
    are the minimum vertex covers.  Subsets are searched by increasing
    cardinality and the search stops at the first cardinality containing a
    cover.  A component without edges needs no intervention: the result is
    the singleton empty sequence.  Components above ``ENUMERATION_CAP`` nodes
    raise ``CapacityError`` and non-chordal ones ``NotDecomposableError``.
    """
    if g.num_edges() == 0:
        return [InterventionSequence(())]
    if g.num_nodes() > ENUMERATION_CAP:
        raise CapacityError(
            f"component has {g.num_nodes()} nodes, the vertex-cover search over its "
            f"2^nodes subsets is capped at {ENUMERATION_CAP}"
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


_Counts = tuple[int, dict[tuple[str, str], int]]


def _product_counts(parts: list[_Counts]) -> _Counts:
    """Counts for independently oriented disjoint parts."""
    size = math.prod(part_size for part_size, _ in parts)
    arrows: dict[tuple[str, str], int] = {}
    for part_size, part_arrows in parts:
        others = size // part_size
        for edge, count in part_arrows.items():
            arrows[edge] = others * count
    return size, arrows


@functools.lru_cache(maxsize=16)
def orientation_counts(g: UndirectedGraph) -> tuple[int, Mapping[tuple[str, str], int]]:
    """Class size of ``g`` and, per ordered edge (a, b), the members with a -> b.

    Counts are exact integers from the rooted recursion of the module
    docstring; no class member is built.  The result is cached per graph,
    because ``prior_h0`` asks for it once per edge.  Components above
    ``ENUMERATION_CAP`` nodes raise ``CapacityError`` and non-chordal ones
    ``NotDecomposableError``.
    """
    if g.num_nodes() > ENUMERATION_CAP:
        raise CapacityError(
            f"component has {g.num_nodes()} nodes, the class count over its "
            f"2^nodes induced subgraphs is capped at {ENUMERATION_CAP}"
        )
    if not is_decomposable(g):
        raise NotDecomposableError("graph is not decomposable")
    memo: dict[frozenset[str], _Counts] = {}

    def count(nodes: frozenset[str]) -> _Counts:
        """Counts for the connected chordal subgraph induced by ``nodes``."""
        if len(nodes) == 1:
            return 1, {}
        if nodes in memo:
            return memo[nodes]
        edges = [(a, b) for a, b in g.edges() if a in nodes and b in nodes]
        size = 0
        arrows: dict[tuple[str, str], int] = {}
        for root in sorted(nodes):
            closed = meek_closure(
                PartiallyDirectedGraph(
                    nodes,
                    directed=[(root, w) for w in g.neighbors(root) if w in nodes],
                    undirected=[e for e in edges if root not in e],
                )
            )
            parts = chain_components(closed).components
            rooted_size, rooted_arrows = _product_counts([count(frozenset(p)) for p in parts])
            for edge in closed.directed_edges():
                rooted_arrows[edge] = rooted_size
            size += rooted_size
            for edge, n in rooted_arrows.items():
                arrows[edge] = arrows.get(edge, 0) + n
        memo[nodes] = size, arrows
        return memo[nodes]

    parts = chain_components(PartiallyDirectedGraph.from_undirected(g)).components
    size, arrows = _product_counts([count(frozenset(p)) for p in parts])
    return size, MappingProxyType(arrows)


def prior_h0(g: UndirectedGraph, u: str, v: str) -> EdgeHypothesisPrior:
    """Class-count orientation prior for the undirected edge u - v.

    ``p_h0`` is the fraction of perfect directed versions of ``g`` containing
    u <- v: the exact integer ratio of ``orientation_counts``, so it equals
    the count over an enumerated class to the last bit.
    """
    u, v = str(u), str(v)
    if not g.has_edge(u, v):
        raise ValueError(f"{u}-{v} is not an undirected edge of the component")
    size, arrows = orientation_counts(g)
    p0 = arrows.get((v, u), 0) / size
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
