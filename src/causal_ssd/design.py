"""Intervention-target selection within one chain component.

Sufficiency and optimality of manipulation sequences, and class-count edge
orientation priors.  A component is a ``PartiallyDirectedGraph`` without
arrows, as ``chain_components`` returns it; a sequence is a sorted tuple of
target labels and a prior is the one number p(H0).  Sufficiency here is
graph-theoretic: every orientation test at an intervened node is assumed to
return the truth; statistical error is left to the sample-size machinery.

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
  the orientation rules, which rule 1 alone reaches (``_rooted``; the
  four-rule ``graph.meek_closure`` is its test oracle); its undirected parts
  are connected chordal components, oriented independently, so their number
  is the product of the class sizes of those parts;
* an arrow a -> b belongs to every member rooted at r if the closure directs
  it so, to none if it directs it the other way, and otherwise to the
  members of the part holding a - b that contain it, times the sizes of the
  other parts.

The recursion runs on node sets, builds no graph, and is memoized on the
node sets of the parts: induced subgraphs, so it scans at most 2^nodes.
"""

from __future__ import annotations

import functools
import itertools
import math
from types import MappingProxyType
from typing import Mapping

from causal_ssd.graph import (
    PartiallyDirectedGraph,
    check_subset_scan,
    connected_parts,
    enumerate_class,  # noqa: F401  (no caller; bench/tracing.py wraps design.enumerate_class)
    meek_closure,  # noqa: F401  (no caller; bench/tracing.py wraps design.meek_closure)
)
from causal_ssd.numerics import instance


def optimal_sequences(g: PartiallyDirectedGraph) -> list[tuple[str, ...]]:
    """All minimum-size sufficient target sets, as sorted tuples in lexicographic order.

    A target set is sufficient exactly when it is a vertex cover of the
    chordal component (see the module docstring for the proof), so these
    are the minimum vertex covers.  Subsets are searched by increasing
    cardinality and the search stops at the first cardinality containing a
    cover; combinations of the sorted nodes come out sorted and in
    lexicographic order.  Targets act as a batch, so their order does not
    affect identifiability.  A component without edges needs no
    intervention: the empty set covers it, and the result is ``[()]``.  A
    directed edge raises ``ValueError``, components above
    ``SUBSET_SCAN_CAP`` nodes ``CapacityError`` and non-chordal ones
    ``NotDecomposableError``, and a ``g`` that is not a
    ``PartiallyDirectedGraph`` ``TypeError`` (``numerics.instance``).
    """
    instance("g", g, PartiallyDirectedGraph)
    check_subset_scan(g, "the vertex-cover search over its 2^nodes subsets")
    edges = g.undirected_edges()
    nodes = g.nodes
    for size in range(len(nodes) + 1):
        found = [
            combo
            for combo in itertools.combinations(nodes, size)
            if all(u in combo or v in combo for u, v in edges)
        ]
        if found:
            return found
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


def _rooted(
    adj: Mapping[str, frozenset[str]], nodes: frozenset[str], root: str
) -> tuple[list[tuple[str, str]], dict[str, set[str]]]:
    """Arrows and undirected adjacency of root -> N(root) closed under rule 1 in ``nodes``.

    Each arrow a -> b orients b -> c for every undirected neighbour c of b
    not adjacent to a.  The adjacency covers the nodes other than the root.
    """
    rest = nodes - {root}
    und = {n: set(adj[n] & rest) for n in sorted(rest)}
    arrows = [(root, c) for c in sorted(adj[root] & rest)]
    for a, b in arrows:  # grows while it is walked
        for c in sorted(und[b] - adj[a]):
            und[b].discard(c)
            und[c].discard(b)
            arrows.append((b, c))
    return arrows, und


@functools.lru_cache(maxsize=16)
def orientation_counts(g: PartiallyDirectedGraph) -> tuple[int, Mapping[tuple[str, str], int]]:
    """Class size of ``g`` and, per ordered edge (a, b), the members with a -> b.

    Counts are exact integers from the rooted recursion of the module
    docstring; no class member is built.  The result is cached per graph,
    because ``prior_h0`` asks for it once per edge.  A graph with a directed
    edge raises ``ValueError``, components above ``SUBSET_SCAN_CAP`` nodes
    ``CapacityError`` and non-chordal ones ``NotDecomposableError``.
    """
    check_subset_scan(g, "the class count over its 2^nodes induced subgraphs")
    adj = {n: frozenset(g.undirected_neighbors(n)) for n in g.nodes}
    memo: dict[frozenset[str], _Counts] = {}

    def count(nodes: frozenset[str]) -> _Counts:
        """Counts for the connected chordal subgraph induced by ``nodes``."""
        if len(nodes) == 1:
            return 1, {}
        if nodes in memo:
            return memo[nodes]
        size = 0
        arrows: dict[tuple[str, str], int] = {}
        for root in sorted(nodes):
            directed, und = _rooted(adj, nodes, root)
            rooted_size, rooted_arrows = _product_counts([count(p) for p in connected_parts(und)])
            for edge in directed:
                rooted_arrows[edge] = rooted_size
            size += rooted_size
            for edge, n in rooted_arrows.items():
                arrows[edge] = arrows.get(edge, 0) + n
        memo[nodes] = size, arrows
        return memo[nodes]

    size, arrows = _product_counts([count(p) for p in connected_parts(adj)])
    return size, MappingProxyType(arrows)


def prior_h0(g: PartiallyDirectedGraph, u: str, v: str) -> float:
    """Class-count prior p(H0) of the undirected edge u - v, with u the target.

    p(H0) is the fraction of perfect directed versions of ``g`` containing
    u <- v, and p(H1) = 1 - p(H0) that of u -> v: every member orients the
    edge one way.  It is the exact integer ratio of ``orientation_counts``,
    so it equals the count over an enumerated class to the last bit.  A
    ``g`` that is not a ``PartiallyDirectedGraph`` raises ``TypeError``
    (``numerics.instance``).
    """
    instance("g", g, PartiallyDirectedGraph)
    u, v = str(u), str(v)
    if not g.has_undirected_edge(u, v):
        raise ValueError(f"{u}-{v} is not an undirected edge of the component")
    size, arrows = orientation_counts(g)
    return arrows.get((v, u), 0) / size
