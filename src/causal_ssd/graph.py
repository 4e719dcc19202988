"""Graph structures and algorithms for chain graphs and equivalence classes.

There is one graph type, ``PartiallyDirectedGraph``.  It holds a CPDAG or a
pattern; a chain component, which has undirected edges only; and an oriented
graph such as a class member, which has directed edges only.  Provides
the connected parts of an adjacency map, chain-component decomposition of
partially directed graphs, decomposability (chordality) testing, the
precondition of the 2^nodes subset scans, enumeration of the acyclic
v-structure-free orientations of a decomposable graph, orientation closure
under the four standard propagation rules, and the edge-list text format.

Node labels are strings; every structure stores them sorted, so iteration
order (and therefore file output) is deterministic.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping

SUBSET_SCAN_CAP = 12
"""Largest component size for the searches that may visit all 2^nodes node
subsets: the minimum-vertex-cover search and the class count.  A 12-node
clique takes about 0.9 s to count (2-core x86-64, Python 3.11); its class
holds 12! members, so the cap is no bound on building them, which only the
test oracle ``enumerate_class`` does."""


class InvalidChainGraphError(ValueError):
    """The partially directed graph contains a partially directed cycle."""


class NotDecomposableError(ValueError):
    """An operation requiring a decomposable (chordal) graph got a non-chordal one."""


class CapacityError(ValueError):
    """Component exceeds the node cap of the subset searches and the class count."""


class InconsistentOrientationError(ValueError):
    """Orientation rules force both directions of one edge (no consistent extension)."""


class GraphFormatError(ValueError):
    """Malformed edge-list text."""


def _as_label(x) -> str:
    s = str(x)
    if not s or any(c.isspace() for c in s):
        raise ValueError(f"node labels must be non-empty and whitespace-free, got {x!r}")
    return s


def _canonical_pair(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


class PartiallyDirectedGraph:
    """Immutable graph with disjoint directed and undirected edge sets."""

    def __init__(
        self,
        nodes: Iterable = (),
        directed: Iterable[tuple] = (),
        undirected: Iterable[tuple] = (),
    ):
        node_set = {_as_label(n) for n in nodes}
        dir_set: set[tuple[str, str]] = set()
        und_set: set[tuple[str, str]] = set()
        for a, b in directed:
            a, b = _as_label(a), _as_label(b)
            if a == b:
                raise ValueError(f"self-loop on {a!r}")
            node_set.update((a, b))
            dir_set.add((a, b))
        for a, b in undirected:
            a, b = _as_label(a), _as_label(b)
            if a == b:
                raise ValueError(f"self-loop on {a!r}")
            node_set.update((a, b))
            und_set.add(_canonical_pair(a, b))
        for a, b in dir_set:
            if (b, a) in dir_set:
                raise ValueError(f"both orientations of {a!r}-{b!r} present")
            if _canonical_pair(a, b) in und_set:
                raise ValueError(f"edge {a!r}-{b!r} is both directed and undirected")
        self._nodes: tuple[str, ...] = tuple(sorted(node_set))
        self._directed: frozenset[tuple[str, str]] = frozenset(dir_set)
        self._undirected: frozenset[tuple[str, str]] = frozenset(und_set)
        self._und_adj: dict[str, set[str]] = {n: set() for n in self._nodes}
        for a, b in und_set:
            self._und_adj[a].add(b)
            self._und_adj[b].add(a)

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    def directed_edges(self) -> list[tuple[str, str]]:
        return sorted(self._directed)

    def undirected_edges(self) -> list[tuple[str, str]]:
        return sorted(self._undirected)

    def has_undirected_edge(self, u, v) -> bool:
        return _canonical_pair(str(u), str(v)) in self._undirected

    def undirected_neighbors(self, u) -> tuple[str, ...]:
        return tuple(sorted(self._und_adj[str(u)]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartiallyDirectedGraph):
            return NotImplemented
        return (
            self._nodes == other._nodes
            and self._directed == other._directed
            and self._undirected == other._undirected
        )

    def __hash__(self) -> int:
        return hash((self._nodes, self._directed, self._undirected))

    def __repr__(self) -> str:
        return (
            f"PartiallyDirectedGraph(nodes={list(self._nodes)}, "
            f"directed={self.directed_edges()}, undirected={self.undirected_edges()})"
        )


def connected_parts(adjacency: Mapping[str, Iterable[str]]) -> list[frozenset[str]]:
    """Node sets of the connected components of an undirected adjacency map.

    ``adjacency`` maps every node to its neighbours.  The parts come in the
    order of their first node in the map's iteration order.
    """
    parts: list[frozenset[str]] = []
    seen: set[str] = set()
    for start in adjacency:
        if start in seen:
            continue
        part, stack = {start}, [start]
        while stack:
            new = set(adjacency[stack.pop()]) - part
            part |= new
            stack.extend(new)
        seen |= part
        parts.append(frozenset(part))
    return parts


def chain_components(g: PartiallyDirectedGraph) -> tuple[PartiallyDirectedGraph, ...]:
    """The chain components of a chain graph, as subgraphs without arrows.

    Each subgraph holds the nodes of one connected component of the
    undirected part and the undirected edges among them.  The subgraphs are
    ordered by their sorted ``.nodes``, so a component's index is stable.

    Raises :class:`InvalidChainGraphError` if the graph has a partially
    directed cycle, i.e. a directed edge inside an undirected component or a
    directed cycle among components.
    """
    # the parts come in the order of their least node, and so of their .nodes
    components = connected_parts({n: g.undirected_neighbors(n) for n in g.nodes})
    comp_id = {n: i for i, part in enumerate(components) for n in part}

    quotient: dict[int, set[int]] = {i: set() for i in range(len(components))}
    for a, b in g.directed_edges():
        ca, cb = comp_id[a], comp_id[b]
        if ca == cb:
            raise InvalidChainGraphError(
                f"directed edge {a}->{b} joins nodes of one undirected component"
            )
        quotient[ca].add(cb)
    # a directed cycle among components would close a partially directed
    # cycle; Kahn's order on the quotient reaches every component iff there
    # is none
    indegree = [0] * len(components)
    for targets in quotient.values():
        for j in targets:
            indegree[j] += 1
    order = [i for i, d in enumerate(indegree) if d == 0]
    for i in order:  # grows while it is walked
        for j in quotient[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                order.append(j)
    if len(order) < len(components):
        raise InvalidChainGraphError("directed cycle among chain components")

    edges: list[list[tuple[str, str]]] = [[] for _ in components]
    for a, b in g.undirected_edges():
        edges[comp_id[a]].append((a, b))
    return tuple(PartiallyDirectedGraph(c, undirected=e) for c, e in zip(components, edges))


def _mcs_order(g: PartiallyDirectedGraph) -> list[str]:
    """Maximum cardinality search order (ties broken by label)."""
    weight = {n: 0 for n in g.nodes}
    order: list[str] = []
    remaining = set(g.nodes)
    while remaining:
        u = max(sorted(remaining), key=lambda n: weight[n])
        order.append(u)
        remaining.discard(u)
        for w in g.undirected_neighbors(u):
            if w in remaining:
                weight[w] += 1
    return order


def is_decomposable(g: PartiallyDirectedGraph) -> bool:
    """True iff ``g`` is chordal, decided by maximum cardinality search.

    The MCS order, reversed, is a perfect elimination ordering iff the graph
    is chordal: each vertex's earlier-numbered neighbors must form a clique.
    """
    order = _mcs_order(g)
    rank = {n: i for i, n in enumerate(order)}
    for v in order:
        earlier = [w for w in g.undirected_neighbors(v) if rank[w] < rank[v]]
        if not earlier:
            continue
        # it suffices to check the latest earlier neighbor against the rest
        pivot = max(earlier, key=lambda w: rank[w])
        for w in earlier:
            if w != pivot and not g.has_undirected_edge(w, pivot):
                return False
    return True


def check_subset_scan(g: PartiallyDirectedGraph, scan: str) -> None:
    """Raise unless ``g`` is a chain component within ``SUBSET_SCAN_CAP`` nodes and chordal.

    A directed edge raises ``ValueError``.  ``scan`` names the search in the
    ``CapacityError`` message; a non-chordal graph raises
    ``NotDecomposableError``.
    """
    if g.directed_edges():
        raise ValueError(f"a chain component has no directed edges, got {g.directed_edges()}")
    if len(g.nodes) > SUBSET_SCAN_CAP:
        raise CapacityError(
            f"component has {len(g.nodes)} nodes, {scan} is capped at {SUBSET_SCAN_CAP}"
        )
    if not is_decomposable(g):
        raise NotDecomposableError("graph is not decomposable")


def enumerate_class(g: PartiallyDirectedGraph) -> list[PartiallyDirectedGraph]:
    """All acyclic, v-structure-free orientations of a decomposable chain component.

    These are exactly the perfect directed versions of ``g`` (orientations by
    perfect vertex numberings), i.e. the DAGs of the Markov equivalence class
    whose essential graph restricted to ``g`` is ``g`` itself.  Each member
    has ``g``'s nodes and directed edges only.  Enumeration is by recursive
    edge orientation with incremental acyclicity and v-structure pruning,
    which produces no duplicates.

    The pipeline does not call it: it is the test oracle of
    ``design.orientation_counts``.  Its cost grows with the class size, which
    ``SUBSET_SCAN_CAP`` does not bound (a 12-node clique has 12! members).
    """
    check_subset_scan(g, "the enumeration of its class")
    edges = g.undirected_edges()
    if not edges:
        return [PartiallyDirectedGraph(g.nodes)]

    parents: dict[str, set[str]] = {n: set() for n in g.nodes}
    children: dict[str, set[str]] = {n: set() for n in g.nodes}
    out: list[PartiallyDirectedGraph] = []

    def reaches(src: str, dst: str) -> bool:
        if src == dst:
            return True
        stack = [src]
        seen = {src}
        while stack:
            x = stack.pop()
            for w in children[x]:
                if w == dst:
                    return True
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    def creates_v_structure(a: str, b: str) -> bool:
        # adding a -> b: collider at b with an existing nonadjacent parent
        for c in parents[b]:
            if c != a and not g.has_undirected_edge(c, a):
                return True
        return False

    def assign(i: int) -> None:
        if i == len(edges):
            directed = [(p, c) for p in parents for c in children[p]]
            out.append(PartiallyDirectedGraph(g.nodes, directed=directed))
            return
        u, v = edges[i]
        for a, b in ((u, v), (v, u)):
            if not reaches(b, a) and not creates_v_structure(a, b):
                parents[b].add(a)
                children[a].add(b)
                assign(i + 1)
                parents[b].discard(a)
                children[a].discard(b)

    assign(0)
    return out


_RuleFire = tuple[str, str]


def meek_closure(g: PartiallyDirectedGraph) -> PartiallyDirectedGraph:
    """Apply the four orientation propagation rules to a fixed point.

    The skeleton is unchanged and orientations are only added.  Each sweep
    collects every rule firing and applies them together; two firings that
    disagree on one edge mean no consistent extension exists, which raises
    :class:`InconsistentOrientationError`.  No command runs it: it is a
    test oracle, of the rule-1 closure in ``design`` and of ``is_sufficient``.
    """
    nodes = g.nodes
    arrows = g.directed_edges()
    parents = {n: {a for a, b in arrows if b == n} for n in nodes}
    children = {n: {b for a, b in arrows if a == n} for n in nodes}
    und = {n: set(g.undirected_neighbors(n)) for n in nodes}

    def adjacent(a: str, b: str) -> bool:
        return b in und[a] or b in parents[a] or b in children[a]

    def sweep() -> set[_RuleFire]:
        fires: set[_RuleFire] = set()
        for b in nodes:
            for c in und[b]:
                # rule 1: a -> b - c with a, c nonadjacent orients b -> c
                if any(not adjacent(a, c) for a in parents[b] if a != c):
                    fires.add((b, c))
        for a in nodes:
            for c in und[a]:
                # rule 2: a -> b -> c with a - c orients a -> c
                if any(b in parents[c] for b in children[a]):
                    fires.add((a, c))
        for a in nodes:
            for b in und[a]:
                # rule 3: a - c -> b and a - d -> b, c and d nonadjacent, orients a -> b
                shared = [c for c in parents[b] if c in und[a]]
                if any(
                    not adjacent(c, d)
                    for c, d in itertools.combinations(sorted(shared), 2)
                ):
                    fires.add((a, b))
                # rule 4: d -> c -> b with a adjacent to both c and d, and b, d
                # nonadjacent, orients a -> b
                for c in parents[b]:
                    if c == a or not adjacent(a, c):
                        continue
                    if any(
                        d != a and d != b and adjacent(a, d) and not adjacent(b, d)
                        for d in parents[c]
                    ):
                        fires.add((a, b))
        return fires

    while True:
        fires = sweep()
        new = {(a, b) for a, b in fires if b in und[a]}
        if not new:
            break
        for a, b in new:
            if (b, a) in new:
                raise InconsistentOrientationError(
                    f"rules force both directions of edge {a}-{b}"
                )
        for a, b in new:
            und[a].discard(b)
            und[b].discard(a)
            parents[b].add(a)
            children[a].add(b)

    directed = [(p, c) for p in nodes for c in children[p]]
    undirected = sorted({_canonical_pair(a, b) for a in nodes for b in und[a]})
    return PartiallyDirectedGraph(nodes, directed=directed, undirected=undirected)


def parse_edge_list(text: str) -> PartiallyDirectedGraph:
    """Parse the shared edge-list text format.

    One edge per line: ``u -- v`` for undirected, ``u -> v`` for directed.
    A line with a single token declares an isolated node.  ``#`` starts a
    comment; blank lines are ignored; labels are non-whitespace tokens.
    """
    nodes: set[str] = set()
    directed: list[tuple[str, str]] = []
    undirected: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) == 1:
            nodes.add(tokens[0])
            continue
        if len(tokens) != 3 or tokens[1] not in ("--", "->", "<-"):
            raise GraphFormatError(
                f"line {lineno}: expected 'u -- v', 'u -> v' or a bare node, got {raw!r}"
            )
        u, op, v = tokens
        if op == "--":
            undirected.append((u, v))
        elif op == "->":
            directed.append((u, v))
        else:
            directed.append((v, u))
    try:
        return PartiallyDirectedGraph(nodes, directed=directed, undirected=undirected)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc

