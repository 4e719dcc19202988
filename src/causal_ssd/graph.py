"""Graph structures and algorithms for chain graphs and equivalence classes.

Provides chain-component decomposition of partially directed graphs,
decomposability (chordality) testing, enumeration of the acyclic
v-structure-free orientations of a decomposable graph, orientation closure
under the four standard propagation rules, and the DAG-to-essential-graph
conversion.

Node labels are strings; every structure stores them sorted, so iteration
order (and therefore file output) is deterministic.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable

ENUMERATION_CAP = 12
"""Largest component size for the searches that may visit all 2^nodes node
subsets: the minimum-vertex-cover search and the class count.  A 12-node
clique takes seconds to count; its class holds 12! members, so the cap is no
bound on building them, which only the test oracle ``enumerate_class`` does."""


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


class UndirectedGraph:
    """Immutable undirected graph without self-loops."""

    def __init__(self, nodes: Iterable = (), edges: Iterable[tuple] = ()):
        node_set = {_as_label(n) for n in nodes}
        edge_set: set[tuple[str, str]] = set()
        for a, b in edges:
            a, b = _as_label(a), _as_label(b)
            if a == b:
                raise ValueError(f"self-loop on {a!r}")
            node_set.update((a, b))
            edge_set.add(_canonical_pair(a, b))
        self._nodes: tuple[str, ...] = tuple(sorted(node_set))
        self._edges: frozenset[tuple[str, str]] = frozenset(edge_set)
        adj: dict[str, set[str]] = {n: set() for n in self._nodes}
        for a, b in edge_set:
            adj[a].add(b)
            adj[b].add(a)
        self._adj = adj

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    def edges(self) -> list[tuple[str, str]]:
        return sorted(self._edges)

    def num_nodes(self) -> int:
        return len(self._nodes)

    def num_edges(self) -> int:
        return len(self._edges)

    def has_edge(self, u, v) -> bool:
        return _canonical_pair(str(u), str(v)) in self._edges

    def neighbors(self, u) -> tuple[str, ...]:
        return tuple(sorted(self._adj[str(u)]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, UndirectedGraph):
            return NotImplemented
        return self._nodes == other._nodes and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._nodes, self._edges))

    def __repr__(self) -> str:
        return f"UndirectedGraph(nodes={list(self._nodes)}, edges={self.edges()})"


class Dag:
    """Immutable directed acyclic graph; acyclicity is checked at construction."""

    def __init__(self, nodes: Iterable = (), edges: Iterable[tuple] = ()):
        node_set = {_as_label(n) for n in nodes}
        edge_set: set[tuple[str, str]] = set()
        for a, b in edges:
            a, b = _as_label(a), _as_label(b)
            if a == b:
                raise ValueError(f"self-loop on {a!r}")
            node_set.update((a, b))
            edge_set.add((a, b))
        for a, b in edge_set:
            if (b, a) in edge_set:
                raise ValueError(f"both orientations of {a!r}-{b!r} present")
        self._nodes: tuple[str, ...] = tuple(sorted(node_set))
        self._edges: frozenset[tuple[str, str]] = frozenset(edge_set)
        self._parents: dict[str, set[str]] = {n: set() for n in self._nodes}
        self._children: dict[str, set[str]] = {n: set() for n in self._nodes}
        for a, b in edge_set:
            self._parents[b].add(a)
            self._children[a].add(b)
        self._topo = self._topological_order()

    def _topological_order(self) -> tuple[str, ...]:
        indeg = {n: len(self._parents[n]) for n in self._nodes}
        ready = sorted(n for n in self._nodes if indeg[n] == 0)
        queue = deque(ready)
        order: list[str] = []
        while queue:
            u = queue.popleft()
            order.append(u)
            for w in sorted(self._children[u]):
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if len(order) != len(self._nodes):
            raise ValueError("directed edges contain a cycle")
        return tuple(order)

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    def edges(self) -> list[tuple[str, str]]:
        return sorted(self._edges)

    def has_edge(self, u, v) -> bool:
        return (str(u), str(v)) in self._edges

    def parents(self, v) -> tuple[str, ...]:
        return tuple(sorted(self._parents[str(v)]))

    def children(self, v) -> tuple[str, ...]:
        return tuple(sorted(self._children[str(v)]))

    def topological_order(self) -> tuple[str, ...]:
        return self._topo

    def skeleton(self) -> UndirectedGraph:
        return UndirectedGraph(self._nodes, self._edges)

    def v_structures(self) -> set[tuple[str, str, str]]:
        """Triples (a, b, c), a < c, with a -> b <- c and a, c nonadjacent."""
        out: set[tuple[str, str, str]] = set()
        for b in self._nodes:
            pars = sorted(self._parents[b])
            for a, c in itertools.combinations(pars, 2):
                if (a, c) not in self._edges and (c, a) not in self._edges:
                    out.add((a, b, c))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dag):
            return NotImplemented
        return self._nodes == other._nodes and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._nodes, self._edges))

    def __repr__(self) -> str:
        return f"Dag(nodes={list(self._nodes)}, edges={self.edges()})"


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
        self._parents: dict[str, set[str]] = {n: set() for n in self._nodes}
        self._children: dict[str, set[str]] = {n: set() for n in self._nodes}
        for a, b in und_set:
            self._und_adj[a].add(b)
            self._und_adj[b].add(a)
        for a, b in dir_set:
            self._parents[b].add(a)
            self._children[a].add(b)

    @classmethod
    def from_undirected(cls, g: UndirectedGraph) -> "PartiallyDirectedGraph":
        return cls(g.nodes, undirected=g.edges())

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    def directed_edges(self) -> list[tuple[str, str]]:
        return sorted(self._directed)

    def undirected_edges(self) -> list[tuple[str, str]]:
        return sorted(self._undirected)

    def has_directed_edge(self, u, v) -> bool:
        return (str(u), str(v)) in self._directed

    def has_undirected_edge(self, u, v) -> bool:
        return _canonical_pair(str(u), str(v)) in self._undirected

    def adjacent(self, u, v) -> bool:
        u, v = str(u), str(v)
        return (
            _canonical_pair(u, v) in self._undirected
            or (u, v) in self._directed
            or (v, u) in self._directed
        )

    def undirected_neighbors(self, u) -> tuple[str, ...]:
        return tuple(sorted(self._und_adj[str(u)]))

    def parents(self, v) -> tuple[str, ...]:
        return tuple(sorted(self._parents[str(v)]))

    def children(self, v) -> tuple[str, ...]:
        return tuple(sorted(self._children[str(v)]))

    def skeleton(self) -> UndirectedGraph:
        return UndirectedGraph(
            self._nodes, list(self._undirected) + list(self._directed)
        )

    def is_fully_directed(self) -> bool:
        return not self._undirected

    def to_dag(self) -> Dag:
        if self._undirected:
            raise ValueError("graph still has undirected edges")
        return Dag(self._nodes, self._directed)

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


@dataclass(frozen=True)
class ChainComponentDecomposition:
    """Partition of the vertex set into chain components with induced subgraphs."""

    components: tuple[tuple[str, ...], ...]
    subgraphs: tuple[UndirectedGraph, ...]


def chain_components(g: PartiallyDirectedGraph) -> ChainComponentDecomposition:
    """Decompose a chain graph into the connected components of its undirected part.

    Raises :class:`InvalidChainGraphError` if the graph has a partially
    directed cycle, i.e. a directed edge inside an undirected component or a
    directed cycle among components.
    """
    comp_id: dict[str, int] = {}
    components: list[list[str]] = []
    for start in g.nodes:
        if start in comp_id:
            continue
        idx = len(components)
        comp_id[start] = idx
        group = [start]
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in g.undirected_neighbors(u):
                if w not in comp_id:
                    comp_id[w] = idx
                    group.append(w)
                    queue.append(w)
        components.append(sorted(group))

    quotient: dict[int, set[int]] = {i: set() for i in range(len(components))}
    for a, b in g.directed_edges():
        ca, cb = comp_id[a], comp_id[b]
        if ca == cb:
            raise InvalidChainGraphError(
                f"directed edge {a}->{b} joins nodes of one undirected component"
            )
        quotient[ca].add(cb)
    # directed cycle among components would close a partially directed cycle
    state: dict[int, int] = {}

    def visit(i: int) -> None:
        state[i] = 1
        for j in quotient[i]:
            mark = state.get(j, 0)
            if mark == 1:
                raise InvalidChainGraphError("directed cycle among chain components")
            if mark == 0:
                visit(j)
        state[i] = 2

    for i in range(len(components)):
        if state.get(i, 0) == 0:
            visit(i)

    ordered = sorted(components)
    subgraphs = tuple(
        UndirectedGraph(
            c, [e for e in g.undirected_edges() if e[0] in set(c) and e[1] in set(c)]
        )
        for c in ordered
    )
    return ChainComponentDecomposition(
        components=tuple(tuple(c) for c in ordered), subgraphs=subgraphs
    )


def _mcs_order(g: UndirectedGraph) -> list[str]:
    """Maximum cardinality search order (ties broken by label)."""
    weight = {n: 0 for n in g.nodes}
    order: list[str] = []
    remaining = set(g.nodes)
    while remaining:
        u = max(sorted(remaining), key=lambda n: weight[n])
        order.append(u)
        remaining.discard(u)
        for w in g.neighbors(u):
            if w in remaining:
                weight[w] += 1
    return order


def is_decomposable(g: UndirectedGraph) -> bool:
    """True iff ``g`` is chordal, decided by maximum cardinality search.

    The MCS order, reversed, is a perfect elimination ordering iff the graph
    is chordal: each vertex's earlier-numbered neighbors must form a clique.
    """
    order = _mcs_order(g)
    rank = {n: i for i, n in enumerate(order)}
    for v in order:
        earlier = [w for w in g.neighbors(v) if rank[w] < rank[v]]
        if not earlier:
            continue
        # it suffices to check the latest earlier neighbor against the rest
        pivot = max(earlier, key=lambda w: rank[w])
        for w in earlier:
            if w != pivot and not g.has_edge(w, pivot):
                return False
    return True


def enumerate_class(g: UndirectedGraph) -> list[Dag]:
    """All acyclic, v-structure-free orientations of a decomposable graph.

    These are exactly the perfect directed versions of ``g`` (orientations by
    perfect vertex numberings), i.e. the DAGs of the Markov equivalence class
    whose essential graph restricted to ``g`` is ``g`` itself.  Enumeration is
    by recursive edge orientation with incremental acyclicity and
    v-structure pruning, which produces no duplicates.

    The pipeline does not call it: it is the test oracle of
    ``design.orientation_counts``.  Its cost grows with the class size, which
    ``ENUMERATION_CAP`` does not bound (a 12-node clique has 12! members).
    """
    if g.num_nodes() > ENUMERATION_CAP:
        raise CapacityError(
            f"component has {g.num_nodes()} nodes, above the cap of {ENUMERATION_CAP} on the "
            f"2^nodes subset scans and the class count"
        )
    if not is_decomposable(g):
        raise NotDecomposableError("graph is not decomposable")
    edges = g.edges()
    if not edges:
        return [Dag(g.nodes, [])]

    parents: dict[str, set[str]] = {n: set() for n in g.nodes}
    children: dict[str, set[str]] = {n: set() for n in g.nodes}
    out: list[Dag] = []

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
            if c != a and not g.has_edge(c, a):
                return True
        return False

    def assign(i: int) -> None:
        if i == len(edges):
            out.append(Dag(g.nodes, [(p, c) for p in parents for c in children[p]]))
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
    :class:`InconsistentOrientationError`.
    """
    nodes = g.nodes
    parents = {n: set(g.parents(n)) for n in nodes}
    children = {n: set(g.children(n)) for n in nodes}
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


def dag_to_cpdag(d: Dag) -> PartiallyDirectedGraph:
    """Essential graph of the Markov equivalence class of ``d``.

    Edges taking the same orientation in every equivalent DAG stay directed;
    reversible edges become undirected.  Computed by keeping the v-structure
    arrows and closing under the orientation rules.
    """
    vstruct_arrows: set[tuple[str, str]] = set()
    for a, b, c in d.v_structures():
        vstruct_arrows.add((a, b))
        vstruct_arrows.add((c, b))
    undirected = [
        (u, v) for u, v in d.edges() if (u, v) not in vstruct_arrows
    ]
    pattern = PartiallyDirectedGraph(
        d.nodes, directed=sorted(vstruct_arrows), undirected=undirected
    )
    return meek_closure(pattern)


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


def format_edge_list(g: PartiallyDirectedGraph) -> str:
    """Serialize a graph to the edge-list text format (round-trips with parse)."""
    lines = [f"{u} -- {v}" for u, v in g.undirected_edges()]
    lines += [f"{u} -> {v}" for u, v in g.directed_edges()]
    covered = {n for e in g.undirected_edges() + g.directed_edges() for n in e}
    lines += [n for n in g.nodes if n not in covered]
    return "\n".join(lines) + ("\n" if lines else "")
