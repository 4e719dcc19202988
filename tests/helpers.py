"""Shared fixtures and brute-force oracles used across test modules."""

import itertools

import numpy as np

from causal_ssd.graph import Dag, PartiallyDirectedGraph, UndirectedGraph
from causal_ssd.numerics import RandomStream, WishartParams

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
