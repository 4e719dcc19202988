"""Tests for intervention-target selection."""

import itertools
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causal_ssd.design import _rooted, optimal_sequences, orientation_counts, prior_h0
from causal_ssd.graph import (
    CapacityError,
    NotDecomposableError,
    SUBSET_SCAN_CAP,
    PartiallyDirectedGraph,
    enumerate_class,
    is_decomposable,
    meek_closure,
    parse_edge_list,
)
from causal_ssd.ssd import best_size_plan

from helpers import TREE5_EDGES, is_sufficient, plan_from_stars, random_chordal

G1 = PartiallyDirectedGraph("12345", undirected=TREE5_EDGES)
PATH3 = PartiallyDirectedGraph("123", undirected=[("1", "2"), ("2", "3")])
PAIR = PartiallyDirectedGraph("uv", undirected=[("u", "v")])
TRIANGLE = PartiallyDirectedGraph("123", undirected=[("1", "2"), ("2", "3"), ("1", "3")])


def path_graph(n_nodes):
    nodes = [f"{i:02d}" for i in range(n_nodes)]
    return PartiallyDirectedGraph(nodes, undirected=zip(nodes, nodes[1:]))


@st.composite
def connected_chordal_graphs(draw, max_nodes=7):
    """Connected chordal graphs grown by adding simplicial vertices, relabelled.

    Every new vertex is joined to a nonempty subset of an earlier maximal
    clique, which reaches every connected chordal graph; the random labelling
    keeps the node order from following the elimination order.
    """
    n = draw(st.integers(2, max_nodes))
    labels = draw(st.permutations([str(i) for i in range(n)]))
    cliques = [{labels[0]}]
    for i in range(1, n):
        base = sorted(draw(st.sampled_from(cliques)))
        attach = draw(st.sets(st.sampled_from(base), min_size=1))
        cliques.append(attach | {labels[i]})
    edges = {e for c in cliques for e in itertools.combinations(sorted(c), 2)}
    return PartiallyDirectedGraph(sorted(labels), undirected=sorted(edges))


def oracle_optimal_sequences(g):
    """Smallest subsets that pass ``is_sufficient``, scanned in combination order."""
    for size in range(1, len(g.nodes) + 1):
        found = [
            combo
            for combo in itertools.combinations(g.nodes, size)
            if is_sufficient(g, combo)
        ]
        if found:
            return found
    raise AssertionError("manipulating every node is always sufficient")


class TestIsSufficient:
    def test_single_edge_either_endpoint(self):
        assert is_sufficient(PAIR, ("u",))
        assert is_sufficient(PAIR, ("v",))

    def test_path_midpoint_yes_endpoint_no(self):
        assert is_sufficient(PATH3, ("2",))
        # after manipulating 1, the classes rooted at 2 and at 3 agree on
        # every edge incident to 1
        assert not is_sufficient(PATH3, ("1",))

    def test_g1_center_alone_insufficient(self):
        assert not is_sufficient(G1, ("3",))

    def test_g1_pairs(self):
        assert is_sufficient(G1, ("2", "3"))
        assert is_sufficient(G1, ("3", "4"))
        assert not is_sufficient(G1, ("2", "4"))
        assert not is_sufficient(G1, ("1", "5"))

    def test_target_outside_component_rejected(self):
        with pytest.raises(ValueError):
            is_sufficient(PAIR, ("w",))

    def test_monotone_in_target_set(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = random_chordal(rng, int(rng.integers(2, 6)))
            nodes = g.nodes
            for size in range(1, len(nodes)):
                for combo in itertools.combinations(nodes, size):
                    if is_sufficient(g, combo):
                        extra = next(n for n in nodes if n not in combo)
                        assert is_sufficient(g, combo + (extra,))
                        break


class TestOptimalSequences:
    def test_single_edge(self):
        assert optimal_sequences(PAIR) == [("u",), ("v",)]

    def test_path_center(self):
        assert optimal_sequences(PATH3) == [("2",)]

    def test_g1_two_pairs(self):
        assert optimal_sequences(G1) == [("2", "3"), ("3", "4")]

    def test_edgeless_component_is_empty_sequence(self):
        g = PartiallyDirectedGraph("ab")
        assert optimal_sequences(g) == [()]

    def test_directed_edge_rejected(self):
        # parse_edge_list returns graphs with arrows, and no chain component
        # has one; an arrow-only graph is not taken for an edgeless component
        mixed = parse_edge_list("a -> b\nb -- c\n")
        for g in (mixed, parse_edge_list("a -> b\n")):
            for call in (optimal_sequences, orientation_counts, enumerate_class):
                with pytest.raises(ValueError, match="no directed edges"):
                    call(g)
        with pytest.raises(ValueError, match="no directed edges"):
            prior_h0(mixed, "b", "c")

    def test_minimality_by_exhaustion(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            g = random_chordal(rng, int(rng.integers(2, 7)))
            best = optimal_sequences(g)
            k = len(best[0])
            for s in best:
                assert is_sufficient(g, s)
            for smaller in range(1, k):
                for combo in itertools.combinations(g.nodes, smaller):
                    assert not is_sufficient(g, combo)
            # every sufficient set of the optimal size is present
            expected = [
                combo
                for combo in itertools.combinations(g.nodes, k)
                if is_sufficient(g, combo)
            ]
            assert best == expected

    def test_non_chordal_rejected(self):
        c4 = PartiallyDirectedGraph(
            "abcd", undirected=[("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]
        )
        with pytest.raises(NotDecomposableError):
            optimal_sequences(c4)

    def test_capacity_enforced(self):
        assert SUBSET_SCAN_CAP == 12
        with pytest.raises(CapacityError):
            optimal_sequences(path_graph(13))
        # a path of 2m nodes has m + 1 minimum vertex covers, each of m nodes
        covers = optimal_sequences(path_graph(12))
        assert len(covers) == 7 and all(len(s) == 6 for s in covers)

    def test_seven_clique_leaves_out_one_node_each(self):
        nodes = [str(i) for i in range(7)]
        g = PartiallyDirectedGraph(nodes, undirected=itertools.combinations(nodes, 2))
        expected = [tuple(n for n in nodes if n != left_out) for left_out in reversed(nodes)]
        assert optimal_sequences(g) == expected

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(connected_chordal_graphs())
    def test_minimum_vertex_covers_match_closure_oracle(self, g):
        graph = nx.Graph(g.undirected_edges())
        graph.add_nodes_from(g.nodes)
        assert nx.is_connected(graph)
        assert nx.is_chordal(graph)
        assert is_decomposable(g)
        assert optimal_sequences(g) == oracle_optimal_sequences(g)


class TestPriorH0:
    def test_two_node_half(self):
        p = prior_h0(PAIR, "u", "v")
        assert p == pytest.approx(0.5)
        assert 1.0 - p == pytest.approx(0.5)

    def test_triangle_symmetric(self):
        for u, v in TRIANGLE.undirected_edges():
            assert prior_h0(TRIANGLE, u, v) == pytest.approx(0.5)

    def test_path_endpoint(self):
        # 2 of the 3 class members contain 1 <- 2
        assert prior_h0(PATH3, "1", "2") == pytest.approx(2.0 / 3.0)
        assert prior_h0(PATH3, "2", "1") == pytest.approx(1.0 / 3.0)

    def test_matches_brute_force_count(self):
        dags = enumerate_class(PATH3)
        count = sum(1 for d in dags if ("2", "1") in d.directed_edges())
        assert prior_h0(PATH3, "1", "2") == pytest.approx(count / len(dags))

    def test_orientation_probabilities_partition(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = random_chordal(rng, int(rng.integers(2, 9)))
            for u, v in g.undirected_edges():
                p_uv = prior_h0(g, u, v)
                p_vu = prior_h0(g, v, u)
                assert p_uv + p_vu == pytest.approx(1.0)
                assert 0.0 < p_uv < 1.0

    def test_complete_graph_edges_half(self):
        nodes = ["1", "2", "3", "4"]
        g = PartiallyDirectedGraph(nodes, undirected=itertools.combinations(nodes, 2))
        for u, v in g.undirected_edges():
            assert prior_h0(g, u, v) == pytest.approx(0.5)

    def test_non_edge_rejected(self):
        with pytest.raises(ValueError):
            prior_h0(PATH3, "1", "3")

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(connected_chordal_graphs(max_nodes=8))
    def test_counts_match_enumeration_oracle(self, g):
        dags = enumerate_class(g)
        assert all(d.undirected_edges() == [] for d in dags)
        size, _ = orientation_counts(g)
        assert size == len(dags)
        for a, b in g.undirected_edges():
            for u, v in ((a, b), (b, a)):
                n_h0 = sum(1 for d in dags if (v, u) in d.directed_edges())
                assert prior_h0(g, u, v) == n_h0 / len(dags)

    def test_disconnected_class_is_product(self):
        g = PartiallyDirectedGraph("12345", undirected=[("1", "2"), ("2", "3"), ("4", "5")])
        size, arrows = orientation_counts(g)
        assert size == len(enumerate_class(g)) == 6
        assert arrows[("2", "1")] == 4
        assert arrows[("4", "5")] == 3

    @settings(derandomize=True, deadline=None)
    @given(connected_chordal_graphs(max_nodes=12))
    def test_rule_one_from_the_source_matches_the_closure(self, g):
        # rooted at r, the four-rule closure of r -> N(r) orients nothing
        # that rule 1 alone does not (He, Jia & Yu, JMLR 2015)
        adj = {n: frozenset(g.undirected_neighbors(n)) for n in g.nodes}
        for root in g.nodes:
            arrows, und = _rooted(adj, frozenset(g.nodes), root)
            closed = meek_closure(
                PartiallyDirectedGraph(
                    g.nodes,
                    directed=[(root, w) for w in adj[root]],
                    undirected=[e for e in g.undirected_edges() if root not in e],
                )
            )
            left = {tuple(sorted((a, b))) for a in und for b in und[a]}
            assert sorted(arrows) == closed.directed_edges()
            assert sorted(left) == closed.undirected_edges()

    @pytest.mark.parametrize("k", range(2, 12))
    def test_clique_counts_have_the_closed_form(self, k):
        # k! members, and every arrow in half of them
        nodes = [f"n{i:02d}" for i in range(k)]
        g = PartiallyDirectedGraph(nodes, undirected=itertools.combinations(nodes, 2))
        size, arrows = orientation_counts(g)
        assert size == math.factorial(k)
        assert arrows == {e: math.factorial(k) // 2 for e in itertools.permutations(nodes, 2)}

    def test_count_capacity_and_chordality_enforced(self):
        with pytest.raises(CapacityError):
            orientation_counts(path_graph(13))
        c4 = PartiallyDirectedGraph(
            "abcd", undirected=[("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]
        )
        with pytest.raises(NotDecomposableError):
            prior_h0(c4, "a", "b")


class TestInputTypes:
    @pytest.mark.parametrize("function", ["optimal_sequences", "prior_h0"])
    @pytest.mark.parametrize("g", [None, nx.Graph([("u", "v")])], ids=["None", "nx.Graph"])
    def test_graph_checked_at_the_call(self, function, g):
        # before, each raised AttributeError
        call, args = {
            "optimal_sequences": (optimal_sequences, ()),
            "prior_h0": (prior_h0, ("u", "v")),
        }[function]
        with pytest.raises(TypeError, match="^g must be a PartiallyDirectedGraph, got "):
            call(g, *args)


class TestBestSizeOptimalSequence:
    def test_known_sizes_pick_smaller_total(self):
        plans = [plan_from_stars({"2": [28], "3": [88]}), plan_from_stars({"3": [4], "4": [86]})]
        assert best_size_plan(plans)["sequence"] == ["3", "4"]

    def test_single_candidate(self):
        assert best_size_plan([plan_from_stars({"a": [5]})])["sequence"] == ["a"]

    def test_tie_breaks_lexicographically(self):
        plans = [plan_from_stars({"b": [10]}), plan_from_stars({"a": [10]})]
        assert best_size_plan(plans)["sequence"] == ["a"]

    def test_unachievable_candidates_excluded(self):
        plans = [plan_from_stars({"a": [None]}), plan_from_stars({"b": [7]})]
        assert best_size_plan(plans)["sequence"] == ["b"]

    def test_all_unachievable_gives_none(self):
        plans = [plan_from_stars({"a": [None]}), plan_from_stars({"b": [3], "c": [None]})]
        assert best_size_plan(plans) is None
