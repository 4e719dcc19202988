"""Tests for intervention-target selection."""

import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causal_ssd.design import (
    EdgeHypothesisPrior,
    InterventionSequence,
    best_size_optimal_sequence,
    optimal_sequences,
    orientation_counts,
    prior_h0,
)
from causal_ssd.graph import (
    CapacityError,
    ENUMERATION_CAP,
    NotDecomposableError,
    UndirectedGraph,
    enumerate_class,
    is_decomposable,
)

from helpers import TREE5_EDGES, is_sufficient, random_chordal

G1 = UndirectedGraph("12345", TREE5_EDGES)
PATH3 = UndirectedGraph("123", [("1", "2"), ("2", "3")])
PAIR = UndirectedGraph("uv", [("u", "v")])
TRIANGLE = UndirectedGraph("123", [("1", "2"), ("2", "3"), ("1", "3")])


def path_graph(n_nodes):
    nodes = [f"{i:02d}" for i in range(n_nodes)]
    return UndirectedGraph(nodes, zip(nodes, nodes[1:]))


def seq(*targets):
    return InterventionSequence(tuple(targets))


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
    return UndirectedGraph(sorted(labels), sorted(edges))


def oracle_optimal_sequences(g):
    """Smallest subsets that pass ``is_sufficient``, scanned in combination order."""
    for size in range(1, g.num_nodes() + 1):
        found = [
            combo
            for combo in itertools.combinations(g.nodes, size)
            if is_sufficient(g, seq(*combo))
        ]
        if found:
            return found
    raise AssertionError("manipulating every node is always sufficient")


class TestInterventionSequence:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            seq("a", "a")

    def test_canonical_sorts(self):
        assert seq("3", "2").canonical().targets == ("2", "3")


class TestIsSufficient:
    def test_single_edge_either_endpoint(self):
        assert is_sufficient(PAIR, seq("u"))
        assert is_sufficient(PAIR, seq("v"))

    def test_path_midpoint_yes_endpoint_no(self):
        assert is_sufficient(PATH3, seq("2"))
        # after manipulating 1, the classes rooted at 2 and at 3 agree on
        # every edge incident to 1
        assert not is_sufficient(PATH3, seq("1"))

    def test_g1_center_alone_insufficient(self):
        assert not is_sufficient(G1, seq("3"))

    def test_g1_pairs(self):
        assert is_sufficient(G1, seq("2", "3"))
        assert is_sufficient(G1, seq("3", "4"))
        assert not is_sufficient(G1, seq("2", "4"))
        assert not is_sufficient(G1, seq("1", "5"))

    def test_target_outside_component_rejected(self):
        with pytest.raises(ValueError):
            is_sufficient(PAIR, seq("w"))

    def test_monotone_in_target_set(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = random_chordal(rng, int(rng.integers(2, 6)))
            nodes = g.nodes
            for size in range(1, len(nodes)):
                for combo in itertools.combinations(nodes, size):
                    if is_sufficient(g, seq(*combo)):
                        extra = next(n for n in nodes if n not in combo)
                        assert is_sufficient(g, seq(*(combo + (extra,))))
                        break


class TestOptimalSequences:
    def test_single_edge(self):
        assert [s.targets for s in optimal_sequences(PAIR)] == [("u",), ("v",)]

    def test_path_center(self):
        assert [s.targets for s in optimal_sequences(PATH3)] == [("2",)]

    def test_g1_two_pairs(self):
        assert [s.targets for s in optimal_sequences(G1)] == [("2", "3"), ("3", "4")]

    def test_edgeless_component_is_empty_sequence(self):
        g = UndirectedGraph("ab", [])
        assert [s.targets for s in optimal_sequences(g)] == [()]

    def test_minimality_by_exhaustion(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            g = random_chordal(rng, int(rng.integers(2, 7)))
            best = optimal_sequences(g)
            k = len(best[0].targets)
            for s in best:
                assert is_sufficient(g, s)
            for smaller in range(1, k):
                for combo in itertools.combinations(g.nodes, smaller):
                    assert not is_sufficient(g, seq(*combo))
            # every sufficient set of the optimal size is present
            expected = [
                combo
                for combo in itertools.combinations(g.nodes, k)
                if is_sufficient(g, seq(*combo))
            ]
            assert [s.targets for s in best] == expected

    def test_non_chordal_rejected(self):
        c4 = UndirectedGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
        with pytest.raises(NotDecomposableError):
            optimal_sequences(c4)

    def test_capacity_enforced(self):
        assert ENUMERATION_CAP == 12
        with pytest.raises(CapacityError):
            optimal_sequences(path_graph(13))
        # a path of 2m nodes has m + 1 minimum vertex covers, each of m nodes
        covers = optimal_sequences(path_graph(12))
        assert len(covers) == 7 and all(len(s.targets) == 6 for s in covers)

    def test_seven_clique_leaves_out_one_node_each(self):
        nodes = [str(i) for i in range(7)]
        g = UndirectedGraph(nodes, itertools.combinations(nodes, 2))
        expected = [tuple(n for n in nodes if n != left_out) for left_out in reversed(nodes)]
        assert [s.targets for s in optimal_sequences(g)] == expected

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(connected_chordal_graphs())
    def test_minimum_vertex_covers_match_closure_oracle(self, g):
        graph = nx.Graph(g.edges())
        graph.add_nodes_from(g.nodes)
        assert nx.is_connected(graph)
        assert nx.is_chordal(graph)
        assert is_decomposable(g)
        assert [s.targets for s in optimal_sequences(g)] == oracle_optimal_sequences(g)


class TestPriorH0:
    def test_two_node_half(self):
        p = prior_h0(PAIR, "u", "v")
        assert p.p_h0 == pytest.approx(0.5)
        assert p.p_h1 == pytest.approx(0.5)

    def test_triangle_symmetric(self):
        for u, v in TRIANGLE.edges():
            assert prior_h0(TRIANGLE, u, v).p_h0 == pytest.approx(0.5)

    def test_path_endpoint(self):
        # 2 of the 3 class members contain 1 <- 2
        assert prior_h0(PATH3, "1", "2").p_h0 == pytest.approx(2.0 / 3.0)
        assert prior_h0(PATH3, "2", "1").p_h0 == pytest.approx(1.0 / 3.0)

    def test_matches_brute_force_count(self):
        dags = enumerate_class(PATH3)
        count = sum(1 for d in dags if d.has_edge("2", "1"))
        assert prior_h0(PATH3, "1", "2").p_h0 == pytest.approx(count / len(dags))

    def test_orientation_probabilities_partition(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = random_chordal(rng, int(rng.integers(2, 9)))
            for u, v in g.edges():
                p_uv = prior_h0(g, u, v).p_h0
                p_vu = prior_h0(g, v, u).p_h0
                assert p_uv + p_vu == pytest.approx(1.0)
                assert 0.0 < p_uv < 1.0

    def test_complete_graph_edges_half(self):
        nodes = ["1", "2", "3", "4"]
        g = UndirectedGraph(nodes, itertools.combinations(nodes, 2))
        for u, v in g.edges():
            assert prior_h0(g, u, v).p_h0 == pytest.approx(0.5)

    def test_non_edge_rejected(self):
        with pytest.raises(ValueError):
            prior_h0(PATH3, "1", "3")

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(connected_chordal_graphs(max_nodes=8))
    def test_counts_match_enumeration_oracle(self, g):
        dags = enumerate_class(g)
        size, _ = orientation_counts(g)
        assert size == len(dags)
        for a, b in g.edges():
            for u, v in ((a, b), (b, a)):
                n_h0 = sum(1 for d in dags if d.has_edge(v, u))
                assert prior_h0(g, u, v).p_h0 == n_h0 / len(dags)

    def test_disconnected_class_is_product(self):
        g = UndirectedGraph("12345", [("1", "2"), ("2", "3"), ("4", "5")])
        size, arrows = orientation_counts(g)
        assert size == len(enumerate_class(g)) == 6
        assert arrows[("2", "1")] == 4
        assert arrows[("4", "5")] == 3

    def test_count_capacity_and_chordality_enforced(self):
        with pytest.raises(CapacityError):
            orientation_counts(path_graph(13))
        c4 = UndirectedGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
        with pytest.raises(NotDecomposableError):
            prior_h0(c4, "a", "b")

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            EdgeHypothesisPrior(u="a", v="b", p_h0=0.7, p_h1=0.7)


class TestBestSizeOptimalSequence:
    def test_known_sizes_pick_smaller_total(self):
        candidates = [
            (seq("2", "3"), [28, 88]),
            (seq("3", "4"), [4, 86]),
        ]
        assert best_size_optimal_sequence(candidates).targets == ("3", "4")

    def test_single_candidate(self):
        assert best_size_optimal_sequence([(seq("a"), [5])]).targets == ("a",)

    def test_tie_breaks_lexicographically(self):
        candidates = [(seq("b"), [10]), (seq("a"), [10])]
        assert best_size_optimal_sequence(candidates).targets == ("a",)

    def test_unachievable_candidates_excluded(self):
        candidates = [(seq("a"), [None]), (seq("b"), [7])]
        assert best_size_optimal_sequence(candidates).targets == ("b",)

    def test_all_unachievable_gives_none(self):
        assert best_size_optimal_sequence([(seq("a"), [None]), (seq("b", "c"), [3, None])]) is None
