"""Tests for graph structures and algorithms, with brute-force oracles."""

import itertools

import numpy as np
import pytest

from causal_ssd.graph import (
    CapacityError,
    Dag,
    GraphFormatError,
    InconsistentOrientationError,
    InvalidChainGraphError,
    NotDecomposableError,
    PartiallyDirectedGraph,
    UndirectedGraph,
    chain_components,
    enumerate_class,
    is_decomposable,
    meek_closure,
    parse_edge_list,
)

from helpers import (
    CHAIN5,
    TREE5_EDGES,
    brute_force_class,
    dag_to_cpdag,
    format_edge_list,
    random_chordal,
    random_dag,
    v_structures,
)


def brute_force_closure(pdag: PartiallyDirectedGraph) -> set[tuple[str, str]]:
    """Oracle: arrows common to all consistent extensions of the pattern.

    An extension orients every undirected edge so that the result is acyclic,
    keeps the given arrows, and has exactly the v-structures of the pattern.
    """
    base_vs = _pattern_v_structures(pdag)
    und = pdag.undirected_edges()
    fixed = pdag.directed_edges()
    extensions = []
    for mask in itertools.product([0, 1], repeat=len(und)):
        oriented = [(u, v) if m == 0 else (v, u) for (u, v), m in zip(und, mask)]
        try:
            d = Dag(pdag.nodes, fixed + oriented)
        except ValueError:
            continue
        if v_structures(d) == base_vs:
            extensions.append(set(d.edges()))
    assert extensions, "pattern admits no consistent extension"
    return set.intersection(*extensions)


def _pattern_v_structures(pdag: PartiallyDirectedGraph) -> set[tuple[str, str, str]]:
    skeleton = _skeleton(pdag)
    out = set()
    for b in pdag.nodes:
        for a, c in itertools.combinations(pdag.parents(b), 2):
            if not skeleton.has_edge(a, c):
                out.add((a, b, c))
    return out


def _skeleton(pdag: PartiallyDirectedGraph) -> UndirectedGraph:
    return UndirectedGraph(pdag.nodes, pdag.directed_edges() + pdag.undirected_edges())




class TestStructures:
    def test_undirected_rejects_self_loop(self):
        with pytest.raises(ValueError):
            UndirectedGraph("ab", [("a", "a")])

    def test_dag_rejects_cycle(self):
        with pytest.raises(ValueError):
            Dag("abc", [("a", "b"), ("b", "c"), ("c", "a")])

    def test_pdg_rejects_double_edge(self):
        with pytest.raises(ValueError):
            PartiallyDirectedGraph("ab", directed=[("a", "b")], undirected=[("a", "b")])

    def test_dag_v_structures(self):
        d = Dag("abc", [("a", "c"), ("b", "c")])
        assert v_structures(d) == {("a", "c", "b")}
        chain = Dag("abc", [("a", "b"), ("b", "c")])
        assert v_structures(chain) == set()

    def test_labels_sorted_deterministically(self):
        g = UndirectedGraph(["b", "a", "c"], [("c", "a")])
        assert g.nodes == ("a", "b", "c")
        assert g.edges() == [("a", "c")]


class TestChainComponents:
    def test_two_component_example(self):
        subs = chain_components(CHAIN5)
        assert [sub.nodes for sub in subs] == [("1", "2", "3"), ("4", "5")]
        assert subs[0].edges() == [("1", "2"), ("1", "3"), ("2", "3")]
        assert subs[1].edges() == [("4", "5")]

    def test_fully_directed_gives_singletons(self):
        d = PartiallyDirectedGraph("abc", directed=[("a", "b"), ("b", "c")])
        subs = chain_components(d)
        assert [sub.nodes for sub in subs] == [("a",), ("b",), ("c",)]
        assert all(sub.num_edges() == 0 for sub in subs)

    def test_fully_undirected_connected_is_one_component(self):
        g = PartiallyDirectedGraph("abc", undirected=[("a", "b"), ("b", "c")])
        (sub,) = chain_components(g)
        assert sub.nodes == ("a", "b", "c")
        assert sub.edges() == [("a", "b"), ("b", "c")]

    def test_directed_edge_within_component_rejected(self):
        bad = PartiallyDirectedGraph(
            "abc", directed=[("a", "c")], undirected=[("a", "b"), ("b", "c")]
        )
        with pytest.raises(InvalidChainGraphError):
            chain_components(bad)

    def test_directed_cycle_between_components_rejected(self):
        bad = PartiallyDirectedGraph(
            "abcd",
            directed=[("a", "c"), ("d", "b")],
            undirected=[("a", "b"), ("c", "d")],
        )
        with pytest.raises(InvalidChainGraphError):
            chain_components(bad)

    def test_partition_property_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = random_dag(rng, 7, 0.4)
            cp = dag_to_cpdag(d)
            subs = chain_components(cp)
            assert [sub.nodes for sub in subs] == sorted(sub.nodes for sub in subs)
            all_nodes = [n for sub in subs for n in sub.nodes]
            assert sorted(all_nodes) == sorted(cp.nodes)
            assert len(all_nodes) == len(set(all_nodes))
            comp_of = {n: i for i, sub in enumerate(subs) for n in sub.nodes}
            for u, v in cp.undirected_edges():
                assert comp_of[u] == comp_of[v]
            # each subgraph holds exactly the undirected edges among its nodes
            for sub in subs:
                inside = set(sub.nodes)
                assert sub.edges() == [
                    e for e in cp.undirected_edges() if e[0] in inside and e[1] in inside
                ]




class TestIsDecomposable:
    def test_triangle(self):
        assert is_decomposable(UndirectedGraph("abc", [("a", "b"), ("b", "c"), ("a", "c")]))

    def test_four_cycle_is_not(self):
        c4 = UndirectedGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        assert not is_decomposable(c4)

    def test_trees_are(self):
        assert is_decomposable(UndirectedGraph("12345", TREE5_EDGES))
        path = UndirectedGraph("123", [("1", "2"), ("2", "3")])
        assert is_decomposable(path)

    def test_five_cycle_is_not(self):
        c5 = UndirectedGraph(
            "abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")]
        )
        assert not is_decomposable(c5)

    def test_random_chordal_generator_accepted(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert is_decomposable(random_chordal(rng, int(rng.integers(2, 9))))


class TestEnumerateClass:
    def test_single_edge(self):
        g = UndirectedGraph("uv", [("u", "v")])
        assert len(enumerate_class(g)) == 2

    def test_path_three(self):
        g = UndirectedGraph("123", [("1", "2"), ("2", "3")])
        dags = enumerate_class(g)
        assert len(dags) == 3
        expected = {
            frozenset({("1", "2"), ("2", "3")}),
            frozenset({("3", "2"), ("2", "1")}),
            frozenset({("2", "1"), ("2", "3")}),
        }
        assert {frozenset(d.edges()) for d in dags} == expected

    def test_triangle_and_tree_counts(self):
        tri = UndirectedGraph("123", [("1", "2"), ("2", "3"), ("1", "3")])
        assert len(enumerate_class(tri)) == 6
        g1 = UndirectedGraph("12345", TREE5_EDGES)
        assert len(enumerate_class(g1)) == 5

    def test_complete_graph_counts_factorial(self):
        import math

        for m in (2, 3, 4):
            nodes = [str(i) for i in range(m)]
            g = UndirectedGraph(nodes, itertools.combinations(nodes, 2))
            assert len(enumerate_class(g)) == math.factorial(m)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            g = random_chordal(rng, int(rng.integers(2, 6)))
            ours = {frozenset(d.edges()) for d in enumerate_class(g)}
            oracle = {frozenset(d.edges()) for d in brute_force_class(g)}
            assert ours == oracle

    def test_members_have_skeleton_and_no_v_structures(self):
        g = UndirectedGraph("12345", TREE5_EDGES)
        for d in enumerate_class(g):
            assert UndirectedGraph(d.nodes, d.edges()) == g
            assert not v_structures(d)
            restricted = dag_to_cpdag(d)
            assert restricted.undirected_edges() == g.edges()
            assert restricted.directed_edges() == []

    def test_capacity_error(self):
        nodes = [str(i) for i in range(13)]
        g = UndirectedGraph(nodes, [(nodes[i], nodes[i + 1]) for i in range(12)])
        with pytest.raises(CapacityError):
            enumerate_class(g)

    def test_non_decomposable_rejected(self):
        c4 = UndirectedGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        with pytest.raises(NotDecomposableError):
            enumerate_class(c4)


class TestMeekClosure:
    def test_single_arrow_propagates(self):
        g = PartiallyDirectedGraph("123", directed=[("1", "2")], undirected=[("2", "3")])
        closed = meek_closure(g)
        assert ("2", "3") in closed.directed_edges()

    def test_no_arrows_unchanged(self):
        g = PartiallyDirectedGraph("123", undirected=[("1", "2"), ("2", "3"), ("1", "3")])
        assert meek_closure(g) == g

    def test_g1_rule_one_fires(self):
        # within the five-node tree, fixing 3 -> 2 orients 2 -> 4 (3, 4 nonadjacent)
        g = PartiallyDirectedGraph(
            "12345",
            directed=[("3", "2")],
            undirected=[("1", "3"), ("2", "4"), ("3", "5")],
        )
        closed = meek_closure(g)
        assert ("2", "4") in closed.directed_edges()

    def test_idempotent_and_monotone(self):
        g = PartiallyDirectedGraph(
            "1234",
            directed=[("1", "2")],
            undirected=[("2", "3"), ("3", "4"), ("2", "4")],
        )
        closed = meek_closure(g)
        assert meek_closure(closed) == closed
        assert set(g.directed_edges()) <= set(closed.directed_edges())
        assert _skeleton(closed) == _skeleton(g)

    def test_matches_extension_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            g = random_chordal(rng, int(rng.integers(2, 6)))
            dags = enumerate_class(g)
            d = dags[rng.integers(len(dags))]
            targets = list(
                rng.choice(g.nodes, size=int(rng.integers(1, g.num_nodes() + 1)), replace=False)
            )
            directed, undirected = [], []
            for u, v in g.edges():
                if u in targets or v in targets:
                    directed.append((u, v) if d.has_edge(u, v) else (v, u))
                else:
                    undirected.append((u, v))
            pattern = PartiallyDirectedGraph(g.nodes, directed, undirected)
            closed = meek_closure(pattern)
            assert set(closed.directed_edges()) == brute_force_closure(pattern)

    def test_conflicting_pattern_raises(self):
        # two arrows force both directions on b - c
        g = PartiallyDirectedGraph(
            nodes="abcd",
            directed=[("a", "b"), ("d", "c")],
            undirected=[("b", "c")],
        )
        with pytest.raises(InconsistentOrientationError):
            meek_closure(g)


class TestDagToCpdag:
    def test_single_edge_reversible(self):
        cp = dag_to_cpdag(Dag("uv", [("u", "v")]))
        assert cp.undirected_edges() == [("u", "v")]
        assert cp.directed_edges() == []

    def test_collider_invariant(self):
        cp = dag_to_cpdag(Dag("abc", [("a", "c"), ("b", "c")]))
        assert set(cp.directed_edges()) == {("a", "c"), ("b", "c")}

    def test_chain_fully_undirected(self):
        cp = dag_to_cpdag(Dag("123", [("1", "2"), ("2", "3")]))
        assert cp.directed_edges() == []
        assert cp.undirected_edges() == [("1", "2"), ("2", "3")]

    def test_matches_equivalence_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            d = random_dag(rng, int(rng.integers(2, 7)), 0.45)
            cp = dag_to_cpdag(d)
            vs = v_structures(d)
            members = []
            edges = UndirectedGraph(d.nodes, d.edges()).edges()
            for mask in itertools.product([0, 1], repeat=len(edges)):
                oriented = [(u, v) if m == 0 else (v, u) for (u, v), m in zip(edges, mask)]
                try:
                    cand = Dag(d.nodes, oriented)
                except ValueError:
                    continue
                if v_structures(cand) == vs:
                    members.append(set(cand.edges()))
            compelled = set.intersection(*members)
            reversible = {e for m in members for e in m} - compelled
            assert set(cp.directed_edges()) == compelled
            assert {tuple(sorted(e)) for e in cp.undirected_edges()} == {
                tuple(sorted(e)) for e in reversible
            }


class TestEdgeListFormat:
    def test_round_trip(self):
        text = "# comment\n1 -- 2\n2 -> 4\n5\n"
        g = parse_edge_list(text)
        assert g.nodes == ("1", "2", "4", "5")
        assert g.undirected_edges() == [("1", "2")]
        assert g.directed_edges() == [("2", "4")]
        assert parse_edge_list(format_edge_list(g)) == g

    def test_reverse_arrow(self):
        g = parse_edge_list("a <- b\n")
        assert g.directed_edges() == [("b", "a")]

    def test_malformed_line_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("1 -- 2 -- 3\n")
        with pytest.raises(GraphFormatError):
            parse_edge_list("1 => 2\n")
