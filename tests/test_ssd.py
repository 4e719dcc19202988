"""Tests for evidence probabilities, optimal sizes, and plan assembly."""

import itertools
import math
import os

import numpy as np
import pytest

from causal_ssd.design import EdgeHypothesisPrior, optimal_sequences
from causal_ssd.graph import Dag, PartiallyDirectedGraph, chain_components
from causal_ssd.harness import DatasetMatrix, LinearSemSpec, generate_sem_data
from causal_ssd.numerics import RandomStream
from causal_ssd.predictive import BfPredictiveSample, InterventionDensity, build_design_posterior
from causal_ssd.ssd import (
    DceThresholds,
    EdgeSsdResult,
    dce_probabilities,
    h0_band_probabilities,
    optimal_n_edge,
    optimal_n_node,
    plan_cpdag,
)

from helpers import CHAIN5, matmul_sample_wishart, reference_sample_bf_h1

F_U = InterventionDensity()
HALF = EdgeHypothesisPrior(u="u", v="v", p_h0=0.5, p_h1=0.5)


def two_node_dataset(seed=3, n_rows=50, beta=0.5):
    rng = np.random.default_rng(seed)
    zu = rng.standard_normal(n_rows)
    zv = beta * zu + rng.standard_normal(n_rows)
    return DatasetMatrix(labels=("u", "v"), values=np.column_stack([zu, zv]))


def two_node_posterior(seed=3, n_rows=50, beta=0.5):
    data = two_node_dataset(seed, n_rows, beta)
    return build_design_posterior(data.values, 1.0, labels=data.labels)


def fig1_dataset(seed=0, n_rows=80):
    dag = Dag(
        "12345",
        [("1", "2"), ("1", "3"), ("2", "3"), ("2", "4"), ("2", "5"), ("4", "5")],
    )
    sem = LinearSemSpec(
        dag=dag,
        coefficients={e: 0.6 for e in dag.edges()},
        noise_sd={n: 1.0 for n in dag.nodes},
    )
    return generate_sem_data(sem, n_rows, RandomStream(seed))


class TestDceThresholds:
    def test_defaults(self):
        th = DceThresholds()
        assert (th.k0, th.k1, th.zeta) == (6.0, 6.0, 0.8)

    @pytest.mark.parametrize("bad", [{"k0": 1.0}, {"k1": 0.5}, {"zeta": 0.0}, {"zeta": 1.0}])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            DceThresholds(**bad)


class TestDceProbabilities:
    def test_h0_triple_partitions_exactly(self):
        th = DceThresholds(k0=6.0, k1=6.0, zeta=0.8)
        for n in (2, 30, 57, 400):
            p_dc, p_inc, p_mis = h0_band_probabilities(th, n)
            # exact up to one ulp of re-association
            assert p_dc + p_inc + p_mis == pytest.approx(1.0, abs=1e-15)
            assert min(p_dc, p_inc, p_mis) >= 0.0

    def test_degenerate_prior_reduces_to_h0(self):
        prior = EdgeHypothesisPrior(u="u", v="v", p_h0=1.0, p_h1=0.0)
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.8)
        dce = dce_probabilities(
            "u", "v", th, 50, prior, two_node_posterior(), F_U, draws=500, stream=RandomStream(1)
        )
        assert dce.overall_dc == dce.p0_dc

    def test_band_above_ceiling_is_zero(self):
        th = DceThresholds(k0=10.0, k1=10.0, zeta=0.8)
        dce = dce_probabilities(
            "u", "v", th, 100, HALF, two_node_posterior(), F_U, draws=500, stream=RandomStream(2)
        )
        assert dce.p0_dc == 0.0

    def test_mixture_bounds_and_h1_sums(self):
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.8)
        dce = dce_probabilities(
            "u", "v", th, 40, HALF, two_node_posterior(), F_U, draws=4000, stream=RandomStream(3)
        )
        assert dce.p1_dc + dce.p1_inc + dce.p1_mis == pytest.approx(1.0, abs=1e-12)
        lo, hi = sorted((dce.p0_dc, dce.p1_dc))
        assert lo <= dce.overall_dc <= hi
        assert dce.mc_se["overall_dc"] == pytest.approx(
            0.5 * math.sqrt(dce.p1_dc * (1 - dce.p1_dc) / 4000)
        )

    def test_two_node_crossing_overall(self):
        # representative regenerated data: the k=3 overall probability is
        # high around n = 50 and comfortably above 0.8 by n = 100
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.8)
        post = two_node_posterior()
        at50 = dce_probabilities("u", "v", th, 50, HALF, post, F_U, 4000, RandomStream(4))
        at100 = dce_probabilities("u", "v", th, 100, HALF, post, F_U, 4000, RandomStream(5))
        assert at50.overall_dc >= 0.70
        assert at100.overall_dc >= 0.80


class TestOptimalNEdge:
    def test_low_target_crosses_immediately(self):
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.05)
        res = optimal_n_edge(
            "u", "v", th, HALF, two_node_posterior(), F_U,
            n_max=50, draws=1000, stream=RandomStream(6),
        )
        assert res.n_star == 2
        assert res.dce_at_n_star.overall_dc >= 0.05

    def test_two_node_study_k3(self):
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.8)
        res = optimal_n_edge(
            "u", "v", th, HALF, two_node_posterior(), F_U,
            n_max=200, draws=2000, stream=RandomStream(7),
        )
        assert res.achieved
        assert 25 <= res.n_star <= 95

    def test_matches_first_crossing_of_reproducible_curve(self):
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        post = two_node_posterior()
        stream = RandomStream(8)
        res = optimal_n_edge("u", "v", th, HALF, post, F_U, n_max=60, draws=800, stream=stream)
        crossing = None
        for n in range(2, 61):
            dce = dce_probabilities("u", "v", th, n, HALF, post, F_U, 800, stream)
            if dce.overall_dc >= th.zeta:
                crossing = n
                break
        assert res.n_star == crossing

    def test_h0_bands_computed_once_per_scanned_n(self, monkeypatch):
        import causal_ssd.ssd as ssd_mod

        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        post = two_node_posterior()
        scanned = []
        real = ssd_mod.h0_band_probabilities

        def counting(thresholds, n):
            scanned.append(n)
            return real(thresholds, n)

        monkeypatch.setattr(ssd_mod, "h0_band_probabilities", counting)
        res = optimal_n_edge(
            "u", "v", th, HALF, post, F_U, n_max=60, draws=800, stream=RandomStream(8)
        )
        assert res.achieved
        assert scanned == list(range(2, res.n_star + 1))
        monkeypatch.undo()
        # the reused bands give the same floats as a fresh assembly
        fresh = dce_probabilities("u", "v", th, res.n_star, HALF, post, F_U, 800, RandomStream(8))
        assert res.dce_at_n_star.to_dict() == fresh.to_dict()

    def test_pair_parameters_built_once_per_scan(self, monkeypatch):
        import causal_ssd.predictive as predictive_mod
        import causal_ssd.ssd as ssd_mod

        built, evaluated = [], []
        real_params, real_sample = predictive_mod.WishartParams, ssd_mod.sample_bf_h1

        def counting_params(df, rate):
            built.append(df)
            return real_params(df, rate)

        def counting_sample(edge, n):
            evaluated.append(n)
            return real_sample(edge, n)

        monkeypatch.setattr(predictive_mod, "WishartParams", counting_params)
        monkeypatch.setattr(ssd_mod, "sample_bf_h1", counting_sample)
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        res = optimal_n_edge(
            "u", "v", th, HALF, two_node_posterior(), F_U, n_max=60, draws=200,
            stream=RandomStream(8),
        )
        assert res.achieved and len(evaluated) > 5
        assert len(built) == 1

    def test_edge_draw_made_once_per_edge_task(self, monkeypatch):
        import causal_ssd.ssd as ssd_mod

        drawn, evaluated = [], []
        real_draw, real_sample = ssd_mod.draw_h1_edge, ssd_mod.sample_bf_h1

        def counting_draw(posterior, u, v, f_u, draws, stream):
            drawn.append((u, v))
            return real_draw(posterior, u, v, f_u, draws, stream)

        def counting_sample(edge, n):
            evaluated.append(n)
            return real_sample(edge, n)

        monkeypatch.setattr(ssd_mod, "draw_h1_edge", counting_draw)
        monkeypatch.setattr(ssd_mod, "sample_bf_h1", counting_sample)
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        res = optimal_n_edge(
            "u", "v", th, HALF, two_node_posterior(), F_U, n_max=60, draws=200,
            stream=RandomStream(8),
        )
        assert res.achieved and len(evaluated) > 5
        assert drawn == [("u", "v")]
        # no draw when the exact H0 bound lets no n through
        drawn.clear()
        capped = DceThresholds(k0=10.0, k1=10.0, zeta=0.99)
        res = optimal_n_edge(
            "u", "v", capped, HALF, two_node_posterior(), F_U, n_max=30, draws=200,
            stream=RandomStream(8),
        )
        assert not res.achieved and drawn == []
        # a plan draws once per edge task: every ordered edge of the triangle
        # {1, 2, 3} and of the pair {4, 5} of CHAIN5
        drawn.clear()
        plans = plan_cpdag(CHAIN5, fig1_dataset(), th, F_U, RandomStream(22), n_max=100, draws=200)
        assert all(c.feasible for c in plans)
        assert sorted(drawn) == sorted(
            (u, v) for u, v in itertools.permutations("12345", 2)
            if {u, v} <= set("123") or {u, v} == set("45")
        )

    def test_not_achievable_marker(self):
        th = DceThresholds(k0=10.0, k1=10.0, zeta=0.99)
        res = optimal_n_edge(
            "u", "v", th, HALF, two_node_posterior(), F_U,
            n_max=30, draws=500, stream=RandomStream(9),
        )
        assert res.n_star is None
        assert res.dce_at_n_star is None
        assert not res.achieved

    def test_monotone_in_zeta(self):
        post = two_node_posterior()
        stream = RandomStream(10)
        sizes = {}
        for zeta in (0.5, 0.7, 0.8):
            th = DceThresholds(k0=3.0, k1=3.0, zeta=zeta)
            sizes[zeta] = optimal_n_edge(
                "u", "v", th, HALF, post, F_U, n_max=300, draws=2000, stream=stream
            ).n_star
        assert sizes[0.5] <= sizes[0.7] <= sizes[0.8]


class TestOptimalNNode:
    def _result(self, n_star):
        return EdgeSsdResult(edge=("u", "v"), p_h0=0.5, n_star=n_star, dce_at_n_star=None, n_max=100)

    def test_single_neighbor(self):
        assert optimal_n_node("u", [self._result(17)]) == 17

    def test_max_over_neighbors(self):
        assert optimal_n_node("u", [self._result(28), self._result(88)]) == 88

    def test_not_achievable_propagates(self):
        assert optimal_n_node("u", [self._result(28), self._result(None)]) is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            optimal_n_node("u", [])


class TestPlanCpdag:
    def test_fig1_two_components_planned(self):
        data = fig1_dataset()
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        results = plan_cpdag(
            CHAIN5, data, th, f_u=F_U, stream=RandomStream(15), n_max=300, draws=1200
        )
        assert [r.component for r in results] == [("1", "2", "3"), ("4", "5")]
        triangle = results[0]
        assert triangle.error is None
        # a triangle needs two targets; both optimal sequences are planned
        assert [p.sequence.targets for p in triangle.plans] == [
            ("1", "2"), ("1", "3"), ("2", "3"),
        ]
        pair = results[1]
        assert [p.sequence.targets for p in pair.plans] == [("4",), ("5",)]
        for r in results:
            flagged = [p for p in r.plans if p.bos]
            if r.feasible:
                assert len(flagged) == 1
                best = flagged[0]
                assert all(
                    best.total_n <= p.total_n for p in r.plans if p.achieved
                )

    def test_two_node_single_target(self):
        cp = PartiallyDirectedGraph("uv", undirected=[("u", "v")])
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        (result,) = plan_cpdag(cp, two_node_dataset(), th, stream=RandomStream(11), n_max=150, draws=1500)
        assert [p.sequence.targets for p in result.plans] == [("u",), ("v",)]
        for plan, (u, v) in zip(result.plans, [("u", "v"), ("v", "u")]):
            (edge_result,) = plan.edge_results[u]
            assert edge_result.edge == (u, v)
            assert plan.achieved
            assert plan.node_sizes[u] == edge_result.n_star
            assert plan.total_n == edge_result.n_star

    def test_node_size_is_max_and_total_is_sum(self):
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        results = plan_cpdag(
            CHAIN5, fig1_dataset(), th, f_u=F_U, stream=RandomStream(13), n_max=250, draws=1200
        )
        decomposition = chain_components(CHAIN5)
        subgraphs = dict(zip(decomposition.components, decomposition.subgraphs))
        checked = 0
        for r in results:
            sub = subgraphs[r.component]
            for plan in r.plans:
                for u in plan.sequence.targets:
                    edge_results = plan.edge_results[u]
                    assert [e.edge for e in edge_results] == [(u, v) for v in sub.neighbors(u)]
                    if all(e.achieved for e in edge_results):
                        assert plan.node_sizes[u] == max(e.n_star for e in edge_results)
                        checked += 1
                    else:
                        assert plan.node_sizes[u] is None
                if plan.achieved:
                    assert plan.total_n == sum(plan.node_sizes.values())
        assert checked > 0

    def test_min_total_flagged(self):
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        results = plan_cpdag(
            CHAIN5, fig1_dataset(), th, f_u=F_U, stream=RandomStream(13), n_max=250, draws=1200
        )
        for r in results:
            assert r.feasible
            achieved = [p for p in r.plans if p.achieved]
            best = min(achieved, key=lambda p: (p.total_n, p.sequence.canonical().targets))
            assert [p.bos for p in r.plans] == [p is best for p in r.plans]

    def test_no_plan_flagged_when_no_sequence_achieved(self):
        th = DceThresholds(k0=10.0, k1=10.0, zeta=0.99)
        results = plan_cpdag(
            CHAIN5, fig1_dataset(), th, f_u=F_U, stream=RandomStream(13), n_max=30, draws=200
        )
        assert results and all(r.error is None and r.plans for r in results)
        for r in results:
            assert not r.feasible
            assert not any(p.achieved or p.bos for p in r.plans)

    def test_all_singletons_empty(self):
        cp = PartiallyDirectedGraph("abc", directed=[("a", "b"), ("b", "c")])
        data = DatasetMatrix(
            labels=("a", "b", "c"), values=np.random.default_rng(16).standard_normal((10, 3))
        )
        assert plan_cpdag(cp, data, DceThresholds(), stream=RandomStream(17)) == []

    def test_component_errors_isolated(self):
        # data lacks the columns of one component; the other is still planned
        cp = PartiallyDirectedGraph(
            "abcd", undirected=[("a", "b"), ("c", "d")]
        )
        rng = np.random.default_rng(18)
        data = DatasetMatrix(labels=("a", "b"), values=rng.standard_normal((40, 2)))
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.5)
        results = plan_cpdag(cp, data, th, stream=RandomStream(19), n_max=150, draws=800)
        by_comp = {r.component: r for r in results}
        assert by_comp[("c", "d")].error is not None
        assert "missing" in by_comp[("c", "d")].error or "columns" in by_comp[("c", "d")].error
        assert by_comp[("a", "b")].error is None
        assert by_comp[("a", "b")].plans

    def test_capacity_error_reported_per_component(self):
        big = [f"n{i}" for i in range(13)]
        cp = PartiallyDirectedGraph(
            big + ["x", "y"],
            undirected=list(itertools.combinations(big, 2)) + [("x", "y")],
        )
        rng = np.random.default_rng(20)
        data = DatasetMatrix(labels=tuple(big + ["x", "y"]), values=rng.standard_normal((40, 15)))
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.5)
        results = plan_cpdag(cp, data, th, stream=RandomStream(21), n_max=100, draws=500)
        by_size = {len(r.component): r for r in results}
        assert by_size[13].error is not None
        assert by_size[2].error is None

    def test_class_never_enumerated_and_search_runs_no_closure(self, monkeypatch):
        import causal_ssd.design as design_mod
        import causal_ssd.graph as graph_mod
        import causal_ssd.ssd as ssd_mod

        enumerated = []
        closures = []
        real_enumerate = graph_mod.enumerate_class
        real_closure = graph_mod.meek_closure

        def counting_enumerate(g, *args, **kwargs):
            enumerated.append(g.nodes)
            return real_enumerate(g, *args, **kwargs)

        def counting_closure(g):
            closures.append(g)
            return real_closure(g)

        for module in (graph_mod, design_mod, ssd_mod):
            monkeypatch.setattr(module, "enumerate_class", counting_enumerate)
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        results = plan_cpdag(
            CHAIN5, fig1_dataset(), th, f_u=F_U, stream=RandomStream(15), n_max=150, draws=400
        )
        assert all(r.error is None for r in results)
        assert enumerated == []
        # the class count closes rooted patterns; the vertex-cover search does not
        for module in (graph_mod, design_mod):
            monkeypatch.setattr(module, "meek_closure", counting_closure)
        for sub in chain_components(CHAIN5).subgraphs:
            optimal_sequences(sub)
        assert closures == []

    def test_ten_clique_prior_counted_without_enumeration(self, monkeypatch):
        import causal_ssd.design as design_mod
        import causal_ssd.graph as graph_mod
        import causal_ssd.ssd as ssd_mod

        def no_enumeration(g, *args, **kwargs):
            raise AssertionError("the class must not be enumerated")

        for module in (graph_mod, design_mod, ssd_mod):
            monkeypatch.setattr(module, "enumerate_class", no_enumeration)
        # the class has 10! = 3,628,800 members
        nodes = [f"n{i}" for i in range(10)]
        cp = PartiallyDirectedGraph(nodes, undirected=itertools.combinations(nodes, 2))
        rng = np.random.default_rng(24)
        data = DatasetMatrix(labels=tuple(nodes), values=rng.standard_normal((60, 10)))
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        (result,) = plan_cpdag(cp, data, th, stream=RandomStream(25), n_max=20, draws=200)
        assert result.error is None
        priors = {
            r.edge: r.p_h0
            for plan in result.plans
            for edge_results in plan.edge_results.values()
            for r in edge_results
        }
        assert len(priors) == 90
        assert set(priors.values()) == {0.5}

    def test_plan_unchanged_under_matmul_wishart_oracle(self, monkeypatch):
        import causal_ssd.ssd as ssd_mod

        def oracle_draw_h1_edge(*args):
            return args  # the oracle draws everything again at each n

        def oracle_sample_bf_h1(edge_args, n):
            posterior, u, v, f_u, draws, stream = edge_args
            bf = reference_sample_bf_h1(
                posterior, u, v, f_u, n, draws, stream, wishart=matmul_sample_wishart
            )
            return BfPredictiveSample(hypothesis="H1", n=n, draws=bf, stream=stream.child(n))

        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        kwargs = dict(f_u=F_U, stream=RandomStream(23), n_max=300, draws=2000)
        fast = plan_cpdag(CHAIN5, fig1_dataset(), th, **kwargs)
        monkeypatch.setattr(ssd_mod, "draw_h1_edge", oracle_draw_h1_edge)
        monkeypatch.setattr(ssd_mod, "sample_bf_h1", oracle_sample_bf_h1)
        oracle = plan_cpdag(CHAIN5, fig1_dataset(), th, **kwargs)
        assert all(r.error is None and r.feasible for r in fast)
        assert [r.to_dict() for r in fast] == [r.to_dict() for r in oracle]

    def test_pool_capped_by_tasks_and_cpus(self, monkeypatch):
        import causal_ssd.ssd as ssd_mod

        pool_sizes = []

        class SerialPool:
            """Records the requested pool size and maps in this process."""

            def __init__(self, max_workers):
                pool_sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        kwargs = dict(f_u=F_U, stream=RandomStream(22), n_max=100, draws=200)
        serial = plan_cpdag(CHAIN5, fig1_dataset(), th, workers=1, **kwargs)
        monkeypatch.setattr(ssd_mod, "ProcessPoolExecutor", SerialPool)
        capped = plan_cpdag(CHAIN5, fig1_dataset(), th, workers=10**6, **kwargs)
        # every ordered edge of the triangle and of the pair is one task
        assert pool_sizes == [min(8, os.cpu_count() or 1)]
        assert [r.to_dict() for r in capped] == [r.to_dict() for r in serial]

    def test_h0_bands_memoized_across_edges(self, monkeypatch):
        import causal_ssd.ssd as ssd_mod

        data = fig1_dataset()
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        kwargs = dict(f_u=F_U, stream=RandomStream(22), n_max=200, draws=600)
        calls = []
        real = ssd_mod.prob_bf_band_h0

        def counting(lo, hi, n):
            calls.append(n)
            return real(lo, hi, n)

        ssd_mod.h0_band_probabilities.cache_clear()
        monkeypatch.setattr(ssd_mod, "prob_bf_band_h0", counting)
        memoized = plan_cpdag(CHAIN5, data, th, **kwargs)
        edges = [
            r
            for comp in memoized
            for plan in comp.plans
            for results in plan.edge_results.values()
            for r in results
        ]
        assert len({r.edge for r in edges}) > 1
        # every edge scans n = 2, 3, ... up to its crossing (or n_max)
        last = max(r.n_star if r.achieved else r.n_max for r in edges)
        assert sorted(calls) == sorted(2 * list(range(2, last + 1)))
        unmemoized = ssd_mod.h0_band_probabilities.__wrapped__
        monkeypatch.setattr(ssd_mod, "h0_band_probabilities", unmemoized)
        bypassed = plan_cpdag(CHAIN5, data, th, **kwargs)
        assert len(calls) > 2 * (last - 1)
        assert [c.to_dict() for c in memoized] == [c.to_dict() for c in bypassed]

    def test_workers_do_not_change_results(self):
        data = fig1_dataset()
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        kwargs = dict(f_u=F_U, n_max=200, draws=600)
        serial = plan_cpdag(CHAIN5, data, th, stream=RandomStream(22), workers=1, **kwargs)
        parallel = plan_cpdag(CHAIN5, data, th, stream=RandomStream(22), workers=2, **kwargs)
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]
