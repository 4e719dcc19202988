"""Tests for evidence probabilities, optimal sizes, and plan assembly."""

import copy
import itertools
import json
import math
import os
import re
import threading
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from causal_ssd.design import prior_h0
from causal_ssd.graph import PartiallyDirectedGraph, chain_components
from causal_ssd.numerics import RandomStream
from causal_ssd.predictive import (
    H1_BLOCK,
    H1_BYTES_PER_DRAW,
    MAX_DRAWS,
    BfPredictiveSample,
    DatasetMatrix,
    InsufficientDataError,
    InterventionDensity,
    build_design_posterior,
    draw_h1_edge,
)
from causal_ssd.ssd import (
    DCE_CURVE_COLUMNS,
    DceThresholds,
    RunConfig,
    assemble_dce,
    dce_curve,
    dce_curve_row,
    edge_stream,
    fork_map,
    h0_band_probabilities,
    h1_band_counts,
    optimal_n_edge,
    plan_cpdag,
    plan_entry,
    reaches_zeta,
)

from helpers import (
    CHAIN5,
    dce_probabilities,
    deadline,
    decisive_draws_needed,
    linear_scan_optimal_n_edge,
    linear_sem_data,
    matmul_sample_wishart,
    plan_from_stars,
    reference_sample_bf_h1,
)

F_U = InterventionDensity()
HALF = 0.5


def two_node_dataset(seed=3, n_rows=50, beta=0.5):
    rng = np.random.default_rng(seed)
    zu = rng.standard_normal(n_rows)
    zv = beta * zu + rng.standard_normal(n_rows)
    return DatasetMatrix(labels=("u", "v"), values=np.column_stack([zu, zv]))


def two_node_posterior(seed=3, n_rows=50, beta=0.5):
    return build_design_posterior(two_node_dataset(seed, n_rows, beta), 1.0)


def readme_edge_keys():
    """The keys of the per-edge results that README.md lists for ``plan.json``."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        (keys,) = re.findall(r"per-edge results `\{([^}]*)\}`", " ".join(fh.read().split()))
    return {key.strip() for key in keys.split(",")}


def check_edge_entry(e):
    """An ``optimal_n_edge`` result is the printed edge entry."""
    assert set(e) == readme_edge_keys() and len(e) == 8
    assert json.loads(json.dumps(e)) == e
    if e["achieved"]:
        assert e["se_overall"] == e["dce_at_n_star"]["mc_se"]["overall_dc"]
    else:
        assert e["n_star"] is e["dce_at_n_star"] is e["se_overall"] is None


def fig1_dataset(seed=0, n_rows=80):
    arrows = [("1", "2"), ("1", "3"), ("2", "3"), ("2", "4"), ("2", "5"), ("4", "5")]
    return linear_sem_data("12345", {e: 0.6 for e in arrows}, n_rows, RandomStream(seed))


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

    @staticmethod
    def counted_bands(monkeypatch):
        """An empty memo, and the n of every ``prob_bf_band_h0`` call it makes."""
        import causal_ssd.ssd as ssd_mod

        real = ssd_mod.prob_bf_band_h0
        calls = []

        def counting(lo, hi, n):
            calls.append(n)
            return real(lo, hi, n)

        ssd_mod._h0_bands.cache_clear()
        monkeypatch.setattr(ssd_mod, "prob_bf_band_h0", counting)
        return calls

    def test_h0_band_memo_holds_a_whole_scan(self, monkeypatch):
        # a scan longer than a memo of 4,096 entries: each (k0, k1, n) is
        # computed once, and a second scan finds every n still held
        import causal_ssd.ssd as ssd_mod

        th = DceThresholds(k0=5.0, k1=7.0, zeta=0.8)
        calls = self.counted_bands(monkeypatch)
        grid = range(2, 6001)
        first = [h0_band_probabilities(th, n) for n in grid]
        assert calls == [n for n in grid for _ in range(2)]
        calls.clear()
        assert [h0_band_probabilities(th, n) for n in grid] == first
        assert calls == []
        assert ssd_mod._h0_bands.cache_info().currsize == len(grid)
        # other thresholds are other entries
        h0_band_probabilities(DceThresholds(k0=7.0, k1=5.0, zeta=0.8), 2)
        assert calls == [2, 2]

    def test_h0_band_memo_shared_by_every_zeta(self, monkeypatch):
        # the bands depend on (k0, k1) and n, not on zeta: a sweep over zeta
        # computes them once, and a zeta seen again finds them still held
        import causal_ssd.ssd as ssd_mod

        calls = self.counted_bands(monkeypatch)
        grid = range(2, 301)
        first = [h0_band_probabilities(DceThresholds(6.0, 6.0, 0.5), n) for n in grid]
        assert len(calls) == 2 * len(grid)
        calls.clear()
        for zeta in (0.6, 0.7, 0.8, 0.9, 0.5):
            th = DceThresholds(6.0, 6.0, zeta)
            assert [h0_band_probabilities(th, n) for n in grid] == first
        assert calls == []
        assert ssd_mod._h0_bands.cache_info().currsize == len(grid)

    def test_h0_band_memo_bounded_past_its_cap(self, monkeypatch):
        # a scan past H0_BAND_POINTS keeps the last H0_BAND_POINTS of its n,
        # and its values are those of the unmemoized bands
        import causal_ssd.ssd as ssd_mod

        th = DceThresholds(k0=6.0, k1=6.0, zeta=0.8)
        real = ssd_mod.prob_bf_band_h0
        calls = self.counted_bands(monkeypatch)
        cap = ssd_mod.H0_BAND_POINTS
        grid = range(2, cap + 300)
        scanned = [h0_band_probabilities(th, n) for n in grid]
        assert ssd_mod._h0_bands.cache_info().currsize == cap
        assert calls == [n for n in grid for _ in range(2)]
        for n, bands in zip(grid, scanned):
            p0_dc, p0_mis = real(th.k0, math.inf, n), real(0.0, 1.0 / th.k1, n)
            assert bands == (p0_dc, 1.0 - p0_dc - p0_mis, p0_mis), n
        # the least recently used went first: the scan's last n are held
        calls.clear()
        tail = grid[-cap:]
        assert [h0_band_probabilities(th, n) for n in tail] == scanned[-cap:]
        assert calls == []
        assert h0_band_probabilities(th, 2) == scanned[0]
        assert calls == [2, 2] and ssd_mod._h0_bands.cache_info().currsize == cap

    def test_degenerate_prior_reduces_to_h0(self):
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.8)
        dce = dce_probabilities(
            "u", "v", th, 50, 1.0, two_node_posterior(), F_U, draws=500, stream=RandomStream(1)
        )
        assert dce["overall_dc"] == dce["p0_dc"]

    def test_band_above_ceiling_is_zero(self):
        th = DceThresholds(k0=10.0, k1=10.0, zeta=0.8)
        dce = dce_probabilities(
            "u", "v", th, 100, HALF, two_node_posterior(), F_U, draws=500, stream=RandomStream(2)
        )
        assert dce["p0_dc"] == 0.0

    def test_mixture_bounds_and_h1_sums(self):
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.8)
        dce = dce_probabilities(
            "u", "v", th, 40, HALF, two_node_posterior(), F_U, draws=4000, stream=RandomStream(3)
        )
        assert dce["p1_dc"] + dce["p1_inc"] + dce["p1_mis"] == pytest.approx(1.0, abs=1e-12)
        lo, hi = sorted((dce["p0_dc"], dce["p1_dc"]))
        assert lo <= dce["overall_dc"] <= hi
        assert dce["mc_se"]["overall_dc"] == pytest.approx(
            0.5 * math.sqrt(dce["p1_dc"] * (1 - dce["p1_dc"]) / 4000)
        )

    def test_two_node_crossing_overall(self):
        # representative regenerated data: the k=3 overall probability is
        # high around n = 50 and comfortably above 0.8 by n = 100
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.8)
        post = two_node_posterior()
        at50 = dce_probabilities("u", "v", th, 50, HALF, post, F_U, 4000, RandomStream(4))
        at100 = dce_probabilities("u", "v", th, 100, HALF, post, F_U, 4000, RandomStream(5))
        assert at50["overall_dc"] >= 0.70
        assert at100["overall_dc"] >= 0.80


# the prior p(H0) of an edge: the two degenerate ends and any value between
P_H0 = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
# below one block, exactly one block, and three and five blocks, the last one partial
H1_DRAWS = st.sampled_from([H1_BLOCK // 3, H1_BLOCK, 2 * H1_BLOCK + 37, 4 * H1_BLOCK + 501])


class TestDecisiveDrawsNeeded:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        p0_dc=st.floats(0.0, 1.0),
        p_h0=P_H0,
        draws=st.integers(1, 3 * H1_BLOCK),
        crossing=st.floats(0.0, 1.0),
        offset=st.integers(-1, 1),
    )
    def test_smallest_count_that_assemble_dce_lets_reach_zeta(
        self, p0_dc, p_h0, draws, crossing, offset
    ):
        # zeta is the mixture at some count, or a float next to it, so the
        # boundary is often met exactly
        at = round(crossing * draws)
        zeta = p_h0 * p0_dc + (1.0 - p_h0) * (at / draws)
        zeta = float(np.nextafter(zeta, offset * math.inf)) if offset else zeta
        assume(0.0 < zeta < 1.0)
        th = DceThresholds(k0=4.0, k1=4.0, zeta=zeta)
        bands = (p0_dc, 0.0, 1.0 - p0_dc)
        need = decisive_draws_needed(bands, th, p_h0, draws)
        assert 0 <= need <= draws + 1
        # the one reach test of optimal_n_edge fails exactly below the oracle's count
        reached = [reaches_zeta(th, p_h0, p0_dc, hits, draws) for hits in range(draws + 1)]
        assert reached == [hits >= need for hits in range(draws + 1)]
        for count in range(max(need - 2, 0), min(need + 2, draws) + 1):
            # ``count`` draws on the cut itself, the rest inconclusive
            values = np.r_[np.full(count, 1.0 / th.k1), np.ones(draws - count)]
            sample = BfPredictiveSample(hypothesis="H1", n=2, draws=values)
            dce = assemble_dce(bands, p_h0, h1_band_counts(sample, th), draws)
            assert (dce["overall_dc"] >= zeta) == (count >= need), count


class TestDceCurve:
    @pytest.mark.parametrize("n_max", [1, 0, 3.0, 2.5, True, None])
    def test_n_max_not_an_integer_of_at_least_two_rejected(self, n_max):
        # as in RunConfig: before, 1 gave an empty curve and 3.0 a TypeError
        h1 = draw_h1_edge(two_node_posterior(), "u", "v", F_U, 200, RandomStream(9))
        with pytest.raises(ValueError, match="^n_max must be an integer >= 2"):
            dce_curve(h1, [DceThresholds()], HALF, n_max)

    @pytest.mark.parametrize("mean, sd", [(1e200, 1.0), (1e200, 1e-200)])
    def test_noncentrality_not_a_finite_float_rejected_at_the_call(self, mean, sd, monkeypatch):
        # before, the first raised OverflowError from a point and the second
        # gave nan points
        import causal_ssd.ssd as ssd_mod

        def no_point(*args):
            raise AssertionError("a point was evaluated")

        monkeypatch.setattr(ssd_mod, "fork_map", no_point)
        f_u = InterventionDensity(mean, sd)
        h1 = draw_h1_edge(two_node_posterior(), "u", "v", f_u, 200, RandomStream(9))
        with pytest.raises(ValueError, match="noncentrality .* at n = 40 is not a finite float"):
            dce_curve(h1, [DceThresholds()], HALF, 40)

    def test_points_evaluated_at_the_call(self, monkeypatch):
        # every H1 sample is drawn once, in the call, and each thresholds
        # gets its rows for n = 2, ..., n_max from it
        import causal_ssd.ssd as ssd_mod

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        real_sample = ssd_mod.sample_bf_h1
        sampled = []
        monkeypatch.setattr(ssd_mod, "sample_bf_h1",
                            lambda edge, n: sampled.append(n) or real_sample(edge, n))
        h1 = draw_h1_edge(two_node_posterior(), "u", "v", F_U, 200, RandomStream(9))
        thresholds = [DceThresholds(), DceThresholds(k0=3.0, k1=3.0)]
        curves = dce_curve(h1, thresholds, HALF, 40)
        assert sampled == list(range(2, 41))
        assert [[row[0] for row in rows] for rows in curves] == [list(range(2, 41))] * 2

    @pytest.mark.parametrize("name, bad, error, pattern", [
        ("h1", None, TypeError, "^h1 must be a "),
        ("thresholds", [DceThresholds(), (6.0, 6.0, 0.8)], TypeError,
         r"^thresholds\[1\] must be a "),
        ("p_h0", True, ValueError, "^p_h0 must be a number, not a bool"),
    ])
    def test_inputs_checked_at_the_call(self, name, bad, error, pattern, monkeypatch):
        # before, h1=None raised AttributeError at h1.f_u, a tuple thresholds
        # AttributeError from inside every point, and the bool True was
        # taken as p_h0 = 1
        import causal_ssd.ssd as ssd_mod

        def no_point(*args):
            raise AssertionError("a point was evaluated")

        monkeypatch.setattr(ssd_mod, "fork_map", no_point)
        h1 = draw_h1_edge(two_node_posterior(), "u", "v", F_U, 200, RandomStream(9))
        args = dict(h1=h1, thresholds=[DceThresholds()], p_h0=HALF, n_max=5)
        args[name] = bad
        with pytest.raises(error, match=pattern):
            dce_curve(**args)

    @pytest.mark.parametrize("p_h0", [2.0, -0.1, math.nan])
    def test_p_h0_outside_the_unit_interval_rejected_at_the_call(self, p_h0, monkeypatch):
        # as in optimal_n_edge: before, 2.0 gave overall_dc values below 0
        import causal_ssd.ssd as ssd_mod

        def no_point(*args):
            raise AssertionError("a point was evaluated")

        monkeypatch.setattr(ssd_mod, "fork_map", no_point)
        h1 = draw_h1_edge(two_node_posterior(), "u", "v", F_U, 200, RandomStream(9))
        with pytest.raises(ValueError, match=r"^p_h0 must lie in \[0, 1\]"):
            dce_curve(h1, [DceThresholds()], p_h0, 5)


class TestOptimalNEdge:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        k0=st.floats(1.5, 12.0),
        k1=st.floats(1.5, 12.0),
        zeta=st.floats(0.05, 0.95),
        p_h0=P_H0,
        draws=H1_DRAWS,
        n_max=st.integers(2, 150),
        seed=st.integers(0, 2**16),
    )
    def test_equals_full_sample_linear_scan(self, k0, k1, zeta, p_h0, draws, n_max, seed):
        import causal_ssd.ssd as ssd_mod

        th = DceThresholds(k0=k0, k1=k1, zeta=zeta)
        post = two_node_posterior()
        args = ("u", "v", th, p_h0, post, RunConfig(draws, n_max, F_U), RandomStream(seed))
        scanned, completed = [], []
        real_bands, real_sample = ssd_mod.h0_band_probabilities, ssd_mod.sample_bf_h1

        def spy_bands(thresholds, n):
            scanned.append(n)
            return real_bands(thresholds, n)

        def spy_sample(edge, n, **stop):
            sample = real_sample(edge, n, **stop)
            if sample.count == edge.draws:
                completed.append(n)
            return sample

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ssd_mod, "h0_band_probabilities", spy_bands)
            mp.setattr(ssd_mod, "sample_bf_h1", spy_sample)
            got = optimal_n_edge(*args)
        want = linear_scan_optimal_n_edge(*args)
        assert got == want

        h1 = draw_h1_edge(post, "u", "v", F_U, draws, RandomStream(seed))

        def curve(thresholds):
            return dce_curve(h1, thresholds, p_h0, n_max)

        # the full curve crosses first where optimal_n_edge says
        (rows,) = curve([th])
        full = {row[0]: row for row in rows}
        assert list(full) == list(range(2, n_max + 1))
        crossing = next((n for n, _, _, dc, _ in rows if dc >= zeta), None)
        assert crossing == got["n_star"]
        if crossing is not None:
            assert full[crossing] == dce_curve_row(crossing, got["dce_at_n_star"])
        # the scan reads n = 2, 3, ... up to its crossing (or n_max), and
        # every n it skipped or stopped misses zeta on the full curve
        assert scanned == list(range(2, (got["n_star"] or n_max) + 1))
        for n in set(scanned) - set(completed):
            assert full[n][DCE_CURVE_COLUMNS.index("overall_dc")] < zeta
        # a curve for several thresholds is the single-threshold curves side by side
        others = [DceThresholds(k0=3.0, k1=3.0, zeta=0.5), DceThresholds(k0=k1, k1=k0, zeta=zeta)]
        joint = curve([th, *others])
        assert joint == [rows, *(curve([other])[0] for other in others)]

    def test_low_target_crosses_immediately(self):
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.05)
        res = optimal_n_edge(
            "u", "v", th, HALF, two_node_posterior(), RunConfig(draws=1000, n_max=50),
            RandomStream(6),
        )
        assert res["n_star"] == 2
        assert res["dce_at_n_star"]["overall_dc"] >= 0.05
        check_edge_entry(res)

    def test_plan_entry_shares_no_container_with_the_result(self):
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.05)
        res = optimal_n_edge(
            "u", "v", th, HALF, two_node_posterior(), RunConfig(draws=1000, n_max=50),
            RandomStream(6),
        )
        want = copy.deepcopy(res)
        (out,) = plan_entry(["u"], {"u": [res]})["targets"]["u"]["edges"]
        assert out == res
        out["dce_at_n_star"]["p1_dc"] = -1.0
        out["dce_at_n_star"]["mc_se"]["overall_dc"] = -1.0
        assert res == want

    def test_two_node_study_k3(self):
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.8)
        res = optimal_n_edge(
            "u", "v", th, HALF, two_node_posterior(), RunConfig(draws=2000, n_max=200),
            RandomStream(7),
        )
        assert res["achieved"]
        assert 25 <= res["n_star"] <= 95

    def test_matches_first_crossing_of_reproducible_curve(self):
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        post = two_node_posterior()
        stream = RandomStream(8)
        res = optimal_n_edge("u", "v", th, HALF, post, RunConfig(draws=800, n_max=60), stream)
        crossing = None
        for n in range(2, 61):
            dce = dce_probabilities("u", "v", th, n, HALF, post, F_U, 800, stream)
            if dce["overall_dc"] >= th.zeta:
                crossing = n
                break
        assert res["n_star"] == crossing

    @pytest.mark.parametrize("extra", [0, 1])
    def test_stop_fires_only_once_zeta_is_out_of_reach(self, extra, monkeypatch):
        # with p_h0 = 0 the mixture is hits / draws, so zeta = need / draws
        # is reached by need hits and no fewer.  The first block misses
        # draws - need + extra times and every later draw is a hit: at
        # extra = 0 zeta is just in reach, so the sample runs to its end and
        # crosses; one more miss puts it out of reach after the first block
        import causal_ssd.ssd as ssd_mod

        draws, need = 3 * H1_BLOCK, 5000
        th = DceThresholds(k0=4.0, k1=4.0, zeta=need / draws)
        misses = draws - need + extra
        values = np.r_[np.ones(misses), np.full(draws - misses, 0.1)]  # 1 misses, 0.1 hits
        counts = []

        def blocks(edge, n, *, stop=None):  # sample_bf_h1's block protocol on fixed values
            for end in range(H1_BLOCK, draws + H1_BLOCK, H1_BLOCK):
                if stop is not None and stop(values[end - H1_BLOCK:end]):
                    break
            counts.append(end)
            return BfPredictiveSample(hypothesis="H1", n=n, draws=values[:end])

        monkeypatch.setattr(ssd_mod, "sample_bf_h1", blocks)
        res = optimal_n_edge("u", "v", th, 0.0, two_node_posterior(),
                             RunConfig(draws=draws, n_max=4), RandomStream(10))
        if extra == 0:
            assert res["n_star"] == 2 and counts == [draws]
            assert res["dce_at_n_star"]["p1_dc"] == need / draws
        else:
            assert res["n_star"] is None and counts == [H1_BLOCK] * 3

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
            "u", "v", th, HALF, post, RunConfig(draws=800, n_max=60), RandomStream(8)
        )
        assert res["achieved"]
        assert scanned == list(range(2, res["n_star"] + 1))
        monkeypatch.undo()
        # the reused bands give the same floats as a fresh assembly
        fresh = dce_probabilities(
            "u", "v", th, res["n_star"], HALF, post, F_U, 800, RandomStream(8)
        )
        assert res["dce_at_n_star"] == fresh

    def test_pair_parameters_built_once_per_scan(self, monkeypatch):
        import causal_ssd.predictive as predictive_mod
        import causal_ssd.ssd as ssd_mod

        built, evaluated = [], []
        real_factor, real_sample = predictive_mod.pair_factor, ssd_mod.sample_bf_h1

        def counting_factor(posterior, u, v):
            built.append((u, v))
            return real_factor(posterior, u, v)

        def counting_sample(edge, n, **stop):
            evaluated.append(n)
            return real_sample(edge, n, **stop)

        monkeypatch.setattr(predictive_mod, "pair_factor", counting_factor)
        monkeypatch.setattr(ssd_mod, "sample_bf_h1", counting_sample)
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        res = optimal_n_edge(
            "u", "v", th, HALF, two_node_posterior(), RunConfig(draws=200, n_max=60),
            stream=RandomStream(8),
        )
        assert res["achieved"] and len(evaluated) > 5
        assert len(built) == 1

    def test_edge_draw_made_once_per_edge_task(self, monkeypatch):
        import causal_ssd.ssd as ssd_mod

        drawn, evaluated = [], []
        real_draw, real_sample = ssd_mod.draw_h1_edge, ssd_mod.sample_bf_h1

        def counting_draw(posterior, u, v, f_u, draws, stream):
            drawn.append((u, v))
            return real_draw(posterior, u, v, f_u, draws, stream)

        def counting_sample(edge, n, **stop):
            evaluated.append(n)
            return real_sample(edge, n, **stop)

        monkeypatch.setattr(ssd_mod, "draw_h1_edge", counting_draw)
        monkeypatch.setattr(ssd_mod, "sample_bf_h1", counting_sample)
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        res = optimal_n_edge(
            "u", "v", th, HALF, two_node_posterior(), RunConfig(draws=200, n_max=60),
            stream=RandomStream(8),
        )
        assert res["achieved"] and len(evaluated) > 5
        assert drawn == [("u", "v")]
        # no draw when the exact H0 bound lets no n through
        drawn.clear()
        capped = DceThresholds(k0=10.0, k1=10.0, zeta=0.99)
        res = optimal_n_edge(
            "u", "v", capped, HALF, two_node_posterior(), RunConfig(draws=200, n_max=30),
            stream=RandomStream(8),
        )
        assert not res["achieved"] and drawn == []
        # a plan draws once per edge task: every ordered edge of the triangle
        # {1, 2, 3} and of the pair {4, 5} of CHAIN5
        drawn.clear()
        plans = plan_cpdag(
            CHAIN5, fig1_dataset(), th, RunConfig(draws=200, n_max=100), RandomStream(22)
        )
        assert all(c["feasible"] for c in plans)
        assert sorted(drawn) == sorted(
            (u, v) for u, v in itertools.permutations("12345", 2)
            if {u, v} <= set("123") or {u, v} == set("45")
        )

    def test_not_achievable_marker(self):
        th = DceThresholds(k0=10.0, k1=10.0, zeta=0.99)
        res = optimal_n_edge(
            "u", "v", th, HALF, two_node_posterior(), RunConfig(draws=500, n_max=30),
            RandomStream(9),
        )
        assert res["n_star"] is None
        assert res["dce_at_n_star"] is None
        assert not res["achieved"]
        check_edge_entry(res)

    @pytest.mark.parametrize("p_h0", [-0.1, 1.1, math.nan, True])
    def test_prior_outside_unit_interval_rejected(self, p_h0):
        # before, the bool True was taken as 1
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        with pytest.raises(ValueError, match="p_h0"):
            optimal_n_edge("u", "v", th, p_h0, two_node_posterior(), RunConfig(draws=200, n_max=30))

    @pytest.mark.parametrize("name, bad, error, pattern", [
        ("thresholds", (6.0, 6.0, 0.8), TypeError, "^thresholds must be a "),
        ("posterior", None, TypeError, "^posterior must be a "),
        ("config", None, TypeError, "^config must be a "),
        ("stream", 42, TypeError, "^stream must be a "),
        ("u", "x", KeyError, "no column 'x' in design posterior"),
        ("v", "u", ValueError, "^u and v must be distinct columns"),
    ])
    def test_inputs_checked_before_the_scan(self, name, bad, error, pattern):
        # at these thresholds the exact H0 bound lets no n <= 30 through, so
        # before, the tuple thresholds and config=None raised AttributeError,
        # and the other four returned a not-achieved result without reading
        # the input
        args = dict(u="u", v="v", thresholds=DceThresholds(), p_h0=HALF,
                    posterior=two_node_posterior(), config=RunConfig(draws=200, n_max=30),
                    stream=RandomStream(1))
        args[name] = bad
        with pytest.raises(error, match=pattern):
            optimal_n_edge(**args)

    @pytest.mark.parametrize("draws", [0, -5])
    def test_draws_below_one_rejected(self, draws):
        # the scan takes its draws from a RunConfig, which rejects them at
        # construction: even where the exact H0 bound lets no n through, and
        # a scan would never reach draw_h1_edge, no scan sees them
        with pytest.raises(ValueError, match=r"^draws must be an integer in \[1, "):
            RunConfig(draws=draws, n_max=30)

    def test_monotone_in_zeta(self):
        post = two_node_posterior()
        stream = RandomStream(10)
        sizes = {}
        for zeta in (0.5, 0.7, 0.8):
            th = DceThresholds(k0=3.0, k1=3.0, zeta=zeta)
            sizes[zeta] = optimal_n_edge(
                "u", "v", th, HALF, post, RunConfig(draws=2000, n_max=300), stream
            )["n_star"]
        assert sizes[0.5] <= sizes[0.7] <= sizes[0.8]


def node_sizes(plan):
    """Each target's ``n_star_node`` in a ``plan_entry``."""
    return {u: target["n_star_node"] for u, target in plan["targets"].items()}


class TestOptimalNNode:
    """A target's size is the largest n* of its edges; the total sums the targets."""

    def test_single_neighbor(self):
        assert node_sizes(plan_from_stars({"u": [17]})) == {"u": 17}

    def test_max_over_neighbors(self):
        assert node_sizes(plan_from_stars({"u": [28, 88]})) == {"u": 88}

    def test_not_achievable_propagates(self):
        assert node_sizes(plan_from_stars({"u": [28, None]})) == {"u": None}

    def test_total_not_achievable_when_one_target_is_not(self):
        assert plan_from_stars({"u": [28, 88], "v": [5, 4]})["total_n"] == 93
        plan = plan_from_stars({"u": [28, 88], "v": [5, None]})
        assert node_sizes(plan) == {"u": 88, "v": None}
        assert plan["total_n"] is None
        assert not plan["achieved"]


class TestPlanCpdag:
    def test_fig1_two_components_planned(self):
        data = fig1_dataset()
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        results = plan_cpdag(
            CHAIN5, data, th, RunConfig(draws=1200, n_max=300), RandomStream(15)
        )
        assert [r["component"] for r in results] == [["1", "2", "3"], ["4", "5"]]
        triangle = results[0]
        assert triangle["error"] is None
        # a triangle needs two targets; both optimal sequences are planned
        assert [p["sequence"] for p in triangle["plans"]] == [
            ["1", "2"], ["1", "3"], ["2", "3"],
        ]
        pair = results[1]
        assert [p["sequence"] for p in pair["plans"]] == [["4"], ["5"]]
        for r in results:
            flagged = [p for p in r["plans"] if p["bos"]]
            if r["feasible"]:
                assert len(flagged) == 1
                best = flagged[0]
                assert all(
                    best["total_n"] <= p["total_n"] for p in r["plans"] if p["achieved"]
                )

    def test_two_node_single_target(self):
        cp = PartiallyDirectedGraph("uv", undirected=[("u", "v")])
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        (result,) = plan_cpdag(
            cp, two_node_dataset(), th, RunConfig(draws=1500, n_max=150), RandomStream(11)
        )
        assert [p["sequence"] for p in result["plans"]] == [["u"], ["v"]]
        for plan, (u, v) in zip(result["plans"], [("u", "v"), ("v", "u")]):
            (edge_result,) = plan["targets"][u]["edges"]
            assert (edge_result["u"], edge_result["v"]) == (u, v)
            assert plan["achieved"]
            assert plan["targets"][u]["n_star_node"] == edge_result["n_star"]
            assert plan["total_n"] == edge_result["n_star"]

    @pytest.mark.parametrize("a_omega", [math.nan, math.inf, -math.inf])
    def test_non_finite_a_omega_raises_before_any_edge_task(self, a_omega):
        # the plan's a_omega comes from a RunConfig, which rejects it before
        # any plan starts, as a plain ValueError, not a data problem
        with pytest.raises(ValueError, match="a_omega must be finite") as info:
            RunConfig(draws=100, n_max=20, a_omega=a_omega)
        assert not isinstance(info.value, InsufficientDataError)

    @pytest.mark.parametrize("draws", [0, -5])
    def test_draws_below_one_raises_before_any_component(self, draws):
        with pytest.raises(ValueError, match=r"^draws must be an integer in \[1, "):
            RunConfig(draws=draws, n_max=20)

    @pytest.mark.parametrize("draws", [200.5, 200.0, True])
    def test_non_integer_draws_rejected(self, draws):
        # draws=200.5 planned every component infeasible where draws=200
        # planned them all, and draws=True planned them from one draw an edge
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        with pytest.raises(ValueError, match="draws must be an integer"):
            plan_cpdag(CHAIN5, fig1_dataset(), th, RunConfig(draws=draws, n_max=100))

    @pytest.mark.parametrize("n_max", [3.0, 2.5, True, 1, None])
    def test_non_integer_or_small_n_max_rejected(self, n_max):
        with pytest.raises(ValueError, match=r"^n_max must be an integer >= 2, got "):
            RunConfig(draws=200, n_max=n_max)

    @pytest.mark.parametrize("workers", [0, -1, 1.5, 2.0, True])
    def test_bad_workers_raise_before_any_component(self, workers, monkeypatch):
        import causal_ssd.ssd as ssd_mod

        def no_component(*args):
            raise AssertionError("a component was read")

        monkeypatch.setattr(ssd_mod, "chain_components", no_component)
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        config = RunConfig(draws=200, n_max=20)
        with pytest.raises(ValueError, match=r"^workers must be an integer >= 1, got "):
            plan_cpdag(CHAIN5, fig1_dataset(), th, config, workers=workers)

    @pytest.mark.parametrize("mean, sd", [(1e200, 1.0), (1e200, 1e-200), (1e153, 1.0)])
    def test_noncentrality_not_a_finite_float_raises_before_any_component(
        self, mean, sd, monkeypatch
    ):
        # before, the first raised OverflowError from an edge task and the
        # second planned every edge achieved at n = 2; the third is finite up
        # to n = 179 and infinite at n_max
        import causal_ssd.ssd as ssd_mod

        def no_component(*args):
            raise AssertionError("a component was read")

        monkeypatch.setattr(ssd_mod, "chain_components", no_component)
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        config = RunConfig(draws=100, n_max=300, f_u=InterventionDensity(mean, sd))
        with pytest.raises(ValueError, match="noncentrality .* at n = 300 is not a finite float"):
            plan_cpdag(CHAIN5, fig1_dataset(), th, config)

    def test_config_must_be_a_run_config(self):
        # a call in the order of the old signature, f_u then stream, fails plainly
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        with pytest.raises(TypeError, match="RunConfig"):
            plan_cpdag(CHAIN5, fig1_dataset(), th, F_U, RandomStream(1))

    @pytest.mark.parametrize("name, bad", [
        ("cpdag", "1 -- 2\n"), ("thresholds", (3.0, 3.0, 0.6)), ("stream", 42),
    ])
    def test_input_types_checked_before_any_component(self, name, bad, monkeypatch):
        # before, the tuple thresholds raised AttributeError from inside an
        # edge task, after every posterior, cover and prior was built, and
        # stream=42 raised AttributeError on its first substream
        import causal_ssd.ssd as ssd_mod

        def no_component(*args):
            raise AssertionError("a component was read")

        monkeypatch.setattr(ssd_mod, "chain_components", no_component)
        args = dict(cpdag=CHAIN5, data=fig1_dataset(), thresholds=DceThresholds(),
                    config=RunConfig(draws=100, n_max=20), stream=RandomStream(1))
        args[name] = bad
        with pytest.raises(TypeError, match=f"^{name} must be a "):
            plan_cpdag(**args)

    @pytest.mark.parametrize("f_u", [None, (0.0, 1.0)])
    def test_f_u_must_be_an_intervention_density(self, f_u):
        # before, RunConfig took both, and plan_cpdag then raised AttributeError
        with pytest.raises(TypeError, match="^f_u must be an InterventionDensity"):
            RunConfig(draws=100, n_max=20, f_u=f_u)

    @pytest.mark.parametrize("a_omega", [True, False])
    def test_bool_a_omega_rejected(self, a_omega):
        # a bool is not a number (numerics.whole); before, both were taken
        with pytest.raises(ValueError, match="^a_omega must be a number, not a bool"):
            RunConfig(draws=100, n_max=20, a_omega=a_omega)

    def test_draws_above_the_memory_budget_rejected_before_allocating(self, monkeypatch):
        import causal_ssd.predictive as predictive_mod

        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated before the draws were checked")

        assert MAX_DRAWS * H1_BYTES_PER_DRAW <= predictive_mod.H1_BUDGET_BYTES
        assert RunConfig(draws=MAX_DRAWS).draws == MAX_DRAWS
        for draws in (MAX_DRAWS + 1, 10**12):
            with pytest.raises(ValueError, match="the H1 sampler holds 32 bytes a draw"):
                RunConfig(draws=draws)
        post = two_node_posterior()
        monkeypatch.setattr(predictive_mod.np, "empty", no_allocation)
        with pytest.raises(ValueError, match=r"^draws must be an integer in \[1, "):
            draw_h1_edge(post, "u", "v", F_U, MAX_DRAWS + 1, RandomStream(1))

    def test_run_config_takes_numpy_integers_as_ints(self):
        config = RunConfig(draws=np.int64(300), n_max=np.int32(40))
        assert (config.draws, config.n_max) == (300, 40)
        assert type(config.draws) is int and type(config.n_max) is int
        assert RunConfig() == RunConfig(10_000, 1000, InterventionDensity(), None)

    def test_node_size_is_max_and_total_is_sum(self):
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        results = plan_cpdag(
            CHAIN5, fig1_dataset(), th, RunConfig(draws=1200, n_max=250), RandomStream(13)
        )
        subgraphs = {sub.nodes: sub for sub in chain_components(CHAIN5)}
        checked = 0
        for r in results:
            sub = subgraphs[tuple(r["component"])]
            for plan in r["plans"]:
                for u in plan["sequence"]:
                    edge_results = plan["targets"][u]["edges"]
                    neighbors = sub.undirected_neighbors(u)
                    assert [(e["u"], e["v"]) for e in edge_results] == [(u, v) for v in neighbors]
                    if all(e["achieved"] for e in edge_results):
                        assert node_sizes(plan)[u] == max(e["n_star"] for e in edge_results)
                        checked += 1
                    else:
                        assert node_sizes(plan)[u] is None
                if plan["achieved"]:
                    assert plan["total_n"] == sum(node_sizes(plan).values())
        assert checked > 0

    def test_min_total_flagged(self):
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        results = plan_cpdag(
            CHAIN5, fig1_dataset(), th, RunConfig(draws=1200, n_max=250), RandomStream(13)
        )
        for r in results:
            assert r["feasible"]
            achieved = [p for p in r["plans"] if p["achieved"]]
            best = min(achieved, key=lambda p: (p["total_n"], p["sequence"]))
            assert [p["bos"] for p in r["plans"]] == [p is best for p in r["plans"]]

    def test_no_plan_flagged_when_no_sequence_achieved(self):
        th = DceThresholds(k0=10.0, k1=10.0, zeta=0.99)
        results = plan_cpdag(
            CHAIN5, fig1_dataset(), th, RunConfig(draws=200, n_max=30), RandomStream(13)
        )
        assert results and all(r["error"] is None and r["plans"] for r in results)
        for r in results:
            assert not r["feasible"]
            assert not any(p["achieved"] or p["bos"] for p in r["plans"])

    def test_result_round_trips_through_json_and_shares_no_edge_entry(self):
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        results = plan_cpdag(
            CHAIN5, fig1_dataset(), th, RunConfig(draws=400, n_max=150), RandomStream(15)
        )
        assert json.loads(json.dumps(results)) == results
        # target 1 is in two plans of the triangle, and its edges in both
        plans = [p for r in results for p in r["plans"]]
        before = copy.deepcopy(plans)
        assert sum("1" in p["targets"] for p in plans) == 2
        for i, plan in enumerate(plans):
            for target in plan["targets"].values():
                for e in target["edges"]:
                    e["n_star"] = -1
                    if e["dce_at_n_star"] is not None:
                        e["dce_at_n_star"]["p1_dc"] = -1.0
                        e["dce_at_n_star"]["mc_se"]["overall_dc"] = -1.0
            assert plans[i + 1:] == before[i + 1:]

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
        results = plan_cpdag(cp, data, th, RunConfig(draws=800, n_max=150), RandomStream(19))
        by_comp = {tuple(r["component"]): r for r in results}
        assert by_comp[("c", "d")]["error"] is not None
        assert by_comp[("c", "d")]["error"] == "dataset is missing columns: ['c', 'd']"
        assert by_comp[("c", "d")]["plans"] == []
        assert by_comp[("c", "d")]["feasible"] is False
        assert json.loads(json.dumps(results)) == results
        assert by_comp[("a", "b")]["error"] is None
        assert by_comp[("a", "b")]["plans"]

    def test_capacity_error_reported_per_component(self):
        big = [f"n{i}" for i in range(13)]
        cp = PartiallyDirectedGraph(
            big + ["x", "y"],
            undirected=list(itertools.combinations(big, 2)) + [("x", "y")],
        )
        rng = np.random.default_rng(20)
        data = DatasetMatrix(labels=tuple(big + ["x", "y"]), values=rng.standard_normal((40, 15)))
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.5)
        results = plan_cpdag(cp, data, th, RunConfig(draws=500, n_max=100), RandomStream(21))
        by_size = {len(r["component"]): r for r in results}
        assert by_size[13]["error"] is not None
        assert by_size[2]["error"] is None

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
        # the class count orients rooted patterns by rule 1 alone, and the
        # vertex-cover search orients nothing
        for module in (graph_mod, design_mod):
            monkeypatch.setattr(module, "meek_closure", counting_closure)
        design_mod.orientation_counts.cache_clear()
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        results = plan_cpdag(
            CHAIN5, fig1_dataset(), th, RunConfig(draws=400, n_max=150), RandomStream(15)
        )
        assert all(r["error"] is None for r in results)
        nodes = [f"n{i}" for i in range(5)]
        clique = PartiallyDirectedGraph(nodes, undirected=itertools.combinations(nodes, 2))
        data = DatasetMatrix(
            labels=tuple(nodes), values=np.random.default_rng(16).standard_normal((60, 5))
        )
        (result,) = plan_cpdag(clique, data, th, RunConfig(draws=200, n_max=20), RandomStream(17))
        assert result["error"] is None and result["plans"]
        assert enumerated == []
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
        (result,) = plan_cpdag(cp, data, th, RunConfig(draws=200, n_max=20), RandomStream(25))
        assert result["error"] is None
        priors = {
            (r["u"], r["v"]): r["p_h0"]
            for plan in result["plans"]
            for target in plan["targets"].values()
            for r in target["edges"]
        }
        assert len(priors) == 90
        assert set(priors.values()) == {0.5}

    def test_plan_unchanged_under_matmul_wishart_oracle(self, monkeypatch):
        import causal_ssd.ssd as ssd_mod

        def oracle_draw_h1_edge(*args):
            return args  # the oracle draws everything again at each n

        def oracle_sample_bf_h1(edge_args, n, **stop):
            # the full sample at every n: the early stop is switched off
            posterior, u, v, f_u, draws, stream = edge_args
            bf = reference_sample_bf_h1(
                posterior, u, v, f_u, n, draws, stream, wishart=matmul_sample_wishart
            )
            return BfPredictiveSample(hypothesis="H1", n=n, draws=bf)

        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        kwargs = dict(config=RunConfig(draws=2000, n_max=300), stream=RandomStream(23))
        fast = plan_cpdag(CHAIN5, fig1_dataset(), th, **kwargs)
        monkeypatch.setattr(ssd_mod, "draw_h1_edge", oracle_draw_h1_edge)
        monkeypatch.setattr(ssd_mod, "sample_bf_h1", oracle_sample_bf_h1)
        oracle = plan_cpdag(CHAIN5, fig1_dataset(), th, **kwargs)
        assert all(r["error"] is None and r["feasible"] for r in fast)
        assert fast == oracle

    def test_pool_capped_by_tasks_and_cpus(self, monkeypatch):
        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(1)
            return real_fork()

        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        kwargs = dict(config=RunConfig(draws=200, n_max=100), stream=RandomStream(22))
        serial = plan_cpdag(CHAIN5, fig1_dataset(), th, workers=1, **kwargs)
        monkeypatch.setattr(os, "fork", counting_fork)
        # the 8 tasks (every ordered edge of the triangle and of the pair) on
        # 4 usable CPUs fork 3 children beside this process; on 1 none,
        # though the host has 8, and none while a second thread is alive
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        alive = threading.Event()
        for cpus, threads, want in ((4, 1, 3), (1, 1, 0), (4, 2, 0)):
            forks.clear()
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            other = threading.Thread(target=alive.wait, args=(30,)) if threads == 2 else None
            if other:
                other.start()
            try:
                with deadline(120):
                    capped = plan_cpdag(CHAIN5, fig1_dataset(), th, workers=10**6, **kwargs)
            finally:
                if other:
                    alive.set()
                    other.join(30)
            assert other is None or not other.is_alive()
            assert len(forks) == want
            assert capped == serial

    def test_h0_bands_memoized_across_edges(self, monkeypatch):
        import causal_ssd.ssd as ssd_mod

        data = fig1_dataset()
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        kwargs = dict(config=RunConfig(draws=600, n_max=200), stream=RandomStream(22))
        calls = []
        real = ssd_mod.prob_bf_band_h0

        def counting(lo, hi, n):
            calls.append(n)
            return real(lo, hi, n)

        def unmemoized(thresholds, n):
            p0_dc = counting(thresholds.k0, math.inf, n)
            p0_mis = counting(0.0, 1.0 / thresholds.k1, n)
            return p0_dc, 1.0 - p0_dc - p0_mis, p0_mis

        ssd_mod._h0_bands.cache_clear()
        monkeypatch.setattr(ssd_mod, "prob_bf_band_h0", counting)
        memoized = plan_cpdag(CHAIN5, data, th, **kwargs)
        edges = [
            r
            for comp in memoized
            for plan in comp["plans"]
            for target in plan["targets"].values()
            for r in target["edges"]
        ]
        assert len({(r["u"], r["v"]) for r in edges}) > 1
        # every edge scans n = 2, 3, ... up to its crossing (or n_max)
        last = max(r["n_star"] if r["achieved"] else r["n_max"] for r in edges)
        assert sorted(calls) == sorted(2 * list(range(2, last + 1)))
        monkeypatch.setattr(ssd_mod, "h0_band_probabilities", unmemoized)
        bypassed = plan_cpdag(CHAIN5, data, th, **kwargs)
        assert len(calls) > 2 * (last - 1)
        assert memoized == bypassed

    @pytest.mark.parametrize("workers", [1, 2])
    def test_edge_entries_are_the_optimal_n_edge_results(self, workers, monkeypatch):
        # every edge entry of every plan is the direct library call, at one
        # process and at two
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        data, stream = fig1_dataset(), RandomStream(15)
        th, config = DceThresholds(k0=3.0, k1=3.0, zeta=0.6), RunConfig(draws=400, n_max=30)
        results = plan_cpdag(CHAIN5, data, th, config, stream, workers)
        by_comp = {tuple(r["component"]): r for r in results}
        direct = {}
        for ci, sub in enumerate(chain_components(CHAIN5)):
            comp = sub.nodes
            if len(comp) < 2:
                continue
            posterior = build_design_posterior(data.restrict(comp), None)
            for plan in by_comp.pop(comp)["plans"]:
                for u, target in plan["targets"].items():
                    for e in target["edges"]:
                        v = e["v"]
                        if (ci, u, v) not in direct:
                            direct[(ci, u, v)] = optimal_n_edge(
                                u, v, th, prior_h0(sub, u, v), posterior, config,
                                edge_stream(stream, ci, comp, u, v),
                            )
                        assert e == direct[(ci, u, v)]
                        check_edge_entry(e)
        assert by_comp == {}
        assert len(direct) == 8  # the 6 ordered edges of the triangle and 2 of the pair
        # at n_max 30 the edge 3 -> 1 (n* 35 at a larger n_max) is not achieved
        assert {e["achieved"] for e in direct.values()} == {True, False}

    def test_workers_do_not_change_results(self):
        data = fig1_dataset()
        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        kwargs = dict(config=RunConfig(draws=600, n_max=200))
        serial = plan_cpdag(CHAIN5, data, th, stream=RandomStream(22), workers=1, **kwargs)
        parallel = plan_cpdag(CHAIN5, data, th, stream=RandomStream(22), workers=2, **kwargs)
        assert serial == parallel


class TestForkMap:
    def full_curve(self, n_max, draws=300):
        thresholds = [DceThresholds(k0=3.0, k1=3.0, zeta=0.6),
                      DceThresholds(k0=10.0, k1=10.0, zeta=0.6)]
        h1 = draw_h1_edge(two_node_posterior(), "u", "v", F_U, draws, RandomStream(31))
        return dce_curve(h1, thresholds, HALF, n_max)

    @pytest.mark.parametrize("n_max", [2, 3, 150, 1100])
    def test_full_curve_same_on_any_cpu_count(self, n_max, monkeypatch):
        # n_max 3 has fewer grid points than the 3-CPU mask has CPUs, and 2
        # one; on 3 CPUs the 1,099 points of n_max 1100 give this process a
        # share of 367 and each child one of 366
        curves = []
        for cpus in ({0}, {0, 1}, {0, 1, 2}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
            with deadline(120):
                curves.append(self.full_curve(n_max))
        assert [[row[0] for row in rows] for rows in curves[0]] == [list(range(2, n_max + 1))] * 2
        assert curves[1] == curves[0] and curves[2] == curves[0]

    def test_processes_within_the_h1_budget(self, monkeypatch):
        import causal_ssd.ssd as ssd_mod

        def no_fork():
            raise AssertionError("forked beyond the H1 budget")

        th = DceThresholds(k0=3.0, k1=3.0, zeta=0.6)
        kwargs = dict(config=RunConfig(draws=200, n_max=100), stream=RandomStream(22))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        with deadline(120):
            plan = plan_cpdag(CHAIN5, fig1_dataset(), th, workers=4, **kwargs)
            curve = self.full_curve(100, draws=200)
        # room for the H1 evaluations of one process of 200 draws, not two
        monkeypatch.setattr(ssd_mod, "H1_BUDGET_BYTES", 2 * 200 * H1_BYTES_PER_DRAW - 1)
        monkeypatch.setattr(os, "fork", no_fork)
        capped = plan_cpdag(CHAIN5, fig1_dataset(), th, workers=4, **kwargs)
        assert capped == plan
        assert self.full_curve(100, draws=200) == curve

    @pytest.mark.parametrize("ending, error, message", [
        ("raise", ValueError, "task [1-7]"),
        ("exit", RuntimeError, "ended without its results"),
    ])
    def test_child_failure_raised_here_and_every_child_reaped(
        self, ending, error, message, monkeypatch
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        parent = os.getpid()
        started_r, started_w = os.pipe()

        def task(i):
            if os.getpid() == parent:
                if i == 0:  # until the child has taken a task
                    os.read(started_r, 1)
                return i
            os.write(started_w, b"!")
            if ending == "raise":
                raise ValueError(f"task {i}")
            os._exit(3)

        try:
            with deadline(60):
                with pytest.raises(error, match=message):
                    fork_map(task, [(i,) for i in range(8)], 2)
        finally:
            os.close(started_r)
            os.close(started_w)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failure_here_stops_every_child_at_once(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

        def task(i):  # task 0 runs here, task 1 in the child
            if i == 0:
                time.sleep(0.5)
                raise KeyError(i)
            time.sleep(30)

        with deadline(10):
            with pytest.raises(KeyError):
                fork_map(task, [(0,), (1,)], 2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("n_tasks", [300, 1_025, 20_000])
    def test_results_in_task_order(self, n_tasks, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        # shares of 100 each at 300 tasks; 342, 342 and 341 at 1,025; and
        # 6,667, 6,667 and 6,666 at 20,000
        tasks = [(i, i % 7) for i in range(n_tasks)]
        with deadline(60):
            assert fork_map(pow, tasks, 3) == [pow(*t) for t in tasks]

    def test_each_process_runs_a_fixed_interleaved_share(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        with deadline(60):
            pids = fork_map(os.getpid, [()] * 10, 3)
        shares = [set(pids[r::3]) for r in range(3)]
        assert all(len(share) == 1 for share in shares)
        assert shares[0] == {os.getpid()}
        assert len(set(pids)) == 3

    def test_failed_fork_leaks_no_pipe_and_reaps_the_first_child(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        real_fork, forks = os.fork, []

        def fork():
            forks.append(None)
            if len(forks) == 2:
                raise BlockingIOError("no second child")
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        open_fds = len(os.listdir("/proc/self/fd"))
        with deadline(60):
            with pytest.raises(BlockingIOError, match="no second child"):
                fork_map(pow, [(i, 2) for i in range(9)], 3)
        assert len(os.listdir("/proc/self/fd")) == open_fds
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
