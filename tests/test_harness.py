"""Tests for dataset ingestion, the two-node replication study, and serialization."""

import json
import math

import numpy as np
import pytest

from causal_ssd.harness import (
    BF_SAMPLES_BLOCK_ROWS,
    STUDY_BETA,
    STUDY_N_OBS,
    CsvParseError,
    atomic_write_chunks,
    bf_samples_csv,
    dce_curve_csv,
    threshold_curves_csv,
    nstar_curve_csv,
    format_float,
    ingest_csv,
    replicate_two_node_study,
)
from causal_ssd.numerics import RandomStream
from causal_ssd.predictive import (
    BfPredictiveSample,
    DatasetMatrix,
    build_design_posterior,
    prob_bf_band_h0,
)
from causal_ssd.ssd import DceThresholds, RunConfig

from helpers import dce_probabilities, g_of_n, linear_sem_data, whole_bf_samples_csv


SMALL_STUDY = RunConfig(draws=2000, n_max=200)


@pytest.fixture(scope="module")
def small_report():
    return replicate_two_node_study(SMALL_STUDY, RandomStream(8))


class TestDatasetMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            DatasetMatrix(labels=("a", "a"), values=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            DatasetMatrix(labels=("a", "b"), values=np.array([[1.0, math.nan]]))
        with pytest.raises(ValueError):
            DatasetMatrix(labels=("a",), values=np.zeros((0, 1)))

    def test_restrict_orders_and_reports_missing(self):
        data = DatasetMatrix(labels=("a", "b", "c"), values=np.arange(6.0).reshape(2, 3))
        sub = data.restrict(("c", "a"))
        assert sub.labels == ("c", "a")
        np.testing.assert_array_equal(sub.values, [[2.0, 0.0], [5.0, 3.0]])
        with pytest.raises(ValueError, match=r"\['d', 'e'\]"):
            data.restrict(("a", "d", "e"))


class TestIngestCsv:
    def test_happy_path(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3,4\n5,6\n")
        data = ingest_csv(str(path))
        assert data.labels == ("a", "b")
        assert data.values.shape == (3, 2)

    def test_ragged_row_cites_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(CsvParseError, match="line 3"):
            ingest_csv(str(path))

    def test_non_numeric_cell_cites_line(self, tmp_path):
        path = tmp_path / "d.csv"
        rows = ["a,b"] + ["1,2"] * 5 + ["1,oops"]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(CsvParseError, match="line 7"):
            ingest_csv(str(path))

    def test_duplicate_header_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,a\n1,2\n")
        with pytest.raises(CsvParseError, match="duplicate"):
            ingest_csv(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(CsvParseError, match="line 1"):
            ingest_csv(str(path))


class TestTwoNodeStudy:
    @pytest.mark.parametrize("name", ["config", "stream"])
    def test_input_types_checked_at_the_call(self, name):
        # before, None for config and 42 for stream raised AttributeError
        args = dict(config=RunConfig(draws=200, n_max=30), stream=RandomStream(1))
        args[name] = {"config": None, "stream": 42}[name]
        with pytest.raises(TypeError, match=f"^{name} must be a "):
            replicate_two_node_study(**args)

    def test_h0_cells_are_the_exact_bands(self, small_report):
        for row in small_report.evidence_grid:
            if row["hypothesis"] == "H0":
                n = row["n"]
                assert row["moderate"] == prob_bf_band_h0(3.0, 10.0, n)
                assert row["strong_to_extreme"] == prob_bf_band_h0(10.0, math.inf, n)

    def test_h0_exact_and_monte_carlo_agree(self, small_report):
        for row in small_report.evidence_grid:
            if row["hypothesis"] == "H0":
                exact = row["moderate"]
                se = math.sqrt(max(exact * (1 - exact), 1e-12) / SMALL_STUDY.draws)
                assert abs(row["moderate_mc"] - exact) <= max(3 * se, 1e-9)

    def test_discrepancy_note_present(self, small_report):
        note = small_report.evidence_note
        assert "g(n)" in note and "exactly 0" in note and "156" in note

    def test_k10_curve_elbow(self, small_report):
        by_n = {row[0]: row[1] for row in small_report.dce_curves[10.0]}
        assert all(by_n[n] == 0.0 for n in range(2, 151))
        assert all(by_n[n] > 0.0 for n in range(157, 201))

    def test_nstar_nondecreasing_and_consistent_with_curve(self, small_report):
        for k, points in small_report.nstar_curves.items():
            rows = small_report.dce_curves[k]
            reachable = [p["n_star"] for p in points if p["n_star"] is not None]
            assert reachable == sorted(reachable)
            for p in points:
                expected = next(
                    (n for n, _, _, val, _ in rows if val >= p["zeta"]),
                    None,
                )
                assert p["n_star"] == expected

    def test_curves_are_the_planner_evidence(self, small_report):
        # the study's curve row at (k, n) is dce_probabilities on the study's
        # posterior with the H1 edge substream child(2), to the last bit
        data = linear_sem_data(
            "uv", {("u", "v"): STUDY_BETA}, STUDY_N_OBS, RandomStream(8).child(0)
        )
        posterior = build_design_posterior(data, SMALL_STUDY.a_omega)
        assert small_report.observational["scatter"] == posterior.scatter.tolist()
        f_u, draws = SMALL_STUDY.f_u, SMALL_STUDY.draws
        for k in (3.0, 6.0, 10.0):
            th = DceThresholds(k0=k, k1=k)
            rows = {row[0]: row for row in small_report.dce_curves[k]}
            for n in (2, 50, 57, 157, 200):
                stream = RandomStream(8).child(2)
                dce = dce_probabilities("u", "v", th, n, 0.5, posterior, f_u, draws, stream)
                expected = (n, dce["p0_dc"], dce["p1_dc"], dce["overall_dc"],
                            dce["mc_se"]["overall_dc"])
                assert rows[n] == expected

    def test_edge_drawn_once(self, monkeypatch):
        # the exported samples, the evidence grid and the curves all read one
        # H1 edge draw, whichever module would look draw_h1_edge up
        import causal_ssd.harness as harness_mod
        import causal_ssd.ssd as ssd_mod

        drawn = []
        real = harness_mod.draw_h1_edge

        def counting(posterior, u, v, f_u, draws, stream):
            drawn.append((u, v))
            return real(posterior, u, v, f_u, draws, stream)

        for module in (harness_mod, ssd_mod):
            monkeypatch.setattr(module, "draw_h1_edge", counting)
        replicate_two_node_study(RunConfig(draws=200, n_max=30), RandomStream(8))
        assert drawn == [("u", "v")]

    @pytest.mark.parametrize("seed", [0, 1, 8, 14, 49])
    def test_observational_rows_are_the_linear_model_draw(self, seed):
        # the study draws its u column and then v = beta * u + noise from
        # child(0), as the test helper draws the model u -> v; seed 8 is the
        # acceptance tests' STUDY_SEED, and seed 14 has a sample slope near 0
        report = replicate_two_node_study(
            RunConfig(draws=50, n_max=10), RandomStream(seed)
        )
        data = linear_sem_data(
            "uv", {("u", "v"): STUDY_BETA}, STUDY_N_OBS, RandomStream(seed).child(0)
        )
        posterior = build_design_posterior(data)
        assert report.observational["labels"] == list(data.labels)
        assert report.observational["scatter"] == posterior.scatter.tolist()

    def test_exported_samples_shape(self, small_report):
        tags = [(s.hypothesis, s.n) for s in small_report.bf_samples]
        assert tags == [("H0", 10), ("H0", 50), ("H1", 10), ("H1", 50)]
        assert all(s.count == SMALL_STUDY.draws for s in small_report.bf_samples)

    def test_report_is_pure_function_of_seed(self):
        a = replicate_two_node_study(SMALL_STUDY, RandomStream(8))
        b = replicate_two_node_study(SMALL_STUDY, RandomStream(8))
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )
        assert threshold_curves_csv(a.dce_curves) == threshold_curves_csv(b.dce_curves)
        assert "".join(bf_samples_csv(a.bf_samples)) == "".join(bf_samples_csv(b.bf_samples))

    def test_h0_cells_invariant_to_seed_h1_cells_not(self, small_report):
        other = replicate_two_node_study(SMALL_STUDY, RandomStream(9))
        for row_a, row_b in zip(small_report.evidence_grid, other.evidence_grid):
            if row_a["hypothesis"] == "H0":
                assert row_a["moderate"] == row_b["moderate"]
        a_h1 = [r for r in small_report.evidence_grid if r["hypothesis"] == "H1"]
        b_h1 = [r for r in other.evidence_grid if r["hypothesis"] == "H1"]
        assert any(x["strong_to_extreme"] != y["strong_to_extreme"] for x, y in zip(a_h1, b_h1))


class TestSerialization:
    def test_format_float_seventeen_digits_round_trip(self):
        x = 0.7384091212882506
        text = format_float(x)
        assert float(text) == x
        assert format_float(None) == ""
        assert format_float(7) == "7"

    def test_bf_samples_csv_layout(self, small_report):
        text = "".join(bf_samples_csv(small_report.bf_samples[:1]))
        lines = text.strip().split("\n")
        assert lines[0] == "hypothesis,n,draw_index,bf"
        assert len(lines) == 1 + SMALL_STUDY.draws
        first = lines[1].split(",")
        assert first[0] == "H0" and first[1] == "10" and first[2] == "0"

    @pytest.mark.parametrize(
        "count",
        [1, BF_SAMPLES_BLOCK_ROWS - 1, BF_SAMPLES_BLOCK_ROWS, BF_SAMPLES_BLOCK_ROWS + 1,
         2 * BF_SAMPLES_BLOCK_ROWS + 3],
    )
    def test_bf_samples_csv_blocks_join_to_the_whole_text(self, count):
        n = 37
        special = [0.0, 5e-324, 1.0 / 3.0, 0.1, g_of_n(n)]
        rest = np.random.default_rng(count).lognormal(0.0, 3.0, count)
        values = np.concatenate([special, rest])[:count]
        # the H1 sample ends with the special values, so they also fall in a last block
        samples = [BfPredictiveSample("H0", n, values), BfPredictiveSample("H1", n, values[::-1])]
        blocks = list(bf_samples_csv(samples))
        assert "".join(blocks) == whole_bf_samples_csv(samples)
        assert blocks[0] == "hypothesis,n,draw_index,bf\n"
        rows = [block.count("\n") for block in blocks[1:]]
        assert max(rows) <= BF_SAMPLES_BLOCK_ROWS
        assert len(rows) == 2 * -(-count // BF_SAMPLES_BLOCK_ROWS)

    def test_failed_chunk_write_leaves_the_old_file_and_no_temporary(self, tmp_path):
        path = tmp_path / "bf.csv"
        path.write_text("old\n")

        def chunks():
            yield "new\n"
            raise RuntimeError("draw failed")

        with pytest.raises(RuntimeError):
            atomic_write_chunks(str(path), chunks())
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["bf.csv"]

    def test_dce_curve_csv_layout(self):
        rows = [(2, 0.0, 0.5, 0.25, 0.01)]
        lines = dce_curve_csv(rows).strip().split("\n")
        assert lines[0] == "n,p0_dc,p1_dc,overall_dc,se_overall"
        assert lines[1].startswith("2,0,0.5,")

    def test_nstar_csv_empty_cell_for_unreachable(self):
        text = nstar_curve_csv({3.0: [{"zeta": 0.95, "n_star": None}]})
        assert text.strip().split("\n")[1] == "3,0.94999999999999996,"
