"""Tests for data generation, ingestion, and the two-node replication study."""

import json
import math

import numpy as np
import pytest

from causal_ssd.design import EdgeHypothesisPrior
from causal_ssd.graph import Dag
from causal_ssd.harness import (
    STUDY_BETA,
    STUDY_N_OBS,
    CsvParseError,
    DatasetMatrix,
    LinearSemSpec,
    TwoNodeStudyConfig,
    bf_samples_csv,
    dce_curve_csv,
    threshold_curves_csv,
    nstar_curve_csv,
    format_float,
    generate_sem_data,
    ingest_csv,
    replicate_two_node_study,
)
from causal_ssd.numerics import RandomStream
from causal_ssd.predictive import build_design_posterior, prob_bf_band_h0
from causal_ssd.ssd import DceThresholds

from helpers import dce_probabilities


def two_node_spec(beta=0.5):
    dag = Dag("uv", [("u", "v")])
    return LinearSemSpec(dag=dag, coefficients={("u", "v"): beta}, noise_sd={"u": 1.0, "v": 1.0})


SMALL_STUDY = TwoNodeStudyConfig(draws=2000, n_max=200)


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


class TestLinearSemSpec:
    def test_requires_full_coefficient_cover(self):
        dag = Dag("uv", [("u", "v")])
        with pytest.raises(ValueError):
            LinearSemSpec(dag=dag, coefficients={}, noise_sd={"u": 1.0, "v": 1.0})
        with pytest.raises(ValueError):
            LinearSemSpec(
                dag=dag,
                coefficients={("u", "v"): 0.5, ("v", "u"): 0.5},
                noise_sd={"u": 1.0, "v": 1.0},
            )

    def test_requires_positive_noise(self):
        dag = Dag("uv", [("u", "v")])
        with pytest.raises(ValueError):
            LinearSemSpec(dag=dag, coefficients={("u", "v"): 0.5}, noise_sd={"u": 1.0, "v": 0.0})


class TestGenerateSemData:
    def test_empty_dag_gives_independent_columns(self):
        dag = Dag("abc", [])
        spec = LinearSemSpec(dag=dag, coefficients={}, noise_sd={n: 1.0 for n in "abc"})
        data = generate_sem_data(spec, 20_000, RandomStream(31))
        corr = np.corrcoef(data.values, rowvar=False)
        off = corr[np.triu_indices(3, k=1)]
        assert np.all(np.abs(off) < 4.0 / math.sqrt(20_000))

    def test_two_node_correlation(self):
        # X_v = 0.5 X_u + noise has correlation 0.5 / sqrt(1.25)
        data = generate_sem_data(two_node_spec(), 100_000, RandomStream(32))
        u, v = (data.values[:, data.labels.index(x)] for x in "uv")
        r = np.corrcoef(u, v)[0, 1]
        assert r == pytest.approx(0.5 / math.sqrt(1.25), abs=0.01)

    def test_deterministic(self):
        a = generate_sem_data(two_node_spec(), 100, RandomStream(33))
        b = generate_sem_data(two_node_spec(), 100, RandomStream(33))
        np.testing.assert_array_equal(a.values, b.values)


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
        data = generate_sem_data(
            two_node_spec(STUDY_BETA), STUDY_N_OBS, RandomStream(8).child(0)
        )
        posterior = build_design_posterior(data.values, SMALL_STUDY.a_omega, labels=data.labels)
        assert small_report.observational["scatter"] == posterior.scatter.tolist()
        prior = EdgeHypothesisPrior(u="u", v="v", p_h0=0.5, p_h1=0.5)
        f_u, draws = SMALL_STUDY.intervention, SMALL_STUDY.draws
        for k in (3.0, 6.0, 10.0):
            th = DceThresholds(k0=k, k1=k)
            rows = {row[0]: row for row in small_report.dce_curves[k]}
            for n in (2, 50, 57, 157, 200):
                stream = RandomStream(8).child(2)
                dce = dce_probabilities("u", "v", th, n, prior, posterior, f_u, draws, stream)
                expected = (n, dce.p0_dc, dce.p1_dc, dce.overall_dc, dce.mc_se["overall_dc"])
                assert rows[n] == expected

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
        assert bf_samples_csv(a.bf_samples) == bf_samples_csv(b.bf_samples)

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
        text = bf_samples_csv(small_report.bf_samples[:1])
        lines = text.strip().split("\n")
        assert lines[0] == "hypothesis,n,draw_index,bf"
        assert len(lines) == 1 + SMALL_STUDY.draws
        first = lines[1].split(",")
        assert first[0] == "H0" and first[1] == "10" and first[2] == "0"

    def test_dce_curve_csv_layout(self):
        rows = [(2, 0.0, 0.5, 0.25, 0.01)]
        lines = dce_curve_csv(rows).strip().split("\n")
        assert lines[0] == "n,p0_dc,p1_dc,overall_dc,se_overall"
        assert lines[1].startswith("2,0,0.5,")

    def test_nstar_csv_empty_cell_for_unreachable(self):
        text = nstar_curve_csv({3.0: [{"zeta": 0.95, "n_star": None}]})
        assert text.strip().split("\n")[1] == "3,0.94999999999999996,"
