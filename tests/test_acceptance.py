"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.

Criterion 3 checks the exact independence-side (H0) evidence cells.  The
cell P(3 < BF < 10 | H0) at n = 100 is 0.83757452908375..., which a 30-digit
quadrature of the Beta(1/2, 99/2) law of r^2 reproduces to 1e-14.  The
quoted table figure 0.8439 is a Monte Carlo estimate of that cell: it lies
1.71 standard errors of a 10^4-draw simulation above it.  No nearby
convention reaches 0.8439: centred r^2 with n - 2 degrees of freedom, the
exponent n/2, g(n - 1) or g(n + 1), a_omega in {1.5, 2, 3} and n0 in {2, 3}
all give at most 0.8387 at n = 100.  The criterion therefore pins both cells
to the quadrature and judges each quoted figure by its Monte Carlo error.
"""

import itertools
import json
import math
import time

import mpmath
import numpy as np
import pytest
from scipy import stats

from causal_ssd.cli import EXIT_OK, main
from causal_ssd.design import best_size_optimal_sequence, optimal_sequences, prior_h0
from causal_ssd.graph import UndirectedGraph, enumerate_class
from causal_ssd.harness import TwoNodeStudyConfig, replicate_two_node_study
from causal_ssd.numerics import RandomStream, regularized_incomplete_beta
from causal_ssd.predictive import prob_bf_band_h0

from helpers import (
    TREE5_EDGES,
    FbfConfig,
    PairedSample,
    bf01,
    brute_force_class,
    fbf_objective_bf,
    random_chordal,
)

# frozen observational draw for the Z-dependent criteria: a representative
# dataset whose sample slope (0.584) sits near the generating value 0.5
STUDY_SEED = 8


@pytest.fixture(scope="module")
def study_report():
    config = TwoNodeStudyConfig(n_max=450)
    return replicate_two_node_study(config, RandomStream(STUDY_SEED))


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_closed_form_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        t = int(rng.integers(2, 7))
        n = int(rng.integers(5, 51))
        sample = PairedSample(
            x_u=rng.uniform(0.5, 2.0) * rng.standard_normal(n),
            x_v=rng.uniform(0.5, 2.0) * rng.standard_normal(n),
        )
        closed = bf01(sample)
        fractional = fbf_objective_bf(sample, FbfConfig(), t)
        worst = max(worst, abs(fractional - closed) / closed)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(1, ok, f"fractional vs closed form: max rel err {worst:.2e}, {elapsed:.2f} s")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_02_h0_law_ks():
    rng = np.random.default_rng(102)
    pvalues = {}
    for n in (10, 50):
        x_u = 0.7 + 1.3 * rng.standard_normal((10_000, n))  # any nondegenerate density
        x_v = rng.standard_normal((10_000, n))
        num = np.einsum("ij,ij->i", x_u, x_v) ** 2
        den = np.einsum("ij,ij->i", x_u, x_u) * np.einsum("ij,ij->i", x_v, x_v)
        r2 = num / den
        res = stats.kstest(
            r2, lambda q, n=n: np.vectorize(regularized_incomplete_beta)(q, 0.5, (n - 1) / 2.0)
        )
        pvalues[n] = res.pvalue
    ok = all(p > 0.01 for p in pvalues.values())
    _report(2, ok, f"simulated r^2 vs Beta(1/2,(n-1)/2): KS p-values {pvalues}")
    for n, p in pvalues.items():
        assert p > 0.01, f"KS rejected at n={n}"


# Draw count assumed behind the quoted figures 0.7364 and 0.8439: that of the
# replicated study, whose report publishes this standard error as mc_se_moderate.
QUOTED_FIGURE_DRAWS = TwoNodeStudyConfig().draws


def _h0_band_by_quadrature(lo: float, hi: float, n: int) -> float:
    """P(lo < BF < hi | H0) by 30-digit quadrature of the Beta(1/2, (n-1)/2) density.

    BF = g(n) (1 - r^2)^((n-1)/2) falls as r^2 rises, so the band is the r^2
    interval (1 - (hi/g)^(2/(n-1)), 1 - (lo/g)^(2/(n-1))), clipped below at 0
    (needs lo < g(n)).  Independent of the package's incomplete-beta routine.
    """
    with mpmath.workdps(30):
        a = mpmath.mpf(1) / 2
        b = mpmath.mpf(n - 1) / 2
        g = n * mpmath.gamma(mpmath.mpf(n) / 2) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(b + 1))
        lower = max(1 - (hi / g) ** (1 / b), 0)
        upper = 1 - (lo / g) ** (1 / b)
        density = lambda x: x ** (a - 1) * (1 - x) ** (b - 1) / mpmath.beta(a, b)
        return float(mpmath.quad(density, [lower, upper]))


def test_criterion_03_exact_evidence_cells():
    """The exact H0 cells match an independent oracle and the quoted table.

    P(3 < BF < 10 | H0) is exact, so the cells at n = 50 and 100 are pinned to
    a quadrature within 1e-12.  The quoted figures 0.7364 and 0.8439 are Monte
    Carlo estimates of these cells and are judged within 3 standard errors
    sqrt(p (1 - p) / S).  The paper's abstract does not record the simulation
    size behind them; S = QUOTED_FIGURE_DRAWS = 10^4 is the stated assumption.
    """
    cell_50 = prob_bf_band_h0(3.0, 10.0, 50)
    cell_100 = prob_bf_band_h0(3.0, 10.0, 100)
    zero_cell = prob_bf_band_h0(10.0, math.inf, 100)
    cells = {50: cell_50, 100: cell_100}
    quoted = {50: 0.7364, 100: 0.8439}
    oracle_err = {n: abs(cell - _h0_band_by_quadrature(3.0, 10.0, n)) for n, cell in cells.items()}
    se = {n: math.sqrt(p * (1 - p) / QUOTED_FIGURE_DRAWS) for n, p in cells.items()}
    z = {n: (quoted[n] - cells[n]) / se[n] for n in cells}
    ok_oracle = all(err <= 1e-12 for err in oracle_err.values())
    ok_quoted = all(abs(quoted[n] - cells[n]) <= 3.0 * se[n] for n in cells)
    ok_50 = abs(cell_50 - 0.7364) <= 0.005
    ok_zero = zero_cell == 0.0
    from causal_ssd.harness import _STRONG_NOTE  # ships with every study report

    ok_note = "exactly 0" in _STRONG_NOTE and "g(n)" in _STRONG_NOTE
    _report(
        3,
        ok_oracle and ok_quoted and ok_50 and ok_zero and ok_note,
        f"P(3<BF<10|H0): n=50 exact {cell_50:.6f}, n=100 exact {cell_100:.6f}; "
        f"max |exact - mpmath quadrature| {max(oracle_err.values()):.1e} (<= 1e-12); "
        f"quoted 0.7364 / 0.8439 at z = {z[50]:+.2f} / {z[100]:+.2f} "
        f"(|z| <= 3, S = {QUOTED_FIGURE_DRAWS} draws); n=50 within 0.7364+/-0.005: {ok_50}; "
        f"P(BF>10|H0,n=100) = {zero_cell} (exact zero), discrepancy note present: {ok_note}",
    )
    assert ok_50, f"n=50 cell {cell_50:.6f} outside 0.7364 +/- 0.005"
    assert ok_zero and ok_note
    for n, err in oracle_err.items():
        assert err <= 1e-12, f"n={n} cell {cells[n]!r} is {err:.1e} from the quadrature oracle"
    for n in cells:
        assert abs(quoted[n] - cells[n]) <= 3.0 * se[n], (
            f"quoted {quoted[n]} is {z[n]:+.2f} standard errors of a "
            f"{QUOTED_FIGURE_DRAWS}-draw simulation from the exact n={n} cell {cells[n]:.10f}"
        )


def test_criterion_04_elbow_bound():
    zeros = [prob_bf_band_h0(10.0, math.inf, n) for n in range(2, 151)]
    at_160 = prob_bf_band_h0(10.0, math.inf, 160)
    ok = all(z == 0.0 for z in zeros) and at_160 > 0.0
    _report(4, ok, f"p0_dc(k0=10, n) zero for n<=150, value at n=160: {at_160:.3e}")
    assert all(z == 0.0 for z in zeros)
    assert at_160 > 0.0


def test_criterion_05_h1_evidence_cells(study_report):
    cells = {
        (r["hypothesis"], r["n"]): r["strong_to_extreme"] for r in study_report.evidence_grid
    }
    p50 = cells[("H1", 50)]
    p100 = cells[("H1", 100)]
    ok = abs(p50 - 0.829) <= 0.10 and abs(p100 - 0.962) <= 0.05
    _report(
        5,
        ok,
        f"P(BF<1/10|H1): n=50 {p50:.4f} (target 0.829+/-0.10), "
        f"n=100 {p100:.4f} (target 0.962+/-0.05); sample slope "
        f"{study_report.observational['sample_slope']:.3f}",
    )
    assert abs(p50 - 0.829) <= 0.10
    assert abs(p100 - 0.962) <= 0.05


def test_criterion_06_figure4_points(study_report):
    nstar = {
        k: next(p["n_star"] for p in points if p["zeta"] == 0.8)
        for k, points in study_report.nstar_curves.items()
    }
    ok = nstar[3.0] is not None and 30 <= nstar[3.0] <= 80
    ok = ok and nstar[10.0] is not None and 220 <= nstar[10.0] <= 400
    _report(
        6,
        ok,
        f"zeta=0.8 optimal n: k=3 -> {nstar[3.0]} (target [30, 80]), "
        f"k=10 -> {nstar[10.0]} (target [220, 400])",
    )
    assert nstar[3.0] is not None and 30 <= nstar[3.0] <= 80
    assert nstar[10.0] is not None and 220 <= nstar[10.0] <= 400


def test_criterion_07_graph_oracles():
    cases = {
        "single edge": (UndirectedGraph("uv", [("u", "v")]), 2),
        "path-3": (UndirectedGraph("123", [("1", "2"), ("2", "3")]), 3),
        "triangle": (UndirectedGraph("123", [("1", "2"), ("2", "3"), ("1", "3")]), 6),
        "4-clique": (
            UndirectedGraph("1234", itertools.combinations("1234", 2)),
            24,
        ),
        "5-node tree": (UndirectedGraph("12345", TREE5_EDGES), 5),
    }
    results = {}
    for name, (g, expected) in cases.items():
        ours = {frozenset(d.edges()) for d in enumerate_class(g)}
        oracle = {frozenset(d.edges()) for d in brute_force_class(g)}
        results[name] = (len(ours), expected, ours == oracle)
    ok = all(n == e and match for n, e, match in results.values())
    _report(7, ok, "class sizes vs brute force: " + str({k: v[0] for k, v in results.items()}))
    for name, (n, expected, match) in results.items():
        assert n == expected, name
        assert match, name


def test_criterion_08_optimal_sequence_structure():
    g1 = UndirectedGraph("12345", TREE5_EDGES)
    g2 = UndirectedGraph("123", [("1", "2"), ("2", "3")])
    seqs_g1 = [s.targets for s in optimal_sequences(g1)]
    seqs_g2 = [s.targets for s in optimal_sequences(g2)]
    candidates = list(zip(optimal_sequences(g1), [[28, 88], [4, 86]]))
    bos = best_size_optimal_sequence(candidates).targets
    ok = seqs_g1 == [("2", "3"), ("3", "4")] and seqs_g2 == [("2",)] and bos == ("3", "4")
    _report(8, ok, f"optimal sequences {seqs_g1} / {seqs_g2}, best-size sequence {bos}")
    assert seqs_g1 == [("2", "3"), ("3", "4")]
    assert seqs_g2 == [("2",)]
    assert bos == ("3", "4")


def test_criterion_09_orientation_prior_oracle():
    path3 = UndirectedGraph("123", [("1", "2"), ("2", "3")])
    dags = enumerate_class(path3)
    count = sum(1 for d in dags if d.has_edge("2", "1"))
    p = prior_h0(path3, "1", "2").p_h0
    ok = p == count / len(dags) == pytest.approx(2.0 / 3.0)
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(20):
        g = random_chordal(rng, int(rng.integers(2, 9)))
        for u, v in g.edges():
            total = prior_h0(g, u, v).p_h0 + prior_h0(g, v, u).p_h0
            worst = max(worst, abs(total - 1.0))
    ok = ok and worst <= 1e-12
    _report(9, ok, f"path-3 prior {p:.4f} (= 2/3 by brute force); max |sum - 1| = {worst:.1e}")
    assert p == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert p == count / len(dags)
    assert worst <= 1e-12


def test_criterion_10_determinism_and_budget(tmp_path):
    out = tmp_path / "sim"
    args = ["simulate", "--out", str(out)]  # full defaults: draws 10^4, grid to 1000
    start = time.perf_counter()
    assert main(args) == EXIT_OK
    elapsed = time.perf_counter() - start
    names = ["report.json", "bf_samples.csv", "dce_curves.csv", "nstar_curves.csv"]
    first = [(out / n).read_bytes() for n in names]
    assert main(args) == EXIT_OK
    identical = [(out / n).read_bytes() for n in names] == first
    report = json.loads((out / "report.json").read_text())
    ok = identical and elapsed < 600.0 and report["config"]["draws"] == 10_000
    _report(
        10,
        ok,
        f"full default run {elapsed:.1f} s (< 600 s), byte-identical rerun: {identical}; "
        "external sample-size figures from third-party data are out of scope by design",
    )
    assert identical
    assert elapsed < 600.0
