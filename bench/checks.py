"""Correctness checks on the CLI's outputs, computed apart from the program.

Nothing here imports ``causal_ssd``.  The H0 side is checked against
``mpmath`` (quadrature and the regularized incomplete beta function of the
Beta(1/2, (n-1)/2) law of r^2), the graph side against brute force over
vertex subsets and edge orientations, and the H1 side against a simulation
that draws the Wishart precision with ``scipy.stats.wishart`` and then
explicit interventional pairs.  Each check returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from functools import lru_cache

import mpmath
import numpy as np
from scipy import stats

from workloads import N_ROWS, PlanSpec

ZETA = 0.8  # CLI defaults: k0 = k1 = 6, zeta = 0.8, draws = 10^4
K0 = K1 = 6.0
DRAWS = 10_000
SIM_K = (3.0, 6.0, 10.0)
SIM_ZETAS = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))
SIM_EVIDENCE_N = (10, 50, 100)
SIM_EXPORT_N = (10, 50)
INDEPENDENT_DRAWS = 4_000
SIGMAS = 5.0


# ---------------------------------------------------------------------------
# the H0 law, from mpmath
# ---------------------------------------------------------------------------


def _g(n: int):
    """g(n) = n Gamma(n/2) / (sqrt(pi) Gamma((n+1)/2)), the ceiling of BF under H0."""
    half = mpmath.mpf(n) / 2
    return n * mpmath.gamma(half) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(half + mpmath.mpf(1) / 2))


def _r2_cut(c: float, n: int):
    """r^2 value at which BF = c; BF >= c exactly when r^2 <= the cut."""
    if math.isinf(c):
        return mpmath.mpf(0)
    cut = 1 - (mpmath.mpf(c) / _g(n)) ** (mpmath.mpf(2) / (n - 1))
    return max(cut, mpmath.mpf(0))


@lru_cache(maxsize=None)
def h0_tail(k: float, n: int) -> float:
    """P(BF >= k | H0) as the Beta(1/2, (n-1)/2) law of r^2 below the cut."""
    with mpmath.workdps(30):
        x = _r2_cut(k, n)
        if x <= 0:
            return 0.0
        return float(mpmath.betainc(mpmath.mpf(1) / 2, mpmath.mpf(n - 1) / 2, 0, x, regularized=True))


def h0_band_by_quadrature(lo: float, hi: float, n: int) -> float:
    """P(lo < BF < hi | H0) by quadrature of the Beta(1/2, (n-1)/2) density of r^2."""
    with mpmath.workdps(30):
        a, b = mpmath.mpf(1) / 2, mpmath.mpf(n - 1) / 2
        x_lo, x_hi = _r2_cut(hi, n), _r2_cut(lo, n)
        if x_hi <= x_lo:
            return 0.0

        def density(x):
            return x ** (a - 1) * (1 - x) ** (b - 1) / mpmath.beta(a, b)

        return float(mpmath.quad(density, [x_lo, x_hi]))


def log_g(n: int) -> float:
    return math.log(n) + math.lgamma(n / 2) - math.lgamma((n + 1) / 2) - 0.5 * math.log(math.pi)


def first_allowed_n(p_h0: float, n_max: int = 1000) -> int | None:
    """First n at which the exact H0 side lets the mixture reach ZETA.

    With p1_dc at most 1, overall_dc <= p_h0 * P(BF >= k0 | H0) + p_h1.
    """
    for n in range(2, n_max + 1):
        if p_h0 * h0_tail(K0, n) + (1.0 - p_h0) >= ZETA:
            return n
    return None


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith("# config "):
            raise ValueError(f"{path}: missing config line")
        return list(csv.DictReader(fh))


def check_simulate(out_dir: str, seed: int) -> list[str]:
    errors: list[str] = []
    with open(f"{out_dir}/report.json") as fh:
        report = json.load(fh)
    if report["seed"] != seed:
        errors.append(f"report seed {report['seed']} != {seed}")

    # exact and Monte Carlo H0 evidence cells
    h0_rows = [r for r in report["evidence_grid"] if r["hypothesis"] == "H0"]
    if sorted(r["n"] for r in h0_rows) != sorted(SIM_EVIDENCE_N):
        errors.append("evidence grid does not hold the H0 rows at n = 10, 50, 100")
    for row in h0_rows:
        n = row["n"]
        exact = h0_band_by_quadrature(3.0, 10.0, n)
        if abs(row["moderate"] - exact) > 1e-12:
            errors.append(f"H0 moderate cell at n={n}: {row['moderate']!r} != quadrature {exact!r}")
        if n <= 156 and row["strong_to_extreme"] != 0.0:
            errors.append(f"H0 strong cell at n={n} is {row['strong_to_extreme']!r}, not exactly 0")
        strong = h0_band_by_quadrature(10.0, math.inf, n)
        for cell, mc, p in (
            ("moderate", row["moderate_mc"], exact),
            ("strong", row["strong_to_extreme_mc"], strong),
        ):
            se = math.sqrt(p * (1.0 - p) / DRAWS)
            if abs(mc - p) > 4.0 * se:
                errors.append(f"H0 {cell} Monte Carlo cell at n={n}: {mc!r} is beyond 4 se of {p!r}")

    # decisive-and-correct curves
    rows = _read_csv(f"{out_dir}/dce_curves.csv")
    curves: dict[float, list[tuple[int, float, float, float]]] = {}
    for r in rows:
        k, n = float(r["k"]), int(r["n"])
        p0, p1, overall = float(r["p0_dc"]), float(r["p1_dc"]), float(r["overall_dc"])
        curves.setdefault(k, []).append((n, p0, p1, overall))
        if abs(overall - (0.5 * p0 + 0.5 * p1)) > 1e-15:
            errors.append(f"k={k} n={n}: overall_dc {overall!r} != (p0_dc + p1_dc) / 2")
        if k == 10.0 and n <= 156 and p0 != 0.0:
            errors.append(f"k=10 n={n}: p0_dc {p0!r} is not exactly 0")
    if sorted(curves) != list(SIM_K):
        errors.append(f"dce curves hold thresholds {sorted(curves)}")
    rng = np.random.default_rng([seed, 0xC0DE])
    sampled = sorted({2, 156, 157, 1000, *(int(x) for x in rng.integers(2, 1001, size=12))})
    for k, curve in curves.items():
        if [c[0] for c in curve] != list(range(2, 1001)):
            errors.append(f"k={k}: the curve does not cover n = 2..1000 in order")
            continue
        for n in sampled:
            p0 = curve[n - 2][1]
            exact = h0_tail(k, n)
            if abs(p0 - exact) > 1e-10:
                errors.append(f"k={k} n={n}: p0_dc {p0!r} != closed form {exact!r}")

    # optimal n against zeta: first crossings, nondecreasing in zeta
    nstar_rows = _read_csv(f"{out_dir}/nstar_curves.csv")
    for k, curve in curves.items():
        got = {float(r["zeta"]): (int(r["n_star"]) if r["n_star"] else None)
               for r in nstar_rows if float(r["k"]) == k}
        if sorted(got) != list(SIM_ZETAS):
            errors.append(f"k={k}: n* rows for zeta {sorted(got)}")
            continue
        previous = 0
        for zeta in SIM_ZETAS:
            want = next((n for n, _, _, overall in curve if overall >= zeta), None)
            if got[zeta] != want:
                errors.append(f"k={k} zeta={zeta}: n* {got[zeta]} is not the first crossing {want}")
            value = math.inf if got[zeta] is None else got[zeta]
            if value < previous:
                errors.append(f"k={k}: n* decreases at zeta={zeta}")
            previous = value

    # exported Bayes-factor draws: H0 draws never exceed g(n)
    counts: dict[tuple[str, int], int] = {}
    for r in _read_csv(f"{out_dir}/bf_samples.csv"):
        hyp, n, bf = r["hypothesis"], int(r["n"]), float(r["bf"])
        counts[(hyp, n)] = counts.get((hyp, n), 0) + 1
        if not bf >= 0.0:
            errors.append(f"{hyp} n={n}: negative or NaN draw {bf!r}")
        if hyp == "H0" and bf > math.exp(log_g(n)) * (1.0 + 1e-12):
            errors.append(f"H0 n={n}: draw {bf!r} exceeds g(n)")
    want_counts = {(h, n): DRAWS for h in ("H0", "H1") for n in SIM_EXPORT_N}
    if counts != want_counts:
        errors.append(f"bf_samples.csv holds {counts}, want {want_counts}")
    return errors


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------


def minimum_vertex_covers(spec: PlanSpec) -> set[tuple[str, ...]]:
    for size in range(len(spec.nodes) + 1):
        covers = {
            combo
            for combo in itertools.combinations(sorted(spec.nodes), size)
            if all(a in combo or b in combo for a, b in spec.edges)
        }
        if covers:
            return covers
    raise AssertionError("the full vertex set is a cover")


def orientation_prior(spec: PlanSpec) -> dict[tuple[str, str], float]:
    """p_h0 of (u, v) = share of the class with v -> u, by brute force.

    The class is every orientation of the edges that is acyclic and has no
    v-structure.  Brute force over 2^edges orientations (2^10 for plan-late).
    """
    adjacent = {frozenset(e) for e in spec.edges}
    members = []
    for mask in itertools.product((0, 1), repeat=len(spec.edges)):
        arcs = [(a, b) if m == 0 else (b, a) for (a, b), m in zip(spec.edges, mask)]
        parents = {n: {a for a, b in arcs if b == n} for n in spec.nodes}
        if any(frozenset((p, q)) not in adjacent
               for ps in parents.values() for p, q in itertools.combinations(sorted(ps), 2)):
            continue
        remaining, acyclic = dict(parents), True
        while remaining:
            roots = [n for n, ps in remaining.items() if not ps & remaining.keys()]
            if not roots:
                acyclic = False
                break
            for n in roots:
                del remaining[n]
        if acyclic:
            members.append(set(arcs))
    prior = {}
    for a, b in spec.edges:
        for u, v in ((a, b), (b, a)):
            prior[(u, v)] = sum((v, u) in m for m in members) / len(members)
    return prior


def expected_prior(spec: PlanSpec) -> dict[tuple[str, str], float]:
    """The p_h0 every (target, neighbor) pair must get."""
    t = len(spec.nodes)
    if len(spec.edges) == t * (t - 1) // 2:
        # a clique: the class is every total order, half of which put v first
        return {(u, v): 0.5 for a, b in spec.edges for u, v in ((a, b), (b, a))}
    return orientation_prior(spec)


def independent_p1_dc(scatter_block: np.ndarray, df: float, n: int, gen: np.random.Generator,
                      draws: int = INDEPENDENT_DRAWS) -> float:
    """P(BF <= 1/K1 | H1) at n, by explicit interventional pairs.

    The 2x2 conditional precision of (u, v) is Wishart with ``df`` degrees
    of freedom and rate ``scatter_block`` (scale ``scatter_block^-1``), drawn
    by ``scipy.stats.wishart``.  The draw fixes the slope of v on u and the
    conditional sd; x_u is standard normal (the CLI's default interventional
    density).
    """
    precision = stats.wishart(df=df, scale=np.linalg.inv(scatter_block))
    cut = -math.log(K1) - log_g(n)
    hits = 0
    block = 1000
    for start in range(0, draws, block):
        m = min(block, draws - start)
        q = precision.rvs(size=m, random_state=gen)
        slope = -q[:, 0, 1] / q[:, 1, 1]
        sd = np.sqrt(1.0 / q[:, 1, 1])
        x_u = gen.standard_normal((m, n))
        x_v = slope[:, None] * x_u + sd[:, None] * gen.standard_normal((m, n))
        uv = np.einsum("ij,ij->i", x_u, x_v)
        r2 = uv * uv / (np.einsum("ij,ij->i", x_u, x_u) * np.einsum("ij,ij->i", x_v, x_v))
        hits += int(np.count_nonzero(0.5 * (n - 1) * np.log1p(-r2) <= cut))
    return hits / draws


def check_plan(plan_path: str, data_path: str, spec: PlanSpec, seed: int) -> list[str]:
    """Check a plan document for ``spec`` against its data file."""
    errors: list[str] = []
    with open(plan_path) as fh:
        doc = json.load(fh)
    comps = doc["components"]
    if len(comps) != 1 or comps[0]["component"] != sorted(spec.nodes):
        return [f"plan components {[c['component'] for c in comps]} != one {sorted(spec.nodes)}"]
    comp = comps[0]
    if comp["error"] is not None or not comp["feasible"]:
        return [f"component error {comp['error']!r}, feasible {comp['feasible']}"]

    covers = minimum_vertex_covers(spec)
    sequences = {tuple(p["sequence"]) for p in comp["plans"]}
    if sequences != covers or len(comp["plans"]) != len(covers):
        errors.append(f"sequences {sorted(sequences)} != minimum vertex covers {sorted(covers)}")

    z = np.loadtxt(data_path, delimiter=",", skiprows=1)
    with open(data_path) as fh:
        labels = fh.readline().strip().split(",")
    scatter = z.T @ z
    t = len(spec.nodes)
    df = (t - 1) + N_ROWS - (t - 2)  # a_omega = T - 1, then T - 2 coordinates conditioned out
    neighbors = {n: sorted({b for a, b in spec.edges if a == n} | {a for a, b in spec.edges if b == n})
                 for n in spec.nodes}

    edges_seen: dict[tuple[str, str], dict] = {}
    for plan in comp["plans"]:
        sizes = []
        for u in plan["sequence"]:
            entry = plan["targets"][u]
            edges = entry["edges"]
            if [e["v"] for e in edges] != neighbors[u] or any(e["u"] != u for e in edges):
                errors.append(f"target {u}: edges {[e['v'] for e in edges]} != neighbors {neighbors[u]}")
                continue
            for e in edges:
                key = (u, e["v"])
                if key in edges_seen and edges_seen[key] != e:
                    errors.append(f"edge {key} differs between sequences")
                edges_seen[key] = e
            n_stars = [e["n_star"] for e in edges]
            if None in n_stars or entry["n_star_node"] != max(n_stars):
                errors.append(f"target {u}: node size {entry['n_star_node']} != max of {n_stars}")
            sizes.append(entry["n_star_node"])
        if plan["total_n"] != sum(s for s in sizes if s is not None) or not plan["achieved"]:
            errors.append(f"sequence {plan['sequence']}: total {plan['total_n']} != sum of {sizes}")
    flagged = [p for p in comp["plans"] if p["bos"]]
    best = min(comp["plans"], key=lambda p: (p["total_n"], sorted(p["sequence"])))
    if len(flagged) != 1 or flagged[0] is not best:
        errors.append(f"BOS flags on {[p['sequence'] for p in flagged]}, minimum total is {best['sequence']}")

    prior = expected_prior(spec)
    gen = np.random.default_rng([seed, 0xB1])
    for (u, v), e in sorted(edges_seen.items()):
        tag = f"edge {u}->{v}"
        want_prior = prior[(u, v)]
        if abs(e["p_h0"] - want_prior) > 1e-12:
            errors.append(f"{tag}: p_h0 {e['p_h0']!r} != class count {want_prior!r}")
        n, dce = e["n_star"], e["dce_at_n_star"]
        if n is None or dce is None or not e["achieved"]:
            errors.append(f"{tag}: not achieved")
            continue
        p_h0, p_h1 = e["p_h0"], 1.0 - e["p_h0"]
        if dce["overall_dc"] < ZETA:
            errors.append(f"{tag}: overall_dc {dce['overall_dc']!r} < zeta at n* = {n}")
        if abs(dce["overall_dc"] - (p_h0 * dce["p0_dc"] + p_h1 * dce["p1_dc"])) > 1e-12:
            errors.append(f"{tag}: overall_dc is not p_h0 * p0_dc + p_h1 * p1_dc")
        if abs(dce["p0_dc"] - h0_tail(K0, n)) > 1e-10:
            errors.append(f"{tag}: p0_dc {dce['p0_dc']!r} != closed form {h0_tail(K0, n)!r} at n={n}")
        floor = first_allowed_n(p_h0)
        if floor is None or n < floor:
            errors.append(f"{tag}: n* = {n} is below the first n the H0 bound allows ({floor})")
        iu, iv = labels.index(u), labels.index(v)
        block = scatter[np.ix_((iu, iv), (iu, iv))]
        p1 = independent_p1_dc(block, df, n, gen)
        se = math.sqrt(dce["mc_se"]["p1_dc"] ** 2 + p1 * (1.0 - p1) / INDEPENDENT_DRAWS)
        if abs(dce["p1_dc"] - p1) > SIGMAS * se:
            errors.append(f"{tag}: p1_dc {dce['p1_dc']!r} vs independent {p1!r} at n={n} (se {se:.4f})")
    return errors
