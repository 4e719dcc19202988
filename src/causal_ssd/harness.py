"""Simulation harness, dataset ingestion, and serialization.

The two-node replication study regenerates an observational dataset from a
linear structural equation model, then produces (a) predictive Bayes-factor
samples under both hypotheses, (b) an evidence-category probability grid,
(c) decisive-and-correct evidence curves over the sample-size grid for
several thresholds, and (d) optimal-sample-size curves over a grid of target
probabilities.  The whole report is a pure function of (config, seed): curve
files and the JSON report are byte-identical across reruns.

All CSV numbers are written with 17 significant digits; JSON floats use
Python's shortest round-trip representation, which is also lossless.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from causal_ssd.design import EdgeHypothesisPrior
from causal_ssd.graph import Dag
from causal_ssd.numerics import RandomStream
from causal_ssd.predictive import (
    BfPredictiveSample,
    InterventionDensity,
    build_design_posterior,
    draw_h1_edge,
    prob_bf_band_h0,
    sample_bf_h0,
    sample_bf_h1,
)
from causal_ssd.ssd import (
    DceProbabilities,
    DceThresholds,
    assemble_dce,
    binomial_se,
    h0_band_probabilities,
)


class CsvParseError(ValueError):
    """Malformed dataset file; the message carries the offending line number."""


class MissingColumnsError(ValueError):
    """The dataset has no column for some of the requested labels."""


@dataclass(frozen=True)
class DatasetMatrix:
    """Labeled numeric data matrix without missing values."""

    labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        labels = tuple(str(x) for x in self.labels)
        values = np.array(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError("values must be a 2-D matrix")
        if values.shape[0] < 1:
            raise ValueError("dataset needs at least one row")
        if values.shape[1] != len(labels):
            raise ValueError("number of labels must match number of columns")
        if len(set(labels)) != len(labels):
            raise ValueError("column labels must be distinct")
        if not np.all(np.isfinite(values)):
            raise ValueError("dataset values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", values)

    def column(self, label: str) -> np.ndarray:
        return self.values[:, self.labels.index(str(label))]

    def restrict(self, labels: Sequence[str]) -> "DatasetMatrix":
        """Columns for the given labels, in the given order."""
        wanted = [str(x) for x in labels]
        missing = sorted(set(wanted) - set(self.labels))
        if missing:
            raise MissingColumnsError(f"dataset is missing columns: {missing}")
        idx = [self.labels.index(x) for x in wanted]
        return DatasetMatrix(labels=tuple(wanted), values=self.values[:, idx])


@dataclass(frozen=True)
class LinearSemSpec:
    """Linear Gaussian structural equation model over a DAG.

    Every DAG edge carries one coefficient; every node one positive noise
    standard deviation.  A node equals the coefficient-weighted sum of its
    parents plus Gaussian noise.
    """

    dag: Dag
    coefficients: dict
    noise_sd: dict

    def __post_init__(self) -> None:
        coeffs = {(str(a), str(b)): float(c) for (a, b), c in self.coefficients.items()}
        sds = {str(n): float(s) for n, s in self.noise_sd.items()}
        dag_edges = set(self.dag.edges())
        extra = set(coeffs) - dag_edges
        if extra:
            raise ValueError(f"coefficients on non-edges: {sorted(extra)}")
        unset = dag_edges - set(coeffs)
        if unset:
            raise ValueError(f"edges without coefficients: {sorted(unset)}")
        for n in self.dag.nodes:
            if n not in sds:
                raise ValueError(f"missing noise sd for node {n!r}")
            if not (math.isfinite(sds[n]) and sds[n] > 0.0):
                raise ValueError(f"noise sd for node {n!r} must be positive")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "noise_sd", sds)


def generate_sem_data(spec: LinearSemSpec, n_rows: int, stream: RandomStream) -> DatasetMatrix:
    """Sample i.i.d. rows from the structural model, in topological order."""
    if n_rows < 1:
        raise ValueError("n_rows must be positive")
    gen = stream.generator()
    columns: dict[str, np.ndarray] = {}
    for node in spec.dag.topological_order():
        x = spec.noise_sd[node] * gen.standard_normal(n_rows)
        for parent in spec.dag.parents(node):
            x = x + spec.coefficients[(parent, node)] * columns[parent]
        columns[node] = x
    labels = spec.dag.nodes
    return DatasetMatrix(labels=labels, values=np.column_stack([columns[n] for n in labels]))


def ingest_csv(path: str) -> DatasetMatrix:
    """Parse a dataset CSV with a header row of column labels.

    Ragged rows, non-numeric cells, and duplicate headers are rejected with
    the offending line number; undecodable text and malformed CSV quoting
    with the reader's message.
    """
    try:
        with open(path, newline="") as fh:
            return _parse_csv(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise CsvParseError(f"{path}: {exc}") from None


def _parse_csv(reader) -> DatasetMatrix:
    """Dataset from the rows of a CSV reader; see ``ingest_csv``."""
    try:
        header = next(reader)
    except StopIteration:
        raise CsvParseError("line 1: empty file, expected a header row") from None
    labels = [h.strip() for h in header]
    if any(not h for h in labels):
        raise CsvParseError("line 1: empty column label")
    if len(set(labels)) != len(labels):
        dupes = sorted({h for h in labels if labels.count(h) > 1})
        raise CsvParseError(f"line 1: duplicate column labels {dupes}")
    rows: list[list[float]] = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(labels):
            raise CsvParseError(
                f"line {lineno}: expected {len(labels)} fields, got {len(row)}"
            )
        parsed = []
        for label, cell in zip(labels, row):
            try:
                value = float(cell)
            except ValueError:
                raise CsvParseError(
                    f"line {lineno}: non-numeric value {cell!r} in column {label!r}"
                ) from None
            if not math.isfinite(value):
                raise CsvParseError(
                    f"line {lineno}: non-finite value {cell!r} in column {label!r}"
                )
            parsed.append(value)
        rows.append(parsed)
    if not rows:
        raise CsvParseError("line 2: no data rows")
    return DatasetMatrix(labels=tuple(labels), values=np.array(rows, dtype=float))


# ---------------------------------------------------------------------------
# two-node replication study
# ---------------------------------------------------------------------------

TWO_NODE_LABELS = ("u", "v")


@dataclass(frozen=True)
class TwoNodeStudyConfig:
    """Configuration of the two-node chain-component study."""

    n_obs: int = 50
    beta: float = 0.5
    noise_sd: float = 1.0
    draws: int = 10_000
    n_max: int = 1000
    k_values: tuple[float, ...] = (3.0, 6.0, 10.0)
    export_sizes: tuple[int, ...] = (10, 50)
    grid_sizes: tuple[int, ...] = (10, 50, 100)
    zeta_grid: tuple[float, ...] = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))
    intervention: InterventionDensity = InterventionDensity()
    a_omega: float = 1.0  # T - 1 for the two-node component

    def to_dict(self) -> dict:
        return {
            "n_obs": self.n_obs,
            "beta": self.beta,
            "noise_sd": self.noise_sd,
            "draws": self.draws,
            "n_max": self.n_max,
            "k_values": list(self.k_values),
            "export_sizes": list(self.export_sizes),
            "grid_sizes": list(self.grid_sizes),
            "zeta_grid": list(self.zeta_grid),
            "intervention_mean": self.intervention.mean,
            "intervention_sd": self.intervention.sd,
            "a_omega": self.a_omega,
        }


@dataclass
class TwoNodeStudyReport:
    """All outputs of the two-node study; a pure function of (config, seed)."""

    config: dict
    seed: int
    observational: dict
    bf_samples: list[BfPredictiveSample]
    evidence_grid: list[dict]
    evidence_note: str
    dce_curves: dict[float, list[tuple]]  # dce_curve_row tuples per threshold k
    nstar_curves: dict[float, list[dict]]

    def to_json_dict(self) -> dict:
        # curve and sample arrays are exported as CSV, not embedded here
        return {
            "config": dict(self.config),
            "seed": self.seed,
            "observational": dict(self.observational),
            "evidence_grid": [dict(row) for row in self.evidence_grid],
            "evidence_note": self.evidence_note,
            "nstar_curves": {
                format_float(k): [dict(p) for p in points]
                for k, points in sorted(self.nstar_curves.items())
            },
        }


_STRONG_NOTE = (
    "BF under H0 is bounded above by g(n), and g(n) < 10 for every n <= 156; "
    "strong-to-extreme evidence for H0 therefore has probability exactly 0 at "
    "n = 100 (and at every n <= 156). Any nonzero value reported for such a "
    "cell cannot arise from the closed-form factor and indicates simulation "
    "error in whatever produced it."
)


def replicate_two_node_study(
    config: TwoNodeStudyConfig, stream: RandomStream
) -> TwoNodeStudyReport:
    """Run the two-node chain-component study end to end.

    The generating model is u -> v with the configured coefficient and unit
    prior probabilities p(H0) = p(H1) = 1/2 (the two-member class).  H0-side
    table cells are computed twice, exactly and by Monte Carlo; H1-side cells
    are Monte Carlo under the design posterior of the regenerated data.
    """
    u, v = TWO_NODE_LABELS
    dag = Dag((u, v), [(u, v)])
    sem = LinearSemSpec(
        dag=dag,
        coefficients={(u, v): config.beta},
        noise_sd={u: config.noise_sd, v: config.noise_sd},
    )
    data = generate_sem_data(sem, config.n_obs, stream.child(0))
    posterior = build_design_posterior(data.values, config.a_omega, labels=data.labels)
    scatter = posterior.scatter
    observational = {
        "n_rows": config.n_obs,
        "labels": list(data.labels),
        "scatter": [[scatter[0, 0], scatter[0, 1]], [scatter[1, 0], scatter[1, 1]]],
        "sample_slope": scatter[0, 1] / scatter[0, 0],
    }
    prior = EdgeHypothesisPrior(u=u, v=v, p_h0=0.5, p_h1=0.5)

    # the few fixed sizes of the exported samples and the evidence grid are
    # drawn once; the curves reuse them.  Every H1 sample comes from the one
    # edge draw on the H1 stream child(2)
    fixed_sizes = sorted(set(config.export_sizes) | set(config.grid_sizes))
    h0_samples = {n: sample_bf_h0(n, config.draws, stream.child(1, n)) for n in fixed_sizes}
    h1 = draw_h1_edge(posterior, u, v, config.intervention, config.draws, stream.child(2))
    h1_samples = {n: sample_bf_h1(h1, n) for n in fixed_sizes}

    # (a) predictive samples for external histogramming
    bf_samples = [h0_samples[n] for n in config.export_sizes] + [
        h1_samples[n] for n in config.export_sizes
    ]

    # (b) evidence-category grid; moderate is (3, 10) for H0 and (1/10, 1/3)
    # for H1, strong-to-extreme the decisive tail beyond 10 (or 1/10)
    evidence_grid: list[dict] = []
    for n in config.grid_sizes:
        exact_moderate = prob_bf_band_h0(3.0, 10.0, n)
        exact_strong = prob_bf_band_h0(10.0, math.inf, n)
        mc = h0_samples[n]
        evidence_grid.append(
            {
                "hypothesis": "H0",
                "n": n,
                "moderate": exact_moderate,
                "strong_to_extreme": exact_strong,
                "method": "exact",
                "moderate_mc": mc.fraction_in(3.0, 10.0),
                "strong_to_extreme_mc": mc.fraction_in(10.0, math.inf),
                "mc_se_moderate": binomial_se(exact_moderate, config.draws),
            }
        )
    for n in config.grid_sizes:
        sample = h1_samples[n]
        moderate = sample.fraction_in(1.0 / 10.0, 1.0 / 3.0)
        strong = sample.fraction_in(0.0, 1.0 / 10.0)
        evidence_grid.append(
            {
                "hypothesis": "H1",
                "n": n,
                "moderate": moderate,
                "strong_to_extreme": strong,
                "method": "monte_carlo",
                "mc_se_moderate": binomial_se(moderate, config.draws),
                "mc_se_strong": binomial_se(strong, config.draws),
            }
        )

    # (c) decisive-and-correct curves over the n grid, one per threshold;
    # the H1 predictive sample at each n is shared by all thresholds
    thresholds_by_k = {k: DceThresholds(k0=k, k1=k, zeta=0.5) for k in config.k_values}
    curves_by_k: dict[float, list[tuple]] = {k: [] for k in config.k_values}
    for n in range(2, config.n_max + 1):
        sample = h1_samples[n] if n in h1_samples else sample_bf_h1(h1, n)
        for k, th in thresholds_by_k.items():
            dce = assemble_dce(h0_band_probabilities(th, n), th, prior, sample)
            curves_by_k[k].append(dce_curve_row(n, dce))

    # (d) optimal n as a function of the target probability: first crossing
    # of each zeta on the reproducible overall curve
    nstar_by_k = {
        k: [
            {"zeta": zeta, "n_star": next((n for n, _, _, dc, _ in rows if dc >= zeta), None)}
            for zeta in config.zeta_grid
        ]
        for k, rows in curves_by_k.items()
    }

    return TwoNodeStudyReport(
        config=config.to_dict(),
        seed=stream.seed,
        observational=observational,
        bf_samples=bf_samples,
        evidence_grid=evidence_grid,
        evidence_note=_STRONG_NOTE,
        dce_curves=curves_by_k,
        nstar_curves=nstar_by_k,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def format_float(x) -> str:
    """17-significant-digit text form used in all CSV output."""
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temporary file and rename, so readers never see partial output."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(obj: dict, path: str) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def bf_samples_csv(samples: Iterable[BfPredictiveSample]) -> str:
    """CSV of tagged draws: hypothesis, n, draw_index, bf."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["hypothesis", "n", "draw_index", "bf"])
    for sample in samples:
        for i, value in enumerate(sample.draws):
            writer.writerow([sample.hypothesis, sample.n, i, format_float(value)])
    return buf.getvalue()


DCE_CURVE_COLUMNS = ("n", "p0_dc", "p1_dc", "overall_dc", "se_overall")


def dce_curve_row(n: int, dce: DceProbabilities) -> tuple:
    """The ``DCE_CURVE_COLUMNS`` of the evidence probabilities at n."""
    return (n, dce.p0_dc, dce.p1_dc, dce.overall_dc, dce.mc_se["overall_dc"])


def _numbers_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV with every cell written by ``format_float``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([format_float(x) for x in row] for row in rows)
    return buf.getvalue()


def dce_curve_csv(rows: Iterable[tuple]) -> str:
    """CSV of ``dce_curve_row`` rows: n, p0_dc, p1_dc, overall_dc, se_overall."""
    return _numbers_csv(DCE_CURVE_COLUMNS, rows)


def threshold_curves_csv(curves_by_k: dict[float, list[tuple]]) -> str:
    """Long-format CSV of the threshold curves: k, then the ``dce_curve_row`` columns."""
    return _numbers_csv(
        ("k",) + DCE_CURVE_COLUMNS,
        ((k,) + row for k in sorted(curves_by_k) for row in curves_by_k[k]),
    )


def nstar_curve_csv(nstar_by_k: dict[float, list[dict]]) -> str:
    """CSV of optimal n against the target probability: k, zeta, n_star."""
    return _numbers_csv(
        ("k", "zeta", "n_star"),
        ((k, p["zeta"], p["n_star"]) for k in sorted(nstar_by_k) for p in nstar_by_k[k]),
    )
