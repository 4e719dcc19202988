"""Simulation harness, dataset ingestion, and serialization.

``ingest_csv`` parses a dataset file into a ``predictive.DatasetMatrix``,
the type that ``predictive.build_design_posterior`` turns into a design
posterior.

The two-node replication study draws its observational dataset from the
model u -> v with Gaussian noise, then produces (a) predictive Bayes-factor
samples under both hypotheses, (b) an evidence-category probability grid,
(c) decisive-and-correct evidence curves over the sample-size grid for
several thresholds, and (d) optimal-sample-size curves over a grid of target
probabilities.  ``replicate_two_node_study`` builds the mapping that
``report.json`` prints once and returns it with the samples and curve rows
that the CSV writers below print; the module defines no output record.  All
of it is a pure function of (config, seed): curve files and the JSON report
are byte-identical across reruns.

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
from typing import Iterable, Iterator, Sequence

import numpy as np

from causal_ssd.numerics import RandomStream, instance
from causal_ssd.predictive import (
    BfPredictiveSample,
    DatasetMatrix,
    build_design_posterior,
    draw_h1_edge,
    prob_bf_band_h0,
    sample_bf_h0,
    sample_bf_h1,
)
from causal_ssd.ssd import (
    DCE_CURVE_COLUMNS,
    DceThresholds,
    RunConfig,
    binomial_se,
    dce_curve,
    edge_stream,
    h0_band_probabilities,  # noqa: F401  (no caller; bench/tracing.py wraps harness.h0_band_probabilities)
)


class CsvParseError(ValueError):
    """Malformed dataset file; the message carries the offending line number."""


def ingest_csv(path: str) -> DatasetMatrix:
    """Parse a UTF-8 dataset CSV with a header row of column labels.

    A leading byte-order mark is ignored.  Ragged rows, non-numeric cells,
    and duplicate headers are rejected with the offending line number;
    undecodable text and malformed CSV quoting with the reader's message.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
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
# the generating model u -> v of the observational data: rows, coefficient,
# and the noise sd of both nodes
STUDY_N_OBS = 50
STUDY_BETA = 0.5
STUDY_NOISE_SD = 1.0
# sizes whose draws are exported to bf_samples.csv, and the evidence-grid sizes
EXPORT_SIZES = (10, 50)
GRID_SIZES = (10, 50, 100)
# the thresholds k0 = k1 = k of the curves, and the target probabilities of n*
K_VALUES = (3.0, 6.0, 10.0)
ZETA_GRID = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))


_STRONG_NOTE = (
    "BF under H0 is bounded above by g(n), and g(n) < 10 for every n <= 156; "
    "strong-to-extreme evidence for H0 therefore has probability exactly 0 at "
    "n = 100 (and at every n <= 156). Any nonzero value reported for such a "
    "cell cannot arise from the closed-form factor and indicates simulation "
    "error in whatever produced it."
)


def replicate_two_node_study(
    config: RunConfig, stream: RandomStream
) -> tuple[dict, list[BfPredictiveSample], dict[float, list[tuple]]]:
    """Run the two-node chain-component study end to end.

    Returns ``(report, bf_samples, dce_curves)``.  ``report`` is the
    mapping that ``report.json`` prints, less the CLI's ``config["cli"]``:
    ``config``, ``seed``, ``observational``, ``evidence_grid``,
    ``evidence_note`` and ``nstar_curves``, whose keys are the
    ``format_float`` text of each k.  ``bf_samples`` are the samples that
    ``bf_samples.csv`` prints, and ``dce_curves`` the ``ssd.dce_curve``
    rows of ``dce_curves.csv`` per float k.

    ``config`` gives the draws, the top of the n grid, the intervention
    density and a_omega (None for T - 1 = 1); the generating model, the
    exported and grid sizes, the thresholds and the zeta grid are the module
    constants above, and the report's ``config`` records them all.  The
    observational rows are drawn from ``stream.child(0)``: first the u
    column, u = sd * N(0, 1), then v = sd * N(0, 1) + beta * u, with
    ``STUDY_N_OBS`` rows, coefficient ``STUDY_BETA`` and noise sd
    ``STUDY_NOISE_SD``.  The prior probabilities are p(H0) = p(H1) = 1/2 (the
    two-member class).  H0-side table cells are computed twice, exactly and
    by Monte Carlo; H1-side cells are Monte Carlo under the design posterior
    of the drawn data; all from ``edge_stream(stream, "u", "v")``.
    ``config`` must be a ``RunConfig`` and ``stream`` a ``RandomStream``
    (``numerics.instance``, else ``TypeError``).
    """
    instance("config", config, RunConfig)
    instance("stream", stream, RandomStream)
    u, v = TWO_NODE_LABELS
    gen = stream.child(0).generator()
    x_u = STUDY_NOISE_SD * gen.standard_normal(STUDY_N_OBS)
    x_v = STUDY_NOISE_SD * gen.standard_normal(STUDY_N_OBS) + STUDY_BETA * x_u
    posterior = build_design_posterior(
        DatasetMatrix(TWO_NODE_LABELS, np.column_stack([x_u, x_v])), config.a_omega
    )
    scatter = posterior.scatter
    observational = {
        "n_rows": STUDY_N_OBS,
        "labels": list(TWO_NODE_LABELS),
        "scatter": [[scatter[0, 0], scatter[0, 1]], [scatter[1, 0], scatter[1, 1]]],
        "sample_slope": scatter[0, 1] / scatter[0, 0],
    }

    # the few fixed sizes of the exported samples and the evidence grid are
    # drawn once.  Every sample, here and on the curves, comes from the edge
    # task's substream, as in plan, dce-curve and predict-bf
    fixed_sizes = sorted(set(EXPORT_SIZES) | set(GRID_SIZES))
    edge = edge_stream(stream, u, v)
    h0_samples = {n: sample_bf_h0(n, config.draws, edge) for n in fixed_sizes}
    h1 = draw_h1_edge(posterior, u, v, config.f_u, config.draws, edge)
    h1_samples = {n: sample_bf_h1(h1, n) for n in fixed_sizes}

    # (a) predictive samples for external histogramming
    bf_samples = [h0_samples[n] for n in EXPORT_SIZES] + [h1_samples[n] for n in EXPORT_SIZES]

    # (b) evidence-category grid; moderate is (3, 10) for H0 and (1/10, 1/3)
    # for H1, strong-to-extreme the decisive tail beyond 10 (or 1/10)
    evidence_grid: list[dict] = []
    for n in GRID_SIZES:
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
    for n in GRID_SIZES:
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

    # (c) decisive-and-correct curves over the n grid, one per threshold,
    # from the same edge draw; the H1 sample at each n is shared by all
    # thresholds
    thresholds = [DceThresholds(k0=k, k1=k, zeta=0.5) for k in K_VALUES]
    curves_by_k = dict(zip(K_VALUES, dce_curve(h1, thresholds, 0.5, config.n_max)))

    # (d) optimal n as a function of the target probability: first crossing
    # of each zeta on the reproducible overall curve, keyed by the text of k
    nstar_curves = {
        format_float(k): [
            {"zeta": zeta, "n_star": next((n for n, _, _, dc, _ in rows if dc >= zeta), None)}
            for zeta in ZETA_GRID
        ]
        for k, rows in curves_by_k.items()
    }

    report = {
        "config": {
            "n_obs": STUDY_N_OBS,
            "beta": STUDY_BETA,
            "noise_sd": STUDY_NOISE_SD,
            "draws": config.draws,
            "n_max": config.n_max,
            "k_values": list(K_VALUES),
            "export_sizes": list(EXPORT_SIZES),
            "grid_sizes": list(GRID_SIZES),
            "zeta_grid": list(ZETA_GRID),
            "intervention_mean": config.f_u.mean,
            "intervention_sd": config.f_u.sd,
            "a_omega": 1.0 if config.a_omega is None else config.a_omega,
        },
        "seed": stream.seed,
        "observational": observational,
        "evidence_grid": evidence_grid,
        "evidence_note": _STRONG_NOTE,
        "nstar_curves": nstar_curves,
    }
    return report, bf_samples, curves_by_k


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


def atomic_write_chunks(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks in order via a temporary file and rename, so readers
    never see partial output and the text is never held whole.

    The file gets the mode a plain ``open`` would create it with, 0o666 less
    the umask; the temporary file's own mode is 0o600.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    """``atomic_write_chunks`` of the one chunk ``text``."""
    atomic_write_chunks(path, (text,))


def json_text(obj: dict) -> str:
    """The text of every JSON artifact: keys sorted, an indent of 2, and a
    final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(obj: dict, path: str) -> None:
    atomic_write_text(path, json_text(obj))


# rows of bf_samples.csv formatted at a time: about 130 kB of text
BF_SAMPLES_BLOCK_ROWS = 4096


def bf_samples_csv(samples: Iterable[BfPredictiveSample]) -> Iterator[str]:
    """CSV of tagged draws: hypothesis, n, draw_index, bf.

    Yields the header line, then the rows in blocks of at most
    ``BF_SAMPLES_BLOCK_ROWS``, each block one string.  The bf column has the
    ``format_float`` text of every draw.
    """
    yield "hypothesis,n,draw_index,bf\n"
    for sample in samples:
        hypothesis, n, draws = sample.hypothesis, sample.n, sample.draws
        for start in range(0, draws.size, BF_SAMPLES_BLOCK_ROWS):
            values = draws[start : start + BF_SAMPLES_BLOCK_ROWS].tolist()
            yield "".join(
                f"{hypothesis},{n},{i},{v:.17g}\n" for i, v in enumerate(values, start)
            )


def _numbers_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV with every cell written by ``format_float``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([format_float(x) for x in row] for row in rows)
    return buf.getvalue()


def dce_curve_csv(rows: Iterable[tuple]) -> str:
    """CSV of ``ssd.dce_curve`` rows: n, p0_dc, p1_dc, overall_dc, se_overall."""
    return _numbers_csv(DCE_CURVE_COLUMNS, rows)


def threshold_curves_csv(curves_by_k: dict[float, list[tuple]]) -> str:
    """Long-format CSV of the threshold curves: k, then the ``DCE_CURVE_COLUMNS``."""
    return _numbers_csv(
        ("k",) + DCE_CURVE_COLUMNS,
        ((k,) + row for k in sorted(curves_by_k) for row in curves_by_k[k]),
    )


def nstar_curve_csv(nstar_by_k: dict[str, list[dict]]) -> str:
    """CSV of optimal n against the target probability: k, zeta, n_star.

    ``nstar_by_k`` is the report's ``nstar_curves``; its k keys are
    written in numeric order.
    """
    return _numbers_csv(
        ("k", "zeta", "n_star"),
        ((k, p["zeta"], p["n_star"]) for k in sorted(nstar_by_k, key=float)
         for p in nstar_by_k[k]),
    )
