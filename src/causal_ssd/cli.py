"""Command-line surface: plan, dce-curve, predict-bf, simulate.

Every output artifact embeds the full run configuration and seed, and
re-running a command with the same inputs reproduces byte-identical output.
Flags may be preset through environment variables prefixed CAUSAL_SSD_
(for example CAUSAL_SSD_SEED=7); explicit flags win.

Exit statuses: 0 success, 1 usage error, 2 input/parse error, 3
capacity/propriety error, 4 plan not achievable (no candidate sequence
reached the target probability within the sample-size grid).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from causal_ssd.design import prior_h0
from causal_ssd.graph import (
    CapacityError,
    GraphFormatError,
    InconsistentOrientationError,
    InvalidChainGraphError,
    NotDecomposableError,
    chain_components,
    enumerate_class,  # noqa: F401  (no caller; bench/tracing.py wraps cli.enumerate_class)
    parse_edge_list,
)
from causal_ssd.harness import (
    CsvParseError,
    MissingColumnsError,
    TWO_NODE_LABELS,
    TwoNodeStudyConfig,
    atomic_write_text,
    bf_samples_csv,
    dce_curve_csv,
    dce_curve_row,
    threshold_curves_csv,
    nstar_curve_csv,
    ingest_csv,
    replicate_two_node_study,
    write_json,
)
from causal_ssd.numerics import RandomStream
from causal_ssd.predictive import (
    H1_BYTES_PER_DRAW,
    InsufficientDataError,
    InterventionDensity,
    draw_h1_edge,
    sample_bf_h0,
    sample_bf_h1,
)
from causal_ssd.ssd import (
    DceThresholds,
    assemble_dce,
    component_posterior,
    edge_stream,
    h0_band_probabilities,
    plan_cpdag,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3
EXIT_NOT_ACHIEVABLE = 4

_ENV_PREFIX = "CAUSAL_SSD_"

# memory an H1 evaluation may hold, per process: the edge draw and one n step
H1_BUDGET_BYTES = 2**28
MAX_DRAWS = H1_BUDGET_BYTES // H1_BYTES_PER_DRAW


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract wants 1
    def error(self, message):
        raise _UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Configuration echoed into every output artifact."""

    k0: float = 6.0
    k1: float = 6.0
    zeta: float = 0.8
    a_omega: float | None = None  # None: T - 1 per chain component
    n0: int = 1
    n_max: int = 1000
    draws: int = 10_000
    seed: int = 42
    intervention_mean: float = 0.0
    intervention_sd: float = 1.0
    workers: int = 1
    graph_path: str | None = None
    data_path: str | None = None
    edge: tuple[str, str] | None = None
    n: int | None = None
    out_path: str | None = None

    def thresholds(self) -> DceThresholds:
        return DceThresholds(k0=self.k0, k1=self.k1, zeta=self.zeta)

    def intervention(self) -> InterventionDensity:
        return InterventionDensity(mean=self.intervention_mean, sd=self.intervention_sd)

    def stream(self) -> RandomStream:
        return RandomStream(self.seed)

    def echo_dict(self) -> dict:
        return {
            "k0": self.k0,
            "k1": self.k1,
            "zeta": self.zeta,
            "a_omega": self.a_omega,
            "n0": self.n0,
            "n_max": self.n_max,
            "draws": self.draws,
            "seed": self.seed,
            "intervention_mean": self.intervention_mean,
            "intervention_sd": self.intervention_sd,
            "inputs": {
                "graph": self.graph_path,
                "data": self.data_path,
                "edge": None if self.edge is None else list(self.edge),
                "n": self.n,
            },
            "out": self.out_path,
        }


def _env_default(name: str, fallback):
    raw = os.environ.get(_ENV_PREFIX + name.upper().replace("-", "_"))
    return fallback if raw is None else raw


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k0", type=float, default=_env_default("k0", 6.0))
    p.add_argument("--k1", type=float, default=_env_default("k1", 6.0))
    p.add_argument("--zeta", type=float, default=_env_default("zeta", 0.8))
    p.add_argument("--a-omega", type=float, default=_env_default("a_omega", None))
    p.add_argument("--n0", type=int, default=_env_default("n0", 1))
    p.add_argument("--n-max", type=int, default=_env_default("n_max", 1000))
    p.add_argument("--draws", type=int, default=_env_default("draws", 10_000))
    p.add_argument("--seed", type=int, default=_env_default("seed", 42))
    p.add_argument(
        "--intervention-mean", type=float, default=_env_default("intervention_mean", 0.0)
    )
    p.add_argument(
        "--intervention-sd", type=float, default=_env_default("intervention_sd", 1.0)
    )
    p.add_argument("--workers", type=int, default=_env_default("workers", 1))
    p.add_argument("--out", default=_env_default("out", None))


def build_parser() -> _Parser:
    parser = _Parser(prog="causal-ssd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_flags(p: argparse.ArgumentParser, with_edge: bool) -> None:
        p.add_argument("--graph", default=_env_default("graph", None))
        p.add_argument("--data", default=_env_default("data", None))
        if with_edge:
            p.add_argument("--edge", default=_env_default("edge", None), help="target,neighbor")

    plan = sub.add_parser("plan", help="intervention plan for every chain component")
    add_input_flags(plan, with_edge=False)
    _add_common_flags(plan)

    curve = sub.add_parser("dce-curve", help="evidence-probability curve for one edge")
    add_input_flags(curve, with_edge=True)
    _add_common_flags(curve)

    predict = sub.add_parser("predict-bf", help="predictive Bayes-factor draws for one edge")
    add_input_flags(predict, with_edge=True)
    predict.add_argument("--n", type=int, default=_env_default("n", None))
    _add_common_flags(predict)

    simulate = sub.add_parser("simulate", help="two-node replication study")
    _add_common_flags(simulate)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    needs_inputs = args.command in ("plan", "dce-curve", "predict-bf")
    if needs_inputs:
        if getattr(args, "graph", None) is None:
            raise _UsageError("--graph is required (or set CAUSAL_SSD_GRAPH)")
        if getattr(args, "data", None) is None:
            raise _UsageError("--data is required (or set CAUSAL_SSD_DATA)")
    if args.command in ("dce-curve", "predict-bf") and getattr(args, "edge", None) is None:
        raise _UsageError("--edge is required (or set CAUSAL_SSD_EDGE)")
    if args.command == "predict-bf":
        if getattr(args, "n", None) is None:
            raise _UsageError("--n is required for predict-bf")
        if args.n < 2:
            raise _UsageError("--n must be an integer >= 2")
    edge = None
    if getattr(args, "edge", None) is not None:
        parts = [p.strip() for p in str(args.edge).split(",")]
        if len(parts) != 2 or not all(parts):
            raise _UsageError(f"--edge expects 'u,v', got {args.edge!r}")
        edge = (parts[0], parts[1])
    cfg = RunConfig(
        k0=float(args.k0),
        k1=float(args.k1),
        zeta=float(args.zeta),
        a_omega=None if args.a_omega is None else float(args.a_omega),
        n0=int(args.n0),
        n_max=int(args.n_max),
        draws=int(args.draws),
        seed=int(args.seed),
        intervention_mean=float(args.intervention_mean),
        intervention_sd=float(args.intervention_sd),
        workers=int(args.workers),
        graph_path=getattr(args, "graph", None),
        data_path=getattr(args, "data", None),
        edge=edge,
        n=None if getattr(args, "n", None) is None else int(args.n),
        out_path=args.out,
    )
    if cfg.n0 != 1:
        raise _UsageError(
            "the planning pipeline evaluates the closed-form factor of the unit "
            "training sample; --n0 must be 1 (other values are available through "
            "the library's fractional-factor API)"
        )
    if cfg.draws < 1 or cfg.n_max < 2 or cfg.workers < 1:
        raise _UsageError("--draws, --n-max and --workers must be positive (n-max >= 2)")
    if cfg.draws > MAX_DRAWS:
        raise _UsageError(
            f"--draws {cfg.draws} exceeds {MAX_DRAWS}: the H1 sampler holds "
            f"{H1_BYTES_PER_DRAW} bytes a draw, and its budget is {H1_BUDGET_BYTES} bytes"
        )
    if cfg.seed < 0:
        raise _UsageError("--seed must be a nonnegative integer")
    if cfg.a_omega is not None and not math.isfinite(cfg.a_omega):
        raise _UsageError("--a-omega must be finite")
    try:
        cfg.thresholds()
        cfg.intervention()
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    if args.command == "simulate" and cfg.thresholds() != DceThresholds():
        raise _UsageError(
            "simulate does not take --k0, --k1 or --zeta: the study sweeps its own "
            "thresholds k in {3, 6, 10} and its own zeta grid"
        )
    return cfg


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(out_path, text)


def _config_comment(config: RunConfig) -> str:
    return "# config " + json.dumps(config.echo_dict(), sort_keys=True) + "\n"


def _load_inputs(config: RunConfig):
    with open(config.graph_path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"{config.graph_path}: {exc}") from None
    graph = parse_edge_list(text)
    data = ingest_csv(config.data_path)
    return graph, data


def cmd_plan(config: RunConfig) -> int:
    graph, data = _load_inputs(config)
    results = plan_cpdag(
        graph,
        data,
        config.thresholds(),
        f_u=config.intervention(),
        stream=config.stream(),
        a_omega=config.a_omega,
        n_max=config.n_max,
        draws=config.draws,
        workers=config.workers,
    )
    document = {
        "config": config.echo_dict(),
        "components": [r.to_dict() for r in results],
    }
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    _emit(text, config.out_path)
    if any(r.error is not None for r in results):
        for r in results:
            if r.error is not None:
                print(f"component {list(r.component)}: {r.error}", file=sys.stderr)
        return EXIT_CAPACITY
    if any(not r.feasible for r in results):
        for r in results:
            if not r.feasible:
                print(
                    f"component {list(r.component)}: no sequence achieved the target "
                    f"probability within n <= {config.n_max}",
                    file=sys.stderr,
                )
        return EXIT_NOT_ACHIEVABLE
    return EXIT_OK


def _edge_component(graph, u: str, v: str):
    """Index, nodes and subgraph of the chain component holding the edge u - v."""
    if not graph.has_undirected_edge(u, v):
        raise GraphFormatError(f"edge {u}-{v} is not an undirected edge of the graph")
    decomposition = chain_components(graph)
    return next(
        (ci, comp, sub)
        for ci, (comp, sub) in enumerate(zip(decomposition.components, decomposition.subgraphs))
        if u in comp
    )


def cmd_dce_curve(config: RunConfig) -> int:
    graph, data = _load_inputs(config)
    u, v = config.edge
    ci, comp, sub = _edge_component(graph, u, v)
    posterior = component_posterior(data, comp, config.a_omega)
    stream = edge_stream(config.stream(), ci, comp, u, v)
    prior = prior_h0(sub, u, v)
    thresholds = config.thresholds()
    h1 = draw_h1_edge(posterior, u, v, config.intervention(), config.draws, stream)
    rows = []
    for n in range(2, config.n_max + 1):
        sample = sample_bf_h1(h1, n)
        dce = assemble_dce(h0_band_probabilities(thresholds, n), thresholds, prior, sample)
        rows.append(dce_curve_row(n, dce))
    _emit(_config_comment(config) + dce_curve_csv(rows), config.out_path)
    return EXIT_OK


def cmd_predict_bf(config: RunConfig) -> int:
    graph, data = _load_inputs(config)
    u, v = config.edge
    ci, comp, _ = _edge_component(graph, u, v)
    posterior = component_posterior(data, comp, config.a_omega)
    stream = edge_stream(config.stream(), ci, comp, u, v)
    h1 = sample_bf_h1(
        draw_h1_edge(posterior, u, v, config.intervention(), config.draws, stream), config.n
    )
    h0 = sample_bf_h0(config.n, config.draws, stream.child(config.n, 3))
    _emit(_config_comment(config) + bf_samples_csv([h0, h1]), config.out_path)
    return EXIT_OK


def cmd_simulate(config: RunConfig) -> int:
    study = TwoNodeStudyConfig(
        draws=config.draws,
        n_max=config.n_max,
        intervention=config.intervention(),
        a_omega=float(len(TWO_NODE_LABELS) - 1) if config.a_omega is None else config.a_omega,
    )
    report = replicate_two_node_study(study, config.stream())
    out_dir = config.out_path if config.out_path is not None else "causal_ssd_simulation"
    os.makedirs(out_dir, exist_ok=True)
    doc = report.to_json_dict()
    doc["config"]["cli"] = config.echo_dict()
    write_json(doc, os.path.join(out_dir, "report.json"))
    comment = _config_comment(config)
    atomic_write_text(
        os.path.join(out_dir, "bf_samples.csv"), comment + bf_samples_csv(report.bf_samples)
    )
    atomic_write_text(
        os.path.join(out_dir, "dce_curves.csv"), comment + threshold_curves_csv(report.dce_curves)
    )
    atomic_write_text(
        os.path.join(out_dir, "nstar_curves.csv"), comment + nstar_curve_csv(report.nstar_curves)
    )
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "plan":
            return cmd_plan(config)
        if args.command == "dce-curve":
            return cmd_dce_curve(config)
        if args.command == "predict-bf":
            return cmd_predict_bf(config)
        if args.command == "simulate":
            return cmd_simulate(config)
        raise AssertionError(f"unknown command {args.command!r}")
    except (FileNotFoundError, IsADirectoryError, FileExistsError, NotADirectoryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (CsvParseError, GraphFormatError, InvalidChainGraphError, MissingColumnsError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (
        CapacityError,
        NotDecomposableError,
        InsufficientDataError,
        InconsistentOrientationError,
    ) as exc:
        print(f"capacity/propriety error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
