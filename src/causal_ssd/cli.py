"""Command-line surface: plan, dce-curve, predict-bf, simulate.

Every output artifact echoes the flags its command took, seed included, and
re-running a command with the same inputs reproduces byte-identical output.
Flags may be preset through environment variables prefixed CAUSAL_SSD_
(for example CAUSAL_SSD_SEED=7); explicit flags win, and a command ignores
the preset of a flag it does not take.

Exit statuses: 0 success, 1 usage error, 2 input/parse error, 3
capacity/propriety error, 4 plan not achievable (no candidate sequence
reached the target probability within the sample-size grid).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys
from typing import Iterable

from causal_ssd.design import prior_h0
from causal_ssd.graph import (
    CapacityError,
    GraphFormatError,
    InvalidChainGraphError,
    NotDecomposableError,
    chain_components,
    enumerate_class,  # noqa: F401  (no caller; bench/tracing.py wraps cli.enumerate_class)
    parse_edge_list,
)
from causal_ssd.harness import (
    EXPORT_SIZES,
    GRID_SIZES,
    CsvParseError,
    atomic_write_chunks,
    atomic_write_text,
    bf_samples_csv,
    dce_curve_csv,
    threshold_curves_csv,
    nstar_curve_csv,
    ingest_csv,
    json_text,
    replicate_two_node_study,
    write_json,
)
from causal_ssd.numerics import RandomStream, whole
from causal_ssd.predictive import (
    InsufficientDataError,
    InterventionDensity,
    MissingColumnsError,
    build_design_posterior,
    draw_h1_edge,
    sample_bf_h0,
    sample_bf_h1,
)
from causal_ssd.ssd import (
    DceThresholds,
    RunConfig,
    dce_curve,
    edge_stream,
    plan_cpdag,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3
EXIT_NOT_ACHIEVABLE = 4

_ENV_PREFIX = "CAUSAL_SSD_"

# every flag, name: (type, default, help); graph, data, edge and n have no
# default, and the commands that take them require them
FLAGS = {
    "graph": (str, None, None),
    "data": (str, None, None),
    "edge": (str, None, "target,neighbor"),
    "n": (int, None, None),
    "k0": (float, DceThresholds.k0, None),
    "k1": (float, DceThresholds.k1, None),
    "zeta": (float, DceThresholds.zeta, None),
    "a_omega": (float, None, None),  # None: T - 1 per chain component
    "n_max": (int, RunConfig.n_max, None),
    "draws": (int, RunConfig.draws, None),
    "seed": (int, 42, None),
    "intervention_mean": (float, InterventionDensity.mean, None),
    "intervention_sd": (float, InterventionDensity.sd, None),
    "workers": (int, 1, None),
    "out": (str, None, None),
}
# the flags each command reads, in --help order; every one but --workers is
# echoed into the command's artifacts, the input flags under "inputs"
COMMAND_FLAGS = {
    "plan": ("graph", "data", "k0", "k1", "zeta", "a_omega", "n_max", "draws", "seed",
             "intervention_mean", "intervention_sd", "workers", "out"),
    "dce-curve": ("graph", "data", "edge", "k0", "k1", "a_omega", "n_max", "draws", "seed",
                  "intervention_mean", "intervention_sd", "out"),
    "predict-bf": ("graph", "data", "edge", "n", "a_omega", "draws", "seed",
                   "intervention_mean", "intervention_sd", "out"),
    "simulate": ("a_omega", "n_max", "draws", "seed", "intervention_mean", "intervention_sd",
                 "out"),
}
INPUT_FLAGS = ("graph", "data", "edge", "n")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # every negative int or float literal is a flag's value; argparse's
        # own pattern, on Python 3.11 for one, takes -1e-3 for a flag
        self._negative_number_matcher = re.compile(
            r"^-(?:\d(?:_?\d)*(?:\.(?:\d(?:_?\d)*)?)?|\.\d(?:_?\d)*)(?:[eE][-+]?\d(?:_?\d)*)?$"
        )

    # argparse exits with status 2 on usage errors; the contract wants 1
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="causal-ssd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, run, summary in (
        ("plan", cmd_plan, "intervention plan for every chain component"),
        ("dce-curve", cmd_dce_curve, "evidence-probability curve for one edge"),
        ("predict-bf", cmd_predict_bf, "predictive Bayes-factor draws for one edge"),
        ("simulate", cmd_simulate, "two-node replication study"),
    ):
        # no abbreviations: --n would otherwise stand for --n-max where --n is not taken
        p = sub.add_parser(command, help=summary, allow_abbrev=False)
        for name in COMMAND_FLAGS[command]:
            type_, default, help_ = FLAGS[name]
            preset = os.environ.get(_ENV_PREFIX + name.upper())
            p.add_argument(
                "--" + name.replace("_", "-"),
                type=type_,
                default=default if preset is None else preset,
                help=help_,
            )
        p.set_defaults(run=run)
    return parser


def _check_args(args: argparse.Namespace) -> None:
    """Reject what argparse lets through; attach the ``RunConfig`` as
    ``config``, the master ``stream``, and ``thresholds`` for the commands
    that take --k0 and --k1."""
    given = vars(args)
    for name in INPUT_FLAGS:
        if name in given and given[name] is None:
            raise _UsageError(f"--{name} is required (or set {_ENV_PREFIX}{name.upper()})")
    if "edge" in given:
        parts = [p.strip() for p in args.edge.split(",")]
        if len(parts) != 2 or not all(parts):
            raise _UsageError(f"--edge expects 'u,v', got {args.edge!r}")
        args.edge = parts
    if args.out == "":
        raise _UsageError("--out must not be empty")
    try:
        if "k0" in given:
            zeta = given.get("zeta", DceThresholds.zeta)  # no dce-curve row depends on it
            args.thresholds = DceThresholds(args.k0, args.k1, zeta)
        f_u = InterventionDensity(mean=args.intervention_mean, sd=args.intervention_sd)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    try:
        # each message starts with the field's name, which names its flag
        args.config = RunConfig(draws=args.draws, n_max=given.get("n_max", RunConfig.n_max),
                                f_u=f_u, a_omega=args.a_omega)
        whole("workers", given.get("workers", 1), 1)
        whole("n", given.get("n", 2), 2)
        args.stream = RandomStream(args.seed)
    except ValueError as exc:
        name, _, rest = str(exc).partition(" ")
        raise _UsageError(f"--{name.replace('_', '-')} {rest}") from exc
    # the noncentrality of sum x_u^2 at the largest n the command draws at
    n_top = args.n if "n" in given else args.n_max
    if args.command == "simulate":
        n_top = max(n_top, *EXPORT_SIZES, *GRID_SIZES)
    try:
        f_u.noncentrality(n_top)
    except ValueError as exc:
        raise _UsageError(f"--intervention-mean and --intervention-sd: {exc}") from exc


def _echo(args: argparse.Namespace) -> dict:
    """Configuration echoed into every output artifact: the flags the command
    took, but --workers."""
    echo = {name: getattr(args, name) for name in COMMAND_FLAGS[args.command] if name != "workers"}
    echo["inputs"] = {name: echo.pop(name) for name in INPUT_FLAGS if name in echo}
    return echo


def _emit(text: str, out_path: str | None, blocks: Iterable[str] | None = None) -> None:
    """Write ``text``, then the ``blocks`` if given, to stdout or to ``out_path``."""
    if out_path is None:
        sys.stdout.write(text)
        sys.stdout.writelines(blocks or ())
    elif blocks is None:
        atomic_write_text(out_path, text)
    else:
        atomic_write_chunks(out_path, itertools.chain((text,), blocks))


def _config_comment(args: argparse.Namespace) -> str:
    return "# config " + json.dumps(_echo(args), sort_keys=True) + "\n"


def _load_inputs(args: argparse.Namespace):
    with open(args.graph, encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"{args.graph}: {exc}") from None
    graph = parse_edge_list(text)
    data = ingest_csv(args.data)
    return graph, data


def cmd_plan(args: argparse.Namespace) -> int:
    graph, data = _load_inputs(args)
    components = plan_cpdag(graph, data, args.thresholds, args.config, args.stream, args.workers)
    _emit(json_text({"config": _echo(args), "components": components}), args.out)
    if any(r["error"] is not None for r in components):
        for r in components:
            if r["error"] is not None:
                print(f"component {r['component']}: {r['error']}", file=sys.stderr)
        return EXIT_CAPACITY
    if any(not r["feasible"] for r in components):
        for r in components:
            if not r["feasible"]:
                print(
                    f"component {r['component']}: no sequence achieved the target "
                    f"probability within n <= {args.n_max}",
                    file=sys.stderr,
                )
        return EXIT_NOT_ACHIEVABLE
    return EXIT_OK


def _edge_inputs(args: argparse.Namespace):
    """Subgraph and design posterior of the chain component holding ``--edge``,
    and the edge's substream."""
    graph, data = _load_inputs(args)
    u, v = args.edge
    if not graph.has_undirected_edge(u, v):
        raise GraphFormatError(f"edge {u}-{v} is not an undirected edge of the graph")
    sub = next(sub for sub in chain_components(graph) if u in sub.nodes)
    posterior = build_design_posterior(data.restrict(sub.nodes), args.config.a_omega)
    return sub, posterior, edge_stream(args.stream, u, v)


def cmd_dce_curve(args: argparse.Namespace) -> int:
    sub, posterior, stream = _edge_inputs(args)
    h1 = draw_h1_edge(posterior, *args.edge, args.config.f_u, args.config.draws, stream)
    (rows,) = dce_curve(h1, [args.thresholds], prior_h0(sub, *args.edge), args.config.n_max)
    _emit(_config_comment(args) + dce_curve_csv(rows), args.out)
    return EXIT_OK


def cmd_predict_bf(args: argparse.Namespace) -> int:
    _, posterior, stream = _edge_inputs(args)
    config = args.config
    h1 = sample_bf_h1(draw_h1_edge(posterior, *args.edge, config.f_u, config.draws, stream), args.n)
    h0 = sample_bf_h0(args.n, config.draws, stream)
    _emit(_config_comment(args), args.out, bf_samples_csv([h0, h1]))
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    report, bf_samples, dce_curves = replicate_two_node_study(args.config, args.stream)
    out_dir = args.out if args.out is not None else "causal_ssd_simulation"
    os.makedirs(out_dir, exist_ok=True)
    report["config"]["cli"] = _echo(args)
    write_json(report, os.path.join(out_dir, "report.json"))
    comment = _config_comment(args)
    _emit(comment, os.path.join(out_dir, "bf_samples.csv"), bf_samples_csv(bf_samples))
    atomic_write_text(
        os.path.join(out_dir, "dce_curves.csv"), comment + threshold_curves_csv(dce_curves)
    )
    atomic_write_text(
        os.path.join(out_dir, "nstar_curves.csv"), comment + nstar_curve_csv(report["nstar_curves"])
    )
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_args(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.run(args)
    except (
        FileNotFoundError,
        IsADirectoryError,
        FileExistsError,
        NotADirectoryError,
        PermissionError,
        CsvParseError,
        GraphFormatError,
        InvalidChainGraphError,
        MissingColumnsError,
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (CapacityError, NotDecomposableError, InsufficientDataError) as exc:
        print(f"capacity/propriety error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
