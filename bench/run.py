"""Benchmark of the causal-ssd command line, end to end and by layer.

From the root of a checkout::

    python3 bench/run.py --workload plan-late --seed 3 --seconds 10 --trace 0

Workloads: ``simulate``, ``plan-late`` and ``plan-clique`` (see README.md).
The run generates the workload's inputs from the seed, then repeats whole
rounds until ``--seconds`` have passed (at least two rounds).  A round is one
fresh-interpreter set-up probe and one CLI invocation
(``python -m causal_ssd.cli`` with ``src/`` on the path) in its own process,
one at a time, with BLAS and OpenMP pinned to one thread.  Every output is
checked against computations made apart from the program (checks.py) and for
byte-identical reruns.

``--trace 0`` prints the end-to-end metrics: median wall time, CPU time (the
process and the pool workers it reaped) and peak resident set of the
invocations, and the median set-up time.  ``--trace 1`` adds one traced
in-process invocation (tracing.py) and prints the per-layer metrics.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; an operation is one CLI invocation.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads, for the host probe and the checks
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

from workloads import PLAN_MC_SEED, PLANS, WORKLOADS, write_plan_inputs  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_PROBES = 5  # fresh-interpreter set-up timings per run, at least
MIN_ROUNDS = 2  # the median of two rounds damps the host's short slow-downs


@dataclass
class Invocation:
    status: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


@dataclass
class Workload:
    name: str
    argv: list[str]  # CLI arguments, paths relative to ROOT
    outputs: list[str]  # output files, relative to ROOT
    setup_code: str  # what a fresh interpreter does before any planning


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CAUSAL_SSD_")}
    env.update({var: "1" for var in THREAD_VARS})
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0")
    return env


def run_process(cmd: list[str], log_path: str) -> Invocation:
    """Run one process to its end; wall time from spawn to exit, rusage from wait4.

    The rusage of the reaped child includes the children it reaped itself
    (pool workers); its maxrss is the largest single process.
    """
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log, stderr=log)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        status=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )


def host_probe() -> float:
    """A fixed Python and numpy loop that never touches the program (seconds).

    Printed beside the metrics so that a slow set of runs can be recognised;
    it never scales a metric.
    """
    a = np.random.default_rng(0).standard_normal((200, 200))
    start = time.perf_counter()
    acc = 0.0
    for _ in range(300):
        acc += float((a @ a)[0, 0])
        acc += sum(j * j for j in range(2000))
    return time.perf_counter() - start


def prepare(name: str, seed: int) -> Workload:
    wdir = os.path.join(WORK, name)
    shutil.rmtree(wdir, ignore_errors=True)
    os.makedirs(wdir)
    rel = os.path.relpath(wdir, ROOT)
    if name == "simulate":
        out = os.path.join(rel, "study")
        return Workload(
            name=name,
            argv=["simulate", "--seed", str(seed), "--out", out],
            outputs=[os.path.join(out, f) for f in
                     ("report.json", "bf_samples.csv", "dce_curves.csv", "nstar_curves.csv")],
            setup_code="import causal_ssd.cli",
        )
    spec = PLANS[name]
    graph, data, plan = (os.path.join(rel, f) for f in ("graph.txt", "data.csv", "plan.json"))
    write_plan_inputs(spec, seed, os.path.join(ROOT, graph), os.path.join(ROOT, data))
    return Workload(
        name=name,
        argv=["plan", "--graph", graph, "--data", data, "--seed", str(PLAN_MC_SEED),
              "--workers", str(spec.workers), "--out", plan],
        outputs=[plan],
        setup_code=(
            "import causal_ssd.cli\n"
            "from causal_ssd.graph import parse_edge_list\n"
            "from causal_ssd.harness import ingest_csv\n"
            f"with open({graph!r}) as fh:\n"
            "    parse_edge_list(fh.read())\n"
            f"ingest_csv({data!r})\n"
        ),
    )


def digests(paths: list[str]) -> dict[str, str]:
    out = {}
    for p in paths:
        with open(os.path.join(ROOT, p), "rb") as fh:
            out[p] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_against_store(name: str, seed: int, got: dict[str, str]) -> list[str]:
    """Outputs of one workload and seed must match those of every earlier run."""
    path = os.path.join(WORK, "digests.json")
    try:
        with open(path) as fh:
            store = json.load(fh)
    except FileNotFoundError:
        store = {}
    key = f"{name}/seed={seed}"
    if key in store:
        return [] if store[key] == got else [f"outputs differ from an earlier run of {key}"]
    store[key] = got
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return []


def check_outputs(w: Workload, seed: int) -> list[str]:
    import checks

    try:
        if w.name == "simulate":
            return checks.check_simulate(os.path.join(ROOT, os.path.dirname(w.outputs[0])), seed)
        data = os.path.join(ROOT, w.argv[w.argv.index("--data") + 1])
        return checks.check_plan(os.path.join(ROOT, w.outputs[0]), data, PLANS[w.name], seed)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"outputs could not be checked: {exc!r}"]


def main() -> int:
    parser = argparse.ArgumentParser(description="causal-ssd benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "causal_ssd", "cli.py")):
        print(f"bench: {SRC}/causal_ssd/cli.py not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    w = prepare(args.workload, args.seed)
    log = os.path.join(WORK, w.name, "process.log")
    cli = [sys.executable, "-m", "causal_ssd.cli", *w.argv]
    setup = [sys.executable, "-c", w.setup_code]
    probe_s = host_probe()

    errors: list[str] = []
    attempted = failed = 0
    runs: list[Invocation] = []
    setups: list[float] = []
    first: dict[str, str] | None = None

    def invoke(cmd: list[str]) -> Invocation:
        nonlocal attempted, failed, first
        attempted += 1
        result = run_process(cmd, log)
        if result.status != 0:
            failed += 1
            with open(log) as fh:
                print(f"{' '.join(cmd[1:3])} exited {result.status}: {fh.read()[-2000:]}",
                      file=sys.stderr)
            return result
        got = digests(w.outputs)
        if first is None:
            first = got
        elif got != first:
            errors.append(f"outputs of {' '.join(cmd[1:])} differ from the first round")
        return result

    run_process(setup, log)  # untimed: compiles the byte code a checkout lacks
    start = time.perf_counter()
    while attempted < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        if not args.trace:
            setups.append(run_process(setup, log).wall_s)
        result = invoke(cli)
        if result.status == 0:
            runs.append(result)

    rerun = None
    if w.name == "plan-clique":
        # the result may not depend on --workers; the rerun is not timed, so
        # it runs beside the checks
        workers = cli.index("--workers")
        rerun = threading.Thread(
            target=invoke, args=([*cli[:workers], "--workers", "1", *cli[workers + 2:]],))
        rerun.start()
    found = [] if first is None else (
        check_against_store(w.name, args.seed, first) + check_outputs(w, args.seed))
    if rerun is not None:
        rerun.join()
    errors += found
    while not args.trace and len(setups) < SETUP_PROBES:
        setups.append(run_process(setup, log).wall_s)
    if args.trace:
        spans_path = os.path.join(WORK, w.name, "spans.json")
        traced = invoke([sys.executable, os.path.join(BENCH, "tracing.py"), spans_path, *w.argv])

    print(f"workload {w.name}  seed {args.seed}  rounds {len(runs)}  "
          f"host_probe_s {probe_s:.4f} (a fixed loop outside the program; never used to scale)")
    if args.trace:
        from tracing import layer_metrics

        with open(spans_path) as fh:
            spans = json.load(fh)
        untraced = statistics.median(r.wall_s for r in runs) if runs else float("nan")
        metrics = layer_metrics(spans, traced.wall_s, untraced)
    else:
        metrics = {
            "wall_s": (statistics.median(r.wall_s for r in runs), "s"),
            "cpu_s": (statistics.median(r.cpu_s for r in runs), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in runs), "MB"),
        } if runs else {}
        print(f"rounds wall_s {[round(r.wall_s, 3) for r in runs]}  "
              f"setup_s {[round(s, 3) for s in setups]}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>14.6f} {unit}")
    for e in errors:
        print(f"CHECK FAILED: {e}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
