"""Run the CLI's reference command lines and print the sha256 of every output.

Two trees write the same bytes when this script prints the same lines for
both, so a before/after check is one ``diff``::

    python3 tools/output_digests.py OLD/src /tmp/old > old.txt
    python3 tools/output_digests.py NEW/src /tmp/new > new.txt
    diff old.txt new.txt

``SRC`` is the ``src`` directory of the tree under test; the commands run as
``python -m causal_ssd.cli`` with ``PYTHONPATH=SRC``, from ``OUT``, with
relative paths, because the outputs echo their paths.  ``OUT`` is created
and must be empty.  The inputs of ``plan-late`` and ``plan-clique`` come from
``bench/workloads.py`` of this checkout at seed 3, run as a script with
``OPENBLAS_CORETYPE`` unset: the generator's rotation goes through BLAS, so
its ``data.csv`` depends on the BLAS kernel, which the CLI's bytes must not.
So ``OPENBLAS_CORETYPE=Prescott python3 tools/output_digests.py ...`` runs
the commands, and only they, under OpenBLAS's Prescott kernel.  ``--pin``
runs every command under ``taskset -c 0``, so a fork map finds one CPU.

The commands are those the project's change log has checked since 0.6.4 (20
files); one ``plan`` on the ``plan-late`` inputs with thresholds at which
the first-crossing scan stops H1 samples part-way (``plan_stop.json``); and,
on the same inputs at intervention mean 0.5 and sd 2, one ``dce-curve``, one
``predict-bf`` and one ``plan``, whose H1 sums are noncentral chi-squares
(``curve_mean.csv``, ``bf_mean.csv``, and ``plan_mean.json``, where the
first-crossing scan and its early stop draw them); and one ``dce-curve`` at
k0 = 3 and k1 = 10, the one run whose thresholds differ, so that k0 and k1
swapped anywhere on the curve's path change a byte (``curve_k3_10.csv``);
and one ``plan`` at ``--a-omega 20``, the one run whose design posterior
takes a prior df other than T - 1 (``plan_a_omega.json``).
Two ``plan`` runs on the ``plan-late`` inputs cover the two exits that still
write ``plan.json``: at ``--n-max 150`` some edges have a null n* and no plan
is achieved (``plan_short.json``, exit 4), and on the graph plus a component
``x -- y`` that the data lack, written here as ``graph_xy.txt``, one
component is planned and the other carries its error (``plan_error.json``,
exit 3).  Every other command exits 0, and any other exit fails the script.
Output is one ``sha256  path`` line per file, 28 in all, paths relative to
``OUT``, in a fixed order.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("plan-clique", "plan-late")
INPUT_SEED = 3
SIM_FILES = ("report.json", "bf_samples.csv", "dce_curves.csv", "nstar_curves.csv")
EXTRA_COMPONENT = "x -- y\n"  # appended to the plan-late graph as graph_xy.txt


def commands() -> list[tuple[list[str], list[str], int]]:
    """(CLI arguments, the output files they write, their exit status), in
    the order they run."""
    runs = []
    for w in WORKLOADS:
        inputs = ["--graph", f"{w}/graph.txt", "--data", f"{w}/data.csv", "--seed", "42"]
        runs += [
            (["plan", *inputs, "--out", f"{w}/plan.json"], [f"{w}/plan.json"]),
            (["plan", *inputs, "--workers", "2", "--out", f"{w}/plan_w2.json"],
             [f"{w}/plan_w2.json"]),
            (["dce-curve", *inputs, "--edge", "0,1", "--n-max", "400", "--draws", "3000",
              "--out", f"{w}/curve.csv"], [f"{w}/curve.csv"]),
            (["predict-bf", *inputs, "--edge", "1,2", "--n", "30", "--draws", "3000",
              "--out", f"{w}/bf.csv"], [f"{w}/bf.csv"]),
        ]
    inputs = ["--graph", "plan-late/graph.txt", "--data", "plan-late/data.csv", "--seed", "42"]
    runs.append((["plan", *inputs, "--draws", "5000", "--k0", "3", "--k1", "3", "--zeta", "0.6",
                  "--n-max", "400", "--out", "plan-late/plan_stop.json"],
                 ["plan-late/plan_stop.json"]))
    density = ["--intervention-mean", "0.5", "--intervention-sd", "2"]
    runs += [
        (["dce-curve", *inputs, *density, "--edge", "0,1", "--n-max", "300", "--draws", "3000",
          "--out", "plan-late/curve_mean.csv"], ["plan-late/curve_mean.csv"]),
        (["predict-bf", *inputs, *density, "--edge", "1,2", "--n", "30", "--draws", "3000",
          "--out", "plan-late/bf_mean.csv"], ["plan-late/bf_mean.csv"]),
        (["plan", *inputs, *density, "--draws", "3000", "--out", "plan-late/plan_mean.json"],
         ["plan-late/plan_mean.json"]),
        (["dce-curve", *inputs, "--edge", "0,1", "--k0", "3", "--k1", "10", "--n-max", "300",
          "--draws", "3000", "--out", "plan-late/curve_k3_10.csv"],
         ["plan-late/curve_k3_10.csv"]),
        (["plan", *inputs, "--a-omega", "20", "--draws", "3000",
          "--out", "plan-late/plan_a_omega.json"], ["plan-late/plan_a_omega.json"]),
    ]
    for out, flags in (("sim1", ["--seed", "1"]),
                       ("sim5", ["--seed", "5", "--draws", "3000", "--n-max", "80"]),
                       ("sim1100", ["--n-max", "1100"])):
        runs.append((["simulate", *flags, "--out", out], [f"{out}/{name}" for name in SIM_FILES]))
    runs = [(argv, files, 0) for argv, files in runs]
    runs += [
        (["plan", *inputs, "--n-max", "150", "--out", "plan-late/plan_short.json"],
         ["plan-late/plan_short.json"], 4),
        (["plan", "--graph", "plan-late/graph_xy.txt", "--data", "plan-late/data.csv",
          "--seed", "42", "--draws", "3000", "--out", "plan-late/plan_error.json"],
         ["plan-late/plan_error.json"], 3),
    ]
    return runs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="the src directory of the tree under test")
    parser.add_argument("out", help="an empty or new directory for the inputs and outputs")
    parser.add_argument("--pin", action="store_true", help="run every command on CPU 0")
    args = parser.parse_args()
    src, out = os.path.abspath(args.src), os.path.abspath(args.out)
    if not os.path.isfile(os.path.join(src, "causal_ssd", "cli.py")):
        parser.error(f"{src} holds no causal_ssd package")
    os.makedirs(out, exist_ok=True)
    if os.listdir(out):
        parser.error(f"{out} is not empty")
    generator_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    for w in WORKLOADS:
        subprocess.run([sys.executable, os.path.join(ROOT, "bench", "workloads.py"),
                        "--workload", w, "--seed", str(INPUT_SEED), "--out", os.path.join(out, w)],
                       env=generator_env, check=True)
    with open(os.path.join(out, "plan-late", "graph.txt"), encoding="utf-8") as fh:
        graph = fh.read()
    with open(os.path.join(out, "plan-late", "graph_xy.txt"), "w", encoding="utf-8") as fh:
        fh.write(graph + ("" if graph.endswith("\n") else "\n") + EXTRA_COMPONENT)
    env = {**os.environ, "PYTHONPATH": src}
    pin = ["taskset", "-c", "0"] if args.pin else []
    for argv, files, expected in commands():
        done = subprocess.run([*pin, sys.executable, "-m", "causal_ssd.cli", *argv], cwd=out,
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if done.returncode != expected:
            sys.stderr.write(done.stderr)
            print(f"exit {done.returncode}, expected {expected}: {' '.join(argv)}",
                  file=sys.stderr)
            return 1
        for path in files:
            with open(os.path.join(out, path), "rb") as fh:
                print(f"{hashlib.sha256(fh.read()).hexdigest()}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
