"""Workload definitions and the seeded input generator.

Each plan workload is a fixed CPDAG and a fixed structural model.  The seed
draws the rows of the CSV and the layout of the graph file:

* the rows are ``Q @ Z0``, where ``Z0`` is one fixed draw of 200 rows from the
  linear model and ``Q`` is a Haar-random 200 x 200 orthogonal matrix drawn
  from the seed.  The rotated rows are again an i.i.d. sample of the same
  Gaussian model, but ``Z^T Z`` is unchanged, and the program reads the data
  only through ``Z^T Z``.  So every seed gives other bytes to parse and other
  floating-point inputs, while the amount of work (grid points scanned,
  Monte Carlo evaluations, n*) stays that of the base draw, and the
  run-to-run spread measures the program and the host rather than the draw;
* the graph file lists the edges in a seed-shuffled order, each with its
  endpoints in a seed-chosen order.

The Monte Carlo master seed of the plan commands is fixed (42) for the same
reason.  ``simulate`` reads no files: its workload seed is passed as the
CLI's ``--seed``, which regenerates the study's observational data and all of
its draws, while the work (every grid point of n = 2..1000) does not depend
on it.

Run as a script to write one workload's inputs::

    python3 bench/workloads.py --workload plan-late --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import itertools
import os
from dataclasses import dataclass

import numpy as np

N_ROWS = 200
BASE_DATA_SEED = 1  # the fixed base draw Z0; the workload seed only rotates it
PLAN_MC_SEED = 42


@dataclass(frozen=True)
class PlanSpec:
    """A CPDAG whose undirected edges all lie in one chain component."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]  # (a, b) with a before b in the model order
    coefficient: float
    workers: int


# The 8-node chordal component of the ROADMAP ("g8"): a hub 0 joined to every
# node, and node 1 joined to 2, 3 and 5.  Weak signal, so edges cross late.
PLAN_LATE = PlanSpec(
    nodes=tuple("01234567"),
    edges=tuple(("0", str(i)) for i in range(1, 8)) + (("1", "2"), ("1", "3"), ("1", "5")),
    coefficient=0.3,
    workers=1,
)

# One 7-node clique: a class of 7! DAGs, seven minimum vertex covers.
PLAN_CLIQUE = PlanSpec(
    nodes=tuple("0123456"),
    edges=tuple(itertools.combinations("0123456", 2)),
    coefficient=0.6,
    workers=2,
)

PLANS = {"plan-late": PLAN_LATE, "plan-clique": PLAN_CLIQUE}
WORKLOADS = ("simulate", "plan-late", "plan-clique")


def _breadth_first_order(spec: PlanSpec) -> list[str]:
    children = {n: sorted(b for a, b in spec.edges if a == n) for n in spec.nodes}
    indegree = {n: sum(1 for _, b in spec.edges if b == n) for n in spec.nodes}
    queue = [n for n in spec.nodes if indegree[n] == 0]
    for node in queue:  # the list grows while it is walked
        for child in children[node]:
            indegree[child] -= 1
            if indegree[child] == 0:
                queue.append(child)
    return queue


def base_data(spec: PlanSpec) -> np.ndarray:
    """One fixed draw of N_ROWS rows from the model, columns in ``spec.nodes`` order.

    Every edge a -> b carries ``spec.coefficient``; every node has unit
    Gaussian noise.  Nodes are drawn in breadth-first topological order from
    ``default_rng(1)``, as the package's own SEM sampler does, so for
    ``plan-late`` this is the ROADMAP's g8 fixture with coefficient 0.3.
    """
    gen = np.random.default_rng(BASE_DATA_SEED)
    cols: dict[str, np.ndarray] = {}
    for node in _breadth_first_order(spec):
        x = gen.standard_normal(N_ROWS)
        for a, b in spec.edges:
            if b == node:
                x = x + spec.coefficient * cols[a]
        cols[node] = x
    return np.column_stack([cols[n] for n in spec.nodes])


def haar_orthogonal(gen: np.random.Generator, n: int) -> np.ndarray:
    """Uniformly distributed n x n orthogonal matrix (QR with sign correction)."""
    q, r = np.linalg.qr(gen.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def write_plan_inputs(spec: PlanSpec, seed: int, graph_path: str, data_path: str) -> None:
    gen = np.random.default_rng([seed, 0x5EED])
    rows = haar_orthogonal(gen, N_ROWS) @ base_data(spec)
    order = gen.permutation(len(spec.edges))
    flips = gen.integers(0, 2, size=len(spec.edges))
    lines = []
    for i in order:
        a, b = spec.edges[i]
        if flips[i]:
            a, b = b, a
        lines.append(f"{a} -- {b}\n")
    with open(graph_path, "w") as fh:
        fh.write("# undirected chain component, one edge a line\n")
        fh.writelines(lines)
    with open(data_path, "w") as fh:
        fh.write(",".join(spec.nodes) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for graph.txt and data.csv")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    write_plan_inputs(
        PLANS[args.workload],
        args.seed,
        os.path.join(args.out, "graph.txt"),
        os.path.join(args.out, "data.csv"),
    )


if __name__ == "__main__":
    main()
