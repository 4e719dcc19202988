"""An edge's substream is keyed by its two labels, so an edge's numbers do not
depend on the rest of the inputs.

Metamorphic tests of ``plan``: a change to the inputs that leaves a chain
component's nodes, edges and columns as they were must leave that
component's ``plan.json`` entry byte-identical.  And a cross-command test:
``predict-bf`` on the study's observational rows prints the study's own
samples.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import struct
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from causal_ssd.cli import EXIT_NOT_ACHIEVABLE, EXIT_OK, main
from causal_ssd.harness import STUDY_BETA, STUDY_N_OBS, format_float
from causal_ssd.numerics import RandomStream
from causal_ssd.ssd import edge_stream

from helpers import linear_sem_data

PLAN_FLAGS = ["--draws", "200", "--n-max", "60", "--k0", "3", "--k1", "3", "--zeta", "0.5"]


def test_edge_stream_key_is_the_documented_hash():
    # the key README states, written out apart from the package: the first 8
    # bytes of the SHA-256 of each label's 4-byte big-endian length and UTF-8
    # bytes, read as two big-endian 32-bit words below the given path
    for u, v in (("u", "v"), ("v", "u"), ("a", "bc"), ("ab", "c"), ("é", "x")):
        blob = b"".join(struct.pack(">I", len(x.encode())) + x.encode() for x in (u, v))
        words = struct.unpack(">II", hashlib.sha256(blob).digest()[:8])
        assert edge_stream(RandomStream(5, (1,)), u, v) == RandomStream(5, (1, *words))
    assert edge_stream(RandomStream(5), "a", "bc") != edge_stream(RandomStream(5), "ab", "c")
    assert edge_stream(RandomStream(5), "u", "v") != edge_stream(RandomStream(5), "v", "u")


@st.composite
def chordal_inputs(draw):
    """The lines of a chordal graph file on 2 to 5 lowercase labels, and the
    columns of a linear model along its edges.

    Each node after the first is joined to a subset of one clique of the
    nodes before it (the second to the first node), so every node is
    simplicial when it is added and the graph is chordal; a node joined to
    the empty subset starts a component of its own.
    """
    labels = draw(st.lists(st.sampled_from("bcdefghijklmnopqrstuvwxy"),
                           min_size=2, max_size=5, unique=True))
    cliques, edges = [[labels[0]]], []
    for i, node in enumerate(labels[1:]):
        base = draw(st.sampled_from(cliques))
        parents = base if i == 0 else draw(st.lists(st.sampled_from(base), unique=True))
        edges += [(p, node) for p in parents]
        cliques.append([*parents, node])
    joined = {x for e in edges for x in e}
    lines = [f"{a} -- {b}" for a, b in edges] + [x for x in labels if x not in joined]
    seed = draw(st.integers(0, 2**16))
    data = linear_sem_data(labels, {e: 0.8 for e in edges}, 60, RandomStream(seed))
    return lines, {x: data.values[:, data.labels.index(x)] for x in data.labels}


def plan_entries(lines, columns, order=None):
    """The ``plan.json`` entry of every chain component, as its text, by its
    nodes; the CSV holds ``columns`` in ``order`` (label order when None)."""
    order = sorted(columns) if order is None else order
    with tempfile.TemporaryDirectory() as tmp:
        graph, data, out = (os.path.join(tmp, name) for name in ("g.txt", "d.csv", "plan.json"))
        with open(graph, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
        with open(data, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(order)
            writer.writerows(zip(*(map(format_float, columns[x]) for x in order)))
        code = main(["plan", "--graph", graph, "--data", data, *PLAN_FLAGS, "--out", out])
        assert code in (EXIT_OK, EXIT_NOT_ACHIEVABLE)
        with open(out, encoding="utf-8") as fh:
            components = json.load(fh)["components"]
    return {tuple(c["component"]): json.dumps(c, indent=2, sort_keys=True) for c in components}


def extra_column(seed):
    return linear_sem_data("x", {}, 60, RandomStream(seed)).values[:, 0]


def with_pair(lines, columns, a, b):
    """The inputs with one more component ``a -- b`` and its columns."""
    pair = linear_sem_data([a, b], {(a, b): 0.8}, 60, RandomStream(99))
    added = {x: pair.values[:, pair.labels.index(x)] for x in (a, b)}
    return [*lines, f"{a} -- {b}"], {**columns, **added}


def swapped(lines):
    """The lines in reverse order, with the ends of each edge swapped."""
    return [" -- ".join(line.split(" -- ")[::-1]) for line in reversed(lines)]


# each change keeps every component's nodes, edges and columns; "!" sorts
# before every letter and "~" after, so a component index, had it keyed the
# substream, would shift under the "first" changes
CHANGES = {
    "bare node first": lambda lines, cols: ([*lines, "!"], cols),
    "bare node last": lambda lines, cols: (["~", *lines], cols),
    "pair first": lambda lines, cols: with_pair(lines, cols, "!a", "!b"),
    "pair last": lambda lines, cols: with_pair(lines, cols, "~a", "~b"),
    "lines reversed, edges swapped": lambda lines, cols: (swapped(lines), cols),
    "unused column": lambda lines, cols: (lines, {**cols, "!unused": extra_column(7)}),
}


@pytest.mark.parametrize("change", sorted(CHANGES))
@settings(max_examples=5, derandomize=True, deadline=None)
@given(inputs=chordal_inputs())
def test_component_entries_survive_changes_elsewhere(inputs, change):
    lines, columns = inputs
    before = plan_entries(lines, columns)
    after = plan_entries(*CHANGES[change](lines, columns))
    assert {key: after[key] for key in before} == before


@settings(max_examples=5, derandomize=True, deadline=None)
@given(inputs=chordal_inputs(), permutation=st.randoms(use_true_random=False))
def test_component_entries_survive_permuted_columns(inputs, permutation):
    lines, columns = inputs
    order = sorted(columns)
    permutation.shuffle(order)
    assert plan_entries(lines, columns, order) == plan_entries(lines, columns)


def test_predict_bf_prints_the_study_samples(tmp_path):
    # the study's rows, written as the CSV writers write numbers, go through
    # predict-bf's own ingestion and edge substream
    seed, draws, n = 8, 300, 10
    sim = tmp_path / "sim"
    assert main(["simulate", "--seed", str(seed), "--draws", str(draws), "--n-max", "20",
                 "--out", str(sim)]) == EXIT_OK
    data = linear_sem_data("uv", {("u", "v"): STUDY_BETA}, STUDY_N_OBS, RandomStream(seed).child(0))
    (tmp_path / "uv.csv").write_text(
        "u,v\n" + "".join(f"{format_float(a)},{format_float(b)}\n" for a, b in data.values)
    )
    (tmp_path / "uv.txt").write_text("u -- v\n")
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(["predict-bf", "--graph", str(tmp_path / "uv.txt"),
                     "--data", str(tmp_path / "uv.csv"), "--edge", "u,v", "--n", str(n),
                     "--draws", str(draws), "--seed", str(seed)])
    assert code == EXIT_OK
    predicted = buffer.getvalue().splitlines()[1:]
    study = (sim / "bf_samples.csv").read_text().splitlines()[1:]
    assert predicted[0] == study[0] == "hypothesis,n,draw_index,bf"
    at_n = [row for row in study[1:] if row.split(",")[1] == str(n)]
    assert len(at_n) == 2 * draws
    assert predicted[1:] == at_n
