"""End-to-end tests of the command-line interface."""

import csv
import errno
import itertools
import json
import os
import re
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import causal_ssd
from causal_ssd.cli import (
    COMMAND_FLAGS,
    EXIT_CAPACITY,
    EXIT_INPUT,
    EXIT_NOT_ACHIEVABLE,
    EXIT_OK,
    EXIT_USAGE,
    FLAGS,
    build_parser,
    main,
)
from causal_ssd.graph import PartiallyDirectedGraph
from causal_ssd.harness import replicate_two_node_study
from causal_ssd.numerics import RandomStream, whole
from causal_ssd.predictive import H1_BLOCK, MAX_DRAWS, InterventionDensity
from causal_ssd.ssd import RunConfig

from helpers import deadline, format_edge_list, g_of_n, linear_sem_data


def write_dataset(path, labels, values):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(labels)
        for row in values:
            writer.writerow([format(x, ".17g") for x in row])


@pytest.fixture()
def two_node_files(tmp_path):
    graph = tmp_path / "pair.graph"
    graph.write_text("u -- v\n")
    data = linear_sem_data("uv", {("u", "v"): 0.5}, 50, RandomStream(8))
    csv_path = tmp_path / "pair.csv"
    write_dataset(csv_path, data.labels, data.values)
    return str(graph), str(csv_path)


@pytest.fixture()
def fig1_files(tmp_path):
    cpdag = PartiallyDirectedGraph(
        nodes="12345",
        directed=[("2", "4"), ("2", "5")],
        undirected=[("1", "2"), ("2", "3"), ("1", "3"), ("4", "5")],
    )
    graph = tmp_path / "fig1.graph"
    graph.write_text(format_edge_list(cpdag))
    arrows = [("1", "2"), ("1", "3"), ("2", "3"), ("2", "4"), ("2", "5"), ("4", "5")]
    data = linear_sem_data("12345", {e: 0.6 for e in arrows}, 80, RandomStream(40))
    csv_path = tmp_path / "fig1.csv"
    write_dataset(csv_path, data.labels, data.values)
    return str(graph), str(csv_path)


def run_cli(*argv, cwd=None, **env):
    """Run the CLI of the package this module imported in a fresh interpreter.

    Each keyword sets a variable of the child's environment, or with None
    removes it; this process's environment is left alone.
    """
    src = os.path.dirname(os.path.dirname(causal_ssd.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    child_env = {**os.environ, "PYTHONPATH": path, **env}
    return subprocess.run(
        [sys.executable, "-m", "causal_ssd.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={name: value for name, value in child_env.items() if value is not None},
    )


def numpy_blas_name():
    """The name of the BLAS numpy was built with, or "" if numpy does not say."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # a numpy whose show_config only prints
        return ""
    return config.get("Build Dependencies", {}).get("blas", {}).get("name", "")


FAST = ["--draws", "400", "--n-max", "150", "--k0", "3", "--k1", "3", "--zeta", "0.5"]


def near_bounds(*bounds):
    """Each integer within one of a bound."""
    return st.sampled_from(sorted({b + d for b in bounds for d in (-1, 0, 1)}))


def flags_of(command, argv, but=None):
    """The flag-value pairs of ``argv`` that ``command`` takes, but the flag ``but``."""
    pairs = zip(argv[::2], argv[1::2])
    return [x for flag, value in pairs
            if flag[2:].replace("-", "_") in COMMAND_FLAGS[command] and flag != but
            for x in (flag, value)]


class TestPlan:
    def test_fig1_plan(self, fig1_files, tmp_path):
        graph, data = fig1_files
        out = tmp_path / "plan.json"
        code = main(["plan", "--graph", graph, "--data", data, "--out", str(out), *FAST])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert [c["component"] for c in doc["components"]] == [["1", "2", "3"], ["4", "5"]]
        assert doc["config"]["k0"] == 3.0
        assert doc["config"]["seed"] == 42
        for comp in doc["components"]:
            assert comp["feasible"]
            bos = [p for p in comp["plans"] if p["bos"]]
            assert len(bos) == 1

    def test_edge_entry_schema(self, fig1_files, tmp_path):
        # at n_max 30 edge 3 -> 1 is not achieved and the others are
        graph, data = fig1_files
        out = tmp_path / "plan.json"
        argv = ["--n-max", "30", *flags_of("plan", FAST, but="--n-max")]
        assert main(["plan", "--graph", graph, "--data", data, "--out", str(out), *argv]) == EXIT_OK
        document = json.loads(out.read_text())
        assert set(document) == {"config", "components"}
        for comp in document["components"]:
            assert set(comp) == {"component", "plans", "feasible", "error"}
            assert comp["feasible"] is True and comp["error"] is None
            assert [plan["bos"] for plan in comp["plans"]].count(True) == 1
            for plan in comp["plans"]:
                assert set(plan) == {"sequence", "targets", "total_n", "achieved", "bos"}
                assert list(plan["targets"]) == plan["sequence"]
                for target in plan["targets"].values():
                    assert set(target) == {"edges", "n_star_node"}
        edges = [e for comp in document["components"]
                 for plan in comp["plans"] for target in plan["targets"].values()
                 for e in target["edges"]]
        assert {e["achieved"] for e in edges} == {True, False}
        for e in edges:
            assert set(e) == {"u", "v", "p_h0", "n_star", "achieved", "n_max",
                              "dce_at_n_star", "se_overall"}
            dce = e["dce_at_n_star"]
            if not e["achieved"]:
                assert e["n_star"] is None and dce is None and e["se_overall"] is None
                continue
            assert set(dce) == {"p0_dc", "p0_inc", "p0_mis", "p1_dc", "p1_inc", "p1_mis",
                                "overall_dc", "mc_se"}
            assert set(dce["mc_se"]) == {"p1_dc", "p1_inc", "p1_mis", "overall_dc"}
            assert e["se_overall"] == dce["mc_se"]["overall_dc"]
            for h in ("p0", "p1"):
                assert abs(dce[f"{h}_dc"] + dce[f"{h}_inc"] + dce[f"{h}_mis"] - 1.0) <= 1e-12

    def test_byte_identical_rerun_and_workers(self, fig1_files, tmp_path):
        graph, data = fig1_files
        out = tmp_path / "p.json"
        assert main(["plan", "--graph", graph, "--data", data, "--out", str(out), *FAST]) == 0
        first = out.read_bytes()
        assert main(["plan", "--graph", graph, "--data", data, "--out", str(out), *FAST]) == 0
        assert out.read_bytes() == first
        out3 = tmp_path / "p3.json"
        assert (
            main(
                ["plan", "--graph", graph, "--data", data, "--out", str(out3),
                 "--workers", "2", *FAST]
            )
            == 0
        )
        # only the echoed output path differs between runs; strip before comparing
        da, dc = json.loads(first), json.loads(out3.read_bytes())
        da["config"]["out"] = dc["config"]["out"] = None
        assert da == dc

    def test_path_graph_bos_is_midpoint(self, tmp_path):
        graph = tmp_path / "g2.graph"
        graph.write_text("1 -- 2\n2 -- 3\n")
        data = linear_sem_data("123", {("1", "2"): 0.7, ("2", "3"): 0.7}, 70, RandomStream(41))
        csv_path = tmp_path / "g2.csv"
        write_dataset(csv_path, data.labels, data.values)
        out = tmp_path / "plan.json"
        code = main(
            ["plan", "--graph", str(graph), "--data", str(csv_path), "--out", str(out), *FAST]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        (component,) = doc["components"]
        assert [p["sequence"] for p in component["plans"]] == [["2"]]
        assert component["plans"][0]["bos"]

    def test_edgeless_graph_empty_plan(self, tmp_path):
        graph = tmp_path / "nodes.graph"
        graph.write_text("a\nb\n")
        data = tmp_path / "d.csv"
        data.write_text("a,b\n1,0\n0,1\n0.5,0.2\n")
        out = tmp_path / "plan.json"
        code = main(["plan", "--graph", str(graph), "--data", str(data), "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["components"] == []

    def test_not_achievable_exit_code(self, two_node_files, tmp_path):
        graph, data = two_node_files
        out = tmp_path / "plan.json"
        code = main(
            ["plan", "--graph", graph, "--data", data, "--out", str(out),
             "--k0", "10", "--k1", "10", "--zeta", "0.99", "--n-max", "20", "--draws", "200"]
        )
        assert code == EXIT_NOT_ACHIEVABLE
        doc = json.loads(out.read_text())  # partial plan still emitted
        assert doc["components"][0]["feasible"] is False

    def test_capacity_exit_code(self, tmp_path):
        import itertools

        nodes = [f"n{i}" for i in range(13)]
        graph = tmp_path / "big.graph"
        graph.write_text("\n".join(f"{a} -- {b}" for a, b in itertools.combinations(nodes, 2)))
        rng = np.random.default_rng(42)
        data = tmp_path / "big.csv"
        write_dataset(data, nodes, rng.standard_normal((30, 13)))
        out = tmp_path / "plan.json"
        code = main(["plan", "--graph", str(graph), "--data", str(data), "--out", str(out)])
        assert code == EXIT_CAPACITY
        assert json.loads(out.read_text())["components"][0]["error"]


class TestDceCurve:
    def test_curve_layout_and_determinism(self, two_node_files, tmp_path):
        graph, data = two_node_files
        out1 = tmp_path / "c1.csv"
        args = ["dce-curve", "--graph", graph, "--data", data, "--edge", "u,v",
                "--n-max", "40", "--draws", "300", "--out", str(out1)]
        assert main(args) == EXIT_OK
        first = out1.read_bytes()
        assert main(args) == EXIT_OK
        assert out1.read_bytes() == first
        lines = out1.read_text().strip().split("\n")
        assert lines[0].startswith("# config ")
        assert lines[1] == "n,p0_dc,p1_dc,overall_dc,se_overall"
        assert len(lines) == 2 + 39  # n = 2..40

    def test_p0_zero_when_threshold_above_ceiling(self, two_node_files, tmp_path):
        graph, data = two_node_files
        out = tmp_path / "c.csv"
        code = main(
            ["dce-curve", "--graph", graph, "--data", data, "--edge", "u,v",
             "--n-max", "40", "--draws", "200", "--k0", "20", "--out", str(out)]
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(l for l in out.read_text().splitlines() if not l.startswith("#")))
        assert all(float(r["p0_dc"]) == 0.0 for r in rows)

    def test_directed_or_absent_edge_rejected(self, fig1_files, tmp_path):
        graph, data = fig1_files
        assert main(["dce-curve", "--graph", graph, "--data", data, "--edge", "2,4"]) == EXIT_INPUT
        assert main(["dce-curve", "--graph", graph, "--data", data, "--edge", "1,5"]) == EXIT_INPUT


class TestPredictBf:
    def test_row_count_and_bounds(self, two_node_files, tmp_path):
        graph, data = two_node_files
        out = tmp_path / "bf.csv"
        code = main(
            ["predict-bf", "--graph", graph, "--data", data, "--edge", "u,v",
             "--n", "50", "--draws", "500", "--out", str(out)]
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(l for l in out.read_text().splitlines() if not l.startswith("#")))
        assert len(rows) == 2 * 500
        h0 = [float(r["bf"]) for r in rows if r["hypothesis"] == "H0"]
        assert max(h0) <= g_of_n(50) < 10.0

    def test_h1_mass_below_one_third_at_small_n(self, two_node_files, tmp_path):
        graph, data = two_node_files
        out = tmp_path / "bf.csv"
        code = main(
            ["predict-bf", "--graph", graph, "--data", data, "--edge", "u,v",
             "--n", "10", "--draws", "2000", "--out", str(out)]
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(l for l in out.read_text().splitlines() if not l.startswith("#")))
        h1 = np.array([float(r["bf"]) for r in rows if r["hypothesis"] == "H1"])
        assert np.mean(h1 < 1.0 / 3.0) > 0.05

    def test_n_below_two_is_usage_error_without_traceback(self, two_node_files):
        graph, data = two_node_files
        proc = run_cli(
            "predict-bf", "--graph", graph, "--data", data, "--edge", "u,v",
            "--n", "1", "--draws", "10",
        )
        assert proc.returncode == EXIT_USAGE
        assert "usage error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_component_above_enumeration_cap_accepted(self, tmp_path):
        # a 13-node path: no orientation prior is needed, so no class is built
        nodes = [f"n{i}" for i in range(13)]
        graph = tmp_path / "path.graph"
        graph.write_text("\n".join(f"{a} -- {b}" for a, b in zip(nodes, nodes[1:])) + "\n")
        data = tmp_path / "path.csv"
        write_dataset(data, nodes, np.random.default_rng(43).standard_normal((40, 13)))
        out = tmp_path / "bf.csv"
        code = main(
            ["predict-bf", "--graph", str(graph), "--data", str(data), "--edge", "n5,n6",
             "--n", "20", "--draws", "50", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert len(out.read_text().splitlines()) == 2 + 2 * 50

    def test_peak_memory_of_a_run_within_the_h1_budget(self, two_node_files, tmp_path):
        # the sampler's 32 bytes a draw bound the whole run: the CSV text is
        # written in blocks, never held whole (148 bytes a draw when it was).
        # Measured: 60,061 bytes above the budget at 200,000 draws
        import tracemalloc

        from causal_ssd.predictive import H1_BYTES_PER_DRAW

        graph, data = two_node_files
        draws = 200_000
        argv = ["predict-bf", "--graph", graph, "--data", data, "--edge", "u,v", "--n", "57",
                "--draws", str(draws), "--out", str(tmp_path / "bf.csv")]
        assert main(argv) == EXIT_OK  # imports and first-call set-up outside the trace
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= H1_BYTES_PER_DRAW * draws + 256 * 1024

    def test_class_not_enumerated(self, fig1_files, tmp_path, monkeypatch):
        import causal_ssd.cli as cli_mod
        import causal_ssd.design as design_mod
        import causal_ssd.graph as graph_mod

        enumerated = []
        real_enumerate = graph_mod.enumerate_class

        def counting_enumerate(g, *args, **kwargs):
            enumerated.append(g.nodes)
            return real_enumerate(g, *args, **kwargs)

        for module in (graph_mod, design_mod, cli_mod):
            monkeypatch.setattr(module, "enumerate_class", counting_enumerate, raising=False)
        graph, data = fig1_files
        common = ["--graph", graph, "--data", data, "--edge", "1,2", "--draws", "50"]
        assert main(["predict-bf", *common, "--n", "20",
                     "--out", str(tmp_path / "bf.csv")]) == EXIT_OK
        assert enumerated == []
        # dce-curve needs the prior, which is counted without building the class
        assert main(["dce-curve", *common, "--n-max", "5",
                     "--out", str(tmp_path / "c.csv")]) == EXIT_OK
        assert enumerated == []


def read_csv_rows(path):
    return list(csv.DictReader(l for l in path.read_text().splitlines() if not l.startswith("#")))


class TestEdgeCommandsReproducePlan:
    # at 2 * H1_BLOCK + 500 draws a sample spans three blocks, so plan's
    # early stop can fire after the first or the second of them
    @pytest.mark.parametrize("draws", [400, 2 * H1_BLOCK + 500])
    def test_dce_curve_and_predict_bf_match_plan(self, fig1_files, tmp_path, draws):
        graph, data = fig1_files
        argv = ["--draws", str(draws), *flags_of("plan", FAST, but="--draws")]
        zeta, k1 = (float(FAST[FAST.index(flag) + 1]) for flag in ("--zeta", "--k1"))
        out = tmp_path / "plan.json"
        assert main(["plan", "--graph", graph, "--data", data, "--out", str(out), *argv]) == 0
        edges = {
            (e["u"], e["v"]): e
            for comp in json.loads(out.read_text())["components"]
            for plan in comp["plans"]
            for target in plan["targets"].values()
            for e in target["edges"]
        }
        assert len(edges) == 8
        for (u, v), planned in edges.items():
            assert planned["achieved"]
            n_star, dce = planned["n_star"], planned["dce_at_n_star"]
            common = ["--graph", graph, "--data", data, "--edge", f"{u},{v}"]
            curve = tmp_path / f"curve_{u}{v}.csv"
            assert main(["dce-curve", *common, *flags_of("dce-curve", argv),
                         "--out", str(curve)]) == EXIT_OK
            crossing = next(r for r in read_csv_rows(curve) if float(r["overall_dc"]) >= zeta)
            assert int(crossing["n"]) == n_star
            assert float(crossing["overall_dc"]) == dce["overall_dc"]
            samples = tmp_path / f"bf_{u}{v}.csv"
            assert main(["predict-bf", *common, *flags_of("predict-bf", argv), "--n", str(n_star),
                         "--out", str(samples)]) == EXIT_OK
            h1 = np.array([float(r["bf"]) for r in read_csv_rows(samples)
                           if r["hypothesis"] == "H1"])
            assert np.count_nonzero(h1 <= 1.0 / k1) / h1.size == dce["p1_dc"]


def readme_report_keys():
    """The top-level and ``config`` keys that README.md lists for ``report.json``."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        text = " ".join(fh.read().split())
    (top,) = re.findall(r"`report\.json` has the top-level keys `\{([^}]*)\}`", text)
    (config,) = re.findall(r"configuration echo `config` has the keys `\{([^}]*)\}`", text)
    return tuple({key.strip() for key in keys.split(",")} for keys in (top, config))


class TestSimulate:
    def test_report_json_is_the_returned_mapping_and_its_cli_echo(self, tmp_path):
        # off the default a_omega and intervention density, so the echo of
        # each is read from the run
        out = tmp_path / "sim"
        argv = ["simulate", "--seed", "7", "--draws", "200", "--n-max", "60", "--a-omega", "3",
                "--intervention-mean", "0.5", "--intervention-sd", "2", "--out", str(out)]
        assert main(argv) == EXIT_OK
        written = json.loads((out / "report.json").read_text())
        config = RunConfig(draws=200, n_max=60, a_omega=3.0, f_u=InterventionDensity(0.5, 2.0))
        report, _, _ = replicate_two_node_study(config, RandomStream(7))
        top_keys, config_keys = readme_report_keys()
        assert set(report) == top_keys and len(top_keys) == 6
        assert set(report["config"]) == config_keys - {"cli"} and len(config_keys) == 13
        assert list(report["nstar_curves"]) == ["3", "6", "10"]
        assert json.loads(json.dumps(report)) == report
        echo = written["config"].pop("cli")
        assert written == report
        assert echo["seed"] == 7 and echo["a_omega"] == 3.0 and echo["intervention_sd"] == 2.0

    def test_writes_artifacts_and_reproduces(self, tmp_path):
        out1 = tmp_path / "s1"
        args = ["simulate", "--draws", "500", "--n-max", "160", "--out", str(out1)]
        assert main(args) == EXIT_OK
        names = ["report.json", "bf_samples.csv", "dce_curves.csv", "nstar_curves.csv"]
        first = [(out1 / n).read_bytes() for n in names]
        report = json.loads((out1 / "report.json").read_text())
        assert {r["hypothesis"] for r in report["evidence_grid"]} == {"H0", "H1"}
        assert "evidence_note" in report
        assert main(args) == EXIT_OK
        assert [(out1 / n).read_bytes() for n in names] == first

    @pytest.mark.skipif("openblas" not in numpy_blas_name().lower(),
                        reason="numpy is not built on OpenBLAS")
    def test_bytes_do_not_depend_on_the_blas_kernel(self, tmp_path):
        # Prescott is an OpenBLAS kernel without fused multiply-add; each run
        # writes to the same relative --out, so the echoed config agrees too
        names = ["report.json", "bf_samples.csv", "dce_curves.csv", "nstar_curves.csv"]
        written = []
        for kernel in (None, "Prescott"):
            cwd = tmp_path / str(kernel)
            cwd.mkdir()
            proc = run_cli("simulate", "--draws", "2000", "--n-max", "120", "--seed", "201",
                           "--out", "study", cwd=cwd, OPENBLAS_CORETYPE=kernel)
            assert proc.returncode == EXIT_OK, proc.stderr
            written.append([(cwd / "study" / name).read_bytes() for name in names])
        assert written[0] == written[1]

    def test_bytes_do_not_depend_on_the_cpu_count(self, two_node_files, tmp_path, monkeypatch):
        # full curves spread over the CPUs of the affinity mask; each run
        # writes to the same relative --out, so the echoed config agrees too
        graph, data = two_node_files
        names = ["report.json", "bf_samples.csv", "dce_curves.csv", "nstar_curves.csv"]
        forks, real_fork = [], os.fork

        def counting_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        written = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
            cwd = tmp_path / str(len(cpus))
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            with deadline(120):
                assert main(["simulate", "--draws", "500", "--n-max", "120", "--seed", "202",
                             "--out", "study"]) == EXIT_OK
                assert main(["dce-curve", "--graph", graph, "--data", data, "--edge", "u,v",
                             "--n-max", "120", "--draws", "500", "--out", "curve.csv"]) == EXIT_OK
            written.append([(cwd / "study" / name).read_bytes() for name in names]
                           + [(cwd / "curve.csv").read_bytes()])
        assert len(forks) == 2  # one child for each command on two CPUs
        assert written[0] == written[1]

    def test_seed_changes_h1_not_h0(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["simulate", "--draws", "400", "--n-max", "30", "--seed", "1",
                     "--out", str(out1)]) == EXIT_OK
        assert main(["simulate", "--draws", "400", "--n-max", "30", "--seed", "2",
                     "--out", str(out2)]) == EXIT_OK
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        h0_1 = [r for r in r1["evidence_grid"] if r["hypothesis"] == "H0"]
        h0_2 = [r for r in r2["evidence_grid"] if r["hypothesis"] == "H0"]
        for a, b in zip(h0_1, h0_2):
            assert a["moderate"] == b["moderate"]
            assert a["strong_to_extreme"] == b["strong_to_extreme"]
        h1_1 = [r for r in r1["evidence_grid"] if r["hypothesis"] == "H1"]
        h1_2 = [r for r in r2["evidence_grid"] if r["hypothesis"] == "H1"]
        assert any(a["strong_to_extreme"] != b["strong_to_extreme"] for a, b in zip(h1_1, h1_2))

    def test_a_omega_reaches_the_study(self, tmp_path):
        def run(name, *extra):
            out = tmp_path / name
            assert main(["simulate", "--draws", "200", "--n-max", "30", "--out", str(out),
                         *extra]) == EXIT_OK
            report = json.loads((out / "report.json").read_text())
            curves = [l for l in (out / "dce_curves.csv").read_text().splitlines()
                      if not l.startswith("#")]
            return report, curves

        default, default_curves = run("default")
        one, one_curves = run("one", "--a-omega", "1")
        seven, seven_curves = run("seven", "--a-omega", "7")
        # unset keeps the study's T - 1 = 1, so only the echoed flag differs
        assert default["config"]["a_omega"] == one["config"]["a_omega"] == 1.0
        assert default_curves == one_curves
        assert seven["config"]["a_omega"] == 7.0
        assert seven_curves != one_curves


# per flag: a preset and an explicit value, both legal for the two-node
# inputs of ``pair_dir`` and other than the default, and a value that every
# command taking the flag rejects.  --workers is not echoed, so its preset is
# the rejected value
PRESETS = {
    "graph": ("preset.graph", "pair.graph", "absent.graph"),
    "data": ("preset.csv", "pair.csv", "absent.csv"),
    "edge": ("v,u", "u,v", "uv"),
    "n": ("12", "10", "1"),
    "k0": ("2.5", "3", "1"),
    "k1": ("2.5", "3", "1"),
    "zeta": ("0.55", "0.5", "1"),
    "a_omega": ("2", "3", "nan"),
    "n_max": ("120", "150", "1"),
    "draws": ("300", "400", "0"),
    "seed": ("7", "8", "-1"),
    "intervention_mean": ("0.5", "0.25", "inf"),
    "intervention_sd": ("2", "1.5", "0"),
    "workers": ("0", "1", "0"),
    "out": ("preset.out", "explicit.out", ""),
}
INPUTS = ["--graph", "pair.graph", "--data", "pair.csv", "--edge", "u,v", "--n", "10"]


@pytest.fixture()
def pair_dir(two_node_files, tmp_path, monkeypatch):
    """Working directory holding the two-node inputs under the names of
    ``INPUTS`` and ``PRESETS``."""
    graph, data = two_node_files
    for source, copy in ((graph, "preset.graph"), (data, "preset.csv")):
        with open(source, "rb") as fh:
            (tmp_path / copy).write_bytes(fh.read())
    monkeypatch.chdir(tmp_path)
    return tmp_path


def to_flag(name):
    return "--" + name.replace("_", "-")


def run_and_read_echoes(command, argv, capsys):
    """Exit code of a run and the configuration echoed into each of its
    artifacts, the input flags merged into the top level."""
    code = main([command, *argv])
    stdout = capsys.readouterr().out
    given = dict(zip(argv[::2], argv[1::2]))
    out = given.get("--out", os.environ.get("CAUSAL_SSD_OUT"))
    if code == EXIT_USAGE:
        return code, []
    if command == "simulate":
        folder = out or "causal_ssd_simulation"
        with open(os.path.join(folder, "report.json")) as fh:
            configs = [json.load(fh)["config"]["cli"]]
        for name in ("bf_samples.csv", "dce_curves.csv", "nstar_curves.csv"):
            with open(os.path.join(folder, name)) as fh:
                configs.append(json.loads(fh.readline().removeprefix("# config ")))
    else:
        if out is not None:
            with open(out) as fh:
                stdout = fh.read()
        if command == "plan":
            configs = [json.loads(stdout)["config"]]
        else:
            configs = [json.loads(stdout.split("\n", 1)[0].removeprefix("# config "))]
    return code, [{**config.pop("inputs"), **config} for config in configs]


def check_preset_and_flag(command, name, type_, monkeypatch, capsys):
    """A preset of a flag the command takes reaches its echo, and the flag
    given on the command line beats the preset."""
    preset, explicit, _ = PRESETS[name]
    flag = to_flag(name)
    base = flags_of(command, [*INPUTS, *FAST], but=flag)
    monkeypatch.setenv("CAUSAL_SSD_" + name.upper(), preset)
    parse = (lambda v: v.split(",")) if name == "edge" else type_

    code, echoes = run_and_read_echoes(command, base, capsys)
    if name == "workers":
        assert code == EXIT_USAGE
    else:
        assert code in (EXIT_OK, EXIT_NOT_ACHIEVABLE)
        assert echoes and all(echo[name] == parse(preset) for echo in echoes)
    code, echoes = run_and_read_echoes(command, [*base, flag, explicit], capsys)
    assert code in (EXIT_OK, EXIT_NOT_ACHIEVABLE)
    assert echoes and all(name == "workers" or echo[name] == parse(explicit) for echo in echoes)


def check_malformed_preset(command, name, monkeypatch, capsys):
    flag = to_flag(name)
    base = flags_of(command, INPUTS, but=flag)
    monkeypatch.setenv("CAUSAL_SSD_" + name.upper(), "many")
    assert main([command, *base]) == EXIT_USAGE
    assert f"usage error: argument {flag}: invalid" in capsys.readouterr().err


# two-node data whose products leave the float range, as (cells set, scale
# of the data, whether the scatter fails): the first three make the scatter
# infinite; the last three leave it finite and positive definite, but
# overflow or underflow the factor of its pair block in draw_h1_edge
OUT_OF_RANGE = {
    "cell-1e200": ({(0, 0): 1e200}, 1.0, True),
    "cells-pm1e170": ({(0, 0): 1e170, (0, 1): 1e170, (1, 0): 1e170, (1, 1): -1e170}, 1.0, True),
    "two-cells-1.2e154": ({(0, 0): 1.2e154, (1, 0): 1.2e154}, 1.0, True),
    "scaled-1e150": ({}, 1e150, False),
    "scaled-1e-160": ({}, 1e-160, False),
    "cell-1.2e154": ({(0, 0): 1.2e154}, 1.0, False),
}


class TestUsageAndErrors:
    def test_missing_file_is_input_error(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("a,b\n1,2\n")
        assert main(["plan", "--graph", str(tmp_path / "absent.graph"), "--data", str(data)]) == EXIT_INPUT

    def test_malformed_csv_is_input_error(self, tmp_path):
        graph = tmp_path / "g.graph"
        graph.write_text("a -- b\n")
        data = tmp_path / "d.csv"
        data.write_text("a,b\n1,2\n3\n")
        assert main(["plan", "--graph", str(graph), "--data", str(data)]) == EXIT_INPUT

    def test_missing_data_column_is_input_error(self, tmp_path, capsys):
        graph = tmp_path / "g.graph"
        graph.write_text("a -- b\nb -- c\n")
        data = tmp_path / "d.csv"
        write_dataset(data, ["a", "b"], np.random.default_rng(44).standard_normal((20, 2)))
        argv = ["--graph", str(graph), "--data", str(data), "--edge", "a,b", "--draws", "10"]
        assert main(["dce-curve", *argv, "--n-max", "3"]) == EXIT_INPUT
        assert main(["predict-bf", *argv, "--n", "3"]) == EXIT_INPUT
        assert "missing columns: ['c']" in capsys.readouterr().err
        # plan reports the component's error in its output and exits 3
        out = tmp_path / "plan.json"
        plan = ["plan", "--graph", str(graph), "--data", str(data), "--out", str(out)]
        assert main(plan) == EXIT_CAPACITY
        (component,) = json.loads(out.read_text())["components"]
        assert component["error"] == "dataset is missing columns: ['c']"

    def test_undecodable_files_are_input_errors(self, two_node_files, tmp_path):
        graph, data = two_node_files
        binary = tmp_path / "binary"
        binary.write_bytes(b"\xff\xfe\x00\x81")
        assert main(["plan", "--graph", str(binary), "--data", data]) == EXIT_INPUT
        assert main(["plan", "--graph", graph, "--data", str(binary)]) == EXIT_INPUT

    def test_byte_order_mark_is_ignored(self, two_node_files, tmp_path, monkeypatch, capsys):
        # a spreadsheet's "CSV UTF-8" export starts the file with a byte-order mark;
        # each run reads same-named files, so the echoed paths agree too
        graph, data = two_node_files
        argv = ["--graph", "pair.graph", "--data", "pair.csv"]
        outputs = []
        for prefix in (b"", "\ufeff".encode()):
            folder = tmp_path / f"prefix{len(prefix)}"
            folder.mkdir()
            for name, source in (("pair.graph", graph), ("pair.csv", data)):
                with open(source, "rb") as fh:
                    (folder / name).write_bytes(prefix + fh.read())
            monkeypatch.chdir(folder)
            codes = [
                main(["plan", *argv, *flags_of("plan", FAST)]),
                main(["dce-curve", *argv, *flags_of("dce-curve", FAST), "--edge", "u,v"]),
                main(["predict-bf", *argv, *flags_of("predict-bf", FAST), "--edge", "u,v",
                      "--n", "10"]),
            ]
            outputs.append((codes, capsys.readouterr()))
        assert outputs[0][0] == [EXIT_OK] * 3
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize(
        "flag", [["--seed", "-1"], ["--a-omega", "nan"], ["--a-omega", "inf"]]
    )
    def test_bad_seed_or_a_omega_is_usage_error(self, flag, two_node_files):
        graph, data = two_node_files
        assert main(["plan", "--graph", graph, "--data", data, *FAST, *flag]) == EXIT_USAGE
        assert main(["simulate", "--draws", "10", "--n-max", "12", *flag]) == EXIT_USAGE

    @pytest.mark.parametrize("command, flag", [
        ("plan", "--intervention-mean"),
        ("simulate", "--a-omega"),
    ])
    def test_negative_value_in_scientific_notation_is_a_value(
        self, command, flag, two_node_files, tmp_path, capsys, monkeypatch
    ):
        # argparse on Python 3.11 took -1e-3 for a flag: "expected one argument"
        graph, data = two_node_files
        monkeypatch.chdir(tmp_path)
        argv = {"plan": ["--graph", graph, "--data", data, *FAST],
                "simulate": ["--draws", "10", "--n-max", "12", "--out", "sim"]}[command]
        runs = []
        for value in ("-1e-3", "-0.001"):
            code = main([command, *argv, flag, value])
            files = {p.name: p.read_bytes() for p in (tmp_path / "sim").glob("*")}
            runs.append((code, capsys.readouterr(), files))
        assert runs[0] == runs[1]

    def test_draws_above_memory_budget_is_usage_error(self, two_node_files, capsys, monkeypatch):
        import causal_ssd.cli as cli_mod
        import causal_ssd.predictive as predictive_mod

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the usage check")

        monkeypatch.setattr(cli_mod, "draw_h1_edge", no_sampling)
        monkeypatch.setattr(cli_mod, "plan_cpdag", no_sampling)
        monkeypatch.setattr(cli_mod, "replicate_two_node_study", no_sampling)
        graph, data = two_node_files
        inputs = ["--graph", graph, "--data", data]
        max_draws = predictive_mod.MAX_DRAWS
        assert max_draws * predictive_mod.H1_BYTES_PER_DRAW <= predictive_mod.H1_BUDGET_BYTES
        for draws in (10**12, max_draws + 1):
            flag = ["--draws", str(draws)]
            assert main(["plan", *inputs, *flag]) == EXIT_USAGE
            assert main(["simulate", *flag]) == EXIT_USAGE
            assert main(["predict-bf", *inputs, "--edge", "u,v", "--n", "10", *flag]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.count("usage error: --draws") == 3, err

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(
        command=st.sampled_from(sorted(COMMAND_FLAGS)),
        draws=near_bounds(1, MAX_DRAWS),
        n_max=near_bounds(2),
        workers=near_bounds(1),
        seed=near_bounds(0),
    )
    def test_usage_error_exactly_when_the_library_rejects(
        self, command, draws, n_max, workers, seed
    ):
        # the CLI has no size checks of its own: it exits 1 on these flags
        # exactly when RunConfig, whole or RandomStream raises for them
        import causal_ssd.cli as cli_mod

        argv = ["--graph", "g", "--data", "d", "--edge", "u,v", "--n", "10",
                "--draws", str(draws), "--n-max", str(n_max), "--workers", str(workers),
                "--seed", str(seed)]
        taken = COMMAND_FLAGS[command]
        try:
            RunConfig(draws=draws, n_max=n_max if "n_max" in taken else RunConfig.n_max)
            whole("workers", workers if "workers" in taken else 1, 1)
            RandomStream(seed)
            want = EXIT_OK
        except ValueError:
            want = EXIT_USAGE
        with pytest.MonkeyPatch.context() as mp:
            for name in ("cmd_plan", "cmd_dce_curve", "cmd_predict_bf", "cmd_simulate"):
                mp.setattr(cli_mod, name, lambda args: EXIT_OK)
            assert main([command, *flags_of(command, argv)]) == want

    @pytest.mark.parametrize("mean, sd", [("1e100", "1e-100"), ("1e200", "1e-200")])
    def test_overflowing_noncentrality_is_usage_error(
        self, mean, sd, two_node_files, capsys, monkeypatch
    ):
        # n (mean / sd)^2 is not a finite float: predict-bf ended in an
        # OverflowError traceback for the first and wrote nan rows for the second
        import causal_ssd.cli as cli_mod

        def no_reading(*args, **kwargs):
            raise AssertionError("read or sampled before the usage check")

        monkeypatch.setattr(cli_mod, "_load_inputs", no_reading)
        monkeypatch.setattr(cli_mod, "replicate_two_node_study", no_reading)
        graph, data = two_node_files
        inputs = ["--graph", graph, "--data", data]
        density = ["--intervention-mean", mean, "--intervention-sd", sd]
        assert main(["predict-bf", *inputs, "--edge", "u,v", "--n", "20", *density]) == EXIT_USAGE
        assert main(["plan", *inputs, *density]) == EXIT_USAGE
        assert main(["simulate", *density]) == EXIT_USAGE
        assert capsys.readouterr().err.count("is not a finite float") == 3

    @pytest.mark.parametrize("error", [KeyError("bug"), ValueError("bug")])
    def test_internal_error_is_not_an_input_error(self, error, two_node_files, monkeypatch):
        import causal_ssd.cli as cli_mod

        def broken(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli_mod, "plan_cpdag", broken)
        graph, data = two_node_files
        with pytest.raises(type(error)):
            main(["plan", "--graph", graph, "--data", data, *FAST])

    def test_out_path_under_a_file_is_input_error(self, two_node_files, tmp_path):
        graph, data = two_node_files
        for out in (os.path.join(data, "plan.json"), os.path.join(data, "sub", "plan.json")):
            proc = run_cli("plan", "--graph", graph, "--data", data, "--out", out, *FAST)
            assert proc.returncode == EXIT_INPUT, proc.stderr
            assert "input error:" in proc.stderr
            assert "Traceback" not in proc.stderr

    def test_simulate_out_on_a_file_is_input_error(self, two_node_files):
        _, data = two_node_files
        proc = run_cli("simulate", "--draws", "10", "--n-max", "12", "--out", data)
        assert proc.returncode == EXIT_INPUT, proc.stderr
        assert "input error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "target, flags", [("ingest_csv", []), ("atomic_write_text", ["--out", "p.json"])]
    )
    def test_permission_denied_is_input_error(
        self, target, flags, two_node_files, monkeypatch, capsys
    ):
        # an unreadable --data or an unwritable --out; chmod cannot deny root
        # a read, so the denial is patched in
        import causal_ssd.cli as cli_mod

        def denied(path, *args):
            raise PermissionError(errno.EACCES, "Permission denied", path)

        monkeypatch.setattr(cli_mod, target, denied)
        graph, data = two_node_files
        assert main(["plan", "--graph", graph, "--data", data, *FAST, *flags]) == EXIT_INPUT
        assert "input error: [Errno 13] Permission denied" in capsys.readouterr().err

    @pytest.mark.parametrize("cells, scale, scatter", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE)
    def test_data_outside_the_float_range_is_a_propriety_error(
        self, cells, scale, scatter, tmp_path, capsys
    ):
        values = scale * linear_sem_data("uv", {("u", "v"): 0.5}, 50, RandomStream(8)).values
        for cell, value in cells.items():
            values[cell] = value
        graph, data, out = tmp_path / "g.graph", tmp_path / "d.csv", tmp_path / "plan.json"
        graph.write_text("u -- v\n")
        write_dataset(data, "uv", values)
        inputs = ["--graph", str(graph), "--data", str(data), "--draws", "50"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning fails the run
            assert main(["plan", *inputs, "--workers", "1", "--out", str(out)]) == EXIT_CAPACITY
            assert main(["dce-curve", *inputs, "--edge", "u,v", "--n-max", "5"]) == EXIT_CAPACITY
            assert main(["predict-bf", *inputs, "--edge", "u,v", "--n", "5"]) == EXIT_CAPACITY
        err = capsys.readouterr().err
        assert err.count("float range") == 3
        # plan reports it per component, for a pair factor before any edge task runs
        (component,) = json.loads(out.read_text())["components"]
        if scatter:
            assert component["error"] == "observational scatter leaves the float range"
        else:
            assert re.fullmatch(r"the \((u, v|v, u)\) pair factor leaves the float range",
                                component["error"])

    @pytest.mark.parametrize("grid", [[], ["--n-max", "50"]], ids=["n-max-1000", "n-max-50"])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_pair_factor_outside_the_float_range_fails_only_its_component(
        self, workers, grid, tmp_path, monkeypatch, capsys
    ):
        # the u, v columns scaled by 1e150 give a finite, positive definite
        # scatter whose (u, v) pair factor overflows; at --n-max 50 no grid
        # point can reach zeta, so no edge task draws
        data = linear_sem_data("abuv", {("a", "b"): 0.5, ("u", "v"): 0.5}, 50, RandomStream(8))
        values = data.values.copy()
        values[:, 2:] *= 1e150
        write_dataset(tmp_path / "d.csv", data.labels, values)
        (tmp_path / "g.graph").write_text("a -- b\nu -- v\n")
        (tmp_path / "ab.graph").write_text("a -- b\n")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        flags = ["--data", str(tmp_path / "d.csv"), "--draws", "200", *grid, "--workers", workers]

        def plan(graph):
            out = tmp_path / f"{graph}.json"
            code = main(["plan", "--graph", str(tmp_path / graph), *flags, "--out", str(out)])
            return code, json.loads(out.read_text())["components"]

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning fails the run
            code, (ab, uv) = plan("g.graph")
            assert code == EXIT_CAPACITY
            assert uv["component"] == ["u", "v"] and uv["plans"] == []
            assert uv["error"] == "the (u, v) pair factor leaves the float range"
            assert capsys.readouterr().err.count("float range") == 1
            # a-b is planned in full, as it is without the u-v component
            assert plan("ab.graph")[1] == [ab]
        assert ab["error"] is None and len(ab["plans"]) == 2
        assert ab["feasible"] == (grid == [])

    def test_huge_thresholds_are_not_achievable_without_traceback(self, two_node_files, tmp_path):
        graph, data = two_node_files
        proc = run_cli(
            "plan", "--graph", graph, "--data", data, "--out", str(tmp_path / "plan.json"),
            *FAST, "--k0", "1e308", "--k1", "1e308",
        )
        assert proc.returncode == EXIT_NOT_ACHIEVABLE, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_design_posterior_propriety_boundary(self, two_node_files, tmp_path, capsys):
        # 50 rows of u -- v give df = a_omega + 50, and a proper posterior
        # needs df - (T - 2) > 1: -49 sits on the bound, -48.999 just inside
        graph, data = two_node_files
        inputs = ["--graph", graph, "--data", data, "--draws", "200", "--n-max", "50"]
        out = tmp_path / "plan.json"
        assert main(["plan", *inputs, "--a-omega", "-49", "--out", str(out)]) == EXIT_CAPACITY
        assert "design posterior improper" in capsys.readouterr().err
        (component,) = json.loads(out.read_text())["components"]
        assert component["error"].startswith("design posterior improper")
        assert main(["plan", *inputs, "--a-omega", "-48.999", "--out", str(out)]) != EXIT_CAPACITY
        assert "design posterior improper" not in capsys.readouterr().err
        (component,) = json.loads(out.read_text())["components"]
        assert component["error"] is None

    def test_unknown_flag_is_usage_error(self):
        assert main(["plan", "--nope"]) == EXIT_USAGE

    def test_missing_required_inputs_usage_error(self):
        assert main(["plan"]) == EXIT_USAGE
        assert main(["dce-curve", "--graph", "g", "--data", "d"]) == EXIT_USAGE

    def test_bad_edge_format(self, two_node_files):
        graph, data = two_node_files
        assert main(["dce-curve", "--graph", graph, "--data", data, "--edge", "uv"]) == EXIT_USAGE

    def test_env_override(self, two_node_files, tmp_path, monkeypatch):
        graph, data = two_node_files
        monkeypatch.setenv("CAUSAL_SSD_SEED", "7")
        out = tmp_path / "plan.json"
        assert main(["plan", "--graph", graph, "--data", data, "--out", str(out), *FAST]) == EXIT_OK
        assert json.loads(out.read_text())["config"]["seed"] == 7

    @pytest.mark.parametrize(
        "name, type_", [(name, FLAGS[name][0]) for name in COMMAND_FLAGS["plan"]]
    )
    def test_env_preset_reaches_plan_and_a_flag_beats_it(
        self, name, type_, pair_dir, monkeypatch, capsys
    ):
        check_preset_and_flag("plan", name, type_, monkeypatch, capsys)

    @pytest.mark.parametrize(
        "command, name, type_",
        [(command, name, FLAGS[name][0]) for command in ("dce-curve", "predict-bf", "simulate")
         for name in COMMAND_FLAGS[command]],
    )
    def test_env_preset_reaches_an_edge_command_or_simulate_and_a_flag_beats_it(
        self, command, name, type_, pair_dir, monkeypatch, capsys
    ):
        check_preset_and_flag(command, name, type_, monkeypatch, capsys)

    @pytest.mark.parametrize(
        "name", [name for name in COMMAND_FLAGS["plan"] if FLAGS[name][0] is not str]
    )
    def test_malformed_env_preset_is_usage_error(self, name, pair_dir, monkeypatch, capsys):
        check_malformed_preset("plan", name, monkeypatch, capsys)

    @pytest.mark.parametrize(
        "command, name",
        [(command, name) for command in ("dce-curve", "predict-bf", "simulate")
         for name in COMMAND_FLAGS[command] if FLAGS[name][0] is not str],
    )
    def test_malformed_env_preset_of_an_edge_command_or_simulate_is_usage_error(
        self, command, name, pair_dir, monkeypatch, capsys
    ):
        check_malformed_preset(command, name, monkeypatch, capsys)

    def test_console_entry_point(self, two_node_files, tmp_path):
        graph, data = two_node_files
        out = tmp_path / "plan.json"
        proc = run_cli("plan", "--graph", graph, "--data", data, "--out", str(out), *FAST)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert out.exists()


NOT_TAKEN = [(command, name) for command in COMMAND_FLAGS for name in FLAGS
             if name not in COMMAND_FLAGS[command]]


class TestCommandFlags:
    def test_settable_values(self):
        assert [len(COMMAND_FLAGS[c]) for c in COMMAND_FLAGS] == [13, 12, 10, 7]
        assert {name for flags in COMMAND_FLAGS.values() for name in flags} == set(FLAGS)

    @pytest.mark.parametrize("command, name", NOT_TAKEN)
    def test_flag_not_taken_is_usage_error_and_writes_nothing(
        self, command, name, pair_dir, capsys
    ):
        before = sorted(pair_dir.rglob("*"))
        argv = [*flags_of(command, [*INPUTS, *FAST]), "--out", "out"]
        assert main([command, *argv, to_flag(name), PRESETS[name][1]]) == EXIT_USAGE
        assert f"unrecognized arguments: {to_flag(name)}" in capsys.readouterr().err
        assert sorted(pair_dir.rglob("*")) == before

    @pytest.mark.parametrize("command, name", NOT_TAKEN)
    def test_preset_of_a_flag_not_taken_is_ignored(
        self, command, name, pair_dir, monkeypatch, capsys
    ):
        monkeypatch.setenv("CAUSAL_SSD_" + name.upper(), PRESETS[name][2])
        argv = [*flags_of(command, [*INPUTS, *FAST]), "--out", "out"]
        code, echoes = run_and_read_echoes(command, argv, capsys)
        assert code in (EXIT_OK, EXIT_NOT_ACHIEVABLE)
        assert echoes and all(name not in echo for echo in echoes)

    @pytest.mark.parametrize("command", COMMAND_FLAGS)
    def test_every_echo_holds_the_flags_taken_but_workers(self, command, pair_dir, capsys):
        argv = [*flags_of(command, [*INPUTS, *FAST]), "--out", "out"]
        code, echoes = run_and_read_echoes(command, argv, capsys)
        assert code == EXIT_OK
        assert len(echoes) == (4 if command == "simulate" else 1)
        for echo in echoes:
            assert set(echo) == set(COMMAND_FLAGS[command]) - {"workers"}

    @pytest.mark.parametrize("umask", [0o022, 0o007], ids=["umask022", "umask007"])
    @pytest.mark.parametrize("command", COMMAND_FLAGS)
    def test_artifacts_get_the_mode_the_umask_allows(self, command, umask, pair_dir, capsys):
        # the temporary file is created 0o600, and the rename kept that mode
        argv = [*flags_of(command, [*INPUTS, *FAST]), "--out", "out"]
        previous = os.umask(umask)
        try:
            code = main([command, *argv])
        finally:
            os.umask(previous)
        capsys.readouterr()
        assert code == EXIT_OK
        out = pair_dir / "out"
        paths = sorted(out.iterdir()) if command == "simulate" else [out]
        assert len(paths) == (4 if command == "simulate" else 1)
        for path in paths:
            assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path

    @pytest.mark.parametrize("command", COMMAND_FLAGS)
    def test_help_lists_the_flags_taken(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        listed = set(re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out)) - {"--help"}
        assert listed == {to_flag(name) for name in COMMAND_FLAGS[command]}

    @pytest.mark.parametrize("command", COMMAND_FLAGS)
    def test_empty_out_is_usage_error_before_reading(
        self, command, two_node_files, tmp_path, monkeypatch, capsys
    ):
        # the temporary file of an empty --out would land in the parent of the
        # working directory
        import causal_ssd.cli as cli_mod

        def no_reading(*args, **kwargs):
            raise AssertionError("read or sampled before the usage check")

        monkeypatch.setattr(cli_mod, "_load_inputs", no_reading)
        monkeypatch.setattr(cli_mod, "replicate_two_node_study", no_reading)
        graph, data = two_node_files
        inputs = ["--graph", graph, "--data", data, "--edge", "u,v", "--n", "10"]
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        before = sorted(tmp_path.rglob("*"))
        assert main([command, *flags_of(command, inputs), "--out", ""]) == EXIT_USAGE
        assert "usage error: --out must not be empty" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before


# the header of each CSV artifact
CSV_HEADERS = {
    "bf_samples.csv": "hypothesis,n,draw_index,bf",
    "dce_curves.csv": "k,n,p0_dc,p1_dc,overall_dc,se_overall",
    "nstar_curves.csv": "k,zeta,n_star",
    "curve.csv": "n,p0_dc,p1_dc,overall_dc,se_overall",
    "bf.csv": "hypothesis,n,draw_index,bf",
}


class TestArtifactText:
    """Every artifact's bytes are its canonical text, written out here apart
    from the package."""

    def test_json_artifacts_are_canonical(self, two_node_files, tmp_path):
        graph, data = two_node_files
        plan = tmp_path / "plan.json"
        assert main(["plan", "--graph", graph, "--data", data, *FAST, "--out", str(plan)]) == 0
        sim = tmp_path / "sim"
        assert main(["simulate", "--draws", "200", "--n-max", "30", "--out", str(sim)]) == 0
        for path in (plan, sim / "report.json"):
            text = path.read_text()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path

    def test_csv_artifacts_are_canonical(self, two_node_files, tmp_path):
        # a config comment, the header, and every number with 17
        # significant digits (an integer without a point, a null empty)
        graph, data = two_node_files
        inputs = ["--graph", graph, "--data", data, "--edge", "u,v", "--draws", "200"]
        sim = tmp_path / "sim"
        assert main(["simulate", "--draws", "200", "--n-max", "30", "--out", str(sim)]) == 0
        curve, bf = tmp_path / "curve.csv", tmp_path / "bf.csv"
        assert main(["dce-curve", *inputs, "--n-max", "30", "--out", str(curve)]) == 0
        assert main(["predict-bf", *inputs, "--n", "10", "--out", str(bf)]) == 0
        paths = [sim / name for name in ("bf_samples.csv", "dce_curves.csv", "nstar_curves.csv")]
        for path in [*paths, curve, bf]:
            comment, header, *rows = path.read_text().split("\n")
            assert comment.startswith("# config {") and json.loads(comment[len("# config "):])
            assert header == CSV_HEADERS[path.name]
            assert rows[-1] == "" and len(rows) > 1, path
            for row in rows[:-1]:
                for cell in row.split(","):
                    if cell not in ("H0", "H1", ""):
                        assert cell == format(float(cell), ".17g"), (path, row)


def third_party_packages_loaded_by(statement):
    """Top-level packages from outside the standard library that a fresh
    interpreter loads to run ``statement``."""
    code = (
        "import os, sys, sysconfig\n"
        "stdlib = [os.path.realpath(sysconfig.get_paths()[k]) for k in ('stdlib', 'platstdlib')]\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "tops = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "def third_party(name):\n"
        "    path = getattr(sys.modules.get(name), '__file__', None)\n"
        "    if not path or name in sys.stdlib_module_names:\n"
        "        return False\n"
        "    path = os.path.realpath(path)\n"
        "    return 'site-packages' in path.split(os.sep) or not any(\n"
        "        path.startswith(d + os.sep) for d in stdlib)\n"
        "print(' '.join(sorted(t for t in tops if third_party(t))))\n"
    )
    return set(run_python(code).split())


def run_python(code):
    """The stdout of ``code`` run in a fresh interpreter that imports the
    package this module imported."""
    src = os.path.dirname(os.path.dirname(causal_ssd.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    return proc.stdout


def test_cli_import_loads_no_third_party_package_beyond_numpy():
    # guards the set-up time of every command against new heavy imports;
    # what numpy loads on its own is its own.  scipy is a test-only oracle:
    # its special functions alone cost about 0.3 s of import
    dependencies = third_party_packages_loaded_by("import numpy")
    assert "numpy" in dependencies
    loaded = third_party_packages_loaded_by(
        "import causal_ssd.cli\nassert 'scipy' not in sys.modules"
    )
    assert loaded - dependencies == {"causal_ssd"}, sorted(loaded - dependencies)


def test_commands_without_a_pool_import_none(two_node_files, tmp_path):
    # the worker map forks without multiprocessing or concurrent.futures,
    # about 30 modules and 2 MB of peak memory that no run needs: here on
    # two usable CPUs, so that simulate, dce-curve and plan --workers 2 fork
    graph, data = two_node_files
    inputs = ["--graph", graph, "--data", data, "--edge", "u,v", "--n", "10"]
    fast = ["--draws", "200", "--n-max", "40", "--workers", "1"]
    runs = [
        ["simulate", *flags_of("simulate", fast), "--out", str(tmp_path / "sim")],
        ["dce-curve", *flags_of("dce-curve", inputs + fast)],
        ["predict-bf", *flags_of("predict-bf", inputs + fast)],
        ["plan", *flags_of("plan", inputs + fast)],
        ["plan", *flags_of("plan", inputs + fast, but="--workers"), "--workers", "2"],
    ]
    code = (
        "import contextlib, io, os, sys\n"
        "from causal_ssd.cli import main\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {runs!r}]\n"
        "pools = sorted(m for m in sys.modules\n"
        "               if m.split('.')[0] == 'multiprocessing' or m.startswith('concurrent.futures'))\n"
        "print(codes, len(forks), pools)\n"
    )
    assert run_python(code) == f"{[EXIT_OK] * 3 + [EXIT_NOT_ACHIEVABLE] * 2} 3 []\n"


def _traced() -> tuple:
    """The TRACED table of bench/tracing.py, read without importing it."""
    import ast

    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench", "tracing.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    (traced,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    ]
    return traced


def test_bench_setup_probe_imports_resolve():
    # bench/run.py times its setup_s probe without reading the probe's exit
    # status, so a probe import that no longer resolves would go unnoticed
    import ast
    import importlib

    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench", "run.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    lines = {
        line
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for line in node.value.splitlines()
        if line.startswith(("import causal_ssd", "from causal_ssd"))
    }
    imported = set()
    for line in sorted(lines):
        (statement,) = ast.parse(line).body
        for alias in statement.names:
            if isinstance(statement, ast.ImportFrom):
                getattr(importlib.import_module(statement.module), alias.name)
                imported.add(f"{statement.module}.{alias.name}")
            else:
                importlib.import_module(alias.name)
                imported.add(alias.name)
    assert imported >= {
        "causal_ssd.cli", "causal_ssd.graph.parse_edge_list", "causal_ssd.harness.ingest_csv"
    }


def test_every_traced_name_is_bound():
    # bench/tracing.py wraps each (module, attribute) of TRACED with no
    # default, so a deleted or renamed name would break `--trace 1`
    import importlib

    traced = _traced()
    assert traced
    unbound = [
        f"{module}.{attr}"
        for module, attr, *_ in traced
        if not hasattr(importlib.import_module(f"causal_ssd.{module}"), attr)
    ]
    assert unbound == []


def test_every_unused_import_is_a_traced_name():
    # a name a module imports but never reads is dead, unless bench/tracing.py
    # wraps it there
    import ast

    src = os.path.dirname(causal_ssd.__file__)
    unused = set()
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(name[:-3], attr) for attr in imported - read}
    assert unused <= {(module, attr) for module, attr, *_ in _traced()}


# functions of src/causal_ssd that no command runs, each with its reason
NOT_RUN_BY_A_COMMAND = {
    "graph.enumerate_class": "oracle of design.orientation_counts; bench/tracing.py wraps it",
    "graph.enumerate_class.<locals>.reaches": "inner function of enumerate_class",
    "graph.enumerate_class.<locals>.creates_v_structure": "inner function of enumerate_class",
    "graph.enumerate_class.<locals>.assign": "inner function of enumerate_class",
    "numerics.sample_wishart": "oracle of predictive.draw_h1_edge; bench/tracing.py wraps it",
    "numerics.WishartParams.__post_init__": (
        "parameter type of the oracle sample_wishart; predictive.pair_factor "
        "reads the pair law off the checked DesignPosterior"
    ),
    "graph.meek_closure": (
        "public API; oracle of design._rooted and of is_sufficient; "
        "bench/tracing.py wraps design.meek_closure"
    ),
    "graph.meek_closure.<locals>.adjacent": "inner function of meek_closure",
    "graph.meek_closure.<locals>.sweep": "inner function of meek_closure",
    "graph.PartiallyDirectedGraph.__repr__": "value semantics of a graph type, used by tests",
}


def _defined_functions(path: str) -> dict[int, str]:
    """First line of each function defined in a module (its first decorator's
    line, as in its code object), mapped to its qualified name."""
    import ast

    with open(path) as fh:
        tree = ast.parse(fh.read())
    out = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[first] = prefix + child.name
                walk(child, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(tree, "")
    return out


def test_every_src_function_runs_in_a_command(fig1_files, tmp_path, capsys, monkeypatch):
    # library code that no command runs and that no allowlist entry explains
    # belongs in tests/helpers.py or nowhere
    import causal_ssd.design as design_mod
    import causal_ssd.ssd as ssd_mod

    package = os.path.dirname(causal_ssd.__file__)
    defined = {
        (os.path.join(package, name), line): f"{name[:-3]}.{qualname}"
        for name in sorted(os.listdir(package))
        if name.endswith(".py")
        for line, qualname in _defined_functions(os.path.join(package, name)).items()
    }

    graph, data = fig1_files
    inputs = ["--graph", graph, "--data", data]
    fast = ["--draws", "200", "--n-max", "60", "--workers", "1"]
    runs = [
        (["plan", *inputs, *fast, "--k0", "3", "--k1", "3", "--zeta", "0.5"], EXIT_OK),
        (["dce-curve", *inputs, "--edge", "1,2", *flags_of("dce-curve", fast)], EXIT_OK),
        (["predict-bf", *inputs, "--edge", "1,2", "--n", "10", *flags_of("predict-bf", fast)],
         EXIT_OK),
        (["simulate", *flags_of("simulate", fast), "--out", str(tmp_path / "sim")], EXIT_OK),
        (["plan", *inputs, *flags_of("plan", fast, but="--workers"), "--workers", "2",
          "--k0", "3", "--k1", "3", "--zeta", "0.5"], EXIT_OK),
        (["plan", *inputs, "--draws", "many"], EXIT_USAGE),
        (["plan", "--graph", graph, "--data", str(tmp_path / "missing.csv")], EXIT_INPUT),
    ]
    # two usable CPUs, so that the plan at --workers 2 and the full curves fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    design_mod.orientation_counts.cache_clear()
    ssd_mod._h0_bands.cache_clear()
    ran = set()

    def record(frame, event, arg):
        if event == "call":
            ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        codes = [main(argv) for argv, _ in runs]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [code for _, code in runs]
    not_run = {name for key, name in defined.items() if key not in ran}
    assert not_run == set(NOT_RUN_BY_A_COMMAND)


def test_readme_flag_table_matches_command_flags():
    # the ✓ columns of README.md's "| flag | default | ..." table against
    # cli.COMMAND_FLAGS, and its rows against cli.FLAGS
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| flag | default |"))
    commands = [cell.strip().strip("`") for cell in lines[start].strip("|").split("|")[2:]]
    assert sorted(commands) == sorted(COMMAND_FLAGS)
    taken = {command: set() for command in commands}
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:])
    for row in rows:
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        assert len(cells) == 2 + len(commands), row
        names = [name.replace("-", "_") for name in re.findall(r"`--([a-z0-9-]+)", cells[0])]
        assert names, row
        for command, mark in zip(commands, cells[2:]):
            assert mark in ("✓", ""), row
            if mark:
                taken[command].update(names)
    assert taken == {command: set(flags) for command, flags in COMMAND_FLAGS.items()}
    assert set().union(*taken.values()) == set(FLAGS)


def test_version_matches_pyproject():
    # tomllib is not in Python 3.10, so the version line is read with a regex
    with open(os.path.join(os.path.dirname(__file__), "..", "pyproject.toml"),
              encoding="utf-8") as fh:
        (version,) = re.findall(r'(?m)^version = "([^"]+)"$', fh.read())
    assert causal_ssd.__version__ == version


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # the Python block under "## Library" in README.md, on a two-node input
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    (tmp_path / "g.graph").write_text("u -- v\n")
    data = linear_sem_data("uv", {("u", "v"): 0.5}, 50, RandomStream(8))
    write_dataset(tmp_path / "z.csv", data.labels, data.values)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "['u', 'v'] ['u']\n"
