"""End-to-end tests of the command-line interface."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import causal_ssd
from causal_ssd.bayes import g_of_n
from causal_ssd.cli import (
    EXIT_CAPACITY,
    EXIT_INPUT,
    EXIT_NOT_ACHIEVABLE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from causal_ssd.graph import Dag, format_edge_list, PartiallyDirectedGraph
from causal_ssd.harness import LinearSemSpec, generate_sem_data
from causal_ssd.numerics import RandomStream


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
    dag = Dag("uv", [("u", "v")])
    spec = LinearSemSpec(dag=dag, coefficients={("u", "v"): 0.5}, noise_sd={"u": 1.0, "v": 1.0})
    data = generate_sem_data(spec, 50, RandomStream(8))
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
    dag = Dag(
        "12345",
        [("1", "2"), ("1", "3"), ("2", "3"), ("2", "4"), ("2", "5"), ("4", "5")],
    )
    spec = LinearSemSpec(
        dag=dag,
        coefficients={e: 0.6 for e in dag.edges()},
        noise_sd={n: 1.0 for n in dag.nodes},
    )
    data = generate_sem_data(spec, 80, RandomStream(40))
    csv_path = tmp_path / "fig1.csv"
    write_dataset(csv_path, data.labels, data.values)
    return str(graph), str(csv_path)


def run_cli(*argv):
    """Run the CLI of the package this module imported in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(causal_ssd.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "causal_ssd.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


FAST = ["--draws", "400", "--n-max", "150", "--k0", "3", "--k1", "3", "--zeta", "0.5"]


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
        dag = Dag("123", [("1", "2"), ("2", "3")])
        spec = LinearSemSpec(
            dag=dag, coefficients={e: 0.7 for e in dag.edges()}, noise_sd={n: 1.0 for n in "123"}
        )
        data = generate_sem_data(spec, 70, RandomStream(41))
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
    def test_dce_curve_and_predict_bf_match_plan(self, fig1_files, tmp_path):
        graph, data = fig1_files
        zeta, k1 = (float(FAST[FAST.index(flag) + 1]) for flag in ("--zeta", "--k1"))
        out = tmp_path / "plan.json"
        assert main(["plan", "--graph", graph, "--data", data, "--out", str(out), *FAST]) == 0
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
            common = ["--graph", graph, "--data", data, "--edge", f"{u},{v}", *FAST]
            curve = tmp_path / f"curve_{u}{v}.csv"
            assert main(["dce-curve", *common, "--out", str(curve)]) == EXIT_OK
            crossing = next(r for r in read_csv_rows(curve) if float(r["overall_dc"]) >= zeta)
            assert int(crossing["n"]) == n_star
            assert float(crossing["overall_dc"]) == dce["overall_dc"]
            samples = tmp_path / f"bf_{u}{v}.csv"
            assert main(["predict-bf", *common, "--n", str(n_star),
                         "--out", str(samples)]) == EXIT_OK
            h1 = np.array([float(r["bf"]) for r in read_csv_rows(samples)
                           if r["hypothesis"] == "H1"])
            assert np.count_nonzero(h1 <= 1.0 / k1) / h1.size == dce["p1_dc"]


class TestSimulate:
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

    @pytest.mark.parametrize(
        "flag", [["--k0", "3"], ["--k1", "10"], ["--zeta", "0.6"]]
    )
    def test_threshold_flags_rejected(self, flag, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["simulate", "--draws", "200", "--n-max", "30", "--out", str(out),
                     *flag]) == EXIT_USAGE
        assert "k in {3, 6, 10}" in capsys.readouterr().err
        assert not out.exists()

    def test_default_threshold_values_accepted(self, tmp_path):
        out = tmp_path / "s"
        assert main(["simulate", "--draws", "200", "--n-max", "30", "--out", str(out),
                     "--k0", "6", "--k1", "6", "--zeta", "0.8"]) == EXIT_OK


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

    def test_undecodable_files_are_input_errors(self, two_node_files, tmp_path):
        graph, data = two_node_files
        binary = tmp_path / "binary"
        binary.write_bytes(b"\xff\xfe\x00\x81")
        assert main(["plan", "--graph", str(binary), "--data", data]) == EXIT_INPUT
        assert main(["plan", "--graph", graph, "--data", str(binary)]) == EXIT_INPUT

    @pytest.mark.parametrize(
        "flag", [["--seed", "-1"], ["--a-omega", "nan"], ["--a-omega", "inf"]]
    )
    def test_bad_seed_or_a_omega_is_usage_error(self, flag, two_node_files):
        graph, data = two_node_files
        assert main(["plan", "--graph", graph, "--data", data, *FAST, *flag]) == EXIT_USAGE
        assert main(["simulate", "--draws", "10", "--n-max", "12", *flag]) == EXIT_USAGE

    def test_draws_above_memory_budget_is_usage_error(self, two_node_files, capsys, monkeypatch):
        import causal_ssd.cli as cli_mod

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the usage check")

        monkeypatch.setattr(cli_mod, "draw_h1_edge", no_sampling)
        monkeypatch.setattr(cli_mod, "plan_cpdag", no_sampling)
        monkeypatch.setattr(cli_mod, "replicate_two_node_study", no_sampling)
        graph, data = two_node_files
        inputs = ["--graph", graph, "--data", data]
        assert cli_mod.MAX_DRAWS * cli_mod.H1_BYTES_PER_DRAW <= cli_mod.H1_BUDGET_BYTES
        for draws in (10**12, cli_mod.MAX_DRAWS + 1):
            flag = ["--draws", str(draws)]
            assert main(["plan", *inputs, *flag]) == EXIT_USAGE
            assert main(["simulate", *flag]) == EXIT_USAGE
            assert main(["predict-bf", *inputs, "--edge", "u,v", "--n", "10", *flag]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.count("usage error: --draws") == 3, err

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

    def test_huge_thresholds_are_not_achievable_without_traceback(self, two_node_files, tmp_path):
        graph, data = two_node_files
        proc = run_cli(
            "plan", "--graph", graph, "--data", data, "--out", str(tmp_path / "plan.json"),
            *FAST, "--k0", "1e308", "--k1", "1e308",
        )
        assert proc.returncode == EXIT_NOT_ACHIEVABLE, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unknown_flag_is_usage_error(self):
        assert main(["plan", "--nope"]) == EXIT_USAGE

    def test_missing_required_inputs_usage_error(self):
        assert main(["plan"]) == EXIT_USAGE
        assert main(["dce-curve", "--graph", "g", "--data", "d"]) == EXIT_USAGE

    def test_n0_other_than_one_rejected(self, two_node_files):
        graph, data = two_node_files
        assert main(["plan", "--graph", graph, "--data", data, "--n0", "2"]) == EXIT_USAGE

    def test_bad_edge_format(self, two_node_files):
        graph, data = two_node_files
        assert main(["dce-curve", "--graph", graph, "--data", data, "--edge", "uv"]) == EXIT_USAGE

    def test_env_override(self, two_node_files, tmp_path, monkeypatch):
        graph, data = two_node_files
        monkeypatch.setenv("CAUSAL_SSD_SEED", "7")
        out = tmp_path / "plan.json"
        assert main(["plan", "--graph", graph, "--data", data, "--out", str(out), *FAST]) == EXIT_OK
        assert json.loads(out.read_text())["config"]["seed"] == 7

    def test_console_entry_point(self, two_node_files, tmp_path):
        graph, data = two_node_files
        out = tmp_path / "plan.json"
        proc = run_cli("plan", "--graph", graph, "--data", data, "--out", str(out), *FAST)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert out.exists()


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
    src = os.path.dirname(os.path.dirname(causal_ssd.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    return set(proc.stdout.split())


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


def test_every_traced_name_is_bound():
    # bench/tracing.py wraps each (module, attribute) of TRACED with no
    # default, so a deleted or renamed name would break `--trace 1`
    import ast
    import importlib

    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench", "tracing.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    (traced,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    ]
    assert traced
    unbound = [
        f"{module}.{attr}"
        for module, attr, *_ in traced
        if not hasattr(importlib.import_module(f"causal_ssd.{module}"), attr)
    ]
    assert unbound == []
