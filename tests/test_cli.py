"""Command-line interface: configs, artifacts, exit codes."""
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

import gaugetherm as gt
import gaugetherm.cli
from gaugetherm.cli import (
    CSV_HEADER,
    THIRD_LAW_HEADER,
    _json_ready,
    load_run_config,
    main,
)
from gaugetherm.verify import gauge_conjugates, thermal_ft


def write_config(path, body):
    path.write_text(body)
    return str(path)


LZ_SMALL = """\
[model]
name = landau_zener
nodes = 41

[params]
delta = 2.0
v = 1.0
"""

# d = 21 at 101 nodes: three node blocks
CW_BLOCKS = """\
[model]
name = curie_weiss
nodes = 101

[params]
j = 1.0
n_spins = 20
b_start = 2.0
b_end = 0.0

[run]
emit = clausius,ft,gauge_check,ledger,third_law
seed = 3

[third_law]
points = 8
"""


def run_cli(args):
    return main([str(a) for a in args])


class TestRun:
    def test_small_run_artifacts(self, tmp_path):
        cfg = write_config(tmp_path / "run.ini", LZ_SMALL)
        out = tmp_path / "out"
        assert run_cli(["run", "--config", cfg, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["model"]["name"] == "landau_zener"
        assert report["config"]["model"]["nodes"] == 41
        assert "final" in report and "clausius" in report and "ft" in report
        assert report["clausius"]["applicable"] is True
        assert abs(report["ft"]["ift_deviation"]) < 1e-9
        lines = (out / "ledger.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 42

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "run.ini", LZ_SMALL)
        out = tmp_path / "a"
        assert run_cli(["run", "--config", cfg, "--out", out]) == 0
        first_report = (out / "report.json").read_bytes()
        first_ledger = (out / "ledger.csv").read_bytes()
        assert run_cli(["run", "--config", cfg, "--out", out]) == 0
        assert (out / "report.json").read_bytes() == first_report
        assert (out / "ledger.csv").read_bytes() == first_ledger

    def test_streamed_run_matches_stored_route(self, tmp_path, capsys):
        """A multi-block run with every emit section writes the same bytes
        twice, and its final ledger row, gauge check and FT section equal
        those of the stored route (evolve and ledger over every node)."""
        cfg = write_config(tmp_path / "run.ini", CW_BLOCKS)
        out = tmp_path / "out"
        names = ("report.json", "ledger.csv", "third_law.csv")
        assert run_cli(["run", "--config", cfg, "--out", out]) == 0
        first = {name: (out / name).read_bytes() for name in names}
        assert run_cli(["run", "--config", cfg, "--out", out]) == 0
        capsys.readouterr()
        for name in names:
            assert (out / name).read_bytes() == first[name], name

        report = json.loads(first["report.json"])
        p = gt.build_protocol(load_run_config(cfg).spec)
        rho0, _ = gt.gibbs_state(p.block(0), p.beta)
        ev = gt.evolve(p, rho0)
        tl = gt.ledger(p, ev)
        ledger_names = {f.name for f in fields(gt.ThermoLedger)}
        assert set(report["final"]) == {"t"} | ledger_names
        final = {k: float(getattr(tl, k)[-1]) for k in ledger_names}
        assert report["final"] == _json_ready({"t": p.tau, **final})
        assert first["ledger.csv"].decode().splitlines()[0] == CSV_HEADER
        nodes = [0, p.n_nodes // 2, p.n_nodes - 1]
        conj, _, worst_twirl = gauge_conjugates(ev, nodes, np.random.default_rng(3))
        worst_sgt = max(
            abs(
                gt.s_gauge(gt.level_distribution(ev.states[j], ev.structures[j]))
                - gt.s_gauge(gt.level_distribution(c, ev.structures[j]))
            )
            for j, c in zip(nodes, conj)
        )
        assert report["gauge_check"] == _json_ready(
            {"nodes_checked": nodes, "max_twirl_deviation": worst_twirl,
             "max_s_gt_deviation": worst_sgt}
        )
        rep = thermal_ft(p, ev)
        assert set(report["ft"]) == {f.name for f in fields(gt.FtReport)} | {"reference", "ift_deviation"}
        assert report["ft"] == _json_ready(
            {"reference": "thermal", "ift_deviation": abs(rep.ift_value - 1.0), **asdict(rep)}
        )

    def test_emit_filtering(self, tmp_path):
        cfg = write_config(
            tmp_path / "run.ini",
            LZ_SMALL + "\n[run]\nemit = ledger\n",
        )
        out = tmp_path / "out"
        assert run_cli(["run", "--config", cfg, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert "ft" not in report and "clausius" not in report
        assert (out / "ledger.csv").exists()

    def test_third_law_emit(self, tmp_path):
        cfg = write_config(
            tmp_path / "run.ini",
            LZ_SMALL + "\n[run]\nemit = third_law\n\n[third_law]\npoints = 12\n",
        )
        out = tmp_path / "out"
        assert run_cli(["run", "--config", cfg, "--out", out]) == 0
        lines = (out / "third_law.csv").read_text().splitlines()
        assert lines[0] == THIRD_LAW_HEADER
        assert len(lines) == 13
        # the limit column repeats ln(ground multiplicity); final sweep
        # Hamiltonian has a unique ground state here
        limit = float(lines[1].split(",")[2])
        assert limit == pytest.approx(0.0, abs=1e-12)
        report = json.loads((out / "report.json").read_text())
        assert report["third_law"]["ground_multiplicity"] == 1
        assert not (out / "ledger.csv").exists()


class TestConfigErrors:
    def test_missing_file(self, tmp_path, capsys):
        assert run_cli(["run", "--config", tmp_path / "nope.ini"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.ini", LZ_SMALL + "\n[extras]\nx = 1\n")
        assert run_cli(["run", "--config", cfg]) == 2
        assert "extras" in capsys.readouterr().err

    def test_unknown_key_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.ini", "[model]\nname = landau_zener\nnoddes = 41\n")
        assert run_cli(["run", "--config", cfg]) == 2
        assert "noddes" in capsys.readouterr().err

    def test_unknown_model_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.ini", "[model]\nname = heisenberg\n")
        assert run_cli(["run", "--config", cfg]) == 2
        assert "heisenberg" in capsys.readouterr().err

    def test_unknown_emit_artifact(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.ini", LZ_SMALL + "\n[run]\nemit = ledger, csv\n")
        assert run_cli(["run", "--config", cfg]) == 2
        assert "csv" in capsys.readouterr().err

    def test_cluster_tolerance_reaches_field_ramp_check(self, tmp_path, capsys):
        """[tolerances] cluster_abs is the tolerance the Curie-Weiss grid is
        checked against: at 201 nodes the last nonzero field splits the +-m
        pairs by 0.02, which does not clear ten times 0.015."""
        cfg = write_config(
            tmp_path / "run.ini",
            minimal_config(tmp_path, "curie_weiss").replace("n_spins = 4.0", "n_spins = 10")
            + "nodes = 201\n\n[tolerances]\ncluster_abs = 0.015\n",
        )
        assert run_cli(["run", "--config", cfg, "--out", tmp_path / "out"]) == 3
        err = capsys.readouterr().err
        assert "field splitting 2.000e-02 at node 199 does not clear the clustering tolerance 1.500e-02" in err

    @pytest.mark.parametrize(
        "model, old, new",
        [
            ("random", "dim = 3.0", "dim = 3.7"),
            ("random", "degenerate = 0.0", "degenerate = 0.5"),
            ("curie_weiss", "n_spins = 4.0", "n_spins = 4.9"),
        ],
    )
    def test_non_integral_param(self, tmp_path, capsys, model, old, new):
        cfg = write_config(tmp_path / "run.ini", minimal_config(tmp_path, model).replace(old, new))
        assert run_cli(["run", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert f"config error: param '{new.split()[0]}'" in capsys.readouterr().err

    def test_missing_model_param(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.ini", "[model]\nname = landau_zener\n\n[params]\nv = 1.0\n")
        assert run_cli(["run", "--config", cfg]) == 2
        assert "delta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, line",
        [
            ("tolerances", "cluster_rel = nan"),
            ("tolerances", "cluster_abs = inf"),
            ("tolerances", "integration_gate = nan"),
            ("third_law", "beta_min = nan"),
        ],
    )
    def test_non_finite_float(self, tmp_path, capsys, section, line):
        cfg = write_config(tmp_path / "run.ini", LZ_SMALL + f"\n[{section}]\n{line}\n")
        assert run_cli(["run", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert line.split()[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "old, new", [("nodes = 41", "t_final = inf"), ("nodes = 41", "beta = inf"), ("v = 1.0", "v = nan")]
    )
    def test_non_finite_model_value(self, tmp_path, capsys, old, new):
        cfg = write_config(tmp_path / "run.ini", LZ_SMALL.replace(old, new))
        assert run_cli(["run", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert f"{new.split()[0]} = '" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["landau_zener", "curie_weiss", "random", "matrix"])
    @pytest.mark.parametrize("line", ["nodes = 1", "t_final = -1", "beta = -1"])
    def test_bad_grid_or_temperature(self, tmp_path, capsys, model, line):
        cfg = write_config(tmp_path / "run.ini", minimal_config(tmp_path, model) + line + "\n")
        assert run_cli(["run", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert f"config error: {line.split()[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, message",
        [
            ("name = landau_zener\n", "cannot parse config"),
            ("[model]\nnodes = 41\n", "missing required key 'name' in section [model]"),
            (LZ_SMALL + "\n[run]\nseed = -1\n", "[run] seed must be nonnegative, got -1"),
            (LZ_SMALL + "\n[third_law]\npoints = 1\n", "[third_law] points must be >= 2, got 1"),
            (LZ_SMALL + "\n[third_law]\nbeta_min = 0\n", "[third_law] beta_min must be positive, got 0.0"),
        ],
        ids=["unparseable", "no_name", "seed", "points", "beta_min"],
    )
    def test_rejected_before_the_run(self, tmp_path, capsys, body, message):
        cfg = write_config(tmp_path / "run.ini", body)
        assert run_cli(["run", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_beta_min_above_the_final_beta(self, tmp_path, capsys):
        # levels 0 and 2: the scan ends at 1e6 / 2
        cfg = matrix_config(tmp_path, "2\n0 0\n0 2\n")
        with open(cfg, "a") as fh:
            fh.write("\n[third_law]\nbeta_min = 1e6\n")
        assert run_cli(["third-law", "--config", cfg, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert "config error: [third_law] beta_min = 1000000.0 is not below the final beta 500000" in err

    def test_output_directory_that_cannot_be_made(self, tmp_path, monkeypatch, capsys):
        """An output path under a regular file is a config error (exit 2), for
        run, verify and third-law, found before the run's pass or the suite's
        cases start."""
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        cfg = write_config(tmp_path / "run.ini", LZ_SMALL)

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the output directory was made")

        monkeypatch.setattr("gaugetherm.cli.stream_run", no_work)
        monkeypatch.setitem(gaugetherm.cli.SUITES, "gauge", no_work)
        assert run_cli(["run", "--config", cfg, "--out", out]) == 2
        assert "config error: " in capsys.readouterr().err
        assert run_cli(["verify", "--suite", "gauge", "--cases", "1", "--out", out]) == 2
        assert "config error: " in capsys.readouterr().err
        assert run_cli(["third-law", "--config", cfg, "--out", out]) == 2
        assert "config error: " in capsys.readouterr().err

    def test_verify_bad_arguments(self, capsys):
        assert run_cli(["verify", "--suite", "nonesuch"]) == 2
        assert run_cli(["verify", "--suite", "ft", "--cases", "0"]) == 2
        capsys.readouterr()
        assert run_cli(["verify", "--suite", "ft", "--seed", "-1"]) == 2
        assert "config error: --seed must be nonnegative, got -1" in capsys.readouterr().err


# each model with only its name, its params and, for `matrix`, its file;
# [model] is the last section, so a line appended to it lands there
MINIMAL_PARAMS = {
    "landau_zener": {"delta": 2.0, "v": 1.0},
    "curie_weiss": {"j": 1.0, "n_spins": 4.0, "b_start": 2.0, "b_end": 0.0},
    "random": {"degenerate": 0.0, "dim": 3.0},
    "matrix": {},
}


def minimal_config(tmp_path, model):
    params = "".join(f"{k} = {v}\n" for k, v in MINIMAL_PARAMS[model].items())
    body = f"[params]\n{params}\n[model]\nname = {model}\n"
    if model == "matrix":
        (tmp_path / "h.txt").write_text("2\n0 0.5-0.5i\n0.5+0.5i 1\n")
        body += f"matrix_path = {tmp_path / 'h.txt'}\n"
    return body


class TestResolvedConfig:
    @pytest.mark.parametrize(
        "model, nodes, t_final, beta",
        [
            ("landau_zener", 1001, 1.0, 2.0),
            ("curie_weiss", 2001, 5.0, 2.0),
            ("random", 201, 1.0, 1.0),
            ("matrix", 101, 1.0, 1.0),
        ],
    )
    def test_defaults_in_report(self, tmp_path, monkeypatch, capsys, model, nodes, t_final, beta):
        """Every default of [model], [run], [tolerances] and [third_law] lands
        in the report's resolved config; the run writes to the default out."""
        cfg = write_config(tmp_path / "run.ini", minimal_config(tmp_path, model))
        monkeypatch.chdir(tmp_path)
        assert run_cli(["run", "--config", cfg]) == 0
        capsys.readouterr()
        expected_model = {"name": model, "nodes": nodes, "t_final": t_final, "beta": beta}
        if model == "matrix":
            expected_model["matrix_path"] = str(tmp_path / "h.txt")
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config"] == {
            "model": expected_model,
            "params": MINIMAL_PARAMS[model],
            "run": {"out": "out", "emit": ["clausius", "ft", "ledger"], "seed": 0},
            "tolerances": {"cluster_abs": None, "cluster_rel": None, "integration_gate": 1e-6},
            "third_law": {"points": 40, "beta_min": 0.01},
        }


def matrix_config(tmp_path, matrix_text):
    mat = tmp_path / "h.txt"
    mat.write_text(matrix_text)
    return write_config(
        tmp_path / "run.ini",
        f"[model]\nname = matrix\nmatrix_path = {mat}\nnodes = 21\n",
    )


class TestMatrixModel:
    def test_complex_entries_run(self, tmp_path):
        cfg = matrix_config(tmp_path, "2\n0 0.5-0.5i\n0.5+0.5i 1\n")
        out = tmp_path / "out"
        assert run_cli(["run", "--config", cfg, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        # constant protocol: no work done, state only dephases
        assert abs(report["final"]["w_u"]) < 1e-12
        assert abs(report["final"]["q_u"]) < 1e-10

    def test_dimension_mismatch(self, tmp_path, capsys):
        cfg = matrix_config(tmp_path, "3\n0 1\n1 0\n")
        assert run_cli(["run", "--config", cfg]) == 2
        assert "expected 3 rows" in capsys.readouterr().err

    def test_malformed_entry(self, tmp_path, capsys):
        cfg = matrix_config(tmp_path, "2\n0 one\n1 0\n")
        assert run_cli(["run", "--config", cfg]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_non_hermitian_rejected(self, tmp_path, capsys):
        cfg = matrix_config(tmp_path, "2\n0 1\n2 0\n")
        assert run_cli(["run", "--config", cfg]) == 3
        assert "validation error" in capsys.readouterr().err


class TestVerify:
    @pytest.mark.parametrize("suite", ["ft", "clausius", "gauge"])
    def test_small_suites_pass(self, suite, tmp_path, capsys):
        assert run_cli(["verify", "--suite", suite, "--cases", "2", "--out", tmp_path]) == 0
        capsys.readouterr()
        report = json.loads((tmp_path / f"verify_{suite}.json").read_text())
        assert report["pass"] is True
        assert report["cases"] == 2
        assert len(report["results"]) == 2
        assert all(r["pass"] for r in report["results"])

    def test_twirl_oracle_suite(self, tmp_path, capsys):
        assert run_cli(["verify", "--suite", "twirl-oracle", "--cases", "1", "--out", tmp_path]) == 0
        capsys.readouterr()
        report = json.loads((tmp_path / "verify_twirl_oracle.json").read_text())
        assert report["pass"] is True
        worst = report["worst"]
        assert worst["max_deviation"] < worst["bound"]


class TestThirdLawCommand:
    def test_matrix_scan(self, tmp_path):
        cfg = matrix_config(tmp_path, "3\n0 0 0\n0 0 0\n0 0 2\n")
        out = tmp_path / "out"
        assert run_cli(["third-law", "--config", cfg, "--out", out]) == 0
        lines = (out / "third_law.csv").read_text().splitlines()
        assert lines[0] == THIRD_LAW_HEADER
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(math.log(2), abs=1e-6)
        assert float(last[2]) == pytest.approx(math.log(2), abs=1e-12)

    @pytest.mark.parametrize("command", ["run", "third-law"])
    def test_scan_clusters_with_config_tolerances(self, tmp_path, command):
        """[tolerances] cluster_abs reaches the scan of both commands: with
        levels 0, 0.001 and 2 and cluster_abs = 0.01 the two lowest merge into
        a ground doublet, as they do in the run's own ledger."""
        cfg = matrix_config(tmp_path, "3\n0 0 0\n0 0.001 0\n0 0 2\n")
        with open(cfg, "a") as fh:
            fh.write("\n[run]\nemit = ledger,third_law\n\n[tolerances]\ncluster_abs = 0.01\n")
        out = tmp_path / "out"
        assert run_cli([command, "--config", cfg, "--out", out]) == 0
        beta, s_gt, limit = map(float, (out / "third_law.csv").read_text().splitlines()[-1].split(","))
        assert beta == pytest.approx(1e6 / 1.9995, rel=1e-12)
        assert s_gt == pytest.approx(math.log(2), abs=1e-11)
        assert limit == pytest.approx(math.log(2), abs=1e-11)
        if command == "run":
            section = json.loads((out / "report.json").read_text())["third_law"]
            assert section["ground_multiplicity"] == 2
            assert section["gap"] == pytest.approx(1.9995, abs=1e-12)
            assert section["final_beta"] == pytest.approx(1e6 / 1.9995, rel=1e-12)
            assert section["final_s_gt"] == pytest.approx(math.log(2), abs=1e-12)

    def test_curie_weiss_scan(self, tmp_path, capsys):
        """third-law on a Curie-Weiss config scans the magnet at b_end: at B = 0
        the ground level is the m = +-2 doublet, 0.75 below the next."""
        cfg = write_config(tmp_path / "run.ini", minimal_config(tmp_path, "curie_weiss"))
        out = tmp_path / "out"
        assert run_cli(["third-law", "--config", cfg, "--out", out]) == 0
        assert "wrote" in capsys.readouterr().out
        lines = (out / "third_law.csv").read_text().splitlines()
        assert lines[0] == THIRD_LAW_HEADER and len(lines) == 41
        beta, s_gt, limit = map(float, lines[-1].split(","))
        assert beta == pytest.approx(1e6 / 0.75, rel=1e-11)  # written to 12 digits
        assert s_gt == pytest.approx(math.log(2), abs=1e-12)
        assert limit == pytest.approx(math.log(2), abs=1e-12)

    def test_random_model_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "run.ini",
            "[model]\nname = random\n\n[params]\ndim = 3\ndegenerate = 0\n",
        )
        assert run_cli(["third-law", "--config", cfg]) == 2
        capsys.readouterr()


def test_import_loads_no_scipy():
    """The runtime is numpy only: a fresh interpreter that imports
    gaugetherm.cli has no scipy module loaded."""
    code = "import sys, gaugetherm.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
