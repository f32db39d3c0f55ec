"""Command-line behaviour: outputs, exit codes, reproducibility."""

import csv
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kbarrier.cegis
from kbarrier import (
    CaseStudyConfig, ConfigError, build_model, builtin_config, trajectory_from_csv,
)
from kbarrier.cli import main
from kbarrier.expr import format_expr

from conftest import make_reference_polynomial

REPO = Path(__file__).resolve().parents[1]

TOY = {
    "name": "toy-shear",
    "n": 2, "dt": 1.0,
    "truth_step": ["(mul (const 1.5) (var 0))", "(mul (const 0.5) (var 1))"],
    "dictionary": ["(var 0)", "(var 1)"],
    "x0": [1.1, 2.8],
    "trajectory_length": 2,
    "state_space": [[1.0, 3.0], [1.0, 3.0]],
    "initial_region": [[1.0, 1.4], [2.0, 3.0]],
    "unsafe_region": [[2.5, 3.0], [2.5, 3.0]],
    "k": 2, "epsilon": 0.1,
    "eta": [0.05, 0.001, 0.0, 0.0],
    "width": 3, "activations": ["square", "square", "square"],
    "epochs": 400, "learning_rate": 0.1, "lr_retrain": 0.05,
    "max_iterations": 10, "cex_points": 20, "cex_radius": 0.1,
    "samples": 300, "delta": 0.001,
}


@pytest.fixture
def toy_config(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(TOY))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestSimulate:
    def test_nonlinear_seven_steps(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(["simulate", "highly-nonlinear", "--steps", "7",
                     "--x0", "0.5,-1", "--output", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["x1", "x2"]
        assert len(rows) == 8
        assert rows[0] == ["0.5", "-1.0"]

    def test_zero_steps_single_row(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["simulate", "polynomial", "--steps", "0", "--output", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 1

    def test_truth_and_data_rollouts_agree(self, tmp_path):
        truth_csv = tmp_path / "truth.csv"
        data_csv = tmp_path / "data.csv"
        for target, flag in ((truth_csv, "truth"), (data_csv, "data")):
            assert main(["simulate", "highly-nonlinear", "--steps", "50",
                         "--model", flag, "--output", str(target)]) == 0
        _, truth_rows = read_csv(truth_csv)
        _, data_rows = read_csv(data_csv)
        worst = max(
            abs(float(a[i]) - float(b[i]))
            for a, b in zip(truth_rows, data_rows) for i in (0, 1)
        )
        assert worst <= 1e-7

    def test_output_loads_as_trajectory(self, tmp_path, highly_nonlinear):
        out = tmp_path / "traj.csv"
        assert main(["simulate", "highly-nonlinear", "--steps", "12",
                     "--output", str(out)]) == 0
        _, _, dictionary, _, model = highly_nonlinear
        rebuilt = build_model(trajectory_from_csv(out, dictionary), dictionary)
        assert np.max(np.abs(rebuilt.coeff - model.coeff)) <= 1e-8

    @pytest.mark.parametrize("command, flag, value", [
        ("simulate", "--steps", "-3"), ("simulate", "--steps", "-1"),
        ("grid", "--resolution", "0"), ("grid", "--resolution", "-2"),
    ])
    def test_out_of_range_count_flags(self, tmp_path, capsys, command, flag, value):
        cert = tmp_path / "b.expr"
        cert.write_text("(var 0)")
        out = tmp_path / "out.csv"
        argv = [command, "polynomial"] + ([str(cert)] if command == "grid" else [])
        assert main(argv + [flag, value, "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {flag} must be >= ")
        assert not out.exists()

    def test_unknown_config(self, tmp_path):
        assert main(["simulate", "no-such-system",
                     "--output", str(tmp_path / "x.csv")]) == 2


class TestSynthesizeAndVerify:
    def test_round_trip(self, toy_config, tmp_path):
        outdir = tmp_path / "run"
        assert main(["synthesize", toy_config, "--seed", "0",
                     "--output-dir", str(outdir)]) == 0
        report = json.loads((outdir / "report.json").read_text())
        assert report["outcome"] == "verified"
        cert = outdir / "certificate.expr"
        assert cert.exists()
        meta = json.loads((outdir / "certificate.meta.json").read_text())
        assert meta["k"] == 2 and meta["epsilon"] == 0.1
        # the stored certificate re-verifies valid through the verify command
        verdict_file = tmp_path / "verdict.json"
        assert main(["verify", toy_config, str(cert),
                     "--output", str(verdict_file)]) == 0
        verdict = json.loads(verdict_file.read_text())
        assert verdict["verdict"] == "valid"

    def test_same_seed_same_report(self, toy_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synthesize", toy_config, "--seed", "3",
                         "--output-dir", str(out)]) == 0
        assert (a / "report.json").read_text() == (b / "report.json").read_text()

    def test_invalid_config_exit_code(self, tmp_path):
        bad = dict(TOY)
        bad["initial_region"] = [[0.0, 1.4], [2.0, 3.0]]  # leaks outside X
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["synthesize", str(path), "--output-dir", str(tmp_path / "o")]) == 2

    def test_non_finite_setting_exits_before_training(self, tmp_path):
        bad = dict(TOY, learning_rate=math.nan)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        outdir = tmp_path / "o"
        assert main(["synthesize", str(path), "--output-dir", str(outdir)]) == 2
        assert not outdir.exists()

    def test_diverged_training_exit_code(self, tmp_path, capsys):
        config = builtin_config("polynomial").to_dict()
        config.update(learning_rate=1e200, epochs=20, max_iterations=1)
        path = tmp_path / "diverging.json"
        path.write_text(json.dumps(config))
        code = main(["synthesize", str(path), "--output-dir", str(tmp_path / "o")])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("training diverged: ") and err.count("\n") == 1

    def test_disjointness_enforced(self, tmp_path):
        bad = dict(TOY)
        bad["unsafe_region"] = [[1.0, 1.4], [2.0, 3.0]]  # equals the initial region
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["synthesize", str(path), "--output-dir", str(tmp_path / "o")]) == 2

    def test_verify_reference_polynomial_conventional(self, tmp_path):
        cert = tmp_path / "poly.expr"
        cert.write_text(format_expr(make_reference_polynomial()) + "\n")
        verdict_file = tmp_path / "verdict.json"
        code = main(["verify", "polynomial", str(cert), "--k", "1",
                     "--epsilon", "0", "--output", str(verdict_file)])
        assert code == 1
        verdict = json.loads(verdict_file.read_text())
        assert verdict["verdict"] == "counterexample"

    def test_verify_unparseable_certificate(self, tmp_path):
        cert = tmp_path / "broken.expr"
        cert.write_text("(frobnicate (var 0))")
        assert main(["verify", "polynomial", str(cert)]) == 2

    def test_verify_truncated_certificate(self, tmp_path, capsys):
        cert = tmp_path / "truncated.expr"
        cert.write_text("(add (var 0)")
        assert main(["verify", "highly-nonlinear", str(cert)]) == 2
        assert "unexpected end of expression text" in capsys.readouterr().err

    def test_verify_wrong_dimension_certificate(self, tmp_path):
        cert = tmp_path / "threedee.expr"
        cert.write_text("(var 2)")
        assert main(["verify", "polynomial", str(cert)]) == 2

    def test_invalid_flag_values(self, tmp_path):
        cert = tmp_path / "b.expr"
        cert.write_text("(var 0)")
        out = tmp_path / "out"
        for command in ("verify", "grid"):
            for flag, value in (("--k", "0"), ("--epsilon", "nan")):
                argv = [command, "polynomial", str(cert), flag, value, "--output", str(out)]
                assert main(argv) == 2
        assert main(["verify", "polynomial", str(cert), "--delta", "0"]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("case", ["polynomial", "pendulum"])
    @pytest.mark.parametrize("delta", ["nan", "0", "-1", "inf"])
    def test_bad_delta_flag_exits_before_training(self, tmp_path, capsys, monkeypatch,
                                                  case, delta):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(kbarrier.cegis, "train", no_training)
        outdir = tmp_path / "o"
        assert main(["synthesize", case, "--delta", delta, "--output-dir", str(outdir)]) == 2
        assert "config error: delta must be > 0 and finite" in capsys.readouterr().err
        assert not outdir.exists()

    def test_negative_seed_rejected_before_work(self, tmp_path, capsys):
        outdir = tmp_path / "o"
        assert main(["synthesize", "polynomial", "--seed", "-1",
                     "--output-dir", str(outdir)]) == 2
        assert "config error: seed must be >= 0" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("argv", [
        ["synthesize", "polynomial", "--output-dir"],
        ["simulate", "polynomial", "--steps", "2", "--output"],
    ])
    def test_unwritable_output_exits_before_training(self, tmp_path, capsys, monkeypatch,
                                                      argv):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(kbarrier.cegis, "train", no_training)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(argv + [str(blocker / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1

    def test_verify_deep_composition(self, tmp_path, capsys, reference_nonlinear_cert):
        cert = tmp_path / "cert.expr"
        cert.write_text(format_expr(reference_nonlinear_cert) + "\n")
        code = main(["verify", "highly-nonlinear", str(cert), "--k", "100"])
        verdict = json.loads(capsys.readouterr().out)
        exit_codes = {"valid": 0, "counterexample": 1, "delta_sat": 1, "exhausted": 4}
        assert code == exit_codes[verdict["verdict"]]


class TestConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("learning_rate", math.nan), ("learning_rate", math.inf), ("learning_rate", 0.0),
        ("lr_retrain", 0.0), ("lr_retrain", math.nan), ("lr_retrain", 0.2),
        ("delta", math.nan), ("delta", -1.0), ("delta", 0.0), ("delta", math.inf),
        ("max_boxes", 0), ("epsilon", math.nan), ("epsilon", math.inf),
        ("cex_radius", math.inf), ("cex_radius", math.nan), ("epochs", -1),
        ("eta", [math.nan, 0.0, 0.0, 0.0]),
    ])
    def test_out_of_range_rejected_at_load(self, field, value):
        with pytest.raises(ConfigError):
            CaseStudyConfig.from_dict(dict(TOY, **{field: value}))

    def test_boundary_values_load(self):
        config = CaseStudyConfig.from_dict(dict(TOY, lr_retrain=0.1, epsilon=0.0, max_boxes=1))
        assert config.cegis_config(0).lr_retrain == config.train_config().learning_rate


class TestGrid:
    def test_identity_values(self, tmp_path):
        cert = tmp_path / "b.expr"
        cert.write_text("(var 0)\n")
        out = tmp_path / "grid.csv"
        assert main(["grid", "polynomial", str(cert), "--resolution", "3",
                     "--output", str(out)]) == 0
        header, rows = read_csv(out)
        assert len(rows) == 9
        for row in rows:
            assert float(row[2]) == float(row[0])

    def test_verified_certificate_respects_levels(self, toy_config, tmp_path):
        outdir = tmp_path / "run"
        assert main(["synthesize", toy_config, "--seed", "0",
                     "--output-dir", str(outdir)]) == 0
        grid_file = tmp_path / "grid.csv"
        assert main(["grid", toy_config, str(outdir / "certificate.expr"),
                     "--resolution", "101", "--output", str(grid_file)]) == 0
        header, rows = read_csv(grid_file)
        values = np.array([float(r[2]) for r in rows])
        in_init = np.array([r[3] == "1" for r in rows])
        in_unsafe = np.array([r[4] == "1" for r in rows])
        lam = (TOY["k"] - 1) * TOY["epsilon"]
        assert values[in_init].max() <= 0.0
        assert values[in_unsafe].min() > lam


class TestShowConfig:
    def test_builtin_dump_reloads(self, tmp_path, capsys):
        assert main(["show-config", "pendulum"]) == 0
        dumped = capsys.readouterr().out
        payload = json.loads(dumped)
        path = tmp_path / "pendulum.json"
        path.write_text(dumped)
        assert main(["show-config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == payload

    def test_console_script_entry_point(self):
        """Run the `kbarrier` entry point declared in pyproject.toml the way
        the installed console-script wrapper does, without an installation."""
        tomllib = pytest.importorskip("tomllib")
        with open(REPO / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["kbarrier"]
        module, attr = target.split(":")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
        code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        proc = subprocess.run([sys.executable, "-c", code, "show-config", "polynomial"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["name"] == "polynomial"

    @pytest.mark.skipif(shutil.which("kbarrier") is None,
                        reason="the kbarrier console script is not installed on PATH")
    def test_installed_console_script(self):
        proc = subprocess.run(["kbarrier", "show-config", "polynomial"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["name"] == "polynomial"
