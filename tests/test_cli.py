import json
import subprocess
import sys

import pytest
import yaml

from sdetci import ou_singular_config
from sdetci.cli import main


def _write(tmp_path, name, cfg):
    f = tmp_path / name
    f.write_text(yaml.safe_dump(cfg))
    return str(f)


def _ou_cfg():
    return {
        "kind": "singular",
        "d": 1,
        "T": 1.0,
        "b1": {"family": "zero"},
        "b2": {"family": "linear", "matrix": [[-1.0]]},
        "sigma": {"family": "constant", "value": [[1.0]]},
        "p": 4.0,
        "c0": 1.0,
        "beta": 0.5,
        "tag": "dissipative",
        "r": 0.0,
        "kappa1": 1.0,
        "kappa2": 0.0,
        "kappa3": 1.0,
    }


def _dini_cfg():
    return {
        "kind": "dini",
        "d": 1,
        "T": 1.0,
        "B": {"family": "zero"},
        "b": {"family": "log_square_bench", "sup": 1.0},
        "sigma": {"family": "constant", "value": [[1.0]]},
        "b_sup": 1.0,
    }


class TestExitCodes:
    def test_validate_pass(self, tmp_path, capsys):
        cfg = _write(tmp_path, "v.yaml", {"model": _ou_cfg(), "seed": 1})
        assert main(["validate", cfg]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["sections"]["validation"]["passed"]

    def test_validate_fail(self, tmp_path, capsys):
        model = _ou_cfg()
        model["kappa1"] = 5.0  # stronger than the drift can deliver
        cfg = _write(tmp_path, "v.yaml", {"model": model, "seed": 1})
        assert main(["validate", cfg]) == 1

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = _write(tmp_path, "bad.yaml", {"model": _ou_cfg(), "typo_key": 1})
        assert main(["validate", cfg]) == 2
        assert "typo_key" in capsys.readouterr().err

    def test_malformed_yaml(self, tmp_path, capsys):
        f = tmp_path / "broken.yaml"
        f.write_text("{unclosed: [")
        assert main(["validate", str(f)]) == 2

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.yaml")]) == 2

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # a large drift at a fixed tiny regularization level cannot contract
        model = _dini_cfg()
        model["b"]["sup"] = 10.0
        model["b_sup"] = 10.0
        cfg = _write(tmp_path, "z.yaml", {
            "model": model, "auto": False, "lam": 1e-4,
            "grid_m": 33, "n_time": 8, "tol": 1e-12,
        })
        assert main(["zvonkin", cfg]) == 3

    @pytest.mark.parametrize("command, cfg, key", [
        ("simulate", {"scheme": "tamd"}, "scheme"),
        ("simulate", {"n_paths": 0}, "n_paths"),
        ("simulate", {"n_steps": 0}, "n_steps"),
        ("simulate", {"x0": [0.0, 1.0]}, "x0"),
        ("tci", {"x0": [0.0, 1.0], "delta": 0.05}, "x0"),
        ("tci", {"shifts": [0.1], "n_paths": 1}, "n_paths"),
        ("zvonkin", {"grid_m": 2}, "grid_m"),
        ("invariance", {"n_trials": 0}, "n_trials"),
        # a value that is not a number names its key, not a traceback
        ("simulate", {"n_paths": "abc"}, "n_paths"),
        ("simulate", {"n_steps": "many"}, "n_steps"),
        ("invariance", {"n_trials": "x"}, "n_trials"),
        ("invariance", {"w_tol": "tight"}, "w_tol"),
        ("tci", {"x0": ["a"], "delta": 0.05}, "x0"),
        ("tci", {"delta": "small"}, "delta"),
        ("tci", {"delta": 0.05, "n_list": [10, "x"]}, "n_list"),
        ("tci", {"delta": 0.05, "n_list": []}, "n_list"),
        ("tci", {"shifts": ["big"]}, "shifts"),
        ("tci", {"seed": "s"}, "seed"),
        ("zvonkin", {"grid_m": "m"}, "grid_m"),
        ("zvonkin", {"auto": False}, "lam"),
    ])
    def test_out_of_range_value_is_config_error(self, tmp_path, capsys, command,
                                                cfg, key):
        if command == "zvonkin":
            cfg = {"model": _dini_cfg(), **cfg}
        elif command != "invariance":
            cfg = {"model": _ou_cfg(), "n_steps": 8, **cfg}
        f = _write(tmp_path, "bad.yaml", {"seed": 0, **cfg})
        assert main([command, f]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err


class TestPipelines:
    def test_simulate_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "paths.csv"
        cfg = _write(tmp_path, "s.yaml", {
            "model": _ou_cfg(), "seed": 2, "n_steps": 16, "n_paths": 4,
            "csv": str(out),
        })
        assert main(["simulate", cfg]) == 0
        assert out.exists()
        data = json.loads(capsys.readouterr().out)
        assert data["sections"]["simulate"]["n_paths"] == 4

    def test_zvonkin_report(self, tmp_path, capsys):
        cfg = _write(tmp_path, "z.yaml", {
            "model": _dini_cfg(), "grid_m": 65, "n_time": 16, "seed": 0,
        })
        assert main(["zvonkin", cfg]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["sections"]["phi"]["grad_bound"] < 0.5

    def test_tci_report(self, tmp_path, capsys):
        cfg = _write(tmp_path, "t.yaml", {
            "model": _ou_cfg(), "seed": 0, "n_steps": 32, "delta": 0.05,
            "n_list": [500, 2000], "shifts": [0.1, 0.2], "n_paths": 500,
        })
        assert main(["tci", cfg]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["sections"]["gaussian_tail"]["stable"]
        assert data["sections"]["t1"]["transformed_constant"] == 5.0
        assert data["sections"]["thresholds"]["lambda_max"] == 0.5

    def test_tci_thresholds_use_declared_sigma_bound(self, tmp_path, capsys):
        # sigma = 2 with c0 = 4: thresholds scale with sigma_sup = sqrt(c0)
        model = ou_singular_config(kappa=1.0)
        model["sigma"]["value"] = [[2.0]]
        model["c0"] = 4.0
        cfg = _write(tmp_path, "t.yaml", {"model": model, "seed": 0})
        assert main(["tci", cfg]) == 0
        ts = json.loads(capsys.readouterr().out)["sections"]["thresholds"]
        assert ts["lambda_max"] == 0.125
        assert ts["delta_max"] == 0.015625

    def test_tci_rejects_sigma_above_declared_bound(self, tmp_path, capsys):
        # sigma = 2 with c0 left at its default 1 breaks sigma sigma* <= c0
        model = ou_singular_config(kappa=1.0)
        model["sigma"]["value"] = [[2.0]]
        model.pop("c0", None)
        cfg = _write(tmp_path, "t.yaml", {"model": model, "seed": 0})
        assert main(["tci", cfg]) == 2
        assert "c0" in capsys.readouterr().err

    def test_invariance_command(self, tmp_path, capsys):
        cfg = _write(tmp_path, "i.yaml", {"seed": 1, "n_trials": 15})
        assert main(["invariance", cfg]) == 0


class TestDeterminism:
    def test_output_bytes_identical_across_worker_env(self, tmp_path, child_env):
        # one config with a relative output, run in two fresh processes from
        # separate directories; the ambient SDETCI_WORKERS must not matter
        outs = []
        for workers in ("1", "8"):
            wd = tmp_path / f"w{workers}"
            wd.mkdir()
            _write(wd, "cfg.yaml", {"seed": 4, "n_trials": 10,
                                    "output": "report.json"})
            proc = subprocess.run(
                [sys.executable, "-m", "sdetci.cli", "invariance", "cfg.yaml"],
                env=child_env(SDETCI_WORKERS=workers), capture_output=True,
                cwd=wd,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append((wd / "report.json").read_bytes())
        assert outs[0] == outs[1]
        a = json.loads(outs[0])
        b = json.loads(outs[1])
        assert a["sections"] == b["sections"]

    def test_same_config_same_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            f = _write(tmp_path, "c.yaml", {"seed": 4, "n_trials": 10,
                                            "output": str(out)})
            assert main(["invariance", f]) == 0
        ja = json.loads(out1.read_text())
        jb = json.loads(out2.read_text())
        assert ja["sections"] == jb["sections"]
