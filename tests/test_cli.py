import ast
import json
import math
import subprocess
import sys

import pytest
import yaml

from sdetci import cli, dini_benchmark_config, ou_singular_config, zvonkin
from sdetci import tci as tci_mod
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

    def test_refused_map_is_a_numerical_failure(self, tmp_path, capsys):
        # zvonkin reports no verdict: a map whose gradient bound reaches its
        # threshold is refused as a numerical failure, exit 3, never 1
        cfg = _write(tmp_path, "z.yaml", {
            "model": dini_benchmark_config(sup=3.0), "auto": False, "lam": 2.0,
            "grid_m": 33, "n_time": 16, "seed": 0,
        })
        assert main(["zvonkin", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: grad bound 1.4035 >= "
                                       "threshold 0.5000")

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
        ("invariance", {"seed": "s"}, "seed"),
        ("tci", {"x0": ["a"], "delta": 0.05}, "x0"),
        ("tci", {"delta": "small"}, "delta"),
        ("tci", {"delta": 0.05, "n_list": [10, "x"]}, "n_list"),
        ("tci", {"delta": 0.05, "n_list": []}, "n_list"),
        ("tci", {"shifts": ["big"]}, "shifts"),
        ("tci", {"seed": "s"}, "seed"),
        ("zvonkin", {"grid_m": "m"}, "grid_m"),
        ("zvonkin", {"auto": False}, "lam"),
        ("tci", {"shifts": []}, "shifts"),
        ("tci", {"shifts": [-0.1, 0.1]}, "shifts"),
        ("tci", {"shifts": [0.0, 0.1]}, "shifts"),
        ("tci", {"delta": 0.05, "n_list": [1, 100]}, "n_list"),
        ("tci", {"delta": 0.0}, "delta"),
        # without n_list the sweep runs n_paths paths: name the key given
        ("tci", {"delta": 0.05, "n_paths": 1}, "n_paths"),
        # a seed is a Philox key word in [0, 2**64), never wrapped
        ("validate", {"seed": -1}, "seed"),
        ("invariance", {"seed": -3}, "seed"),
        ("tci", {"seed": 2**64, "delta": 0.05}, "seed"),
        # open() would take an integer path as a file descriptor
        ("invariance", {"output": 2}, "output"),
        ("simulate", {"csv": 2}, "csv"),
        ("validate", {"output": ["r.json"]}, "output"),
        # a sweep without its exponent would silently not run
        ("tci", {"n_list": [100, 200]}, "n_list"),
        # the Zvonkin solvers refuse what would divide by zero, fail to
        # factor or never converge, and a box with no extent
        ("zvonkin", {"n_time": 0}, "n_time"),
        ("zvonkin", {"n_time": -3}, "n_time"),
        ("zvonkin", {"grid_R": 0}, "grid_R"),
        ("zvonkin", {"grid_R": -8}, "grid_R"),
        ("zvonkin", {"auto": False, "lam": 0}, "lam"),
        ("zvonkin", {"lam": -1}, "lam"),
        ("zvonkin", {"tol": 0}, "tol"),
        ("zvonkin", {"model": _ou_cfg(), "tol": 0}, "tol"),
        # without shifts nothing reads n_paths next to n_list or without delta
        ("tci", {"delta": 0.05, "n_list": [300, 600], "n_paths": "abc"}, "n_paths"),
        ("tci", {"delta": 0.05, "n_list": [300, 600], "n_paths": 1}, "n_paths"),
        ("tci", {"n_paths": 500}, "n_paths"),
        # only the Dini solver reads tol, n_time and auto; the elliptic
        # resolvent needs lam >= 0
        ("zvonkin", {"model": _ou_cfg(), "tol": 1e-8}, "tol"),
        ("zvonkin", {"model": _ou_cfg(), "n_time": 64}, "n_time"),
        ("zvonkin", {"model": _ou_cfg(), "auto": True}, "auto"),
        ("zvonkin", {"model": _ou_cfg(), "lam": -1}, "lam"),
        # a number must be finite: NaN and +-inf are refused at their key
        ("zvonkin", {"grid_R": math.inf}, "grid_R"),
        ("zvonkin", {"model": _ou_cfg(), "grid_R": math.inf}, "grid_R"),
        ("zvonkin", {"model": _ou_cfg(), "lam": math.inf}, "lam"),
        ("zvonkin", {"tol": math.inf}, "tol"),
        ("tci", {"delta": math.inf}, "delta"),
        ("tci", {"shifts": [math.inf]}, "shifts"),
        ("tci", {"x0": [math.nan], "shifts": [0.1]}, "x0"),
        ("validate", {"model": {**_ou_cfg(), "T": math.inf}}, "model.T"),
        # a model is refused where it is built, whichever command reads it
        ("zvonkin", {"model": {**_dini_cfg(), "modulus": {"family": "holdr"}}},
         "model.modulus.family"),
        ("simulate", {"model": {**_ou_cfg(), "tag": "dissipatve"}}, "model.tag"),
        # a file is refused before the run when its directory is missing
        ("invariance", {"output": "no/such/dir/r.json"}, "output"),
        ("simulate", {"csv": "no/such/dir/a.csv"}, "csv"),
    ])
    def test_out_of_range_value_is_config_error(self, tmp_path, capsys, command,
                                                cfg, key):
        if command == "zvonkin":
            cfg = {"model": _dini_cfg(), **cfg}
        elif command == "validate":
            cfg = {"model": _ou_cfg(), **cfg}
        elif command != "invariance":
            cfg = {"model": _ou_cfg(), "n_steps": 8, **cfg}
        f = _write(tmp_path, "bad.yaml", {"seed": 0, **cfg})
        assert main([command, f]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    @pytest.mark.parametrize("model, key", [
        ({**_ou_cfg(), "T": "abc"}, "model.T"),
        ({**_dini_cfg(), "modulus": {"family": "holder", "alhpa": 0.5}},
         "model.modulus.alhpa"),
        ({**_dini_cfg(), "modulus": {"family": "holder", "alpha": "abc"}},
         "model.modulus.alpha"),
        ({**_dini_cfg(), "b": {"family": "bounded_sin", "amplitude": [1, 2]}},
         "model.b.amplitude"),
        ({**_ou_cfg(), "sigma": {"family": "constant", "value": "abc"}},
         "model.sigma.value"),
        ({**_ou_cfg(), "d": 2.5}, "model.d"),
        ({**_ou_cfg(), "b2": {"family": "constant"}}, "model.b2.value"),
        ([1, 2], "model"),
        (None, "model"),  # no model key at all
        ({**_ou_cfg(), "kapa1": 1.0}, "model.kapa1"),
        # each coefficient family refuses a key it does not take
        ({**_ou_cfg(), "b1": {"family": "zero", "value": 1.0}}, "model.b1.value"),
        ({**_ou_cfg(), "b2": {"family": "constant", "value": [0.0], "vlaue": 1}},
         "model.b2.vlaue"),
        ({**_ou_cfg(), "b2": {"family": "linear", "matrix": [[-1.0]], "coef": 1}},
         "model.b2.coef"),
        ({**_ou_cfg(), "b2": {"family": "cubic_drag", "amplitude": 1}},
         "model.b2.amplitude"),
        ({**_dini_cfg(), "b": {"family": "bounded_sin", "amplitdue": 2.0}},
         "model.b.amplitdue"),
        ({**_dini_cfg(), "b": {"family": "log_square_bench", "sup": 1.0, "c": 1}},
         "model.b.c"),
        ({**_ou_cfg(), "b1": {"family": "radial_singularity", "gamma": 0.5,
                              "cutoff": 1}}, "model.b1.cutoff"),
        ({**_ou_cfg(), "sigma": {"family": "constant", "value": [[1.0]],
                                 "eps": 0.1}}, "model.sigma.eps"),
        ({**_ou_cfg(), "sigma": {"family": "sin_perturbed", "esp": 0.1}},
         "model.sigma.esp"),
        ({**_dini_cfg(), "modulus": {"family": "holdr"}}, "model.modulus.family"),
        ({**_dini_cfg(), "modulus": {"family": "holder", "alpha": 0}},
         "model.modulus.alpha"),
        ({**_ou_cfg(), "tag": "dissipatve"}, "model.tag"),
    ])
    def test_malformed_model_value_names_its_path(self, tmp_path, capsys, model,
                                                   key):
        cfg = {"seed": 0} if model is None else {"model": model, "seed": 0}
        assert main(["validate", _write(tmp_path, "bad.yaml", cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: ") and "Traceback" not in err

    @pytest.mark.parametrize("command, key", [
        ("validate", "n_grid"), ("validate", "radius"), ("validate", "tol"),
        ("zvonkin", "threshold"), ("tci", "thresholds"), ("invariance", "p"),
        ("invariance", "w_tol"), ("invariance", "h_tol"),
    ])
    def test_removed_key_is_unknown(self, tmp_path, capsys, command, key):
        # these keys set constants of the pipeline now; a config that still
        # names one is refused before anything runs or is written
        report = tmp_path / "r.json"
        cfg = {"seed": 0, "output": str(report), key: 1.0}
        if command != "invariance":
            cfg["model"] = _dini_cfg() if command == "zvonkin" else _ou_cfg()
        assert main([command, _write(tmp_path, "old.yaml", cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")
        assert not report.exists()

    @pytest.mark.parametrize("command, cfg, entry", [
        ("validate", {"model": _ou_cfg()}, (cli, "validate_model")),
        ("simulate", {"model": _ou_cfg()}, (cli, "simulate_ensemble")),
        ("zvonkin", {"model": _dini_cfg()}, (zvonkin, "solve_u_parabolic_auto")),
        ("zvonkin", {"model": _ou_cfg()}, (zvonkin, "solve_u_elliptic")),
        ("tci", {"model": _ou_cfg(), "delta": 0.05}, (tci_mod, "tail_sweep_and_t2")),
        ("invariance", {}, (tci_mod, "invariance_suite")),
    ])
    def test_unread_key_is_refused_before_the_run(self, tmp_path, capsys,
                                                   monkeypatch, command, cfg, entry):
        # every command reads its keys first; main refuses one that nothing
        # read before the command's pipeline is called or a report written
        def run(*args, **kwargs):
            raise AssertionError(f"{entry[1]} ran")

        monkeypatch.setattr(*entry, run)
        report = tmp_path / "r.json"
        cfg = {**cfg, "seed": 0, "output": str(report), "bogus": 1}
        assert main([command, _write(tmp_path, "c.yaml", cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error: bogus: ")
        assert not report.exists()

    @pytest.mark.parametrize("command, cfg, key", [
        ("zvonkin", {"model": _dini_cfg(), "auto": "false"}, "auto"),
        ("zvonkin", {"model": _dini_cfg(), "auto": 0}, "auto"),
        # a singular model never reads the switch and refuses it
        ("zvonkin", {"model": _ou_cfg(), "auto": "maybe"}, "auto"),
    ])
    def test_switch_must_be_a_boolean(self, tmp_path, capsys, command, cfg, key):
        # a quoted "false" is a true string: read as a switch it would run the search
        assert main([command, _write(tmp_path, "bad.yaml", {"seed": 0, **cfg})]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: ") and "Traceback" not in err

    def test_auto_false_takes_the_fixed_lambda(self, tmp_path, capsys):
        cfg = _write(tmp_path, "z.yaml", {
            "model": _dini_cfg(), "auto": False, "lam": 8.0, "grid_m": 33,
            "n_time": 8, "seed": 0,
        })
        assert main(["zvonkin", cfg]) == 0
        sections = json.loads(capsys.readouterr().out)["sections"]
        assert "auto_trace" not in sections
        assert sections["phi"]["lam"] == 8.0


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

    def test_simulate_csv_names_the_report(self, tmp_path, capsys):
        # the CSV opens with its report's config hash and seed; the hash
        # repeats for the same config and moves with a model constant
        out = tmp_path / "paths.csv"
        hashes = []
        for kappa1 in (1.0, 1.0, 0.5):
            cfg = _write(tmp_path, "s.yaml", {
                "model": {**_ou_cfg(), "kappa1": kappa1}, "seed": 3,
                "n_steps": 8, "n_paths": 2, "csv": str(out),
            })
            assert main(["simulate", cfg]) == 0
            meta = json.loads(capsys.readouterr().out)["meta"]
            with open(out) as fh:
                head = [next(fh), next(fh)]
            assert head == [f"# config_sha256={meta['config_sha256']}\n", "# seed=3\n"]
            hashes.append(meta["config_sha256"])
        assert hashes[0] == hashes[1] != hashes[2]

    def test_config_hash_ignores_output_paths(self, tmp_path):
        # where a run is written is not part of what it is
        hashes = []
        for name in ("a", "b"):
            report, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            cfg = _write(tmp_path, "s.yaml", {
                "model": _ou_cfg(), "seed": 3, "n_steps": 8, "n_paths": 2,
                "output": str(report), "csv": str(out),
            })
            assert main(["simulate", cfg]) == 0
            hashes.append(json.loads(report.read_text())["meta"]["config_sha256"])
            assert out.read_text().startswith(f"# config_sha256={hashes[-1]}\n")
        assert hashes[0] == hashes[1]

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
        # sigma = 2 with c0 = 4: thresholds scale with sigma_sup = |sigma| = 2
        model = ou_singular_config(kappa=1.0)
        model["sigma"]["value"] = [[2.0]]
        model["c0"] = 4.0
        cfg = _write(tmp_path, "t.yaml", {"model": model, "seed": 0})
        assert main(["tci", cfg]) == 0
        ts = json.loads(capsys.readouterr().out)["sections"]["thresholds"]
        assert ts["lambda_max"] == 0.125
        assert ts["delta_max"] == 0.015625

    def test_tci_thresholds_use_the_declared_sigma_matrix(self, tmp_path, capsys):
        # sigma = 0.5 needs c0 = 4 for the lower ellipticity bound, but the
        # thresholds take sigma_sup = |sigma| = 0.5, not sqrt(c0) = 2
        model = ou_singular_config(kappa=1.0)
        model["sigma"]["value"] = [[0.5]]
        model["c0"] = 4.0
        cfg = _write(tmp_path, "t.yaml", {"model": model, "seed": 0})
        assert main(["tci", cfg]) == 0
        ts = json.loads(capsys.readouterr().out)["sections"]["thresholds"]
        assert ts["lambda_max"] == 2.0
        assert ts["delta_max"] == 0.25

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


# Runs ``main`` on argv, then prints the scipy modules loaded by then.
_COLD_CHILD = """
import sys
from sdetci.cli import main
code = main(sys.argv[1:])
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
sys.exit(code)
"""


def _cold_run(tmp_path, child_env, command, cfg):
    """Exit code and scipy modules of ``command`` run in a fresh interpreter."""
    path = _write(tmp_path, "cold.yaml", {**cfg, "output": str(tmp_path / "r.json")})
    proc = subprocess.run([sys.executable, "-c", _COLD_CHILD, command, path],
                          env=child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


# scipy packages a Zvonkin solve must not import: SuperLU alone does the work
_NO_SPARSE = ("scipy.sparse", "scipy.sparse.linalg", "scipy.linalg")


class TestColdStart:
    """Each command from a fresh process: scipy loads only where it solves."""

    @pytest.mark.parametrize("command, cfg", [
        ("validate", {"model": _ou_cfg(), "seed": 1}),
        ("simulate", {"model": _ou_cfg(), "seed": 1, "n_steps": 16, "n_paths": 50}),
        ("tci", {"model": _ou_cfg(), "seed": 0, "n_steps": 16, "delta": 0.05,
                 "n_list": [300, 600], "shifts": [0.1], "n_paths": 300}),
    ], ids=["validate", "simulate", "tci"])
    def test_numpy_only_commands_load_no_scipy(self, tmp_path, child_env, command,
                                               cfg):
        assert _cold_run(tmp_path, child_env, command, cfg) == "[]"

    @pytest.mark.parametrize("command, cfg, backend, absent", [
        ("zvonkin", {"model": dini_benchmark_config(), "grid_m": 65, "n_time": 16},
         "scipy.sparse.linalg._dsolve._superlu", _NO_SPARSE),
        ("zvonkin", {"model": ou_singular_config(d=2), "grid_R": 4.0, "grid_m": 17},
         "scipy.sparse.linalg._dsolve._superlu", _NO_SPARSE),
        ("invariance", {"seed": 1, "n_trials": 10}, "scipy.optimize._highspy._core",
         ("scipy.optimize", "scipy.sparse")),
    ], ids=["zvonkin-dini", "zvonkin-singular-2d", "invariance"])
    def test_solvers_load_their_backend(self, tmp_path, child_env, command, cfg,
                                        backend, absent):
        # the HiGHS core and SuperLU load from their files alone: no package
        # import of scipy.optimize or scipy.sparse.linalg, and the LP's
        # constraints and the Zvonkin operators are plain CSC arrays
        loaded = ast.literal_eval(_cold_run(tmp_path, child_env, command, cfg))
        assert backend in loaded
        assert set(absent).isdisjoint(loaded)

    def test_assignment_loads_its_solver_alone(self, child_env):
        code = ("import sys\n"
                "from sdetci import EmpiricalMeasure, exact_wp\n"
                "exact_wp(EmpiricalMeasure.uniform([[0.0], [1.0], [3.0]]),\n"
                "         EmpiricalMeasure.uniform([[0.5], [2.0], [2.5]]))\n"
                "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n")
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert ast.literal_eval(proc.stdout) == ["scipy.optimize._lsap"]

    def test_core_loaded_alone_matches_scipy_linprog(self, child_env):
        # the core loaded first from its file is the one scipy.optimize then
        # imports, and one LP through either path returns the same bits
        proc = subprocess.run([sys.executable, "-c", _ALONE_THEN_SCIPY], env=child_env(),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["alone", "same"]


# Solves one LP with the HiGHS core loaded alone, then imports scipy.optimize
# and solves it again with scipy's linprog; asserts the bits agree.
_ALONE_THEN_SCIPY = """
import sys
import numpy as np
from sdetci import transport
rng = np.random.default_rng(11)
cost, mu_w, nu_w = rng.random((3, 4)), rng.random(3), rng.random(4)
b_eq = np.concatenate([mu_w / mu_w.sum(), nu_w / nu_w.sum()])
A_eq = transport._block_incidence([(3, 4)])
fun, x, duals = transport.linprog(cost.ravel(), A_eq=A_eq, b_eq=b_eq)
assert "scipy.optimize" not in sys.modules and "scipy.sparse" not in sys.modules
print("alone")
core = sys.modules["scipy.optimize._highspy._core"]
from scipy import sparse
from scipy.optimize import linprog
assert sys.modules["scipy.optimize._highspy._core"] is core
res = linprog(cost.ravel(), A_eq=sparse.csc_matrix(A_eq[:3], shape=A_eq.shape), b_eq=b_eq,
              bounds=(0, None), method="highs",
              options={"dual_feasibility_tolerance": transport.LP_DUAL_FEASIBILITY_TOL})
assert res.success
assert np.array_equal(fun, res.fun)
assert np.array_equal(x, res.x)
assert np.array_equal(duals, res.eqlin.marginals)
print("same")
"""

# Imports scipy.optimize, so that transport finds its HiGHS core loaded by
# the package, then runs ``main`` on argv.
_SCIPY_FIRST_CHILD = """
import sys
import scipy.optimize
from sdetci.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestDeterminism:
    def test_output_bytes_identical_with_scipy_optimize_preloaded(self, tmp_path,
                                                                  child_env):
        # one config with a relative output, run in two fresh processes from
        # separate directories: one loads the HiGHS core alone, the other
        # imports scipy.optimize first and so uses the package's core
        outs = []
        for name, lead in (("alone", ["-m", "sdetci.cli"]),
                           ("package", ["-c", _SCIPY_FIRST_CHILD])):
            wd = tmp_path / name
            wd.mkdir()
            _write(wd, "cfg.yaml", {"seed": 4, "n_trials": 10,
                                    "output": "report.json"})
            proc = subprocess.run(
                [sys.executable, *lead, "invariance", "cfg.yaml"],
                env=child_env(), capture_output=True, cwd=wd,
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
