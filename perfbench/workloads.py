"""The three benchmark workloads: inputs from a seed, one pass, output checks.

Each workload is a closed loop: one client runs passes one after another in
one process.  Calls go through module attributes (``zvonkin.solve_u_...``)
so that the traced run sees them.  Output checks use the pinned tolerances
of ``tests/test_acceptance.py``.

* ``tail_sweep`` runs ``sdetci tci`` on the OU model: many cheap paths,
  streaming reducers and RNG construction dominate (``simulate``).
* ``transform`` runs the paper's chain through the Python API: building
  ``Phi`` in 1-D and 2-D, pathwise consistency of ``Phi(X)`` against ``Y``
  with few paths and costly coefficients, and one large exact transport LP
  bracketed by Sinkhorn (``zvonkin``, ``transport``).
* ``invariance`` runs ``sdetci invariance``: thousands of LPs with 2 to 7
  atoms, where per-call assembly and Python overhead dominate.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

import sdetci.cli as cli
import sdetci.models as models
import sdetci.simulate as simulate
import sdetci.transport as transport
import sdetci.zvonkin as zvonkin


def program_seed(workload, seed, part):
    """Seed handed to the program, derived from the benchmark seed."""
    return random.Random(f"{workload}/{part}/{seed}").randrange(1, 2**31 - 1)


def _write_config(path, cfg):
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def _read_report(path):
    """Sections of a CLI report; the file is removed so no pass sees a stale one."""
    path = Path(path)
    try:
        sections = json.loads(path.read_text())["sections"]
    except (OSError, ValueError, KeyError):
        return None
    path.unlink()
    return sections


# ---------------------------------------------------------------------------
# tail_sweep
# ---------------------------------------------------------------------------

TAIL_SHIFTS = [0.1, 0.2, 0.4]


def setup_tail_sweep(seed, out_dir):
    model_cfg = models.ou_singular_config(kappa=1.0, d=1, T=1.0)
    model = models.model_from_config(model_cfg)
    if not models.validate_model(model).passed:
        raise RuntimeError("tail_sweep model fails validation")
    report = out_dir / "tail_sweep_report.json"
    cfg = {
        "model": model_cfg,
        "seed": program_seed("tail_sweep", seed, "tci"),
        "n_steps": 256,
        "delta": 0.05,
        "n_list": [10000, 40000],
        "shifts": TAIL_SHIFTS,
        "n_paths": 8192,
        "output": str(report),
    }
    return {"config": _write_config(out_dir / "tail_sweep.yaml", cfg),
            "report": report, "model_cfg": model_cfg}


def run_tail_sweep(state):
    return cli.main(["tci", state["config"]])


def expected_lambda_max(model_cfg):
    """Dissipative threshold 2^{-(r-1)^-} kappa1^2 / sigma^2, sigma from the config.

    With the unit diffusion of this workload the CLI's hard-coded
    ``sigma_sup = 1`` gives the same number, so this check cannot expose
    a threshold that ignores sigma.
    """
    sigma = np.asarray(model_cfg["sigma"]["value"], dtype=float)
    sigma_sup = float(np.linalg.norm(np.atleast_2d(sigma), 2))
    r = float(model_cfg["r"])
    return 2.0 ** -max(0.0, 1.0 - r) * float(model_cfg["kappa1"]) ** 2 / sigma_sup**2


def check_tail_sweep(state, rc):
    sec = _read_report(state["report"])
    if sec is None:
        return {"cli_exit_zero": rc == 0}
    out = {
        "cli_exit_zero": rc == 0,
        "sweep_stable": bool(sec["gaussian_tail"]["stable"]),
        "t2_ratio_spread_le_1.1": sec["t2"]["ratio_spread"] <= 1.1,
        "lambda_max_from_config_sigma": math.isclose(
            sec["thresholds"]["lambda_max"], expected_lambda_max(state["model_cfg"]),
            rel_tol=1e-12),
    }
    for row in sec["t2"]["rows"]:
        exact = 0.5 * row["shift"] ** 2  # h^2 T / 2 with T = 1
        out[f"t2_entropy_within_10pct_h{row['shift']}"] = (
            abs(row["entropy"] / exact - 1.0) <= 0.1)
    return out


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------

DINI_TOL = 1e-9
ELLIPTIC_LAM = 8.0
PATHWISE_LAM, PATHWISE_A = 2.0, 0.05
ENSEMBLE_SHIFT = 0.5


def _exact_transform_model():
    """Acceptance 04: B = -x with b chosen so Phi = id + a sin is exact."""
    a, lam = PATHWISE_A, PATHWISE_LAM

    def b(t, x):
        return (lam * a * np.sin(x) + 0.5 * a * np.sin(x)
                + x * a * np.cos(x)) / (1.0 + a * np.cos(x))

    def sigma(t, x):
        return np.broadcast_to(np.eye(1), (len(x), 1, 1)).copy()

    model = models.DiniModelSpec(
        d=1, T=1.0, B=lambda t, x: -x, b=b, sigma=sigma,
        modulus=models.ModulusSpec("lipschitz", L=3.0), b_sup=3.0,
        bounds={"grad_B": 1.0, "sigma": 1.0, "grad_sigma": 0.0,
                "grad2_sigma": 0.0, "inv_a": 1.0},
    )
    sg = zvonkin.SpaceGrid(10.0, 4097, 1)
    u = zvonkin.GridFunction(sg, (a * np.sin(sg.axes[0]))[:, None])
    return model, zvonkin.Homeomorphism(u, u.grad_bound(), lam, 0.5)


def _ensemble_shift(t, x):
    return np.full_like(x, ENSEMBLE_SHIFT)


def setup_transform(seed, out_dir):
    dini = models.model_from_config(models.dini_benchmark_config(sup=1.0))
    sing_cfg = models.ou_singular_config(kappa=1.0, d=2, T=1.0)
    sing_cfg["b1"] = {"family": "radial_singularity", "c": 0.5, "gamma": 0.25}
    sing = models.model_from_config(sing_cfg)
    ou = models.model_from_config(models.ou_singular_config(kappa=1.0))
    for model in (dini, sing, ou):
        if not models.validate_model(model).passed:
            raise RuntimeError("transform model fails validation")
    exact_model, exact_phi = _exact_transform_model()
    return {
        "dini": dini, "sing": sing, "ou": ou,
        "exact_model": exact_model, "exact_phi": exact_phi,
        "tilde_seed": program_seed("transform", seed, "tilde"),
        "pathwise_seed": program_seed("transform", seed, "pathwise"),
        "ensemble_seed": program_seed("transform", seed, "ensemble"),
    }


def run_transform(state):
    out = {}
    # Phi for the Dini benchmark, checked by one more application of the map
    phi, history, _ = zvonkin.solve_u_parabolic_auto(
        state["dini"], zvonkin.SpaceGrid(8.0, 257, 1), n_time=64, tol=DINI_TOL)
    out["picard_ratios"] = [r for _, r in history if r is not None]
    out["residual"] = zvonkin.apply_parabolic_map(state["dini"], phi.lam, phi.u)
    out["dini_grad"] = phi.grad_bound

    # Phi for the 2-D singular model and the fitted constants of its image
    u2 = zvonkin.solve_u_elliptic(state["sing"], ELLIPTIC_LAM,
                                  zvonkin.SpaceGrid(4.0, 81, 2))
    phi2 = zvonkin.build_phi(u2, lam=ELLIPTIC_LAM,
                             threshold=zvonkin.SINGULAR_GRAD_THRESHOLD)
    out["elliptic_grad"] = phi2.grad_bound
    out["tilde"] = zvonkin.verify_tilde_conditions(
        zvonkin.TransformedModel(phi2, state["sing"], ELLIPTIC_LAM),
        seed=state["tilde_seed"])

    # Phi(X) against Y under shared noise on refining meshes
    res = zvonkin.pathwise_consistency(
        state["exact_model"], state["exact_phi"], PATHWISE_LAM, [0.3],
        [128, 256, 512], seed=state["pathwise_seed"], n_paths=512)
    out["pathwise_errors"] = [e for _, e in res["rows"]]

    # exact W2 in the sup metric between two path ensembles, Sinkhorn bracket
    grid = simulate.TimeGrid(1.0, 64)
    s = state["ensemble_seed"]
    xs = simulate.simulate_ensemble(state["ou"], [0.0], grid, s, 256)
    ys = simulate.simulate_ensemble(
        simulate.with_drift_shift(state["ou"], _ensemble_shift), [0.0], grid, s,
        256, path_id0=256)
    cost = transport.path_sup_cost(xs.states, ys.states)
    mu = transport.EmpiricalMeasure.uniform(xs.states)
    nu = transport.EmpiricalMeasure.uniform(ys.states)
    out["w"], out["plan"] = transport.exact_wp(mu, nu, 2.0, metric=cost)
    out["bracket"] = transport.sinkhorn_wp(mu, nu, 2.0, eps=0.1, iters=1000,
                                           metric=cost)
    out["measures"] = (mu, nu)
    return out


def check_transform(state, out):
    errs = out["pathwise_errors"]
    br = out["bracket"]
    return {
        "picard_ratios_below_1": max(out["picard_ratios"]) < 1.0,
        "residual_le_2tol": out["residual"] <= 2 * DINI_TOL,
        "dini_grad_below_threshold": out["dini_grad"] < zvonkin.DINI_GRAD_THRESHOLD,
        "elliptic_grad_below_threshold":
            out["elliptic_grad"] < zvonkin.SINGULAR_GRAD_THRESHOLD,
        "tilde_kappa1_positive": out["tilde"]["kappa1"] > 0,
        "pathwise_errors_decreasing": all(a > b for a, b in zip(errs, errs[1:])),
        "exact_w_in_sinkhorn_bracket": br.lower <= out["w"] <= br.upper,
        "plan_marginals_1e-9": out["plan"].check(*out["measures"], tol=1e-9),
    }


# ---------------------------------------------------------------------------
# invariance
# ---------------------------------------------------------------------------


def setup_invariance(seed, out_dir):
    report = out_dir / "invariance_report.json"
    cfg = {
        "seed": program_seed("invariance", seed, "suite"),
        "n_trials": 200,
        "output": str(report),
    }
    return {"config": _write_config(out_dir / "invariance.yaml", cfg),
            "report": report}


def run_invariance(state):
    return cli.main(["invariance", state["config"]])


def check_invariance(state, rc):
    sec = _read_report(state["report"])
    if sec is None:
        return {"cli_exit_zero": rc == 0}
    res = sec["invariance"]
    return {
        "cli_exit_zero": rc == 0,
        "suite_passed": bool(res["passed"]),
        "worst_w_error_le_1e-10": res["worst_w_identity_error"] <= 1e-10,
        "worst_entropy_error_le_1e-12": res["worst_entropy_error"] <= 1e-12,
    }


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # (seed, out_dir) -> state
    run: Callable  # state -> outputs
    check: Callable  # (state, outputs) -> {check name: passed}
    n_checks: int  # checks per pass; all fail when the pass raises


WORKLOADS = {
    w.name: w for w in (
        Workload("tail_sweep", setup_tail_sweep, run_tail_sweep,
                 check_tail_sweep, 4 + len(TAIL_SHIFTS)),
        Workload("transform", setup_transform, run_transform,
                 check_transform, 8),
        Workload("invariance", setup_invariance, run_invariance,
                 check_invariance, 4),
    )
}


def run_checks(workload, state, outputs, raised):
    """``{check: passed}`` with exactly ``workload.n_checks`` entries.

    A pass that raised fails every check; a report that is missing fails
    the checks it would have fed.
    """
    got = {} if raised else workload.check(state, outputs)
    if len(got) < workload.n_checks:
        got.update({f"missing_{i}": False
                    for i in range(workload.n_checks - len(got))})
    return got
