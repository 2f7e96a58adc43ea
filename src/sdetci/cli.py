"""Command-line front end.

Subcommands: validate, simulate, zvonkin, tci, invariance.  Each reads a
YAML config, runs the corresponding pipeline and writes a deterministic JSON
report (sorted keys, no timestamps) tagged with the config hash and seed.
Exit codes: 0 success, 1 a check failed, 2 usage/config error (also a value
out of range, such as ``n_paths: 0``, or not a number, such as
``n_paths: abc``), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np
import yaml

from . import tci as tci_mod
from . import zvonkin
from .errors import ConfigError, SdetciError
from .models import model_from_config, validate_model
from .simulate import TimeGrid, ensemble_to_csv, simulate_ensemble
from .tci import TCIReport

_COMMON_KEYS = {"model", "seed", "output"}
_SCHEMAS = {
    "validate": _COMMON_KEYS | {"n_grid", "radius", "tol"},
    "simulate": _COMMON_KEYS | {"x0", "n_steps", "n_paths", "scheme", "csv"},
    "zvonkin": _COMMON_KEYS | {"lam", "grid_R", "grid_m", "n_time", "tol",
                               "threshold", "auto"},
    "tci": _COMMON_KEYS | {"x0", "n_steps", "n_paths", "delta", "n_list",
                           "shifts", "thresholds"},
    "invariance": {"seed", "output", "n_trials", "p", "w_tol", "h_tol"},
}


def _load_config(path, command):
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except OSError as e:
        raise ConfigError(str(e))
    except yaml.YAMLError as e:
        raise ConfigError(f"not valid YAML: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    allowed = _SCHEMAS[command]
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r}", key)
    return cfg


def _config_hash(cfg):
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()
    ).hexdigest()[:16]


def _value(cfg, key, default, convert=float):
    """``convert(cfg.get(key, default))``; a value it rejects is a config error."""
    value = cfg.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"cannot read {value!r}: {e}", key) from None


def _point(value):
    return np.atleast_1d(np.asarray(value, dtype=float))


def _ints(value):
    return [int(v) for v in value]


def _floats(value):
    return [float(v) for v in value]


def _meta(cfg):
    return {
        "config_sha256": _config_hash(cfg),
        "seed": _value(cfg, "seed", 0, int),
    }


def _emit(report, cfg):
    out = cfg.get("output")
    if out:
        report.save_json(out)
    else:
        sys.stdout.write(report.to_json() + "\n")


def _path_setup(cfg):
    """Model, time grid and start point ``x0`` of a path-space command."""
    model = model_from_config(cfg["model"])
    x0 = _value(cfg, "x0", [0.0] * model.d, _point)
    if x0.shape != (model.d,):
        raise ConfigError(f"need {model.d} coordinates, got shape {x0.shape}", "x0")
    return model, TimeGrid(model.T, _value(cfg, "n_steps", 256, int)), x0


def _cmd_validate(cfg):
    model = model_from_config(cfg["model"])
    rep = validate_model(
        model,
        n_grid=_value(cfg, "n_grid", 512, int),
        radius=_value(cfg, "radius", 5.0),
        tol=_value(cfg, "tol", 1e-7),
        seed=_value(cfg, "seed", 0, int),
    )
    report = TCIReport(meta=_meta(cfg))
    report.add("validation", rep.as_dict())
    _emit(report, cfg)
    return 0 if rep.passed else 1


def _cmd_simulate(cfg):
    model, grid, x0 = _path_setup(cfg)
    ens = simulate_ensemble(
        model, x0, grid, _value(cfg, "seed", 0, int),
        _value(cfg, "n_paths", 128, int), cfg.get("scheme", "em"),
    )
    if cfg.get("csv"):
        ensemble_to_csv(ens, cfg["csv"])
    report = TCIReport(meta=_meta(cfg))
    report.add("simulate", {
        "n_paths": len(ens),
        "n_steps": grid.n_steps,
        "scheme": ens.scheme,
        "terminal_mean": ens.states[:, -1].mean(axis=0).tolist(),
        "terminal_second_moment": float((ens.states[:, -1] ** 2).sum(axis=1).mean()),
    })
    _emit(report, cfg)
    return 0


def _cmd_zvonkin(cfg):
    model = model_from_config(cfg["model"])
    sgrid = zvonkin.SpaceGrid(
        _value(cfg, "grid_R", 8.0), _value(cfg, "grid_m", 257, int), model.d
    )
    tol = _value(cfg, "tol", 1e-8)
    report = TCIReport(meta=_meta(cfg))
    if model.kind == "dini":
        n_time = _value(cfg, "n_time", 64, int)
        if cfg.get("auto", True):
            phi, history, trace = zvonkin.solve_u_parabolic_auto(
                model, sgrid, n_time=n_time, tol=tol,
                lam0=_value(cfg, "lam", 8.0),
                threshold=_value(cfg, "threshold", zvonkin.DINI_GRAD_THRESHOLD),
            )
            report.add("auto_trace", [
                {"lam": t[0], "status": t[1], "grad_bound": t[2]} for t in trace
            ])
        else:
            lam = _value(cfg, "lam", None)
            u, history = zvonkin.solve_u_parabolic(model, lam, sgrid,
                                                   n_time=n_time, tol=tol)
            phi = zvonkin.build_phi(
                u, lam=lam,
                threshold=_value(cfg, "threshold", zvonkin.DINI_GRAD_THRESHOLD),
            )
        report.add("picard", {
            "iterations": len(history),
            "final_change": history[-1][0],
            "ratios": [r for _, r in history if r is not None],
        })
    else:
        lam = _value(cfg, "lam", 8.0)
        u = zvonkin.solve_u_elliptic(model, lam, sgrid, tol=tol)
        phi = zvonkin.build_phi(
            u, lam=lam,
            threshold=_value(cfg, "threshold", zvonkin.SINGULAR_GRAD_THRESHOLD),
        )
    report.add("phi", {
        "lam": phi.lam,
        "grad_bound": phi.grad_bound,
        "u_sup": phi.u.sup_norm(),
        "threshold": phi.threshold,
    })
    _emit(report, cfg)
    return 0


def _cmd_tci(cfg):
    model, grid, x0 = _path_setup(cfg)
    seed = _value(cfg, "seed", 0, int)
    report = TCIReport(meta=_meta(cfg))
    failed = False
    if cfg.get("thresholds", True) and model.kind == "singular":
        kappas = dict(r=model.r, kappa1=model.kappa1, kappa3=model.kappa3,
                      kappa4=model.kappa4)
        # the declared ellipticity bound sigma sigma* <= c0 gives
        # sigma_sup = sqrt(c0); a model whose sampled sigma breaks it is refused
        rep = validate_model(model)
        if rep.margin("ellipticity_upper") < -rep.tol:
            raise ConfigError(
                f"sigma sigma* exceeds c0 = {model.c0}; raise c0 to bound sigma",
                "model.c0",
            )
        ts = tci_mod.threshold_set(model.tag, math.sqrt(model.c0), model.T,
                                   **kappas)
        report.add("thresholds", {
            "tag": ts.tag, "lambda_max": ts.lambda_max,
            "lambda_strict": ts.lambda_strict, "delta_max": ts.delta_max,
        })
    if "delta" in cfg:
        delta = _value(cfg, "delta", None)
        n_list = _value(cfg, "n_list", [_value(cfg, "n_paths", 10000, int)], _ints)
        sweep = tci_mod.gaussian_tail_sweep(model, x0, grid, delta, n_list, seed)
        report.add("gaussian_tail", sweep)
        failed = failed or not sweep["stable"]
        report.add("t1", {
            "delta": delta,
            "transformed_constant": tci_mod.t1_constant(delta),
            "original_constant": tci_mod.t1_constant(delta, original_space=True),
        })
    if "shifts" in cfg:
        res = tci_mod.t2_check(
            model, x0, grid, _value(cfg, "shifts", None, _floats),
            _value(cfg, "n_paths", 4096, int), seed,
        )
        report.add("t2", res)
    _emit(report, cfg)
    return 1 if failed else 0


def _cmd_invariance(cfg):
    res = tci_mod.invariance_suite(
        n_trials=_value(cfg, "n_trials", 1000, int),
        seed=_value(cfg, "seed", 0, int),
        p=_value(cfg, "p", 2.0),
        w_tol=_value(cfg, "w_tol", 1e-10),
        h_tol=_value(cfg, "h_tol", 1e-12),
    )
    report = TCIReport(meta=_meta(cfg))
    report.add("invariance", res)
    _emit(report, cfg)
    return 0 if res["passed"] else 1


_COMMANDS = {
    "validate": _cmd_validate,
    "simulate": _cmd_simulate,
    "zvonkin": _cmd_zvonkin,
    "tci": _cmd_tci,
    "invariance": _cmd_invariance,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sdetci",
        description="SDE regularization and transport-entropy checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="YAML config file")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config, args.command)
        return _COMMANDS[args.command](cfg)
    except ConfigError as e:
        sys.stderr.write(f"config error: {e}\n")
        return 2
    except SdetciError as e:
        sys.stderr.write(f"numerical failure: {e}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
