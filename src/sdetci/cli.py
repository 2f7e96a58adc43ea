"""Command-line front end.

Subcommands: validate, simulate, zvonkin, tci, invariance.  Each reads a
YAML config, runs the corresponding pipeline and writes a deterministic JSON
report (sorted keys, no timestamps) tagged with the config hash and seed.
A command is a generator: it reads its keys and yields, ``main`` refuses a
key that nothing read, and the command then runs, adds its sections to the
run's one report and yields whether its checks passed; ``main`` writes the
report once.  Exit codes: 0 success, 1 a check failed, 2 usage/config error
(also a key nothing reads, such as ``n_list`` without ``delta``, a value out
of range, such as ``n_paths: 0``, ``seed: -1``, ``grid_R: 0`` or
``lam: .inf``, not a number, such as ``n_paths: abc``, not an integer, such
as ``model: {d: 2.5}``, not a boolean, such as ``auto: "false"``, or an
``output`` or ``csv`` path that is not a string, such as ``output: 2``, or
whose directory does not exist), 3
numerical failure, such as a map that ``zvonkin`` refuses: ``zvonkin``
reports no verdict, so it never exits 1.  Every key is read through
``models.config_value``, which records the read.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np
import yaml

from . import tci as tci_mod
from . import zvonkin
from .errors import ConfigError, SdetciError
from .models import (RecordedConfig, boolean, config_value, floats, integer,
                     model_from_config, validate_model)
from .simulate import TimeGrid, ensemble_to_csv, simulate_ensemble
from .tci import TCIReport


def _load_config(path):
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except OSError as e:
        raise ConfigError(str(e))
    except yaml.YAMLError as e:
        raise ConfigError(f"not valid YAML: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    cfg = RecordedConfig(cfg)
    config_value(cfg, "output", "", _path)
    return cfg


def _path(value):
    """A file path in a directory that exists, or "" for none; ``open`` would
    take an integer as a file descriptor."""
    if not isinstance(value, str):
        raise ConfigError(f"need a path string, got {value!r}")
    folder = os.path.dirname(value)
    if folder and not os.path.isdir(folder):
        raise ConfigError(f"no directory {folder!r}")
    return value


def _seed(value):
    """A Philox key word, an integer in [0, 2**64)."""
    seed = integer(value)
    if not 0 <= seed < 1 << 64:
        raise ConfigError(f"need 0 <= seed < 2**64, got {seed}")
    return seed


def _meta(cfg):
    """The run's identity: the hash of its config without the ``output`` and
    ``csv`` paths, which name where a report goes, not what it holds."""
    run = {k: v for k, v in cfg.items() if k not in ("output", "csv")}
    digest = hashlib.sha256(json.dumps(run, sort_keys=True).encode()).hexdigest()
    return {"config_sha256": digest[:16], "seed": config_value(cfg, "seed", 0, _seed)}


def _emit(report, cfg):
    out = cfg.get("output")
    if out:
        report.save_json(out)
    else:
        sys.stdout.write(report.to_json() + "\n")


def _path_setup(cfg):
    """Model, time grid and start point ``x0`` of a path-space command."""
    model = config_value(cfg, "model", None, model_from_config)
    x0 = config_value(cfg, "x0", [0.0] * model.d,
                      lambda v: np.atleast_1d(np.asarray(v, dtype=float)))
    if x0.shape != (model.d,) or not np.isfinite(x0).all():
        raise ConfigError(f"need {model.d} finite coordinates, got {x0.tolist()}", "x0")
    return model, TimeGrid(model.T, config_value(cfg, "n_steps", 256, integer)), x0


def _cmd_validate(cfg, report):
    model = config_value(cfg, "model", None, model_from_config)
    yield
    rep = validate_model(model, seed=report.meta["seed"])
    report.add("validation", rep.as_dict())
    yield rep.passed


def _cmd_simulate(cfg, report):
    model, grid, x0 = _path_setup(cfg)
    n_paths = config_value(cfg, "n_paths", 128, integer)
    scheme = config_value(cfg, "scheme", "em", str)
    csv = config_value(cfg, "csv", "", _path)
    yield
    ens = simulate_ensemble(model, x0, grid, report.meta["seed"], n_paths, scheme)
    if csv:
        ensemble_to_csv(ens, csv, report.meta)
    report.add("simulate", {
        "n_paths": len(ens),
        "n_steps": grid.n_steps,
        "scheme": ens.scheme,
        "terminal_mean": ens.states[:, -1].mean(axis=0).tolist(),
        "terminal_second_moment": float((ens.states[:, -1] ** 2).sum(axis=1).mean()),
    })
    yield True


def _cmd_zvonkin(cfg, report):
    model = config_value(cfg, "model", None, model_from_config)
    sgrid = zvonkin.SpaceGrid(
        config_value(cfg, "grid_R", 8.0), config_value(cfg, "grid_m", 257, integer),
        model.d,
    )
    if model.kind == "dini":
        tol = config_value(cfg, "tol", 1e-8)
        n_time = config_value(cfg, "n_time", 64, integer)
        auto = config_value(cfg, "auto", True, boolean)
        lam = config_value(cfg, "lam", 8.0 if auto else None)
        yield
        if auto:
            phi, history, trace = zvonkin.solve_u_parabolic_auto(
                model, sgrid, n_time=n_time, tol=tol, lam0=lam,
            )
            report.add("auto_trace", [
                {"lam": t[0], "status": t[1], "grad_bound": t[2]} for t in trace
            ])
        else:
            u, history = zvonkin.solve_u_parabolic(model, lam, sgrid,
                                                   n_time=n_time, tol=tol)
            phi = zvonkin.build_phi(u, lam=lam)
        report.add("picard", {
            "iterations": len(history),
            "final_change": history[-1][0],
            "ratios": [r for _, r in history if r is not None],
        })
    else:
        lam = config_value(cfg, "lam", 8.0)
        yield
        u = zvonkin.solve_u_elliptic(model, lam, sgrid)
        phi = zvonkin.build_phi(u, lam=lam,
                                threshold=zvonkin.SINGULAR_GRAD_THRESHOLD)
    report.add("phi", {
        "lam": phi.lam,
        "grad_bound": phi.grad_bound,
        "u_sup": phi.u.sup_norm(),
        "threshold": phi.threshold,
    })
    yield True


def _cmd_tci(cfg, report):
    model, grid, x0 = _path_setup(cfg)
    delta = n_list = shifts = n_paths = None
    if "delta" in cfg:
        delta = config_value(cfg, "delta", None)
        if "n_list" in cfg:
            n_list = config_value(cfg, "n_list", None,
                                  lambda v: [integer(n) for n in v])
        else:  # one sample size, refused under the key the config holds
            n_list = [config_value(cfg, "n_paths", 10000, integer)]
            if n_list[0] < 2:
                raise ConfigError(f"need n_paths >= 2, got {n_list[0]}", "n_paths")
    if "shifts" in cfg:
        shifts = config_value(cfg, "shifts", None, floats)
        n_paths = config_value(cfg, "n_paths", 4096, integer)
    yield
    if model.kind == "singular":
        # sigma_sup bounds |sigma(x)|: the spectral norm of a declared
        # matrix, else sqrt(c0) from sigma sigma* <= c0; a model whose
        # sampled sigma breaks that bound is refused
        rep = validate_model(model)
        if rep.margin("ellipticity_upper") < -rep.tol:
            raise ConfigError(
                f"sigma sigma* exceeds c0 = {model.c0}; raise c0 to bound sigma",
                "model.c0",
            )
        matrix = getattr(model.sigma, "matrix", None)
        sigma_sup = (math.sqrt(model.c0) if matrix is None
                     else float(np.linalg.norm(matrix, 2)))
        ts = tci_mod.threshold_set(model.tag, sigma_sup, model.T,
                                   r=model.r, kappa1=model.kappa1,
                                   kappa3=model.kappa3, kappa4=model.kappa4)
        report.add("thresholds", {
            "tag": ts.tag, "lambda_max": ts.lambda_max,
            "lambda_strict": ts.lambda_strict, "delta_max": ts.delta_max,
        })
    sweep, t2 = tci_mod.tail_sweep_and_t2(model, x0, grid, delta, n_list,
                                          shifts, n_paths, report.meta["seed"])
    if sweep is not None:
        report.add("gaussian_tail", sweep)
        report.add("t1", {
            "delta": delta,
            "transformed_constant": tci_mod.t1_constant(delta),
            "original_constant": tci_mod.t1_constant(delta, original_space=True),
        })
    if t2 is not None:
        report.add("t2", t2)
    yield sweep is None or sweep["stable"]


def _cmd_invariance(cfg, report):
    n_trials = config_value(cfg, "n_trials", 1000, integer)
    yield
    res = tci_mod.invariance_suite(n_trials=n_trials, seed=report.meta["seed"])
    report.add("invariance", res)
    yield res["passed"]


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
        cfg = _load_config(args.config)
        report = TCIReport(meta=_meta(cfg))
        steps = _COMMANDS[args.command](cfg, report)
        next(steps)  # the command has read its keys and runs nothing yet
        cfg.refuse_unread()
        passed = next(steps)
        _emit(report, cfg)
        return 0 if passed else 1
    except ConfigError as e:
        sys.stderr.write(f"config error: {e}\n")
        return 2
    except SdetciError as e:
        sys.stderr.write(f"numerical failure: {e}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
