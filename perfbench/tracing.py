"""Spans around calls into each sdetci module, and the per-layer metrics.

The program under test is not edited.  ``Instrumentation`` replaces names
where they are looked up: module-level functions in every ``sdetci`` module
that binds them (``tci`` binds ``ensemble_reduce`` and ``exact_wp`` at
import, ``cli`` binds ``model_from_config``), methods on their class, and
the two third-party entry points that separate assembly from solving
(``transport.linprog`` and ``zvonkin.splu``).  ``restore`` puts every
original object back.

A span records a name, a start, an end and its parent.  Spans stay in
memory; the caller writes them out once at the end of a run.  The module
of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import sdetci.cli
import sdetci.models
import sdetci.simulate
import sdetci.tci
import sdetci.transport
import sdetci.zvonkin

ROOT_PASS = "bench.pass"
ROOT_SETUP = "bench.setup"


@dataclass
class PassTrace:
    """Spans and counters of one pass (or of the set-up phase)."""

    names: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    ends: list = field(default_factory=list)
    parents: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(float))
    # (path key, first path id, end path id) per simulated block
    paths: list = field(default_factory=list)
    peak_alloc: int = 0


class Tracer:
    """Collects spans and counters until ``take`` hands them over."""

    def __init__(self):
        self.current = PassTrace()
        self.track_alloc = False
        self._stack = []
        self._sim_depth = 0
        self._shifted = {}  # id(twin model) -> (twin, path key of its model)
        self._prev_inv = None

    def open(self, name):
        cur = self.current
        i = len(cur.names)
        cur.names.append(name)
        cur.parents.append(self._stack[-1] if self._stack else -1)
        cur.ends.append(0.0)
        self._stack.append(i)
        cur.starts.append(time.perf_counter())
        return i

    def close(self, i):
        self.current.ends[i] = time.perf_counter()
        self._stack.pop()

    def take(self):
        """Return the finished trace and start an empty one."""
        if self._stack:
            raise RuntimeError("spans still open")
        done, self.current = self.current, PassTrace()
        self._shifted.clear()
        self._prev_inv = None
        return done

    # -- simulated-path ledger ---------------------------------------------

    def model_key(self, model):
        entry = self._shifted.get(id(model))
        if entry is not None:
            return entry[1]
        fp = getattr(model, "fingerprint", None)
        return (fp() if callable(fp) else repr(fp), None)

    def register_shift(self, twin, base, shift):
        probe = np.asarray(shift(0.0, np.zeros((1, base.d))), dtype=float)
        key = (self.model_key(base), tuple(np.round(probe.ravel(), 12).tolist()))
        self._shifted[id(twin)] = (twin, key)

    def add_paths(self, model, x0, grid, seed, scheme, lo, hi):
        x0 = tuple(np.atleast_1d(np.asarray(x0, dtype=float)).ravel().tolist())
        key = (self.model_key(model), int(seed), x0, (grid.T, grid.n_steps), scheme)
        self.current.paths.append((key, int(lo), int(hi)))
        self.current.counts["simulate.path_steps"] += (hi - lo) * grid.n_steps

    # -- allocation peak inside outermost simulate spans ----------------------

    def sim_enter(self):
        if self._sim_depth == 0 and self.track_alloc:
            tracemalloc.start()
        self._sim_depth += 1

    def sim_exit(self):
        self._sim_depth -= 1
        if self._sim_depth == 0 and tracemalloc.is_tracing():
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.current.peak_alloc = max(self.current.peak_alloc, peak)

    # -- phi_inv inputs -------------------------------------------------------

    def note_inversion(self, phi, y, t):
        y = np.atleast_2d(np.asarray(y, dtype=float))
        prev = self._prev_inv
        if (prev is not None and prev[0] is phi and prev[2] == t
                and prev[1].shape == y.shape and np.array_equal(prev[1], y)):
            self.current.counts["zvonkin.phi_inv_repeats"] += 1
        self._prev_inv = (phi, y.copy(), t)


def path_counts(blocks):
    """``(distinct, total)`` paths over ``(key, first_id, end_id)`` blocks.

    A path is identified by its key and its path id, so overlapping id
    ranges under one key are counted once in ``distinct``.
    """
    by_key = defaultdict(list)
    total = 0
    for key, lo, hi in blocks:
        total += hi - lo
        by_key[key].append((lo, hi))
    distinct = 0
    for ranges in by_key.values():
        ranges.sort()
        cur_lo, cur_hi = ranges[0]
        for lo, hi in ranges[1:]:
            if lo > cur_hi:
                distinct += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        distinct += cur_hi - cur_lo
    return distinct, total


def self_times(starts, ends, parents):
    """Duration of each span minus the part of it its children cover."""
    out = [e - s for s, e in zip(starts, ends)]
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        covered = 0.0
        cur = None
        for k in sorted(kids, key=starts.__getitem__):
            s, e = max(starts[k], lo), min(ends[k], hi)
            if e <= s:
                continue
            if cur is None or s > cur[1]:
                if cur is not None:
                    covered += cur[1] - cur[0]
                cur = [s, e]
            else:
                cur[1] = max(cur[1], e)
        if cur is not None:
            covered += cur[1] - cur[0]
        out[p] -= covered
    return out


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _wrap(tracer, span, fn, before=None, after=None, simulate=False):
    """``fn`` inside a span; ``after`` may replace the result."""
    module = span.split(".", 1)[0]

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        if simulate:
            tracer.sim_enter()
        i = tracer.open(span)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.current.counts[module + ".errors"] += 1
            raise
        finally:
            tracer.close(i)
            if simulate:
                tracer.sim_exit()
        return out if after is None else after(args, kwargs, out)

    return traced


class _TracedLU:
    """An ``splu`` factorization whose ``solve`` calls are spans."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        i = self._tracer.open("zvonkin.lu_solve")
        try:
            return self._lu.solve(*args, **kwargs)
        finally:
            self._tracer.close(i)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _bound(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    return arguments


class Instrumentation:
    """Wrapped names for one tracer; ``apply`` installs, ``restore`` undoes.

    A name is wrapped where a call crosses into a module, or where a metric
    needs its arguments or result.  Calls within a module (``phi_inv`` from
    ``TransformedModel.drift``, say) count toward the caller's self time.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.patches = []  # (owner, attribute, original, wrapped)
        self._plan()

    def apply(self):
        for owner, attr, _, wrapped in self.patches:
            setattr(owner, attr, wrapped)

    def restore(self):
        for owner, attr, original, _ in reversed(self.patches):
            setattr(owner, attr, original)

    # -- what gets wrapped ------------------------------------------------------

    def _function(self, module, attr, span, **hooks):
        original = getattr(module, attr)
        wrapped = _wrap(self.tracer, span, original, **hooks)
        owners = [m for name, m in sorted(sys.modules.items())
                  if name == "sdetci" or name.startswith("sdetci.")]
        for owner in owners:
            for name, value in list(vars(owner).items()):
                if value is original:
                    self.patches.append((owner, name, original, wrapped))

    def _method(self, cls, attr, span, **hooks):
        original = cls.__dict__[attr]
        self.patches.append(
            (cls, attr, original, _wrap(self.tracer, span, original, **hooks))
        )

    def _plan(self):
        tr = self.tracer
        counts = lambda: tr.current.counts  # noqa: E731
        models, sim = sdetci.models, sdetci.simulate
        zv, tp, tci = sdetci.zvonkin, sdetci.transport, sdetci.tci

        # models: construction, validation and the coefficient callables
        for attr in ("model_from_config", "validate_model"):
            self._function(models, attr, "models.build")

        def coefficients(args, kwargs, out):
            drift, sigma = out
            return (_wrap(tr, "models.coeff", drift),
                    _wrap(tr, "models.coeff", sigma))

        for cls in (models.DiniModelSpec, models.SingularModelSpec,
                    sim.CallableModel):
            for attr in ("sim_functions", "reference_sim_functions"):
                if attr in cls.__dict__:
                    self._method(cls, attr, "models.sim_functions",
                                 after=coefficients)

        # simulate: RNG construction, ensembles and the simulated-path ledger
        self._function(sim, "path_rng", "simulate.rng_init")
        self._function(sim, "brownian_increments",
                       "simulate.brownian_increments", simulate=True)
        self._function(sim, "time_integrals", "simulate.time_integrals",
                       simulate=True)

        def ledger(fn, blocks):
            arguments = _bound(fn)

            def before(args, kwargs):
                a = arguments(args, kwargs)
                for block in blocks(a):
                    tr.add_paths(*block)

            return before

        one = lambda a: [(a["model"], a["x0"], a["grid"], a["seed"], a["scheme"],  # noqa: E731
                          a["path_id0"], a["path_id0"] + a["n_paths"])]
        for attr in ("ensemble_reduce", "simulate_ensemble"):
            fn = getattr(sim, attr)
            self._function(sim, attr, "simulate." + attr, simulate=True,
                           before=ledger(fn, one))
        self._function(
            sim, "coupled_sup_distances", "simulate.coupled_sup_distances",
            simulate=True,
            before=ledger(sim.coupled_sup_distances, lambda a: [
                (a["model_a"], a["x0a"], a["grid"], a["seed"], a["scheme"],
                 a["path_id0"], a["path_id0"] + a["n_paths"]),
                (a["model_b"], a["x0b"], a["grid"], a["seed"], a["scheme"],
                 a["path_id0"], a["path_id0"] + a["n_paths"]),
            ]),
        )

        shift_args = _bound(sim.with_drift_shift)

        def shifted(args, kwargs, out):
            a = shift_args(args, kwargs)
            tr.register_shift(out, a["model"], a["shift"])
            return out

        self._function(sim, "with_drift_shift", "simulate.with_drift_shift",
                       after=shifted)

        # zvonkin: solver entry points, LU, inversion and interpolation
        def picard(args, kwargs, out):
            counts()["zvonkin.picard_iters"] += len(out[1])
            return out

        def tries(args, kwargs, out):
            counts()["zvonkin.lambda_tries"] += len(out[2])
            return out

        self._function(zv, "solve_u_parabolic", "zvonkin.solve", after=picard)
        self._function(zv, "solve_u_parabolic_auto", "zvonkin.solve",
                       after=tries)
        self._function(zv, "solve_u_elliptic", "zvonkin.solve")
        self._function(zv, "apply_parabolic_map", "zvonkin.solve")
        self._function(zv, "splu", "zvonkin.lu_factor",
                       after=lambda args, kwargs, out: _TracedLU(out, tr))
        self._function(zv, "build_phi", "zvonkin.build_phi")
        self._function(zv, "verify_tilde_conditions", "zvonkin.verify_tilde")
        self._function(zv, "pathwise_consistency", "zvonkin.pathwise")

        inv_args = _bound(zv.Homeomorphism.phi_inv)

        def inversion(args, kwargs):
            a = inv_args(args, kwargs)
            tr.note_inversion(a["self"], a["y"], a["t"])

        self._method(zv.Homeomorphism, "phi_inv", "zvonkin.phi_inv",
                     before=inversion)
        self._method(zv.Homeomorphism, "jacobian", "zvonkin.interp")
        self._method(zv.GridFunction, "__call__", "zvonkin.interp")

        # transport: exact LP (assembly vs HiGHS), costs, Sinkhorn, entropies
        wp_args = _bound(tp.exact_wp)

        def lp_size(args, kwargs):
            a = wp_args(args, kwargs)
            counts()["transport.lp_vars"] += len(a["mu"].atoms) * len(a["nu"].atoms)

        def converged(args, kwargs, out):
            counts()["transport.sinkhorn_converged"] += bool(out.converged)
            return out

        self._function(tp, "exact_wp", "transport.exact_wp", before=lp_size)
        self._function(tp, "linprog", "transport.lp_solve")
        self._function(tp, "path_sup_cost", "transport.cost")
        self._function(tp, "sinkhorn_wp", "transport.sinkhorn", after=converged)
        self._function(tp, "girsanov_entropy", "transport.girsanov")
        self._function(tp, "pushforward", "transport.pushforward")
        self._function(tp, "relative_entropy_discrete", "transport.entropy")

        # tci: what the CLI calls (sweep, T2, invariance suite, thresholds, report)
        for attr in ("gaussian_tail_sweep", "t2_check", "invariance_suite",
                     "threshold_set", "t1_constant"):
            self._function(tci, attr, "tci." + attr)
        for attr in ("to_json", "save_json"):
            self._method(tci.TCIReport, attr, "tci.report")

        self._function(sdetci.cli, "main", "cli.main")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# name -> (unit, better); the order is the order of the printed report
PER_LAYER = {
    "models.coeff_s": ("s", "lower"),
    "models.coeff_calls": ("count", "lower"),
    "models.build_s": ("s", "lower"),
    "models.module_s": ("s", "lower"),
    "models.errors": ("count", "lower"),
    "simulate.rng_init_s": ("s", "lower"),
    "simulate.rng_inits": ("count", "lower"),
    "simulate.self_s": ("s", "lower"),
    "simulate.path_steps": ("count", "lower"),
    "simulate.unique_path_ratio": ("ratio", "higher"),
    "simulate.paths_total": ("count", "lower"),
    "simulate.paths_distinct": ("count", "lower"),
    "simulate.peak_alloc_mb": ("MB", "lower"),
    "simulate.module_s": ("s", "lower"),
    "simulate.errors": ("count", "lower"),
    "zvonkin.solve_s": ("s", "lower"),
    "zvonkin.lu_factor_s": ("s", "lower"),
    "zvonkin.lu_solve_s": ("s", "lower"),
    "zvonkin.lu_solves": ("count", "lower"),
    "zvonkin.picard_iters": ("count", "lower"),
    "zvonkin.lambda_tries": ("count", "lower"),
    "zvonkin.phi_inv_s": ("s", "lower"),
    "zvonkin.phi_inv_calls": ("count", "lower"),
    "zvonkin.phi_inv_repeat_ratio": ("ratio", "lower"),
    "zvonkin.interp_s": ("s", "lower"),
    "zvonkin.interp_calls": ("count", "lower"),
    "zvonkin.pathwise_self_s": ("s", "lower"),
    "zvonkin.module_s": ("s", "lower"),
    "zvonkin.errors": ("count", "lower"),
    "transport.exact_wp_self_s": ("s", "lower"),
    "transport.exact_wp_calls": ("count", "lower"),
    "transport.lp_vars": ("count", "lower"),
    "transport.lp_solve_s": ("s", "lower"),
    "transport.cost_s": ("s", "lower"),
    "transport.sinkhorn_s": ("s", "lower"),
    "transport.sinkhorn_converged_ratio": ("ratio", "higher"),
    "transport.girsanov_s": ("s", "lower"),
    "transport.pushforward_s": ("s", "lower"),
    "transport.module_s": ("s", "lower"),
    "transport.errors": ("count", "lower"),
    "tci.self_s": ("s", "lower"),
    "tci.errors": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.errors": ("count", "lower"),
    "bench.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.module_sum_residual_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


def _ratio(num, den):
    return num / den if den else 0.0


def pass_metrics(pt):
    """Per-layer metrics of one traced pass whose root span is ``bench.pass``.

    ``*_s`` of a named entry point is inclusive time, ``*self_s`` and
    ``*.module_s`` exclude child spans.  A layer that does not run in the
    workload reads 0 on every metric.
    """
    selfs = self_times(pt.starts, pt.ends, pt.parents)
    dur = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    module = defaultdict(float)
    for name, s, e, sf in zip(pt.names, pt.starts, pt.ends, selfs):
        dur[name] += e - s
        own[name] += sf
        calls[name] += 1
        module[name.split(".", 1)[0]] += sf
    c = pt.counts
    distinct, total = path_counts(pt.paths)
    wall = dur[ROOT_PASS]
    sim_self = sum(v for k, v in own.items()
                   if k.startswith("simulate.") and k != "simulate.rng_init")
    return {
        "models.coeff_s": dur["models.coeff"],
        "models.coeff_calls": calls["models.coeff"],
        "models.module_s": module["models"],
        "models.errors": c["models.errors"],
        "simulate.rng_init_s": dur["simulate.rng_init"],
        "simulate.rng_inits": calls["simulate.rng_init"],
        "simulate.self_s": sim_self,
        "simulate.path_steps": c["simulate.path_steps"],
        "simulate.unique_path_ratio": _ratio(distinct, total),
        "simulate.paths_total": total,
        "simulate.paths_distinct": distinct,
        "simulate.module_s": module["simulate"],
        "simulate.errors": c["simulate.errors"],
        "zvonkin.solve_s": own["zvonkin.solve"],
        "zvonkin.lu_factor_s": dur["zvonkin.lu_factor"],
        "zvonkin.lu_solve_s": dur["zvonkin.lu_solve"],
        "zvonkin.lu_solves": calls["zvonkin.lu_solve"],
        "zvonkin.picard_iters": c["zvonkin.picard_iters"],
        "zvonkin.lambda_tries": c["zvonkin.lambda_tries"],
        "zvonkin.phi_inv_s": dur["zvonkin.phi_inv"],
        "zvonkin.phi_inv_calls": calls["zvonkin.phi_inv"],
        "zvonkin.phi_inv_repeat_ratio": _ratio(c["zvonkin.phi_inv_repeats"],
                                               calls["zvonkin.phi_inv"]),
        "zvonkin.interp_s": dur["zvonkin.interp"],
        "zvonkin.interp_calls": calls["zvonkin.interp"],
        "zvonkin.pathwise_self_s": own["zvonkin.pathwise"],
        "zvonkin.module_s": module["zvonkin"],
        "zvonkin.errors": c["zvonkin.errors"],
        "transport.exact_wp_self_s": own["transport.exact_wp"],
        "transport.exact_wp_calls": calls["transport.exact_wp"],
        "transport.lp_vars": c["transport.lp_vars"],
        "transport.lp_solve_s": dur["transport.lp_solve"],
        "transport.cost_s": dur["transport.cost"],
        "transport.sinkhorn_s": dur["transport.sinkhorn"],
        "transport.sinkhorn_converged_ratio": _ratio(
            c["transport.sinkhorn_converged"], calls["transport.sinkhorn"]),
        "transport.girsanov_s": dur["transport.girsanov"],
        "transport.pushforward_s": dur["transport.pushforward"],
        "transport.module_s": module["transport"],
        "transport.errors": c["transport.errors"],
        "tci.self_s": module["tci"],
        "tci.errors": c["tci.errors"],
        "cli.self_s": module["cli"],
        "cli.errors": c["cli.errors"],
        "bench.self_s": module["bench"],
        "trace.wall_s": wall,
        "trace.module_sum_residual_s": wall - sum(module.values()),
        "trace.spans": len(pt.names),
    }


def setup_metrics(pt):
    """Metrics of the set-up phase (root span ``bench.setup``)."""
    return {
        "models.build_s": sum(e - s for n, s, e in zip(pt.names, pt.starts, pt.ends)
                              if n == "models.build"),
    }
