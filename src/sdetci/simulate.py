"""Seed-stable Monte Carlo path generation.

Every SDE recursion of the package runs through ``run_em``, one
Euler-Maruyama (or tamed) driver for one or more coupled states.  A sigma
that declares a constant matrix (``sigma.matrix``, see ``models``) is
additive noise: ``run_em`` steps it by one product of the increments with
that matrix, computed once per step for all states that share it, and
never calls sigma.

``brownian_increments``, ``simulate_ensemble``, ``ensemble_reduce``,
``time_integrals``, ``coupled_sup_distances`` and the semigroup Monte Carlo
of ``zvonkin`` draw noise from counter-based Philox streams keyed by
``(master seed, path id)``: any path is reproducible in isolation, a run of
n paths is a prefix of a longer run, and results do not depend on how
paths are chunked.  A chunk draws from one generator, re-keyed per path
(``_increment_block``), which gives each path the stream of its own
``path_rng(seed, path_id)``.  Its increments are node-major, (n_steps, n,
d), so each step reads one contiguous (n, d) row; the paths draw through
one reused per-path tile, which is scaled into that layout.  Paths run in
chunks through one loop, ``_path_chunks``, which allocates each named
per-path column once, zeroed, for all of its paths, and hands the states
after every step to the step of each column, which fills the chunk's rows
in place and keeps no state: ``_sup_gaps`` keeps a running sup of gaps,
``_trapezoid`` a running integral.  So a path holds its increments, not its
states.  ``ensemble_reduce(..., step, shape)`` streams one column of
``shape``; the coupled runs of ``tci`` and ``zvonkin`` stream theirs the
same way.  Only ``simulate_ensemble``, and ``ensemble_reduce`` given a
function of full states instead of a ``shape``, store every node, once.
One memory budget, ``_CHUNK_BUDGET``, sets every chunk size: no function
takes a ``chunk``.  ``run_em`` evaluates the coefficients of step k at the
grid node t_k and hands the states to the columns at t_{k+1}.

A large loop runs in parts: contiguous ranges of its path ids, at most one
process per CPU this process may run on (``os.sched_getaffinity``).  Its
columns then live in anonymous shared maps, made before the parent forks a
child per part after the first; the parent runs part 0 itself, each part
runs its chunks under its own ``_CHUNK_BUDGET`` and writes its rows in
place, and a child sends back only its outcome (``_in_parts``).  Every
column is per path and each path's noise depends on (seed, path id) alone,
so the columns are bit-identical to those of one process.  Every chunk
runs to its end or its first blow-up, and the loop raises the BlowupError
of the earliest step over all its chunks and parts, so the step does not
depend on chunk sizes or CPUs; any other error raises at once, that of the
lowest part first.  A loop of fewer than ``_SPLIT_WORK`` path steps times
states, or one started while another Python thread is alive, stays in one
process, with plain arrays for its columns (``_part_count``).
"""

from __future__ import annotations

import csv
import math
import mmap
import os
import pickle
import signal
import threading
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BlowupError, ConfigError

_MASK = (1 << 64) - 1
_BLOWUP_LIMIT = 1e10
_CHUNK_BUDGET = 1 << 21  # floats of one chunk's increments (16 MiB)
_TILE = 1 << 16  # floats of the per-path draw tile of _increment_block (512 KiB)
# path steps x states below which a path loop stays in one process: on a
# 2-core host a fork costs about 3 ms, and splitting an OU loop of 2**18
# steps lost (12 -> 14 ms) while one of 2**19 gained (24 -> 19 ms)
_SPLIT_WORK = 1 << 19


@dataclass(frozen=True)
class TimeGrid:
    T: float
    n_steps: int

    def __post_init__(self):
        if self.n_steps < 1 or not self.T > 0:
            raise ConfigError(f"need n_steps >= 1, T > 0, got {self.n_steps}, {self.T}")

    @property
    def h(self):
        return self.T / self.n_steps

    @property
    def nodes(self):
        return np.linspace(0.0, self.T, self.n_steps + 1)


@dataclass
class PathEnsemble:
    grid: TimeGrid
    states: np.ndarray  # (n_paths, n_steps + 1, d)
    seed_ids: np.ndarray
    scheme: str

    def __len__(self):
        return self.states.shape[0]


def path_rng(seed, path_id):
    # an explicit uint64 key: a plain list holding a word >= 2**63 converts
    # through float64 and collides with other seeds
    key = np.array([int(seed) & _MASK, int(path_id) & _MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def brownian_increments(seed, grid, d, path_id=0):
    """i.i.d. N(0, h I_d) increments for one path stream."""
    return _increment_block(seed, grid, d, [path_id])[:, 0]


def _increment_block(seed, grid, d, ids):
    """Increments of paths ``ids``, node-major (n_steps, n, d), column j equal
    to ``brownian_increments(ids[j])``.

    One generator serves the block: per path its Philox key word 1 is set to
    the path id and its counter and buffer are reset, which gives the same
    stream as a fresh ``path_rng(seed, pid)`` without building one.  The
    state is a dict of plain ints, which the setter reads faster than the
    numpy arrays of a ``philox.state`` snapshot.  A stream fills one path's
    contiguous (n_steps, d) row, so the paths draw into one path-major tile
    of about ``_TILE`` floats, reused for the whole call; each filled tile
    is scaled by sqrt(h) in place, one product per value, and copied into
    its columns of the block.
    """
    out = np.empty((grid.n_steps, len(ids), d))
    gen = path_rng(seed, ids[0])
    philox = gen.bit_generator
    key = [int(seed) & _MASK, 0]
    fresh = {"bit_generator": "Philox",
             "state": {"counter": [0] * 4, "key": key},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    per_tile = min(len(ids), max(1, _TILE // (grid.n_steps * d)))
    tile = np.empty((per_tile, grid.n_steps, d))
    sqrt_h = math.sqrt(grid.h)
    for lo in range(0, len(ids), per_tile):
        sub = ids[lo : lo + per_tile]
        for j, pid in enumerate(sub):
            key[1] = int(pid) & _MASK
            philox.state = fresh
            gen.standard_normal(out=tile[j])
        filled = tile[: len(sub)]
        filled *= sqrt_h
        out[:, lo : lo + len(sub)] = filled.transpose(1, 0, 2)
    return out


def run_em(fns, x0s, grid, dw, on_step, tamed=False):
    """Euler-Maruyama (or tamed) recursion of coupled states over one chunk.

    State ``i`` starts at ``x0s[i]`` (n, d) and steps with ``fns[i] =
    (drift, sigma)``; every state takes the node-major increments ``dw`` of
    shape (n_steps, n, d), so the states are coupled synchronously and step
    k reads the contiguous row ``dw[k]``.  Step k evaluates the
    coefficients at the grid node t_k, and ``on_step(k, t, xs)`` then sees
    the states at the node t = t_{k+1}.  Raises
    BlowupError when any state leaves the finite range (only plain EM is
    expected to).

    The noise term of a state is sigma(t, x) dW, contracted per path.  A
    sigma that declares ``matrix`` S is not called: its term is dW S^T, one
    ``np.dot`` per step, shared by every state whose sigma declares the same
    S (the base model and its drift-shifted twins).  In d = 1 both forms
    are one exact product, so declared and undeclared sigma give
    bit-identical states.
    """
    h = grid.h
    nodes = grid.nodes.tolist()
    xs = [np.array(x0, dtype=float) for x0 in x0s]
    mats = [getattr(sigma, "matrix", None) for _, sigma in fns]
    for k in range(grid.n_steps):
        t = nodes[k]
        col = dw[k]
        shared = {}  # id of a declared matrix -> this step's noise term
        for i, (drift, sigma) in enumerate(fns):
            x = xs[i]
            mu = drift(t, x)
            incr = mu * h
            if tamed:
                incr = incr / (1.0 + h * np.linalg.norm(mu, axis=1, keepdims=True))
            m = mats[i]
            if m is None:
                noise = np.einsum("nij,nj->ni", sigma(t, x), col)
            elif id(m) in shared:
                noise = shared[id(m)]
            else:
                noise = shared[id(m)] = np.dot(col, m.T)
            x = x + incr + noise
            if not np.abs(x).max() <= _BLOWUP_LIMIT:  # also catches NaN
                raise BlowupError(k + 1)
            xs[i] = x
        on_step(k, nodes[k + 1], xs)


def _chunk_size(grid, d):
    """Paths per chunk when each path holds its (n_steps, d) increments."""
    return max(1, _CHUNK_BUDGET // (grid.n_steps * d))


def _path_chunks(fns, x0s, grid, seed, ids, scheme, columns):
    """Run coupled states over chunks of path ids; return name -> column.

    Path ``ids[j]`` keys the noise every state shares.  ``columns`` maps a
    name to ``(shape, step)``: the loop allocates each column once, zeroed,
    of shape (len(ids),) + ``shape``, and ``step(col, k, t, xs)`` fills a
    chunk's rows ``col`` of it in place from the start states (k = -1) and
    each step.  A chunk holds its paths' (n_steps, d) increments, which
    alone size it: the columns are the loop's, not the chunk's.  Every
    chunk runs; a blow-up raises at the earliest step of any path.
    """
    if scheme not in ("em", "tamed"):
        raise ConfigError(f"unknown scheme {scheme!r}, use 'em' or 'tamed'", "scheme")
    if len(ids) < 1:
        raise ConfigError(f"need at least one path, got {len(ids)}", "n_paths")
    x0s = [np.atleast_1d(np.asarray(x0, dtype=float)) for x0 in x0s]
    d = len(x0s[0])
    n = _chunk_size(grid, d)
    parts = _part_count(len(ids), len(ids) * grid.n_steps * len(fns))
    zeros = np.zeros if parts == 1 else _shared_zeros
    store = {name: zeros((len(ids),) + shape) for name, (shape, _) in columns.items()}

    def chunk(lo, hi):
        """Fill rows lo..hi-1; return the chunk's blow-up, or None."""
        dw = _increment_block(seed, grid, d, ids[lo:hi])
        xs = [np.broadcast_to(x0, (hi - lo, d)) for x0 in x0s]

        def on_step(k, t, xs):
            for name, (_, step) in columns.items():
                step(store[name][lo:hi], k, t, xs)

        on_step(-1, 0.0, xs)
        try:
            run_em(fns, xs, grid, dw, on_step, scheme == "tamed")
        except BlowupError as e:
            return e

    def part(lo, hi):
        return _earliest(chunk(a, min(a + n, hi)) for a in range(lo, hi, n))

    blowup = _earliest(_in_parts(part, len(ids), parts))
    if blowup is not None:
        raise blowup
    return store


def _earliest(blowups):
    """The BlowupError of the earliest step among ``blowups``, or None."""
    return min((b for b in blowups if b is not None), key=lambda b: b.step, default=None)


def _shared_zeros(shape):
    """A zeroed float array in an anonymous shared map, whose rows a forked
    child fills for the parent; ``mmap`` refuses length 0."""
    return np.ndarray(shape, buffer=mmap.mmap(-1, max(8 * math.prod(shape), 1)))


def _part_count(n_ids, work):
    """Processes for a path loop of ``work`` path steps times states.

    One per CPU this process may run on, at most one per path; one when the
    work is below ``_SPLIT_WORK``, where a fork costs more than it saves,
    when ``os.fork`` is missing, or when another Python thread is alive,
    which a forked child would lack along with any lock it held.
    """
    if (work < _SPLIT_WORK or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return min(len(os.sched_getaffinity(0)), n_ids)


def _in_parts(run, n, parts):
    """``run(lo, hi)`` over ``parts`` contiguous parts of range(n), in order.

    The parent forks one child per part after the first, then runs part 0
    itself.  A child runs its part, sends the result, or the exception it
    raised, pickled through a pipe and leaves by ``os._exit``: it never
    returns into the caller's stack.  Forking, not spawning, lets a child
    run the caller's closures as they are.  The failure of the part with
    the lowest ids raises in the parent, and every child is reaped before
    this returns.
    """
    bounds = [n * i // parts for i in range(parts + 1)]
    children = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            r, w = os.pipe()
            try:
                with warnings.catch_warnings():
                    # Python >= 3.12 warns on every OS thread, the idle BLAS
                    # pool included, which re-creates itself in the child;
                    # no other Python thread is alive (_part_count)
                    warnings.filterwarnings("ignore", "This process .*multi-threaded",
                                            DeprecationWarning)
                    pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                os.close(r)
                _child(run, lo, hi, w)
            os.close(w)
            children.append((pid, r, lo, hi))
        results = [run(bounds[0], bounds[1])]
        for pid, r, lo, hi in children:
            with open(r, "rb", closefd=False) as fh:
                try:
                    ok, value = pickle.load(fh)
                except (EOFError, pickle.UnpicklingError) as e:
                    raise RuntimeError(f"the process of paths {lo}..{hi - 1} "
                                       "ended without a result") from e
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, r, _, _ in children:
            os.kill(pid, signal.SIGKILL)  # no-op on a child that has exited
            os.waitpid(pid, 0)
            os.close(r)


def _child(run, lo, hi, fd):
    """Body of a forked child: send ``run(lo, hi)`` or its exception to
    ``fd`` and leave without running the parent's cleanup."""
    try:
        try:
            out = (True, run(lo, hi))
        except BaseException as e:  # sent to the parent, which raises it
            out = (False, e)
        with open(fd, "wb") as fh:
            pickle.dump(out, fh, pickle.HIGHEST_PROTOCOL)
    finally:
        os._exit(0)


def _states(model, x0, grid, seed, n_paths, scheme, path_id0):
    """The full (n_paths, n_steps + 1, d) states of the paths from ``path_id0``."""

    def store(states, k, t, xs):
        states[:, k + 1] = xs[0]

    return _path_chunks([model.sim_functions(grid)], [x0], grid, seed,
                        range(path_id0, path_id0 + n_paths), scheme,
                        {"states": ((grid.n_steps + 1, np.size(x0)), store)})["states"]


def simulate_ensemble(model, x0, grid, seed, n_paths, scheme="em", path_id0=0):
    """Full-path ensemble; use the reducers below for large runs."""
    states = _states(model, x0, grid, seed, n_paths, scheme, path_id0)
    ids = np.arange(path_id0, path_id0 + n_paths, dtype=np.int64)
    return PathEnsemble(grid, states, ids, scheme)


def ensemble_reduce(model, x0, grid, seed, n_paths, step, shape=None,
                    scheme="em", path_id0=0):
    """Stream ``step(acc, k, t, x)`` over the paths; return ``acc`` of all paths.

    ``acc`` is one zeroed (n_paths,) + ``shape`` array for the whole run;
    per chunk of n paths, ``step`` fills the chunk's (n,) + ``shape`` rows
    of it in place from the start states x (n, d) at k = -1, t = 0, then
    from the states after each step k at time t.  A chunk holds its
    increments, never its states.  Without ``shape``, ``step`` is
    instead a function of the full (n_paths, n_steps + 1, d) states, the
    earlier contract, and the whole run holds its states.
    """
    if shape is None:
        return step(_states(model, x0, grid, seed, n_paths, scheme, path_id0))
    return _path_chunks([model.sim_functions(grid)], [x0], grid, seed,
                        range(path_id0, path_id0 + n_paths), scheme,
                        {"acc": (shape, lambda acc, k, t, xs: step(acc, k, t, xs[0]))})["acc"]


def _mean_stderr(samples, axis=0):
    """Standard error of the mean along ``axis``: the ddof = 1 standard
    deviation over sqrt(n), the samples actually drawn; 0 for one sample."""
    n = np.shape(samples)[axis]
    return np.std(samples, axis=axis, ddof=min(n - 1, 1)) / math.sqrt(n)


def _trapezoid(grid, integrand):
    """``step(integral, k, t, x)``, adding to ``integral`` (n,) the trapezoid
    term of int integrand(t, x) dt at node k + 1, time t.  Summed node by
    node, the trapezoid holds one running sum per path, not the integrand at
    every node."""
    weights = np.full(grid.n_steps + 1, grid.h)
    weights[[0, -1]] *= 0.5

    def step(integral, k, t, x):
        integral += weights[k + 1] * integrand(t, x)

    return step


def time_integrals(model, x0, grid, seed, n_paths, power=2.0):
    """Per-path trapezoid of |X_t|^power over [0, T], streamed by ``_trapezoid``."""
    step = _trapezoid(grid, lambda t, x: np.linalg.norm(x, axis=1) ** power)
    return ensemble_reduce(model, x0, grid, seed, n_paths, step, ())


def _sup_gaps(dist=lambda t, xa, xb: np.linalg.norm(xa - xb, axis=1)):
    """``step(sup, k, t, xs)`` of sup_t dist(t, X^0_t, X^i_t), state 0
    against each other state, into ``sup`` (n, len(xs) - 1).  ``dist``
    gives (n,) distances, by default the Euclidean gap."""

    def step(sup, k, t, xs):
        np.maximum(sup, np.stack([dist(t, xs[0], x) for x in xs[1:]], axis=1), out=sup)

    return step


def coupled_sup_distances(model_a, model_b, x0a, x0b, grid, seed, n_paths,
                          scheme="em", path_id0=0):
    """sup_t |X^a - X^b| under synchronous coupling, streamed.

    The two recursions may use different models (e.g. a drift-shifted twin)
    but share the same increments path by path.
    """
    fns = [model_a.sim_functions(grid), model_b.sim_functions(grid)]
    return _path_chunks(fns, [x0a, x0b], grid, seed, range(path_id0, path_id0 + n_paths),
                        scheme, {"gap": ((1,), _sup_gaps())})["gap"][:, 0]


@dataclass
class CallableModel:
    """Minimal adapter so ad-hoc coefficient pairs run through the engine."""

    d: int
    drift: Callable  # (t, x) -> (n, d)
    sigma: Callable  # (t, x) -> (n, d, d)
    label: str = "callable"
    T: float = 1.0

    def sim_functions(self, grid):
        return self.drift, self.sigma

    def reference_sim_functions(self, grid):
        return self.drift, self.sigma


def with_drift_shift(model, shift):
    """A twin model whose drift is shifted by ``shift(t, x) -> (n, d)``."""

    class _Shifted:
        def __init__(self, base):
            self.base = base
            self.d = base.d

        def sim_functions(self, grid):
            drift, sigma = self.base.sim_functions(grid)

            def new_drift(t, x):
                return drift(t, x) + shift(t, x)

            return new_drift, sigma

    return _Shifted(model)


def ensemble_to_csv(ensemble, path, meta):
    """Columnar export: one row per (path, node), after a ``# key=value``
    line per item of ``meta`` (a report's ``config_sha256`` and ``seed``)."""
    d = ensemble.states.shape[2]
    nodes = ensemble.grid.nodes
    with open(path, "w", newline="") as fh:
        for key, value in meta.items():
            fh.write(f"# {key}={value}\n")
        fh.write(f"# scheme={ensemble.scheme}\n")
        fh.write(f"# T={ensemble.grid.T!r} n_steps={ensemble.grid.n_steps}\n")
        writer = csv.writer(fh)
        writer.writerow(["path_id", "t"] + [f"x{i + 1}" for i in range(d)])
        for i in range(len(ensemble)):
            pid = int(ensemble.seed_ids[i])
            for k, t in enumerate(nodes):
                writer.writerow([pid, repr(float(t))] +
                                [repr(float(v)) for v in ensemble.states[i, k]])
