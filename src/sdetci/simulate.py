"""Seed-stable Monte Carlo path generation.

Every SDE recursion of the package runs through ``run_em``, one
Euler-Maruyama (or tamed) driver for one or more coupled states.

``brownian_increments``, ``simulate_em``, ``simulate_tamed``,
``simulate_ensemble``, ``ensemble_reduce``, ``time_integrals``,
``coupled_sup_distances`` and ``pair_sup_distances`` draw noise from
counter-based Philox streams keyed by ``(master seed, path id)``: any path
is reproducible in isolation, a run of n paths is a prefix of a longer run,
and results do not depend on how paths are chunked.  A chunk draws from one
generator, re-keyed per path (``_increment_block``), which gives each path
the stream of its own ``path_rng(seed, path_id)``.  ``zvonkin.estimate_P0``
and ``zvonkin.check_gradient_estimate`` are keyed by block instead, one
stream per ``zvonkin.P0_BLOCK`` paths: their samples are fixed by
``(seed, n)``, but a path's noise depends on n.  Paths run in chunks
through one loop, ``_path_chunks``.  One memory budget, ``_CHUNK_BUDGET``,
sets every chunk size, so no function takes a ``chunk`` argument.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BlowupError, ConfigError

_MASK = (1 << 64) - 1
_BLOWUP_LIMIT = 1e10
_CHUNK_BUDGET = 1 << 23  # floats held by one chunk's path arrays (64 MiB)


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
class PathSample:
    grid: TimeGrid
    states: np.ndarray  # (n_steps + 1, d)
    seed_id: int

    @property
    def d(self):
        return self.states.shape[1]


@dataclass
class PathEnsemble:
    grid: TimeGrid
    states: np.ndarray  # (n_paths, n_steps + 1, d)
    seed_ids: np.ndarray
    model_fingerprint: str
    scheme: str

    def __len__(self):
        return self.states.shape[0]

    def path(self, i):
        return PathSample(self.grid, self.states[i], int(self.seed_ids[i]))

    def __iter__(self):
        return (self.path(i) for i in range(len(self)))


def path_rng(seed, path_id):
    # an explicit uint64 key: a plain list holding a word >= 2**63 converts
    # through float64 and collides with other seeds
    key = np.array([int(seed) & _MASK, int(path_id) & _MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def brownian_increments(seed, grid, d, path_id=0):
    """i.i.d. N(0, h I_d) increments for one path stream."""
    return _increment_block(seed, grid, d, [path_id])[0]


def _increment_block(seed, grid, d, ids):
    """Increments of paths ``ids``, row j equal to ``brownian_increments(ids[j])``.

    One generator serves the block: per path its Philox key word 1 is set to
    the path id and its counter and buffer are reset, which gives the same
    stream as a fresh ``path_rng(seed, pid)`` without building one.
    """
    out = np.empty((len(ids), grid.n_steps, d))
    gen = path_rng(seed, ids[0])
    philox = gen.bit_generator
    fresh = philox.state  # zero counter, empty buffer
    key = fresh["state"]["key"]
    for j, pid in enumerate(ids):
        key[1] = int(pid) & _MASK
        philox.state = fresh
        gen.standard_normal(out=out[j])
    out *= math.sqrt(grid.h)
    return out


def _fingerprint(model):
    fp = getattr(model, "fingerprint", None)
    return fp() if callable(fp) else str(fp)


def run_em(fns, x0s, grid, dws, tamed=False, t0=0.0, on_step=None):
    """Euler-Maruyama (or tamed) recursion of coupled states over one chunk.

    State ``i`` starts at ``x0s[i]`` (n, d), steps with ``fns[i] = (drift,
    sigma)`` and takes the increments ``dws[i]`` of shape (n, n_steps, d);
    passing one array for several states couples them synchronously.
    After step k, ``on_step(k, t, xs)`` sees the states at time t.  Raises
    BlowupError when any state leaves the finite range (only plain EM is
    expected to).  Returns the terminal states.
    """
    h = grid.h
    xs = [np.array(x0, dtype=float) for x0 in x0s]
    t = t0
    for k in range(grid.n_steps):
        for i, (drift, sigma) in enumerate(fns):
            x = xs[i]
            mu = drift(t, x)
            incr = mu * h
            if tamed:
                incr = incr / (1.0 + h * np.linalg.norm(mu, axis=1, keepdims=True))
            x = x + incr + np.einsum("nij,nj->ni", sigma(t, x), dws[i][:, k])
            if not np.abs(x).max() <= _BLOWUP_LIMIT:  # also catches NaN
                raise BlowupError(k + 1)
            xs[i] = x
        t += h
        if on_step is not None:
            on_step(k, t, xs)
    return xs


def _chunk_size(grid, d, held):
    """Paths per chunk when each path holds ``held`` (n_steps, d) arrays."""
    return max(1, _CHUNK_BUDGET // (grid.n_steps * d * held))


def _path_chunks(fns, x0s, grid, seed, ids, scheme, held, shape, reduce,
                 split=False, finish=lambda acc: acc):
    """Run coupled states over chunks of path ids; return ``finish(acc)`` joined.

    Path ``ids[j]`` keys every state's noise, or with ``split`` state 1's is
    ``ids[j] + 1``.  ``reduce(acc, k, t, xs)`` fills a chunk's zeroed ``acc``
    of shape (n,) + ``shape`` from the start states (k = -1) and each step.
    """
    if scheme not in ("em", "tamed"):
        raise ConfigError(f"unknown scheme {scheme!r}, use 'em' or 'tamed'", "scheme")
    if len(ids) < 1:
        raise ConfigError(f"need at least one path, got {len(ids)}", "n_paths")
    x0s = [np.atleast_1d(np.asarray(x0, dtype=float)) for x0 in x0s]
    d = len(x0s[0])

    def run(sub):
        dws = [_increment_block(seed, grid, d, sub)] * len(fns)
        if split:
            dws[1] = _increment_block(seed, grid, d, np.add(sub, 1))
        xs = [np.broadcast_to(x0, (len(sub), d)) for x0 in x0s]
        acc = np.zeros((len(sub),) + shape)
        step = functools.partial(reduce, acc)
        step(-1, 0.0, xs)
        run_em(fns, xs, grid, dws, scheme == "tamed", on_step=step)
        del dws  # free the increments before ``finish`` makes its temporaries
        return finish(acc)

    n = _chunk_size(grid, d, held)
    return np.concatenate([run(ids[lo : lo + n]) for lo in range(0, len(ids), n)])


def _states(model, x0, grid, seed, n_paths, scheme, path_id0, fn=lambda s: s):
    """``fn`` of the full (n, n_steps+1, d) states of each path-id chunk, joined."""

    def store(states, k, t, xs):
        states[:, k + 1] = xs[0]

    # states and increments: two arrays per path
    return _path_chunks([model.sim_functions(grid)], [x0], grid, seed,
                        range(path_id0, path_id0 + n_paths), scheme, 2,
                        (grid.n_steps + 1, np.size(x0)), store, finish=fn)


def simulate_em(model, x0, grid, seed, path_id=0):
    return simulate_ensemble(model, x0, grid, seed, 1, "em", path_id).path(0)


def simulate_tamed(model, x0, grid, seed, path_id=0):
    return simulate_ensemble(model, x0, grid, seed, 1, "tamed", path_id).path(0)


def simulate_ensemble(model, x0, grid, seed, n_paths, scheme="em", path_id0=0):
    """Full-path ensemble; use the reducers below for large runs."""
    states = _states(model, x0, grid, seed, n_paths, scheme, path_id0)
    ids = np.arange(path_id0, path_id0 + n_paths, dtype=np.int64)
    return PathEnsemble(grid, states, ids, _fingerprint(model), scheme)


def ensemble_reduce(model, x0, grid, seed, n_paths, fn, scheme="em", path_id0=0):
    """Apply ``fn(states_chunk) -> (n,) values`` per chunk, memory-bounded."""
    return _states(model, x0, grid, seed, n_paths, scheme, path_id0, fn)


def time_integrals(model, x0, grid, seed, n_paths, power=2.0, scheme="em",
                   path_id0=0):
    """Per-path trapezoid of |X_t|^power over [0, T]."""
    nodes = grid.nodes

    def fn(states):
        mag = np.linalg.norm(states, axis=2) ** power
        return np.trapezoid(mag, nodes, axis=1)

    return ensemble_reduce(model, x0, grid, seed, n_paths, fn, scheme, path_id0)


def _sup_distances(fns, x0s, grid, seed, ids, scheme, split=False,
                   dist=lambda t, xa, xb: np.linalg.norm(xa - xb, axis=1)):
    """sup_t dist(t, X^0_t, X^i_t) of state 0 against each other state, (n, k).

    ``dist`` gives (n,) distances, by default the Euclidean gap.  Streams
    are coupled or split as in ``_path_chunks``.
    """

    def track(sup, k, t, xs):
        for i, x in enumerate(xs[1:]):
            np.maximum(sup[:, i], dist(t, xs[0], x), out=sup[:, i])

    # one increment array per path, two when split
    return _path_chunks(fns, x0s, grid, seed, ids, scheme, 1 + split,
                        (len(fns) - 1,), track, split)


def pair_sup_distances(model, y0, grid, seed, n_pairs, scheme="em"):
    """sup_t |Y1 - Y2| for independent same-start pairs, streamed.

    Pair ``j`` runs on the disjoint streams ``2j`` and ``2j + 1``.
    """
    fns = [model.sim_functions(grid)] * 2
    ids = range(0, 2 * n_pairs, 2)
    return _sup_distances(fns, [y0, y0], grid, seed, ids, scheme, split=True)[:, 0]


def coupled_sup_distances(model_a, model_b, x0a, x0b, grid, seed, n_paths,
                          scheme="em", path_id0=0):
    """sup_t |X^a - X^b| under synchronous coupling, streamed.

    The two recursions may use different models (e.g. a drift-shifted twin)
    but share the same increments path by path.
    """
    fns = [model_a.sim_functions(grid), model_b.sim_functions(grid)]
    ids = range(path_id0, path_id0 + n_paths)
    return _sup_distances(fns, [x0a, x0b], grid, seed, ids, scheme)[:, 0]


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

    def fingerprint(self):
        return f"callable:{self.label}"


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

        def fingerprint(self):
            return _fingerprint(self.base) + ":shifted"

    return _Shifted(model)


def ensemble_to_csv(ensemble, path):
    """Columnar export: one row per (path, node)."""
    d = ensemble.states.shape[2]
    nodes = ensemble.grid.nodes
    with open(path, "w", newline="") as fh:
        fh.write(f"# fingerprint={ensemble.model_fingerprint}\n")
        fh.write(f"# scheme={ensemble.scheme}\n")
        fh.write(f"# T={ensemble.grid.T!r} n_steps={ensemble.grid.n_steps}\n")
        writer = csv.writer(fh)
        writer.writerow(["path_id", "t"] + [f"x{i + 1}" for i in range(d)])
        for i in range(len(ensemble)):
            pid = int(ensemble.seed_ids[i])
            for k, t in enumerate(nodes):
                writer.writerow([pid, repr(float(t))] +
                                [repr(float(v)) for v in ensemble.states[i, k]])


def ensemble_from_csv(path):
    with open(path) as fh:
        meta = {}
        pos = fh.tell()
        line = fh.readline()
        while line.startswith("#"):
            for tok in line[1:].split():
                if "=" in tok:
                    k, v = tok.split("=", 1)
                    meta[k] = v
            pos = fh.tell()
            line = fh.readline()
        fh.seek(pos)
        rows = list(csv.reader(fh))
    header, rows = rows[0], rows[1:]
    d = len(header) - 2
    grid = TimeGrid(float(meta["T"]), int(meta["n_steps"]))
    ids = sorted({int(r[0]) for r in rows})
    idx = {pid: i for i, pid in enumerate(ids)}
    states = np.empty((len(ids), grid.n_steps + 1, d))
    counts = {pid: 0 for pid in ids}
    for r in rows:
        pid = int(r[0])
        states[idx[pid], counts[pid]] = [float(v) for v in r[2:]]
        counts[pid] += 1
    return PathEnsemble(grid, states, np.asarray(ids, dtype=np.int64),
                        meta.get("fingerprint", "?"), meta.get("scheme", "?"))
