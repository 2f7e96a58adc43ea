"""Seed-stable Monte Carlo path generation.

Every SDE recursion of the package runs through ``run_em``, one
Euler-Maruyama (or tamed) driver for one or more coupled states.

``brownian_increments``, ``simulate_em``, ``simulate_tamed``,
``simulate_ensemble``, ``ensemble_reduce``, ``time_integrals``,
``coupled_sup_distances`` and ``pair_sup_distances`` draw noise from
counter-based Philox streams keyed by ``(master seed, path id)``: any path
is reproducible in isolation, a run of n paths is a prefix of a longer run,
and results do not depend on how paths are chunked.  ``zvonkin.estimate_P0``
and ``zvonkin.check_gradient_estimate`` are keyed by block instead, one
stream per ``zvonkin.P0_BLOCK`` paths: their samples are fixed by
``(seed, n)``, but a path's noise depends on n.  Large ensembles are
processed in chunks; reducers avoid materializing full path arrays.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BlowupError

_MASK = (1 << 64) - 1
_BLOWUP_LIMIT = 1e10


@dataclass(frozen=True)
class TimeGrid:
    T: float
    n_steps: int

    def __post_init__(self):
        if self.n_steps < 1 or self.T <= 0:
            raise ValueError("need T > 0 and n_steps >= 1")

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
    return np.random.Generator(
        np.random.Philox(key=[int(seed) & _MASK, int(path_id) & _MASK])
    )


def brownian_increments(seed, grid, d, path_id=0):
    """i.i.d. N(0, h I_d) increments for one path stream."""
    rng = path_rng(seed, path_id)
    return rng.standard_normal((grid.n_steps, d)) * math.sqrt(grid.h)


def _increment_block(seed, grid, d, ids):
    out = np.empty((len(ids), grid.n_steps, d))
    root = math.sqrt(grid.h)
    for j, pid in enumerate(ids):
        out[j] = path_rng(seed, pid).standard_normal((grid.n_steps, d)) * root
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


def _chunk_size(grid, d, chunk):
    budget = int(4e7 // max(grid.n_steps * d, 1))
    return max(1, min(chunk, budget))


def _state_chunks(model, x0, grid, seed, n_paths, scheme, path_id0, chunk):
    """Yield the full (n, n_steps+1, d) states of consecutive path-id chunks."""
    fns = [model.sim_functions(grid)]
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    d = len(x0)
    chunk = _chunk_size(grid, d, chunk)
    for lo in range(0, n_paths, chunk):
        ids = np.arange(path_id0 + lo, path_id0 + min(lo + chunk, n_paths))
        states = np.empty((len(ids), grid.n_steps + 1, d))
        states[:, 0] = x0

        def store(k, t, xs):
            states[:, k + 1] = xs[0]

        dw = _increment_block(seed, grid, d, ids)
        run_em(fns, [states[:, 0]], grid, [dw], scheme == "tamed", on_step=store)
        yield states


def simulate_em(model, x0, grid, seed, path_id=0):
    return simulate_ensemble(model, x0, grid, seed, 1, "em", path_id).path(0)


def simulate_tamed(model, x0, grid, seed, path_id=0):
    return simulate_ensemble(model, x0, grid, seed, 1, "tamed", path_id).path(0)


def simulate_ensemble(model, x0, grid, seed, n_paths, scheme="em", path_id0=0,
                      chunk=16384):
    """Full-path ensemble; use the reducers below for large runs."""
    blocks = list(_state_chunks(model, x0, grid, seed, n_paths, scheme, path_id0,
                                chunk))
    ids = np.arange(path_id0, path_id0 + n_paths, dtype=np.int64)
    return PathEnsemble(
        grid, np.concatenate(blocks, axis=0), ids, _fingerprint(model), scheme
    )


def ensemble_reduce(model, x0, grid, seed, n_paths, fn, scheme="em", path_id0=0,
                    chunk=16384):
    """Apply ``fn(states_chunk) -> (n,) values`` per chunk, memory-bounded."""
    return np.concatenate([
        np.asarray(fn(states)) for states in
        _state_chunks(model, x0, grid, seed, n_paths, scheme, path_id0, chunk)
    ])


def time_integrals(model, x0, grid, seed, n_paths, power=2.0, scheme="em",
                   path_id0=0, chunk=16384):
    """Per-path trapezoid of |X_t|^power over [0, T]."""
    nodes = grid.nodes

    def fn(states):
        mag = np.linalg.norm(states, axis=2) ** power
        return np.trapezoid(mag, nodes, axis=1)

    return ensemble_reduce(model, x0, grid, seed, n_paths, fn, scheme, path_id0, chunk)


def _sup_distances(fns, x0a, x0b, grid, seed, ids, scheme, chunk, split=False):
    """sup_t |X^a - X^b| of two recursions on path ids ``ids``, streamed.

    Both draw from stream ``ids[j]`` (synchronous coupling), or with
    ``split`` ``a`` from ``ids[j]`` and ``b`` from ``ids[j] + 1``.
    """
    x0a = np.atleast_1d(np.asarray(x0a, dtype=float))
    x0b = np.atleast_1d(np.asarray(x0b, dtype=float))
    d = len(x0a)
    blocks = 2 if split else 1  # increment arrays held per chunk
    chunk = _chunk_size(grid, d, blocks * chunk) // blocks
    out = np.empty(len(ids))
    for lo in range(0, len(ids), chunk):
        sub = ids[lo : lo + chunk]
        dwa = _increment_block(seed, grid, d, sub)
        dwb = _increment_block(seed, grid, d, sub + 1) if split else dwa
        n = len(sub)
        xa, xb = np.broadcast_to(x0a, (n, d)), np.broadcast_to(x0b, (n, d))
        sup = np.linalg.norm(xa - xb, axis=1)

        def track(k, t, xs):
            np.maximum(sup, np.linalg.norm(xs[0] - xs[1], axis=1), out=sup)

        run_em(fns, [xa, xb], grid, [dwa, dwb], scheme == "tamed", on_step=track)
        out[lo : lo + n] = sup
    return out


def pair_sup_distances(model, y0, grid, seed, n_pairs, scheme="em", chunk=8192):
    """sup_t |Y1 - Y2| for independent same-start pairs, streamed.

    Pair ``j`` runs on the disjoint streams ``2j`` and ``2j + 1``.
    """
    fns = [model.sim_functions(grid)] * 2
    ids = 2 * np.arange(n_pairs, dtype=np.int64)
    return _sup_distances(fns, y0, y0, grid, seed, ids, scheme, chunk, split=True)


def coupled_sup_distances(model_a, model_b, x0a, x0b, grid, seed, n_paths,
                          scheme="em", path_id0=0, chunk=8192):
    """sup_t |X^a - X^b| under synchronous coupling, streamed.

    The two recursions may use different models (e.g. a drift-shifted twin)
    but share the same increments path by path.
    """
    fns = [model_a.sim_functions(grid), model_b.sim_functions(grid)]
    ids = np.arange(path_id0, path_id0 + n_paths, dtype=np.int64)
    return _sup_distances(fns, x0a, x0b, grid, seed, ids, scheme, chunk)


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
