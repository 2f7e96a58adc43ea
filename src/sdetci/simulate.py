"""Seed-stable Monte Carlo path generation.

Noise is drawn from counter-based Philox streams keyed by
``(master seed, path id)``, so any path is reproducible in isolation and
ensembles are identical for every worker partition.  Large ensembles are
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


def _evolve(drift, sigma, x0s, grid, increments, tamed, store):
    """Euler-Maruyama recursion over one chunk.

    ``store=True`` returns the full (n, n_steps+1, d) array, otherwise only
    the terminal states.  Raises BlowupError when any path leaves the finite
    range (only plain EM is expected to do so).
    """
    n, d = x0s.shape
    h = grid.h
    x = x0s.copy()
    states = None
    if store:
        states = np.empty((n, grid.n_steps + 1, d))
        states[:, 0] = x
    t = 0.0
    for k in range(grid.n_steps):
        mu = drift(t, x)
        incr = mu * h
        if tamed:
            norm = np.linalg.norm(mu, axis=1, keepdims=True)
            incr = incr / (1.0 + h * norm)
        sig = sigma(t, x)
        x = x + incr + np.einsum("nij,nj->ni", sig, increments[:, k])
        if not np.isfinite(x).all() or np.abs(x).max() > _BLOWUP_LIMIT:
            raise BlowupError(k + 1)
        if store:
            states[:, k + 1] = x
        t += h
    return states if store else x


def _chunk_size(grid, d, chunk):
    budget = int(4e7 // max(grid.n_steps * d, 1))
    return max(1, min(chunk, budget))


def simulate_with_increments(model, x0, grid, increments, scheme="em", seed_id=0):
    """One path from externally supplied increments (mesh-coupling studies)."""
    drift, sigma = model.sim_functions(grid)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    states = _evolve(
        drift, sigma, x0[None], grid, increments[None], scheme == "tamed", True
    )
    return PathSample(grid, states[0], seed_id)


def simulate_em(model, x0, grid, seed, path_id=0):
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    dw = brownian_increments(seed, grid, len(x0), path_id)
    return simulate_with_increments(model, x0, grid, dw, "em", path_id)


def simulate_tamed(model, x0, grid, seed, path_id=0):
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    dw = brownian_increments(seed, grid, len(x0), path_id)
    return simulate_with_increments(model, x0, grid, dw, "tamed", path_id)


def simulate_coupled(model, x0, y0, grid, seed, path_id=0, scheme="em"):
    """Two paths driven by the same Brownian increments."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    dw = brownian_increments(seed, grid, len(x0), path_id)
    a = simulate_with_increments(model, x0, grid, dw, scheme, path_id)
    b = simulate_with_increments(model, y0, grid, dw, scheme, path_id)
    return a, b


def simulate_pair_independent(model, y0, grid, seed, pair_id=0, scheme="em"):
    """Two paths from the same start with disjoint noise streams."""
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    a = simulate_with_increments(
        model, y0, grid,
        brownian_increments(seed, grid, len(y0), 2 * pair_id), scheme, 2 * pair_id,
    )
    b = simulate_with_increments(
        model, y0, grid,
        brownian_increments(seed, grid, len(y0), 2 * pair_id + 1), scheme,
        2 * pair_id + 1,
    )
    return a, b


def simulate_ensemble(model, x0, grid, seed, n_paths, scheme="em", path_id0=0,
                      chunk=16384):
    """Full-path ensemble; use the reducers below for large runs."""
    drift, sigma = model.sim_functions(grid)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    d = len(x0)
    ids = np.arange(path_id0, path_id0 + n_paths, dtype=np.int64)
    chunk = _chunk_size(grid, d, chunk)
    blocks = []
    for lo in range(0, n_paths, chunk):
        sub = ids[lo : lo + chunk]
        dw = _increment_block(seed, grid, d, sub)
        x0s = np.broadcast_to(x0, (len(sub), d)).copy()
        blocks.append(_evolve(drift, sigma, x0s, grid, dw, scheme == "tamed", True))
    return PathEnsemble(
        grid, np.concatenate(blocks, axis=0), ids, _fingerprint(model), scheme
    )


def ensemble_reduce(model, x0, grid, seed, n_paths, fn, scheme="em", path_id0=0,
                    chunk=16384):
    """Apply ``fn(states_chunk) -> (n,) values`` per chunk, memory-bounded."""
    drift, sigma = model.sim_functions(grid)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    d = len(x0)
    chunk = _chunk_size(grid, d, chunk)
    out = []
    for lo in range(0, n_paths, chunk):
        ids = np.arange(path_id0 + lo, path_id0 + min(lo + chunk, n_paths))
        dw = _increment_block(seed, grid, d, ids)
        x0s = np.broadcast_to(x0, (len(ids), d)).copy()
        states = _evolve(drift, sigma, x0s, grid, dw, scheme == "tamed", True)
        out.append(np.asarray(fn(states)))
    return np.concatenate(out)


def time_integrals(model, x0, grid, seed, n_paths, power=2.0, scheme="em",
                   path_id0=0, chunk=16384):
    """Per-path trapezoid of |X_t|^power over [0, T]."""
    nodes = grid.nodes

    def fn(states):
        mag = np.linalg.norm(states, axis=2) ** power
        return np.trapezoid(mag, nodes, axis=1)

    return ensemble_reduce(model, x0, grid, seed, n_paths, fn, scheme, path_id0, chunk)


def pair_sup_distances(model, y0, grid, seed, n_pairs, scheme="em", chunk=8192):
    """sup_t |Y1 - Y2| for independent same-start pairs, streamed."""
    drift, sigma = model.sim_functions(grid)
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    d = len(y0)
    chunk = _chunk_size(grid, d, 2 * chunk) // 2
    h = grid.h
    out = np.empty(n_pairs)
    for lo in range(0, n_pairs, chunk):
        hi = min(lo + chunk, n_pairs)
        ids_a = 2 * np.arange(lo, hi, dtype=np.int64)
        dwa = _increment_block(seed, grid, d, ids_a)
        dwb = _increment_block(seed, grid, d, ids_a + 1)
        n = hi - lo
        xa = np.broadcast_to(y0, (n, d)).copy()
        xb = xa.copy()
        sup = np.zeros(n)
        t = 0.0
        tamed = scheme == "tamed"
        for k in range(grid.n_steps):
            for x, dw in ((xa, dwa), (xb, dwb)):
                mu = drift(t, x)
                incr = mu * h
                if tamed:
                    incr = incr / (1.0 + h * np.linalg.norm(mu, axis=1, keepdims=True))
                sig = sigma(t, x)
                x += incr + np.einsum("nij,nj->ni", sig, dw[:, k])
            np.maximum(sup, np.linalg.norm(xa - xb, axis=1), out=sup)
            t += h
        out[lo:hi] = sup
    return out


def coupled_sup_distances(model_a, model_b, x0a, x0b, grid, seed, n_paths,
                          scheme="em", path_id0=0, chunk=8192):
    """sup_t |X^a - X^b| under synchronous coupling, streamed.

    The two recursions may use different models (e.g. a drift-shifted twin)
    but share the same increments path by path.
    """
    drift_a, sigma_a = model_a.sim_functions(grid)
    drift_b, sigma_b = model_b.sim_functions(grid)
    x0a = np.atleast_1d(np.asarray(x0a, dtype=float))
    x0b = np.atleast_1d(np.asarray(x0b, dtype=float))
    d = len(x0a)
    chunk = _chunk_size(grid, d, chunk)
    h = grid.h
    tamed = scheme == "tamed"
    out = np.empty(n_paths)
    for lo in range(0, n_paths, chunk):
        ids = np.arange(path_id0 + lo, path_id0 + min(lo + chunk, n_paths))
        dw = _increment_block(seed, grid, d, ids)
        n = len(ids)
        xa = np.broadcast_to(x0a, (n, d)).copy()
        xb = np.broadcast_to(x0b, (n, d)).copy()
        sup = np.linalg.norm(xa - xb, axis=1)
        t = 0.0
        for k in range(grid.n_steps):
            for x, drift, sigma in ((xa, drift_a, sigma_a), (xb, drift_b, sigma_b)):
                mu = drift(t, x)
                incr = mu * h
                if tamed:
                    incr = incr / (1.0 + h * np.linalg.norm(mu, axis=1, keepdims=True))
                sig = sigma(t, x)
                x += incr + np.einsum("nij,nj->ni", sig, dw[:, k])
            np.maximum(sup, np.linalg.norm(xa - xb, axis=1), out=sup)
            t += h
        out[lo : lo + n] = sup
    return out


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
