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
``path_rng(seed, path_id)``.  Paths run in chunks through one loop,
``_path_chunks``, which hands the states after every step to a reducer.
``ensemble_reduce(..., step, shape)`` streams them into a per-path
accumulator of ``shape`` (a running sup, a running sum), so a path holds
its increments, not its states; only ``simulate_ensemble``, and
``ensemble_reduce`` given a function of full states instead of a
``shape``, store every node.  One memory budget, ``_CHUNK_BUDGET``, sets
every chunk size, so no function takes a ``chunk`` argument.
"""

from __future__ import annotations

import csv
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
class PathEnsemble:
    grid: TimeGrid
    states: np.ndarray  # (n_paths, n_steps + 1, d)
    seed_ids: np.ndarray
    model_fingerprint: str
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
    return _increment_block(seed, grid, d, [path_id])[0]


def _increment_block(seed, grid, d, ids):
    """Increments of paths ``ids``, row j equal to ``brownian_increments(ids[j])``.

    One generator serves the block: per path its Philox key word 1 is set to
    the path id and its counter and buffer are reset, which gives the same
    stream as a fresh ``path_rng(seed, pid)`` without building one.  The
    state is a dict of plain ints, which the setter reads faster than the
    numpy arrays of a ``philox.state`` snapshot.
    """
    out = np.empty((len(ids), grid.n_steps, d))
    gen = path_rng(seed, ids[0])
    philox = gen.bit_generator
    key = [int(seed) & _MASK, 0]
    fresh = {"bit_generator": "Philox",
             "state": {"counter": [0] * 4, "key": key},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for j, pid in enumerate(ids):
        key[1] = int(pid) & _MASK
        philox.state = fresh
        gen.standard_normal(out=out[j])
    out *= math.sqrt(grid.h)
    return out


def _fingerprint(model):
    fp = getattr(model, "fingerprint", None)
    return fp() if callable(fp) else str(fp)


def run_em(fns, x0s, grid, dw, tamed=False, on_step=None):
    """Euler-Maruyama (or tamed) recursion of coupled states over one chunk.

    State ``i`` starts at ``x0s[i]`` (n, d) and steps with ``fns[i] =
    (drift, sigma)``; every state takes the increments ``dw`` of shape (n,
    n_steps, d), so the states are coupled synchronously.  After step k,
    ``on_step(k, t, xs)`` sees the states at time t.  Raises
    BlowupError when any state leaves the finite range (only plain EM is
    expected to).  Returns the terminal states.

    The noise term of a state is sigma(t, x) dW, contracted per path.  A
    sigma that declares ``matrix`` S is not called: its term is dW S^T, one
    ``np.dot`` per step, shared by every state whose sigma declares the same
    S (the base model and its drift-shifted twins).  In d = 1 both forms
    are one exact product, so declared and undeclared sigma give
    bit-identical states.
    """
    h = grid.h
    xs = [np.array(x0, dtype=float) for x0 in x0s]
    mats = [getattr(sigma, "matrix", None) for _, sigma in fns]
    t = 0.0
    for k in range(grid.n_steps):
        # Column k of the increments is strided.  Coupled states read one
        # contiguous copy; a lone state reads it in place, which is cheaper
        # than copying it.
        col = dw[:, k] if len(fns) == 1 else np.ascontiguousarray(dw[:, k])
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
        t += h
        if on_step is not None:
            on_step(k, t, xs)
    return xs


def _chunk_size(grid, d, held):
    """Paths per chunk when each path holds ``held`` (n_steps, d) arrays."""
    return max(1, _CHUNK_BUDGET // (grid.n_steps * d * held))


def _path_chunks(fns, x0s, grid, seed, ids, scheme, shape, reduce, keep=None):
    """Run coupled states over chunks of path ids; return the joined ``acc``.

    Path ``ids[j]`` keys the noise every state shares.  ``reduce(acc, k, t,
    xs)`` fills a chunk's zeroed ``acc`` of shape (n,) + ``shape`` from the
    start states (k = -1) and each step.  ``keep``, an array (len(fns),
    n_steps + 1, m, d), receives every state of the first m paths at every
    node.  A path holds its (n_steps, d) increments and its row of ``acc``,
    which counts as the whole (n_steps, d) arrays it fills.
    """
    if scheme not in ("em", "tamed"):
        raise ConfigError(f"unknown scheme {scheme!r}, use 'em' or 'tamed'", "scheme")
    if len(ids) < 1:
        raise ConfigError(f"need at least one path, got {len(ids)}", "n_paths")
    x0s = [np.atleast_1d(np.asarray(x0, dtype=float)) for x0 in x0s]
    d = len(x0s[0])
    n = _chunk_size(grid, d, 1 + math.prod(shape) // (grid.n_steps * d))
    m = 0 if keep is None else keep.shape[2]

    def run(lo):
        sub = ids[lo : lo + n]
        dw = _increment_block(seed, grid, d, sub)
        xs = [np.broadcast_to(x0, (len(sub), d)) for x0 in x0s]
        acc = np.zeros((len(sub),) + shape)
        kept = keep[:, :, lo : lo + len(sub)] if lo < m else ()

        def step(k, t, xs):
            reduce(acc, k, t, xs)
            for states, x in zip(kept, xs):
                states[k + 1] = x[: states.shape[1]]

        step(-1, 0.0, xs)
        run_em(fns, xs, grid, dw, scheme == "tamed", on_step=step)
        return acc

    return np.concatenate([run(lo) for lo in range(0, len(ids), n)])


def _states(model, x0, grid, seed, n_paths, scheme, path_id0):
    """The full (n_paths, n_steps + 1, d) states of the paths from ``path_id0``."""

    def store(states, k, t, xs):
        states[:, k + 1] = xs[0]

    return _path_chunks([model.sim_functions(grid)], [x0], grid, seed,
                        range(path_id0, path_id0 + n_paths), scheme,
                        (grid.n_steps + 1, np.size(x0)), store)


def simulate_ensemble(model, x0, grid, seed, n_paths, scheme="em", path_id0=0):
    """Full-path ensemble; use the reducers below for large runs."""
    states = _states(model, x0, grid, seed, n_paths, scheme, path_id0)
    ids = np.arange(path_id0, path_id0 + n_paths, dtype=np.int64)
    return PathEnsemble(grid, states, ids, _fingerprint(model), scheme)


def ensemble_reduce(model, x0, grid, seed, n_paths, step, shape=None,
                    scheme="em", path_id0=0):
    """Stream ``step(acc, k, t, x)`` over the paths; return the joined ``acc``.

    Per chunk of n paths, ``acc`` is a zeroed (n,) + ``shape`` array and
    ``step`` sees the start states x (n, d) at k = -1, t = 0, then the
    states after each step k at time t.  A path holds its increments and
    its row of ``acc``, never its states.  Without ``shape``, ``step`` is
    instead a function of the full (n_paths, n_steps + 1, d) states, the
    earlier contract, and the whole run holds its states.
    """
    if shape is None:
        return step(_states(model, x0, grid, seed, n_paths, scheme, path_id0))
    return _path_chunks([model.sim_functions(grid)], [x0], grid, seed,
                        range(path_id0, path_id0 + n_paths), scheme, shape,
                        lambda acc, k, t, xs: step(acc, k, t, xs[0]))


def time_integrals(model, x0, grid, seed, n_paths, power=2.0):
    """Per-path trapezoid of |X_t|^power over [0, T].

    The trapezoid is summed node by node, so a path holds one running sum,
    not its values at every node.
    """
    weights = np.full(grid.n_steps + 1, grid.h)
    weights[[0, -1]] *= 0.5

    def step(integral, k, t, x):
        integral += weights[k + 1] * np.linalg.norm(x, axis=1) ** power

    return ensemble_reduce(model, x0, grid, seed, n_paths, step, ())


def _sup_distances(fns, x0s, grid, seed, ids, scheme,
                   dist=lambda t, xa, xb: np.linalg.norm(xa - xb, axis=1)):
    """sup_t dist(t, X^0_t, X^i_t) of state 0 against each other state, (n, k).

    ``dist`` gives (n,) distances, by default the Euclidean gap.  The states
    are coupled as in ``_path_chunks``.
    """

    def track(sup, k, t, xs):
        np.maximum(sup, np.stack([dist(t, xs[0], x) for x in xs[1:]], axis=1), out=sup)

    return _path_chunks(fns, x0s, grid, seed, ids, scheme, (len(fns) - 1,), track)


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
