"""Construction of the drift-removing change of variables.

The map is Phi = id + u, where u solves either a resolvent-type parabolic
integral equation (time-dependent model, Picard iteration over a backward
finite-difference sweep) or an elliptic equation (autonomous model, one
sparse solve).  Accepted maps carry a measured gradient bound that
certifies the bi-Lipschitz sandwich used downstream.

The operators are plain CSC arrays (``_Csc``) that this module assembles
and shifts itself.  Of scipy, only SuperLU's compiled extension
loads, from its file alone at the first factorization, so no
``scipy.sparse`` or ``scipy.linalg`` loads, and importing this module, or
any command that builds no map, loads no scipy module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import mul

import numpy as np

from ._compiled import _Csc, _scipy_extension
from .errors import (
    ConfigError,
    ConsistencyFailure,
    EllipticSolverError,
    FitFailure,
    GradientTooLarge,
    InconclusiveEstimate,
    NotContractive,
    OutOfDomain,
)
from .simulate import (
    TimeGrid,
    _mean_stderr,
    _path_chunks,
    _sup_gaps,
    path_rng,  # not called here; perfbench asserts that zvonkin binds it
)

DINI_GRAD_THRESHOLD = 0.5
SINGULAR_GRAD_THRESHOLD = 1.0


# ---------------------------------------------------------------------------
# grids and grid functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpaceGrid:
    """Uniform box [-R, R]^d with m nodes per axis, d <= 2."""

    R: float
    m: int
    d: int = 1

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ConfigError("deterministic solvers cover d <= 2", "model.d")
        if self.m < 3:
            raise ConfigError(f"need at least 3 nodes per axis, got {self.m}", "grid_m")
        if not 0 < self.R < math.inf:
            raise ConfigError(f"need a finite box radius R > 0, got {self.R}", "grid_R")

    @property
    def dx(self):
        return 2.0 * self.R / (self.m - 1)

    @property
    def axes(self):
        ax = np.linspace(-self.R, self.R, self.m)
        return [ax] * self.d

    def points(self):
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=1)

    @property
    def shape(self):
        return (self.m,) * self.d


class GridFunction:
    """Vector field known on a space(-time) grid, with multilinear interp.

    ``values`` has shape ``(n_t, *grid.shape, k)`` when a time axis is
    present, else ``(*grid.shape, k)``, for any number ``k`` of components.
    Called as ``f(x, t)``; without a time axis ``t`` is ignored, so callers
    pass it either way, and with one ``t`` is a scalar clipped to
    ``[times[0], times[-1]]``.  A point more than 1e-12 outside the box (or
    not finite) raises ``OutOfDomain``; closer ones are clipped onto it.
    The cell of a point is found by index arithmetic on the uniform space
    axes and by one search on the increasing ``times``; the corners are
    weighted and summed in the order of scipy's ``RegularGridInterpolator``.
    """

    def __init__(self, grid, values, times=None):
        self.grid = grid
        self.times = None if times is None else np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != grid.d + 1 + (times is not None):
            raise ValueError("grid function values need one component axis")
        if not np.isfinite(self.values).all():
            raise ValueError("grid function values must be finite")
        self._axis = grid.axes[0]
        self._gaps = np.diff(self._axis)

    def __call__(self, x, t=None):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        R = self.grid.R
        if not np.abs(x).max() <= R + 1e-12:  # also catches NaN
            raise OutOfDomain(f"point leaves the grid box [-{R}, {R}]^d")
        x = np.clip(x, -R, R)
        i = np.minimum(((x + R) / self.grid.dx).astype(np.intp), self.grid.m - 2)
        w = (x - self._axis[i]) / self._gaps[i]
        # per axis: (lower node, its weight), (upper node, its weight), with
        # the weights as columns that broadcast over the components
        cells = [((i[:, k], 1.0 - w[:, k:k + 1]), (i[:, k] + 1, w[:, k:k + 1]))
                 for k in range(self.grid.d)]
        if self.times is not None:
            j, wt = self._time_cell(t)
            cells.insert(0, ((j, 1.0 - wt), (j + 1, wt)))
        out = 0.0
        for corner in itertools.product(*cells):
            idx, weights = zip(*corner)
            out = out + self.values[idx] * reduce(mul, weights)
        return out

    def _time_cell(self, t):
        """(j, w): t, clipped to the time nodes, is at weight w from times[j]."""
        if t is None:
            raise ValueError("time-dependent grid function needs t")
        ts = self.times
        t = min(max(float(t), ts[0]), ts[-1])
        j = min(int(np.searchsorted(ts, t, side="right")) - 1, len(ts) - 2)
        return j, (t - ts[j]) / (ts[j + 1] - ts[j])

    def _values_at(self, t):
        """Values on the space nodes at t, linear between two time nodes."""
        j, wt = self._time_cell(t)
        return (1.0 - wt) * self.values[j] + wt * self.values[j + 1]

    def gradient_values(self):
        """Central-difference Jacobians, shape (..., d_space, d_comp)."""
        return _jacobians(self.values, self.grid.dx, self.grid.d)

    def sup_norm(self):
        return float(np.linalg.norm(self.values, axis=-1).max())

    def grad_bound(self):
        """Lipschitz constant of the interpolant: its largest cell slope.

        In a cell, the Jacobian of the multilinear interpolant is affine in
        the point and, between two time nodes, in t, so its operator norm,
        convex in each, peaks at a cell corner and a time node.  There the
        partial derivatives are forward differences along the cell's edges.
        The norm of a 2 x 2 matrix [[a, b], [c, d]] is half the sum of
        hypot(a + d, b - c) and hypot(a - d, b + c).
        """
        ax = 0 if self.times is None else 1
        s1 = np.diff(self.values, axis=ax) / self.grid.dx  # slopes along x1
        if self.grid.d == 1:
            return float(np.abs(s1).max())
        s2 = np.diff(self.values, axis=ax + 1) / self.grid.dx  # slopes along x2
        norms = [
            np.hypot(p[..., 0] + q[..., 1], p[..., 1] - q[..., 0])
            + np.hypot(p[..., 0] - q[..., 1], p[..., 1] + q[..., 0])
            for p in (s1[..., :-1, :], s1[..., 1:, :])  # cell edges at x2 = lower, upper node
            for q in (s2[..., :-1, :, :], s2[..., 1:, :, :])  # at x1 = lower, upper node
        ]
        return float(max(n.max() for n in norms) / 2)


def _jacobians(values, dx, d):
    """Jacobians (..., *space, d, k) of ``values`` (..., *space, k) by
    ``np.gradient`` along the d space axes before the component axis:
    central differences inside the box, one-sided at its faces."""
    return np.stack([np.gradient(values, dx, axis=ax - d - 1) for ax in range(d)], axis=-2)


# ---------------------------------------------------------------------------
# homeomorphism Phi = id + u
# ---------------------------------------------------------------------------


@dataclass
class Homeomorphism:
    u: GridFunction
    grad_bound: float
    lam: float
    threshold: float

    def phi(self, x, t=None):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return x + self.u(x, t)

    def phi_inv(self, y, t=None, tol=1e-10):
        """Fixed-point inversion x_{k+1} = y - u(x_k); geometric convergence.

        In d = 1 the interpolated u is linear between nodes, so Phi_t is
        piecewise linear with node images z_i = x_i + u_t(x_i); where z is
        strictly increasing, ``np.interp(y, z, x)`` is its exact inverse up
        to rounding and the iteration starts there, so one step usually
        meets ``tol``.  In d = 2, or where z does not increase (a cell slope
        of u at or below -1), it starts from y.  Either way each point keeps
        the first iterate whose own step is below ``tol``, so its preimage
        does not depend on the rest of the batch.
        """
        y = np.atleast_2d(np.asarray(y, dtype=float))
        z = self._node_images(t)
        x = y.copy() if z is None else np.interp(y, z, self.u._axis)
        done = np.zeros(len(y), dtype=bool)
        for _ in range(200):
            x_new = y - self.u(x, t)
            steps = np.abs(x_new - x).max(axis=1)
            x = np.where(done[:, None], x, x_new)
            done |= steps < tol
            if done.all():
                return x
        raise OutOfDomain("inversion did not converge inside the grid box")

    def _node_images(self, t):
        """Strictly increasing node images of the 1-D Phi_t, else None."""
        if self.u.grid.d != 1:
            return None
        if self.u.times is None:
            return self._static_node_images
        return self._increasing_images(self.u._values_at(t))

    @cached_property
    def _static_node_images(self):
        return self._increasing_images(self.u.values)

    def _increasing_images(self, values):
        z = self.u._axis + values[:, 0]
        return z if (np.diff(z) > 0).all() else None

    def jacobian(self, x, t=None):
        """I + grad u at given points, interpolated from the grid Jacobians."""
        jac = self._grad_u(x, t)
        d = self.u.grid.d
        return np.eye(d)[None] + jac.reshape(len(jac), d, d).transpose(0, 2, 1)

    @cached_property
    def _grad_u(self):
        jac = self.u.gradient_values()
        flat = jac.reshape(jac.shape[:-2] + (self.u.grid.d**2,))
        return GridFunction(self.u.grid, flat, self.u.times)


def build_phi(u, lam=0.0, threshold=DINI_GRAD_THRESHOLD):
    """Accept u as a homeomorphism iff its measured gradient is below threshold."""
    g = u.grad_bound()
    if g >= threshold:
        raise GradientTooLarge(g, threshold)
    return Homeomorphism(u=u, grad_bound=g, lam=lam, threshold=threshold)


# ---------------------------------------------------------------------------
# sparse generators
# ---------------------------------------------------------------------------


def splu(A):
    """SuperLU factorization of the square ``_Csc`` matrix ``A``.

    ``A``'s arrays, with sorted rows and no duplicate in a column, go
    straight to the compiled SuperLU that scipy bundles, loaded alone at the
    first call, with the options ``scipy.sparse.linalg.splu`` passes, so the
    factors and their solves are scipy's.  An exactly singular ``A`` raises
    ``RuntimeError``.  Every factorization goes through this name, so code
    that patches or spies on ``zvonkin.splu`` (the benchmark's tracer, the
    tests) sees each.
    """
    superlu = _scipy_extension("scipy.sparse.linalg._dsolve._superlu")
    n, m = A.shape
    if n != m:
        raise ValueError("can only factor square matrices")
    return superlu.gstrf(
        n, len(A.data), np.ascontiguousarray(A.data, dtype=float),
        np.ascontiguousarray(A.indices, dtype=np.intc),
        np.ascontiguousarray(A.indptr, dtype=np.intc),
        csc_construct_func=lambda arrays, shape: _Csc(*arrays, shape),
        ilu=False,
        options=dict(DiagPivotThresh=None, ColPerm=None, PanelSize=None, Relax=None),
    )


def _operator_matrix(grid, a_vals, b_vals, neumann):
    """Sparse discretization of 1/2 a : grad^2 + b . grad on the box, as ``_Csc``.

    ``a_vals``: (M, d, d) diffusion matrices per node; ``b_vals``: (M, d) or
    None.  Central differences, with the mixed term by cross differences in
    2-D.  The entries of ``_stencil_entries`` that share a place are summed
    in the order it lists them.  scipy's ``csc_matrix`` of the same entries
    has the same arrays wherever its column sort (``std::sort``) keeps that
    order, in columns of at most 16 entries: all but the columns next to a
    mirrored 2-D boundary.
    """
    M = grid.m**grid.d
    rows, cols, data = _stencil_entries(grid, a_vals, b_vals, neumann)
    key = cols * M + rows
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.r_[True, key[1:] != key[:-1]]
    places = key[first]
    # np.add.at adds a place's terms in stencil order onto -0.0, the exact
    # additive identity: scipy's left-to-right sum, bit for bit
    summed = np.full(len(places), -0.0)
    np.add.at(summed, np.cumsum(first) - 1, data[order])
    indptr = np.searchsorted(places, np.arange(M + 1) * M)
    return _Csc(summed, (places % M).astype(np.int32), indptr.astype(np.int32), (M, M))


def _stencil_entries(grid, a_vals, b_vals, neumann):
    """(rows, cols, data) of every stencil term of ``_operator_matrix``.

    Each stencil offset carries a coefficient array over all nodes, listed
    offset by offset; out-of-box neighbours are dropped (homogeneous
    Dirichlet) or mirrored across the boundary node (reflecting Neumann,
    zero normal gradient), so a place can receive several terms.
    """
    m, d, dx = grid.m, grid.d, grid.dx
    M = m**d
    eye = np.eye(d, dtype=int)
    diag = [0.5 * a_vals[:, i, i] / dx**2 for i in range(d)]
    stencil = [((0,) * d, sum(-2 * a for a in diag))]
    # the drift is listed first: the stencil order fixes the order in which
    # a place's terms are summed, and test_operators_match_scipy pins it
    if b_vals is not None:
        for i in range(d):
            bi = b_vals[:, i] / (2 * dx)
            stencil += [(-eye[i], -bi), (eye[i], bi)]
    for i in range(d):
        stencil += [(-eye[i], diag[i]), (eye[i], diag[i])]
    if d == 2:
        axy = 0.5 * (a_vals[:, 0, 1] + a_vals[:, 1, 0]) / (4 * dx**2)
        stencil += [((1, 1), axy), ((-1, -1), axy), ((1, -1), -axy),
                    ((-1, 1), -axy)]
    nodes = np.indices(grid.shape).reshape(d, M)
    rows, cols, data = [], [], []
    for offset, coef in stencil:
        nb = nodes + np.asarray(offset)[:, None]
        if neumann:
            nb = (m - 1) - np.abs((m - 1) - np.abs(nb))
        keep = ((nb >= 0) & (nb < m)).all(axis=0)
        rows.append(np.flatnonzero(keep))
        cols.append(np.ravel_multi_index(tuple(nb[:, keep]), grid.shape))
        data.append(coef[keep])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(data)


def _shifted(A, scale, shift):
    """``scale * A + shift * I`` as ``_Csc``; ``A`` stores its whole diagonal.

    Entries that come out exactly zero are dropped, as scipy's sparse sums
    drop them, so ``_shifted(L, -c, 1.0)`` holds the entries of scipy's
    ``eye - c * L`` and ``_shifted(L, -1.0, lam)`` those of ``lam * eye - L``.
    """
    data = scale * A.data
    cols = np.repeat(np.arange(A.shape[1]), np.diff(A.indptr))
    data[A.indices == cols] += shift
    keep = data != 0
    # each column start moves back by the number of zeros before it
    indptr = A.indptr - np.searchsorted(np.flatnonzero(~keep), A.indptr)
    return _Csc(data[keep], A.indices[keep], indptr.astype(A.indptr.dtype), A.shape)


def _diffusion_values(sigma_fn, pts, t=0.0):
    sig = sigma_fn(t, pts)
    return np.einsum("nij,nkj->nik", sig, sig)


# ---------------------------------------------------------------------------
# parabolic pipeline (time-dependent model)
# ---------------------------------------------------------------------------


def _parabolic_map(model, lam, sgrid, times):
    """The resolvent integral map u -> M(u) on the space-time grid.

    One backward Crank-Nicolson sweep of the reference semigroup with
    source grad_b u + b, b contracted against the ``_jacobians`` of u,
    using exact exponential weights for the resolvent factor.  Each step
    solves with node j's one factor of I - cL, c = h/2, as
    (I - cL)^{-1} (I + cL) r = 2 (I - cL)^{-1} r - r.  A time node
    reuses the previous node's factor while ``sigma sigma*`` and ``B``
    take the same values there, so an autonomous reference equation is
    factored once.  ``u`` and ``M(u)`` have shape ``(len(times), M, d)``.
    """
    pts = sgrid.points()
    n_time = len(times) - 1
    h = model.T / n_time
    ehl = math.exp(-lam * h)
    # trapezoid-in-the-source with exact resolvent weights
    i0 = (1.0 - ehl) / lam
    i1 = (1.0 - ehl * (1.0 + lam * h)) / lam**2
    w0 = i0 - i1 / h
    w1 = i1 / h
    c = 0.5 * h  # Crank-Nicolson: both half steps through the factor of I - c L
    steps, coeffs = [], None
    for t in times[:-1]:
        a_vals, B_vals = _diffusion_values(model.sigma, pts, t), model.B(t, pts)
        if coeffs is None or not (np.array_equal(a_vals, coeffs[0])
                                  and np.array_equal(B_vals, coeffs[1])):
            L = _operator_matrix(sgrid, a_vals, B_vals, neumann=True)
            step = splu(_shifted(L, -c, 1.0))
            coeffs = a_vals, B_vals
        steps.append(step)
    b_grid = np.stack([model.b(t, pts) for t in times])
    d = sgrid.d

    def apply(u):
        jac = _jacobians(u.reshape(-1, *sgrid.shape, d), sgrid.dx, d)
        G = b_grid + np.einsum("tmi,tmij->tmj", b_grid, jac.reshape(u.shape + (d,)))
        out = np.zeros_like(u)
        for j in range(n_time - 1, -1, -1):
            rhs = ehl * out[j + 1] + w1 * G[j + 1]
            out[j] = 2.0 * steps[j].solve(rhs) - rhs + w0 * G[j]
        return out

    return apply


def solve_u_parabolic(model, lam, sgrid, n_time=64, tol=1e-8):
    """Fixed point of the resolvent integral map for the time-dependent model.

    Picard iteration of ``_parabolic_map``.  Returns ``(u, history)`` where
    ``history`` lists ``(sup_change, ratio)`` per iteration.  Raises
    NotContractive when the ratio stays >= 1 for three iterations.
    """
    if n_time < 1:
        raise ConfigError(f"need n_time >= 1, got {n_time}", "n_time")
    if not lam > 0:
        raise ConfigError(f"need lam > 0, got {lam}", "lam")
    if not tol > 0:
        raise ConfigError(f"need tol > 0, got {tol}", "tol")
    d = sgrid.d
    times = np.linspace(0.0, model.T, n_time + 1)
    step = _parabolic_map(model, lam, sgrid, times)
    u = np.zeros((n_time + 1, sgrid.m**d, d))
    history = []
    prev_change = None
    bad = 0
    for _ in range(60):
        new_u = step(u)
        change = float(np.abs(new_u - u).max())
        ratio = None if prev_change in (None, 0.0) else change / prev_change
        history.append((change, ratio))
        u = new_u
        if ratio is not None and ratio >= 1.0:
            bad += 1
            if bad >= 3:
                raise NotContractive(lam, [r for _, r in history if r is not None])
        else:
            bad = 0
        if change < tol:
            break
        prev_change = change
    else:
        raise NotContractive(lam, [r for _, r in history if r is not None])
    values = u.reshape(n_time + 1, *sgrid.shape, d)
    return GridFunction(sgrid, values, times), history


def apply_parabolic_map(model, lam, u_fn):
    """One application of the integral map to a computed fixed point (residual)."""
    sgrid = u_fn.grid
    u = u_fn.values.reshape(len(u_fn.times), -1, sgrid.d)
    step = _parabolic_map(model, lam, sgrid, u_fn.times)
    return float(np.abs(step(u) - u).max())


def solve_u_parabolic_auto(model, sgrid, n_time=64, tol=1e-8, lam0=8.0):
    """Double lambda until the map contracts and the gradient bound is below
    ``DINI_GRAD_THRESHOLD``; after 10 failed tries, re-raise the last failure."""
    lam = lam0
    trace = []
    for _ in range(10):
        try:
            u, history = solve_u_parabolic(model, lam, sgrid, n_time, tol)
            phi = build_phi(u, lam=lam)
            trace.append((lam, "accepted", phi.grad_bound))
            return phi, history, trace
        except NotContractive as e:
            trace.append((lam, "not_contractive", None))
            failure = e
        except GradientTooLarge as e:
            trace.append((lam, "gradient_too_large", e.grad_bound))
            failure = e
        lam *= 2.0
    raise failure


# ---------------------------------------------------------------------------
# elliptic pipeline (autonomous model)
# ---------------------------------------------------------------------------


def solve_u_elliptic(model, lam, sgrid):
    """Solve lam u - 1/2 a : grad^2 u - b1 . grad u = b1 on the box.

    With L = 1/2 a : grad^2 + b1 . grad by central differences, one SuperLU
    factorization of lam I - L and one solve for the d components of b1.
    This sign makes the image drift lam u + (I + grad u) b2: b1 drops out.
    Every neighbour outside the box is a zero ghost node (homogeneous
    Dirichlet far field), for the drift as for the diffusion; the caller
    chooses an enlarged box so boundary effects are negligible near the
    region of interest.  An exactly singular lam I - L raises
    EllipticSolverError.
    """
    if not lam >= 0:
        raise ConfigError(f"need lam >= 0, got {lam}", "lam")
    pts = sgrid.points()
    b1 = model.b1(0.0, pts)
    L = _operator_matrix(sgrid, _diffusion_values(model.sigma, pts), b1, neumann=False)
    try:
        u = splu(_shifted(L, -1.0, lam)).solve(b1)
    except RuntimeError as e:
        raise EllipticSolverError(str(e)) from e
    if not np.isfinite(u).all():
        raise EllipticSolverError("elliptic solution is non-finite")
    return GridFunction(sgrid, u.reshape(*sgrid.shape, sgrid.d))


# ---------------------------------------------------------------------------
# semigroup Monte Carlo spot checks
# ---------------------------------------------------------------------------

# check_gradient_estimate shifts x by FD_SCALE * sqrt(gap) either way
FD_SCALE = 0.2


def _at_horizon(model, value, t, starts, n, seed, n_steps, shape=()):
    """Per-path ``value(states)`` of the reference equation at time t, (n,) + shape.

    Every start in ``starts`` is a state of one run over path ids 0..n-1,
    so all of them share each path's noise (common random numbers).
    """
    grid = TimeGrid(t, n_steps)

    def at_last_step(acc, k, _, zs):
        if k == n_steps - 1:
            acc[:] = value(zs)

    fns = [model.reference_sim_functions(grid)] * len(starts)
    return _path_chunks(fns, starts, grid, seed, range(n), "em",
                        {"value": (shape, at_last_step)})["value"]


def estimate_P0(model, f, t, x, n=10000, seed=0):
    """Monte Carlo value of the reference semigroup applied to f at (0, t, x).

    Returns the mean of f over n paths and its standard error.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    vals = _at_horizon(model, lambda zs: f(zs[0]), t, [x], n, seed, 64)
    return float(vals.mean()), float(_mean_stderr(vals))


def check_gradient_estimate(model, f, x, gaps, n=100000, seed=0, n_steps=32):
    """Finite-difference semigroup gradients of P_{0,gap} f at x across gaps.

    Per gap, the 2d shifts x +/- eps e_c run as coupled states of one run
    on path ids 0..n-1 (common random numbers), so each path is drawn and
    stepped once; component c and its stderr come from the per-path
    difference of the pair x +/- eps e_c.  Fits the log-log growth exponent
    of |grad P0 f| in the gap and reports the implied constant of a
    c / sqrt(gap) law.  Raises InconclusiveEstimate when noise dominates.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = len(x)
    grads, stderrs = [], []
    for gi, gap in enumerate(gaps):
        eps = FD_SCALE * math.sqrt(gap)
        starts = []
        for e in eps * np.eye(d):
            starts += [x + e, x - e]

        def differences(zs):
            # dtype=float also takes an indicator f, whose bools do not subtract
            return np.stack([np.subtract(f(zs[2 * c]), f(zs[2 * c + 1]), dtype=float)
                             for c in range(d)], axis=1) / (2 * eps)

        diffs = _at_horizon(model, differences, gap, starts, n, seed + 7919 * gi,
                            n_steps, (d,))
        # one contiguous row per component: each reduces as a 1-D array would
        per_comp = np.ascontiguousarray(diffs.T)
        comps = per_comp.mean(axis=1)
        errs = _mean_stderr(per_comp, axis=1)
        grads.append(float(np.linalg.norm(comps)))
        stderrs.append(float(np.linalg.norm(errs)))
    grads_a, stderrs_a = np.array(grads), np.array(stderrs)
    signal = grads_a > 2 * stderrs_a
    if signal.sum() < max(2, len(gaps) // 2):
        raise InconclusiveEstimate("MC noise exceeds the gradient signal")
    loggap = np.log(np.asarray(gaps, dtype=float)[signal])
    exponent = float(np.polyfit(loggap, np.log(grads_a[signal]), 1)[0])
    c_hat = float(np.exp(np.mean(np.log(grads_a[signal]) + 0.5 * loggap)))
    return {
        "gaps": list(map(float, gaps)),
        "gradients": grads,
        "stderrs": stderrs,
        "exponent": exponent,
        "c_hat": c_hat,
    }


# ---------------------------------------------------------------------------
# transformed model and its measured constants
# ---------------------------------------------------------------------------


class TransformedModel:
    """Coefficients of the image equation Y = Phi(X).

    Autonomous case: drift = (lam u + (I + grad u) b2) o Phi^{-1},
    diffusion = ((I + grad u) sigma) o Phi^{-1}.  Time-dependent case:
    drift = (lam u_t + B_t) o Phi_t^{-1}.

    Both coefficients are evaluated at the same preimage, so drift and
    sigma share one Phi_t^{-1}(y) per (t, y): the last inversion is kept
    and reused while t and the values of y are unchanged.
    """

    def __init__(self, phi, model, lam):
        self.phi = phi
        self.model = model
        self.lam = lam
        self.d = model.d
        self.T = model.T
        self.kind = model.kind
        self._last_inv = None

    def _preimage(self, t, y):
        # keyed on the values of y: simulation drivers update states in place
        last = self._last_inv
        if last is not None and last[0] == t and np.array_equal(y, last[1]):
            return last[2]
        x = self.phi.phi_inv(y, t)
        self._last_inv = (t, y.copy(), x)
        return x

    def drift(self, t, y):
        y = np.atleast_2d(np.asarray(y, dtype=float))
        x = self._preimage(t, y)
        if self.kind == "dini":
            return self.lam * self.phi.u(x, t) + self.model.B(t, x)
        jac = self.phi.jacobian(x, t)
        b2 = self.model.b2(t, x)
        return self.lam * self.phi.u(x, t) + np.einsum("nij,nj->ni", jac, b2)

    def sigma(self, t, y):
        y = np.atleast_2d(np.asarray(y, dtype=float))
        x = self._preimage(t, y)
        jac = self.phi.jacobian(x, t)
        return np.einsum("nij,njk->nik", jac, self.model.sigma(t, x))

    def sim_functions(self, grid):
        return self.drift, self.sigma


def identity_transform(model, sgrid, times=None):
    """Phi = id (u = 0); useful for baseline pipelines."""
    if times is None:
        u = GridFunction(sgrid, np.zeros((*sgrid.shape, sgrid.d)))
    else:
        u = GridFunction(
            sgrid, np.zeros((len(times), *sgrid.shape, sgrid.d)), times
        )
    phi = Homeomorphism(u=u, grad_bound=0.0, lam=0.0, threshold=1.0)
    return TransformedModel(phi, model, 0.0)


def verify_tilde_conditions(tm, seed=0):
    """Fit the tightest drift constants of the transformed equation.

    The drift is sampled at t = 0 on 64 radii up to 0.85 of the grid box,
    along 8 random directions.  Dissipative tag: kappa1 from the asymptotic
    inner-product ratio, kappa2 as the residual offset, kappa3 from the
    growth ratio.  Linear tag: kappa4 from the growth ratio.  Raises
    FitFailure when no finite constants fit.
    """
    model = tm.model
    tag = getattr(model, "tag", "linear_growth")
    r = getattr(model, "r", 0.0)
    d = tm.d
    R = 0.85 * tm.phi.u.grid.R
    rng = np.random.default_rng(seed)
    radii = np.linspace(R / 64, R, 64)
    dirs = rng.standard_normal((8, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, d)
    b = tm.drift(0.0, pts)
    norm_y = np.linalg.norm(pts, axis=1)
    norm_b = np.linalg.norm(b, axis=1)
    if tag == "linear_growth":
        k4 = float((norm_b / (1.0 + norm_y)).max())
        return {"tag": tag, "kappa4": k4}
    inner = np.einsum("nd,nd->n", pts, b)
    outer = norm_y >= 0.5 * R
    ratios = -inner[outer] / norm_y[outer] ** (2.0 + r)
    k1 = float(ratios.min())
    if k1 <= 0:
        worst = pts[outer][int(np.argmin(ratios))]
        raise FitFailure("no positive dissipativity constant fits", worst)
    k2 = float(np.maximum(inner + k1 * norm_y ** (2.0 + r), 0.0).max())
    k3 = float((norm_b / (1.0 + norm_y ** (1.0 + r))).max())
    return {"tag": tag, "r": r, "kappa1": k1, "kappa2": k2, "kappa3": k3}


# ---------------------------------------------------------------------------
# pathwise consistency of the transform
# ---------------------------------------------------------------------------


def pathwise_consistency(model, phi, lam, x0, n_steps_list, seed=0, n_paths=512):
    """Mesh sweep of E sup_t |Phi_t(X_t) - Y_t| under shared noise.

    X runs the original recursion, Y the transformed one started at
    Phi_0(x0).  Errors must decrease toward 0 under refinement; the fitted
    log2 rate is reported.  Raises ConsistencyFailure when three successive
    refinements fail to decrease.
    """
    tm = TransformedModel(phi, model, lam)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    rows = []
    for n_steps in n_steps_list:
        grid = TimeGrid(model.T, n_steps)
        fns = [model.sim_functions(grid), tm.sim_functions(grid)]
        gap = _sup_gaps(lambda t, x, y: np.linalg.norm(phi.phi(x, t) - y, axis=1))
        errs = _path_chunks(fns, [x0, phi.phi(x0[None], 0.0)[0]], grid, seed,
                            range(n_paths), "em", {"gap": ((1,), gap)})["gap"]
        rows.append((n_steps, float(errs[:, 0].mean())))
    errors = np.array([e for _, e in rows])
    if len(errors) >= 4 and errors.max() > 0:
        diffs = np.diff(errors)
        if (diffs[-3:] >= 0).all() and errors[-1] > 1e-14:
            raise ConsistencyFailure(f"errors not decreasing: {rows}")
    rate = None
    pos = errors > 0
    if pos.sum() >= 2:
        steps = np.log2([n for n, _ in rows])
        rate = float(np.polyfit(steps[pos], -np.log2(errors[pos]), 1)[0])
    return {"rows": rows, "rate": rate}
