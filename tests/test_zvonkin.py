import functools
import math
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.interpolate import RegularGridInterpolator
from scipy.sparse.linalg import splu as scipy_splu

from sdetci import (
    CallableModel,
    GradientTooLarge,
    GridFunction,
    Homeomorphism,
    NotContractive,
    SpaceGrid,
    TimeGrid,
    TransformedModel,
    brownian_increments,
    build_phi,
    check_gradient_estimate,
    dini_benchmark_config,
    estimate_P0,
    model_from_config,
    ou_singular_config,
    pathwise_consistency,
    solve_u_elliptic,
    solve_u_parabolic,
    solve_u_parabolic_auto,
    verify_tilde_conditions,
)
from sdetci import simulate, zvonkin
from sdetci.errors import ConfigError, EllipticSolverError, FitFailure, OutOfDomain
from sdetci.models import DiniModelSpec, ModulusSpec
from sdetci.zvonkin import (
    _diffusion_values,
    SINGULAR_GRAD_THRESHOLD,
    _operator_matrix,
    apply_parabolic_map,
    identity_transform,
)


def _csc(A):
    """The plain CSC arrays of an operator as a scipy CSC matrix."""
    return sparse.csc_matrix(A[:3], shape=A.shape)


def _assert_same_csc(ours, ref):
    """``ours`` holds scipy's canonical CSC arrays ``ref``, bit for bit."""
    assert ours.shape == ref.shape
    for name in ("data", "indices", "indptr"):
        got, want = getattr(ours, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def _unit_sigma(t, x):
    return np.broadcast_to(np.eye(1), (len(x), 1, 1)).copy()


def _synthetic_dini(a=0.05, lam=2.0):
    """Model whose exact transform field is u(x) = a sin x at level lam.

    The irregular drift part is reverse-engineered so that u solves the
    stationary transform equation with B(x) = -x and unit diffusion.
    """
    B = lambda t, x: -x

    def b(t, x):
        return (lam * a * np.sin(x) + 0.5 * a * np.sin(x)
                + x * a * np.cos(x)) / (1.0 + a * np.cos(x))

    return DiniModelSpec(
        d=1, T=1.0, B=B, b=b, sigma=_unit_sigma,
        modulus=ModulusSpec("lipschitz", L=3.0), b_sup=3.0,
        bounds={"grad_B": 1.0, "sigma": 1.0, "grad_sigma": 0.0,
                "grad2_sigma": 0.0, "inv_a": 1.0},
    )


def _sin_phi(a=0.05, m=4097, R=10.0, lam=2.0):
    sg = SpaceGrid(R, m, 1)
    u = GridFunction(sg, (a * np.sin(sg.axes[0]))[:, None])
    return Homeomorphism(u=u, grad_bound=u.grad_bound(), lam=lam, threshold=0.5)


def _sin_phi_2d():
    """u = 0.3 (sin x2, sin x1): a 2-D map, where phi_inv iterates from y."""
    sg = SpaceGrid(4.0, 161, 2)
    u = GridFunction(sg, (0.3 * np.sin(sg.points()[:, ::-1])).reshape(161, 161, 2))
    return Homeomorphism(u, u.grad_bound(), 0.0, 0.5)


def _fixed_point_from_y(phi, y, t=None, tol=1e-10):
    """x <- y - u(x) from x = y, one point at a time, to the first step below tol."""
    out = []
    for yi in np.atleast_2d(y):
        x = yi[None].copy()
        for _ in range(200):
            x_new = yi - phi.u(x, t)
            if np.abs(x_new - x).max() < tol:
                break
            x = x_new
        else:
            raise OutOfDomain("no convergence")
        out.append(x_new)
    return np.concatenate(out)


class TestGridFunction:
    def test_interpolation_exact_on_nodes(self):
        sg = SpaceGrid(2.0, 33, 1)
        u = GridFunction(sg, np.tanh(sg.axes[0])[:, None])
        np.testing.assert_allclose(
            u(sg.points())[:, 0], np.tanh(sg.axes[0]), atol=1e-14
        )
        # +R sits in the last cell with weight 1, and a point within 1e-12
        # outside the box is clipped onto it
        assert u([[2.0], [2.0 + 5e-13]])[:, 0].tolist() == [np.tanh(2.0)] * 2
        assert u([[-2.0 - 5e-13]])[0, 0] == np.tanh(-2.0)

    @settings(max_examples=60)
    @given(d=st.sampled_from([1, 2]), m=st.integers(3, 24),
           R=st.floats(0.5, 20.0), n_t=st.sampled_from([0, 2, 5]),
           uniform_times=st.booleans(), comps=st.sampled_from([1, "d", "d2"]),
           t_frac=st.floats(-0.5, 1.5), seed=st.integers(0, 2**32 - 1))
    def test_matches_scipy_interpolator(self, d, m, R, n_t, uniform_times,
                                        comps, t_frac, seed):
        rng = np.random.default_rng(seed)
        sg = SpaceGrid(R, m, d)
        k = {1: 1, "d": d, "d2": d * d}[comps]
        times = None
        if n_t:
            steps = (np.ones(n_t - 1) if uniform_times
                     else rng.uniform(0.05, 1.0, n_t - 1))
            times = -0.3 + np.concatenate([[0.0], np.cumsum(steps)])
        lead = () if times is None else (n_t,)
        vals = rng.normal(size=lead + sg.shape + (k,))
        u = GridFunction(sg, vals, times)
        # inside points, nodes, both faces and points just outside them
        ax = sg.axes[0]
        x = np.concatenate([
            rng.uniform(-R, R, size=(40, d)),
            ax[rng.integers(0, m, size=(10, d))],
            np.full((1, d), R), np.full((1, d), -R),
            np.full((1, d), R + 5e-13), np.full((1, d), -R - 5e-13),
        ])
        t = 0.0 if times is None else times[0] + t_frac * (times[-1] - times[0])
        grid = sg.axes if times is None else [times] + sg.axes
        q = np.clip(x, -R, R)
        if times is not None:
            tc = np.clip(t, times[0], times[-1])
            q = np.concatenate([np.full((len(q), 1), tc), q], axis=1)
        oracle = RegularGridInterpolator(grid, vals, bounds_error=True)(q)
        got = u(x, t)
        assert got.shape == oracle.shape
        tol = 8 * np.finfo(float).eps * np.abs(vals).max()
        assert np.abs(got - oracle).max() <= tol
        if times is not None:
            # a time outside the nodes gives the value at the end node
            np.testing.assert_array_equal(u(x, times[0] - 1.0), u(x, times[0]))
            np.testing.assert_array_equal(u(x, times[-1] + 1.0), u(x, times[-1]))

    def test_import_leaves_scipy_interpolate_unloaded(self, child_env):
        # nor any other scipy module: the solvers load theirs at first use
        code = ("import sdetci, sys\n"
                "loaded = [m for m in sys.modules if m.partition('.')[0] == 'scipy']\n"
                "assert not loaded, loaded")
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_gradient_accuracy(self):
        sg = SpaceGrid(3.0, 601, 1)
        u = GridFunction(sg, np.sin(sg.axes[0])[:, None])
        assert u.grad_bound() == pytest.approx(1.0, abs=1e-4)

    def test_out_of_domain(self):
        sg = SpaceGrid(1.0, 11, 1)
        u = GridFunction(sg, np.zeros((11, 1)))
        for x in (5.0, 1.0 + 1e-9, -1.0 - 1e-9):
            with pytest.raises(OutOfDomain):
                u(np.array([[x]]))
        ut = GridFunction(sg, np.zeros((3, 11, 1)), np.linspace(0.0, 1.0, 3))
        with pytest.raises(ValueError, match="needs t"):
            ut(np.array([[0.5]]))

    @pytest.mark.parametrize("R", [np.inf, np.nan])
    def test_box_radius_must_be_finite(self, R):
        with pytest.raises(ConfigError, match="^grid_R: "):
            SpaceGrid(R, 11, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_out_of_domain(self, bad):
        sg = SpaceGrid(1.0, 11, 1)
        u = GridFunction(sg, np.zeros((11, 1)))
        with pytest.raises(OutOfDomain):
            u(np.array([[0.5], [bad]]))
        phi = Homeomorphism(u, 0.0, 0.0, 0.5)
        with pytest.raises(OutOfDomain):
            phi.phi_inv(np.array([[0.5], [bad]]))

    def test_2d_grid(self):
        sg = SpaceGrid(1.0, 21, 2)
        pts = sg.points()
        vals = np.stack([pts[:, 0] * pts[:, 1], pts[:, 0]], axis=1)
        u = GridFunction(sg, vals.reshape(21, 21, 2))
        q = np.array([[0.3, -0.4]])
        out = u(q)
        assert out[0, 0] == pytest.approx(-0.12, abs=1e-3)
        assert out[0, 1] == pytest.approx(0.3, abs=1e-12)
        with pytest.raises(ValueError, match="component axis"):
            GridFunction(sg, vals[:, 0].reshape(21, 21))


class TestHomeomorphism:
    def test_inverse_accuracy(self):
        phi = _sin_phi()
        y = np.array([[0.7], [-2.1], [3.3]])
        x = phi.phi_inv(y, tol=1e-12)
        np.testing.assert_allclose(phi.phi(x), y, atol=1e-10)

    def test_inverse_does_not_depend_on_batch(self):
        # in d = 2 points stop after different numbers of steps
        for phi in (_sin_phi(a=0.3), _sin_phi_2d()):
            d = phi.u.grid.d
            y = np.random.default_rng(2).uniform(-3.0, 3.0, size=(64, d))
            alone = np.concatenate([phi.phi_inv(y[i : i + 1]) for i in range(len(y))])
            np.testing.assert_array_equal(phi.phi_inv(y), alone)

    def test_inverse_contracts_geometrically(self):
        # in d = 2 phi_inv iterates from y, as this loop does
        phi = _sin_phi_2d()
        y = np.array([[1.0, -0.5]])
        x, steps = y.copy(), []
        for _ in range(200):
            x_new = y - phi.u(x)
            steps.append(np.abs(x_new - x).max())
            x = x_new
            if steps[-1] < 1e-12:
                break
        ratios = np.divide(steps[1:], steps[:-1])
        assert len(ratios) > 5
        assert ratios[1:].max() < 0.5  # ratio bounded by the gradient bound
        np.testing.assert_array_equal(phi.phi_inv(y, tol=1e-12), x)

    @settings(max_examples=40)
    @given(a=st.floats(0.0, 0.45), timed=st.booleans(), t=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1), n=st.integers(1, 16))
    def test_1d_inverse_is_exact_to_rounding(self, a, timed, t, seed, n):
        sg = SpaceGrid(5.0, 257, 1)
        x = sg.axes[0]
        if timed:
            times = np.linspace(0.0, 1.0, 5)
            u = GridFunction(sg, a * np.sin(x[None, :] + times[:, None])[..., None], times)
        else:
            u = GridFunction(sg, (a * np.sin(x))[:, None])
        # every cell slope of u, also between time nodes, is at most a
        phi, g, tol = Homeomorphism(u, u.grad_bound(), 0.0, 0.5), a, 1e-10
        y = np.random.default_rng(seed).uniform(-4.0, 4.0, size=(n, 1))
        got = phi.phi_inv(y, t, tol=tol)
        ulp = np.spacing(np.maximum(1.0, np.abs(y)))
        assert (np.abs(phi.phi(got, t) - y) <= 4 * ulp).all()
        alone = np.concatenate([phi.phi_inv(y[i : i + 1], t, tol=tol) for i in range(n)])
        np.testing.assert_array_equal(got, alone)
        # against the iteration from y; beyond the contraction bound, the
        # two results may round y - u(.) to neighbouring doubles
        ref = _fixed_point_from_y(phi, y, t, tol=1e-14)
        assert (np.abs(got - ref) <= g * (tol + 1e-14) / (1 - g) + 2 * ulp).all()

    @pytest.mark.parametrize("name", ["dini", "dini_t"])
    def test_1d_inverse_interpolates_once(self, name, monkeypatch):
        phi = _transform_case(name)[0]
        y = np.linspace(-6.0, 6.0, 50)[:, None]
        calls = []
        interp = GridFunction.__call__

        def counted(self, *args, **kwargs):
            calls.append(1)
            return interp(self, *args, **kwargs)

        monkeypatch.setattr(GridFunction, "__call__", counted)
        phi.phi_inv(y, 0.4)
        assert len(calls) == 1

    def test_1d_inverse_without_increasing_images_starts_from_y(self):
        # one cell of u drops by more than dx, so x + u(x) decreases there
        sg = SpaceGrid(4.0, 41, 1)
        x = sg.axes[0]
        vals = 0.1 * np.sin(x) + np.where(x < 0.1, 0.15, -0.15)
        assert np.diff(x + vals).min() < 0
        phi = Homeomorphism(GridFunction(sg, vals[:, None]), 1.5, 0.0, 0.5)
        # three preimages for y in (0.07, 0.15); none in the box beyond 3.78
        ys = np.r_[np.linspace(-3.95, 3.95, 41), 0.09, 0.11, 0.13]
        converged, refs = [], []
        for y in ys[:, None, None]:
            try:
                ref = _fixed_point_from_y(phi, y)
            except OutOfDomain:
                with pytest.raises(OutOfDomain):
                    phi.phi_inv(y)
                continue
            np.testing.assert_array_equal(phi.phi_inv(y), ref)
            converged.append(y[0])
            refs.append(ref)
        assert 0 < len(converged) < len(ys)
        # the converged points as one batch keep their one-at-a-time results
        np.testing.assert_array_equal(phi.phi_inv(np.array(converged)), np.concatenate(refs))

    def test_build_phi_threshold(self):
        phi = _sin_phi(a=0.05)
        assert build_phi(phi.u, threshold=0.5).grad_bound < 0.1
        steep = _sin_phi(a=0.9)
        with pytest.raises(GradientTooLarge):
            build_phi(steep.u, threshold=0.5)

    def test_lipschitz_ratios_sandwich(self):
        phi = _sin_phi(a=0.2)
        rng = np.random.default_rng(1)
        x = rng.uniform(-5.0, 5.0, (500, 1))
        y = x + rng.uniform(-0.5, 0.5, (500, 1))
        r = (np.linalg.norm(phi.phi(x) - phi.phi(y), axis=1)
             / np.linalg.norm(x - y, axis=1))
        g = phi.grad_bound
        assert r.min() >= 1 - g - 1e-8 and r.max() <= 1 + g + 1e-8

    @settings(max_examples=100)
    @given(d=st.integers(1, 2), m=st.integers(3, 6), n_t=st.sampled_from([0, 2, 3]),
           seed=st.integers(0, 2**32 - 1))
    def test_sandwich_holds_for_the_interpolant(self, d, m, n_t, seed):
        # phi evaluates the multilinear interpolant, so g must bound its
        # slope inside every cell, not only at the nodes
        rng = np.random.default_rng(seed)
        sg = SpaceGrid(1.0, m, d)
        times = np.cumsum(rng.uniform(0.1, 1.0, n_t)) if n_t else None
        u = GridFunction(sg, rng.uniform(-0.2, 0.2, (n_t,) * bool(n_t) + sg.shape + (d,)),
                         times)
        g = u.grad_bound()
        phi = Homeomorphism(u, g, 0.0, 1.0)
        t = rng.uniform(times[0], times[-1]) if n_t else None
        x = rng.uniform(-1.0 + sg.dx / 2, 1.0 - sg.dx / 2, (400, d))
        step = rng.normal(size=(400, d))
        step *= rng.uniform(0.05, 0.5, (400, 1)) * sg.dx / np.linalg.norm(step, axis=1)[:, None]
        for y in (x + step, rng.uniform(-1.0, 1.0, (400, d))):
            dist = np.linalg.norm(x - y, axis=1)
            r = np.linalg.norm(phi.phi(x, t) - phi.phi(y, t), axis=1)
            assert (r <= (1 + g) * dist * (1 + 1e-12)).all()
            assert (r >= (1 - g) * dist * (1 - 1e-12)).all()

    def test_jacobian_identity_for_zero_u(self):
        sg = SpaceGrid(2.0, 21, 1)
        u = GridFunction(sg, np.zeros((21, 1)))
        phi = Homeomorphism(u, 0.0, 0.0, 1.0)
        jac = phi.jacobian(np.array([[0.5]]))
        np.testing.assert_array_equal(jac[0], np.eye(1))


class TestGenerator:
    @settings(max_examples=60)
    @given(d=st.sampled_from([1, 2]), m=st.integers(3, 9), R=st.floats(0.5, 3.0),
           coef=st.lists(st.floats(-2.0, 2.0), min_size=12, max_size=12),
           neumann=st.booleans())
    def test_stencil_exact_on_quadratics(self, d, m, R, coef, neumann):
        # central and cross differences are exact on a quadratic, so on
        # interior nodes the matrix applies 1/2 a : grad^2 f + b . grad f up
        # to rounding, whatever the boundary rule
        c = np.array(coef)
        lower = c[:4].reshape(2, 2)[:d, :d]
        a = lower @ lower.T + 0.1 * np.eye(d)  # constant SPD
        b, q = c[4:6][:d], c[6:10].reshape(2, 2)[:d, :d]
        Q = q + q.T  # the Hessian of f
        g = c[10:12][:d]
        sg = SpaceGrid(R, m, d)
        x = sg.points()
        f = 0.5 * np.einsum("ni,ij,nj->n", x, Q, x) + x @ g
        exact = 0.5 * np.sum(a * Q) + (x @ Q + g) @ b
        L = _operator_matrix(sg, np.broadcast_to(a, (len(x), d, d)),
                             np.broadcast_to(b, (len(x), d)), neumann=neumann)
        inner = (np.abs(x) < R - 0.5 * sg.dx).all(axis=1)
        scale = (1.0 + np.abs(a).max() + np.abs(b).max()) * (1.0 + np.abs(f).max())
        np.testing.assert_allclose((_csc(L) @ f)[inner], exact[inner], rtol=0,
                                   atol=1e-12 * scale / sg.dx**2)

    @pytest.mark.parametrize("d", [1, 2])
    def test_manufactured_solution_second_order_everywhere(self, d):
        # f = prod cos(x_i) has zero normal gradient on [-pi, pi]^d, so the
        # reflecting-Neumann stencil must be O(dx^2) on boundary nodes too
        a = np.array([[1.0, 0.3], [0.3, 0.8]])[:d, :d]
        b = np.array([0.7, -0.4])[:d]
        errs = []
        for m in (41, 81, 161):
            sg = SpaceGrid(math.pi, m, d)
            x = sg.points()
            c, s = np.cos(x), np.sin(x)
            f = c.prod(axis=1)
            grad = -s if d == 1 else -s * c[:, ::-1]
            hess = -f[:, None, None] * np.eye(d)
            if d == 2:
                hess[:, 0, 1] = hess[:, 1, 0] = s.prod(axis=1)
            exact = 0.5 * np.einsum("ij,nij->n", a, hess) + grad @ b
            L = _operator_matrix(sg, np.broadcast_to(a, (len(x), d, d)),
                                 np.broadcast_to(b, (len(x), d)), neumann=True)
            errs.append(float(np.abs(_csc(L) @ f - exact).max()))
        assert errs[1] <= 0.3 * errs[0] and errs[2] <= 0.3 * errs[1], errs


class TestScipyReference:
    """The operators, their shifts and factors against scipy.sparse, bit for bit."""

    @settings(max_examples=80)
    @given(d=st.sampled_from([1, 2]), m=st.integers(3, 9), neumann=st.booleans(),
           drift=st.booleans(), diagonal=st.booleans(), c=st.floats(1e-3, 0.2),
           lam=st.floats(0.5, 20.0), seed=st.integers(0, 2**32 - 1))
    def test_operators_match_scipy(self, d, m, neumann, drift, diagonal, c, lam, seed):
        rng = np.random.default_rng(seed)
        sg = SpaceGrid(2.0, m, d)
        M = m**d
        low = rng.normal(size=(M, d, d))
        if diagonal:  # no cross term: its entries are stored zeros
            low *= np.eye(d)
        a = low @ low.transpose(0, 2, 1) + 0.1 * np.eye(d)
        b = rng.normal(size=(M, d)) * 5.0 if drift else None
        L = _operator_matrix(sg, a, b, neumann)
        rows, cols, data = zvonkin._stencil_entries(sg, a, b, neumann)
        # scipy sorts each column with std::sort, which keeps entries of one
        # row in input order only in columns of at most 16 entries; mirrored
        # 2-D columns hold more, so scipy gets them in column, row and stencil
        # order, which it keeps and sums left to right
        order = np.lexsort((rows, cols))
        _assert_same_csc(L, sparse.csc_matrix(
            (data[order], (rows[order], cols[order])), shape=(M, M)))
        if np.bincount(cols).max() <= 16:
            _assert_same_csc(L, sparse.csc_matrix((data, (rows, cols)), shape=(M, M)))

        S, eye = _csc(L), sparse.eye(M, format="csc")
        shifted = [(zvonkin._shifted(L, -c, 1.0), eye - c * S),
                   (zvonkin._shifted(L, c, 1.0), eye + c * S),
                   (zvonkin._shifted(L, 1.0, -lam), (S - lam * sparse.eye(M)).tocsc())]
        for ours, ref in shifted:
            _assert_same_csc(ours, ref)
            assert (ours.data != 0).all()  # scipy's sums drop exact zeros

        x = rng.normal(size=(M, d))
        for op in (shifted[0][0], shifted[2][0]):
            assert np.array_equal(zvonkin.splu(op).solve(x), scipy_splu(_csc(op)).solve(x))

    @staticmethod
    def _scipy_backend(monkeypatch):
        """Route factorizations through scipy.sparse."""
        monkeypatch.setattr(zvonkin, "splu", lambda A: scipy_splu(_csc(A)))

    @pytest.mark.parametrize("d, m", [(1, 33), (2, 13)])
    def test_parabolic_sweep_matches_scipy_backend(self, d, m, monkeypatch):
        model = model_from_config(dini_benchmark_config(sup=1.0, d=d))
        sg = SpaceGrid(4.0, m, d)
        times = np.linspace(0.0, model.T, 9)
        u = np.random.default_rng(d).normal(size=(len(times), m**d, d)) * 0.1
        ours = zvonkin._parabolic_map(model, 8.0, sg, times)(u)
        self._scipy_backend(monkeypatch)
        assert np.array_equal(ours, zvonkin._parabolic_map(model, 8.0, sg, times)(u))

    @pytest.mark.parametrize("d, m", [(1, 33), (2, 13)])
    @pytest.mark.parametrize("moving", [False, True])
    def test_parabolic_sweep_matches_two_half_steps(self, d, m, moving):
        # the one-factor step 2 (I - cL)^{-1} r - r against the textbook
        # Crank-Nicolson step (I - cL)^{-1} (I + cL) r, both halves built by
        # scipy.sparse; a B that moves in t makes the sweep use several factors
        model = model_from_config(dini_benchmark_config(sup=1.0, d=d))
        if moving:
            model = DiniModelSpec(
                d=d, T=model.T, B=lambda t, x: -(1.0 + 2.0 * t) * x, b=model.b,
                sigma=model.sigma, modulus=model.modulus, b_sup=1.0,
                bounds=model.bounds,
            )
        sg, lam, n_time = SpaceGrid(4.0, m, d), 8.0, 8
        times = np.linspace(0.0, model.T, n_time + 1)
        u = np.random.default_rng(d).normal(size=(len(times), m**d, d)) * 0.1
        pts, h = sg.points(), model.T / n_time
        ehl = math.exp(-lam * h)
        i0, i1 = (1.0 - ehl) / lam, (1.0 - ehl * (1.0 + lam * h)) / lam**2
        b_grid = np.stack([model.b(t, pts) for t in times])
        shaped = u.reshape(len(times), *sg.shape, d)
        G = b_grid + sum(b_grid[..., ax:ax + 1]
                         * np.gradient(shaped, sg.dx, axis=1 + ax).reshape(u.shape)
                         for ax in range(d))
        eye = sparse.eye(m**d, format="csc")
        want = np.zeros_like(u)
        for j in range(n_time - 1, -1, -1):
            a = zvonkin._diffusion_values(model.sigma, pts, times[j])
            S = _csc(_operator_matrix(sg, a, model.B(times[j], pts), neumann=True))
            rhs = ehl * want[j + 1] + i1 / h * G[j + 1]
            half = (eye + 0.5 * h * S) @ rhs
            want[j] = scipy_splu((eye - 0.5 * h * S).tocsc()).solve(half)
            want[j] += (i0 - i1 / h) * G[j]
        got = zvonkin._parabolic_map(model, lam, sg, times)(u)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("d, m", [(1, 65), (2, 17)])
    def test_elliptic_solve_matches_scipy_backend(self, d, m, monkeypatch):
        cfg = ou_singular_config(kappa=1.0, d=d)
        cfg["b1"] = {"family": "radial_singularity", "c": 0.3, "gamma": 0.4}
        model = model_from_config(cfg)
        sg = SpaceGrid(3.0, m, d)
        ours = solve_u_elliptic(model, 4.0, sg).values
        self._scipy_backend(monkeypatch)
        assert np.array_equal(ours, solve_u_elliptic(model, 4.0, sg).values)

    def test_exactly_singular_factor_raises(self):
        # [[1, 2], [2, 4]] leaves an exact zero pivot
        A = zvonkin._Csc(np.array([1.0, 2.0, 2.0, 4.0]), np.array([0, 1, 0, 1], np.int32),
                         np.array([0, 2, 4], np.int32), (2, 2))
        with pytest.raises(RuntimeError, match="singular"):
            zvonkin.splu(A)


class TestParabolicSolver:
    def test_benchmark_contracts(self):
        model = model_from_config(dini_benchmark_config(sup=1.0))
        sg = SpaceGrid(8.0, 129, 1)
        u, hist = solve_u_parabolic(model, 8.0, sg, n_time=32, tol=1e-8)
        ratios = [r for _, r in hist if r is not None]
        assert max(ratios) < 1.0
        assert u.sup_norm() <= 1.5 / 8.0

    def test_residual_small(self):
        model = model_from_config(dini_benchmark_config(sup=1.0))
        sg = SpaceGrid(8.0, 129, 1)
        u, _ = solve_u_parabolic(model, 8.0, sg, n_time=32, tol=1e-9)
        assert apply_parabolic_map(model, 8.0, u) <= 2e-9

    def test_residual_time_dependent_reference_drift(self):
        # the solver and its residual must apply B(t, .), not B(0, .), and
        # read that B moves in t from its values
        base = model_from_config(dini_benchmark_config(sup=1.0))
        sg = SpaceGrid(8.0, 129, 1)
        us = []
        for B in (lambda t, x: -(1.0 + 2.0 * t) * x, lambda t, x: -x):
            model = DiniModelSpec(
                d=1, T=1.0, B=B, b=base.b, sigma=base.sigma,
                modulus=base.modulus, b_sup=1.0, bounds=base.bounds,
            )
            u, _ = solve_u_parabolic(model, 8.0, sg, n_time=32, tol=1e-10)
            assert apply_parabolic_map(model, 8.0, u) <= 2e-10
            us.append(u.values)
        assert np.abs(us[0] - us[1]).max() > 1e-4

    def test_operators_factored_only_where_coefficients_change(self, monkeypatch):
        base = model_from_config(dini_benchmark_config(sup=1.0))
        moving = DiniModelSpec(
            d=1, T=1.0, B=lambda t, x: -np.minimum(t, 0.5) * x, b=base.b,
            sigma=base.sigma, modulus=base.modulus, b_sup=1.0,
            bounds=base.bounds,
        )
        factor = zvonkin.splu
        calls = []
        monkeypatch.setattr(zvonkin, "splu",
                            lambda A: calls.append(1) or factor(A))
        times = np.linspace(0.0, 1.0, 9)
        sg = SpaceGrid(4.0, 33, 1)
        zvonkin._parabolic_map(base, 8.0, sg, times)
        assert len(calls) == 1
        # B changes at the nodes t = 0, ..., 0.5 and is frozen after
        zvonkin._parabolic_map(moving, 8.0, sg, times)
        assert len(calls) == 1 + 5

    def test_benchmark_2d_contracts(self):
        model = model_from_config(dini_benchmark_config(sup=1.0, d=2))
        sg = SpaceGrid(8.0, 41, 2)
        u, hist = solve_u_parabolic(model, 8.0, sg, n_time=16, tol=1e-9)
        assert max(r for _, r in hist if r is not None) < 1.0
        assert apply_parabolic_map(model, 8.0, u) <= 2e-9

    def test_large_drift_small_lambda_not_contractive(self):
        model = model_from_config(dini_benchmark_config(sup=10.0))
        sg = SpaceGrid(8.0, 65, 1)
        with pytest.raises(NotContractive):
            solve_u_parabolic(model, 1e-3, sg, n_time=16, tol=1e-12)

    def test_auto_lambda_accepts(self):
        model = model_from_config(dini_benchmark_config(sup=1.0))
        sg = SpaceGrid(8.0, 65, 1)
        phi, hist, trace = solve_u_parabolic_auto(model, sg, n_time=16, tol=1e-7)
        assert trace[-1][1] == "accepted"
        assert phi.grad_bound < 0.5

    def test_auto_lambda_reraises_its_last_failure(self, monkeypatch):
        # every try contracts and fails on the gradient: the error is the
        # last one raised, at the last lambda tried (8 * 2^9), not a
        # "not contractive" at a lambda never tried
        failures = []

        def too_steep(u, lam=None, **kwargs):
            failures.append(GradientTooLarge(lam, 0.5))
            raise failures[-1]

        monkeypatch.setattr(zvonkin, "build_phi", too_steep)
        model = model_from_config(dini_benchmark_config(sup=1.0))
        with pytest.raises(GradientTooLarge) as err:
            solve_u_parabolic_auto(model, SpaceGrid(8.0, 33, 1), n_time=8, tol=1e-6)
        assert len(failures) == 10 and err.value is failures[-1]
        assert err.value.grad_bound == 8.0 * 2**9

    def test_manufactured_solution_converges_at_second_order(self):
        # u*(t, x) = (1 - e^{-(T - t)}) cos(x) / 4 on [-pi, pi] has u*(T) = 0
        # and zero slope at the box edge; with B = 0, sigma = 1 it is the
        # fixed point of the map for the drift b = (lam u* - du*/dt - u*''/2)
        # / (1 + u*'), since the map's source is b (1 + u').  The modulus,
        # b_sup and bounds are not read by the solve.  Errors are the sup
        # over every space-time node: 9.06e-4, 2.21e-4 and 5.52e-5 at
        # h/dx^2 ~ 2.5, and 1.14e-3 at h/dx^2 ~ 5.  Swapped trapezoid
        # weights read 1.23e-3, 1.59e-4, 5.15e-5 and 4.14e-3; a flipped
        # source sign reads 0.316.  This pins the Crank-Nicolson regime
        # h/dx^2 <= 5 (ROADMAP F14) and must change with the time scheme.
        T, lam = 1.0, 8.0
        ramp = lambda t: 1.0 - np.exp(-(T - t))
        u_star = lambda t, x: 0.25 * ramp(t) * np.cos(x)

        def b(t, x):
            u_t = -0.25 * np.exp(-(T - t)) * np.cos(x)
            return (lam * u_star(t, x) - u_t + 0.5 * u_star(t, x)) / (
                1.0 - 0.25 * ramp(t) * np.sin(x))

        model = DiniModelSpec(d=1, T=T, B=lambda t, x: np.zeros_like(x), b=b,
                              sigma=lambda t, x: np.ones((len(x), 1, 1)),
                              modulus=ModulusSpec("lipschitz"), b_sup=1.0, bounds={})

        def error(m, n_time):
            sg = SpaceGrid(math.pi, m, 1)
            u, _ = solve_u_parabolic(model, lam, sg, n_time=n_time, tol=1e-12)
            want = u_star(u.times[:, None], sg.axes[0][None, :])
            return np.abs(u.values[..., 0] - want).max()

        errs = np.array([error(41, 16), error(81, 64), error(161, 256)])
        orders = np.log2(errs[:-1] / errs[1:])
        assert ((1.8 <= orders) & (orders <= 2.2)).all(), (errs, orders)
        assert error(41, 8) < 2e-3

    def test_zero_drift_gives_zero_u(self):
        cfg = dini_benchmark_config(sup=1.0)
        cfg["b"] = {"family": "zero"}
        model = model_from_config(cfg)
        sg = SpaceGrid(4.0, 33, 1)
        u, _ = solve_u_parabolic(model, 8.0, sg, n_time=8, tol=1e-12)
        assert u.sup_norm() == 0.0


class TestEllipticSolver:
    def _model(self):
        cfg = ou_singular_config(kappa=1.0)
        cfg["b1"] = {"family": "radial_singularity", "c": 0.3, "gamma": 0.4}
        return model_from_config(cfg)

    @staticmethod
    def _dense_picard(model, lam, sg):
        # Picard iteration of (lam - A) u = b1 + (b1 . grad) u with dense
        # solves, A the diffusion part alone and np.gradient for b1 . grad
        pts = sg.points()
        A = _csc(_operator_matrix(
            sg, _diffusion_values(model.sigma, pts), None, neumann=False
        )).toarray()
        op = lam * np.eye(len(pts)) - A
        b1 = model.b1(0.0, pts)
        d = sg.d
        uu = np.zeros_like(b1)
        for _ in range(100):
            grid_u = uu.reshape(sg.shape + (d,))
            du = [np.gradient(grid_u, sg.dx, axis=ax).reshape(-1, d)
                  for ax in range(d)]
            new = np.linalg.solve(
                op, b1 + sum(b1[:, i:i + 1] * du[i] for i in range(d))
            )
            if np.abs(new - uu).max() < 1e-12:
                return new
            uu = new
        return uu

    def test_matches_dense_solve(self):
        model = self._model()
        sg = SpaceGrid(10.0, 201, 1)
        u = solve_u_elliptic(model, 4.0, sg)
        uu = self._dense_picard(model, 4.0, sg)
        assert np.abs(uu[:, 0] - u.values[:, 0]).max() < 1e-9

    def test_matches_dense_solve_2d(self):
        # checks the (M, d) right-hand side and the 2-D gradient of the
        # solver; the 2-D generator itself is checked by TestGenerator
        cfg = ou_singular_config(kappa=1.0, d=2)
        cfg["b1"] = {"family": "radial_singularity", "c": 0.3, "gamma": 0.4}
        model = model_from_config(cfg)
        sg = SpaceGrid(3.0, 21, 2)
        u = solve_u_elliptic(model, 4.0, sg)
        uu = self._dense_picard(model, 4.0, sg)
        assert np.abs(uu - u.values.reshape(-1, 2)).max() < 1e-9

    @pytest.mark.parametrize("d, m, R", [(1, 201, 10.0), (2, 21, 3.0)])
    def test_matches_dense_reference(self, d, m, R):
        # b1 = sin x is nonzero on the box edge, where the zero ghost node
        # of the drift stencil and np.gradient's one-sided difference part
        # ways: the solve is the operator's, lam I - L with b1 in L
        cfg = ou_singular_config(kappa=1.0, d=d)
        cfg["b1"] = {"family": "bounded_sin"}
        if d == 2:
            cfg["sigma"] = {"family": "sin_perturbed", "value": np.eye(2).tolist(),
                            "eps": 0.2}
        model = model_from_config(cfg)
        sg = SpaceGrid(R, m, d)
        pts = sg.points()
        b1 = model.b1(0.0, pts)
        L = _csc(_operator_matrix(sg, _diffusion_values(model.sigma, pts), b1,
                                  neumann=False)).toarray()
        want = np.linalg.solve(4.0 * np.eye(len(pts)) - L, b1)
        got = solve_u_elliptic(model, 4.0, sg).values.reshape(-1, d)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("b1, B1, orders, err_max", [
        ({"family": "bounded_sin", "amplitude": 0.3},
         lambda s: 0.3 * (1.0 - np.cos(s)), (1.8, 2.2), 5e-5),
        ({"family": "radial_singularity", "c": 0.3, "gamma": 0.4},
         lambda s: 0.3 * np.minimum(np.abs(s), 1.0) ** 0.6 / 0.6, (0.85, 1.15), 7e-3),
    ], ids=["smooth", "singular"])
    def test_scale_function_oracle(self, b1, B1, orders, err_max):
        # at lam = 0 in d = 1, u''/2 + b1 (1 + u') = 0 integrates in closed
        # form: 1 + u' = C exp(-2 B1), B1 the primitive of b1, and the zero
        # ghost nodes at +-L, L = R + dx, fix u(-L) = u(L) = 0, so
        # u(x) = C int_{-L}^x exp(-2 B1) - (x + L) with C = 2L / int_{-L}^L.
        # Errors at m = 61, 121, 241: 6.01e-4, 1.46e-4, 3.61e-5 for the
        # smooth b1, and 2.00e-2, 1.03e-2, 5.23e-3 at the singularity.  A
        # source of -b1 gives -u, about 2 sup|u| away (1.1 for the smooth b1)
        cfg = ou_singular_config(kappa=1.0)
        cfg["b1"] = b1
        model = model_from_config(cfg)
        errs = []
        for m in (61, 121, 241):
            sg = SpaceGrid(3.0, m, 1)
            L = sg.R + sg.dx
            s = np.linspace(-L, L, 400_001)
            w = np.exp(-2.0 * B1(s))
            cum = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(s))])
            want = np.interp(sg.axes[0], s, 2.0 * L * cum / cum[-1] - (s + L))
            u = solve_u_elliptic(model, 0.0, sg).values[:, 0]
            errs.append(np.abs(u - want).max())
        got = np.log2(np.array(errs[:-1]) / errs[1:])
        assert ((orders[0] <= got) & (got <= orders[1])).all(), (errs, got)
        assert errs[-1] < err_max

    def test_image_paths_follow_phi(self):
        # Ito's formula: Phi(X) has drift lam u + (I + grad u) b2, the image
        # drift, only if lam u - L u = b1; with -b1 the image misses 2 b1 and
        # the gap stays near 0.35 under refinement
        model = self._model()
        u = solve_u_elliptic(model, 4.0, SpaceGrid(6.0, 241, 1))
        phi = build_phi(u, lam=4.0, threshold=SINGULAR_GRAD_THRESHOLD)
        res = pathwise_consistency(model, phi, 4.0, [0.3], [32, 128], seed=3,
                                   n_paths=64)
        errs = [e for _, e in res["rows"]]
        assert errs[0] > errs[1] and errs[1] < 0.1, errs

    def test_singular_operator_is_a_solver_error(self):
        # no diffusion and lam = 0: lam I - L holds only b1's drift, a
        # skew-symmetric tridiagonal of odd order (9), so it is exactly
        # singular; the solver reads only sigma and b1 of its model
        model = types.SimpleNamespace(sigma=lambda t, x: np.zeros((len(x), 1, 1)),
                                      b1=lambda t, x: np.ones_like(x))
        with pytest.raises(EllipticSolverError, match="singular"):
            solve_u_elliptic(model, 0.0, SpaceGrid(3.0, 9, 1))

    def test_lambda_sweep_decays(self):
        model = self._model()
        sg = SpaceGrid(10.0, 401, 1)
        lams = [2.0, 4.0, 8.0, 16.0]
        norms = []
        for lam in lams:
            u = solve_u_elliptic(model, lam, sg)
            norms.append(u.sup_norm() + u.grad_bound())
        assert (np.diff(norms) <= 1e-12).all()
        # d=1, p=4 decay exponent is (d/p - 1)/2 = -0.375 (up to grid effects)
        assert np.polyfit(np.log(lams), np.log(norms), 1)[0] <= -0.3

    def test_zero_singular_part_gives_zero_u(self):
        model = model_from_config(ou_singular_config())
        sg = SpaceGrid(6.0, 101, 1)
        u = solve_u_elliptic(model, 4.0, sg)
        assert u.sup_norm() == 0.0


class TestSemigroupMonteCarlo:
    def _bm(self):
        return CallableModel(
            1, lambda t, x: np.zeros_like(x),
            lambda t, x: np.broadcast_to(np.eye(1), (len(x), 1, 1)),
        )

    def test_estimate_P0_gaussian_cdf(self):
        # P_{0,t} 1_{x > 0} at x0 = 0.25, t = 0.25: N((0.25 - 0) / 0.5)
        bm = self._bm()
        f = lambda x: (x[:, 0] > 0).astype(float)
        val, se = estimate_P0(bm, f, 0.25, [0.25], n=40000, seed=3)
        from scipy.stats import norm

        assert val == pytest.approx(norm.cdf(0.5), abs=4 * se + 1e-3)

    def test_gradient_estimate_heat_kernel(self):
        bm = self._bm()
        f = lambda x: np.sign(x[:, 0])
        res = check_gradient_estimate(
            bm, f, [0.0], gaps=[0.1, 0.2, 0.4], n=40000, seed=11
        )
        for gap, grad in zip(res["gaps"], res["gradients"]):
            exact = 2.0 / math.sqrt(2 * math.pi * gap)
            assert grad == pytest.approx(exact, rel=0.08)
        assert res["exponent"] == pytest.approx(-0.5, abs=0.15)

    def test_estimate_P0_draws_the_path_streams(self):
        # path j of the estimate is the path-keyed stream of id j, whatever n
        grid = TimeGrid(0.5, 64)
        n, x0 = 300, 0.25
        val, _ = estimate_P0(self._bm(), lambda x: x[:, 0], 0.5, [x0], n=n, seed=7)
        ends = [x0 + brownian_increments(7, grid, 1, j).sum() for j in range(n)]
        assert val == pytest.approx(np.mean(ends), rel=1e-12)

    def test_estimate_P0_stderr_counts_the_paths_drawn(self):
        # the ddof = 1 standard error: |a - b| / 2 for two samples, 0 for one
        grid = TimeGrid(0.5, 64)
        a, b = (0.25 + brownian_increments(7, grid, 1, j).sum() for j in range(2))
        f = lambda x: x[:, 0]
        assert estimate_P0(self._bm(), f, 0.5, [0.25], n=2, seed=7)[1] == pytest.approx(
            abs(a - b) / 2, rel=1e-12)
        assert estimate_P0(self._bm(), f, 0.5, [0.25], n=1, seed=7)[1] == 0.0

    def test_gradient_simulates_each_path_once(self, monkeypatch):
        # x + e and x - e are two coupled states of one run, so a component
        # at one gap steps 2n states, here over three chunks; f is an
        # indicator, whose bool values the finite difference takes as floats
        states = []
        run = simulate.run_em

        def counted(fns, x0s, *args, **kwargs):
            states.append(sum(len(x0) for x0 in x0s))
            return run(fns, x0s, *args, **kwargs)

        monkeypatch.setattr(simulate, "run_em", counted)
        monkeypatch.setattr(simulate, "_chunk_size", lambda grid, d: 400)
        n, gaps = 1000, [0.1, 0.2]
        res = check_gradient_estimate(self._bm(), lambda x: x[:, 0] > 0, [0.0],
                                      gaps, n=n, seed=5, n_steps=4)
        assert states == [800, 800, 400] * len(gaps)
        assert all(g > 0 for g in res["gradients"])

    def test_gradient_draws_each_path_once_per_gap_in_2d(self, monkeypatch):
        # the 2d starts x +/- eps e_c are coupled states of one run per gap,
        # so in d = 2 a path id is drawn once per gap, not once per component
        drawn = []
        block = simulate._increment_block

        def counted(seed, grid, d, ids):
            drawn.append(len(ids))
            return block(seed, grid, d, ids)

        monkeypatch.setattr(simulate, "_increment_block", counted)
        bm2 = CallableModel(
            2, lambda t, x: np.zeros_like(x),
            lambda t, x: np.broadcast_to(np.eye(2), (len(x), 2, 2)),
        )
        n, gaps = 500, [0.1, 0.2]
        res = check_gradient_estimate(bm2, lambda x: np.sign(x[:, 0] + x[:, 1]),
                                      [0.0, 0.0], gaps, n=n, seed=5, n_steps=4)
        assert sum(drawn) == n * len(gaps)
        assert all(g > 0 for g in res["gradients"])

    def test_gradient_stderr_is_the_crn_difference_stderr(self):
        # for f = sign at x = 0 the per-path difference is 1/eps on
        # {|W_gap| < eps} and 0 elsewhere, a scaled Bernoulli(p)
        from scipy.stats import norm

        n, gaps = 40000, [0.1, 0.2, 0.4]
        res = check_gradient_estimate(
            self._bm(), lambda x: np.sign(x[:, 0]), [0.0], gaps, n=n, seed=11,
        )
        for gap, se in zip(gaps, res["stderrs"]):
            eps = zvonkin.FD_SCALE * math.sqrt(gap)
            p = 2.0 * norm.cdf(eps / math.sqrt(gap)) - 1.0
            assert se == pytest.approx(math.sqrt(p * (1 - p) / n) / eps, rel=0.03)


class TestTransformedModel:
    def test_identity_transform_reproduces_drift(self):
        model = model_from_config(ou_singular_config(kappa=1.0))
        sg = SpaceGrid(6.0, 101, 1)
        tm = identity_transform(model, sg)
        x = np.array([[0.5], [-1.0]])
        np.testing.assert_allclose(tm.drift(0.0, x), -x, atol=1e-12)
        np.testing.assert_allclose(
            tm.sigma(0.0, x), np.broadcast_to(np.eye(1), (2, 1, 1)), atol=1e-12
        )

    def test_tilde_constants_identity_ou(self):
        model = model_from_config(ou_singular_config(kappa=1.0))
        sg = SpaceGrid(6.0, 101, 1)
        tm = identity_transform(model, sg)
        fit = verify_tilde_conditions(tm, seed=2)
        assert fit["tag"] == "dissipative"
        assert fit["kappa1"] == pytest.approx(1.0, rel=1e-6)
        assert fit["kappa2"] == pytest.approx(0.0, abs=1e-9)
        assert fit["kappa3"] == pytest.approx(1.0, rel=0.2)

    def test_tilde_fit_failure_for_expanding_drift(self):
        cfg = ou_singular_config(kappa=1.0)
        cfg["b2"] = {"family": "linear", "matrix": [[1.0]]}  # repulsive
        model = model_from_config(cfg)
        sg = SpaceGrid(6.0, 101, 1)
        tm = identity_transform(model, sg)
        with pytest.raises(FitFailure):
            verify_tilde_conditions(tm, seed=2)

    def test_linear_growth_fit(self):
        cfg = ou_singular_config(kappa=1.0)
        cfg["tag"] = "linear_growth"
        cfg["kappa4"] = 1.0
        model = model_from_config(cfg)
        sg = SpaceGrid(6.0, 101, 1)
        fit = verify_tilde_conditions(identity_transform(model, sg), seed=2)
        assert fit["kappa4"] <= 1.0 + 1e-9


@functools.lru_cache(maxsize=None)
def _transform_case(name):
    """(phi, model, lam) of the 1-D Dini, 2-D singular or time-dependent case."""
    if name == "dini":
        return _sin_phi(), _synthetic_dini(), 2.0
    if name == "dini_t":
        # u_t(x) = 0.05 (1 + t) sin x, so the preimage moves with t
        sg = SpaceGrid(10.0, 1025, 1)
        times = np.linspace(0.0, 1.0, 5)
        u = GridFunction(sg, 0.05 * (1.0 + times)[:, None, None]
                         * np.sin(sg.axes[0])[None, :, None], times)
        return Homeomorphism(u, u.grad_bound(), 2.0, 0.5), _synthetic_dini(), 2.0
    cfg = ou_singular_config(kappa=1.0, d=2)
    cfg["b1"] = {"family": "radial_singularity", "c": 0.5, "gamma": 0.25}
    model = model_from_config(cfg)
    u = solve_u_elliptic(model, 8.0, SpaceGrid(4.0, 41, 2))
    return build_phi(u, lam=8.0, threshold=SINGULAR_GRAD_THRESHOLD), model, 8.0


def _reference_coefficients(phi, model, lam, t, y):
    # the image coefficients with their own inversion, no shared preimage
    x = phi.phi_inv(y, t)
    jac = phi.jacobian(x, t)
    if model.kind == "dini":
        drift = lam * phi.u(x, t) + model.B(t, x)
    else:
        drift = lam * phi.u(x, t) + np.einsum("nij,nj->ni", jac, model.b2(t, x))
    sig = model.sigma(t, x)
    return drift, np.einsum("nij,njk->nik", jac, sig)


class TestSharedInversion:
    @pytest.mark.parametrize("name", ["dini", "singular"])
    def test_reused_model_matches_fresh_instance(self, name):
        phi, model, lam = _transform_case(name)
        tm = TransformedModel(phi, model, lam)
        rng = np.random.default_rng(4)
        R = 0.8 * phi.u.grid.R
        a, b = (rng.uniform(-R, R, size=(6, model.d)) for _ in range(2))
        for t, y in [(0.0, a), (0.0, a), (0.25, b), (0.5, a)]:
            np.testing.assert_array_equal(
                tm.sigma(t, y), TransformedModel(phi, model, lam).sigma(t, y)
            )
            np.testing.assert_array_equal(
                tm.drift(t, y), TransformedModel(phi, model, lam).drift(t, y)
            )

    def test_in_place_edit_gives_new_preimage(self):
        phi, model, lam = _transform_case("dini")
        tm = TransformedModel(phi, model, lam)
        y = np.array([[0.3], [-1.2], [2.5]])
        before = tm.drift(0.0, y)
        y += 0.1
        after = tm.drift(0.0, y)
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(
            after, TransformedModel(phi, model, lam).drift(0.0, y)
        )
        np.testing.assert_array_equal(tm._preimage(0.0, y), phi.phi_inv(y))

    def test_time_dependent_preimage_follows_t(self):
        phi, model, lam = _transform_case("dini_t")
        tm = TransformedModel(phi, model, lam)
        y = np.array([[0.7], [-2.1]])
        x0 = tm._preimage(0.0, y)
        x1 = tm._preimage(1.0, y)
        assert not np.array_equal(x0, x1)
        np.testing.assert_array_equal(x1, phi.phi_inv(y, 1.0))
        np.testing.assert_array_equal(
            tm.drift(0.0, y), _reference_coefficients(phi, model, lam, 0.0, y)[0]
        )

    def test_pathwise_consistency_inverts_once_per_step(self, monkeypatch):
        phi, model, lam = _transform_case("dini")
        calls = []
        inverse = Homeomorphism.phi_inv

        def counted(self, *args, **kwargs):
            calls.append(1)
            return inverse(self, *args, **kwargs)

        monkeypatch.setattr(Homeomorphism, "phi_inv", counted)
        pathwise_consistency(model, phi, lam, [0.3], [16, 32], seed=3, n_paths=8)
        assert len(calls) == 16 + 32

    @settings(max_examples=30)
    @given(
        name=st.sampled_from(["dini", "singular", "dini_t"]),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        steps=st.lists(
            st.tuples(st.sampled_from(["new", "repeat", "edit"]),
                      st.sampled_from([0.0, 0.4, 1.0]), st.booleans()),
            min_size=1, max_size=6,
        ),
    )
    def test_shared_preimage_matches_reference(self, name, seed, n, steps):
        phi, model, lam = _transform_case(name)
        tm = TransformedModel(phi, model, lam)
        rng = np.random.default_rng(seed)
        R = 0.8 * phi.u.grid.R
        y = rng.uniform(-R, R, size=(n, model.d))
        for op, t, drift_first in steps:
            if op == "new":
                y = rng.uniform(-R, R, size=(n, model.d))
            elif op == "edit":
                np.clip(y + rng.uniform(-0.1, 0.1, size=y.shape), -R, R, out=y)
            np.testing.assert_allclose(
                phi.phi(phi.phi_inv(y, t), t), y, rtol=0, atol=1e-9
            )
            if drift_first:
                drift, sig = tm.drift(t, y), tm.sigma(t, y)
            else:
                sig, drift = tm.sigma(t, y), tm.drift(t, y)
            ref_drift, ref_sig = _reference_coefficients(phi, model, lam, t, y)
            np.testing.assert_array_equal(drift, ref_drift)
            np.testing.assert_array_equal(sig, ref_sig)


class TestPathwiseConsistency:
    def test_error_decays_with_mesh(self):
        model = _synthetic_dini()
        phi = _sin_phi()
        res = pathwise_consistency(
            model, phi, 2.0, [0.3], [64, 128, 256], seed=3, n_paths=128
        )
        errs = [e for _, e in res["rows"]]
        assert errs[0] > errs[-1]
        assert errs[-1] < 5e-3

    def test_zero_u_is_exact(self):
        B = lambda t, x: -x
        model = DiniModelSpec(
            d=1, T=1.0, B=B, b=lambda t, x: np.zeros_like(x),
            sigma=_unit_sigma, modulus=ModulusSpec("lipschitz", L=0.0),
            b_sup=0.0,
            bounds={"grad_B": 1.0, "sigma": 1.0, "grad_sigma": 0.0,
                    "grad2_sigma": 0.0, "inv_a": 1.0},
        )
        sg = SpaceGrid(10.0, 101, 1)
        u0 = GridFunction(sg, np.zeros((101, 1)))
        phi0 = Homeomorphism(u0, 0.0, 0.0, 0.5)
        res = pathwise_consistency(
            model, phi0, 0.0, [0.3], [32, 64], seed=3, n_paths=32
        )
        assert all(e == 0.0 for _, e in res["rows"])
