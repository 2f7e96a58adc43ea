import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

from sdetci import (
    EmpiricalMeasure,
    TimeGrid,
    brute_force_wp,
    exact_wp,
    exact_wp_many,
    girsanov_entropy,
    pushforward,
    relative_entropy_discrete,
    sinkhorn_wp,
)
from sdetci import transport
from sdetci.errors import OutOfDomain, UseSinkhorn
from sdetci.transport import euclidean_cost, path_sup_cost


def _random_measure(rng, n, d, uniform=False):
    atoms = rng.normal(size=(n, d))
    if uniform:
        return EmpiricalMeasure.uniform(atoms)
    w = rng.uniform(0.2, 1.0, n)
    return EmpiricalMeasure(atoms, w / w.sum())


def _csc(A):
    """The plain CSC arrays of ``_block_incidence`` as a scipy CSC matrix."""
    return sparse.csc_matrix(A[:3], shape=A.shape)


def _incidence_reference(n, m):
    """Row sums then column sums of an n x m plan, as a sparse matrix."""
    rows = sparse.kron(sparse.eye(n), np.ones((1, m)))
    cols = sparse.kron(np.ones((1, n)), sparse.eye(m))
    return sparse.vstack([rows, cols]).tocsc()


class TestEmpiricalMeasure:
    @pytest.mark.parametrize("weights", [[-0.5, 1.5], [0.5, 0.6], [np.nan, np.nan],
                                         [np.inf, -np.inf], [np.nan, 1.0]])
    def test_rejects_invalid_weights(self, weights):
        with pytest.raises(ValueError, match="weights"):
            EmpiricalMeasure(np.array([[0.0], [1.0]]), np.array(weights))


class TestExactWp:
    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, 3))
            p = float(rng.choice([1.0, 2.0]))
            mu = _random_measure(rng, n, d, uniform=True)
            nu = _random_measure(rng, n, d, uniform=True)
            w, _ = exact_wp(mu, nu, p)
            assert abs(w - brute_force_wp(mu, nu, p)) < 1e-9

    def test_identical_measures_zero(self):
        rng = np.random.default_rng(0)
        mu = _random_measure(rng, 5, 2)
        w, plan = exact_wp(mu, mu, 2.0)
        assert w == pytest.approx(0.0, abs=1e-10)
        assert plan.check(mu, mu)

    def test_two_point_closed_form(self):
        mu = EmpiricalMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        nu = EmpiricalMeasure(np.array([[0.0], [1.0]]), np.array([0.25, 0.75]))
        # optimal plan moves mass 1/4 across unit distance
        w1, _ = exact_wp(mu, nu, 1.0)
        assert w1 == pytest.approx(0.25, abs=1e-12)
        w2, _ = exact_wp(mu, nu, 2.0)
        assert w2 == pytest.approx(0.5, abs=1e-12)

    def test_plan_marginals(self):
        rng = np.random.default_rng(5)
        mu = _random_measure(rng, 8, 2)
        nu = _random_measure(rng, 6, 2)
        _, plan = exact_wp(mu, nu, 2.0)
        assert plan.check(mu, nu, tol=1e-9)
        assert (plan.matrix >= -1e-12).all()

    def test_plan_check_reads_its_measures(self):
        rng = np.random.default_rng(4)
        mu = _random_measure(rng, 2, 1)
        nu = _random_measure(rng, 3, 1)
        _, plan = exact_wp(mu, nu, 2.0)
        assert plan.check(mu, nu, tol=1e-9)
        assert not plan.check(nu, mu)
        assert not plan.check(EmpiricalMeasure.uniform(mu.atoms), nu)
        with pytest.raises(AttributeError):
            plan.check(None, None)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(9)
        mu = _random_measure(rng, 6, 1)
        nu = _random_measure(rng, 6, 1)
        rho = _random_measure(rng, 6, 1)
        w_ab, _ = exact_wp(mu, nu, 2.0)
        w_bc, _ = exact_wp(nu, rho, 2.0)
        w_ac, _ = exact_wp(mu, rho, 2.0)
        assert w_ac <= w_ab + w_bc + 1e-9

    def test_large_instance_refused(self):
        rng = np.random.default_rng(1)
        mu = _random_measure(rng, 600, 1, uniform=True)
        with pytest.raises(UseSinkhorn):
            exact_wp(mu, mu, 2.0)

    def test_custom_metric_callable(self):
        mu = EmpiricalMeasure.uniform(np.array([[0.0], [2.0]]))
        nu = EmpiricalMeasure.uniform(np.array([[1.0], [3.0]]))
        cost = 2 * np.abs(mu.atoms - nu.atoms.T)  # the metric 2 |x - y|
        w, _ = exact_wp(mu, nu, 1.0, metric=cost)
        assert w == pytest.approx(2.0, abs=1e-10)


class TestSolverSelection:
    @settings(max_examples=60)
    @given(n=st.integers(2, 40), d=st.integers(1, 3),
           p=st.sampled_from([1.0, 2.0, 3.0]), seed=st.integers(0, 2**32 - 1))
    def test_assignment_agrees_with_lp(self, n, d, p, seed):
        rng = np.random.default_rng(seed)
        cost = euclidean_cost(rng.normal(size=(n, d)), rng.normal(size=(n, d))) ** p
        w = np.full(n, 1.0 / n)
        solved = [transport._assignment_wp(cost), transport._lp_wp(cost, w, w)]
        for total, pi, f, g in solved:
            assert (f[:, None] + g[None, :] - cost).max() <= 1e-7
            assert abs(float((cost * pi).sum()) - float(f @ w + g @ w)) <= 1e-7 * max(
                1.0, total)
            assert np.abs(pi.sum(axis=1) - w).max() <= 1e-9
            assert np.abs(pi.sum(axis=0) - w).max() <= 1e-9
        assert abs(solved[0][0] - solved[1][0]) <= 1e-9

    def test_non_optimal_permutation_rejected(self, monkeypatch):
        # p = 2 on the line: the sorted matching is the unique optimum
        mu = EmpiricalMeasure.uniform(np.arange(4.0)[:, None])
        nu = EmpiricalMeasure.uniform(np.arange(4.0)[:, None] + 0.5)

        def swapped(cost):
            rows, cols = linear_sum_assignment(cost)
            cols[[0, 1]] = cols[[1, 0]]
            return rows, cols

        monkeypatch.setattr(transport, "linear_sum_assignment", swapped)
        with pytest.raises(RuntimeError, match="dual certificate"):
            exact_wp(mu, nu, 2.0)

    def test_weighted_input_takes_the_lp(self, monkeypatch):
        solved = []
        real = transport.linprog

        def spy(*args, **kwargs):
            solved.append(_csc(kwargs["A_eq"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(transport, "linprog", spy)
        rng = np.random.default_rng(3)
        mu = _random_measure(rng, 5, 2)
        nu = _random_measure(rng, 5, 2)
        exact_wp(mu, nu, 2.0)
        exact_wp(nu, mu, 1.0)
        exact_wp(EmpiricalMeasure.uniform(mu.atoms), EmpiricalMeasure.uniform(nu.atoms))
        assert len(solved) == 2
        assert all((A != _incidence_reference(5, 5)).nnz == 0 for A in solved)
        A = _csc(transport._block_incidence([(3, 4)]))
        assert (A != _incidence_reference(3, 4)).nnz == 0

    @settings(max_examples=100)
    @given(shapes=st.lists(st.tuples(st.integers(1, 8), st.integers(1, 8)),
                           min_size=1, max_size=30))
    def test_block_incidence_is_the_block_diagonal_of_its_shapes(self, shapes):
        arrays = transport._block_incidence(shapes)
        assert arrays.indices.dtype == arrays.indptr.dtype == np.int32
        A = _csc(arrays)
        ref = sparse.block_diag([_incidence_reference(n, m) for n, m in shapes]).tocsc()
        assert A.format == "csc" and A.shape == ref.shape
        assert A.indices.dtype == A.indptr.dtype == np.int32
        assert np.array_equal(A.indptr, 2 * np.arange(A.shape[1] + 1))
        assert (A != ref).nnz == 0

    @settings(max_examples=200)
    @given(n=st.integers(1, 8), m=st.integers(1, 8), tied=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_direct_highs_matches_scipy_linprog(self, n, m, tied, seed):
        # bit for bit: the same LP and settings reach the same HiGHS core
        rng = np.random.default_rng(seed)
        cost = rng.integers(0, 3, (n, m)).astype(float) if tied else rng.random((n, m))
        mu_w, nu_w = rng.random(n), rng.random(m)
        b_eq = np.concatenate([mu_w / mu_w.sum(), nu_w / nu_w.sum()])
        arrays = transport._block_incidence([(n, m)])
        A_eq = _csc(arrays)
        res = linprog(cost.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                      options={"dual_feasibility_tolerance": transport.LP_DUAL_FEASIBILITY_TOL,
                               "presolve": False})
        assert res.success
        # the plain arrays and the scipy matrix reach HiGHS alike
        for A in (arrays, A_eq):
            fun, x, duals = transport.linprog(cost.ravel(), A_eq=A, b_eq=b_eq)
            assert np.array_equal(fun, res.fun)
            assert np.array_equal(x, res.x)
            assert np.array_equal(duals, res.eqlin.marginals)

    def test_extension_loader_reuses_a_loaded_module_and_names_a_missing_file(self):
        # scipy.optimize, imported by this module, already holds its solvers
        import scipy.optimize._lsap

        assert transport._scipy_extension("scipy.optimize._lsap") is scipy.optimize._lsap
        with pytest.raises(ImportError, match=r"scipy/optimize/_absent\."):
            transport._scipy_extension("scipy.optimize._absent")

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_cost_refused(self, bad):
        rng = np.random.default_rng(8)
        mu = _random_measure(rng, 3, 1)
        nu = _random_measure(rng, 4, 1)
        cost = euclidean_cost(mu.atoms, nu.atoms)
        cost[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            exact_wp(mu, nu, 2.0, metric=cost)

    @settings(max_examples=30)
    @given(n=st.integers(2, 8), m=st.integers(2, 8), d=st.integers(1, 2),
           scale=st.sampled_from([1e-6, 1e-3, 1e3, 1e6]),
           seed=st.integers(0, 2**32 - 1))
    def test_lp_value_scales_with_its_cost(self, n, m, d, scale, seed):
        # the LP is solved in units of its cost, so HiGHS's absolute
        # tolerances cost the same relative accuracy at every scale
        rng = np.random.default_rng(seed)
        mu, nu = _random_measure(rng, n, d), _random_measure(rng, m, d)
        cost = euclidean_cost(mu.atoms, nu.atoms) ** 2
        w, _ = exact_wp(mu, nu, 1.0, metric=cost)
        scaled, _ = exact_wp(mu, nu, 1.0, metric=scale * cost)
        assert scaled == pytest.approx(scale * w, rel=1e-12)

    @pytest.mark.parametrize("m, uniform, shape", [
        (4, False, (4, 3)), (4, False, (2, 6)), (4, False, (3, 5)), (3, True, (3, 4))])
    def test_mis_shaped_metric_refused(self, m, uniform, shape):
        rng = np.random.default_rng(8)
        mu, nu = _random_measure(rng, 3, 1, uniform), _random_measure(rng, m, 1, uniform)
        with pytest.raises(ValueError, match=rf"shape \({shape[0]}, {shape[1]}\) .*\(3, {m}\)"):
            exact_wp(mu, nu, 2.0, metric=np.ones(shape))

    def test_mis_shaped_metric_refused_before_any_solve(self, monkeypatch):
        # a pair packed with good ones is refused before their LP is solved
        rng = np.random.default_rng(8)
        mu, nu = _random_measure(rng, 3, 1), _random_measure(rng, 4, 1)
        solves = []
        monkeypatch.setattr(transport, "linprog", lambda *a, **k: solves.append(a))
        with pytest.raises(ValueError, match="metric of shape"):
            exact_wp_many([(mu, nu, None), (mu, nu, np.ones((4, 3))), (nu, mu, None)])
        assert solves == []

    def test_refused_model_fails(self):
        # a row index past the LP's rows: HiGHS refuses the model, and no
        # solve of an empty model passes for a solution
        A = transport._block_incidence([(2, 2)])
        bad = A._replace(indices=A.indices + 4)
        with pytest.raises(RuntimeError, match="transport LP failed: HiGHS refused"):
            transport.linprog(np.ones(4), A_eq=bad, b_eq=np.full(4, 0.5))

    def test_inconsistent_marginals_fail(self):
        cost = euclidean_cost(np.arange(3.0)[:, None], np.arange(2.0)[:, None])
        with pytest.raises(RuntimeError, match="transport LP failed: Infeasible"):
            transport._lp_wp(cost, np.full(3, 1 / 3), np.array([0.2, 0.3]))


class TestBatchedLp:
    @settings(max_examples=40, deadline=None)
    @given(n_pairs=st.integers(1, 80), p=st.sampled_from([1.0, 2.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_each_pair_as_if_solved_alone(self, n_pairs, p, seed):
        # a quarter uniform and equal-size; 80 pairs carry about 1 200 LP
        # variables, so about half the lists take more than one solve
        rng = np.random.default_rng(seed)
        pairs = []
        for _ in range(n_pairs):
            n, m, d = (int(v) for v in rng.integers(1, [9, 9, 3]))
            uniform = bool(rng.random() < 0.25)
            pairs.append((_random_measure(rng, n, d, uniform),
                          _random_measure(rng, n if uniform else m, d, uniform), None))
        batched = exact_wp_many(pairs, p)
        assert len(batched) == len(pairs)
        for (mu, nu, _), (w, plan) in zip(pairs, batched):
            alone, _ = exact_wp(mu, nu, p)
            assert abs(w - alone) <= 1e-12 * abs(alone)
            assert plan.check(mu, nu, 1e-9)

    def test_each_block_passes_its_own_certificate(self, monkeypatch):
        # a far-apart pair makes the batch's objective large, so a duality gap
        # checked on the whole batch would hide the small block's violation
        rng = np.random.default_rng(6)
        far = _random_measure(rng, 3, 1)
        far_nu = EmpiricalMeasure(far.atoms[:2] + 1e3, np.array([0.3, 0.7]))
        mu, nu = _random_measure(rng, 2, 1), _random_measure(rng, 3, 1)
        solves = []
        real = transport.linprog

        def perturbed(c, A_eq, b_eq):
            fun, x, duals = real(c, A_eq=A_eq, b_eq=b_eq)
            solves.append(A_eq.shape)
            duals = duals.copy()
            duals[5:7] -= 1e-3  # f of the second block: still feasible, gap 1e-3
            return fun, x, duals

        monkeypatch.setattr(transport, "linprog", perturbed)
        with pytest.raises(RuntimeError, match="dual certificate"):
            exact_wp_many([(far, far_nu, None), (mu, nu, None)], 2.0)
        assert solves == [(10, 12)]

    @pytest.mark.parametrize("violated", ["slack", "gap"])
    def test_only_the_perturbed_block_is_blamed(self, monkeypatch, violated):
        # three pairs share one solve; the duals of the middle block (rows
        # 5..9: f at 5..7, g at 8..9) are perturbed in its solved units.
        # "slack" raises f_5 and lowers f_6 so that f . mu keeps its value:
        # a tight cell of row 5 exceeds its cost by 1e-3, the gap stays 0.
        # "gap" lowers every f: still feasible, but the gap reads 1e-3.
        rng = np.random.default_rng(12)
        pairs = [(_random_measure(rng, n, 1), _random_measure(rng, m, 1), None)
                 for n, m in ((2, 3), (3, 2), (2, 2))]
        solves = []
        real = transport.linprog

        def perturbed(c, A_eq, b_eq):
            fun, x, duals = real(c, A_eq=A_eq, b_eq=b_eq)
            solves.append(A_eq.shape)
            duals = duals.copy()
            if violated == "slack":
                duals[5] += 1e-3
                duals[6] -= 1e-3 * b_eq[5] / b_eq[6]
            else:
                duals[5:8] -= 1e-3
            return fun, x, duals

        monkeypatch.setattr(transport, "linprog", perturbed)
        with pytest.raises(RuntimeError, match=r"dual certificate .* by pairs \[1\]$"):
            exact_wp_many(pairs, 2.0)
        assert solves == [(14, 16)]


class TestSinkhorn:
    def test_bracket_contains_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            mu = _random_measure(rng, 12, 2)
            nu = _random_measure(rng, 9, 2)
            w, _ = exact_wp(mu, nu, 2.0)
            br = sinkhorn_wp(mu, nu, 2.0, eps=0.05)
            assert br.lower - 1e-9 <= w <= br.upper + 1e-9

    def test_far_apart_weighted_pair(self):
        # every exp(-cost / eps) underflows to 0 unless shifted by its max
        rng = np.random.default_rng(8)
        mu = _random_measure(rng, 7, 2)
        nu = _random_measure(rng, 5, 2)
        nu = EmpiricalMeasure(nu.atoms + 30.0, nu.weights)
        assert (mu.weights != mu.weights[0]).any()
        eps = 1.0
        cost = np.linalg.norm(mu.atoms[:, None] - nu.atoms[None], axis=2) ** 2
        assert (cost / eps).min() > 745 and np.exp(-(cost / eps)).max() == 0.0
        w, _ = exact_wp(mu, nu, 2.0)
        br = sinkhorn_wp(mu, nu, 2.0, eps=eps)
        assert np.isfinite([br.lower, br.upper]).all()
        assert br.lower - 1e-9 <= w <= br.upper + 1e-9

    def test_bracket_tightens_with_eps(self):
        rng = np.random.default_rng(4)
        mu = _random_measure(rng, 10, 1)
        nu = _random_measure(rng, 10, 1)
        widths = [
            sinkhorn_wp(mu, nu, 2.0, eps=e).upper
            - sinkhorn_wp(mu, nu, 2.0, eps=e).lower
            for e in (0.5, 0.1, 0.02)
        ]
        assert widths[0] > widths[-1]


class TestMetrics:
    def test_sup_metric_values(self):
        a = np.array([[[0.0], [1.0], [0.0]]])
        b = np.array([[[0.0], [-1.0], [0.5]]])
        assert path_sup_cost(a, b)[0, 0] == 2.0

    def test_path_sup_cost_matches_pairwise(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(4, 50, 2))
        B = rng.normal(size=(3, 50, 2))
        C = path_sup_cost(A, B)
        for i in range(4):
            for j in range(3):
                direct = np.linalg.norm(A[i] - B[j], axis=1).max()
                assert C[i, j] == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2])
    def test_path_sup_cost_roots_once_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        A = rng.normal(size=(9, 70, d))
        B = rng.normal(size=(6, 70, d))
        norms = np.linalg.norm(A[:, None] - B[None, :], axis=3).max(axis=2)
        np.testing.assert_array_equal(path_sup_cost(A, B), norms)

    def test_path_sup_cost_memory_does_not_grow_with_nodes(self):
        # a pairwise-difference array over all nodes would take ~65 MiB here
        rng = np.random.default_rng(0)
        A, B = rng.normal(size=(2, 256, 65, 1))
        tracemalloc.start()
        try:
            path_sup_cost(A, B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestEntropy:
    def test_discrete_closed_form(self):
        atoms = np.array([[0.0], [1.0]])
        nu = EmpiricalMeasure(atoms, np.array([0.25, 0.75]))
        mu = EmpiricalMeasure(atoms, np.array([0.5, 0.5]))
        exact = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
        assert relative_entropy_discrete(nu, mu) == pytest.approx(exact, abs=1e-15)
        assert exact == pytest.approx(0.130812035941137, abs=1e-12)

    def test_infinite_when_not_absolutely_continuous(self):
        atoms = np.array([[0.0], [1.0]])
        nu = EmpiricalMeasure(atoms, np.array([0.5, 0.5]))
        mu = EmpiricalMeasure(atoms, np.array([1.0, 0.0]))
        assert relative_entropy_discrete(nu, mu) == float("inf")

    def test_zero_iff_equal(self):
        atoms = np.zeros((3, 1))
        w = np.array([0.2, 0.3, 0.5])
        m = EmpiricalMeasure(atoms, w)
        assert relative_entropy_discrete(m, m) == 0.0

    def test_girsanov_constant_shift(self):
        # constant shift h against unit diffusion: H = h^2 T / 2 exactly
        g = TimeGrid(2.0, 64)
        states = np.random.default_rng(0).normal(size=(100, 65, 1))
        shift = lambda t, x: 0.3 * np.ones_like(x)
        sigma = lambda t, x: np.broadcast_to(np.eye(1), (len(x), 1, 1))
        est, se = girsanov_entropy(shift, sigma, states, g)
        assert est == pytest.approx(0.5 * 0.3**2 * 2.0, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_girsanov_scales_with_sigma(self):
        g = TimeGrid(1.0, 32)
        states = np.zeros((10, 33, 1))
        shift = lambda t, x: np.ones_like(x)
        for s in (1.0, 2.0):
            sigma = lambda t, x, _s=s: np.broadcast_to(
                _s * np.eye(1), (len(x), 1, 1)
            )
            est, _ = girsanov_entropy(shift, sigma, states, g)
            assert est == pytest.approx(0.5 / s**2, abs=1e-12)

    @pytest.mark.parametrize("n_steps", [32, 128])
    def test_girsanov_refuses_states_off_the_grid(self, n_steps):
        # 65 nodes of states: a 32-step grid would read only the first 33,
        # a 128-step grid would index past the end
        states = np.zeros((10, 65, 1))
        sigma = lambda t, x: np.broadcast_to(np.eye(1), (len(x), 1, 1))
        with pytest.raises(ValueError, match="65"):
            girsanov_entropy(lambda t, x: np.ones_like(x), sigma, states,
                             TimeGrid(1.0, n_steps))


class TestPushforward:
    def test_affine_pushforward(self):
        mu = EmpiricalMeasure.uniform(np.array([[0.0], [1.0]]))
        out = pushforward(mu, lambda x: 2 * x + 1)
        np.testing.assert_allclose(out.atoms, [[1.0], [3.0]])
        np.testing.assert_array_equal(out.weights, mu.weights)

    def test_nonfinite_map_rejected(self):
        mu = EmpiricalMeasure.uniform(np.array([[0.0], [1.0]]))
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(OutOfDomain):
                pushforward(mu, lambda x: x / 0.0)
