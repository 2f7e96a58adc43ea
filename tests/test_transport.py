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

    def test_weighted_input_takes_the_cached_lp(self, monkeypatch):
        solved = []
        real = transport.linprog

        def spy(*args, **kwargs):
            solved.append(kwargs["A_eq"])
            return real(*args, **kwargs)

        monkeypatch.setattr(transport, "linprog", spy)
        rng = np.random.default_rng(3)
        mu = _random_measure(rng, 5, 2)
        nu = _random_measure(rng, 5, 2)
        exact_wp(mu, nu, 2.0)
        exact_wp(nu, mu, 1.0)
        exact_wp(EmpiricalMeasure.uniform(mu.atoms), EmpiricalMeasure.uniform(nu.atoms))
        assert len(solved) == 2 and solved[0] is solved[1]
        A = solved[0]
        assert not any(a.flags.writeable for a in (A.data, A.indices, A.indptr))
        with pytest.raises(ValueError):
            A.data[0] = 2.0
        rows = sparse.kron(sparse.eye(3), np.ones((1, 4)))
        cols = sparse.kron(np.ones((1, 3)), sparse.eye(4))
        ref = sparse.vstack([rows, cols]).tocsc()
        assert (transport._incidence(3, 4) != ref).nnz == 0


    @settings(max_examples=200)
    @given(n=st.integers(1, 8), m=st.integers(1, 8), tied=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_direct_highs_matches_scipy_linprog(self, n, m, tied, seed):
        # bit for bit: the same LP and settings reach the same HiGHS core
        rng = np.random.default_rng(seed)
        cost = rng.integers(0, 3, (n, m)).astype(float) if tied else rng.random((n, m))
        mu_w, nu_w = rng.random(n), rng.random(m)
        b_eq = np.concatenate([mu_w / mu_w.sum(), nu_w / nu_w.sum()])
        A_eq = transport._incidence(n, m)
        fun, x, duals = transport.linprog(cost.ravel(), A_eq=A_eq, b_eq=b_eq)
        res = linprog(cost.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                      options={"dual_feasibility_tolerance": transport.LP_DUAL_FEASIBILITY_TOL})
        assert res.success
        assert np.array_equal(fun, res.fun)
        assert np.array_equal(x, res.x)
        assert np.array_equal(duals, res.eqlin.marginals)

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
