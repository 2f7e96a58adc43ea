import json
import math
import tracemalloc

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from sdetci import (
    CallableModel,
    TCIReport,
    TimeGrid,
    coupled_sup_distances,
    delta_threshold,
    exp_functional_estimate,
    gaussian_tail_sweep,
    invariance_suite,
    lambda_threshold,
    model_from_config,
    ou_singular_config,
    simulate_ensemble,
    t1_constant,
    t2_check,
    tail_sweep_and_t2,
    threshold_set,
    with_drift_shift,
)
from sdetci import simulate, tci, transport
from sdetci.cli import main
from sdetci.errors import ConfigError, InconclusiveEstimate
from sdetci.tci import coupling_lipschitz_check
from sdetci.transport import girsanov_entropy
from sdetci.zvonkin import GridFunction, Homeomorphism, SpaceGrid
from test_declared import VALUE_ULPS, _ulps


def _count_states(monkeypatch):
    """Record how many states each ``simulate.run_em`` call steps."""
    states = []
    run = simulate.run_em

    def counted(fns, x0s, *args, **kwargs):
        states.append(sum(len(x0) for x0 in x0s))
        return run(fns, x0s, *args, **kwargs)

    monkeypatch.setattr(simulate, "run_em", counted)
    return states


class TestThresholds:
    def test_linear_growth_lambda(self):
        lam, strict = lambda_threshold("linear_growth", 1.0, 1.0, kappa4=1.0)
        assert lam == math.exp(-5.0) / 2.0
        assert not strict

    def test_dissipative_lambda(self):
        lam, strict = lambda_threshold("dissipative", 1.0, 1.0, kappa1=1.0, r=0.0)
        assert lam == 0.5 and not strict
        lam, strict = lambda_threshold("dissipative", 1.0, 1.0, kappa1=1.0, r=2.0)
        assert lam == 1.0 and strict  # (r-1)^- = 0 above r = 1, strict for r > 0

    def test_delta_values(self):
        assert delta_threshold(
            "dissipative", 1.0, 1.0, kappa1=1.0, kappa3=1.0, r=0.0
        ) == 0.0625
        assert delta_threshold("linear_growth", 1.0, 1.0, kappa4=0.0) == 0.125

    def test_homogeneity_in_sigma(self):
        base, _ = lambda_threshold("dissipative", 1.0, 2.0, kappa1=1.3, r=0.0)
        for c in (2.0, 4.0):
            scaled, _ = lambda_threshold("dissipative", c, 2.0, kappa1=1.3, r=0.0)
            assert scaled == base / c**2  # exact for power-of-two scalings
        d_base = delta_threshold("linear_growth", 1.0, 2.0, kappa4=0.7)
        assert delta_threshold("linear_growth", 2.0, 2.0, kappa4=0.7) == d_base / 4

    def test_threshold_set_admits(self):
        ts = threshold_set("dissipative", 1.0, 1.0, kappa1=1.0, kappa3=1.0, r=0.0)
        assert ts.admits_lambda(0.5) and not ts.admits_lambda(0.6)
        assert ts.admits_delta(0.06) and not ts.admits_delta(0.0625)

    def test_threshold_set_refuses_a_misspelled_constant(self):
        # a dropped kappa4 would give the kappa4 = 0 thresholds
        ts = threshold_set("linear_growth", 1.0, 1.0, kappa4=2.0)
        assert ts.lambda_max == lambda_threshold("linear_growth", 1.0, 1.0, kappa4=2.0)[0]
        assert ts.lambda_max < 2e-4
        with pytest.raises(TypeError):
            threshold_set("linear_growth", 1.0, 1.0, kapa4=2.0)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            lambda_threshold("dissipative", 1.0, 1.0, kappa1=0.0)
        with pytest.raises(ConfigError):
            delta_threshold("linear_growth", 0.0, 1.0)
        with pytest.raises(ConfigError):
            lambda_threshold("bogus", 1.0, 1.0)

    def test_t1_constant(self):
        assert t1_constant(0.05) == 5.0
        assert t1_constant(0.05, original_space=True) == 20.0
        with pytest.raises(ConfigError):
            t1_constant(0.0)


class TestExpFunctional:
    def test_constant_exponent_exact(self):
        res = exp_functional_estimate(np.full(1000, 0.3))
        assert res["estimate"] == pytest.approx(math.exp(0.3), rel=1e-12)
        assert res["stable"]

    def test_gaussian_closed_form(self):
        # E e^{a Z} = e^{a^2 / 2}
        rng = np.random.default_rng(0)
        res = exp_functional_estimate(0.5 * rng.standard_normal(200000))
        assert res["estimate"] == pytest.approx(math.exp(0.125), rel=0.01)
        assert res["stable"]

    def test_heavy_tail_flagged_unstable(self):
        # e^{Z^2} has no mean; the plug-in must refuse to certify it
        rng = np.random.default_rng(1)
        res = exp_functional_estimate(rng.standard_normal(50000) ** 2 * 2.0)
        assert not res["stable"]
        assert res["max_share"] > 0.5 or res["last_doubling_change"] > 0.1

    def test_no_overflow_for_large_exponents(self):
        res = exp_functional_estimate(np.array([1000.0, 1000.0, 999.0] * 100))
        assert res["estimate"] == float("inf")
        assert np.isfinite(res["log_estimate"])

    def test_too_few_samples(self):
        with pytest.raises(InconclusiveEstimate):
            exp_functional_estimate([1.0])

    @settings(max_examples=200)
    @given(n=st.integers(1, 3000), ties=st.integers(0, 8),
           spread=st.floats(1e-3, 1e3), offset=st.floats(-800.0, 800.0),
           seed=st.integers(0, 2**32 - 1))
    def test_logsumexp_matches_scipy(self, n, ties, spread, offset, seed):
        # the numpy logsumexp splits out the maximal entries as scipy does,
        # so it agrees to the last bits, ties at the max included
        from scipy.special import logsumexp

        rng = np.random.default_rng(seed)
        g = offset + spread * rng.standard_normal(n)
        g[rng.integers(0, n, size=ties)] = g.max()
        np.testing.assert_array_max_ulp(tci._logsumexp(g), logsumexp(g), maxulp=2)


class TestGaussianTail:
    def _ou(self):
        return model_from_config(ou_singular_config(kappa=1.0))

    def test_small_delta_stable(self):
        sweep = gaussian_tail_sweep(
            self._ou(), [0.0], TimeGrid(1.0, 64), 0.05, [2000, 8000], seed=5
        )
        assert sweep["stable"]
        assert sweep["log_spread"] < math.log(1.5)

    def test_huge_delta_unstable(self):
        sweep = gaussian_tail_sweep(
            self._ou(), [0.0], TimeGrid(1.0, 64), 10.0, [2000, 8000], seed=5
        )
        assert not sweep["stable"]

    def test_rows_that_disagree_make_the_sweep_unstable(self):
        # 256 zero exponents, then 65 280 ones: each row is stable alone, but
        # the rows' log-estimates, 0 and log((256 + 65280 e) / 65536), differ
        # by more than log 1.5, so the sweep is not stable
        sweep = tci._sweep(1.0, [256, 65536], np.r_[np.zeros(256), np.ones(65280)])
        assert all(row["stable"] for row in sweep["rows"])
        assert sweep["log_spread"] == pytest.approx(
            math.log((256 + 65280 * math.e) / 65536), rel=1e-12)
        assert not sweep["stable"]

    def test_sweep_simulates_each_path_once(self, monkeypatch):
        # a run of n paths is a prefix of the largest run, so only that one runs
        model, g = self._ou(), TimeGrid(1.0, 16)
        states = _count_states(monkeypatch)
        sweep = gaussian_tail_sweep(model, [0.0], g, 0.05, [1000, 300], seed=4)
        assert sum(states) == 1000
        for n, row in zip([300, 1000], sweep["rows"]):
            alone = gaussian_tail_sweep(model, [0.0], g, 0.05, [n], seed=4)
            assert row == alone["rows"][0]

    def test_sweep_holds_no_states(self):
        # a path holds its increments, one node short of its states; on top
        # of them the sweep's allocation peak stays far below one state array
        model, g, n = self._ou(), TimeGrid(1.0, 128), 4000
        gaussian_tail_sweep(model, [0.0], g, 0.05, [100, 200], seed=2)
        tracemalloc.start()
        try:
            gaussian_tail_sweep(model, [0.0], g, 0.05, [n // 2, n], seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        increments = n * g.n_steps * 8
        states = n * (g.n_steps + 1) * 8
        assert peak < increments + states / 4

    @pytest.mark.parametrize("delta, n_list, key", [
        (0.0, [100], "delta"), (0.05, [1, 100], "n_list"), (0.05, [0, 100], "n_list"),
    ])
    def test_bad_sweep_refused_before_simulating(self, monkeypatch, delta, n_list, key):
        states = _count_states(monkeypatch)
        with pytest.raises(ConfigError) as err:
            gaussian_tail_sweep(self._ou(), [0.0], TimeGrid(1.0, 4), delta, n_list)
        assert err.value.key_path == key and states == []

    def test_estimate_increases_with_delta(self):
        g = TimeGrid(1.0, 64)
        a, b = (gaussian_tail_sweep(self._ou(), [0.0], g, delta, [4000],
                                    seed=1)["rows"][0] for delta in (0.02, 0.05))
        assert 1.0 < a["estimate"] < b["estimate"]


class TestT2Check:
    def test_ou_entropy_and_ratio(self):
        model = model_from_config(ou_singular_config(kappa=1.0))
        res = t2_check(model, [0.0], TimeGrid(1.0, 128), [0.1, 0.2], 2048, seed=3)
        for row in res["rows"]:
            # constant shift h against unit diffusion: H = h^2 T / 2 exactly
            assert row["entropy"] == pytest.approx(0.5 * row["shift"] ** 2, rel=1e-10)
        assert res["ratio_spread"] == pytest.approx(1.0, abs=1e-9)
        assert res["entropy_scaling_exponent"] == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("d", [1, 2])
    def test_ou_closed_form_oracle(self, d):
        # OU with rate 1 and sigma = I: the coupled gap is deterministic on
        # the EM grid, Delta_n = h (1 - (1 - dt)^n), largest at n = 256, and
        # the Girsanov entropy of the shift h e_1 is h^2 T / 2
        model = model_from_config(ou_singular_config(kappa=1.0, d=d))
        res = t2_check(model, [0.0] * d, TimeGrid(1.0, 256), [0.1, 0.2, 0.4], 64,
                       seed=5)
        gap = 1.0 - (1.0 - 1.0 / 256) ** 256
        for row in res["rows"]:
            h = row["shift"]
            assert row["w2_sq_bound"] == pytest.approx((h * gap) ** 2, rel=1e-12)
            assert row["entropy"] == pytest.approx(0.5 * h**2, rel=1e-12)
            assert row["ratio"] == pytest.approx(0.80097, abs=1e-5)

    def test_sup_gap_peaks_before_the_horizon(self):
        # drift -c(t) x, c = 0 before t = 1/2 and 50 from then on, under unit
        # noise: the coupled gap of the shift h is deterministic, h t up to
        # t = 1/2, then decaying to h / 50, so its sup h / 2 is not its last value
        model = CallableModel(1, lambda t, x: -(50.0 if t >= 0.5 else 0.0) * x,
                              lambda t, x: np.ones((len(x), 1, 1)))
        g, h, n = TimeGrid(1.0, 64), 0.3, 16
        twin = with_drift_shift(model, lambda t, x: h * np.ones_like(x))
        sup = coupled_sup_distances(model, twin, [0.0], [0.0], g, 0, n)
        np.testing.assert_allclose(sup, 0.15, rtol=1e-9)
        row, = t2_check(model, [0.0], g, [h], n)["rows"]
        assert row["w2_sq_bound"] == pytest.approx(0.0225, rel=1e-9)

    def test_empty_shifts_is_config_error(self):
        model = model_from_config(ou_singular_config(kappa=1.0))
        with pytest.raises(ConfigError) as err:
            t2_check(model, [0.0], TimeGrid(1.0, 4), [], 8)
        assert err.value.key_path == "shifts"

    @staticmethod
    def _multiplicative():
        # multiplicative noise, so the coupled gaps differ path by path
        return CallableModel(
            2, lambda t, x: -x,
            lambda t, x: (1.0 + 0.3 * np.sin(x[:, :1, None])) * np.eye(2))

    def _assert_rows(self, model, x0, g, shifts, n, seed, res):
        """Each row is the coupled run of its twin plus the Girsanov entropy
        of the twin's ensemble of the same ``n`` paths."""
        _, sigma = model.sim_functions(g)
        for h, row in zip(shifts, res["rows"]):
            shift = lambda t, x, _h=h: _h * np.broadcast_to([1.0, 0.0], x.shape)
            twin = with_drift_shift(model, shift)
            sq = coupled_sup_distances(model, twin, x0, x0, g, seed, n) ** 2
            ens = simulate_ensemble(twin, x0, g, seed, n)
            ent, ent_se = girsanov_entropy(shift, sigma, ens.states, g)
            w2_sq = float(np.mean(sq))
            assert row == {
                "shift": h,
                "w2_sq_bound": w2_sq,
                "w2_sq_stderr": float(np.std(sq, ddof=1) / math.sqrt(n)),
                "entropy": float(ent),
                "entropy_stderr": float(ent_se),
                "ratio": w2_sq / ent,
            }

    def test_t2_simulates_each_path_once(self, monkeypatch):
        model = self._multiplicative()
        x0, g, shifts, n, seed = [0.2, -0.1], TimeGrid(1.0, 16), [0.1, 0.2, 0.4], 300, 6
        states = _count_states(monkeypatch)
        res = t2_check(model, x0, g, shifts, n, seed)
        # the base model and every twin step as states of one coupled run,
        # which also feeds the entropies
        assert sum(states) == (len(shifts) + 1) * n
        self._assert_rows(model, x0, g, shifts, n, seed, res)

    def test_t2_does_not_depend_on_chunk_size(self, monkeypatch):
        # the sups and Girsanov integrals of all n paths stream through the
        # coupled run, so each row is the twin's whole ensemble
        model = self._multiplicative()
        x0, g, shifts, seed, n = [0.2, -0.1], TimeGrid(1.0, 4), [0.1, 0.3], 2, 2100
        states = _count_states(monkeypatch)
        res = t2_check(model, x0, g, shifts, n, seed)
        assert sum(states) == (len(shifts) + 1) * n
        self._assert_rows(model, x0, g, shifts, n, seed, res)
        # chunks of 1000 paths, the last one short
        monkeypatch.setattr(simulate, "_chunk_size", lambda grid, d: 1000)
        assert t2_check(model, x0, g, shifts, n, seed) == res


class TestSharedRun:
    @staticmethod
    def _model(d):
        cfg = ou_singular_config(d=d)
        if d == 2:  # a sigma that mixes coordinates, as in test_declared
            cfg["b2"] = {"family": "linear", "matrix": [[-1.0, 0.4], [-0.3, -0.8]]}
            cfg["sigma"] = {"family": "constant", "value": [[1.0, 0.3], [-0.2, 0.7]]}
            cfg["c0"] = 10.0
        return model_from_config(cfg)

    @settings(max_examples=15)
    @given(d=st.sampled_from([1, 2]), n_paths=st.integers(2, 60),
           rel=st.sampled_from([-1, 0, 1]), gap=st.integers(1, 40),
           seed=st.one_of(st.integers(0, 2**32), st.integers(2**63, 2**64 - 1)))
    def test_shared_run_equals_separate_calls(self, d, n_paths, rel, gap, seed):
        # the sweep's largest n below, at and above the T2 run's n_paths
        n_max = max(2, n_paths + rel * gap)
        n_list = [max(2, n_max // 2), n_max]
        model, g, x0, shifts = self._model(d), TimeGrid(1.0, 8), [0.3, -0.2][:d], [0.1, 0.3]
        sweep, t2 = tail_sweep_and_t2(model, x0, g, 0.05, n_list, shifts, n_paths, seed)
        alone = (gaussian_tail_sweep(model, x0, g, 0.05, n_list, seed),
                 t2_check(model, x0, g, shifts, n_paths, seed))
        if d == 1:
            assert (sweep, t2) == alone
            return
        # d = 2: the coupled run may sum a matrix product in another order
        shared = tci._shared_run(model, x0, g, seed, n_max, shifts, n_paths)
        tail = tci._shared_run(model, x0, g, seed, n_max, [], 0)["tail"]
        assert _ulps(shared["tail"], tail) <= VALUE_ULPS
        assert [r["n"] for r in sweep["rows"]] == [r["n"] for r in alone[0]["rows"]]
        for ra, rb in zip(t2["rows"], alone[1]["rows"]):
            for key in ("w2_sq_bound", "entropy", "ratio"):
                assert _ulps(ra[key], rb[key]) <= VALUE_ULPS

    def test_cli_draws_each_path_once(self, tmp_path, monkeypatch, capsys):
        drawn = []
        block = simulate._increment_block

        def recorded(seed, grid, d, ids):
            drawn.extend(int(i) for i in ids)
            return block(seed, grid, d, ids)

        monkeypatch.setattr(simulate, "_increment_block", recorded)
        cfg = tmp_path / "t.yaml"
        cfg.write_text(yaml.safe_dump({
            "model": ou_singular_config(), "seed": 3, "n_steps": 8, "delta": 0.05,
            "n_list": [300, 700], "shifts": [0.1, 0.2], "n_paths": 500,
        }))
        assert main(["tci", str(cfg)]) == 0
        assert sorted(drawn) == list(range(700))

    def test_tail_sweep_peak_is_one_chunk(self):
        # the shape of the tail_sweep benchmark: at its allocation peak the
        # run holds one chunk's increments, capped at 16 MiB, and at most
        # 4 MiB of draw tile, accumulators and per-step arrays; no path
        # state is kept
        model, g = model_from_config(ou_singular_config(kappa=1.0)), TimeGrid(1.0, 256)
        shifts, n_paths = [0.1, 0.2, 0.4], 8192
        tail_sweep_and_t2(model, [0.0], g, 0.05, [100, 200], shifts, 100, 1)
        tracemalloc.start()
        try:
            tail_sweep_and_t2(model, [0.0], g, 0.05, [10000, 40000], shifts, n_paths, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert simulate._CHUNK_BUDGET * 8 <= 16 * 2**20
        assert peak <= simulate._CHUNK_BUDGET * 8 + 4 * 2**20


class TestCouplingLipschitz:
    def test_sandwich_holds(self):
        sg = SpaceGrid(10.0, 2001, 1)
        u = GridFunction(sg, (0.2 * np.sin(sg.axes[0]))[:, None])
        phi = Homeomorphism(u, u.grad_bound(), 1.0, 0.5)
        rng = np.random.default_rng(0)
        a = rng.uniform(-5, 5, (50, 9, 1))
        b = a + rng.uniform(-1, 1, (50, 9, 1))
        res = coupling_lipschitz_check(phi, a, b)
        assert res["passed"], res


class TestInvarianceSuite:
    def test_small_run_passes(self):
        res = invariance_suite(n_trials=40, seed=2)
        assert res["passed"], res
        assert res["worst_w_identity_error"] <= 1e-10
        assert res["worst_entropy_error"] <= 1e-12

    @pytest.mark.parametrize("seed", [
        # trial 50 pushes a d = 1 pair by a slope of 0.031, where the sandwich
        # is an equality; its squared costs are below 8e-3, and solved in
        # absolute units its W2 came out 5.2e-8 off, far past w_tol
        1216830992,
        # costs near 3, where HiGHS's default dual tolerance of 1e-7 let one
        # solve stop at a vertex 1.5e-8 above the optimum
        910169331,
    ])
    def test_lp_tolerance_failures_are_gone(self, seed):
        res = invariance_suite(n_trials=200, seed=seed)
        assert res["passed"], res
        assert res["worst_sandwich_violation"] == 0.0

    def test_transport_lps_share_solves_up_to_the_cap(self, monkeypatch):
        sizes, solves = [], []
        real_many, real_lp = tci.exact_wp_many, transport.linprog

        def many(pairs, p):
            sizes.extend(len(mu.atoms) * len(nu.atoms) for mu, nu, _ in pairs)
            return real_many(pairs, p)

        def lp(c, A_eq, b_eq):
            solves.append(A_eq.shape[1])
            return real_lp(c, A_eq=A_eq, b_eq=b_eq)

        monkeypatch.setattr(tci, "exact_wp_many", many)
        monkeypatch.setattr(transport, "linprog", lp)
        assert invariance_suite(n_trials=40, seed=2)["passed"]
        # random simplex weights: every pair is an LP, packed greedily in order
        packed = []
        for size in sizes:
            if not packed or packed[-1] + size > transport.LP_BLOCK_VARS:
                packed.append(0)
            packed[-1] += size
        assert len(sizes) == 120
        assert solves == packed
        assert max(solves) <= transport.LP_BLOCK_VARS and len(solves) <= 12

    def test_deterministic(self):
        a = invariance_suite(n_trials=10, seed=9)
        b = invariance_suite(n_trials=10, seed=9)
        assert a == b


class TestReport:
    def test_json_stable_and_sorted(self, tmp_path):
        rep = TCIReport(meta={"seed": 1})
        rep.add("b_section", {"z": 1.0, "a": [1, 2]})
        rep.add("a_section", {"x": np.float64(2.5)})
        s1, s2 = rep.to_json(), rep.to_json()
        assert s1 == s2
        data = json.loads(s1)
        assert data["sections"]["a_section"]["x"] == 2.5
        f = tmp_path / "r.json"
        rep.save_json(f)
        assert f.read_text().strip() == s1
