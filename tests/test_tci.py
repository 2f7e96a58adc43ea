import json
import math

import numpy as np
import pytest

from sdetci import (
    CallableModel,
    TCIReport,
    TimeGrid,
    coupled_sup_distances,
    delta_threshold,
    exp_functional_estimate,
    gaussian_tail_estimate,
    gaussian_tail_sweep,
    invariance_suite,
    lambda_threshold,
    model_from_config,
    ou_singular_config,
    simulate_ensemble,
    t1_constant,
    t2_check,
    threshold_set,
    with_drift_shift,
)
from sdetci import simulate
from sdetci.errors import ConfigError, InconclusiveEstimate
from sdetci.tci import coupling_lipschitz_check
from sdetci.transport import girsanov_entropy
from sdetci.zvonkin import GridFunction, Homeomorphism, SpaceGrid


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

    def test_sweep_simulates_each_path_once(self, monkeypatch):
        # a run of n paths is a prefix of the largest run, so only that one runs
        model, g = self._ou(), TimeGrid(1.0, 16)
        states = _count_states(monkeypatch)
        sweep = gaussian_tail_sweep(model, [0.0], g, 0.05, [1000, 300], seed=4)
        assert sum(states) == 1000
        for n, row in zip([300, 1000], sweep["rows"]):
            assert row == gaussian_tail_estimate(model, [0.0], g, 0.05, n, seed=4)

    def test_estimate_increases_with_delta(self):
        g = TimeGrid(1.0, 64)
        a = gaussian_tail_estimate(self._ou(), [0.0], g, 0.02, 4000, seed=1)
        b = gaussian_tail_estimate(self._ou(), [0.0], g, 0.05, 4000, seed=1)
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

    def test_t2_simulates_each_path_once(self, monkeypatch):
        # multiplicative noise, so the coupled gaps differ path by path
        model = CallableModel(
            2, lambda t, x: -x,
            lambda t, x: (1.0 + 0.3 * np.sin(x[:, :1, None])) * np.eye(2))
        x0, g, shifts, n, seed = [0.2, -0.1], TimeGrid(1.0, 16), [0.1, 0.2, 0.4], 300, 6
        states = _count_states(monkeypatch)
        res = t2_check(model, x0, g, shifts, n, seed)
        # the base model and every twin step as states of one coupled run,
        # then each twin runs one entropy ensemble
        assert sum(states) == (len(shifts) + 1) * n + len(shifts) * n
        _, sigma = model.sim_functions(g)
        for h, row in zip(shifts, res["rows"]):
            shift = lambda t, x, _h=h: _h * np.broadcast_to([1.0, 0.0], x.shape)
            twin = with_drift_shift(model, shift)
            sq = coupled_sup_distances(model, twin, x0, x0, g, seed, n) ** 2
            ent, ent_se = girsanov_entropy(
                shift, sigma, simulate_ensemble(twin, x0, g, seed, n).states, g)
            w2_sq = float(np.mean(sq))
            assert row == {
                "shift": h,
                "w2_sq_bound": w2_sq,
                "w2_sq_stderr": float(np.std(sq, ddof=1) / math.sqrt(n)),
                "entropy": float(ent),
                "entropy_stderr": float(ent_se),
                "ratio": w2_sq / ent,
            }


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

    def test_csv_flattening(self, tmp_path):
        rep = TCIReport()
        rep.add("s", {"nested": {"k": 1.5}, "list": [2.0, 3.0]})
        f = tmp_path / "r.csv"
        rep.to_csv(f)
        text = f.read_text()
        assert "s,nested.k,1.5" in text
        assert "s,list.0,2.0" in text
