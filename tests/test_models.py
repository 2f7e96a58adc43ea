import math

import numpy as np
import pytest

from sdetci import (
    InvalidCoefficient,
    ModulusSpec,
    SingularModelSpec,
    dini_benchmark_config,
    model_from_config,
    ou_singular_config,
    validate_model,
)
from sdetci.errors import ConfigError


class TestModulus:
    def test_holder_validates(self):
        for alpha in (0.25, 0.5, 0.8, 1.0):
            rep = ModulusSpec("holder", alpha=alpha, L=2.0).validate()
            assert rep.passed, (alpha, rep.as_dict())

    def test_lipschitz_validates_via_envelope(self):
        rep = ModulusSpec("lipschitz", L=3.0).validate()
        assert rep.passed

    def test_log_square_validates(self):
        rep = ModulusSpec("log_square").validate()
        assert rep.passed

    def test_log_square_shape(self):
        phi = ModulusSpec("log_square")
        cut = math.exp(-5.0)
        assert phi(0.0) == 0.0
        assert phi(cut / 2) == pytest.approx(math.log(cut / 2) ** -2)
        # capped beyond the cutoff
        assert phi(0.5) == phi(1.0) == pytest.approx(1.0 / 25.0)

    def test_scaling(self):
        base = ModulusSpec("log_square")
        scaled = ModulusSpec("log_square", scale=7.0)
        s = np.linspace(0, 1, 50)
        np.testing.assert_allclose(scaled(s), 7.0 * base(s))
        assert scaled.validate().passed

    def test_dini_tail_vanishes_for_log_square(self):
        phi = ModulusSpec("log_square")
        # tail of the Dini integral in log scale: ~1/t1 for this family
        assert phi.dini_tail(1e7, 1e8) < 1e-6
        assert phi.dini_tail(1e3, 1e8) > 1e-4

    def test_no_holder_fit_below_any_alpha(self):
        # phi / s^alpha diverges as s -> 0, albeit only at log speed
        phi = ModulusSpec("log_square")
        s = np.array([1e-30, 1e-20, 1e-12])
        ratios = phi(s) / s**0.1
        assert ratios[0] > ratios[1] > ratios[2]

    def test_custom_table(self):
        s = np.linspace(0, 1, 64)
        mod = ModulusSpec(
            "custom_table",
            table_s=tuple(s),
            table_phi=tuple(np.sqrt(s)),
        )
        assert mod.validate().passed

    def test_custom_table_with_uneven_nodes(self):
        # the slopes of phi^2 between the nodes, 1.6, 1.2 and 0.72, fall
        mod = ModulusSpec("custom_table", table_s=(0, 0.1, 0.5, 1), table_phi=(0, 0.4, 0.8, 1))
        rep = mod.validate()
        assert rep.passed, rep.as_dict()
        assert rep.margin("phi_sq_concave") == pytest.approx(0.4, rel=1e-12)

    def test_custom_table_whose_square_slopes_rise_fails(self):
        # phi^2 = 0, 0.4, 0.5, 0.55 rises by less over each node gap, but its
        # slopes 0.5, 1.0, 0.5 rise at s = 0.8: not concave
        mod = ModulusSpec("custom_table", table_s=(0, 0.8, 0.9, 1),
                          table_phi=tuple(np.sqrt([0, 0.4, 0.5, 0.55])))
        rep = mod.validate()
        assert not rep.passed
        assert rep.margin("phi_sq_concave") == pytest.approx(-0.5, rel=1e-12)
        assert rep.margin("phi_nondecreasing") > 0

    @pytest.mark.parametrize("spec, margin", [
        (ModulusSpec("holder", alpha=0.25, L=2.0), 2.38826583398577e-07),
        (ModulusSpec("holder", alpha=0.5, L=2.0), -2.220446049250313e-15),
        (ModulusSpec("holder", alpha=0.8, L=2.0), -2.220446049250313e-15),
        (ModulusSpec("lipschitz", L=3.0), -7.105427357601002e-15),
        (ModulusSpec("log_square", scale=7.0), -0.0),
    ])
    def test_sampled_family_concavity_margin(self, spec, margin):
        # the second differences of phi^2 on 2 048 even nodes, bit for bit
        assert spec.validate().margin("phi_sq_concave") == margin

    @pytest.mark.parametrize("nodes", [(0, 0.5, 0.5, 1), (0, 0.5, 0.3, 1)])
    def test_custom_table_nodes_must_increase(self, nodes):
        with pytest.raises(ConfigError, match="increase strictly"):
            ModulusSpec("custom_table", table_s=nodes, table_phi=(0, 0.5, 0.6, 1))

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            ModulusSpec("fancy")(0.5)


class TestValidateModel:
    def test_ou_singular_passes(self):
        model = model_from_config(ou_singular_config(kappa=1.0))
        rep = validate_model(model, seed=1)
        assert rep.passed, rep.as_dict()
        assert rep.margin("dissipativity") >= 0

    def test_wrong_dissipativity_constant_fails(self):
        cfg = ou_singular_config(kappa=1.0)
        cfg["kappa1"] = 3.0  # too strong for b2 = -x
        rep = validate_model(model_from_config(cfg), seed=1)
        assert not rep.passed
        assert rep.margin("dissipativity") < 0

    def test_linear_growth_tag(self):
        cfg = ou_singular_config(kappa=1.0)
        cfg["tag"] = "linear_growth"
        cfg["kappa4"] = 1.0
        rep = validate_model(model_from_config(cfg), seed=1)
        assert rep.passed

    def test_dini_benchmark_passes(self):
        model = model_from_config(dini_benchmark_config(sup=1.0))
        rep = validate_model(model, seed=2)
        assert rep.passed, rep.as_dict()

    def test_dini_wrong_sup_fails(self):
        cfg = dini_benchmark_config(sup=1.0)
        cfg["b_sup"] = 0.3
        rep = validate_model(model_from_config(cfg), seed=2)
        assert rep.margin("b_sup_bound") < 0

    def test_partial_bounds_keep_their_defaults(self):
        cfg = dini_benchmark_config(sup=1.0)
        cfg["bounds"] = {"sigma": 2.0}
        model = model_from_config(cfg)
        assert model.bounds["sigma"] == 2.0 and model.bounds["inv_a"] == 1.0
        assert validate_model(model, seed=2).passed

    def test_nonfinite_coefficient_raises(self):
        model = model_from_config(ou_singular_config())
        model.b2 = lambda t, x: x * np.nan
        with pytest.raises(InvalidCoefficient):
            validate_model(model)

    def test_deterministic_for_fixed_seed(self):
        model = model_from_config(ou_singular_config())
        a = validate_model(model, seed=5).as_dict()
        b = validate_model(model, seed=5).as_dict()
        assert a == b


class TestConfigRoundTrip:
    def test_round_trip(self):
        cfg = ou_singular_config(kappa=0.7)
        model = model_from_config(cfg)
        assert model.kappa1 == 0.7

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            model_from_config({"kind": "mystery"})

    def test_unknown_field_family(self):
        cfg = ou_singular_config()
        cfg["b2"] = {"family": "whatever"}
        with pytest.raises(ConfigError):
            model_from_config(cfg)

    def test_unread_key_is_refused(self):
        # a direct call refuses what nothing reads, by its path in the tree
        with pytest.raises(ConfigError) as top:
            model_from_config({**ou_singular_config(), "kapa1": 1.0})
        assert top.value.key_path == "kapa1"
        cfg = ou_singular_config()
        cfg["b2"] = {**cfg["b2"], "coef": 1.0}
        with pytest.raises(ConfigError) as nested:
            model_from_config(cfg)
        assert nested.value.key_path == "b2.coef"

    def test_log_square_bench_modulus_derived(self):
        model = model_from_config(dini_benchmark_config(sup=2.0))
        # the drift is built to have sup-norm equal to the requested bound
        x = np.linspace(-4, 4, 2001)[None].T
        vals = model.b(0.0, x)
        assert np.abs(vals).max() == pytest.approx(2.0, rel=1e-6)
        assert model.modulus.family == "log_square"


class TestCappedSingularPart:
    def test_cap_respected(self):
        cfg = ou_singular_config()
        cfg["b1"] = {"family": "radial_singularity", "c": 1.0, "gamma": 0.5}
        model = model_from_config(cfg)
        capped = model.capped_b1(10.0)
        x = np.array([[1e-8], [0.5], [2.0]])
        v = capped(0.0, x)
        assert np.linalg.norm(v, axis=1).max() <= 10.0 + 1e-12
        # far from the singularity the cap is inactive
        assert v[1, 0] == pytest.approx(model.b1(0.0, x)[1, 0])
