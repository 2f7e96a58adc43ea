"""Declared coefficients: a ``zero`` field and a ``constant`` sigma matrix.

A model built from a config declares these, and ``sim_functions``,
``run_em`` and ``girsanov_entropy`` read the declaration instead of
evaluating the coefficient.  The results must match the same coefficients
given undeclared, as plain callables.
"""

import functools
from collections import Counter

import numpy as np
import pytest

from sdetci import (
    CallableModel,
    TimeGrid,
    dini_benchmark_config,
    gaussian_tail_sweep,
    model_from_config,
    ou_singular_config,
    simulate_ensemble,
    t2_check,
)
from sdetci.tci import _shared_run
from sdetci.transport import girsanov_entropy

# d = 2 bounds, in units of the last place of the largest magnitude compared:
# a matrix product may sum in another order than the per-path contraction
STATE_ULPS = 4  # measured: 2
VALUE_ULPS = 8  # tail exponents, W2, entropies and ratios; measured: 4


def _pair(A, S):
    """The same linear drift and additive sigma, declared and undeclared."""
    d = len(A)
    cfg = ou_singular_config(d=d)
    cfg["b2"] = {"family": "linear", "matrix": A}
    cfg["sigma"] = {"family": "constant", "value": S}
    cfg["c0"] = 10.0
    declared = model_from_config(cfg)
    A, S = np.array(A, dtype=float), np.array(S, dtype=float)
    plain = CallableModel(d, lambda t, x: x @ A.T,
                          lambda t, x: np.broadcast_to(S, (len(x), d, d)).copy())
    return declared, plain


def _shift(d, h):
    e = np.eye(d)[0]
    return lambda t, x: h * np.broadcast_to(e, x.shape)


def _runs(model, x0, seed):
    g = TimeGrid(1.0, 32)
    d = len(x0)
    states = simulate_ensemble(model, x0, g, seed, 300).states
    return {
        "states": states,
        "tail": 0.05 * _shared_run(model, x0, g, seed, 300, [], 0)["tail"] ** 2,
        "t2": t2_check(model, x0, g, [0.1, 0.3], 200, seed),
        "girsanov": girsanov_entropy(_shift(d, 0.2), model.sigma, states, g),
    }


def _ulps(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.abs(a - b).max() / np.spacing(np.abs(b).max()))


def test_config_families_declare_their_structure():
    model = model_from_config(ou_singular_config(d=2))
    assert model.b1.zero and not hasattr(model.b2, "zero")
    np.testing.assert_array_equal(model.sigma.matrix, np.eye(2))
    drift, sigma = model.sim_functions(TimeGrid(1.0, 4))
    assert drift is model.b2 and sigma is model.sigma
    # a coefficient that cannot declare itself keeps the evaluated path
    cfg = ou_singular_config()
    cfg["sigma"] = {"family": "sin_perturbed", "value": 1.0, "eps": 0.1}
    assert not hasattr(model_from_config(cfg).sigma, "matrix")


@pytest.mark.parametrize("s", [1.0, 0.5, 0.3])
def test_d1_declared_equals_undeclared_bit_for_bit(s):
    declared, plain = _pair([[-1.0]], [[s]])
    a, b = _runs(declared, [0.1], 4), _runs(plain, [0.1], 4)
    np.testing.assert_array_equal(a["states"], b["states"])
    np.testing.assert_array_equal(a["tail"], b["tail"])
    assert a["t2"] == b["t2"]
    assert a["girsanov"] == b["girsanov"]


def test_d1_girsanov_inverse_moves_entropy_by_an_ulp_at_most():
    # h * (1 / s) rounds like h / s for s = 1, 0.5, 0.3 but not for every s:
    # at s = 0.7 the paths and W2 stay bit-identical and the entropy moves
    # by at most a last-place unit
    declared, plain = _pair([[-1.0]], [[0.7]])
    a, b = _runs(declared, [0.1], 4), _runs(plain, [0.1], 4)
    np.testing.assert_array_equal(a["states"], b["states"])
    np.testing.assert_array_equal(a["tail"], b["tail"])
    for ra, rb in zip(a["t2"]["rows"], b["t2"]["rows"]):
        assert ra["w2_sq_bound"] == rb["w2_sq_bound"]
        assert _ulps(ra["entropy"], rb["entropy"]) <= 1
    assert _ulps(a["girsanov"][0], b["girsanov"][0]) <= 1


@pytest.mark.parametrize("A, S", [
    ([[-1.0, 0.4], [-0.3, -0.8]], [[1.0, 0.3], [-0.2, 0.7]]),
    ([[-1.2, 0.7], [0.2, -0.5]], [[0.6, -0.45], [0.3, 0.9]]),
])
def test_d2_declared_within_ulps_of_undeclared(A, S):
    declared, plain = _pair(A, S)
    for seed in (1, 2):
        a, b = _runs(declared, [0.3, -0.2], seed), _runs(plain, [0.3, -0.2], seed)
        assert _ulps(a["states"], b["states"]) <= STATE_ULPS
        assert _ulps(a["tail"], b["tail"]) <= VALUE_ULPS
        for ra, rb in zip(a["t2"]["rows"], b["t2"]["rows"]):
            for key in ("w2_sq_bound", "entropy", "ratio"):
                assert _ulps(ra[key], rb[key]) <= VALUE_ULPS
        assert _ulps(a["girsanov"][0], b["girsanov"][0]) <= VALUE_ULPS
        # a constant shift against constant sigma: the per-path entropies
        # agree, so the stderr is rounding noise on either path
        assert a["girsanov"][1] < 1e-15 and b["girsanov"][1] < 1e-15


def test_tci_never_evaluates_a_declared_sigma_or_caps_a_zero_b1():
    """Wrapped as the benchmark's tracer wraps them, the declared
    coefficients are still read from their attributes, never called."""
    model = model_from_config(ou_singular_config())
    calls = Counter()

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    model.sigma = counted("sigma", model.sigma)
    model.capped_b1 = counted("capped_b1", model.capped_b1)
    g = TimeGrid(1.0, 16)
    gaussian_tail_sweep(model, [0.0], g, 0.05, [64, 128], seed=1)
    t2_check(model, [0.0], g, [0.1, 0.2], 64, seed=1)
    assert calls == {}
    # the counters do count: a direct call is seen
    model.sigma(0.0, np.zeros((2, 1)))
    assert calls == {"sigma": 1}


def test_dini_drift_leaves_out_a_zero_B():
    model = model_from_config(dini_benchmark_config())
    calls, B = Counter(), model.B

    @functools.wraps(B)
    def counted(t, x):
        calls["B"] += 1
        return B(t, x)

    model.B = counted
    g = TimeGrid(1.0, 32)
    declared = simulate_ensemble(model, [0.3], g, seed=5, n_paths=64)
    assert calls == {}
    summed = CallableModel(1, lambda t, x: np.zeros_like(x) + model.b(t, x), model.sigma)
    plain = simulate_ensemble(summed, [0.3], g, seed=5, n_paths=64)
    np.testing.assert_array_equal(declared.states, plain.states)
