import ast
import csv
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdetci import (
    BlowupError,
    CallableModel,
    GridFunction,
    SpaceGrid,
    TimeGrid,
    TransformedModel,
    brownian_increments,
    build_phi,
    check_gradient_estimate,
    coupled_sup_distances,
    ensemble_reduce,
    model_from_config,
    ou_singular_config,
    pathwise_consistency,
    simulate_ensemble,
    with_drift_shift,
)
from sdetci import simulate
from sdetci.simulate import ensemble_to_csv, run_em, time_integrals


def _ou(kappa=1.0):
    return model_from_config(ou_singular_config(kappa=kappa))


def _sin_transformed(model):
    # image of the model under Phi = id + 0.2 sin, inverted by fixed point
    sg = SpaceGrid(6.0, 121, 1)
    u = GridFunction(sg, 0.2 * np.sin(sg.axes[0])[:, None])
    return TransformedModel(build_phi(u, lam=2.0), model, 2.0)


def _chunked(chunk, run):
    """``run()`` with every chunk of the shared path loop set to ``chunk`` paths."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_chunk_size", lambda grid, d, held: chunk)
        return run()


def _cubic():
    cfg = ou_singular_config()
    cfg["b2"] = {"family": "cubic_drag", "coef": 1.0}
    cfg["kappa1"] = 1.0
    cfg["r"] = 2.0
    return model_from_config(cfg)


class TestRngDiscipline:
    def test_same_path_id_reproducible(self):
        g = TimeGrid(1.0, 64)
        a = brownian_increments(7, g, 2, path_id=5)
        b = brownian_increments(7, g, 2, path_id=5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_path_ids_differ(self):
        g = TimeGrid(1.0, 64)
        a = brownian_increments(7, g, 1, path_id=0)
        b = brownian_increments(7, g, 1, path_id=1)
        assert np.abs(a - b).max() > 0

    def test_variance_scaling(self):
        g = TimeGrid(2.0, 8)
        draws = np.stack(
            [brownian_increments(0, g, 1, pid) for pid in range(4000)]
        )
        assert draws.var() == pytest.approx(g.h, rel=0.05)

    def test_chunk_partition_invariance(self):
        model = _ou()
        g = TimeGrid(1.0, 32)
        for m in (model, _sin_transformed(model)):
            a = _chunked(7, lambda: simulate_ensemble(m, [0.5], g, 3, 100))
            b = _chunked(100, lambda: simulate_ensemble(m, [0.5], g, 3, 100))
            np.testing.assert_array_equal(a.states, b.states)

    def test_numpy_int_path_ids(self):
        g = TimeGrid(1.0, 8)
        a = brownian_increments(1, g, 1, path_id=np.int64(3))
        b = brownian_increments(1, g, 1, path_id=3)
        np.testing.assert_array_equal(a, b)

    def test_seeds_above_2_63_key_distinct_streams(self):
        g = TimeGrid(1.0, 8)
        draws = [brownian_increments(s, g, 1, path_id=3)
                 for s in (0, 2**63, 2**63 + 1, 2**64 - 1)]
        for i, a in enumerate(draws):
            for b in draws[i + 1:]:
                assert np.abs(a - b).max() > 0

    def test_only_simulate_builds_generators(self):
        # every sampler draws through the path-keyed loop, so no other module
        # calls ``path_rng`` or builds a Philox generator itself
        callers = set()
        for path in Path(simulate.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    fn = node.func
                    name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", "")
                    if name in ("path_rng", "Philox"):
                        callers.add(path.name)
        assert callers == {"simulate.py"}

    @settings(max_examples=40)
    @given(seed=st.one_of(st.integers(0, 2**32), st.integers(2**63, 2**64 - 1)),
           first=st.one_of(st.integers(0, 64), st.integers(2**32, 2**62),
                           st.integers(2**63, 2**64 - 64)),
           n=st.integers(1, 6), step=st.integers(1, 3),
           kind=st.sampled_from(["range", "array", "split"]),
           n_steps=st.integers(1, 12), d=st.sampled_from([1, 2]))
    def test_rekeyed_block_equals_path_streams(self, seed, first, n, step, kind,
                                               n_steps, d):
        # one generator re-keyed per path draws what a fresh stream per path
        # draws; "split" is the ``ids + 1`` array of a split pair's state 1
        ids = range(first, first + n * step, step)
        if kind == "array":
            ids = np.arange(first, first + n * step, step,
                            dtype=np.int64 if first < 2**63 else np.uint64)
        elif kind == "split":
            ids = np.add(ids, 1)
        g = TimeGrid(0.7, n_steps)
        block = simulate._increment_block(seed, g, d, ids)
        assert block.shape == (n, n_steps, d)
        for j, pid in enumerate(ids):
            ref = simulate.path_rng(seed, pid).standard_normal((n_steps, d))
            assert block[j].tobytes() == (ref * math.sqrt(g.h)).tobytes()

    @settings(max_examples=25)
    @given(n=st.integers(1, 24), chunk=st.integers(1, 24),
           scheme=st.sampled_from(["em", "tamed"]))
    def test_path_keyed_prefix_and_partition(self, n, chunk, scheme):
        model = model_from_config(ou_singular_config(kappa=0.7, d=2))
        shifted = with_drift_shift(model, lambda t, x: 0.5 * np.ones_like(x))
        g = TimeGrid(1.0, 16)
        x0 = [0.2, -0.1]

        def max_plus_terminal(acc, k, t, x):
            # running max of the first coordinate, terminal second coordinate
            if k < 0:
                acc[:, 0] = x[:, 0]
            np.maximum(acc[:, 0], x[:, 0], out=acc[:, 0])
            acc[:, 1] = x[:, 1]

        runs = [
            lambda k: ensemble_reduce(
                model, x0, g, 5, k, max_plus_terminal, (2,), scheme=scheme,
                path_id0=3).sum(axis=1),
            lambda k: ensemble_reduce(
                model, x0, g, 5, k, lambda s: s[:, :, 0].max(axis=1) + s[:, -1, 1],
                scheme=scheme, path_id0=3),
            lambda k: coupled_sup_distances(
                model, shifted, x0, [0.0, 0.0], g, 5, k, scheme, 3),
        ]
        for run in runs:
            whole = _chunked(n, lambda: run(n))
            np.testing.assert_array_equal(_chunked(chunk, lambda: run(n)), whole)
            np.testing.assert_array_equal(_chunked(2 * n, lambda: run(2 * n))[:n],
                                          whole)
        # the streamed statistic equals the one taken from full states
        np.testing.assert_array_equal(runs[0](n), runs[1](n))
        # the pathwise check of Phi(X) against Y streams through the same loop
        ou = _ou()
        pathwise = lambda: pathwise_consistency(  # noqa: E731
            ou, _sin_transformed(ou).phi, 2.0, [0.3], [2, 4], seed=5, n_paths=n)
        assert _chunked(1, pathwise)["rows"] == _chunked(n, pathwise)["rows"]
        # so does the finite difference of the semigroup gradient check
        ref = CallableModel(2, lambda t, x: -0.7 * x,
                            lambda t, x: np.broadcast_to(np.eye(2), (len(x), 2, 2)))
        gradient = lambda: check_gradient_estimate(  # noqa: E731
            ref, lambda x: (x**2).sum(axis=1), [3.0, 2.0], [0.1, 0.2], n=n,
            seed=5, n_steps=4)
        assert _chunked(1, gradient) == _chunked(n, gradient)


class TestSchemes:
    def test_ou_terminal_moments(self):
        kappa, T = 1.0, 1.0
        model = _ou(kappa)
        g = TimeGrid(T, 512)
        ens = simulate_ensemble(model, [1.0], g, 11, 20000)
        xT = ens.states[:, -1, 0]
        mean_exact = math.exp(-kappa * T)
        var_exact = (1 - math.exp(-2 * kappa * T)) / (2 * kappa)
        assert xT.mean() == pytest.approx(mean_exact, abs=4 * xT.std() / 140)
        assert xT.var() == pytest.approx(var_exact, rel=0.05)

    def test_em_blowup_detected(self):
        g = TimeGrid(1.0, 100)
        with pytest.raises(BlowupError):
            simulate_ensemble(_cubic(), [20.0], g, 0, 1, "em", 0)

    def test_blowup_detected_in_sup_reducers(self):
        model = _cubic()
        g = TimeGrid(1.0, 100)
        with pytest.raises(BlowupError) as err:
            coupled_sup_distances(model, model, [20.0], [20.0], g, 0, 4)
        assert err.value.step == 4

    def test_tamed_survives_superlinear_drift(self):
        g = TimeGrid(1.0, 100)
        states = simulate_ensemble(_cubic(), [20.0], g, 0, 1, "tamed", 0).states[0]
        assert np.isfinite(states).all()
        assert abs(states[-1, 0]) < 5.0  # drag pulls it in

    def test_coupled_paths_share_noise(self):
        model = _ou()
        g = TimeGrid(1.0, 128)
        dw = brownian_increments(9, g, 1)[None]
        states = [[np.array([[0.0]]), np.array([[2.0]])]]
        run_em([model.sim_functions(g)] * 2, states[0], g, dw,
               on_step=lambda k, t, xs: states.append(list(xs)))
        a, b = (np.concatenate([s[i] for s in states]) for i in (0, 1))
        gap = np.abs(a - b).max(axis=1)
        # synchronous coupling of a contracting drift: gap shrinks
        assert gap[-1] < gap[0]

    def test_independent_pair_uses_disjoint_streams(self):
        model = _ou()
        g = TimeGrid(1.0, 32)
        a, b = (simulate_ensemble(model, [0.0], g, 9, 1, "em", pid) for pid in (6, 7))
        assert a.seed_ids[0] == 6 and b.seed_ids[0] == 7
        assert np.abs(a.states - b.states).max() > 0
        # each runs on the stream of its id, as in a longer run
        whole = simulate_ensemble(model, [0.0], g, 9, 8)
        np.testing.assert_array_equal(whole.states[6:],
                                      np.concatenate([a.states, b.states]))


class TestReducers:
    def test_time_integrals_match_direct(self):
        model = _ou()
        g = TimeGrid(1.0, 64)
        vals = time_integrals(model, [1.0], g, 21, 50, power=2.0)
        ens = simulate_ensemble(model, [1.0], g, 21, 50)
        direct = np.trapezoid(
            np.linalg.norm(ens.states, axis=2) ** 2, g.nodes, axis=1
        )
        np.testing.assert_allclose(vals, direct, rtol=1e-12)

    def test_coupled_sup_identical_models_zero(self):
        model = _ou()
        g = TimeGrid(1.0, 64)
        d = coupled_sup_distances(model, model, [0.3], [0.3], g, 2, 50)
        np.testing.assert_array_equal(d, 0.0)

    def test_drift_shift_twin(self):
        model = _ou()
        shifted = with_drift_shift(model, lambda t, x: 0.5 * np.ones_like(x))
        g = TimeGrid(1.0, 64)
        d = coupled_sup_distances(model, shifted, [0.0], [0.0], g, 2, 100)
        assert (d > 0).all() and d.max() < 1.0

    def test_streaming_matches_chunked(self):
        model = _ou()
        g = TimeGrid(1.0, 32)
        a = _chunked(13, lambda: coupled_sup_distances(
            model, with_drift_shift(model, lambda t, x: np.ones_like(x)),
            [0.0], [0.0], g, 5, 60,
        ))
        b = _chunked(60, lambda: coupled_sup_distances(
            model, with_drift_shift(model, lambda t, x: np.ones_like(x)),
            [0.0], [0.0], g, 5, 60,
        ))
        np.testing.assert_array_equal(a, b)


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        model = _ou()
        g = TimeGrid(0.5, 16)
        ens = simulate_ensemble(model, [0.2], g, 4, 5)
        path = tmp_path / "ens.csv"
        ensemble_to_csv(ens, path)
        with open(path, newline="") as fh:
            meta = [next(fh) for _ in range(3)]
            header, *rows = csv.reader(fh)
        assert meta == [f"# fingerprint={ens.model_fingerprint}\n", "# scheme=em\n",
                        "# T=0.5 n_steps=16\n"]
        assert header == ["path_id", "t", "x1"]
        # one row per (path, node), every value written to round-trip exactly
        back = np.array(rows, dtype=float)
        np.testing.assert_array_equal(back[:, 0], np.repeat(ens.seed_ids, 17))
        np.testing.assert_array_equal(back[:, 1], np.tile(g.nodes, 5))
        np.testing.assert_array_equal(back[:, 2:].reshape(ens.states.shape), ens.states)

    def test_callable_model_adapter(self):
        bm = CallableModel(
            1,
            lambda t, x: np.zeros_like(x),
            lambda t, x: np.broadcast_to(np.eye(1), (len(x), 1, 1)),
        )
        g = TimeGrid(1.0, 16)
        ens = simulate_ensemble(bm, [0.0], g, 0, 1, "em", 0)
        assert ens.states.shape == (1, 17, 1)
