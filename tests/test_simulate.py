import ast
import csv
import math
import os
import threading
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from sdetci import simulate, tci
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

    def test_no_module_imports_scipy_at_top_level(self):
        # scipy loads inside the functions that call its solvers, so importing
        # sdetci, and a command that needs only numpy, loads none of it
        def run_at_import(node):
            for child in ast.iter_child_nodes(node):
                if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                          ast.Lambda)):
                    yield child
                    yield from run_at_import(child)

        eager = []
        for path in Path(simulate.__file__).parent.glob("*.py"):
            for node in run_at_import(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                eager += [(path.name, n) for n in names if n.partition(".")[0] == "scipy"]
        assert eager == []

    @settings(max_examples=40)
    @given(seed=st.one_of(st.integers(0, 2**32), st.integers(2**63, 2**64 - 1)),
           first=st.one_of(st.integers(0, 64), st.integers(2**32, 2**62),
                           st.integers(2**63, 2**64 - 64)),
           n=st.integers(1, 9), step=st.integers(1, 3),
           kind=st.sampled_from(["range", "array", "split"]),
           n_steps=st.integers(1, 12), d=st.sampled_from([1, 2]),
           per_tile=st.one_of(st.none(), st.integers(1, 4)),
           spare=st.integers(0, 23))
    @example(seed=3, first=5, n=7, step=2, kind="range", n_steps=5, d=1,
             per_tile=3, spare=0)
    @example(seed=3, first=5, n=7, step=1, kind="array", n_steps=5, d=2,
             per_tile=2, spare=9)
    def test_rekeyed_block_equals_path_streams(self, seed, first, n, step, kind,
                                               n_steps, d, per_tile, spare):
        # one generator re-keyed per path draws what a fresh stream per path
        # draws; "split" is the ``ids + 1`` array of a split pair's state 1.
        # A small tile of ``per_tile`` paths (plus ``spare`` floats, fewer
        # than one more path) makes the ids cross tile boundaries and leave
        # a partial last tile.
        ids = range(first, first + n * step, step)
        if kind == "array":
            ids = np.arange(first, first + n * step, step,
                            dtype=np.int64 if first < 2**63 else np.uint64)
        elif kind == "split":
            ids = np.add(ids, 1)
        g = TimeGrid(0.7, n_steps)
        with pytest.MonkeyPatch.context() as mp:
            if per_tile is not None:
                mp.setattr(simulate, "_TILE",
                           per_tile * n_steps * d + spare % (n_steps * d))
            block = simulate._increment_block(seed, g, d, ids)
        assert block.shape == (n_steps, n, d)
        for j, pid in enumerate(ids):
            ref = simulate.path_rng(seed, pid).standard_normal((n_steps, d))
            assert block[:, j].tobytes() == (ref * math.sqrt(g.h)).tobytes()

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

    @settings(max_examples=30)
    @given(n=st.integers(1, 40), chunk=st.integers(1, 12), per_tile=st.integers(1, 5),
           d=st.sampled_from([1, 2]), scheme=st.sampled_from(["em", "tamed"]))
    def test_chunk_and_tile_sizes_leave_results_unchanged(self, n, chunk, per_tile,
                                                          d, scheme):
        # coupled states (declared sigma, a drift-shifted twin, a sigma that
        # is called) fill two named columns, a (k,) sup and the trapezoid of
        # |x|^2 on the called-sigma state, byte-identical whatever the chunk
        # and draw-tile sizes
        model = model_from_config(ou_singular_config(kappa=0.7, d=d))
        called = CallableModel(d, lambda t, x: -x, lambda t, x: (
            (1.0 + 0.1 * np.tanh(x))[:, :, None] * np.eye(d)))
        g, ids = TimeGrid(1.0, 8), range(3, 3 + n)
        fns = [model.sim_functions(g),
               with_drift_shift(model, lambda t, x: 0.5 * np.ones_like(x)).sim_functions(g),
               called.sim_functions(g)]
        x0s = [np.linspace(0.2, -0.1, d), np.zeros(d), np.full(d, 0.3)]

        def track(sup, k, t, xs):
            np.maximum(sup, np.stack([np.linalg.norm(x, axis=1) for x in xs], axis=1),
                       out=sup)

        square = simulate._trapezoid(g, lambda t, x: (x**2).sum(axis=1))

        def run():
            cols = simulate._path_chunks(fns, x0s, g, 5, ids, scheme, {
                "sup": ((len(fns),), track),
                "square": ((), lambda col, k, t, xs: square(col, k, t, xs[2]))})
            assert list(cols) == ["sup", "square"]
            return cols["sup"].tobytes(), cols["square"].tobytes()

        whole = run()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_TILE", per_tile * g.n_steps * d)
            assert _chunked(chunk, run) == whole


@pytest.fixture
def split(monkeypatch):
    """Split every path loop into up to three parts, as if on three CPUs.

    Returns the pids the parent forked and, in a child, its part number.
    """
    forks = SimpleNamespace(pids=[], part=0)
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            forks.pids.append(pid)
        else:
            forks.part = len(forks.pids) + 1
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(simulate, "_SPLIT_WORK", 0)
    return forks


def _in_one_process(run):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_SPLIT_WORK", 1 << 62)
        return run()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestParts:
    @pytest.mark.parametrize("d", [1, 2])
    def test_split_columns_equal_one_process(self, split, d):
        model = model_from_config(ou_singular_config(kappa=0.7, d=d))
        called = CallableModel(d, lambda t, x: -x, lambda t, x: (
            (1.0 + 0.1 * np.tanh(x))[:, :, None] * np.eye(d)))
        sg = SpaceGrid(4.0, 41, d)
        phi = build_phi(GridFunction(sg, 0.1 * np.sin(sg.points()).reshape(sg.shape + (d,))),
                        lam=2.0)
        g, x0, n = TimeGrid(1.0, 16), [0.3, -0.2][:d], 50

        def sup(acc, k, t, x):
            np.maximum(acc, np.abs(x).sum(axis=1), out=acc)

        # each run and the number of path loops it makes
        runs = {
            "ensemble_reduce": (1, lambda: [ensemble_reduce(called, x0, g, 5, n, sup, ())]),
            "_shared_run": (2, lambda: list(tci._shared_run(
                model, x0, g, 5, n, [0.1, 0.3], 30).values())),
            "coupled_sup_distances": (1, lambda: [coupled_sup_distances(
                model, called, x0, x0, g, 5, n, "tamed", 3)]),
            "simulate_ensemble": (1, lambda: [simulate_ensemble(called, x0, g, 5, n).states]),
            "pathwise_consistency": (2, lambda: pathwise_consistency(
                model, phi, 2.0, x0, [4, 8], seed=5, n_paths=n)["rows"]),
        }
        for name, (loops, run) in runs.items():
            whole = [np.asarray(c).tobytes() for c in _in_one_process(run)]
            forked = len(split.pids)
            parts = [np.asarray(c).tobytes() for c in run()]
            assert len(split.pids) - forked == 2 * loops, name
            assert parts == whole, name
        _no_child_left()

    @pytest.mark.parametrize("coefs, step", [((0.6, 1.0), 4), ((1.0, 0.6), 4)])
    def test_lowest_failing_part_raises(self, split, coefs, step):
        # parts 1 and 2, each in a child, run the cubic drag -c x^3 from
        # x0 = 20 with c from ``coefs`` (c = 0.6 blows up at step 5, c = 1
        # at step 4); part 0, in the parent, runs a linear drift and does not.
        # The earliest blow-up raises, whichever part it is in
        def cubic(c):
            return lambda t, x: -c * x**3

        def drift(t, x):
            return -x if split.part == 0 else cubic(coefs[split.part - 1])(t, x)

        def sigma(t, x):
            return np.ones((len(x), 1, 1))

        g = TimeGrid(1.0, 100)
        with pytest.raises(BlowupError) as err:
            time_integrals(CallableModel(1, drift, sigma), [20.0], g, 0, 30)
        assert len(split.pids) == 2
        _no_child_left()
        # with the error of the earliest failing model, c = 1, in one process
        with pytest.raises(BlowupError) as alone:
            _in_one_process(lambda: time_integrals(
                CallableModel(1, cubic(max(coefs)), sigma), [20.0], g, 0, 30))
        assert (type(err.value), err.value.step, str(err.value)) == (
            BlowupError, step, f"path blew up at step {step}")
        assert (err.value.step, str(err.value)) == (alone.value.step, str(alone.value))

    def test_blowup_in_every_part_raises_as_one_process(self, split):
        # cubic drag from x0 = 20 blows up at step 4 in every part: part 0,
        # in the parent, raises the error of the one-process run
        g = TimeGrid(1.0, 100)
        run = lambda: coupled_sup_distances(  # noqa: E731
            _cubic(), _cubic(), [20.0], [20.0], g, 0, 30)
        with pytest.raises(BlowupError) as alone:
            _in_one_process(run)
        with pytest.raises(BlowupError) as err:
            run()
        assert len(split.pids) == 2
        _no_child_left()
        assert (err.value.step, str(err.value)) == (alone.value.step, str(alone.value)) == (
            4, "path blew up at step 4")

    def test_no_split_while_another_thread_runs(self, split):
        # a child would hold only the forking thread; Python >= 3.12 warns
        g = TimeGrid(1.0, 16)
        stop = threading.Event()
        worker = threading.Thread(target=stop.wait)
        worker.start()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with_thread = time_integrals(_ou(), [0.0], g, 3, 50)
        finally:
            stop.set()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert split.pids == [] and caught == []
        assert time_integrals(_ou(), [0.0], g, 3, 50).tobytes() == with_thread.tobytes()
        assert len(split.pids) == 2
        _no_child_left()

    def test_blowup_step_independent_of_chunks_and_parts(self, split, monkeypatch):
        # the drag -0.52 x^3 from x0 = 20 blows up at step 5 or 6 by path:
        # every run raises the earliest step of any path, whether the loop
        # runs in one process, in two parts or in one-path chunks
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        model = CallableModel(1, lambda t, x: -0.52 * x**3,
                              lambda t, x: np.ones((len(x), 1, 1)))
        g = TimeGrid(1.0, 100)

        def steps():
            out = []
            for seed in range(40):
                with pytest.raises(BlowupError) as err:
                    simulate_ensemble(model, [20.0], g, seed, 8)
                out.append(err.value.step)
            return out

        alone = _in_one_process(steps)
        assert set(alone) == {5, 6}
        assert steps() == alone
        assert len(split.pids) == 40
        _no_child_left()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_CHUNK_BUDGET", 1)
            assert _in_one_process(steps) == alone

    def test_dead_part_raises(self, split):
        # a child that dies without reporting leaves its rows of the shared
        # columns zeroed: the parent raises instead of returning them
        def drift(t, x):
            if split.part == 1:
                os._exit(1)
            return -x

        model = CallableModel(1, drift, lambda t, x: np.ones((len(x), 1, 1)))
        with pytest.raises(RuntimeError, match=r"the process of paths 10\.\.19 ended"):
            simulate_ensemble(model, [0.0], TimeGrid(1.0, 16), 3, 30)
        assert len(split.pids) == 2
        _no_child_left()

    def test_full_state_run_holds_states_once(self):
        # the states are allocated once and filled in place: beside them the
        # run holds one chunk's increments, capped at 16 MiB, and at most
        # 4 MiB of draw tile and per-step arrays
        model, g = _ou(), TimeGrid(1.0, 256)
        simulate_ensemble(model, [0.0], g, 0, 10)
        tracemalloc.start()
        try:
            states = _in_one_process(
                lambda: simulate_ensemble(model, [0.0], g, 0, 20000).states)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= states.nbytes + simulate._CHUNK_BUDGET * 8 + 4 * 2**20


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
        dw = brownian_increments(9, g, 1)[:, None]
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
        ensemble_to_csv(ens, path, {"config_sha256": "0123abcd", "seed": 4})
        with open(path, newline="") as fh:
            meta = [next(fh) for _ in range(4)]
            header, *rows = csv.reader(fh)
        assert meta == ["# config_sha256=0123abcd\n", "# seed=4\n", "# scheme=em\n",
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
