"""Tests of the benchmark itself (not of sdetci).

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import sdetci.models  # noqa: E402
import sdetci.simulate  # noqa: E402
import sdetci.tci  # noqa: E402
import sdetci.transport  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_self_time_on_synthetic_tree():
    # root [0, 10]; a [1, 4] with child [2, 3]; b [3, 6] overlaps a;
    # c [8, 12] runs past the root and is clipped to it
    starts = [0.0, 1.0, 2.0, 3.0, 8.0]
    ends = [10.0, 4.0, 3.0, 6.0, 12.0]
    parents = [-1, 0, 1, 0, 0]
    assert tracing.self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 3.0, 4.0]


def test_self_times_of_nested_spans_sum_to_root():
    starts = [0.0, 0.5, 0.75, 2.0, 2.25, 2.5]
    ends = [4.0, 1.5, 1.0, 3.0, 2.4, 2.75]
    parents = [-1, 0, 1, 0, 3, 3]
    assert sum(tracing.self_times(starts, ends, parents)) == pytest.approx(4.0)


def test_failing_check_raises_fail_ratio(tmp_path):
    wl = workloads.WORKLOADS["invariance"]
    state = {"report": tmp_path / "report.json"}
    good = {"n_trials": 1, "passed": True, "worst_w_identity_error": 0.0,
            "worst_entropy_error": 0.0, "worst_sandwich_violation": 0.0}
    tally = worker.Tally()
    for res in (good, dict(good, passed=False, worst_w_identity_error=1e-9)):
        state["report"].write_text(json.dumps({"sections": {"invariance": res}}))
        tally.add(workloads.run_checks(wl, state, 0, False))
    assert (tally.attempted, tally.failed) == (8, 2)
    assert tally.fail_ratio == 0.25
    # a pass that raised fails every check it would have fed
    tally.add(workloads.run_checks(wl, state, None, True), "traceback")
    assert (tally.attempted, tally.failed) == (12, 6)
    # a missing report fails the checks it would have fed; the exit code still counts
    tally.add(workloads.run_checks(wl, state, 0, False))
    assert (tally.attempted, tally.failed) == (16, 9)


def _namespace_snapshot(instr):
    owners = {id(owner): owner for owner, *_ in instr.patches}
    return {key: dict(vars(owner)) for key, owner in owners.items()}


def _tiny_pass(state):
    mu = sdetci.transport.EmpiricalMeasure.uniform(np.array([[0.0], [1.0]]))
    nu = sdetci.transport.EmpiricalMeasure.uniform(np.array([[0.5], [2.0], [3.0]]))
    w, _ = sdetci.transport.exact_wp(mu, nu, 2.0)
    model = sdetci.simulate.CallableModel(
        1, lambda t, x: -x, lambda t, x: np.ones((len(x), 1, 1)))
    grid = sdetci.simulate.TimeGrid(1.0, 8)
    sdetci.simulate.ensemble_reduce(model, [0.0], grid, 3, 4, lambda s: s[:, -1, 0])
    return w


def test_traced_run_restores_every_patched_name(monkeypatch, capsys, tmp_path):
    tiny = workloads.Workload("tiny", lambda seed, out: {}, _tiny_pass,
                              lambda state, w: {"w_positive": w > 0}, 1)
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", tiny)
    before = _namespace_snapshot(tracing.Instrumentation(tracing.Tracer()))
    originals = {(id(o), a): orig
                 for o, a, orig, _ in tracing.Instrumentation(tracing.Tracer()).patches}

    assert worker.main(["--workload", "tiny", "--seed", "1", "--seconds", "0",
                        "--trace", "1", "--out", str(tmp_path)]) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    layers = {k: m["value"] for k, m in res["layers"].items()}
    assert layers["transport.exact_wp_calls"] == 1
    assert layers["transport.lp_vars"] == 6
    assert layers["simulate.paths_total"] == 4
    assert layers["models.coeff_calls"] == 16
    assert abs(layers["trace.module_sum_residual_s"]) < 1e-9
    assert res["checks"]["failed"] == 0

    after = _namespace_snapshot(tracing.Instrumentation(tracing.Tracer()))
    for key, names in before.items():
        for name, value in names.items():
            assert after[key][name] is value, name
    instr = tracing.Instrumentation(tracing.Tracer())
    for owner, attr, original, _ in instr.patches:
        assert vars(owner)[attr] is originals[(id(owner), attr)]
    assert sdetci.tci.exact_wp is sdetci.transport.exact_wp
    assert sdetci.tci.ensemble_reduce is sdetci.simulate.ensemble_reduce


def test_instrumentation_patches_every_binding():
    instr = tracing.Instrumentation(tracing.Tracer())
    bound = {(owner.__name__, attr) for owner, attr, *_ in instr.patches}
    for pair in [("sdetci.tci", "ensemble_reduce"), ("sdetci.simulate", "ensemble_reduce"),
                 ("sdetci.tci", "exact_wp"), ("sdetci.transport", "linprog"),
                 ("sdetci.zvonkin", "splu"), ("sdetci.zvonkin", "path_rng"),
                 ("sdetci.cli", "model_from_config"), ("GridFunction", "__call__")]:
        assert pair in bound, pair


class _Model:
    d = 1

    def __init__(self, label):
        self.label = label

    def fingerprint(self):
        return self.label


def test_unique_path_ratio_on_hand_built_calls():
    assert tracing.path_counts([]) == (0, 0)
    assert tracing.path_counts([("a", 0, 10), ("a", 5, 20), ("b", 0, 10),
                                ("a", 30, 40)]) == (40, 45)

    # the calls of one tail_sweep pass: a 10k and a 40k sweep run, then per
    # shift a coupled run of base and shifted model and a shifted ensemble
    tr = tracing.Tracer()
    grid = sdetci.simulate.TimeGrid(1.0, 256)
    base = _Model("ou")
    for n in (10000, 40000):
        tr.add_paths(base, [0.0], grid, 7, "em", 0, n)
    for h in (0.1, 0.2, 0.4):
        twin = _Model("ou:shifted")
        tr.register_shift(twin, base, lambda t, x, _h=h: np.full_like(x, _h))
        tr.add_paths(base, [0.0], grid, 7, "em", 0, 8192)
        tr.add_paths(twin, [0.0], grid, 7, "em", 0, 8192)
        tr.add_paths(twin, [0.0], grid, 7, "em", 0, 2048)
    distinct, total = tracing.path_counts(tr.current.paths)
    assert (distinct, total) == (40000 + 3 * 8192, 50000 + 3 * (2 * 8192 + 2048))
    assert distinct / total == pytest.approx(0.6133, abs=1e-4)
    assert tr.current.counts["simulate.path_steps"] == total * 256
    # another seed, start or grid makes every path distinct
    tr.add_paths(base, [0.0], grid, 8, "em", 0, 10)
    tr.add_paths(base, [1.0], grid, 7, "em", 0, 10)
    tr.add_paths(base, [0.0], sdetci.simulate.TimeGrid(1.0, 128), 7, "em", 0, 10)
    assert tracing.path_counts(tr.current.paths) == (distinct + 30, total + 30)


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = workloads.setup_tail_sweep(3, tmp_path)
    text = Path(a["config"]).read_text()
    b = workloads.setup_tail_sweep(3, tmp_path)
    assert Path(b["config"]).read_text() == text
    c = workloads.setup_tail_sweep(4, tmp_path)
    assert Path(c["config"]).read_text() != text


def test_lambda_check_uses_the_config_sigma():
    cfg = sdetci.models.ou_singular_config(kappa=1.0)
    assert workloads.expected_lambda_max(cfg) == 0.5
    cfg["sigma"]["value"] = [[2.0]]
    assert workloads.expected_lambda_max(cfg) == 0.125


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        tracing.PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_per_ref", "setup_s", "peak_rss_mb"]
