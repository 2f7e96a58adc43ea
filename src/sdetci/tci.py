"""Transportation-cost inequality machinery on path space.

Closed-form regularization/tail thresholds, plug-in exponential-moment
estimators with stability diagnostics, Gaussian-tail sweeps, and the
T1/T2-style checks relating Wasserstein distance to relative entropy.
Paths are keyed by id, so the sweep and the T2 check simulate each path
once, alone and together: the sweep at its largest sample size, T2 with the
base model and every drift-shifted twin coupled in one run, and
``tail_sweep_and_t2``, the one entry of both, takes the sweep's first paths
from that coupled run.  It streams the tail sup, the gaps and the Girsanov
integrals into named per-path columns, so no path state is kept.
Everything is seed-stable and serializes without timestamps.  The sweep and
T2 need only numpy (log-sum-exp included); scipy loads only if an exact
transport solve runs, as in the invariance suite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InconclusiveEstimate
from .simulate import (_mean_stderr, _path_chunks, _sup_gaps, ensemble_reduce,
                       with_drift_shift)
from .transport import (
    EmpiricalMeasure,
    _girsanov_step,
    exact_wp,  # not called here; perfbench asserts that tci binds it
    exact_wp_many,
    pushforward,
    relative_entropy_discrete,
)


_MAX_ATOMS = 7  # atoms per random measure in ``invariance_suite``
_W_TOL, _H_TOL = 1e-10, 1e-12  # its W2 and entropy identity tolerances


def _neg(x):
    """Negative part, (x)^- = max(0, -x)."""
    return max(0.0, -x)


# ---------------------------------------------------------------------------
# closed-form thresholds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdSet:
    """Admissible regularization level and tail exponent for one model."""

    tag: str
    sigma_sup: float
    T: float
    lambda_max: float
    lambda_strict: bool
    delta_max: float

    def admits_lambda(self, lam):
        return lam < self.lambda_max if self.lambda_strict else lam <= self.lambda_max

    def admits_delta(self, delta):
        return delta < self.delta_max


def lambda_threshold(tag, sigma_sup, T, kappa1=0.0, r=0.0, kappa4=0.0):
    """Largest admissible drift-regularization level lambda.

    Dissipative drift: lambda_max = 2^{-(r-1)^-} kappa1^2 / sigma_sup^2,
    strict when r > 0, attained when r <= 0.  Linear growth:
    lambda_max = e^{-(2 + 3 kappa4 T)} / (2 sigma_sup^2), attained.
    """
    if sigma_sup <= 0 or T <= 0:
        raise ConfigError("need sigma_sup > 0 and T > 0")
    if tag == "dissipative":
        if kappa1 <= 0:
            raise ConfigError("dissipative threshold needs kappa1 > 0")
        lam = 2.0 ** (-_neg(r - 1.0)) * kappa1**2 / sigma_sup**2
        return lam, r > 0
    if tag == "linear_growth":
        lam = math.exp(-(2.0 + 3.0 * kappa4 * T)) / (2.0 * sigma_sup**2)
        return lam, False
    raise ConfigError(f"unknown drift tag {tag!r}")


def delta_threshold(tag, sigma_sup, T, kappa1=0.0, kappa3=0.0, r=0.0, kappa4=0.0):
    """Supremum of tail exponents delta with a finite Gaussian moment.

    Dissipative: 1 / (4 sigma_sup^2 T (2 + kappa3^2 kappa1^{-2} 2^{(r-1)^-})).
    Linear growth: 1 / (8 sigma_sup^2 T (1 + kappa4^2 e^{2 + 3 kappa4 T})).
    Both bounds are strict.
    """
    if sigma_sup <= 0 or T <= 0:
        raise ConfigError("need sigma_sup > 0 and T > 0")
    if tag == "dissipative":
        if kappa1 <= 0:
            raise ConfigError("dissipative threshold needs kappa1 > 0")
        denom = 4.0 * sigma_sup**2 * T * (
            2.0 + (kappa3**2 / kappa1**2) * 2.0 ** _neg(r - 1.0)
        )
        return 1.0 / denom
    if tag == "linear_growth":
        denom = 8.0 * sigma_sup**2 * T * (
            1.0 + kappa4**2 * math.exp(2.0 + 3.0 * kappa4 * T)
        )
        return 1.0 / denom
    raise ConfigError(f"unknown drift tag {tag!r}")


def threshold_set(tag, sigma_sup, T, kappa1=0.0, kappa3=0.0, r=0.0, kappa4=0.0):
    lam, strict = lambda_threshold(tag, sigma_sup, T, kappa1, r, kappa4)
    delta = delta_threshold(tag, sigma_sup, T, kappa1, kappa3, r, kappa4)
    return ThresholdSet(tag, sigma_sup, T, lam, strict, delta)


def t1_constant(delta, original_space=False):
    """W1-entropy constant: W1 <= sqrt(2 C H) with C = 1 / (4 delta).

    The original-space constant picks up the squared bi-Lipschitz factor of
    the change of variables, a factor of 4 on C.
    """
    if delta <= 0:
        raise ConfigError("need delta > 0")
    C = 1.0 / (4.0 * delta)
    return 4.0 * C if original_space else C


# ---------------------------------------------------------------------------
# plug-in exponential moments with stability diagnostics
# ---------------------------------------------------------------------------


def exp_functional_estimate(exponents):
    """Estimate E e^G from per-sample exponents, in log space.

    The estimate is trusted only when (a) the log-estimate trace over
    doubling prefixes, from 256 samples on, moves by < 10% in the last
    doubling and (b) no single sample carries half the mass -- otherwise
    the empirical mean is still chasing the tail and the verdict is
    "unstable".
    """
    g = np.asarray(exponents, dtype=float).ravel()
    n = len(g)
    if n < 2:
        raise InconclusiveEstimate("need at least two samples")
    sizes = []
    k = min(256, n)
    while k < n:
        sizes.append(k)
        k *= 2
    sizes.append(n)
    trace = [float(_logsumexp(g[:k]) - math.log(k)) for k in sizes]
    log_est = trace[-1]
    max_share = float(math.exp(g.max() - _logsumexp(g)))
    if len(trace) >= 2:
        rel_change = abs(math.expm1(trace[-1] - trace[-2]))
    else:
        rel_change = 0.0
    stable = (max_share < 0.5) and (rel_change < 0.1)
    return {
        "log_estimate": log_est,
        "estimate": float(np.exp(log_est)) if log_est < 700 else float("inf"),
        "stderr_log": _log_mean_stderr(g),
        "n": int(n),
        "trace": trace,
        "max_share": max_share,
        "last_doubling_change": float(rel_change),
        "stable": bool(stable),
    }


def _logsumexp(g):
    """log sum exp(g) of a finite 1-D array, computed as scipy 1.17's
    ``logsumexp``: the m maximal entries leave the sum, s is the sum of
    exp(g - max) over the others divided by m, and the result is
    log1p(s) + log(m) + max."""
    top = g.max()
    at_top = g == top
    m = np.array([np.count_nonzero(at_top)], dtype=float)
    s = np.exp(np.where(at_top, -np.inf, g) - top).sum(keepdims=True) / m
    return float((np.log1p(s) + np.log(m) + top)[0])


def _log_mean_stderr(g):
    # delta-method stderr of log mean(e^g), computed stably
    lm = _logsumexp(g) - math.log(len(g))
    w = np.exp(g - lm)
    return float(_mean_stderr(w))


def _shared_run(model, x0, grid, seed, n_tail, shifts, n_t2):
    """One run of paths 0..max(n_tail, n_t2)-1 for the tail sweep and T2.

    Returns per-path columns: ``tail``, sup_t |X_t - x0| of paths 0..n_tail-1;
    for paths 0..n_t2-1, ``gaps``, sup_t |X_t - X^i_t| against twin i, whose
    drift is shifted by ``shifts[i]`` e_1, and ``entropies``, twin i's
    Girsanov integral, both (n_t2, len(shifts)).  Paths n_t2..n_tail-1 run
    base-only through ``ensemble_reduce``; paths 0..n_t2-1 run the base and
    every twin as coupled states, one step per column.  Each path is
    simulated once, and each result equals that of its half run alone.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    d = len(x0)
    e = np.zeros(d)
    e[0] = 1.0
    shift_fns = [lambda t, x, _h=hmag: _h * np.broadcast_to(e, x.shape)
                 for hmag in shifts]
    fns = [m.sim_functions(grid)
           for m in [model] + [with_drift_shift(model, s) for s in shift_fns]]
    girsanov = [_girsanov_step(s, fns[0][1], grid) for s in shift_fns]

    def tail_step(sup, k, t, x):
        np.maximum(sup, np.linalg.norm(x - x0, axis=1), out=sup)

    def entropies(col, k, t, xs):
        for step, x, integral in zip(girsanov, xs[1:], col.T):
            step(integral, k, t, x)

    empty = np.empty((0, len(shifts)))
    run = {"tail": np.empty(0), "gaps": empty, "entropies": empty}
    if n_tail > n_t2:
        run["tail"] = ensemble_reduce(model, x0, grid, seed, n_tail - n_t2, tail_step, (),
                                      path_id0=n_t2)
    if n_t2 > 0:
        coupled = _path_chunks(fns, [x0] * len(fns), grid, seed, range(n_t2), "em", {
            "tail": ((), lambda sup, k, t, xs: tail_step(sup, k, t, xs[0])),
            "gaps": ((len(shifts),), _sup_gaps()),
            "entropies": ((len(shifts),), entropies)})
        run = dict(coupled, tail=np.concatenate([coupled["tail"][:n_tail], run["tail"]]))
    return run


def _tail_row(exponents, delta):
    out = exp_functional_estimate(exponents)
    out["delta"] = float(delta)
    return out


def _sweep_sizes(delta, n_list):
    """The sorted sample sizes of a sweep; refuses a bad ``delta`` or size."""
    n_list = sorted(int(n) for n in n_list)
    if not n_list:
        raise ConfigError("need at least one sample size", "n_list")
    if n_list[0] < 2:
        raise ConfigError(f"need sample sizes >= 2, got {n_list[0]}", "n_list")
    if not delta > 0:
        raise ConfigError(f"need delta > 0, got {delta}", "delta")
    return n_list


def _sweep(delta, n_list, tail):
    """The sweep's rows from the sups of the largest run, ``tail``."""
    exps = delta * tail**2
    rows = [_tail_row(exps[:n], delta) for n in n_list]
    logs = [r["log_estimate"] for r in rows]
    spread = max(logs) - min(logs)
    stable = all(r["stable"] for r in rows) and spread < math.log(1.5)
    return {
        "delta": float(delta),
        "n_list": n_list,
        "rows": rows,
        "log_spread": float(spread),
        "stable": bool(stable),
    }


def gaussian_tail_sweep(model, x0, grid, delta, n_list, seed=0):
    """Tail estimate across nested sample sizes with an overall verdict.

    Paths are keyed by id, so a run of n paths is the prefix of the largest
    run: the sweep simulates ``max(n_list)`` paths once and estimates each
    row from a prefix of their exponents, delta sup_t |X_t - x0|^2, so every
    row equals the one-size sweep at its n.  The sweep is "stable" when every
    run is individually stable and the log-estimates agree within log 1.5.
    """
    return tail_sweep_and_t2(model, x0, grid, delta, n_list, None, 0, seed)[0]


# ---------------------------------------------------------------------------
# T2-style ratio check via synchronous coupling
# ---------------------------------------------------------------------------


def _check_t2(shifts, n_paths):
    if n_paths < 2:
        raise ConfigError(f"need n_paths >= 2 for a stderr, got {n_paths}", "n_paths")
    if len(shifts) == 0:
        raise ConfigError("need at least one shift", "shifts")
    if not min(shifts) > 0:
        raise ConfigError(f"need shifts > 0, got {min(shifts)}", "shifts")


def _t2(shifts, gaps, integrals):
    """The T2 rows and summary from the coupled half of a ``_shared_run``."""
    rows = []
    for hmag, sq, per_path in zip(shifts, gaps.T ** 2, integrals.T):
        w2_sq, ent = float(np.mean(sq)), float(np.mean(per_path))
        w2_se, ent_se = (float(_mean_stderr(v)) for v in (sq, per_path))
        rows.append({
            "shift": float(hmag),
            "w2_sq_bound": w2_sq,
            "w2_sq_stderr": w2_se,
            "entropy": ent,
            "entropy_stderr": ent_se,
            "ratio": w2_sq / ent if ent > 0 else float("inf"),
        })
    ratios = np.array([r["ratio"] for r in rows])
    ents = np.array([r["entropy"] for r in rows])
    hs = np.array([r["shift"] for r in rows])
    scaling = None
    if len(hs) >= 2 and (ents > 0).all():
        scaling = float(np.polyfit(np.log(hs), np.log(ents), 1)[0])
    return {
        "rows": rows,
        "ratio_spread": float(ratios.max() / ratios.min()),
        "entropy_scaling_exponent": scaling,
    }


def t2_check(model, x0, grid, shifts, n_paths, seed=0):
    """Ratio of squared sup-distance to entropy across drift-shift sizes.

    For each shift magnitude h > 0, a twin equation with drift shifted by
    h e_1 runs under synchronous coupling; the mean of sup_t |Delta|^2
    upper-bounds W2^2 in the sup metric, and the relative entropy of the
    two path laws is the mean of the Girsanov formula over the same
    ``n_paths`` twin paths.  The base model and every twin are coupled
    states of one run, which streams both per path, so each path is
    simulated once and none is stored; row i equals
    ``coupled_sup_distances`` of the base and twin i, and
    ``girsanov_entropy`` on ``simulate_ensemble`` of twin i.  Entropy should
    scale quadratically in the shift and the ratio should be stable.
    """
    return tail_sweep_and_t2(model, x0, grid, None, None, shifts, n_paths, seed)[1]


def tail_sweep_and_t2(model, x0, grid, delta, n_list, shifts, n_paths, seed=0):
    """``gaussian_tail_sweep`` and ``t2_check`` of the same paths, run once.

    Returns the pair of their results, each equal to a run with the other
    part skipped: ``n_list=None`` skips the sweep and ``shifts=None`` skips
    T2, and a skipped part is None.  Both are refused before anything is simulated.
    The T2 run's base states are the sweep's first ``n_paths`` paths, so the
    two together draw ``max(max(n_list), n_paths)`` paths, not their sum.
    """
    n_list = None if n_list is None else _sweep_sizes(delta, n_list)
    if shifts is not None:
        _check_t2(shifts, n_paths)
    run = _shared_run(
        model, x0, grid, seed, 0 if n_list is None else n_list[-1],
        [] if shifts is None else shifts, 0 if shifts is None else n_paths)
    return (None if n_list is None else _sweep(delta, n_list, run["tail"]),
            None if shifts is None else _t2(shifts, run["gaps"], run["entropies"]))


def coupling_lipschitz_check(phi, states_a, states_b, t_nodes=None, slack=1e-9):
    """Pathwise sandwich of the sup metric through a bi-Lipschitz map.

    For each coupled pair, sup_t |Phi(X) - Phi(X')| must sit inside
    [(1 - g) sup|X - X'|, (1 + g) sup|X - X'|] with g the measured gradient
    bound of u.  Returns the worst two-sided margin.
    """
    g = phi.grad_bound
    lo_m, hi_m = np.inf, np.inf
    n, k1, d = states_a.shape
    for j in range(k1):
        t = 0.0 if t_nodes is None else t_nodes[j]
        da = np.linalg.norm(states_a[:, j] - states_b[:, j], axis=1)
        dp = np.linalg.norm(
            phi.phi(states_a[:, j], t) - phi.phi(states_b[:, j], t), axis=1
        )
        keep = da > 1e-14
        if keep.any():
            lo_m = min(lo_m, float((dp[keep] - (1 - g) * da[keep]).min()))
            hi_m = min(hi_m, float(((1 + g) * da[keep] - dp[keep]).min()))
    return {
        "grad_bound": float(g),
        "lower_margin": lo_m,
        "upper_margin": hi_m,
        "passed": bool(lo_m >= -slack and hi_m >= -slack),
    }


# ---------------------------------------------------------------------------
# invariance suite for the pushforward identities
# ---------------------------------------------------------------------------


def _random_affine(rng, d):
    """Invertible affine map y = A x + c with condition number below 4."""
    while True:
        A = rng.standard_normal((d, d))
        s = np.linalg.svd(A, compute_uv=False)
        if s.min() > 1e-2 and s.max() / s.min() < 4.0:
            break
    c = rng.uniform(-1.0, 1.0, d)
    Ainv = np.linalg.inv(A)
    fwd = lambda x: A @ x + c
    inv = lambda y: Ainv @ (y - c)
    return fwd, inv, float(s.min()), float(s.max())


def invariance_suite(n_trials=1000, seed=0):
    """Randomized verification of the pushforward identities.

    Per trial, on random discrete measures and a random invertible affine
    map Phi: (a) the transported-cost W2 value after pushing both
    measures forward equals the original value; (b) discrete relative
    entropy is unchanged by an injective pushforward, which holds by
    construction: ``relative_entropy_discrete`` reads only the weights, so
    the error is exactly 0 for any map; (c) with the ambient metric kept
    fixed, the pushed distance sits in the bi-Lipschitz sandwich.  Returns
    worst errors across trials.
    """
    if n_trials < 1:
        raise ConfigError(f"need at least one trial, got {n_trials}", "n_trials")
    rng = np.random.default_rng(seed)
    pairs = []  # per trial: (a) w0 and w1, (c) w_push
    lipschitz = []
    worst_h = 0.0
    for trial in range(n_trials):
        d = int(rng.integers(1, 3))
        n = int(rng.integers(2, _MAX_ATOMS + 1))
        m = int(rng.integers(2, _MAX_ATOMS + 1))
        mu = EmpiricalMeasure(rng.uniform(-2, 2, (n, d)), _simplex(rng, n))
        nu = EmpiricalMeasure(rng.uniform(-2, 2, (m, d)), _simplex(rng, m))
        fwd, inv, smin, smax = _random_affine(rng, d)
        lipschitz.append((smin, smax))

        mu_p = pushforward(mu, fwd)
        nu_p = pushforward(nu, fwd)
        # transported cost: measure distances after pulling atoms back
        back_mu = np.stack([inv(a) for a in mu_p.atoms])
        back_nu = np.stack([inv(a) for a in nu_p.atoms])
        cost = np.linalg.norm(back_mu[:, None] - back_nu[None, :], axis=2)
        # the sandwich keeps the ambient Euclidean metric
        pairs += [(mu, nu, None), (mu_p, nu_p, cost), (mu_p, nu_p, None)]

        # entropy invariance on a shared atom index
        k = int(rng.integers(2, _MAX_ATOMS + 1))
        atoms = rng.uniform(-2, 2, (k, d))
        wa, wb = _simplex(rng, k), _simplex(rng, k)
        h0 = relative_entropy_discrete(
            EmpiricalMeasure(atoms, wa), EmpiricalMeasure(atoms, wb)
        )
        mapped = np.stack([fwd(a) for a in atoms])
        h1 = relative_entropy_discrete(
            EmpiricalMeasure(mapped, wa), EmpiricalMeasure(mapped, wb)
        )
        worst_h = max(worst_h, abs(h1 - h0))

    w = [value for value, _ in exact_wp_many(pairs, 2.0)]
    worst_w = 0.0
    worst_sandwich = -np.inf
    for (smin, smax), w0, w1, w_push in zip(lipschitz, w[0::3], w[1::3], w[2::3]):
        worst_w = max(worst_w, abs(w1 - w0))
        margin = min(w_push - smin * w0 + _W_TOL, smax * w0 - w_push + _W_TOL)
        worst_sandwich = max(worst_sandwich, -margin)
    return {
        "n_trials": int(n_trials),
        "worst_w_identity_error": float(worst_w),
        "worst_entropy_error": float(worst_h),
        "worst_sandwich_violation": float(max(worst_sandwich, 0.0)),
        "passed": bool(
            worst_w <= _W_TOL and worst_h <= _H_TOL and worst_sandwich <= 0.0
        ),
    }


def _simplex(rng, n):
    w = rng.uniform(0.1, 1.0, n)
    return w / w.sum()


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


@dataclass
class TCIReport:
    """Ordered bundle of named result sections with stable serialization."""

    meta: dict = field(default_factory=dict)
    sections: dict = field(default_factory=dict)

    def add(self, name, payload):
        self.sections[name] = payload

    def to_json(self):
        return json.dumps(
            {"meta": self.meta, "sections": self.sections},
            sort_keys=True,
            default=_jsonable,
        )

    def save_json(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)!r}")
