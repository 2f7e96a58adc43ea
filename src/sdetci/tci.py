"""Transportation-cost inequality machinery on path space.

Closed-form regularization/tail thresholds, plug-in exponential-moment
estimators with stability diagnostics, Gaussian-tail sweeps, and the
T1/T2-style checks relating Wasserstein distance to relative entropy.
Paths are keyed by id, so the sweep and the T2 check simulate each path
once: the sweep at its largest sample size, T2 with the base model and
every drift-shifted twin coupled in one run.  Everything is seed-stable and
serializes without timestamps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .errors import ConfigError, InconclusiveEstimate
from .simulate import (
    _sup_distances,
    ensemble_reduce,
    simulate_ensemble,
    with_drift_shift,
)
from .transport import (
    EmpiricalMeasure,
    exact_wp,
    girsanov_entropy,
    pushforward,
    relative_entropy_discrete,
)


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
    params: dict = field(default_factory=dict)

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


def threshold_set(tag, sigma_sup, T, **kappas):
    lam, strict = lambda_threshold(tag, sigma_sup, T, **{
        k: v for k, v in kappas.items() if k in ("kappa1", "r", "kappa4")
    })
    delta = delta_threshold(tag, sigma_sup, T, **{
        k: v for k, v in kappas.items() if k in ("kappa1", "kappa3", "r", "kappa4")
    })
    return ThresholdSet(tag, sigma_sup, T, lam, strict, delta, dict(kappas))


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


def exp_functional_estimate(exponents, min_block=256):
    """Estimate E e^G from per-sample exponents, in log space.

    The estimate is trusted only when (a) the log-estimate trace over
    doubling prefixes moves by < 10% in the last doubling and (b) no single
    sample carries half the mass -- otherwise the empirical mean is still
    chasing the tail and the verdict is "unstable".
    """
    g = np.asarray(exponents, dtype=float).ravel()
    n = len(g)
    if n < 2:
        raise InconclusiveEstimate("need at least two samples")
    sizes = []
    k = min(min_block, n)
    while k < n:
        sizes.append(k)
        k *= 2
    sizes.append(n)
    trace = [float(logsumexp(g[:k]) - math.log(k)) for k in sizes]
    log_est = trace[-1]
    max_share = float(math.exp(g.max() - logsumexp(g)))
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


def _log_mean_stderr(g):
    # delta-method stderr of log mean(e^g), computed stably
    lm = logsumexp(g) - math.log(len(g))
    w = np.exp(g - lm)
    return float(w.std(ddof=1) / math.sqrt(len(g)))


def _tail_exponents(model, x0, grid, delta, n_paths, seed, center=None):
    """Per-path delta sup_t |X_t - c|^2 over an EM ensemble, c = x0 by default."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    c = x0 if center is None else np.atleast_1d(np.asarray(center, dtype=float))

    def fn(states):
        dev = np.linalg.norm(states - c, axis=2).max(axis=1)
        return delta * dev**2

    return ensemble_reduce(model, x0, grid, seed, n_paths, fn)


def _tail_row(exponents, delta):
    out = exp_functional_estimate(exponents)
    out["delta"] = float(delta)
    return out


def gaussian_tail_estimate(model, x0, grid, delta, n_paths, seed=0, center=None):
    """Plug-in E exp{delta sup_t |X_t - c|^2} over an EM ensemble."""
    exps = _tail_exponents(model, x0, grid, delta, n_paths, seed, center)
    return _tail_row(exps, delta)


def gaussian_tail_sweep(model, x0, grid, delta, n_list, seed=0, agree_factor=1.5):
    """Tail estimate across nested sample sizes with an overall verdict.

    Paths are keyed by id, so a run of n paths is the prefix of the largest
    run: the sweep simulates ``max(n_list)`` paths once and estimates each
    row from a prefix of their exponents.  Every row equals
    ``gaussian_tail_estimate`` at its n.  The sweep is "stable" when every
    run is individually stable and the log-estimates agree within
    ``log(agree_factor)``.
    """
    n_list = sorted(int(n) for n in n_list)
    if not n_list:
        raise ConfigError("need at least one sample size", "n_list")
    exps = _tail_exponents(model, x0, grid, delta, n_list[-1], seed)
    rows = [_tail_row(exps[:n], delta) for n in n_list]
    logs = [r["log_estimate"] for r in rows]
    spread = max(logs) - min(logs)
    stable = all(r["stable"] for r in rows) and spread < math.log(agree_factor)
    return {
        "delta": float(delta),
        "n_list": n_list,
        "rows": rows,
        "log_spread": float(spread),
        "stable": bool(stable),
    }


# ---------------------------------------------------------------------------
# T2-style ratio check via synchronous coupling
# ---------------------------------------------------------------------------


def t2_check(model, x0, grid, shifts, n_paths, seed=0, direction=None):
    """Ratio of squared sup-distance to entropy across drift-shift sizes.

    For each shift magnitude, a twin equation with drift shifted by a
    constant vector runs under synchronous coupling; the mean of
    sup_t |Delta|^2 upper-bounds W2^2 in the sup metric, and the
    relative entropy of the two path laws comes from the Girsanov formula.
    The base model and every twin are coupled states of one run, so each
    path is simulated once; row i equals ``coupled_sup_distances`` of the
    base and twin i.  Entropy should scale quadratically in the shift and
    the ratio should be stable.
    """
    if n_paths < 2:
        raise ConfigError(f"need n_paths >= 2 for a stderr, got {n_paths}", "n_paths")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    d = len(x0)
    e = np.zeros(d)
    e[0] = 1.0
    if direction is not None:
        e = np.asarray(direction, dtype=float)
        e /= np.linalg.norm(e)
    shift_fns = [lambda t, x, _h=hmag: _h * np.broadcast_to(e, x.shape)
                 for hmag in shifts]
    twins = [with_drift_shift(model, shift) for shift in shift_fns]
    fns = [m.sim_functions(grid) for m in [model] + twins]
    sups = _sup_distances(fns, [x0] * len(fns), grid, seed, range(n_paths), "em")
    rows = []
    _, sigma_fn = fns[0]
    for i, (hmag, shift, twin) in enumerate(zip(shifts, shift_fns, twins)):
        sq = sups[:, i] ** 2
        w2_sq = float(np.mean(sq))
        w2_se = float(np.std(sq, ddof=1) / math.sqrt(n_paths))
        ens = simulate_ensemble(twin, x0, grid, seed, min(n_paths, 2048))
        ent, ent_se = girsanov_entropy(shift, sigma_fn, ens.states, grid)
        rows.append({
            "shift": float(hmag),
            "w2_sq_bound": w2_sq,
            "w2_sq_stderr": w2_se,
            "entropy": float(ent),
            "entropy_stderr": float(ent_se),
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


def _random_affine(rng, d, cond_cap=4.0):
    """Invertible affine map y = A x + c with singular values in a sane band."""
    while True:
        A = rng.standard_normal((d, d))
        s = np.linalg.svd(A, compute_uv=False)
        if s.min() > 1e-2 and s.max() / s.min() < cond_cap:
            break
    c = rng.uniform(-1.0, 1.0, d)
    Ainv = np.linalg.inv(A)
    fwd = lambda x: A @ x + c
    inv = lambda y: Ainv @ (y - c)
    return fwd, inv, float(s.min()), float(s.max())


def invariance_suite(n_trials=1000, seed=0, p=2.0, max_atoms=7,
                     w_tol=1e-10, h_tol=1e-12):
    """Randomized verification of the pushforward identities.

    Per trial, on random discrete measures and a random invertible affine
    map Phi: (a) the transported-cost Wasserstein value after pushing both
    measures forward equals the original value; (b) discrete relative
    entropy is unchanged by an injective pushforward; (c) with the ambient
    metric kept fixed, the pushed distance sits in the bi-Lipschitz
    sandwich.  Returns worst errors across trials.
    """
    if n_trials < 1:
        raise ConfigError(f"need at least one trial, got {n_trials}", "n_trials")
    rng = np.random.default_rng(seed)
    worst_w = 0.0
    worst_h = 0.0
    worst_sandwich = -np.inf
    for trial in range(n_trials):
        d = int(rng.integers(1, 3))
        n = int(rng.integers(2, max_atoms + 1))
        m = int(rng.integers(2, max_atoms + 1))
        mu = EmpiricalMeasure(rng.uniform(-2, 2, (n, d)), _simplex(rng, n))
        nu = EmpiricalMeasure(rng.uniform(-2, 2, (m, d)), _simplex(rng, m))
        fwd, inv, smin, smax = _random_affine(rng, d)

        w0, _ = exact_wp(mu, nu, p)
        mu_p = pushforward(mu, fwd)
        nu_p = pushforward(nu, fwd)
        # transported cost: measure distances after pulling atoms back
        back_mu = np.stack([inv(a) for a in mu_p.atoms])
        back_nu = np.stack([inv(a) for a in nu_p.atoms])
        cost = np.linalg.norm(back_mu[:, None] - back_nu[None, :], axis=2)
        w1, _ = exact_wp(mu_p, nu_p, p, metric=cost)
        worst_w = max(worst_w, abs(w1 - w0))

        # entropy invariance on a shared atom index
        k = int(rng.integers(2, max_atoms + 1))
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

        # sandwich with the ambient Euclidean metric
        w_push, _ = exact_wp(mu_p, nu_p, p)
        margin = min(w_push - smin * w0 + w_tol, smax * w0 - w_push + w_tol)
        worst_sandwich = max(worst_sandwich, -margin)
    return {
        "n_trials": int(n_trials),
        "worst_w_identity_error": float(worst_w),
        "worst_entropy_error": float(worst_h),
        "worst_sandwich_violation": float(max(worst_sandwich, 0.0)),
        "passed": bool(
            worst_w <= w_tol and worst_h <= h_tol and worst_sandwich <= 0.0
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

    def to_csv(self, path):
        import csv as _csv

        with open(path, "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(["section", "key", "value"])
            for sec in sorted(self.sections):
                for key, value in _flatten(self.sections[sec]):
                    writer.writerow([sec, key, _scalar_repr(value)])


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)!r}")


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _flatten(obj[k], f"{prefix}{k}." if prefix else f"{k}.")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), obj


def _scalar_repr(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)
