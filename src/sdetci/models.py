"""Model families: moduli of continuity, coefficient bundles, validation.

Two SDE families are supported:

* a time-dependent family ``dX = (B_t + b_t) dt + sigma_t dW`` whose drift part
  ``b`` is merely modulus-continuous, and
* an autonomous family ``dX = (b1 + b2) dt + sigma dW`` with an L^p singular
  part ``b1`` and a dissipative or linear-growth part ``b2``.

Every coefficient of both families is a vectorized callable ``f(t, x)`` on
``(n, d)`` state arrays; an autonomous one ignores ``t``.
Validation is sampled, not proved: margins are reported for each assumption
on finite grids.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, InvalidCoefficient, MollifierError

_HOLDER_CAP = 0.5  # concave-square envelope exponent for steep moduli


# ---------------------------------------------------------------------------
# moduli of continuity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModulusSpec:
    """A modulus of continuity from a named family.

    ``family`` is one of ``holder``, ``log_square``, ``lipschitz`` or
    ``custom_table``.  ``scale`` multiplies the base modulus; a positive
    multiple of an admissible modulus is admissible.
    """

    family: str
    alpha: float = 1.0
    L: float = 1.0
    scale: float = 1.0
    cutoff: float = math.exp(-5.0)  # cap point of the log-square family
    table_s: Optional[tuple] = None
    table_phi: Optional[tuple] = None

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        if self.family == "holder":
            out = self.L * np.minimum(s, 1.0) ** self.alpha
        elif self.family == "lipschitz":
            out = self.L * s
        elif self.family == "log_square":
            out = _log_square(s, self.cutoff)
        elif self.family == "custom_table":
            out = np.interp(s, self.table_s, self.table_phi)
        else:
            raise ConfigError(f"unknown modulus family {self.family!r}")
        return self.scale * out

    def envelope(self):
        """A dominating modulus whose square is concave.

        ``holder`` with exponent above 1/2 and ``lipschitz`` have convex
        squares; on [0, 1] they are dominated by the same constant times
        ``s ** 1/2``, which is admissible.
        """
        if self.family == "holder" and self.alpha > _HOLDER_CAP:
            return ModulusSpec("holder", alpha=_HOLDER_CAP, L=self.L, scale=self.scale)
        if self.family == "lipschitz":
            return ModulusSpec("holder", alpha=_HOLDER_CAP, L=self.L, scale=self.scale)
        return self

    def at_log(self, t):
        """phi(e^{-t}) without forming e^{-t} (which underflows)."""
        t = np.asarray(t, dtype=float)
        with np.errstate(under="ignore"):
            if self.family == "holder":
                return self.scale * self.L * np.exp(-self.alpha * np.minimum(t, 745.0 / self.alpha))
            if self.family == "lipschitz":
                return self.scale * self.L * np.exp(-np.minimum(t, 745.0))
            if self.family == "log_square":
                cap_t = -math.log(self.cutoff)
                return self.scale * np.maximum(t, cap_t) ** -2.0
            return self(np.exp(-np.minimum(t, 745.0)))

    def dini_tail(self, t1, t2, n=4096):
        """Tail mass of the Dini integral between s = e^{-t2} and e^{-t1}.

        Written in the substituted variable t = log(1/s), where the
        integrand is just phi(e^{-t}); a summable tail vanishes as t1 grows
        while a barely-divergent modulus keeps contributing.
        """
        t = np.geomspace(t1, t2, n)
        return float(np.trapezoid(self.at_log(t), t))

    def holder_ratio(self, alpha, s):
        """phi(s) / s**alpha; divergence as s -> 0 means no Holder-alpha fit."""
        s = np.asarray(s, dtype=float)
        return self(s) / s**alpha

    def validate(self, n_grid=2048, tol=1e-9):
        """Run the three admissibility checks on a sample grid."""
        if self.family == "custom_table":
            # between nodes the interpolant is linear (its square convex),
            # so concavity is meaningful only at the table nodes
            grid = np.asarray(self.table_s, dtype=float)
        else:
            grid = np.linspace(0.0, 1.0, max(n_grid, 1000))
        phi = self(grid)
        checks = []
        checks.append(CheckResult("phi_zero_at_zero", -abs(float(self(0.0))), None))
        incr = np.diff(phi)
        checks.append(CheckResult("phi_nondecreasing", float(incr.min()), None))
        env = self.envelope()
        phi2 = env(grid) ** 2
        second = np.diff(phi2, 2)
        checks.append(CheckResult("phi_sq_concave", float(-second.max()), None))
        # far-tail contribution of the Dini integral must die out,
        # measured relative to the overall size of the modulus
        tail = self.dini_tail(1e8, 1e9) / max(1.0, float(self(1.0)))
        checks.append(CheckResult("dini_integral_cauchy", float(1e-6 - tail), None))
        return ValidationReport(checks, tol=tol)


def _log_square(s, cutoff):
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    cap = (np.log(cutoff)) ** -2.0
    inside = (s > 0) & (s < cutoff)
    with np.errstate(divide="ignore"):
        out[inside] = np.log(s[inside]) ** -2.0
    out[s >= cutoff] = cap
    return out


# ---------------------------------------------------------------------------
# validation report plumbing
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    margin: float  # >= -tol passes
    worst_point: object = None

    def passed(self, tol):
        return self.margin >= -tol


@dataclass
class ValidationReport:
    checks: list
    tol: float = 1e-9

    @property
    def passed(self):
        return all(c.passed(self.tol) for c in self.checks)

    def margin(self, name):
        for c in self.checks:
            if c.name == name:
                return c.margin
        raise KeyError(name)

    def as_dict(self):
        return {
            "passed": bool(self.passed),
            "tol": self.tol,
            "checks": [
                {
                    "name": c.name,
                    "margin": c.margin,
                    "passed": bool(c.passed(self.tol)),
                    "worst_point": None
                    if c.worst_point is None
                    else np.asarray(c.worst_point).tolist(),
                }
                for c in self.checks
            ],
        }


# ---------------------------------------------------------------------------
# model specs
# ---------------------------------------------------------------------------


@dataclass
class DiniModelSpec:
    """Coefficients of the time-dependent model with modulus-continuous drift.

    ``B``, ``b`` map ``(t, x)`` with ``x`` of shape ``(n, d)`` to ``(n, d)``;
    ``sigma`` maps to ``(n, d, d)``.  ``bounds`` declares the finite constants
    the assumptions require: keys ``grad_B``, ``sigma``, ``grad_sigma``,
    ``grad2_sigma``, ``inv_a``.  Time dependence is read from the values:
    the parabolic solver factors a new reference operator only at the time
    nodes where ``sigma sigma*`` or ``B`` changes.
    """

    d: int
    T: float
    B: Callable
    b: Callable
    sigma: Callable
    modulus: ModulusSpec
    b_sup: float
    bounds: dict
    config: Optional[dict] = None

    kind = "dini"

    def drift(self, t, x):
        return self.B(t, x) + self.b(t, x)

    def sim_functions(self, grid):
        return (lambda t, x: self.drift(t, x)), self.sigma

    def reference_sim_functions(self, grid):
        """Drift/diffusion of the reference equation (irregular part dropped)."""
        return self.B, self.sigma

    def fingerprint(self):
        return _fingerprint(self.config, fallback=("dini", self.d, self.T))


@dataclass
class SingularModelSpec:
    """Coefficients of the autonomous model with an L^p singular drift part.

    ``b1``, ``b2`` map ``(t, x)`` with ``x`` of shape ``(n, d)`` to ``(n, d)``;
    ``sigma`` maps to ``(n, d, d)``.  The family is autonomous: the
    coefficients take ``t`` like the Dini ones, and ignore it.  ``tag`` is
    ``dissipative`` (with ``r``, ``kappa1..3``) or ``linear_growth`` (with
    ``kappa4``).
    """

    d: int
    T: float
    b1: Callable
    b2: Callable
    sigma: Callable
    p: float
    c0: float
    beta: float
    tag: str
    r: float = 0.0
    kappa1: float = 0.0
    kappa2: float = 0.0
    kappa3: float = 0.0
    kappa4: float = 0.0
    b1_cap_scale: float = 1.0
    config: Optional[dict] = None

    kind = "singular"

    def capped_b1(self, cap):
        def f(t, x):
            v = self.b1(t, x)
            norm = np.linalg.norm(v, axis=-1, keepdims=True)
            with np.errstate(invalid="ignore", divide="ignore"):
                shrink = np.where(norm > cap, cap / np.maximum(norm, 1e-300), 1.0)
            return v * shrink

        return f

    def sim_functions(self, grid):
        # singular part capped at h^{-1/4}, scaled by the configured factor
        cap = self.b1_cap_scale * grid.h ** (-0.25)
        b1c = self.capped_b1(cap)

        def drift(t, x):
            return b1c(t, x) + self.b2(t, x)

        return drift, self.sigma

    def fingerprint(self):
        return _fingerprint(self.config, fallback=("singular", self.d, self.T))


def _fingerprint(config, fallback):
    if config is not None:
        payload = json.dumps(config, sort_keys=True)
    else:
        payload = repr(fallback)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _check_finite(name, values, points):
    bad = ~np.isfinite(values)
    if bad.any():
        idx = np.argwhere(bad)[0][0]
        raise InvalidCoefficient(name, np.asarray(points)[idx])


def validate_model(spec, n_grid=512, radius=5.0, tol=1e-7, seed=0):
    """Check the standing assumptions of a model spec on sampled grids.

    Deterministic for a fixed ``seed``.  Returns a report with one margin per
    assumption; overall pass iff every margin >= -tol.
    """
    rng = np.random.default_rng(seed)
    checks = []
    d = spec.d
    pts = rng.uniform(-radius, radius, size=(n_grid, d))

    if spec.kind == "singular":
        b2 = spec.b2(0.0, pts)
        _check_finite("b2", b2, pts)
        norm_x = np.linalg.norm(pts, axis=1)
        norm_b2 = np.linalg.norm(b2, axis=1)
        if spec.tag == "dissipative":
            inner = np.einsum("nd,nd->n", pts, b2)
            slack = -spec.kappa1 * norm_x ** (2.0 + spec.r) + spec.kappa2 - inner
            i = int(np.argmin(slack))
            checks.append(CheckResult("dissipativity", float(slack[i]), pts[i]))
            growth = spec.kappa3 * (1.0 + norm_x ** (1.0 + spec.r)) - norm_b2
            i = int(np.argmin(growth))
            checks.append(CheckResult("growth_bound", float(growth[i]), pts[i]))
        elif spec.tag == "linear_growth":
            slack = spec.kappa4 * (1.0 + norm_x) - norm_b2
            i = int(np.argmin(slack))
            checks.append(CheckResult("linear_growth", float(slack[i]), pts[i]))
        else:
            raise ConfigError(f"unknown b2 tag {spec.tag!r}")

        sig = spec.sigma(0.0, pts)
        _check_finite("sigma", sig, pts)
        xi = rng.standard_normal((n_grid, d))
        xi /= np.linalg.norm(xi, axis=1, keepdims=True)
        s_xi = np.einsum("nji,nj->ni", sig, xi)  # sigma^* xi
        q = np.einsum("ni,ni->n", s_xi, s_xi)
        lower = q - 1.0 / spec.c0
        upper = spec.c0 - q
        i = int(np.argmin(lower))
        checks.append(CheckResult("ellipticity_lower", float(lower[i]), pts[i]))
        i = int(np.argmin(upper))
        checks.append(CheckResult("ellipticity_upper", float(upper[i]), pts[i]))

        b1v = spec.b1(0.0, pts)
        _check_finite("b1", b1v, pts)
        if spec.p <= d:
            checks.append(CheckResult("b1_integrability_exponent", spec.p - d - 1.0))
        else:
            checks.append(CheckResult("b1_integrability_exponent", spec.p - d))

    elif spec.kind == "dini":
        times = rng.uniform(0.0, spec.T, size=8)
        inv_a = spec.bounds["inv_a"]
        worst_eig = np.inf
        worst = None
        for t in times:
            sig = spec.sigma(t, pts)
            _check_finite("sigma", sig, pts)
            a = np.einsum("nij,nkj->nik", sig, sig)
            eigs = np.linalg.eigvalsh(a)[:, 0]
            i = int(np.argmin(eigs))
            if eigs[i] < worst_eig:
                worst_eig, worst = float(eigs[i]), pts[i]
        checks.append(
            CheckResult("sigma_nondegenerate", worst_eig - 1.0 / inv_a, worst)
        )
        # modulus compliance of b on random pairs
        x = rng.uniform(-radius, radius, size=(n_grid, d))
        y = x + rng.uniform(-1.0, 1.0, size=(n_grid, d)) * rng.uniform(
            0.0, 1.0, size=(n_grid, 1)
        )
        worst_m = np.inf
        worst = None
        for t in times:
            bx, by = spec.b(t, x), spec.b(t, y)
            _check_finite("b", bx, x)
            diff = np.linalg.norm(bx - by, axis=1)
            allowed = spec.modulus(np.linalg.norm(x - y, axis=1)) * (1.0 + tol) + tol
            slack = allowed - diff
            i = int(np.argmin(slack))
            if slack[i] < worst_m:
                worst_m, worst = float(slack[i]), x[i]
        checks.append(CheckResult("b_modulus", worst_m, worst))
        bsup = max(
            float(np.linalg.norm(spec.b(t, pts), axis=1).max()) for t in times
        )
        checks.append(CheckResult("b_sup_bound", spec.b_sup + tol - bsup))
        mod_report = spec.modulus.validate()
        checks.extend(mod_report.checks)
    else:
        raise ConfigError(f"unknown model kind {spec.kind!r}")

    return ValidationReport(checks, tol=tol)


# ---------------------------------------------------------------------------
# smooth / bounded-Lipschitz drift decomposition
# ---------------------------------------------------------------------------


def _bump_nodes(d, width, order):
    """Tensor Gauss-Legendre nodes and kernel weights on the kernel support."""
    x, w = np.polynomial.legendre.leggauss(order)
    if d == 1:
        nodes = x[:, None]
        wts = w
    elif d == 2:
        xx, yy = np.meshgrid(x, x, indexing="ij")
        nodes = np.stack([xx.ravel(), yy.ravel()], axis=1)
        wts = np.outer(w, w).ravel()
    else:
        raise ConfigError("mollifier quadrature implemented for d <= 2")
    r2 = np.sum(nodes**2, axis=1)
    kern = np.maximum(0.0, 1.0 - r2) ** 3
    return nodes * width, wts * kern


def smooth_split(B, width, d=1, order=32, tol=1e-8):
    """Split a Lipschitz field into a mollified part and a bounded remainder.

    The mollifier is the polynomial bump ``(1 - |y|^2)^3`` on the unit ball,
    scaled to ``width`` and normalized to unit mass by the same quadrature
    used for the convolution (affine fields are then reproduced exactly).
    Returns ``(B_bar, B_hat)`` with ``B = B_bar + B_hat`` pointwise.
    """
    nodes, wts = _bump_nodes(d, width, order)
    nodes2, wts2 = _bump_nodes(d, width, 2 * order)
    mass, mass2 = wts.sum(), wts2.sum()
    if abs(mass - mass2) > tol * max(abs(mass2), 1.0):
        raise MollifierError(
            f"kernel mass not converged: {mass:.12g} vs {mass2:.12g} at order {order}"
        )
    wts = wts / mass

    def B_bar(t, x):
        x = np.asarray(x, dtype=float)
        acc = 0.0
        for k in range(len(wts)):
            acc = acc + wts[k] * np.asarray(B(t, x - nodes[k]))
        return acc

    def B_hat(t, x):
        return np.asarray(B(t, x)) - B_bar(t, x)

    return B_bar, B_hat


def measure_split(B, B_bar, B_hat, d=1, radius=4.0, n=201, t=0.0):
    """Grid estimates of the norms entering the decomposition bounds."""
    axes = [np.linspace(-radius, radius, n)] * d
    if d == 1:
        pts = axes[0][:, None]
    else:
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
    dx = axes[0][1] - axes[0][0]

    def sup_grad(f):
        vals = np.asarray(f(t, pts)).reshape(*(n,) * d, d)
        gmax = 0.0
        for ax in range(d):
            g = np.gradient(vals, dx, axis=ax)
            gmax = max(gmax, float(np.abs(g).max()))
        return gmax

    recon = np.abs(
        np.asarray(B(t, pts)) - np.asarray(B_bar(t, pts)) - np.asarray(B_hat(t, pts))
    ).max()
    return {
        "sup_B_hat": float(np.abs(np.asarray(B_hat(t, pts))).max()),
        "sup_grad_B_bar": sup_grad(B_bar),
        "sup_grad_B_hat": sup_grad(B_hat),
        "reconstruction_error": float(recon),
    }


# ---------------------------------------------------------------------------
# named coefficient families and config round trip
# ---------------------------------------------------------------------------


def _as_matrix(value, d):
    m = np.asarray(value, dtype=float)
    if m.ndim == 0:
        m = np.eye(d) * float(m)
    if m.shape != (d, d):
        raise ConfigError(f"matrix shape {m.shape} does not match d={d}")
    return m


def _field_from_config(cfg, d):
    """Build a vectorized vector field ``(t, x) -> (n, d)`` from a family config."""
    fam = cfg.get("family")
    params = {k: v for k, v in cfg.items() if k != "family"}

    if fam == "zero":
        fn = lambda x: np.zeros_like(x)
    elif fam == "constant":
        v = np.asarray(params["value"], dtype=float).reshape(d)
        fn = lambda x: np.broadcast_to(v, x.shape).copy()
    elif fam == "linear":
        A = _as_matrix(params["matrix"], d)
        fn = lambda x: x @ A.T
    elif fam == "cubic_drag":
        a = float(params.get("coef", 1.0))
        fn = lambda x: -a * x * np.sum(x**2, axis=-1, keepdims=True)
    elif fam == "bounded_sin":
        a = float(params.get("amplitude", 1.0))
        fn = lambda x: a * np.sin(x)
    elif fam == "log_square_bench":
        sup = float(params.get("sup", 1.0))
        cutoff = float(params.get("cutoff", math.exp(-5.0)))
        base = ModulusSpec("log_square", cutoff=cutoff)
        peak = float(base(cutoff))

        def fn(x, _c=sup / peak):
            g = np.minimum(np.abs(np.sin(x)), cutoff)
            return _c * _log_square(g, cutoff)

    elif fam == "radial_singularity":
        c = float(params.get("c", 1.0))
        gamma = float(params["gamma"])

        def fn(x):
            r = np.linalg.norm(x, axis=-1, keepdims=True)
            with np.errstate(divide="ignore", invalid="ignore"):
                mag = np.where((r > 0) & (r <= 1.0), c * r ** (-gamma), 0.0)
                unit = np.where(r > 0, x / np.maximum(r, 1e-300), 0.0)
            return mag * unit

    else:
        raise ConfigError(f"unknown field family {fam!r}", "family")

    return lambda t, x: fn(np.asarray(x, dtype=float))


def _sigma_from_config(cfg, d):
    fam = cfg.get("family")
    if fam == "constant":
        m = _as_matrix(cfg.get("value", 1.0), d)

        def fn(x):
            return np.broadcast_to(m, (len(x), d, d)).copy()

    elif fam == "sin_perturbed":
        base = _as_matrix(cfg.get("value", 1.0), d)
        eps = float(cfg.get("eps", 0.1))

        def fn(x):
            s = 1.0 + eps * np.sin(np.asarray(x)[..., 0])
            return base[None] * s[:, None, None]

    else:
        raise ConfigError(f"unknown sigma family {fam!r}", "family")

    return lambda t, x: fn(np.asarray(x, dtype=float))


def modulus_from_config(cfg):
    fam = cfg.get("family")
    kwargs = {k: v for k, v in cfg.items() if k != "family"}
    if fam == "custom_table":
        kwargs["table_s"] = tuple(kwargs.pop("s"))
        kwargs["table_phi"] = tuple(kwargs.pop("phi"))
    return ModulusSpec(fam, **kwargs)


def model_from_config(cfg):
    """Build a model spec from a config tree (see the CLI schema docs)."""
    kind = cfg.get("kind")
    d = int(cfg.get("d", 1))
    T = float(cfg.get("T", 1.0))
    if kind == "dini":
        mod = modulus_from_config(cfg.get("modulus", {"family": "lipschitz", "L": 1.0}))
        b_cfg = cfg.get("b", {"family": "zero"})
        if b_cfg.get("family") == "log_square_bench" and "modulus" not in cfg:
            cutoff = float(b_cfg.get("cutoff", math.exp(-5.0)))
            base = ModulusSpec("log_square", cutoff=cutoff)
            mod = ModulusSpec(
                "log_square",
                cutoff=cutoff,
                scale=float(b_cfg.get("sup", 1.0)) / float(base(cutoff)),
            )
        return DiniModelSpec(
            d=d,
            T=T,
            B=_field_from_config(cfg.get("B", {"family": "zero"}), d),
            b=_field_from_config(b_cfg, d),
            sigma=_sigma_from_config(cfg.get("sigma", {"family": "constant"}), d),
            modulus=mod,
            b_sup=float(cfg.get("b_sup", 1.0)),
            bounds=dict(
                cfg.get(
                    "bounds",
                    {"grad_B": 1.0, "sigma": 1.0, "grad_sigma": 0.0,
                     "grad2_sigma": 0.0, "inv_a": 1.0},
                )
            ),
            config=cfg,
        )
    if kind == "singular":
        b2_cfg = cfg.get("b2", {"family": "zero"})
        tag = cfg.get("tag", "dissipative")
        return SingularModelSpec(
            d=d,
            T=T,
            b1=_field_from_config(cfg.get("b1", {"family": "zero"}), d),
            b2=_field_from_config(b2_cfg, d),
            sigma=_sigma_from_config(cfg.get("sigma", {"family": "constant"}), d),
            p=float(cfg.get("p", 4.0)),
            c0=float(cfg.get("c0", 1.0)),
            beta=float(cfg.get("beta", 0.5)),
            tag=tag,
            r=float(cfg.get("r", 0.0)),
            kappa1=float(cfg.get("kappa1", 0.0)),
            kappa2=float(cfg.get("kappa2", 0.0)),
            kappa3=float(cfg.get("kappa3", 0.0)),
            kappa4=float(cfg.get("kappa4", 0.0)),
            b1_cap_scale=float(cfg.get("b1_cap_scale", 1.0)),
            config=cfg,
        )
    raise ConfigError(f"unknown model kind {kind!r}", "model.kind")


def model_to_config(spec):
    if spec.config is None:
        raise ConfigError("model was not built from a config; nothing to serialize")
    return spec.config


def ou_singular_config(kappa=1.0, d=1, T=1.0):
    """The linear-drag benchmark: b2 = -kappa x, unit diffusion."""
    return {
        "kind": "singular",
        "d": d,
        "T": T,
        "b1": {"family": "zero"},
        "b2": {"family": "linear", "matrix": (-kappa * np.eye(d)).tolist()},
        "sigma": {"family": "constant", "value": np.eye(d).tolist()},
        "p": 4.0,
        "c0": 1.0,
        "beta": 0.5,
        "tag": "dissipative",
        "r": 0.0,
        "kappa1": kappa,
        "kappa2": 0.0,
        "kappa3": kappa,
    }


def dini_benchmark_config(sup=1.0, d=1, T=1.0):
    """1-D benchmark with the log-square modulus drift and unit diffusion."""
    return {
        "kind": "dini",
        "d": d,
        "T": T,
        "B": {"family": "zero"},
        "b": {"family": "log_square_bench", "sup": sup},
        "sigma": {"family": "constant", "value": np.eye(d).tolist()},
        "b_sup": sup,
        "bounds": {"grad_B": 0.0, "sigma": 1.0, "grad_sigma": 0.0,
                   "grad2_sigma": 0.0, "inv_a": 1.0},
    }
