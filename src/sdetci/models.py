"""Model families: moduli of continuity, coefficient bundles, validation.

Two SDE families are supported:

* a time-dependent family ``dX = (B_t + b_t) dt + sigma_t dW`` whose drift part
  ``b`` is merely modulus-continuous, and
* an autonomous family ``dX = (b1 + b2) dt + sigma dW`` with an L^p singular
  part ``b1`` and a dissipative or linear-growth part ``b2``.

Every coefficient of both families is a vectorized callable ``f(t, x)`` on
``(n, d)`` state arrays; an autonomous one ignores ``t``.  A coefficient
built from a config declares what its family states: a ``zero`` field
carries ``zero = True``, a ``log_square_bench`` field carries the config
of the modulus it meets as ``modulus``, and a ``constant`` sigma carries
its (d, d) matrix as ``matrix``.  Consumers read these attributes with
``getattr``, so a wrapper that copies ``__dict__`` (``functools.wraps``)
keeps them, and evaluate an undeclared coefficient as before.
Validation is sampled, not proved: margins are reported for each assumption
on finite grids.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, InvalidCoefficient

_HOLDER_CAP = 0.5  # concave-square envelope exponent for steep moduli


# ---------------------------------------------------------------------------
# moduli of continuity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModulusSpec:
    """A modulus of continuity from a named family.

    ``family`` is one of ``holder`` (with ``alpha`` > 0), ``log_square``,
    ``lipschitz`` or ``custom_table``.  ``scale`` multiplies the base
    modulus; a positive multiple of an admissible modulus is admissible.
    """

    family: str
    alpha: float = 1.0
    L: float = 1.0
    scale: float = 1.0
    cutoff: float = math.exp(-5.0)  # cap point of the log-square family
    table_s: Optional[tuple] = None
    table_phi: Optional[tuple] = None

    def __post_init__(self):
        if self.family not in ("holder", "log_square", "lipschitz", "custom_table"):
            raise ConfigError(f"unknown modulus family {self.family!r}", "family")
        if self.family == "holder" and not self.alpha > 0:
            raise ConfigError(f"need a holder alpha > 0, got {self.alpha}", "alpha")
        if self.family != "custom_table":
            return
        if not (np.diff(self.table_s) > 0).all():
            # concavity is tested on the slopes between nodes
            raise ConfigError(f"need table nodes that increase strictly, got {self.table_s}", "s")
        if len(self.table_phi) != len(self.table_s):
            raise ConfigError(f"need {len(self.table_s)} values, one per node of s", "phi")
        phi0 = float(np.interp(0.0, self.table_s, self.table_phi))
        if phi0 != 0:
            raise ConfigError(f"need a table that reads 0 at s = 0, got {phi0}", "phi")

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        if self.family == "holder":
            out = self.L * np.minimum(s, 1.0) ** self.alpha
        elif self.family == "lipschitz":
            out = self.L * s
        elif self.family == "log_square":
            out = _log_square(s, self.cutoff)
        else:  # custom_table
            out = np.interp(s, self.table_s, self.table_phi)
        return self.scale * out

    def envelope(self):
        """A dominating modulus whose square is concave.

        ``holder`` with exponent above 1/2 and ``lipschitz`` have convex
        squares; on [0, 1] they are dominated by the same constant times
        ``s ** 1/2``, which is admissible.
        """
        if self.family == "lipschitz" or (self.family == "holder" and self.alpha > _HOLDER_CAP):
            return ModulusSpec("holder", alpha=_HOLDER_CAP, L=self.L, scale=self.scale)
        return self

    def validate(self):
        """Run the admissibility checks on a sample grid.

        ``phi_sq_concave`` reads minus the largest rise of the slope of the
        envelope's square between consecutive grid intervals.  The sampled
        families use 2 048 even nodes on [0, 1] and take each slope times
        the node spacing, so their margin is minus the largest second
        difference of phi^2.  A custom table is tested at its own nodes,
        whatever their spacing, and its margin is minus the largest rise of
        the slopes of phi^2 between them, in units of phi^2 per unit s.

        phi(0) = 0 and the Dini condition, int_0 phi(s)/s ds < oo, are not
        sampled: the Holder, Lipschitz and log-square families meet both in
        closed form, and a table is built only if it reads 0 at s = 0, so
        its phi(s)/s stays bounded near 0.
        """
        if self.family == "custom_table":
            # between nodes the interpolant is linear (its square convex),
            # so concavity is meaningful only at the table nodes
            grid = np.asarray(self.table_s, dtype=float)
            spacing = np.diff(grid)
        else:
            grid = np.linspace(0.0, 1.0, 2048)
            spacing = 1.0
        slopes = np.diff(self.envelope()(grid) ** 2) / spacing
        return ValidationReport([
            CheckResult("phi_nondecreasing", float(np.diff(self(grid)).min())),
            CheckResult("phi_sq_concave", float(-np.diff(slopes).max())),
        ], tol=1e-9)


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

    kind = "dini"

    def sim_functions(self, grid):
        return _field_sum(self.B, self.b), self.sigma

    def reference_sim_functions(self, grid):
        """Drift/diffusion of the reference equation (irregular part dropped)."""
        return self.B, self.sigma


@dataclass
class SingularModelSpec:
    """Coefficients of the autonomous model with an L^p singular drift part.

    ``b1``, ``b2`` map ``(t, x)`` with ``x`` of shape ``(n, d)`` to ``(n, d)``;
    ``sigma`` maps to ``(n, d, d)``.  The family is autonomous: the
    coefficients take ``t`` like the Dini ones, and ignore it.  ``tag`` is
    ``dissipative`` (with ``r``, ``kappa1..3``) or ``linear_growth`` (with
    ``kappa4``).  When ``b1`` declares ``zero`` (the ``zero`` family),
    ``sim_functions`` never caps it.
    """

    d: int
    T: float
    b1: Callable
    b2: Callable
    sigma: Callable
    p: float
    c0: float
    tag: str
    r: float
    kappa1: float
    kappa2: float
    kappa3: float
    kappa4: float

    kind = "singular"

    def __post_init__(self):
        if self.tag not in ("dissipative", "linear_growth"):
            raise ConfigError(f"unknown b2 tag {self.tag!r}", "tag")

    def capped_b1(self, cap):
        def f(t, x):
            v = self.b1(t, x)
            norm = np.linalg.norm(v, axis=-1, keepdims=True)
            with np.errstate(invalid="ignore", divide="ignore"):
                shrink = np.where(norm > cap, cap / np.maximum(norm, 1e-300), 1.0)
            return v * shrink

        return f

    def sim_functions(self, grid):
        b1 = self.b1
        if not getattr(b1, "zero", False):
            b1 = self.capped_b1(grid.h ** (-0.25))  # singular part capped at h^{-1/4}
        return _field_sum(b1, self.b2), self.sigma


def _field_sum(f, g):
    """The drift f + g; a field that declares ``zero`` is left out, never called."""
    if getattr(g, "zero", False):
        return f
    if getattr(f, "zero", False):
        return g
    return lambda t, x: f(t, x) + g(t, x)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _check_finite(name, values, points):
    bad = ~np.isfinite(values)
    if bad.any():
        idx = np.argwhere(bad)[0][0]
        raise InvalidCoefficient(name, np.asarray(points)[idx])


def _worst(name, slack, points):
    """The check ``name`` at its smallest slack; the first point wins a tie."""
    i = int(np.argmin(slack))
    return CheckResult(name, float(slack[i]), points[i])


def validate_model(spec, seed=0):
    """Check the standing assumptions of a model spec on sampled grids.

    Deterministic for a fixed ``seed``.  Samples ``n_grid`` points in the box
    [-radius, radius]^d and returns a report with one margin per assumption;
    overall pass iff every margin >= -tol.
    """
    n_grid, radius, tol = 512, 5.0, 1e-7
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
            checks.append(_worst("dissipativity", slack, pts))
            growth = spec.kappa3 * (1.0 + norm_x ** (1.0 + spec.r)) - norm_b2
            checks.append(_worst("growth_bound", growth, pts))
        else:  # linear_growth
            slack = spec.kappa4 * (1.0 + norm_x) - norm_b2
            checks.append(_worst("linear_growth", slack, pts))

        sig = spec.sigma(0.0, pts)
        _check_finite("sigma", sig, pts)
        xi = rng.standard_normal((n_grid, d))
        xi /= np.linalg.norm(xi, axis=1, keepdims=True)
        s_xi = np.einsum("nji,nj->ni", sig, xi)  # sigma^* xi
        q = np.einsum("ni,ni->n", s_xi, s_xi)
        checks.append(_worst("ellipticity_lower", q - 1.0 / spec.c0, pts))
        checks.append(_worst("ellipticity_upper", spec.c0 - q, pts))

        b1v = spec.b1(0.0, pts)
        _check_finite("b1", b1v, pts)
        if spec.p <= d:
            checks.append(CheckResult("b1_integrability_exponent", spec.p - d - 1.0))
        else:
            checks.append(CheckResult("b1_integrability_exponent", spec.p - d))

    elif spec.kind == "dini":
        times = rng.uniform(0.0, spec.T, size=8)
        # each check below runs over the sampled times, stacked time by time
        at_times = lambda fn, x: np.concatenate([fn(t, x) for t in times])
        every_pts = np.tile(pts, (len(times), 1))
        sig = at_times(spec.sigma, pts)
        _check_finite("sigma", sig, every_pts)
        eigs = np.linalg.eigvalsh(np.einsum("nij,nkj->nik", sig, sig))[:, 0]
        checks.append(_worst("sigma_nondegenerate", eigs - 1.0 / spec.bounds["inv_a"],
                             every_pts))
        # modulus compliance of b on random pairs
        x = rng.uniform(-radius, radius, size=(n_grid, d))
        y = x + rng.uniform(-1.0, 1.0, size=(n_grid, d)) * rng.uniform(
            0.0, 1.0, size=(n_grid, 1)
        )
        every_x = np.tile(x, (len(times), 1))
        bx = at_times(spec.b, x)
        _check_finite("b", bx, every_x)
        diff = np.linalg.norm(bx - at_times(spec.b, y), axis=1)
        allowed = spec.modulus(np.linalg.norm(x - y, axis=1)) * (1.0 + tol) + tol
        checks.append(_worst("b_modulus", np.tile(allowed, len(times)) - diff, every_x))
        bsup = float(np.linalg.norm(at_times(spec.b, pts), axis=1).max())
        checks.append(CheckResult("b_sup_bound", spec.b_sup + tol - bsup))
        mod_report = spec.modulus.validate()
        checks.extend(mod_report.checks)
    else:
        raise ConfigError(f"unknown model kind {spec.kind!r}")

    return ValidationReport(checks, tol=tol)


# ---------------------------------------------------------------------------
# config reading and named coefficient families
# ---------------------------------------------------------------------------


def integer(value):
    """``int(value)``, refusing a fraction such as 2.5."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("not an integer")
    return int(value)


def boolean(value):
    """``value`` itself when it is ``True`` or ``False``; a quoted "false" is refused."""
    if not isinstance(value, bool):
        raise ValueError("not a boolean")
    return value


def real(value):
    """``float(value)``, refusing NaN and +-inf."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def floats(value):
    return tuple(real(v) for v in value)


class RecordedConfig(dict):
    """A config mapping that records the keys ``config_value`` reads from it."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def refuse_unread(self):
        """Refuse the first key, in config order, that nothing read."""
        for key in self:
            if key not in self.read:
                raise ConfigError("nothing reads it", key)


def config_value(cfg, key, default, convert=real):
    """``convert(cfg.get(key, default))``, where a ``None`` default means required.

    A missing or rejected value is a ConfigError naming ``key``, and one from a
    nested reader in ``convert`` gets ``key`` put before its path: ``b2.value``.
    A read of a ``RecordedConfig`` is recorded (testing a key with ``in`` is
    not a read), and a mapping value is read as one: its first key that
    ``convert`` left unread is refused, as nothing reads it.
    """
    if not isinstance(cfg, dict):
        raise ConfigError(f"need a mapping, got {cfg!r}")
    if default is None and key not in cfg:
        raise ConfigError("missing value", key)
    if isinstance(cfg, RecordedConfig):
        cfg.read.add(key)
    value = cfg.get(key, default)
    if type(value) is dict:  # a plain mapping, not yet recorded
        value = RecordedConfig(value)
    try:
        out = convert(value)
        if isinstance(value, RecordedConfig):
            value.refuse_unread()
        return out
    except ConfigError as e:
        path = f"{key}.{e.key_path}" if e.key_path else key
        raise ConfigError(e.message, path) from None
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"cannot read {value!r}: {e}", key) from None


def _as_matrix(value, d):
    m = np.asarray(value, dtype=float)
    if m.ndim == 0:
        m = np.eye(d) * float(m)
    if m.shape != (d, d):
        raise ConfigError(f"matrix shape {m.shape} does not match d={d}")
    return m


def _field_from_config(cfg, d):
    """Build a vectorized vector field ``(t, x) -> (n, d)`` from a family config."""
    fam = config_value(cfg, "family", None, str)
    read = functools.partial(config_value, cfg)

    if fam == "zero":
        fn = lambda x: np.zeros_like(x)
    elif fam == "constant":
        v = read("value", None, lambda v: np.asarray(v, dtype=float).reshape(d))
        fn = lambda x: np.broadcast_to(v, x.shape).copy()
    elif fam == "linear":
        A = read("matrix", None, lambda m: _as_matrix(m, d))
        # np.dot, not @: on a tall (n, 1) x (1, 1) product @ is several
        # times slower
        fn = lambda x: np.dot(x, A.T)
    elif fam == "cubic_drag":
        a = read("coef", 1.0)
        fn = lambda x: -a * x * np.sum(x**2, axis=-1, keepdims=True)
    elif fam == "bounded_sin":
        a = read("amplitude", 1.0)
        fn = lambda x: a * np.sin(x)
    elif fam == "log_square_bench":
        # the log-square modulus scaled so that the drift's sup-norm is ``sup``
        cutoff = read("cutoff", math.exp(-5.0))
        scale = read("sup", 1.0) / float(_log_square(cutoff, cutoff))

        def fn(x):
            g = np.minimum(np.abs(np.sin(x)), cutoff)
            return scale * _log_square(g, cutoff)

    elif fam == "radial_singularity":
        c, gamma = read("c", 1.0), read("gamma", None)

        def fn(x):
            r = np.linalg.norm(x, axis=-1, keepdims=True)
            with np.errstate(divide="ignore", invalid="ignore"):
                mag = np.where((r > 0) & (r <= 1.0), c * r ** (-gamma), 0.0)
                unit = np.where(r > 0, x / np.maximum(r, 1e-300), 0.0)
            return mag * unit

    else:
        raise ConfigError(f"unknown field family {fam!r}", "family")

    def field(t, x):
        return fn(np.asarray(x, dtype=float))

    if fam == "zero":
        field.zero = True
    if fam == "log_square_bench":
        field.modulus = {"family": "log_square", "cutoff": cutoff, "scale": scale}
    return field


def _sigma_from_config(cfg, d):
    fam = config_value(cfg, "family", None, str)
    m = config_value(cfg, "value", 1.0, lambda v: _as_matrix(v, d))
    if fam == "constant":
        fn = lambda x: np.broadcast_to(m, (len(x), d, d)).copy()
    elif fam == "sin_perturbed":
        eps = config_value(cfg, "eps", 0.1)

        def fn(x):
            s = 1.0 + eps * np.sin(np.asarray(x)[..., 0])
            return m[None] * s[:, None, None]

    else:
        raise ConfigError(f"unknown sigma family {fam!r}", "family")

    def sigma(t, x):
        return fn(np.asarray(x, dtype=float))

    if fam == "constant":
        sigma.matrix = m
    return sigma


def modulus_from_config(cfg):
    family = config_value(cfg, "family", None, str)
    table = ("s", "phi") if family == "custom_table" else ()
    kwargs = {key: config_value(cfg, key, None)
              for key in ("alpha", "L", "scale", "cutoff") if key in cfg}
    kwargs.update({f"table_{key}": config_value(cfg, key, None, floats)
                   for key in table})
    return ModulusSpec(family, **kwargs)


def _read_all(cfg, defaults):
    """Each key of ``defaults``, read as the type of its default."""
    read_as = {int: integer, float: real, str: str}
    return {key: config_value(cfg, key, default, read_as[type(default)])
            for key, default in defaults.items()}


# the scalars of a model spec per kind, and their config defaults
_SCALARS = {
    "dini": {"d": 1, "T": 1.0, "b_sup": 1.0},
    "singular": {"d": 1, "T": 1.0, "p": 4.0, "c0": 1.0, "tag": "dissipative",
                 "r": 0.0, "kappa1": 0.0, "kappa2": 0.0, "kappa3": 0.0, "kappa4": 0.0},
}
# the finite constants a Dini model declares, and their defaults
_BOUNDS = {"grad_B": 1.0, "sigma": 1.0, "grad_sigma": 0.0, "grad2_sigma": 0.0,
           "inv_a": 1.0}


def model_from_config(cfg):
    """Build a model spec from a config tree; a key nothing reads is refused."""
    if type(cfg) is dict:  # a direct call; config_value passes one it records
        cfg = RecordedConfig(cfg)
    kind = config_value(cfg, "kind", None, str)
    if kind not in _SCALARS:
        raise ConfigError(f"unknown model kind {kind!r}", "kind")
    scalars = _read_all(cfg, _SCALARS[kind])
    d = scalars["d"]
    field = lambda key: config_value(cfg, key, {"family": "zero"},
                                     lambda c: _field_from_config(c, d))
    sigma = config_value(cfg, "sigma", {"family": "constant"},
                         lambda c: _sigma_from_config(c, d))
    if kind == "singular":
        spec = SingularModelSpec(b1=field("b1"), b2=field("b2"), sigma=sigma,
                                 **scalars)
    else:
        b = field("b")
        # a benchmark drift declares the modulus it meets
        modulus = config_value(cfg, "modulus",
                               getattr(b, "modulus", {"family": "lipschitz"}),
                               modulus_from_config)
        bounds = config_value(cfg, "bounds", {}, lambda c: _read_all(c, _BOUNDS))
        spec = DiniModelSpec(B=field("B"), b=b, sigma=sigma, modulus=modulus,
                             bounds=bounds, **scalars)
    cfg.refuse_unread()
    return spec


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
