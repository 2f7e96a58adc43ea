"""Wasserstein distances, entropies and pushforwards on discrete measures.

Exact optimal transport picks its solver from the input.  Uniform measures
of equal size have a permutation among their optimal plans (Birkhoff-von
Neumann), so they are solved as an assignment problem.  Every other pair is
one block of a block-diagonal LP, written from the shapes for each solve and
handed straight to the HiGHS core that scipy bundles, as arrays in one
call, and solved by its dual simplex without presolve: on these small LPs
presolve costs more than it saves.  The blocks share no variable and no
constraint, so one solve returns each block's optimum and duals.
Consecutive blocks share a solve until the next would take it past
``LP_BLOCK_VARS`` variables: a few hundred variables per solve spread
HiGHS's fixed cost per call, while larger solves take longer per block and
hold more memory.  Without presolve, the invariance suite's LPs ran 10 to
15 % slower at 256 variables per solve than at 512, within 4 % of it at
1 024 and up to 10 % slower at 2 048; 512 is kept, since another packing
moves the last bits of some pairs' values.  HiGHS's tolerances are
absolute, so each block's cost is divided by its largest entry before the
solve, and its dual feasibility tolerance is the smallest HiGHS accepts.
Each pair, solved alone or in a batch, passes the same dual certificate in
those units: potentials f, g with f_i + g_j <= c_ij and a duality gap
within ``DUAL_TOL``, checked for all the blocks of a solve in one pass over
its flat arrays.  Larger instances get a certified entropic bracket whose
lower end is a feasible LP dual value and whose upper end is the cost of a
rounded feasible plan, so the exact value always lies inside.

Of scipy, only two compiled extensions load, each at its first use and
from its file alone (``_scipy_extension``): the HiGHS core with the first
LP and the assignment solver with the first uniform pair.  Neither runs
``scipy.optimize``'s package import, and the constraint matrix is plain
CSC arrays (``_block_incidence``), so no ``scipy.sparse`` loads either.
Importing this module loads no scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._compiled import _Csc, _scipy_extension
from .errors import OutOfDomain, UseSinkhorn
from .simulate import _mean_stderr, _trapezoid

EXACT_ATOM_LIMIT = 512
DUAL_TOL = 1e-7  # dual slack and duality gap an exact solve may leave, per largest cost
# HiGHS's smallest dual feasibility tolerance.  At its default 1e-7 a solve may
# stop at a vertex whose value is 1e-8 off, while the invariance suite needs 1e-10.
LP_DUAL_FEASIBILITY_TOL = 1e-10
# The solution test of scipy's linprog: 10 * sqrt(tol) with its default 1e-9
LP_FEASIBILITY_TOL = 10 * np.sqrt(1e-9)
LP_BLOCK_VARS = 512  # variables per HiGHS solve of packed transport LPs


@dataclass
class EmpiricalMeasure:
    atoms: np.ndarray  # (n, d) points, or an (n, ...) array of path nodes
    weights: np.ndarray

    def __post_init__(self):
        self.atoms = np.asarray(self.atoms, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if len(self.atoms) < 1:
            raise ValueError("need at least one atom")
        w = self.weights
        if not np.isfinite(w).all() or (w < 0).any() or not abs(w.sum() - 1.0) <= 1e-12:
            raise ValueError("weights must be finite, nonnegative and sum to 1")

    @classmethod
    def uniform(cls, atoms):
        atoms = np.asarray(atoms, dtype=float)
        n = len(atoms)
        return cls(atoms, np.full(n, 1.0 / n))


@dataclass
class TransportPlan:
    matrix: np.ndarray  # (n, m) nonnegative

    def check(self, mu, nu, tol=1e-9):
        """True when the plan's row and column sums are ``mu``'s and ``nu``'s
        weights within ``tol``; a plan of another shape fails."""
        pi = self.matrix
        if pi.shape != mu.weights.shape + nu.weights.shape:
            return False
        return bool(np.abs(pi.sum(axis=1) - mu.weights).max() <= tol
                    and np.abs(pi.sum(axis=0) - nu.weights).max() <= tol)


def euclidean_cost(x, y):
    return np.linalg.norm(x[:, None, :] - y[None, :, :], axis=2)


def path_sup_cost(states_a, states_b):
    """Pairwise sup-metric matrix between two path arrays (n, k+1, d).

    One node at a time, the largest squared distance so far is kept per
    pair and rooted once at the end; sqrt is monotone and correctly
    rounded, so this equals the largest Euclidean norm bit for bit, and
    the peak memory is a few (n, m) arrays whatever the path length.
    """
    out = np.zeros((len(states_a), len(states_b)))
    for j in range(states_a.shape[1]):
        sq = sum(np.subtract.outer(states_a[:, j, c], states_b[:, j, c]) ** 2
                 for c in range(states_a.shape[2]))
        np.maximum(out, sq, out=out)
    return np.sqrt(out, out=out)


def _cost_matrix(mu, nu, metric):
    """The Euclidean cost between the atoms, or ``metric`` if given; a metric
    of another shape than (len(mu.atoms), len(nu.atoms)) raises ``ValueError``."""
    if metric is None:
        return euclidean_cost(mu.atoms, nu.atoms)
    cost, shape = np.asarray(metric, dtype=float), (len(mu.atoms), len(nu.atoms))
    if cost.shape != shape:
        raise ValueError(f"metric of shape {cost.shape} for a pair of shape {shape}")
    return cost


def exact_wp(mu, nu, p=2.0, metric=None):
    """Exact discrete W_p; returns (value, plan).  ``exact_wp_many`` of one pair."""
    return exact_wp_many([(mu, nu, metric)], p)[0]


def exact_wp_many(pairs, p=2.0):
    """Exact discrete W_p of each ``(mu, nu, metric)``; returns [(value, plan)].

    Two uniform measures of equal size are solved as an assignment problem
    with shortest-path potentials as duals; every other pair is a block of
    an LP (HiGHS), packed with the pairs after it into one solve of at most
    ``LP_BLOCK_VARS`` variables (a larger pair is solved alone).  ``metric``
    is None (Euclidean) or a precomputed cost matrix; a non-finite cost, or
    a matrix of another shape than the pair's, raises ``ValueError`` before
    any solve.  Per pair, dual feasibility and the duality gap are checked
    to ``DUAL_TOL`` in units of the pair's largest cost, the units its LP is
    solved in: an assignment pair alone, the blocks of a solve together
    (``_lp_blocks``).  A violation raises ``RuntimeError`` naming the
    indices of the pairs that failed.
    """
    costs, units = [], []
    for mu, nu, metric in pairs:
        n, m = len(mu.atoms), len(nu.atoms)
        if n > EXACT_ATOM_LIMIT or m > EXACT_ATOM_LIMIT:
            raise UseSinkhorn(f"instance {n}x{m} exceeds {EXACT_ATOM_LIMIT} atoms")
        costs.append(_cost_matrix(mu, nu, metric) ** p)
        units.append(_cost_unit(costs[-1]))
    solved = [None] * len(pairs)
    excess = np.zeros(len(pairs))
    batches, size = [], 0
    for k, ((mu, nu, _), cost) in enumerate(zip(pairs, costs)):
        if len(mu.weights) == len(nu.weights) and all(
                (w == w[0]).all() for w in (mu.weights, nu.weights)):
            total, _, f, g = solved[k] = _assignment_wp(cost)
            slack = ((f[:, None] + g[None, :]) - cost).max()
            gap = abs(total - float(f @ mu.weights + g @ nu.weights))
            excess[k] = np.maximum(slack, gap) / units[k]
            continue
        if not batches or size + cost.size > LP_BLOCK_VARS:
            batches.append([])
            size = 0
        batches[-1].append(k)
        size += cost.size
    for batch in batches:
        blocks = [(costs[k], pairs[k][0].weights, pairs[k][1].weights) for k in batch]
        solved_batch, excess[batch] = _lp_blocks(blocks, [units[k] for k in batch])
        for k, out in zip(batch, solved_batch):
            solved[k] = out
    failed = np.flatnonzero(~(excess <= DUAL_TOL))
    if failed.size:
        raise RuntimeError(f"dual certificate violated beyond tolerance by pairs {failed.tolist()}")
    root = 1.0 / max(p, 1.0)
    return [(max(total, 0.0) ** root, TransportPlan(pi)) for total, pi, _, _ in solved]


def linear_sum_assignment(cost):
    """Rows and columns of a minimal assignment: the compiled solver behind
    ``scipy.optimize.linear_sum_assignment``, loaded alone at the first call."""
    return _scipy_extension("scipy.optimize._lsap").linear_sum_assignment(cost)


def _assignment_wp(cost):
    """Optimal transport between uniform measures of equal size.

    Returns (mean cost, plan, f, g).  ``linear_sum_assignment`` (Crouse,
    IEEE TAES 2016) gives the permutation sigma; the potentials keep every
    pair k -> sigma(k) tight, f_k + g_sigma(k) = c_k,sigma(k), which turns
    f_i + g_sigma(k) <= c_i,sigma(k) into f_i <= f_k + w(k -> i) with
    w(k -> i) = c_i,sigma(k) - c_k,sigma(k).  So f are shortest-path
    potentials of this exchange graph (Ahuja, Magnanti & Orlin, Network
    Flows, 1993), found by at most n Jacobi Bellman-Ford sweeps from f = 0.
    They settle unless a negative cycle, an improving exchange, exists, and
    then no f passes the slack test: around a cycle of length L and weight
    -e, some edge keeps a violation of at least e / L.
    """
    n = len(cost)
    rows = np.arange(n)
    _, sigma = linear_sum_assignment(cost)
    tight = cost[rows, sigma]
    w = cost[:, sigma].T - tight[:, None]
    f = np.zeros(n)
    for _ in range(n):
        relaxed = (f[:, None] + w).min(axis=0)  # w(k -> k) = 0 keeps f_k
        if np.array_equal(relaxed, f):
            break
        f = relaxed
    g = np.empty(n)
    g[sigma] = tight - f
    pi = np.zeros((n, n))
    pi[rows, sigma] = 1.0 / n
    return float(tight.mean()), pi, f, g


@lru_cache(maxsize=1)
def _highs_options():
    """The settings ``scipy.optimize.linprog(method="highs")`` passes to HiGHS,
    with presolve off and the dual feasibility tolerance at
    ``LP_DUAL_FEASIBILITY_TOL``.

    Every other option keeps its HiGHS default, as under scipy, so a solve
    with them follows the same pivots as scipy's given the same tolerance
    and ``presolve=False``, and returns the same bits.  Presolve is off
    because on transport LPs of 8 to 512 atoms it cost more than it saved:
    a single weighted pair solved 1.4 to 3.5 times faster without it, to
    the same W within 1e-15 relative.  Built at the first solve and shared.
    """
    _highs = _scipy_extension("scipy.optimize._highspy._core")
    options = _highs.HighsOptions()
    options.presolve = "off"
    options.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = False
    options.log_to_console = False
    options.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.dual_feasibility_tolerance = LP_DUAL_FEASIBILITY_TOL
    return options


def linprog(c, A_eq, b_eq):
    """Solve min c.x s.t. A_eq x = b_eq, x >= 0 with one fresh HiGHS instance.

    Returns (optimal value, x, duals of the equality rows).  ``A_eq`` is
    CSC: a ``_Csc`` or a ``scipy.sparse`` CSC matrix, of which only
    ``shape``, ``indptr``, ``indices`` and ``data`` are read.  The LP reaches
    the HiGHS core that scipy bundles (loaded alone, without
    ``scipy.optimize``) as ``scipy.optimize.linprog`` would build it, passed
    as arrays in one call, with its settings and presolve off
    (``_highs_options``), but without its input cleaning and matrix
    stacking; the checks it makes are kept: non-finite ``c`` or ``b_eq``
    raise ``ValueError``, and a model HiGHS refuses, a status other than
    optimal, or a solution off the constraints by more than
    ``LP_FEASIBILITY_TOL``, raises ``RuntimeError``.  The name is scipy's so
    that code which patches or spies on ``transport.linprog`` (the
    benchmark's tracer, the tests) sees every LP solve.
    """
    _highs = _scipy_extension("scipy.optimize._highspy._core")

    c = np.asarray(c, dtype=float)
    b_eq = np.asarray(b_eq, dtype=float)
    if not (np.isfinite(c).all() and np.isfinite(b_eq).all()):
        raise ValueError("transport LP needs finite costs and marginals")
    rows, cols = A_eq.shape
    highs = _highs._Highs()
    highs.passOptions(_highs_options())
    status = highs.passModel(
        cols, rows, len(A_eq.data), int(_highs.MatrixFormat.kColwise),
        int(_highs.ObjSense.kMinimize), 0.0, c, np.zeros(cols), np.full(cols, np.inf),
        b_eq, b_eq, A_eq.indptr[:-1], A_eq.indices, A_eq.data, np.zeros(cols, np.int32))
    if status != _highs.HighsStatus.kOk:
        raise RuntimeError(f"transport LP failed: HiGHS refused the model ({status.name})")
    highs.run()
    status = highs.getModelStatus()
    if status != _highs.HighsModelStatus.kOptimal:
        raise RuntimeError(f"transport LP failed: {highs.modelStatusToString(status)}")
    solution = highs.getSolution()
    fun = highs.getInfo().objective_function_value
    x = np.array(solution.col_value)
    residual = b_eq - solution.row_value
    if (np.isnan(x).any() or np.isnan(fun) or np.isnan(residual).any()
            or (x < -LP_FEASIBILITY_TOL).any()
            or (np.abs(residual) > LP_FEASIBILITY_TOL).any()):
        raise RuntimeError("transport LP failed: solution violates the constraints")
    return fun, x, np.array(solution.row_dual)


def _block_incidence(shapes):
    """Marginal constraints of transport LPs of these shapes, block-diagonal, as ``_Csc``.

    Column i*m + j of an n x m block (the mass moved from atom i to atom j)
    has a one in row offset + i and in row offset + n + j, where offset
    counts the rows of the blocks before it.  Built anew for each solve.
    """
    n, m = np.array(shapes).T
    size, rows = n * m, np.cumsum(n + m)
    offset = np.repeat(rows - n - m, size)
    cell = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)  # i*m + j
    i, j = np.divmod(cell, np.repeat(m, size))
    indices = np.stack([offset + i, offset + np.repeat(n, size) + j], axis=1).astype(np.int32)
    return _Csc(np.ones(indices.size), indices.ravel(),
               2 * np.arange(len(cell) + 1, dtype=np.int32), (int(rows[-1]), len(cell)))


def _cost_unit(cost):
    """The largest |c_ij|, or 1 when every cost is zero: the unit a transport
    LP is solved and certified in.  A non-finite cost raises ``ValueError``."""
    top = float(np.abs(cost).max())
    if not math.isfinite(top):
        raise ValueError("exact transport needs finite costs")
    return top or 1.0


def _lp_blocks(blocks, units):
    """Optimal transport for each ``(cost, mu_w, nu_w)``, as one LP (``linprog``).

    The blocks sit on the diagonal of one constraint matrix
    (``_block_incidence``), so the LP's optimum and duals restricted to a
    block are that block's own.  HiGHS's tolerances are absolute, so each
    block's cost reaches it divided by its entry of ``units`` (its
    ``_cost_unit``): a block of costs near 1e-3 is solved as closely,
    relative to them, as one of costs near 1.  Returns
    ([(cost . plan, plan, f, g)], excess): per block its value, plan and the
    duals f, g of its row and column marginal constraints, in the block's
    own units, and its dual certificate's excess, the larger of its dual
    slack max(f_i + g_j - c_ij) and its duality gap, divided by its unit.
    The excess of every block comes from one pass over the flat arrays,
    each column's two incidence rows giving its f_i + g_j.
    """
    shapes = [cost.shape for cost, _, _ in blocks]
    sizes, rows = [n * m for n, m in shapes], [n + m for n, m in shapes]
    cost = np.concatenate([cost.ravel() for cost, _, _ in blocks])
    incidence = _block_incidence(shapes)
    b_eq = np.concatenate([w for _, mu_w, nu_w in blocks for w in (mu_w, nu_w)])
    _, x, duals = linprog(cost / np.repeat(units, sizes), A_eq=incidence, b_eq=b_eq)
    duals = duals * np.repeat(units, rows)
    out = []
    v0 = r0 = 0
    for n, m in shapes:
        pi = x[v0:v0 + n * m].reshape(n, m)
        out.append((float(cost[v0:v0 + n * m] @ pi.ravel()), pi, duals[r0:r0 + n],
                    duals[r0 + n:r0 + n + m]))
        v0 += n * m
        r0 += n + m
    # f_i + g_j - c_ij of every column, read from its two incidence rows
    slack = duals[incidence.indices[0::2]] + duals[incidence.indices[1::2]] - cost
    gap = np.abs([total for total, *_ in out]
                 - np.add.reduceat(duals * b_eq, np.cumsum(rows) - rows))
    return out, np.maximum(np.maximum.reduceat(slack, np.cumsum(sizes) - sizes), gap) / units


def _lp_wp(cost, mu_w, nu_w):
    """One transport LP alone, ``_lp_blocks`` of one block (the tests' LP reference)."""
    return _lp_blocks([(cost, mu_w, nu_w)], [_cost_unit(cost)])[0][0]


def brute_force_wp(mu, nu, p=2.0, metric=None):
    """Permutation-coupling minimum for uniform equal-size measures (oracle)."""
    from itertools import permutations

    n = len(mu.atoms)
    if n != len(nu.atoms):
        raise ValueError("oracle needs equal atom counts")
    cost = _cost_matrix(mu, nu, metric) ** p
    best = np.inf
    for perm in permutations(range(n)):
        best = min(best, sum(cost[i, perm[i]] for i in range(n)) / n)
    return best ** (1.0 / max(p, 1.0))


def _round_plan(pi, mu_w, nu_w):
    """Round an approximate plan onto the exact marginals.

    Rescale rows then columns to the target marginals, dump the residual
    into a rank-one correction; the result is exactly feasible.  This is
    the rounding of Altschuler, Weed & Rigollet, "Near-linear time
    approximation algorithms for optimal transport via Sinkhorn
    iteration" (NeurIPS 2017).
    """
    r = pi.sum(axis=1)
    scale = np.minimum(1.0, mu_w / np.maximum(r, 1e-300))
    pi = pi * scale[:, None]
    c = pi.sum(axis=0)
    scale = np.minimum(1.0, nu_w / np.maximum(c, 1e-300))
    pi = pi * scale[None, :]
    er = mu_w - pi.sum(axis=1)
    ec = nu_w - pi.sum(axis=0)
    mass = er.sum()
    if mass > 0:
        pi = pi + np.outer(er, ec) / mass
    return pi


def sinkhorn_wp(mu, nu, p=2.0, eps=0.05, iters=2000, metric=None):
    """Entropic surrogate returning certified (lower, upper) bounds on W_p.

    Lower: value of an LP-dual-feasible pair obtained by a tight c-transform
    of the Sinkhorn potential.  Upper: cost of the rounded feasible plan.
    """
    rho = _cost_matrix(mu, nu, metric)
    cost = rho**p
    log_mu = np.log(np.maximum(mu.weights, 1e-300))
    log_nu = np.log(np.maximum(nu.weights, 1e-300))
    K = -cost / eps
    f = np.zeros(len(mu.weights))
    g = np.zeros(len(nu.weights))
    converged = False
    for it in range(iters):
        f_prev = f
        g = -eps * _logsumexp(K + (f / eps + log_mu)[:, None], axis=0)
        f = -eps * _logsumexp(K + (g / eps + log_nu)[None, :], axis=1)
        if np.abs(f - f_prev).max() < 1e-10:
            converged = True
            break
    log_pi = (f[:, None] + g[None, :] - cost) / eps + log_mu[:, None] + log_nu[None, :]
    pi = _round_plan(np.exp(log_pi), mu.weights, nu.weights)
    upper_cost = float((pi * cost).sum())
    g_tight = (cost - f[:, None]).min(axis=0)
    lower_cost = max(float(f @ mu.weights + g_tight @ nu.weights), 0.0)
    root = 1.0 / max(p, 1.0)
    return SinkhornBracket(
        lower=lower_cost**root,
        upper=max(upper_cost, 0.0) ** root,
        converged=converged,
        eps=eps,
    )


def _logsumexp(a, axis):
    """log sum exp of a finite array along ``axis``, shifted by its max.

    ``a`` is overwritten.
    """
    top = a.max(axis=axis, keepdims=True)
    a -= top
    np.exp(a, out=a)
    return np.log(a.sum(axis=axis)) + top.squeeze(axis)


@dataclass
class SinkhornBracket:
    lower: float
    upper: float
    converged: bool
    eps: float


def pushforward(mu, mapping):
    """Image measure: atoms mapped, weights unchanged."""
    mapped = np.asarray([mapping(a) for a in mu.atoms], dtype=float)
    if not np.isfinite(mapped).all():
        raise OutOfDomain("pushforward map produced non-finite atoms")
    return EmpiricalMeasure(mapped, mu.weights.copy())


def relative_entropy_discrete(nu, mu):
    """Sum nu_i log(nu_i / mu_i) over a shared atom index; +inf if nu !<< mu."""
    nw = np.asarray(nu.weights, dtype=float)
    mw = np.asarray(mu.weights, dtype=float)
    if nw.shape != mw.shape:
        raise ValueError("measures must share an atom index")
    charged = nw > 0
    if (mw[charged] == 0).any():
        return float("inf")
    return float(np.sum(nw[charged] * np.log(nw[charged] / mw[charged])))


def _girsanov_step(shift, sigma_fn, grid):
    """The ``_trapezoid`` step of 1/2 int |sigma^{-1} h|^2 dt, adding to
    ``acc`` (n,) the term of node k + 1.  A sigma that declares a constant
    ``matrix`` (see ``models``) is inverted once and never called; any other
    is solved per node."""
    mat = getattr(sigma_fn, "matrix", None)
    inv_t = None if mat is None else np.linalg.inv(mat).T

    def half_square(t, x):
        hv = shift(t, x)
        if inv_t is None:
            z = np.linalg.solve(sigma_fn(t, x), hv[..., None])[..., 0]
        else:
            z = np.dot(hv, inv_t)
        return 0.5 * np.einsum("nd,nd->n", z, z)

    return _trapezoid(grid, half_square)


def girsanov_entropy(shift, sigma_fn, states, grid):
    """Path-space relative entropy of a drift-perturbed law.

    For laws differing by a drift shift ``h``, H(Q|P) equals one half the
    Q-expectation of the time integral of |sigma^{-1} h|^2.  ``states`` is a
    Q-ensemble array (n, k+1, d); returns (estimate, stderr), with the bits
    of the T2 check, which streams the same ``_girsanov_step``.
    """
    if states.shape[1] != grid.n_steps + 1:
        raise ValueError(f"need states at {grid.n_steps + 1} nodes, got {states.shape[1]}")
    per_path = np.zeros(len(states))
    step = _girsanov_step(shift, sigma_fn, grid)
    for j, t in enumerate(grid.nodes):
        step(per_path, j - 1, t, states[:, j])
    return float(per_path.mean()), float(_mean_stderr(per_path))
