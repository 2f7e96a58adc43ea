"""Catalogue of mutants: plausible one-line defects and the tests that kill them.

Each entry holds a name, the file the defect lives in, an exact source
fragment that occurs once in ``src``, the fragment's replacement, and the
pytest ids of the tests that must fail once the fragment is replaced.  A killer should
check something the code does not compute itself: a closed form, an Ito
identity, an inequality of the paper or an oracle built another way.

``mutants/run.py`` runs the census: it applies each mutant to an export of
HEAD and runs the mutant's killers there; a mutant that no killer fails
survives.  ``tests/test_mutants.py`` checks in tier-1 that each fragment
still occurs once and each killer still exists.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    fragment: str
    replacement: str
    killers: tuple


MUTANTS = (
    # the Dini image drift is -lam u + B, not lam u + B
    Mutant(
        "M1", "src/sdetci/zvonkin.py",
        "return self.lam * self.phi.u(x, t) + self.model.B(t, x)",
        "return -self.lam * self.phi.u(x, t) + self.model.B(t, x)",
        ("tests/test_acceptance.py::test_04_pathwise_transform_consistency",
         "tests/test_zvonkin.py::TestPathwiseConsistency::test_error_decays_with_mesh"),
    ),
    # the parabolic Zvonkin source is -b + grad_b u, not b + grad_b u
    Mutant(
        "M2", "src/sdetci/zvonkin.py",
        "G = b_grid + np.einsum(", "G = -b_grid + np.einsum(",
        # the map is odd in (b, u), so no report value sees the sign (ROADMAP
        # F10); the manufactured fixed point is missed by 0.316
        ("tests/test_zvonkin.py::TestParabolicSolver"
         "::test_manufactured_solution_converges_at_second_order",),
    ),
    # the image diffusion is sigma, not (I + grad u) sigma
    Mutant(
        "M3", "src/sdetci/zvonkin.py",
        'return np.einsum("nij,njk->nik", jac, self.model.sigma(t, x))',
        "return self.model.sigma(t, x)",
        ("tests/test_acceptance.py::test_04_pathwise_transform_consistency",
         "tests/test_zvonkin.py::TestEllipticSolver::test_image_paths_follow_phi",
         "tests/test_zvonkin.py::TestPathwiseConsistency::test_error_decays_with_mesh"),
    ),
    # the singular image drift is lam u + b2, not lam u + (I + grad u) b2
    Mutant(
        "M4", "src/sdetci/zvonkin.py",
        'np.einsum("nij,nj->ni", jac, b2)', "b2",
        # no semantic killer yet: it dies only in a test that restates the
        # image drift; F10 shows it in the Ito check only where b2 != 0
        ("tests/test_zvonkin.py::TestSharedInversion::test_shared_preimage_matches_reference",),
    ),
    # the Girsanov entropy is int |sigma^-1 h|^2, not half of it
    Mutant(
        "M5", "src/sdetci/transport.py",
        'return 0.5 * np.einsum("nd,nd->n", z, z)', 'return np.einsum("nd,nd->n", z, z)',
        ("tests/test_transport.py::TestEntropy::test_girsanov_constant_shift",
         "tests/test_tci.py::TestT2Check::test_ou_closed_form_oracle"),
    ),
    # the T1 constant is 1/(2 delta), not 1/(4 delta)
    Mutant(
        "M6", "src/sdetci/tci.py",
        "C = 1.0 / (4.0 * delta)", "C = 1.0 / (2.0 * delta)",
        ("tests/test_tci.py::TestThresholds::test_t1_constant",
         "tests/test_acceptance.py::test_08_gaussian_tail_sweep_and_t1"),
    ),
    # the T1 constant in the original space drops its factor 4
    Mutant(
        "M7", "src/sdetci/tci.py",
        "return 4.0 * C if original_space else C", "return C",
        ("tests/test_tci.py::TestThresholds::test_t1_constant",
         "tests/test_acceptance.py::test_08_gaussian_tail_sweep_and_t1"),
    ),
    # the tail sweep ignores its log_spread criterion
    Mutant(
        "M8", "src/sdetci/tci.py",
        'stable = all(r["stable"] for r in rows) and spread < math.log(1.5)',
        'stable = all(r["stable"] for r in rows)',
        ("tests/test_tci.py::TestGaussianTail::test_rows_that_disagree_make_the_sweep_unstable",),
    ),
    # the parabolic trapezoid weights of the two ends of a step are swapped
    Mutant(
        "M9", "src/sdetci/zvonkin.py",
        "w0 = i0 - i1 / h\n    w1 = i1 / h", "w0 = i1 / h\n    w1 = i0 - i1 / h",
        # the manufactured fixed point reads 4.14e-3 at h/dx^2 ~ 5, not 1.14e-3
        ("tests/test_zvonkin.py::TestParabolicSolver"
         "::test_manufactured_solution_converges_at_second_order",),
    ),
    # the T2 sup gap is read at the last node only
    Mutant(
        "M10", "src/sdetci/simulate.py",
        "np.maximum(sup, np.stack([dist(t, xs[0], x) for x in xs[1:]], axis=1), out=sup)",
        "sup[:] = np.stack([dist(t, xs[0], x) for x in xs[1:]], axis=1)",
        ("tests/test_tci.py::TestT2Check::test_sup_gap_peaks_before_the_horizon",),
    ),
    # Euler-Maruyama reads the drift at the end of the step, t + h
    Mutant(
        "M11", "src/sdetci/simulate.py",
        "t = nodes[k]", "t = nodes[k + 1]",
        # no semantic killer yet: an autonomous model cannot see it; the
        # killer's drift jumps on a node, so the gap stops one step early
        # and its sup reads 0.1453 instead of 0.15
        ("tests/test_tci.py::TestT2Check::test_sup_gap_peaks_before_the_horizon",),
    ),
    # the dissipative delta threshold has 2, not 4, in its denominator
    Mutant(
        "M12", "src/sdetci/tci.py",
        "denom = 4.0 * sigma_sup**2 * T * (", "denom = 2.0 * sigma_sup**2 * T * (",
        ("tests/test_acceptance.py::test_07_threshold_formulas",
         "tests/test_tci.py::TestThresholds::test_delta_values"),
    ),
    # the elliptic Zvonkin source is -b1, not b1
    Mutant(
        "M13", "src/sdetci/zvonkin.py",
        "u = splu(_shifted(L, -1.0, lam)).solve(b1)",
        "u = splu(_shifted(L, -1.0, lam)).solve(-b1)",
        ("tests/test_zvonkin.py::TestEllipticSolver::test_scale_function_oracle",
         "tests/test_zvonkin.py::TestEllipticSolver::test_image_paths_follow_phi"),
    ),
    # the Monte Carlo standard error divides by n, not n - 1
    Mutant(
        "M14", "src/sdetci/simulate.py",
        "ddof=min(n - 1, 1)", "ddof=0",
        ("tests/test_zvonkin.py::TestSemigroupMonteCarlo"
         "::test_estimate_P0_stderr_counts_the_paths_drawn",),
    ),
    # the batched LP certificate checks the duality gap but not the dual slack
    Mutant(
        "M15", "src/sdetci/transport.py",
        "np.maximum(np.maximum.reduceat(slack, np.cumsum(sizes) - sizes), gap)", "gap",
        ("tests/test_transport.py::TestBatchedLp::test_only_the_perturbed_block_is_blamed",),
    ),
)
