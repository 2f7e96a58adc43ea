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
    # the parabolic Zvonkin source is -b + grad_b u, not b + grad_b u
    Mutant(
        "M2", "src/sdetci/zvonkin.py",
        "G = b_grid + np.einsum(", "G = -b_grid + np.einsum(",
        # dies only in a test that rebuilds the source itself; no report
        # value sees the sign (ROADMAP F10)
        ("tests/test_zvonkin.py::TestScipyReference::test_parabolic_sweep_matches_two_half_steps",),
    ),
    # the tail sweep ignores its log_spread criterion
    Mutant(
        "M8", "src/sdetci/tci.py",
        'stable = all(r["stable"] for r in rows) and spread < math.log(1.5)',
        'stable = all(r["stable"] for r in rows)',
        ("tests/test_tci.py::TestGaussianTail::test_rows_that_disagree_make_the_sweep_unstable",),
    ),
    # the T2 sup gap is read at the last node only
    Mutant(
        "M10", "src/sdetci/simulate.py",
        "np.maximum(sup, np.stack([dist(t, xs[0], x) for x in xs[1:]], axis=1), out=sup)",
        "sup[:] = np.stack([dist(t, xs[0], x) for x in xs[1:]], axis=1)",
        ("tests/test_tci.py::TestT2Check::test_sup_gap_peaks_before_the_horizon",),
    ),
    # the elliptic Zvonkin source is -b1, not b1
    Mutant(
        "M13", "src/sdetci/zvonkin.py",
        "u = splu(_shifted(L, -1.0, lam)).solve(b1)",
        "u = splu(_shifted(L, -1.0, lam)).solve(-b1)",
        ("tests/test_zvonkin.py::TestEllipticSolver::test_image_paths_follow_phi",
         "tests/test_zvonkin.py::TestEllipticSolver::test_matches_dense_reference"),
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
