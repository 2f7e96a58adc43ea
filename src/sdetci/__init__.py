"""Numerical toolkit for drift-regularizing changes of variables in SDEs
and the transport-entropy inequalities they carry across."""

from .errors import (
    BlowupError,
    ConfigError,
    ConsistencyFailure,
    EllipticSolverError,
    FitFailure,
    GradientTooLarge,
    InconclusiveEstimate,
    InvalidCoefficient,
    NotContractive,
    OutOfDomain,
    SdetciError,
    UseSinkhorn,
)
from .models import (
    DiniModelSpec,
    ModulusSpec,
    SingularModelSpec,
    ValidationReport,
    dini_benchmark_config,
    model_from_config,
    ou_singular_config,
    validate_model,
)
from .simulate import (
    CallableModel,
    PathEnsemble,
    TimeGrid,
    brownian_increments,
    coupled_sup_distances,
    ensemble_reduce,
    path_rng,
    simulate_ensemble,
    with_drift_shift,
)
from .transport import (
    EmpiricalMeasure,
    SinkhornBracket,
    TransportPlan,
    brute_force_wp,
    exact_wp,
    exact_wp_many,
    girsanov_entropy,
    pushforward,
    relative_entropy_discrete,
    sinkhorn_wp,
)
from .zvonkin import (
    GridFunction,
    Homeomorphism,
    SpaceGrid,
    TransformedModel,
    build_phi,
    check_gradient_estimate,
    estimate_P0,
    pathwise_consistency,
    solve_u_elliptic,
    solve_u_parabolic,
    solve_u_parabolic_auto,
    verify_tilde_conditions,
)
from .tci import (
    TCIReport,
    ThresholdSet,
    delta_threshold,
    exp_functional_estimate,
    gaussian_tail_sweep,
    invariance_suite,
    lambda_threshold,
    t1_constant,
    t2_check,
    tail_sweep_and_t2,
    threshold_set,
)

__version__ = "0.1.0"
