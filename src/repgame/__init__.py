"""Numerical laboratory for a repression game with strategic concealment.

A regime facing organized activists chooses between conceding, repressing
publicly, and repressing while concealing the act at a cost; a public that
observes only revealed repression, concession, or no news decides whether
to protest. The package solves the resulting equilibria (mild and severe
conflict regimes plus a no-concession variant), simulates play under seeded
counter-based randomness, recovers concealed repression from observables,
verifies equilibria numerically, and sweeps comparative statics.
"""

from .distributions import BoundedCDF, fosd_dominates
from .errors import (
    AssumptionError,
    ConfigError,
    DomainError,
    EmptySweepError,
    EstimationError,
    InconsistentInputsError,
    RepgameError,
    SolverError,
    WorkerError,
)
from .model import (
    AssumptionReport,
    Belief,
    ClauseCheck,
    ModelParams,
    beta_e,
    check_assumption_mild,
    check_assumption_severe,
    prior,
    protest_prob,
    rho_tilde,
)
from .simulate import (
    EstimationReport,
    SimStats,
    estimate_from_sim,
    estimate_plugin,
    run_simulation,
)
from .solver_mild import (
    DegenerateLimits,
    MildEquilibrium,
    NoConcessionEquilibrium,
    bound_D_lower,
    effect_D_mild,
    estimator_H,
    estimator_total,
    limit_H_degenerate,
    no_concession_equilibrium,
    repression_probabilities,
    solve_mild,
    solve_no_concession,
    unconditional_probabilities,
)
from .solver_severe import (
    SevereEquilibrium,
    effect_D_severe,
    posterior_nn_severe,
    severe_repression_probabilities,
    solve_severe,
)
from .sweep import SweepRow, SweepSpec, apply_axis, run_sweep
from .verify import (
    FosdReport,
    LimitReport,
    MonotonicityReport,
    RegretReport,
    SignLawReport,
    best_response_check,
    bayes_consistency_check,
    certify_equilibrium,
    fosd_comparative_statics_check,
    degenerate_cost_limit_check,
    effect_monotonicity_check,
    sign_law_check,
)

__version__ = "0.1.0"
