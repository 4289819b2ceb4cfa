"""Numerical laboratory for a repression game with strategic concealment.

A regime facing organized activists chooses between conceding, repressing
publicly, and repressing while concealing the act at a cost; a public that
observes only revealed repression, concession, or no news decides whether
to protest. The package solves the resulting equilibria (mild and severe
conflict regimes plus a no-concession variant), simulates play under seeded
counter-based randomness, recovers concealed repression from observables,
verifies equilibria numerically, and sweeps comparative statics.

The names below are resolved on first use (PEP 562), so importing the
package, or one submodule of it, loads no other submodule and no numpy.
"""

import importlib

# submodule -> the names the package exports from it
_EXPORTS = {
    "distributions": ("BoundedCDF", "fosd_dominates"),
    "errors": (
        "AssumptionError",
        "ConfigError",
        "DomainError",
        "EmptySweepError",
        "EstimationError",
        "InconsistentInputsError",
        "RepgameError",
        "SolverError",
        "WorkerError",
    ),
    "model": (
        "AssumptionReport",
        "Belief",
        "ClauseCheck",
        "ModelParams",
        "beta_e",
        "check_assumption_mild",
        "check_assumption_severe",
        "prior",
        "protest_prob",
        "rho_tilde",
    ),
    "simulate": ("SimStats", "estimate_from_sim", "run_simulation"),
    "solver_mild": (
        "DegenerateLimits",
        "EstimationReport",
        "MildEquilibrium",
        "NoConcessionEquilibrium",
        "effect_D_mild",
        "estimate_plugin",
        "estimator_H",
        "estimator_total",
        "limit_H_degenerate",
        "no_concession_equilibrium",
        "solve_mild",
        "solve_no_concession",
    ),
    "solver": ("bound_D_lower", "repression_probabilities", "solve", "solve_block", "strategy"),
    "solver_severe": ("SevereEquilibrium", "effect_D_severe", "posterior_nn_severe", "solve_severe"),
    "sweep": ("SweepRow", "SweepSpec", "apply_axis", "run_sweep"),
    "verify": (
        "FosdReport",
        "LimitReport",
        "MonotonicityReport",
        "RegretReport",
        "SignLawReport",
        "best_response_check",
        "bayes_consistency_check",
        "certify_equilibrium",
        "fosd_comparative_statics_check",
        "degenerate_cost_limit_check",
        "effect_monotonicity_check",
        "sign_law_check",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    # not cached in globals(): repgame.X is always what the submodule holds now
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
