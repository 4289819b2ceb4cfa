"""One-axis parameter sweeps emitting tabular equilibrium data.

Each grid point re-validates the operative assumption; invalid points are
kept in the output with ``assumption_ok`` false and empty numeric cells, so
a sweep records why parts of an axis range are out of range instead of
silently dropping them. Rows are ordered by axis value and fully
deterministic. The classic exercise: sweeping the lower edge of the
concealment-cost support moves revealed and total repression in opposite
directions, so observed repression is a misleading trend proxy.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import model
from .distributions import BoundedCDF
from .errors import DomainError, EmptySweepError
from .model import ModelParams
from .solver_mild import solve_mild
from .solver_severe import severe_repression_probabilities, solve_severe

SWEEP_AXES = ("H_lo", "G_lo", "q", "gamma", "beta_B", "alpha_G")
VARIANTS = ("mild", "severe")
# np.linspace raises a bare ValueError on a count it cannot allocate; a grid
# this size already takes minutes of solves
MAX_STEPS = 1_000_000

MILD_COLUMNS = (
    "axis_value",
    "assumption_ok",
    "c_tilde",
    "prob_revealed",
    "prob_concealed",
    "prob_total",
    "p_R",
    "p_NN",
    "p_prior",
    "D",
    "D_lower",
)
SEVERE_COLUMNS = (
    "axis_value",
    "assumption_ok",
    "c_tilde_B",
    "c_tilde_G",
    "prob_revealed",
    "prob_concealed",
    "prob_total",
    "p_R",
    "p_NN",
    "p_prior",
    "D",
    "D_lower",
)


def _with_lo(dist: BoundedCDF, new_lo: float) -> BoundedCDF:
    if dist.family == "uniform":
        return BoundedCDF.uniform(new_lo, dist.hi)
    if dist.family == "scaled_beta":
        a, b = dist.params
        return BoundedCDF.scaled_beta(new_lo, dist.hi, a, b)
    raise DomainError(f"support-edge axis unsupported for family {dist.family!r}")


def _shifted(dist: BoundedCDF, delta: float) -> BoundedCDF:
    if dist.family == "uniform":
        return BoundedCDF.uniform(dist.lo + delta, dist.hi + delta)
    if dist.family == "scaled_beta":
        a, b = dist.params
        return BoundedCDF.scaled_beta(dist.lo + delta, dist.hi + delta, a, b)
    return BoundedCDF.piecewise_linear([(x + delta, f) for x, f in dist.params])


def apply_axis(params: ModelParams, axis: str, value: float) -> ModelParams:
    """New params with one primitive moved; raises DomainError when the
    resulting params violate a type invariant."""
    if axis == "H_lo":
        return dataclasses.replace(params, H=_with_lo(params.H, value))
    if axis == "G_lo":
        return dataclasses.replace(params, G=_with_lo(params.G, value))
    if axis == "q":
        return dataclasses.replace(params, q=value)
    if axis == "gamma":
        return dataclasses.replace(params, gamma=value)
    if axis == "beta_B":
        return dataclasses.replace(params, beta_B=value)
    if axis == "alpha_G":
        return dataclasses.replace(params, alpha_G=value)
    if axis == "G_shift":
        # shift the protest-cost support down by `value`: CDF rises pointwise
        return dataclasses.replace(params, G=_shifted(params.G, -value))
    raise DomainError(f"unknown sweep axis {axis!r}")


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    start: float
    end: float
    steps: int
    base: ModelParams
    variant: str = "mild"

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise DomainError(f"unknown sweep axis {self.axis!r}")
        if self.variant not in VARIANTS:
            raise DomainError(f"unknown sweep variant {self.variant!r}")
        if not self.start < self.end:
            raise DomainError("need start < end")
        if not 2 <= self.steps <= MAX_STEPS:
            raise DomainError(f"need 2 to {MAX_STEPS} steps, got {self.steps}")
        # endpoints must at least be type-valid; assumption validity is per point
        apply_axis(self.base, self.axis, self.start)
        apply_axis(self.base, self.axis, self.end)


@dataclass(frozen=True)
class SweepRow:
    axis_value: float
    assumption_ok: bool
    c_tilde: float | None = None
    c_tilde_B: float | None = None
    c_tilde_G: float | None = None
    prob_revealed: float | None = None
    prob_concealed: float | None = None
    prob_total: float | None = None
    p_R: float | None = None
    p_NN: float | None = None
    p_prior: float | None = None
    D: float | None = None
    D_lower: float | None = None

    def to_dict(self, variant: str) -> dict:
        cols = MILD_COLUMNS if variant == "mild" else SEVERE_COLUMNS
        return {c: getattr(self, c) for c in cols}


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """One row per grid point; raises EmptySweepError if nothing is valid."""
    rows: list[SweepRow] = []
    any_valid = False
    mild = spec.variant == "mild"
    cols = MILD_COLUMNS if mild else SEVERE_COLUMNS
    check = model.check_assumption_mild if mild else model.check_assumption_severe
    for value in np.linspace(spec.start, spec.end, spec.steps):
        value = float(value)
        try:
            trial = apply_axis(spec.base, spec.axis, value)
        except DomainError:
            rows.append(SweepRow(axis_value=value, assumption_ok=False))
            continue
        if not check(trial).ok:
            rows.append(SweepRow(axis_value=value, assumption_ok=False))
            continue
        if mild:
            eq = solve_mild(trial)
            found = {c: getattr(eq, c) for c in cols[2:]}
        else:
            eq = solve_severe(trial, scan=0)  # multiplicity diagnostics off in bulk
            probs = severe_repression_probabilities(eq, trial)
            found = {c: getattr(probs if c.startswith("prob_") else eq, c) for c in cols[2:-1]}
            found["D_lower"] = eq.p_NN - eq.p_R
        rows.append(SweepRow(value, True, **found))
        any_valid = True
    if not any_valid:
        raise EmptySweepError(f"no valid grid point on {spec.axis} in [{spec.start}, {spec.end}]")
    return rows
