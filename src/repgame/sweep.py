"""One-axis parameter sweeps emitting tabular equilibrium data.

A sweep solves its type-valid points in one ``solver.solve_block`` call,
which checks each point's assumption and is bit for bit the point-by-point
solve. Invalid points are kept with ``assumption_ok`` false
and empty numeric cells, so a sweep records why parts of an axis range are
out of range instead of silently dropping them. Rows are ordered by axis
value and fully deterministic. The classic exercise: sweeping the lower
edge of the concealment-cost support moves revealed and total repression
in opposite directions, so observed repression is a misleading trend proxy.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass

import numpy as np

from . import model
from .distributions import BoundedCDF
from .errors import AssumptionError, DomainError, EmptySweepError, RepgameError
from .model import ModelParams
from .solver import bound_D_lower, repression_probabilities, solve_block

SWEEP_AXES = ("H_lo", "G_lo", "q", "gamma", "beta_B", "alpha_G")
VARIANTS = model.REGIMES
# np.linspace raises a bare ValueError on a count it cannot allocate; a grid
# this size already takes minutes of solves
MAX_STEPS = 1_000_000

# each variant's columns: its threshold names between a shared head and tail
COLUMNS = {
    variant: ("axis_value", "assumption_ok", *thresholds)
    + ("prob_revealed", "prob_concealed", "prob_total", "p_R", "p_NN", "p_prior", "D", "D_lower")
    for variant, thresholds in (("mild", ("c_tilde",)), ("severe", ("c_tilde_B", "c_tilde_G")))
}


def _with_lo(dist: BoundedCDF, new_lo: float) -> BoundedCDF:
    if dist.family == "piecewise_linear":
        raise DomainError(f"support-edge axis unsupported for family {dist.family!r}")
    return dataclasses.replace(dist, lo=new_lo)


def _shifted(dist: BoundedCDF, delta: float) -> BoundedCDF:
    if dist.family == "piecewise_linear":
        return BoundedCDF.piecewise_linear([(x + delta, f) for x, f in dist.params])
    return dataclasses.replace(dist, lo=dist.lo + delta, hi=dist.hi + delta)


def apply_axis(params: ModelParams, axis: str, value: float) -> ModelParams:
    """New params with one primitive moved; raises DomainError when the
    resulting params violate a type invariant."""
    if axis in ("q", "gamma", "beta_B", "alpha_G"):
        return dataclasses.replace(params, **{axis: value})
    if axis == "H_lo":
        return dataclasses.replace(params, H=_with_lo(params.H, value))
    if axis == "G_lo":
        return dataclasses.replace(params, G=_with_lo(params.G, value))
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
        return {c: getattr(self, c) for c in COLUMNS[variant]}


def _row(variant: str, value: float, params: ModelParams, eq) -> SweepRow:
    probs = repression_probabilities(eq, params)
    found = {c: getattr(probs if c.startswith("prob_") else eq, c) for c in COLUMNS[variant][2:-1]}
    return SweepRow(value, True, D_lower=bound_D_lower(eq), **found)


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """One row per grid point; raises EmptySweepError if nothing is valid.

    A failure raises the first failing point's error, in grid order, as
    solving point by point would.
    """
    rows: list[SweepRow] = []  # invalid until solved
    pending: list[tuple] = []  # (row index, axis value, params) of each type-valid point
    for value in np.linspace(spec.start, spec.end, spec.steps):
        value = float(value)
        with contextlib.suppress(DomainError):
            pending.append((len(rows), value, apply_axis(spec.base, spec.axis, value)))
        rows.append(SweepRow(axis_value=value, assumption_ok=False))
    solved = solve_block(spec.variant, [trial for _, _, trial in pending])
    for (i, value, trial), eq in zip(pending, solved):
        # only the regime check raises AssumptionError on a solve
        if isinstance(eq, AssumptionError):
            continue
        if isinstance(eq, RepgameError):
            raise eq
        rows[i] = _row(spec.variant, value, trial, eq)
    if not any(row.assumption_ok for row in rows):
        raise EmptySweepError(f"no valid grid point on {spec.axis} in [{spec.start}, {spec.end}]")
    return rows
