"""One-axis parameter sweeps emitting tabular equilibrium data.

Each grid point re-validates the operative assumption; invalid points are
kept in the output with ``assumption_ok`` false and empty numeric cells, so
a sweep records why parts of an axis range are out of range instead of
silently dropping them. Rows are ordered by axis value and fully
deterministic. A mild sweep finds the thresholds of all its valid points
in one lockstep root search, bit for bit the per-point one. The classic
exercise: sweeping the lower edge of the concealment-cost support moves
revealed and total repression in opposite directions, so observed
repression is a misleading trend proxy.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import model, solver_mild
from .distributions import BoundedCDF, cost_columns
from .errors import DomainError, EmptySweepError, RepgameError
from .model import ModelParams
from .rootfind import find_roots
from .solver_severe import bound_D_lower, repression_probabilities, solve

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


def _block(points: list[ModelParams]) -> SimpleNamespace:
    """The points as columns under ModelParams' attribute names, as
    ``model.clauses`` takes them. A cost distribution that every point
    shares stays itself; one the axis moves, which a support-edge axis
    builds uniform or scaled_beta, becomes ``cost_columns``."""
    block = {k: np.array([getattr(p, k) for p in points]) for k in model._SCALARS}
    for name in ("G", "H"):
        dists = [getattr(p, name) for p in points]
        if all(d == dists[0] for d in dists):
            block[name] = dists[0]
        else:
            lo, hi, a, b = np.array([(d.lo, d.hi, *(d.params or (1.0, 1.0))) for d in dists]).T
            is_beta = np.array([d.family == "scaled_beta" for d in dists])
            block[name] = cost_columns(lo, hi, is_beta, a, b)
    return SimpleNamespace(**block)


def _solve_mild_rows(rows: list, pending: list) -> None:
    """Fill the row of each pending (row index, axis value, params, lo, hi)
    with its mild equilibrium, in grid order.

    The thresholds come from one lockstep search on the pending brackets,
    and each is certified and built on its own point as ``solve_mild``
    does; a root is tied to its point by position, since points can share
    a bracket.
    """
    if not pending:
        return
    index, values, points, lo, hi = zip(*pending)
    roots = find_roots(solver_mild.threshold_equation(_block(points)), lo, hi)
    for i, value, params, a, b, c in zip(index, values, points, lo, hi, roots.tolist()):
        eq = solver_mild.mild_equilibrium(params, *solver_mild.certify_threshold(params, a, b, c))
        rows[i] = _row("mild", value, params, eq)


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """One row per grid point; raises EmptySweepError if nothing is valid.

    A failure raises the first failing point's error, in grid order, as
    solving point by point would.
    """
    rows: list[SweepRow | None] = []
    pending: list[tuple] = []  # the mild points that wait for their threshold
    for value in np.linspace(spec.start, spec.end, spec.steps):
        value = float(value)
        try:
            trial = apply_axis(spec.base, spec.axis, value)
        except DomainError:
            rows.append(SweepRow(axis_value=value, assumption_ok=False))
            continue
        report = model.check_assumption(spec.variant, trial)
        if not report.ok:
            rows.append(SweepRow(axis_value=value, assumption_ok=False))
            continue
        if spec.variant != "mild":
            rows.append(_row(spec.variant, value, trial, solve(spec.variant, trial)))
            continue
        try:
            bracket = solver_mild.threshold_bracket(trial, report)
        except RepgameError:
            _solve_mild_rows(rows, pending)  # an earlier point fails first
            raise
        pending.append((len(rows), value, trial, *bracket))
        rows.append(None)
    _solve_mild_rows(rows, pending)
    if not any(row.assumption_ok for row in rows):
        raise EmptySweepError(f"no valid grid point on {spec.axis} in [{spec.start}, {spec.end}]")
    return rows
