"""The one solve path of the mild, severe and no-concession equilibria.

``solve_block`` solves a list of parameter sets as one ``model._block``:
the regime check, then the variant's column steps of ``solver_mild`` or
``solver_severe`` around its root searches, which run in ``_lockstep``.
Each variant's one-line solve is ``solve_one``, a block of one point, and
``solve`` calls it by name. ``strategy(eq)`` states each equilibrium's
play.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import model, solver_mild, solver_severe
from .errors import DomainError, RepgameError
from .model import ModelParams
from .rootfind import find_root, find_roots
from .solver_mild import DEFAULT_TOL, MildEquilibrium, NoConcessionEquilibrium, RepressionProbabilities
from .solver_mild import _probabilities, _require_h_free, validate_tol
from .solver_severe import SevereEquilibrium


def strategy(eq) -> tuple[str, tuple[float, float], tuple[float, float]]:
    """The regime's play at a solved equilibrium: ``(variant, (c_G, c_B),
    (r_G, r_B))``. A type conceals at a cost up to its cutoff c and above it
    reveals with probability r and concedes otherwise."""
    if isinstance(eq, MildEquilibrium):
        # the good type reveals with probability kappa, which reproduces the
        # equilibrium reveal likelihood ratio
        return "mild", (eq.c_tilde, eq.c_tilde), (eq.kappa, 1.0)
    if isinstance(eq, SevereEquilibrium):
        # revealed repression identifies the good type
        return "severe", (eq.c_tilde_G, eq.c_tilde_B), (1.0, 0.0)
    if isinstance(eq, NoConcessionEquilibrium):
        return "no-concession", (eq.c_tilde, eq.c_tilde), (1.0, 1.0)
    raise DomainError(f"not a solved equilibrium: {type(eq).__name__}")


# each variant's one-line solve, as its module and name
_ONE_LINE = {
    "mild": (solver_mild, "solve_mild"),
    "severe": (solver_severe, "solve_severe"),
    "no-concession": (solver_mild, "no_concession_equilibrium"),
}


def solve(variant: str, params: ModelParams, tol: float = DEFAULT_TOL):
    """The solved equilibrium of ``variant``, so that ``strategy(solve(v,
    params))[0] == v``: the variant's one-line solve, which is ``solve_one``,
    read off its module at the call, so that a replaced module attribute
    (a profiler's wrapper, say) is the one called."""
    if variant not in _ONE_LINE:
        return solve_one(variant, params, tol)  # solve_block's error for an unknown variant
    module, name = _ONE_LINE[variant]
    return getattr(module, name)(params, tol=tol)


def solve_one(variant: str, params: ModelParams, tol: float = DEFAULT_TOL, relaxed: bool = False):
    """``solve_block`` on a block of one point: its equilibrium, or its
    error raised."""
    (eq,) = solve_block(variant, [params], tol, relaxed)
    if isinstance(eq, RepgameError):
        raise eq
    return eq


def solve_block(variant: str, points: list, tol: float = DEFAULT_TOL, relaxed: bool = False) -> list:
    """Each point's equilibrium of ``variant``, "mild", "severe" or
    "no-concession", or the RepgameError that it carries, in order.

    The points run through each step together, as one ``model._block``, or
    as blocks of one where a varying piecewise-linear G or H keeps them from
    being one. The regime check is one ``model.holds`` pass, and a point that
    fails it gets ``model.require_regime``'s error with its report.

    ``relaxed``, for the mild variant, checks only the clauses that involve
    no part of H and widens each bracket to [0, alpha_G], so that a limit
    where H degenerates solves, its root c_tilde = alpha_G included.
    """
    steps = _STEPS.get(variant)
    if steps is None:
        raise DomainError(f"unknown variant {variant!r}")
    validate_tol(tol)
    if relaxed and variant != "mild":
        raise DomainError(f"relaxed applies to the mild variant only, not {variant!r}")
    if not points:
        return []
    try:
        block = model._block(points)
    except DomainError:  # a varying piecewise-linear G or H
        return [eq for p in points for eq in solve_block(variant, [p], tol, relaxed)]
    if relaxed:
        out = [_attempt(_require_h_free, p) for p in points]
    elif variant in model.REGIMES:
        passed = model.holds(variant, block).tolist()
        out = [p if ok else _attempt(model.require_regime, variant, p) for p, ok in zip(points, passed)]
    else:  # the no-concession variant has no regime clauses
        out = list(points)
    live = [i for i, p in enumerate(out) if not isinstance(p, RepgameError)]
    if not live:
        return out
    if len(live) < len(points):
        block, points = model._rows(block, live), [points[i] for i in live]
    for i, eq in zip(live, steps(block, points, tol, relaxed)):
        out[i] = eq
    return out


def _solve_one_threshold(steps: tuple, block, points: list, tol: float, relaxed: bool) -> list:
    """The steps of a mild or no-concession solve after the check, named in
    ``steps`` as ``solver_mild``'s (bracket, equation, build) and read off
    it at the call: each row's bracket, the root search, and the build that
    certifies each root."""
    bracket, equation, build = (getattr(solver_mild, name) for name in steps)
    mode = (True,) if relaxed else ()  # only the mild steps take relaxed
    brackets = bracket(block, *mode)
    jobs = [(i, (), b) for i, b in enumerate(brackets)]
    return build(block, points, brackets, _lockstep(equation, block, points, jobs), tol, *mode)


def _solve_severe_block(block, points: list, tol: float, relaxed: bool) -> list:
    """The steps of a severe solve after the check; ``relaxed`` is False."""
    scans = solver_severe._severe_scans(block)
    live = [(i, s) for i, s in enumerate(scans) if not isinstance(s, RepgameError)]
    cells = [(i, (s.gap,), cell) for i, s in live for cell in s.cells]
    corners = [(i, (s.g_beta_G,), (points[i].H.lo, s.g_beta_G)) for i, s in live if s.corner]
    cell_roots = iter(_lockstep(solver_severe._bad_type_equation, block, points, cells))
    corner_roots = iter(_lockstep(solver_severe._corner_equation, block, points, corners))
    roots = [
        []
        if isinstance(s, RepgameError)
        else [next(cell_roots) for _ in s.cells] + ([next(corner_roots)] if s.corner else [])
        for s in scans
    ]
    return solver_severe.severe_equilibrium(block, points, scans, roots, tol)


# each variant's steps after its check
_STEPS = {
    "mild": partial(_solve_one_threshold, ("threshold_bracket", "threshold_equation", "mild_equilibrium")),
    "severe": _solve_severe_block,
    "no-concession": partial(
        _solve_one_threshold, ("no_concession_bracket", "no_concession_equation", "no_concession_build")
    ),
}


def _attempt(step, *args):
    """``step(*args)``, or the RepgameError that it raises."""
    try:
        return step(*args)
    except RepgameError as exc:
        return exc


def _lockstep(equation, block, points: list, jobs: list) -> list:
    """``find_root(equation(points[i], *args), lo, hi)`` for each ``(i,
    args, (lo, hi))`` of ``jobs``, where ``block`` is the ``model._block``
    of points: each job's root, or the RepgameError that its bracket holds
    in place of (lo, hi). The searches run in one ``find_roots`` call, on
    the jobs' rows of the block and each of the args as a column. A search
    of one row runs find_root, at about a thirtieth of the cost, and so does
    each job on its own if find_roots raises, so that a job find_root
    rejects carries its own error."""
    out = [bracket for _, _, bracket in jobs]
    live = [k for k, bracket in enumerate(out) if not isinstance(bracket, RepgameError)]
    if not live:
        return out
    rows, args = zip(*(jobs[k][:2] for k in live))
    lo, hi = zip(*(out[k] for k in live))
    roots = None
    if len(live) > 1:
        try:
            f = equation(model._rows(block, list(rows)), *np.array(args).T)
            roots = find_roots(f, lo, hi).tolist()
        except RepgameError:
            pass
    if roots is None:
        roots = [
            _attempt(find_root, equation(points[i], *a), x, y) for i, a, x, y in zip(rows, args, lo, hi)
        ]
    for k, root in zip(live, roots):
        out[k] = root
    return out


def repression_probabilities(eq, params: ModelParams) -> RepressionProbabilities:
    """The six repression/concession probabilities of ``strategy(eq)``,
    conditional on an organized activist."""
    _, (c_G, c_B), reveals = strategy(eq)
    return _probabilities(params.q, (params.H.cdf(c_G), params.H.cdf(c_B)), reveals)


def bound_D_lower(eq) -> float:
    """Estimable lower bound on D: p_NN - p_R = -c_G, always negative.

    The good type is indifferent between concealing and revealing at its
    cutoff c_G. The closed form keeps the digits that the difference of two
    nearby protest probabilities loses.
    """
    return -strategy(eq)[1][0]
