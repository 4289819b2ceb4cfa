"""Severe-conflict equilibrium: two concealment thresholds.

Under severe conflict (alpha_B < alpha_G) concealment is differential: bad
activists are concealed below c_tilde_B and conceded to above it, while
good activists are concealed below c_tilde_G and publicly repressed above
it. Revealed repression therefore identifies a good activist, mu_R =
(1, 0, 0), and the indifference conditions are

    alpha_B   - p_NN = c_tilde_B      (bad type, conceal vs concede)
    G(beta_G) - p_NN = c_tilde_G      (good type, conceal vs reveal)

where p_NN is the protest probability after no news at the implied
posterior. Subtracting gives the interior gap identity c_tilde_G -
c_tilde_B = G(beta_G) - alpha_B, which reduces the system to one scalar
root-find in c_tilde_B. When that root would exit the cost support from
below, c_tilde_B pins at the support edge and c_tilde_G solves the corner
equation with no bad-type concealment mass.

Every fixed point of the clamped threshold map is the corner or a root of
the gap-substituted bad-type residual f_B. c_tilde_G never clamps: at
c_tilde_G = c_lo no type conceals, so p_NN = G(0) = 0 < G(beta_G) - c_lo.
Uniqueness holds for weakly log-convex H; for other shapes the solver
scans f_B on a grid that holds H's kinks, returns the fixed point with the
smallest c_tilde_B and lists the rest in ``multiplicity_note`` rather than
hiding them.

A solve runs in three steps: the scan, the root search in each scan cell
and the corner's bracket, and the build that certifies the fixed points.
``solve_block`` runs the root searches of a whole block of points in
lockstep between the other two.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import model, solver_mild
from .distributions import cost_columns
from .errors import DomainError, RepgameError, SolverError
from .model import Belief, ModelParams
from .rootfind import find_root, find_roots
from .solver_mild import (
    DEFAULT_TOL,
    MildEquilibrium,
    NoConcessionEquilibrium,
    RepressionProbabilities,
    _certify,
    _probabilities,
    validate_tol,
)

_SCAN_1D = 2048


@dataclass(frozen=True)
class SevereEquilibrium:
    """Solved severe-conflict equilibrium.

    ``corner`` is True when c_tilde_B is pinned at the cost-support lower
    edge. ``multiplicity_note`` lists any alternative fixed points found.
    """

    c_tilde_B: float
    c_tilde_G: float
    corner: bool
    mu_R: Belief
    mu_NN: Belief
    p_R: float
    p_NN: float
    p_prior: float
    D: float
    multiplicity_note: tuple[dict, ...]
    residual_B: float
    residual_G: float


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


def solve(variant: str, params: ModelParams, tol: float = DEFAULT_TOL):
    """The solved equilibrium of ``variant``, so that ``strategy(solve(v,
    params))[0] == v``. Each solver is read off its module at the call, so a
    replaced module attribute is the one called."""
    if variant == "mild":
        return solver_mild.solve_mild(params, tol)
    if variant == "severe":
        return solve_severe(params, tol=tol)
    if variant == "no-concession":
        return solver_mild.no_concession_equilibrium(params, tol)
    raise DomainError(f"unknown variant {variant!r}")


def solve_block(variant: str, points: list) -> list:
    """``solve(variant, params)`` on each ``(params, report)`` of ``points``,
    where ``report`` is ``model.check_assumption(variant, params)``: each
    point's equilibrium, or the RepgameError that solve raises on it, in
    order. ``variant`` is "mild" or "severe".

    The points run through each step of their solve together. The steps
    around a root search run point by point, and each root search runs on
    the whole block in one ``find_roots`` call, bit for bit the per-point
    ``find_root``. A point whose step fails carries its own error and leaves
    the other points alone.
    """
    if variant == "mild":
        brackets = [_attempt(solver_mild.threshold_bracket, p, r) for p, r in points]
        equation = solver_mild.threshold_equation
        roots = _lockstep(equation, [(p, (), b) for (p, _), b in zip(points, brackets)])
        return [_attempt(_mild_build, p, b, c) for (p, _), b, c in zip(points, brackets, roots)]
    if variant == "severe":
        scans = [_attempt(_severe_scan, p, r) for p, r in points]
        live = [s for s in scans if not isinstance(s, RepgameError)]
        cells = [(s.params, (s.gap,), cell) for s in live for cell in s.cells]
        corners = [(s.params, (s.g_beta_G,), (s.params.H.lo, s.g_beta_G)) for s in live if s.corner]
        cell_roots = iter(_lockstep(_bad_type_equation, cells))
        corner_roots = iter(_lockstep(_corner_equation, corners))
        out = []
        for s in scans:
            if not isinstance(s, RepgameError):
                roots = [next(cell_roots) for _ in s.cells]
                roots += [next(corner_roots)] if s.corner else []
                s = _attempt(_severe_build, s, *roots)
            out.append(s)
        return out
    raise DomainError(f"no block solver for variant {variant!r}")


def _attempt(step, *args):
    """``step(*args)``, or the first RepgameError among ``args``, or the
    RepgameError that the step raises."""
    failed = next((a for a in args if isinstance(a, RepgameError)), None)
    if failed is not None:
        return failed
    try:
        return step(*args)
    except RepgameError as exc:
        return exc


def _mild_build(params: ModelParams, bracket: tuple[float, float], c: float) -> MildEquilibrium:
    """The steps of ``solve_mild`` after its root search on ``bracket``."""
    return solver_mild.mild_equilibrium(params, *solver_mild.certify_threshold(params, *bracket, c))


def _lockstep(equation, jobs: list) -> list:
    """``find_root(equation(params, *args), lo, hi)`` for each ``(params,
    args, (lo, hi))`` of ``jobs``, all in one ``find_roots`` call, on the
    points as a ``_block`` and each of the args as a column: each job's
    root, or the RepgameError that its bracket holds in place of (lo, hi).
    If find_roots raises, each job is searched on its own, so that a job
    find_root rejects carries its own error."""
    out = [bracket for _, _, bracket in jobs]
    live = [i for i, bracket in enumerate(out) if not isinstance(bracket, RepgameError)]
    if not live:
        return out
    points, args = zip(*(jobs[i][:2] for i in live))
    lo, hi = zip(*(out[i] for i in live))
    try:
        roots = find_roots(equation(_block(points), *np.array(args).T), lo, hi).tolist()
    except RepgameError:
        roots = [
            _attempt(find_root, equation(p, *a), x, y) for p, a, x, y in zip(points, args, lo, hi)
        ]
    for i, root in zip(live, roots):
        out[i] = root
    return out


def _block(points: list[ModelParams]) -> SimpleNamespace:
    """The points as columns under ModelParams' attribute names, as
    ``model.clauses`` takes them. A cost distribution that every point
    shares stays itself; one that varies becomes ``cost_columns``, which
    holds uniform and scaled_beta distributions only, so a varying
    piecewise-linear one raises DomainError."""
    block = {k: np.array([getattr(p, k) for p in points]) for k in model._SCALARS}
    for name in ("G", "H"):
        dists = [getattr(p, name) for p in points]
        if all(d == dists[0] for d in dists):
            block[name] = dists[0]
        elif any(d.family == "piecewise_linear" for d in dists):
            raise DomainError(f"a block's {name} varies and is piecewise-linear")
        else:
            lo, hi, a, b = np.array([(d.lo, d.hi, *(d.params or (1.0, 1.0))) for d in dists]).T
            is_beta = np.array([d.family == "scaled_beta" for d in dists])
            block[name] = cost_columns(lo, hi, is_beta, a, b)
    return SimpleNamespace(**block)


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


def posterior_nn_severe(c_B: float, c_G: float, params: ModelParams) -> Belief:
    """No-news posterior when the two types conceal at different thresholds.

    Components proportional to (gamma*H(c_G)*q, gamma*H(c_B)*(1-q),
    1-gamma); H clamps above its support, which covers thresholds pushed
    past the upper cost edge.
    """
    if c_B > c_G:
        raise DomainError(f"need c_B <= c_G, got {c_B} > {c_G}")
    g, q = params.gamma, params.q
    return Belief.normalized(
        g * params.H.cdf(c_G) * q,
        g * params.H.cdf(c_B) * (1.0 - q),
        1.0 - g,
    )


def _p_nn(params: ModelParams, c_B, c_G):
    """Protest probability after no news, vectorized over thresholds."""
    g, q = params.gamma, params.q
    h_G = params.H.cdf(c_G)
    h_B = params.H.cdf(c_B)
    num = g * (h_G * q * params.beta_G + h_B * (1.0 - q) * params.beta_B)
    den = g * (h_G * q + h_B * (1.0 - q)) + 1.0 - g
    return params.G.cdf(num / den)


def effect_D_severe(params: ModelParams) -> float:
    """Effect of revealed repression under severe conflict: always a backlash.

    D = G(gamma*beta_e) - G(beta_G) < 0 whenever the severe-conflict check
    passes; the solve is not needed for this quantity.
    """
    report = model.check_assumption("severe", params)
    model.require(report, report.failed_clauses(), "severe-conflict assumption")
    return params.G.cdf(params.gamma * model.beta_e(params)) - params.G.cdf(params.beta_G)


def _scan_cells(f, xs: np.ndarray) -> tuple[list[float], list[tuple[float, float]]]:
    """(zeros, cells) of a vectorized f scanned on the sorted points xs: the
    points where f is 0, and each cell (a, b) of adjacent points whose ends
    differ in sign and whose left end is no zero, which holds a root."""
    vals = np.asarray(f(xs), dtype=float)
    neg = vals < 0.0
    i = np.flatnonzero((neg[:-1] != neg[1:]) & (vals[:-1] != 0.0))
    return xs[vals == 0.0].tolist(), list(zip(xs[i].tolist(), xs[i + 1].tolist()))


def _distinct(roots: list[float]) -> list[float]:
    """The roots in order, a root within 1e-9 of the one before it dropped:
    adjacent cells can find near-coincident roots."""
    out: list[float] = []
    for r in sorted(roots):
        if not out or r - out[-1] > 1e-9:
            out.append(r)
    return out


def _scan_points(params: ModelParams, gap: float) -> np.ndarray:
    """The scan grid of f_B on [H.lo, alpha_B]: a linspace, plus the points inside
    where a piecewise-linear H puts a kink in f_B, its knots x and x - gap (a
    knot of H(c_G) at c_G = c_B + gap). Two roots beside a knot that share a
    linspace cell then get cells of their own."""
    lo, hi = params.H.lo, params.alpha_B
    xs = np.linspace(lo, hi, _SCAN_1D)
    if params.H.family != "piecewise_linear":
        return xs
    knots = np.array([x for x, _ in params.H.params])
    kinks = np.concatenate((knots, knots - gap))
    return np.union1d(xs, kinks[(kinks > lo) & (kinks < hi)])


def _fixed_point_residual(params: ModelParams, c_lo: float, g_beta_G: float, cb: float, cg: float):
    """max(|nb - cb|, |ng - cg|) for the clamped threshold map (nb, ng) = (alpha_B - p_NN,
    G(beta_G) - p_NN), each at least c_lo, at (cb, cg); 0 at a fixed point."""
    p = float(_p_nn(params, cb, cg))
    return max(abs(max(params.alpha_B - p, c_lo) - cb), abs(max(g_beta_G - p, c_lo) - cg))


def _bad_type_equation(params, gap):
    """f_B: the bad type's indifference on the interior line c_G = c_B + gap,
    gap = G(beta_G) - alpha_B, as a function of c_B. ``params`` may be a
    block of points as columns, as ``model.clauses`` takes, and gap then a
    column."""
    return lambda cb: _p_nn(params, cb, cb + gap) + cb - params.alpha_B


def _corner_equation(params, g_beta_G):
    """The good type's indifference at the corner, where the bad type never
    conceals (c_B = H.lo), as a function of c_G; increasing. ``params`` and
    g_beta_G = G(beta_G) may be a block and a column, as for
    ``_bad_type_equation``."""
    return lambda cg: _p_nn(params, params.H.lo, cg) + cg - g_beta_G


@dataclass(frozen=True)
class _SevereScan:
    """What the scan step of a severe solve finds: the points where f_B is 0
    and the cells that each hold one root of it, on the scan of [H.lo,
    alpha_B], and whether the corner is consistent, so that its c_G is
    solved on [H.lo, G(beta_G)]."""

    params: ModelParams
    g_beta_G: float
    gap: float
    zeros: list[float]
    cells: list[tuple[float, float]]
    corner: bool


def _severe_scan(params: ModelParams, report: model.AssumptionReport) -> _SevereScan:
    """The first step of ``solve_severe``, for params whose severe check gave
    ``report``."""
    model.require(report, report.failed_clauses(), "severe-conflict assumption")
    c_lo = params.H.lo
    g_beta_G = params.G.cdf(params.beta_G)
    gap = g_beta_G - params.alpha_B
    if gap <= 0.0:
        raise SolverError(f"threshold gap G(beta_G) - alpha_B = {gap} not positive")
    f_B = _bad_type_equation(params, gap)
    zeros: list[float] = []
    cells: list[tuple[float, float]] = []
    if params.alpha_B > c_lo:
        zeros, cells = _scan_cells(f_B, _scan_points(params, gap))
    corner = params.alpha_B <= c_lo or f_B(c_lo) >= 0.0
    return _SevereScan(params, g_beta_G, gap, zeros, cells, corner)


def solve_severe(params: ModelParams, tol: float = DEFAULT_TOL) -> SevereEquilibrium:
    """Solve the severe-conflict equilibrium thresholds (c_tilde_B, c_tilde_G)."""
    validate_tol(tol)
    scan = _severe_scan(params, model.check_assumption("severe", params))
    f_B = _bad_type_equation(params, scan.gap)
    roots = [find_root(f_B, a, b) for a, b in scan.cells]
    if scan.corner:
        f_G = _corner_equation(params, scan.g_beta_G)
        roots.append(find_root(f_G, params.H.lo, scan.g_beta_G))
    return _severe_build(scan, *roots, tol=tol)


def _severe_build(scan: _SevereScan, *roots: float, tol: float = DEFAULT_TOL) -> SevereEquilibrium:
    """The last step of ``solve_severe``: the equilibrium from find_root's
    ``roots``, one in each of the scan's cells and then, if the corner is
    consistent, the corner's c_G, with every fixed point certified at tol."""
    params, g_beta_G, gap = scan.params, scan.g_beta_G, scan.gap
    c_lo = params.H.lo
    found = _distinct(scan.zeros + list(roots[: len(scan.cells)]))
    interior_roots = [r for r in found if r > c_lo + 1e-12]

    candidates: list[tuple[float, float, bool]] = []
    if scan.corner:
        f_G = _corner_equation(params, g_beta_G)
        corner_root, _ = _certify(f_G, roots[-1], c_lo, g_beta_G, tol, "severe corner")
        candidates.append((c_lo, corner_root, True))
    candidates.extend((r, r + gap, False) for r in interior_roots)
    if not candidates:
        raise SolverError("no severe-conflict fixed point found on the bracket")
    candidates.sort(key=lambda t: (t[0], t[1]))
    cb, cg, corner = candidates[0]

    note: list[dict] = []
    for ob, og, ocorner in candidates[1:]:
        note.append(
            {
                "c_tilde_B": ob,
                "c_tilde_G": og,
                "residual": _fixed_point_residual(params, c_lo, g_beta_G, ob, og),
                "source": "corner" if ocorner else "interior-scan",
            }
        )

    mu_NN = posterior_nn_severe(cb, cg, params)
    p_NN = model.protest_prob(mu_NN, params)
    mu_R = Belief(1.0, 0.0, 0.0)
    p_R = model.protest_prob(mu_R, params)
    p_prior = model.protest_prob(model.prior(params), params)

    residual_G = abs(g_beta_G - p_NN - cg)
    if corner:
        slack_B = params.alpha_B - p_NN - cb  # must be <= 0: conceding dominates
        residual_B = max(slack_B, 0.0)
    else:
        residual_B = abs(params.alpha_B - p_NN - cb)
    if residual_G > tol or residual_B > tol:
        raise SolverError(
            f"severe indifference residuals ({residual_B:.3e}, {residual_G:.3e}) exceed tol"
        )
    if not cb < cg:
        raise SolverError(f"thresholds out of order: c_tilde_B={cb} >= c_tilde_G={cg}")
    if not (corner or abs((cg - cb) - gap) <= 10.0 * tol):
        raise SolverError(f"interior gap identity violated: {cg - cb} != {gap}")
    D = p_prior - p_R
    if D >= 0.0:
        raise SolverError(f"severe-conflict effect must be a backlash, got D={D}")

    return SevereEquilibrium(
        c_tilde_B=cb,
        c_tilde_G=cg,
        corner=corner,
        mu_R=mu_R,
        mu_NN=mu_NN,
        p_R=p_R,
        p_NN=p_NN,
        p_prior=p_prior,
        D=D,
        multiplicity_note=tuple(note),
        residual_B=residual_B,
        residual_G=residual_G,
    )
