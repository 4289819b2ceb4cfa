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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model, solver_mild
from .errors import DomainError, SolverError
from .model import Belief, ModelParams
from .rootfind import find_root
from .solver_mild import (
    DEFAULT_TOL,
    MildEquilibrium,
    NoConcessionEquilibrium,
    RepressionProbabilities,
    _certified_root,
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


def _scan_roots_1d(f, xs: np.ndarray) -> list[float]:
    """All sign-change roots of a vectorized f from a scan on the sorted points xs."""
    vals = np.asarray(f(xs), dtype=float)
    roots = xs[vals == 0.0].tolist()
    # a cell is refined when its ends differ in sign and its left end is no root
    neg = vals < 0.0
    for i in np.flatnonzero((neg[:-1] != neg[1:]) & (vals[:-1] != 0.0)):
        roots.append(find_root(f, float(xs[i]), float(xs[i + 1])))
    # dedupe near-coincident roots from adjacent cells
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


def solve_severe(params: ModelParams, tol: float = DEFAULT_TOL) -> SevereEquilibrium:
    """Solve the severe-conflict equilibrium thresholds (c_tilde_B, c_tilde_G)."""
    validate_tol(tol)
    report = model.check_assumption("severe", params)
    model.require(report, report.failed_clauses(), "severe-conflict assumption")
    c_lo = params.H.lo
    g_beta_G = params.G.cdf(params.beta_G)
    gap = g_beta_G - params.alpha_B
    if gap <= 0.0:
        raise SolverError(f"threshold gap G(beta_G) - alpha_B = {gap} not positive")

    # interior branch: c_G = c_B + gap substituted into the bad-type indifference
    f_B = lambda cb: _p_nn(params, cb, cb + gap) + cb - params.alpha_B
    interior_roots: list[float] = []
    if params.alpha_B > c_lo:
        roots = _scan_roots_1d(f_B, _scan_points(params, gap))
        interior_roots = [r for r in roots if r > c_lo + 1e-12]

    corner_consistent = params.alpha_B <= c_lo or f_B(c_lo) >= 0.0
    corner_root = None
    if corner_consistent:
        # bad type never conceals: H mass at c_lo is zero
        f_G = lambda cg: _p_nn(params, c_lo, cg) + cg - g_beta_G
        corner_root, _ = _certified_root(f_G, c_lo, g_beta_G, tol, "severe corner")

    candidates: list[tuple[float, float, bool]] = []
    if corner_root is not None:
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
