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

Uniqueness holds for weakly log-convex H; for other shapes the solver
enumerates the fixed points it can find (1-D scan plus a coarse 2-D grid
scan) and returns the one with the smallest c_tilde_B, listing the rest in
``multiplicity_note`` rather than hiding them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .errors import AssumptionError, DomainError, SolverError
from .model import Belief, ModelParams
from .rootfind import find_root
from .solver_mild import RepressionProbabilities

DEFAULT_TOL = 1e-10
DEFAULT_SCAN = 400
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


def severe_repression_probabilities(eq: "SevereEquilibrium", params: ModelParams):
    """Repression/concession probabilities conditional on an organized activist."""
    q = params.q
    h_G = params.H.cdf(eq.c_tilde_G)
    h_B = params.H.cdf(eq.c_tilde_B)
    revealed = q * (1.0 - h_G)
    concealed = q * h_G + (1.0 - q) * h_B
    return RepressionProbabilities(
        prob_revealed_given_G=1.0 - h_G,
        prob_revealed_given_B=0.0,
        prob_revealed=revealed,
        prob_concealed=concealed,
        prob_total=revealed + concealed,
        prob_concession=(1.0 - q) * (1.0 - h_B),
    )


def effect_D_severe(params: ModelParams) -> float:
    """Effect of revealed repression under severe conflict: always a backlash.

    D = G(gamma*beta_e) - G(beta_G) < 0 whenever the severe-conflict check
    passes; the solve is not needed for this quantity.
    """
    report = model.check_assumption_severe(params)
    if not report.ok:
        raise AssumptionError(
            f"severe-conflict assumption failed: {report.failed_clauses()}", report
        )
    return params.G.cdf(params.gamma * model.beta_e(params)) - params.G.cdf(params.beta_G)


def _scan_roots_1d(f, lo: float, hi: float, n: int) -> list[float]:
    """All sign-change roots of a vectorized f on [lo, hi] from an n-point scan."""
    xs = np.linspace(lo, hi, n)
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


def _grid_scan_fixed_points(
    params: ModelParams, scan: int, tol: float, known: list[tuple[float, float]]
) -> list[dict]:
    """Coarse 2-D residual scan of the clamped threshold map.

    Local minima of the fixed-point residual are refined by damped
    iteration; converged points not matching ``known`` are reported.
    Diagnostic only: failure to converge just drops the candidate.
    """
    c_lo = params.H.lo
    g_beta_G = params.G.cdf(params.beta_G)
    b_grid = np.linspace(c_lo, params.alpha_B, scan)
    g_grid = np.linspace(c_lo, g_beta_G, scan)
    BB, GG = np.meshgrid(b_grid, g_grid, indexing="ij")
    p_nn = _p_nn(params, BB, GG)
    t_B = np.maximum(params.alpha_B - p_nn, c_lo)
    t_G = np.maximum(g_beta_G - p_nn, c_lo)
    res = np.maximum(np.abs(t_B - BB), np.abs(t_G - GG))

    cell = float(np.hypot(b_grid[1] - b_grid[0], g_grid[1] - g_grid[0]))
    mask = res < 4.0 * cell
    # keep only local minima to avoid refining every cell near a solution
    interior = np.zeros_like(mask)
    r = res
    interior[1:-1, 1:-1] = (
        mask[1:-1, 1:-1]
        & (r[1:-1, 1:-1] <= r[:-2, 1:-1])
        & (r[1:-1, 1:-1] <= r[2:, 1:-1])
        & (r[1:-1, 1:-1] <= r[1:-1, :-2])
        & (r[1:-1, 1:-1] <= r[1:-1, 2:])
    )
    found: list[dict] = []
    for i, j in zip(*np.nonzero(interior)):
        cb, cg = float(BB[i, j]), float(GG[i, j])
        for _ in range(300):
            p = float(_p_nn(params, cb, cg))
            nb = max(params.alpha_B - p, c_lo)
            ng = max(g_beta_G - p, c_lo)
            if max(abs(nb - cb), abs(ng - cg)) < 1e-13:
                break
            cb, cg = 0.5 * (cb + nb), 0.5 * (cg + ng)
        p = float(_p_nn(params, cb, cg))
        resid = max(abs(max(params.alpha_B - p, c_lo) - cb), abs(max(g_beta_G - p, c_lo) - cg))
        if resid > max(tol, 1e-10):
            continue
        if any(abs(cb - kb) < 1e-6 and abs(cg - kg) < 1e-6 for kb, kg in known):
            continue
        if any(
            abs(cb - f["c_tilde_B"]) < 1e-6 and abs(cg - f["c_tilde_G"]) < 1e-6 for f in found
        ):
            continue
        found.append({"c_tilde_B": cb, "c_tilde_G": cg, "residual": resid, "source": "grid-scan"})
    return found


def solve_severe(
    params: ModelParams, tol: float = DEFAULT_TOL, scan: int = DEFAULT_SCAN
) -> SevereEquilibrium:
    """Solve the severe-conflict equilibrium thresholds (c_tilde_B, c_tilde_G).

    ``scan`` is the resolution of the 2-D multiplicity grid scan, at least 2;
    0 skips it.
    """
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    if scan == 1 or scan < 0:
        raise DomainError(f"scan must be 0 (off) or at least 2, got {scan}")
    report = model.check_assumption_severe(params)
    if not report.ok:
        raise AssumptionError(
            f"severe-conflict assumption failed: {report.failed_clauses()}", report
        )
    c_lo = params.H.lo
    g_beta_G = params.G.cdf(params.beta_G)
    gap = g_beta_G - params.alpha_B
    if gap <= 0.0:
        raise SolverError(f"threshold gap G(beta_G) - alpha_B = {gap} not positive")

    # interior branch: c_G = c_B + gap substituted into the bad-type indifference
    f_B = lambda cb: _p_nn(params, cb, cb + gap) + cb - params.alpha_B
    interior_roots: list[float] = []
    if params.alpha_B > c_lo:
        interior_roots = [r for r in _scan_roots_1d(f_B, c_lo, params.alpha_B, _SCAN_1D) if r > c_lo + 1e-12]

    corner_consistent = params.alpha_B <= c_lo or f_B(c_lo) >= 0.0
    corner_root = None
    if corner_consistent:
        # bad type never conceals: H mass at c_lo is zero
        f_G = lambda cg: _p_nn(params, c_lo, cg) + cg - g_beta_G
        corner_root = find_root(f_G, c_lo, g_beta_G)

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
        p = float(_p_nn(params, ob, og))
        res = max(abs(max(params.alpha_B - p, c_lo) - ob), abs(max(g_beta_G - p, c_lo) - og))
        note.append(
            {
                "c_tilde_B": ob,
                "c_tilde_G": og,
                "residual": res,
                "source": "corner" if ocorner else "interior-scan",
            }
        )
    if scan:  # scan 0 disables the multiplicity diagnostics
        note.extend(
            _grid_scan_fixed_points(params, scan, tol, [(b, g) for b, g, _ in candidates])
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
