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
scans f_B on a 2,048-point grid that holds H's kinks, returns the fixed
point with the smallest c_tilde_B and lists the rest in
``multiplicity_note`` rather than hiding them. The scan evaluates f_B only
where a monotone bound on a grid interval cannot decide its sign.

A solve runs in three steps: the scan, the root search in each scan cell
and the certified search on the corner's bracket, and the build of the
fixed points. This module states the scan and the build as column
statements over a ``model._block`` of checked points, each row bit for bit
its point's own, with the bound scans of the whole block run together.
``solver.solve_block`` runs the searches and the corner's certificate
between them, in lockstep, and passes the build only the rows that its scan
leaves live; a single solve is a block of one point. Only what a row holds
apart runs row by row: its cells and roots, its multiplicity note and its
checks, in the scalar order.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import model
from .errors import DomainError, RepgameError, SolverError, attempt
from .model import Belief, ModelParams
from .solver_mild import DEFAULT_TOL

_SCAN_1D = 2048
# the bound scan starts each point from this many index intervals of its grid
_SCAN_START = 8
# An interval is cleared when its lower bound on f_B exceeds _SLACK or its
# upper bound falls below -_SLACK. At an interval's ends no margin is needed:
# each end's own (H(c_G), H(c_B)) is a corner of the box, taken with f_B's
# own IEEE operations, so the bound there is f_B's computed value, up to any
# rounding by which G fails to be monotone between two nearby arguments.
# Inside, the computed f_B strays from the exact bound by rounding alone. The
# posterior mean m, a convex combination of beta_G, beta_B and 0, is computed
# to a few ulps of B = max(|beta_G|, |beta_B|) / (1 - gamma). An H or G that
# is monotone only up to its evaluation error (betainc, np.interp) adds a few
# ulps of H, times m's slope in H (at most 2 B), and a few ulps of G. G's
# slope L carries m's error into G(m), and + c - alpha_B rounds to ulps of 1.
# In all that is about 1e-15 * (1 + L B): under 1e-13 on the sign-law draws
# with a uniform G (B <= 15, L <= 1.25), a tenth of _SLACK. Where L B is
# larger, a point whose sign the margin could get wrong lies within about
# 1e-12 of a root or tangency of f_B, where its computed sign is rounding
# noise in the full-grid scan too.
_SLACK = 1e-12


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
    return Belief.normalized(*_nn_weights(params, c_B, c_G))


def _nn_weights(params, c_B, c_G):
    """The unnormalized no-news posterior (gamma*H(c_G)*q, gamma*H(c_B)*(1-q),
    1-gamma); of a block, each row's, at columns of thresholds."""
    g, q = params.gamma, params.q
    return g * params.H.cdf(c_G) * q, g * params.H.cdf(c_B) * (1.0 - q), 1.0 - g


def _posterior_mean(params, h_G, h_B):
    """The no-news posterior mean of beta when the good and bad types
    conceal with probabilities h_G and h_B: linear-fractional in (h_G, h_B),
    with a positive denominator, so on a box it takes its extremes at the
    corners."""
    g, q = params.gamma, params.q
    num = g * (h_G * q * params.beta_G + h_B * (1.0 - q) * params.beta_B)
    den = g * (h_G * q + h_B * (1.0 - q)) + 1.0 - g
    return num / den


def _p_nn(params: ModelParams, c_B, c_G):
    """Protest probability after no news, vectorized over thresholds."""
    return params.G.cdf(_posterior_mean(params, params.H.cdf(c_G), params.H.cdf(c_B)))


def effect_D_severe(params: ModelParams) -> float:
    """Effect of revealed repression under severe conflict: always a backlash.

    D = G(gamma*beta_e) - G(beta_G) < 0 whenever the severe-conflict check
    passes; the solve is not needed for this quantity.
    """
    model.require_regime("severe", params)
    return params.G.cdf(params.gamma * model.beta_e(params)) - params.G.cdf(params.beta_G)


def _scan_cells(f, xs: np.ndarray) -> tuple[list[float], list[tuple[float, float]]]:
    """(zeros, cells) of a vectorized f scanned on the sorted points xs: the
    points where f is 0, and each cell (a, b) of adjacent points whose ends
    differ in sign and whose left end is no zero, which holds a root."""
    return _scan_rows(f, xs, np.zeros(xs.size, dtype=np.intp), 1)[0]


def _scan_rows(f, xs: np.ndarray, rows: np.ndarray, n: int) -> list:
    """``_scan_cells`` of n scans at once: xs holds each scan's sorted points
    in turn, ``rows`` the scan of each point, f evaluates each point in its
    own scan's parameters, and a cell joins two points of one scan. A list
    of (zeros, cells), one for each scan."""
    vals = np.asarray(f(xs), dtype=float)
    neg = vals < 0.0
    i = np.flatnonzero((rows[:-1] == rows[1:]) & (neg[:-1] != neg[1:]) & (vals[:-1] != 0.0))
    z = np.flatnonzero(vals == 0.0)
    found = [([], []) for _ in range(n)]
    for r, x in zip(rows[z].tolist(), xs[z].tolist()):
        found[r][0].append(x)
    for r, a, b in zip(rows[i].tolist(), xs[i].tolist(), xs[i + 1].tolist()):
        found[r][1].append((a, b))
    return found


def _distinct(roots: list[float]) -> list[float]:
    """The roots in order, a root within 1e-9 of the one before it dropped:
    adjacent cells can find near-coincident roots."""
    out: list[float] = []
    for r in sorted(roots):
        if not out or r - out[-1] > 1e-9:
            out.append(r)
    return out


def _grid(lo, hi, k):
    """Point k of the scan grid on [lo, hi]: np.linspace(lo, hi, _SCAN_1D)[k],
    bit for bit, by linspace's own formula (for a nonzero step), without
    making the grid. lo, hi and k may be columns."""
    return np.where(k == _SCAN_1D - 1, hi, k * ((hi - lo) / (_SCAN_1D - 1)) + lo)


def _kinks(H, gap):
    """Where a piecewise-linear H puts a kink in f_B: its knots x, and x -
    gap, where c_G = c_B + gap reaches a knot. With gap a column of shape
    (n, 1), a row of kinks for each entry."""
    knots = np.array([x for x, _ in H.params])
    return np.concatenate(np.broadcast_arrays(knots, knots - gap), axis=-1)


def _scan_points(params: ModelParams, gap: float) -> np.ndarray:
    """The points of f_B's scan on [H.lo, alpha_B]: the grid, plus the kinks
    inside, where a piecewise-linear H bends f_B. Two roots beside a kink that
    share a grid cell then get cells of their own. The bound scan finds
    ``_scan_cells(f_B, _scan_points(params, gap))`` without evaluating f_B on
    all of these points."""
    lo, hi = params.H.lo, params.alpha_B
    xs = _grid(lo, hi, np.arange(_SCAN_1D))
    if params.H.family != "piecewise_linear":
        return xs
    kinks = _kinks(params.H, gap)
    return np.union1d(xs, kinks[(kinks > lo) & (kinks < hi)])


def _bounds(p, x, h_B, h_G):
    """(lower, upper) bounds on f_B(c) = G(m) + c - alpha_B over each
    interval [x[0], x[1]] of c_B, one on each row of the block p, from H(c_B)
    and H(c_G) at its two ends, the rows of h_B and h_G. H and G are
    nondecreasing, so G(m) lies between G at the least and at the greatest
    posterior mean m over the four corners of the box."""
    m = _posterior_mean(p, h_G[:, None], h_B[None])
    lower = (p.G.cdf(m.min(axis=(0, 1))) + x[0]) - p.alpha_B
    upper = (p.G.cdf(m.max(axis=(0, 1))) + x[1]) - p.alpha_B
    return lower, upper


def _bound_scans(p, gap: np.ndarray) -> list:
    """``_scan_cells(f_B, _scan_points(params, gap))`` of each point of the
    block p, all of whose points have alpha_B > H.lo, with gap its column of
    G(beta_G) - alpha_B, found by a bound scan in lockstep.

    Each point starts from _SCAN_START index intervals of its grid. An
    interval whose ``_bounds`` clear 0 by _SLACK is dropped (interval
    analysis's exclusion test; Moore, Kearfott and Cloud, *Introduction to
    Interval Analysis*, SIAM 2009); the rest are halved by index until each
    is one grid cell. f_B is then evaluated on the ends of the cells left,
    and on the kinks inside them. A maximal run of dropped intervals has one
    strict sign at all of its grid points and kinks, its ends included, so
    no cell that spans it holds a sign change, and it holds no zero.
    """
    n = gap.size
    lo, hi = np.broadcast_to(p.H.lo, n), p.alpha_B

    def h_at(row, k):
        # H at c_B = x_k and at c_G = x_k + gap, each on its point's row
        x, H = _grid(lo[row], hi[row], k), model._rows(p, row, ("H",)).H
        return H.cdf(x), H.cdf(x + gap[row])

    edges = np.append(np.arange(0, _SCAN_1D - 1, -(-(_SCAN_1D - 1) // _SCAN_START)), _SCAN_1D - 1)
    h_B, h_G = (h.reshape(n, -1) for h in h_at(np.repeat(np.arange(n), edges.size), np.tile(edges, n)))
    # the intervals [i, j] of grid indices, each on its point's row, with
    # H(c_B) and H(c_G) at the two ends, as rows (at i, at j)
    row = np.repeat(np.arange(n), edges.size - 1)
    ij = np.stack((np.tile(edges[:-1], n), np.tile(edges[1:], n)))
    hb = np.stack((h_B[:, :-1].ravel(), h_B[:, 1:].ravel()))
    hg = np.stack((h_G[:, :-1].ravel(), h_G[:, 1:].ravel()))
    cell_rows, cell_lefts = [], []
    while row.size:
        q = model._rows(p, row, ("gamma", "q", "beta_G", "beta_B", "alpha_B", "G"))
        lower, upper = _bounds(q, _grid(lo[row], hi[row], ij), hb, hg)
        live = ~((lower > _SLACK) | (upper < -_SLACK))
        width = ij[1] - ij[0]
        cell = live & (width == 1)
        cell_rows.append(row[cell])
        cell_lefts.append(ij[0, cell])
        halve = live & (width > 1)
        row, ij, hb, hg = row[halve], ij[:, halve], hb[:, halve], hg[:, halve]
        if not row.size:
            break
        mid = ij.sum(axis=0) // 2
        hb_mid, hg_mid = h_at(row, mid)
        row = np.concatenate((row, row))
        ij, hb, hg = (
            np.concatenate(((end[0], at_mid), (at_mid, end[1])), axis=1)
            for end, at_mid in ((ij, mid), (hb, hb_mid), (hg, hg_mid))
        )

    row, left = np.concatenate(cell_rows), np.concatenate(cell_lefts)
    if not row.size:
        return [([], []) for _ in range(n)]
    kinked = getattr(p.H, "family", None) == "piecewise_linear"
    if kinked:
        kinks = _kinks(p.H, gap[row, None])
        a, b = _grid(lo[row], hi[row], np.stack((left, left + 1)))
        inside = (a[:, None] < kinks) & (kinks < b[:, None])
        kink_rows, kinks = np.broadcast_to(row[:, None], kinks.shape)[inside], kinks[inside]
    # each cell's ends once, in order of point and index (np.unique would
    # import numpy.ma)
    key = np.sort(np.concatenate((row * _SCAN_1D + left, row * _SCAN_1D + left + 1)))
    row, k = np.divmod(key[np.append(True, key[1:] != key[:-1])], _SCAN_1D)
    xs = _grid(lo[row], hi[row], k)
    if kinked:
        # the kinks merged in by value, a repeated point once, as np.union1d
        row, xs = np.concatenate((row, kink_rows)), np.concatenate((xs, kinks))
        order = np.lexsort((xs, row))
        row, xs = row[order], xs[order]
        new = np.ones(xs.size, dtype=bool)
        new[1:] = (row[1:] != row[:-1]) | (xs[1:] != xs[:-1])
        row, xs = row[new], xs[new]
    return _scan_rows(_bad_type_equation(model._rows(p, row), gap[row]), xs, row, n)


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


class _SevereScan(NamedTuple):
    """What the scan step of a severe solve finds on a point: G(beta_G), the
    gap G(beta_G) - alpha_B, the points where f_B is 0 and the cells that
    each hold one root of it, on the scan of [H.lo, alpha_B], and whether the
    corner is consistent, so that its c_G is solved on [H.lo, G(beta_G)]."""

    g_beta_G: float
    gap: float
    zeros: list
    cells: list
    corner: bool


def _severe_scans(p) -> list:
    """The scan step of a severe solve on each row of the ``model._block`` p
    of checked points: its _SevereScan, or the SolverError of a gap that is
    not positive. G(beta_G), the gap and the corner test are column
    statements, each row bit for bit its point's own, and one
    ``_bound_scans`` call finds the zeros and cells of the rows that scan."""
    g_beta_G = p.G.cdf(p.beta_G)
    gap = g_beta_G - p.alpha_B
    c_lo = np.broadcast_to(p.H.lo, gap.shape)
    corner = (p.alpha_B <= c_lo) | (_bad_type_equation(p, gap)(c_lo) >= 0.0)
    failed = gap <= 0.0
    scans = ~failed & (p.alpha_B > c_lo)
    rows = np.flatnonzero(scans)
    found = iter(_bound_scans(model._rows(p, rows), gap[rows]) if rows.size else ())
    out = []
    for g, d, bad, scanned, c in zip(*(v.tolist() for v in (g_beta_G, gap, failed, scans, corner))):
        if bad:
            out.append(SolverError(f"threshold gap G(beta_G) - alpha_B = {d} not positive"))
        else:
            out.append(_SevereScan(g, d, *(next(found) if scanned else ([], [])), c))
    return out


def solve_severe(params: ModelParams, tol: float = DEFAULT_TOL) -> SevereEquilibrium:
    """Solve the severe-conflict equilibrium thresholds (c_tilde_B, c_tilde_G):
    ``solve_block`` on a block of one point."""
    from .solver import solve_one  # the solve path imports this module

    return solve_one("severe", params, tol)


# revealed repression identifies the good type
_MU_R = Belief(1.0, 0.0, 0.0)
# one row of severe_equilibrium's columns: the floats that its checks and its
# equilibrium read
_Row = namedtuple("_Row", "nn_G nn_B nn_N p_NN p_R p_prior residual_B residual_G")


def severe_equilibrium(p, points: list, scans: list, roots: list, corners: list, tol: float) -> list:
    """The equilibrium of each row of the ``model._block`` p of ``points``,
    from its ``_SevereScan`` of ``scans``, its list of find_root's
    ``roots``, one in each of the scan's cells, and its entry of
    ``corners``: if the corner is consistent and no cell's root is an
    error, the corner's c_G and its residual as ``solver._certify_roots``
    gives them, else None. The last step of a severe solve: a row one of
    whose roots or whose corner is a RepgameError keeps the first of them.

    Each row takes the fixed point with the smallest (c_B, c_G) among the
    corner and its distinct interior roots, and lists the others in its
    ``multiplicity_note``. The no-news posterior, the protest probabilities
    and the residuals are built in columns, and each row's checks run on its
    own floats: a row is its SevereEquilibrium, or the first error of these
    checks in this order.
    """
    found = [next((a for a in (*r, c) if isinstance(a, RepgameError)), None) for r, c in zip(roots, corners)]
    picked = [e or attempt(_fixed_point, *row) for e, row in zip(found, zip(points, scans, roots, corners))]

    def build(p, picked: list, scans: list) -> list:
        c_B, c_G, corner, _ = zip(*picked)
        g_beta_G = np.array([s.g_beta_G for s in scans])
        columns = _equilibrium_columns(p, *map(np.array, (c_B, c_G, corner)), g_beta_G)
        rows = zip(picked, scans, zip(*(v.tolist() for v in columns)))
        return [attempt(_equilibrium, *f, s.gap, _Row._make(r), tol) for f, s, r in rows]

    return model._live_rows(build, p, picked, picked, scans)


def _fixed_point(params: ModelParams, scan: _SevereScan, roots: list, corner) -> tuple:
    """(c_B, c_G, corner, multiplicity_note) of the fixed point with the
    smallest (c_B, c_G) among the corner, at its certified (c_G, residual)
    ``corner``, and the distinct interior roots of the scan's zeros and its
    cells' ``roots``, with an entry in the note for each of the others."""
    c_lo = params.H.lo
    found = _distinct(scan.zeros + roots)
    candidates = [(c_lo, corner[0], True)] if scan.corner else []
    candidates += [(r, r + scan.gap, False) for r in found if r > c_lo + 1e-12]
    if not candidates:
        raise SolverError("no severe-conflict fixed point found on the bracket")
    candidates.sort(key=lambda t: (t[0], t[1]))
    note = tuple(
        {
            "c_tilde_B": ob,
            "c_tilde_G": og,
            "residual": _fixed_point_residual(params, c_lo, scan.g_beta_G, ob, og),
            "source": "corner" if ocorner else "interior-scan",
        }
        for ob, og, ocorner in candidates[1:]
    )
    return (*candidates[0], note)


def _equilibrium_columns(p, c_B, c_G, corner, g_beta_G) -> tuple:
    """The columns of ``_Row``, of the block p at the fixed points (c_B,
    c_G), with ``corner`` and G(beta_G) columns beside them: each the scalar
    build's IEEE operations, elementwise."""
    w_G, w_B, w_N = _nn_weights(p, c_B, c_G)
    total = w_G + w_B + w_N
    mu_NN = SimpleNamespace(mu_G=w_G / total, mu_B=w_B / total, mu_N=w_N / total)
    p_NN, p_R, p_prior = (model.protest_prob(mu, p) for mu in (mu_NN, _MU_R, model.prior(p)))
    residual_G = np.abs(g_beta_G - p_NN - c_G)
    # at the corner the bad type's slack must be <= 0: conceding dominates;
    # np.where, not np.maximum, keeps max(slack, 0.0)'s signed zero
    slack_B = p.alpha_B - p_NN - c_B
    residual_B = np.where(corner, np.where(0.0 > slack_B, 0.0, slack_B), np.abs(slack_B))
    return (*vars(mu_NN).values(), p_NN, p_R, p_prior, residual_B, residual_G)


def _equilibrium(cb: float, cg: float, corner: bool, note: tuple, gap: float, r: _Row, tol: float):
    """The SevereEquilibrium at the fixed point (cb, cg) from the row r of
    ``severe_equilibrium``'s columns, or the first error of its checks."""
    if cb > cg:  # posterior_nn_severe's check
        raise DomainError(f"need c_B <= c_G, got {cb} > {cg}")
    # Belief.normalized's positive-total check passes: the weight 1 - gamma is positive
    mu_NN = Belief(r.nn_G, r.nn_B, r.nn_N)
    if r.residual_G > tol or r.residual_B > tol:
        raise SolverError(
            f"severe indifference residuals ({r.residual_B:.3e}, {r.residual_G:.3e}) exceed tol"
        )
    if not cb < cg:
        raise SolverError(f"thresholds out of order: c_tilde_B={cb} >= c_tilde_G={cg}")
    if not (corner or abs((cg - cb) - gap) <= 10.0 * tol):
        raise SolverError(f"interior gap identity violated: {cg - cb} != {gap}")
    D = r.p_prior - r.p_R
    if D >= 0.0:
        raise SolverError(f"severe-conflict effect must be a backlash, got D={D}")
    return SevereEquilibrium(
        c_tilde_B=cb,
        c_tilde_G=cg,
        corner=corner,
        mu_R=_MU_R,
        mu_NN=mu_NN,
        p_R=r.p_R,
        p_NN=r.p_NN,
        p_prior=r.p_prior,
        D=D,
        multiplicity_note=note,
        residual_B=r.residual_B,
        residual_G=r.residual_G,
    )
