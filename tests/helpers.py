"""Shared builders and independent oracles for the test suite.

The oracles here assemble the equilibrium equations from scratch (plain
bisection, quadratic closed forms, brute-force grids) so they stay
independent of the solver paths they certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repgame import (
    Belief,
    BoundedCDF,
    DomainError,
    EmptySweepError,
    MildEquilibrium,
    ModelParams,
    NoConcessionEquilibrium,
    RegretReport,
    RepgameError,
    SevereEquilibrium,
    SolverError,
    model,
    solver,
    solver_mild,
    solver_severe,
)
from repgame.cli import format_float
from repgame.rootfind import find_root
from repgame.simulate import ACTIONS, OBSERVATIONS, THETAS
from repgame.solver import bound_D_lower, repression_probabilities, solve, strategy
from repgame.sweep import COLUMNS, SweepRow, SweepSpec, apply_axis


def make_p1(**overrides) -> ModelParams:
    """Mild-conflict benchmark: gamma=0.4, q=0.65, beta=(2.5, -1), alpha=(0.6, 0.7)."""
    base = dict(
        gamma=0.4,
        q=0.65,
        beta_G=2.5,
        beta_B=-1.0,
        alpha_G=0.6,
        alpha_B=0.7,
        G=BoundedCDF.uniform(0.0, 1.0),
        H=BoundedCDF.uniform(0.0, 1.0),
    )
    base.update(overrides)
    return ModelParams(**base)


def make_p2(**overrides) -> ModelParams:
    """Severe-conflict benchmark: gamma=0.4, q=0.5, beta=(0.9, 0.1), alpha=(0.95, 0.4)."""
    base = dict(
        gamma=0.4,
        q=0.5,
        beta_G=0.9,
        beta_B=0.1,
        alpha_G=0.95,
        alpha_B=0.4,
        G=BoundedCDF.uniform(0.0, 1.0),
        H=BoundedCDF.uniform(0.0, 1.0),
    )
    base.update(overrides)
    return ModelParams(**base)


def bisect(f, lo: float, hi: float, iters: int = 200) -> float:
    """Plain bisection, no secant refinement: the independent root oracle."""
    fa, fb = f(lo), f(hi)
    assert fa * fb <= 0.0, f"oracle bracket has no sign change: {fa}, {fb}"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fb > 0.0):
            hi, fb = mid, fm
        else:
            lo, fa = mid, fm
    return 0.5 * (lo + hi)


def mild_threshold_equation(params: ModelParams):
    """Residual of the concealment-threshold equation, assembled here."""
    be = params.q * params.beta_G + (1.0 - params.q) * params.beta_B

    def residual(c: float) -> float:
        h = params.H.cdf(c)
        gp = params.gamma * h / (params.gamma * h + 1.0 - params.gamma)
        return params.G.cdf(gp * be) - (params.alpha_G - c)

    return residual


def no_concession_equation(params: ModelParams):
    be = params.q * params.beta_G + (1.0 - params.q) * params.beta_B
    g_at_be = params.G.cdf(be)

    def residual(c: float) -> float:
        h = params.H.cdf(c)
        gp = params.gamma * h / (params.gamma * h + 1.0 - params.gamma)
        return c - (g_at_be - params.G.cdf(gp * be))

    return residual


def quad_root_positive(a: float, b: float, c: float) -> float:
    """Positive root of a*x^2 + b*x + c = 0."""
    disc = b * b - 4.0 * a * c
    assert disc >= 0.0
    return (-b + math.sqrt(disc)) / (2.0 * a)


def severe_indifference_residuals(params: ModelParams, c_B, c_G):
    """Residual pair of the severe two-threshold system, assembled here."""
    g, q = params.gamma, params.q
    h_G = params.H.cdf(c_G)
    h_B = params.H.cdf(c_B)
    num = g * (h_G * q * params.beta_G + h_B * (1.0 - q) * params.beta_B)
    den = g * (h_G * q + h_B * (1.0 - q)) + 1.0 - g
    p_nn = params.G.cdf(num / den)
    r_B = params.alpha_B - p_nn - c_B
    r_G = params.G.cdf(params.beta_G) - p_nn - c_G
    return r_B, r_G


def severe_interior_roots(params: ModelParams, n: int = 20_001) -> np.ndarray:
    """Sign changes of the bad-type residual on the interior line c_G = c_B + gap,
    from an n-point grid on [H.lo, alpha_B], each bisected to float resolution."""
    gap = params.G.cdf(params.beta_G) - params.alpha_B
    r_B = lambda c_B: severe_indifference_residuals(params, c_B, c_B + gap)[0]
    xs = np.linspace(params.H.lo, params.alpha_B, n)
    neg = r_B(xs) < 0.0
    flip = np.flatnonzero(neg[:-1] != neg[1:])
    lo, hi, lo_neg = xs[flip], xs[flip + 1], neg[flip]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        left = (r_B(mid) < 0.0) == lo_neg  # the sign change lies right of mid
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    return 0.5 * (lo + hi)


def reference_severe_scan(params: ModelParams, gap: float) -> tuple[list, list]:
    """(zeros, cells) of the bad-type residual f_B evaluated at every point of
    the severe scan, its 2,048-point grid and H's kinks: the full-grid
    oracle for the bound scan of ``repgame.solver_severe``."""
    f_B = solver_severe._bad_type_equation(params, gap)
    return solver_severe._scan_cells(f_B, solver_severe._scan_points(params, gap))


def reference_severe_scan_step(params: ModelParams):
    """The scan step of a severe solve of one checked point in Python floats,
    its zeros and cells from the full-grid scan: the reference for the
    column step ``solver_severe._severe_scans``."""
    g_beta_G = params.G.cdf(params.beta_G)
    gap = g_beta_G - params.alpha_B
    if gap <= 0.0:
        raise SolverError(f"threshold gap G(beta_G) - alpha_B = {gap} not positive")
    c_lo = params.H.lo
    corner = params.alpha_B <= c_lo or solver_severe._bad_type_equation(params, gap)(c_lo) >= 0.0
    zeros, cells = reference_severe_scan(params, gap) if params.alpha_B > c_lo else ([], [])
    return solver_severe._SevereScan(g_beta_G, gap, zeros, cells, corner)


def reference_severe_roots(params: ModelParams, scan) -> list:
    """find_root's root in each of the scan's cells and then, if the corner
    is consistent, the corner's c_G on [H.lo, G(beta_G)]."""
    roots = [find_root(solver_severe._bad_type_equation(params, scan.gap), *cell) for cell in scan.cells]
    if scan.corner:
        f_G = solver_severe._corner_equation(params, scan.g_beta_G)
        roots.append(find_root(f_G, params.H.lo, scan.g_beta_G))
    return roots


def reference_severe_build(params: ModelParams, scan, *roots: float, tol: float) -> SevereEquilibrium:
    """The severe equilibrium from the scan and ``roots``, one in each of the
    scan's cells and then, if the corner is consistent, the corner's c_G,
    built and checked point by point in Python floats, its checks in the
    solver's order: the reference for the column step
    ``solver_severe.severe_equilibrium``."""
    g_beta_G, gap = scan.g_beta_G, scan.gap
    c_lo = params.H.lo
    found = solver_severe._distinct(scan.zeros + list(roots[: len(scan.cells)]))
    interior_roots = [r for r in found if r > c_lo + 1e-12]

    candidates: list[tuple[float, float, bool]] = []
    if scan.corner:
        f_G = solver_severe._corner_equation(params, g_beta_G)
        corner_root, _ = solver._certify(f_G, roots[-1], c_lo, g_beta_G, tol, "severe corner")
        candidates.append((c_lo, corner_root, True))
    candidates.extend((r, r + gap, False) for r in interior_roots)
    if not candidates:
        raise SolverError("no severe-conflict fixed point found on the bracket")
    candidates.sort(key=lambda t: (t[0], t[1]))
    cb, cg, corner = candidates[0]

    note = []
    for ob, og, ocorner in candidates[1:]:
        residual = solver_severe._fixed_point_residual(params, c_lo, g_beta_G, ob, og)
        note.append(
            {
                "c_tilde_B": ob,
                "c_tilde_G": og,
                "residual": residual,
                "source": "corner" if ocorner else "interior-scan",
            }
        )

    # posterior_nn_severe, written out
    if cb > cg:
        raise DomainError(f"need c_B <= c_G, got {cb} > {cg}")
    g, q = params.gamma, params.q
    mu_NN = Belief.normalized(g * params.H.cdf(cg) * q, g * params.H.cdf(cb) * (1.0 - q), 1.0 - g)
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
        raise SolverError(f"severe indifference residuals ({residual_B:.3e}, {residual_G:.3e}) exceed tol")
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


def reference_solve_severe(params: ModelParams, tol: float = solver_mild.DEFAULT_TOL) -> SevereEquilibrium:
    """A checked severe solve of one point through the point-by-point
    references and ``find_root``."""
    model.require_regime("severe", params)
    scan = reference_severe_scan_step(params)
    return reference_severe_build(params, scan, *reference_severe_roots(params, scan), tol=tol)


def severe_grid_argmin(params: ModelParams, n: int = 1500) -> tuple[float, float, float]:
    """Brute 2-D scan oracle: argmin of the residual norm over the threshold box."""
    c_B = np.linspace(params.H.lo, params.alpha_B, n)
    c_G = np.linspace(params.H.lo, params.G.cdf(params.beta_G), n)
    BB, GG = np.meshgrid(c_B, c_G, indexing="ij")
    r_B, r_G = severe_indifference_residuals(params, BB, GG)
    norm = np.hypot(r_B, r_G)
    i, j = np.unravel_index(np.argmin(norm), norm.shape)
    return float(BB[i, j]), float(GG[i, j]), float(norm[i, j])


def severe_grid_zoom_oracle(params: ModelParams, rounds: int = 4, n: int = 400):
    """Grid fixed-point oracle refined by argmin zooming, resolution < 1e-6."""
    b_lo, b_hi = params.H.lo, params.alpha_B
    g_lo, g_hi = params.H.lo, params.G.cdf(params.beta_G)
    cb = cg = None
    for _ in range(rounds):
        c_B = np.linspace(b_lo, b_hi, n)
        c_G = np.linspace(g_lo, g_hi, n)
        BB, GG = np.meshgrid(c_B, c_G, indexing="ij")
        r_B, r_G = severe_indifference_residuals(params, BB, GG)
        i, j = np.unravel_index(np.argmin(np.hypot(r_B, r_G)), BB.shape)
        cb, cg = float(BB[i, j]), float(GG[i, j])
        db, dg = (b_hi - b_lo) / (n - 1), (g_hi - g_lo) / (n - 1)
        b_lo, b_hi = cb - 2 * db, cb + 2 * db
        g_lo, g_hi = cg - 2 * dg, cg + 2 * dg
    return cb, cg


def ks_distance(dist: BoundedCDF, samples: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between the empirical CDF and dist."""
    xs = np.sort(samples)
    n = xs.size
    cdf = dist.cdf(xs)
    upper = np.max(np.abs(np.arange(1, n + 1) / n - cdf))
    lower = np.max(np.abs(np.arange(0, n) / n - cdf))
    return float(max(upper, lower))


@dataclass(frozen=True)
class EpisodeRecord:
    theta: str
    c: float | None
    rho: float
    action: str
    observation: str
    protested: bool
    success: bool


def regime_action(theta: str, c: float, eq, u: float) -> str:
    """Action of a type-(theta, c) regime under a solved equilibrium; u
    drives the mild reveal mix.

    The knife edge c equal to the cutoff is assigned to conceal
    (measure-zero and payoff-equivalent).
    """
    if theta == "N":
        raise DomainError("an unorganized activist leaves the regime no move")
    if theta not in ("G", "B"):
        raise DomainError(f"unknown activist type {theta!r}")
    if isinstance(eq, MildEquilibrium):
        if c <= eq.c_tilde:
            return "conceal"
        if theta == "B":
            return "reveal"
        return "reveal" if u < eq.kappa else "concede"
    if isinstance(eq, SevereEquilibrium):
        if theta == "B":
            return "conceal" if c <= eq.c_tilde_B else "concede"
        return "conceal" if c <= eq.c_tilde_G else "reveal"
    if isinstance(eq, NoConcessionEquilibrium):
        return "conceal" if c <= eq.c_tilde else "reveal"
    raise DomainError(f"not a solved equilibrium: {type(eq).__name__}")


def public_action(observation: str, rho: float, eq, params: ModelParams) -> bool:
    """Protest decision: cost below the cutoff at the equilibrium posterior
    of the observation."""
    if observation == "concession":
        return False
    if observation == "R":
        return rho <= model.rho_tilde(eq.mu_R, params)
    if observation == "NN":
        return rho <= model.rho_tilde(eq.mu_NN, params)
    raise DomainError(f"unknown observation {observation!r}")


def play_episode(
    params: ModelParams,
    eq,
    theta: str,
    c: float | None,
    rho: float,
    u_mix: float = 0.0,
) -> EpisodeRecord:
    """One episode from already-drawn primitives, decided branch by branch:
    the scalar reference for ``repgame.simulate.simulate_arrays``."""
    if theta == "N":
        action, observation = "none", "NN"
    else:
        action = regime_action(theta, c, eq, u_mix)
        observation = {"reveal": "R", "conceal": "NN", "concede": "concession"}[action]
    protested = public_action(observation, rho, eq, params)
    success = protested and theta != "N" and action != "concede"
    return EpisodeRecord(theta, c if theta != "N" else None, rho, action, observation, protested, success)


def reference_frequencies(counts: dict) -> dict:
    """SimStats frequencies and errors of outcome counts keyed like OUTCOMES,
    found by splitting and testing each key in turn: the reference for the
    index masks of ``repgame.simulate.SimStats.from_binned``."""

    def total(*tests) -> int:
        return sum(n for key, n in counts.items() if all(t(key.split(",")) for t in tests))

    def organized(fields):
        return fields[0] != "N"

    def good(fields):
        return fields[0] == "G"

    def revealed(fields):
        return fields[2] == "R"

    def no_news(fields):
        return fields[2] == "NN"

    def protested(fields):
        return fields[3] == "true"

    frequencies = {}
    for name, event, within in (
        ("p_hat_revealed", revealed, organized),
        ("p_hat_R", protested, revealed),
        ("p_hat_NN", protested, no_news),
        ("q_hat", good, organized),
        ("q_hat_prime", good, revealed),
    ):
        den = total(within)
        p = total(event, within) / den if den else None
        frequencies[name] = p
        frequencies[f"se_{name}"] = None if p is None else float(np.sqrt(p * (1.0 - p) / den))
    return frequencies


def reference_episodes_csv(arrays: dict) -> str:
    """Episode CSV of ``simulate_arrays`` output, encoded row by row with
    ``format_float`` on each float: the reference for the block encoder of
    ``repgame simulate --episodes-out``."""
    columns = ("theta", "c", "rho", "action", "observation", "protested", "success")
    rows = [",".join(columns) + "\n"]
    for th, c, rho, ac, ob, pr, su in zip(*(arrays[k].tolist() for k in columns)):
        # theta code 2 is N, an unorganized activist, whose cost c is left blank
        rows.append(
            f"{THETAS[th]},{'' if th == 2 else format_float(c)},{format_float(rho)},"
            f"{ACTIONS[ac]},{OBSERVATIONS[ob]},{'true' if pr else 'false'},"
            f"{'true' if su else 'false'}\n"
        )
    return "".join(rows)


def _reference_cost_dist(rng: np.random.Generator, lo_max: float, w_lo: float, w_hi: float) -> BoundedCDF:
    lo = rng.uniform(0.0, lo_max)
    width = rng.uniform(w_lo, w_hi)
    if rng.random() < 0.3:
        return BoundedCDF.scaled_beta(lo, lo + width, rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0))
    return BoundedCDF.uniform(lo, lo + width)


def reference_draw_params(rng: np.random.Generator, regime: str) -> ModelParams | None:
    """Sign-law proposal that builds every draw with ``Generator.uniform`` and
    runs the full assumption check on it: the reference for the prefiltered
    ``repgame.verify.draw_params``."""
    if regime == "mild":
        beta_G = rng.uniform(0.3, 3.0)
        beta_B = rng.uniform(-1.5, 0.8)
        g_dist = _reference_cost_dist(rng, 0.3, 0.4, 1.6)
    else:
        beta_G = rng.uniform(0.2, 1.2)
        beta_B = rng.uniform(-1.0, 0.6)
        g_dist = _reference_cost_dist(rng, 0.2, 0.8, 1.8)
    try:
        params = ModelParams(
            gamma=rng.uniform(0.1, 0.9),
            q=rng.uniform(0.1, 0.9),
            beta_G=beta_G,
            beta_B=beta_B,
            alpha_G=rng.uniform(0.02, 0.98),
            alpha_B=rng.uniform(0.02, 0.98),
            G=g_dist,
            H=_reference_cost_dist(rng, 0.5, 0.3, 1.5),
        )
    except DomainError:
        return None
    report = (
        model.check_assumption_mild(params)
        if regime == "mild"
        else model.check_assumption_severe(params)
    )
    return params if report.ok else None


def reference_threshold_bracket(params: ModelParams, relaxed: bool = False) -> tuple[float, float]:
    """[lo, hi] with the mild threshold equation's root inside, point by
    point: the reference for the column step ``solver_mild.threshold_bracket``."""
    lo, hi = 0.0 if relaxed else params.H.lo, params.alpha_G
    f = solver_mild.threshold_equation(params)
    f_lo, f_hi = f(lo), f(hi)
    if f_lo > 0.0 or f_hi < 0.0:
        raise SolverError(f"threshold equation not bracketed: f({lo})={f_lo}, f({hi})={f_hi}")
    pad_lo, pad_hi = lo + solver_mild._BRACKET_PAD, hi - solver_mild._BRACKET_PAD
    if f(pad_lo) < 0.0 < f(pad_hi):
        return pad_lo, pad_hi
    return lo, hi


def reference_mild_equilibrium(
    params: ModelParams, bracket: tuple[float, float], c: float, tol: float, relaxed: bool = False
) -> MildEquilibrium:
    """The mild equilibrium at the root c on ``bracket``, built and checked
    point by point in Python floats, its checks in the solver's order: the
    reference for the column step ``solver_mild.mild_equilibrium``."""
    f = solver_mild.threshold_equation(params)
    c_tilde, residual = solver._certify(f, c, *bracket, tol, "threshold")
    if not relaxed and not params.H.lo < c_tilde < params.alpha_G:
        raise SolverError(f"threshold {c_tilde} escaped ({params.H.lo}, {params.alpha_G})")
    be = model.beta_e(params)
    h_mass = params.H.cdf(c_tilde)
    gp = params.gamma * h_mass / (params.gamma * h_mass + 1.0 - params.gamma)
    q = params.q
    mu_NN = Belief(gp * q, gp * (1.0 - q), 1.0 - gp)
    g_inv = params.G.quantile(params.alpha_G)
    num, den = g_inv - params.beta_B, params.beta_G - g_inv
    if den <= 0.0 or num <= 0.0:
        raise SolverError(
            f"reveal likelihood ratio undefined: Ginv(alpha_G)={g_inv} not inside (beta_B, beta_G)"
        )
    kappa = (1.0 - q) / q * num / den
    mu_R = Belief.normalized(kappa * q, 1.0 - q, 0.0)
    probs = solver_mild._probabilities(q, (h_mass, h_mass), (kappa, 1.0))
    not_concealed = 1.0 - h_mass
    revealed_alt = (params.beta_G - params.beta_B) / (params.beta_G - g_inv) * (1.0 - q) * not_concealed
    total_alt = 1.0 - (be - g_inv) / (params.beta_G - g_inv) * not_concealed
    revealed, total = probs.prob_revealed, probs.prob_total
    identity_tol = solver_mild._IDENTITY_TOL
    if abs(revealed - revealed_alt) > identity_tol or abs(total - total_alt) > identity_tol:
        raise SolverError(
            f"probability closed forms disagree: revealed {revealed} vs {revealed_alt}, "
            f"total {total} vs {total_alt}"
        )
    p_R = model.protest_prob(mu_R, params)
    p_NN = model.protest_prob(mu_NN, params)
    p_prior = model.protest_prob(model.prior(params), params)
    guard = max(10.0 * tol, 1e-12)
    if abs(p_R - params.alpha_G) > guard:
        raise SolverError(f"protest-after-reveal {p_R} != alpha_G {params.alpha_G}")
    if abs(p_NN - (params.alpha_G - c_tilde)) > guard:
        raise SolverError(f"protest-after-no-news {p_NN} != alpha_G - c_tilde")
    return MildEquilibrium(
        c_tilde=c_tilde,
        kappa=kappa,
        gamma_prime=gp,
        mu_R=mu_R,
        mu_NN=mu_NN,
        q_prime=mu_R.mu_G,
        **vars(probs),
        p_R=p_R,
        p_NN=p_NN,
        p_prior=p_prior,
        D=p_prior - p_R,
        D_lower=-c_tilde,
        residual=residual,
    )


def reference_solve_mild(params: ModelParams, tol: float = solver_mild.DEFAULT_TOL) -> MildEquilibrium:
    """A checked mild solve of one point through the point-by-point
    references and ``find_root``."""
    model.require_regime("mild", params)
    bracket = reference_threshold_bracket(params)
    c = find_root(solver_mild.threshold_equation(params), *bracket)
    return reference_mild_equilibrium(params, bracket, c, tol)


def reference_no_concession(
    params: ModelParams, tol: float = solver_mild.DEFAULT_TOL
) -> NoConcessionEquilibrium:
    """The no-concession equilibrium of one point, solved on [H.lo,
    G(beta_e)] by ``find_root`` and built in Python floats: the reference
    for the column steps of a no-concession solve."""
    solver_mild.validate_tol(tol)
    be = model.beta_e(params)
    g_at_be = params.G.cdf(be)
    if not g_at_be > params.H.lo:
        raise DomainError(f"no-concession variant needs G(beta_e) > c_lo, got {g_at_be} <= {params.H.lo}")
    f = lambda c: solver_mild._threshold_residual(params, be, g_at_be, c)
    lo, hi = params.H.lo, g_at_be
    c_tilde, residual = solver._certify(f, find_root(f, lo, hi), lo, hi, tol, "no-concession")
    q = params.q
    gp = solver_mild._gamma_prime(params.H.cdf(c_tilde), params.gamma)
    mu_R = Belief(q, 1.0 - q, 0.0)
    mu_NN = Belief(gp * q, gp * (1.0 - q), 1.0 - gp)
    return NoConcessionEquilibrium(
        c_tilde=c_tilde,
        mu_R=mu_R,
        mu_NN=mu_NN,
        p_R=model.protest_prob(mu_R, params),
        p_NN=model.protest_prob(mu_NN, params),
        p_prior=model.protest_prob(model.prior(params), params),
        residual=residual,
    )


def failing_rows(step, qs: set, what: str):
    """``step``, a column step of a solve, with a SolverError in place
    of its output on each row of its block whose q is in qs, unless that
    output is an error already."""

    def failing(p, *args, **kwargs):
        out = step(p, *args, **kwargs)
        return [
            SolverError(f"{what} fails at q={q}") if q in qs and not isinstance(r, RepgameError) else r
            for q, r in zip(p.q.tolist(), out)
        ]

    return failing


def reference_sweep(spec: SweepSpec) -> list[SweepRow]:
    """``repgame.sweep.run_sweep`` as a loop that solves one point at a
    time, a mild one through ``reference_solve_mild`` and a severe one
    through ``solve``: the reference for the block sweep. A failing point
    raises at once, so the first one in grid order does."""
    rows: list[SweepRow] = []
    any_valid = False
    cols = COLUMNS[spec.variant]
    for value in np.linspace(spec.start, spec.end, spec.steps):
        value = float(value)
        try:
            trial = apply_axis(spec.base, spec.axis, value)
        except DomainError:
            rows.append(SweepRow(axis_value=value, assumption_ok=False))
            continue
        if not model.check_assumption(spec.variant, trial).ok:
            rows.append(SweepRow(axis_value=value, assumption_ok=False))
            continue
        eq = reference_solve_mild(trial) if spec.variant == "mild" else solve(spec.variant, trial)
        probs = repression_probabilities(eq, trial)
        found = {c: getattr(probs if c.startswith("prob_") else eq, c) for c in cols[2:-1]}
        rows.append(SweepRow(value, True, D_lower=bound_D_lower(eq), **found))
        any_valid = True
    if not any_valid:
        raise EmptySweepError(f"no valid grid point on {spec.axis} in [{spec.start}, {spec.end}]")
    return rows


def reference_best_response(params: ModelParams, eq, grid: int) -> RegretReport:
    """``repgame.verify.best_response_check`` as a loop over the grid's
    types, one payoff table and prescribed action set per type: the
    reference for the array form."""
    variant, cutoffs, reveals = strategy(eq)
    p_R = model.protest_prob(eq.mu_R, params)
    p_NN = model.protest_prob(eq.mu_NN, params)
    max_regret = 0.0
    worst = None
    for theta, alpha, cutoff, reveal in zip(
        ("G", "B"), (params.alpha_G, params.alpha_B), cutoffs, reveals
    ):
        for c in np.linspace(params.H.lo, params.H.hi, grid):
            c = float(c)
            payoffs = {"conceal": 1.0 - p_NN - c, "reveal": 1.0 - p_R}
            if variant != "no-concession":
                payoffs["concede"] = 1.0 - alpha
            # the severe corner's cutoff at H.lo conceals no type
            if c <= cutoff and cutoff > params.H.lo:
                prescribed = ("conceal",)
            else:
                prescribed = ("reveal",) * (reveal > 0.0) + ("concede",) * (reveal < 1.0)
            regret = max(payoffs.values()) - min(payoffs[a] for a in prescribed)
            if regret > max_regret:
                max_regret = regret
                worst = (theta, c)
    return RegretReport(max(max_regret, 0.0), worst, 0.0, {})
