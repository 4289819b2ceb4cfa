"""Independent numerical certification of solved equilibria.

Nothing here reuses the solvers' internal algebra: best responses are
checked by direct payoff comparison on a type grid, posteriors by re-deriving
them from the strategy with Bayes rule over the type measure, and the
comparative-statics / limit / sign-law claims by brute re-solving along
parameter families. Randomized draws use rejection sampling against the
assumption checks, since the valid regions are not rectangles.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import distributions, model
from .distributions import BoundedCDF, fosd_dominates
from .errors import AssumptionError, DomainError, RepgameError
from .model import Belief, ModelParams
from .solver import repression_probabilities, solve_block, strategy
from .solver_mild import estimator_H, estimator_total, limit_H_degenerate, solve_mild
from .solver_severe import effect_D_severe
from .sweep import apply_axis

DEFAULT_GRID = 1000
MAX_GRID = 1_000_000  # as sweep.MAX_STEPS: np.linspace cannot take any count
MONOTONE_SLACK = 1e-12
# a mild sign-law draw with |G(gamma*beta_e) - alpha_G| below this is a knife edge
KNIFE_EDGE = 1e-12


@dataclass(frozen=True)
class RegretReport:
    """Numerical equilibrium certificate.

    max_regret: largest payoff gain from any unilateral regime deviation on
    the type grid, clamped at zero. bayes_gap: largest belief-component
    discrepancy between stored posteriors and a direct Bayes recomputation.
    identity_gaps: named residuals of the equilibrium identities.
    """

    max_regret: float
    worst_type: tuple[str, float] | None
    bayes_gap: float
    identity_gaps: dict

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def best_response_check(params: ModelParams, eq, grid: int = DEFAULT_GRID) -> RegretReport:
    """No-profitable-deviation check against the equilibrium public play.

    For every type (theta, c) on the grid, the payoff of each prescribed
    action (worst element of the prescribed set, so mixing types must be
    exactly indifferent) is compared to the best available action. Public
    protest thresholds come from the equilibrium's stored posteriors, so a
    deliberately perturbed threshold shows up as positive regret. A cutoff
    pinned at the support's lower edge (the severe corner) is not an
    indifference point: it conceals no type, so ties there take the open
    action. The worst type is the first grid type, good types first, with
    the largest regret above zero.
    """
    if not 2 <= grid <= MAX_GRID:
        raise DomainError(f"grid must be 2 to {MAX_GRID}, got {grid}")
    variant, cutoffs, reveals = strategy(eq)
    reveal = 1.0 - model.protest_prob(eq.mu_R, params)
    stay = 1.0 - model.protest_prob(eq.mu_NN, params)
    cs = np.linspace(params.H.lo, params.H.hi, grid)
    conceal = stay - cs
    regrets = []
    for alpha, cutoff, r in zip((params.alpha_G, params.alpha_B), cutoffs, reveals):
        # without concession on offer, reveal is the one open action
        concede = reveal if variant == "no-concession" else 1.0 - alpha
        # a type that mixes (0 < r < 1) is prescribed both open actions
        worst_open = min(reveal if r > 0.0 else concede, concede if r < 1.0 else reveal)
        prescribed = np.where((cs <= cutoff) & (cutoff > params.H.lo), conceal, worst_open)
        regrets.append(np.maximum(conceal, max(reveal, concede)) - prescribed)
    regret = np.concatenate(regrets)
    i = int(np.argmax(regret))
    if not regret[i] > 0.0:
        return RegretReport(0.0, None, 0.0, {})
    return RegretReport(float(regret[i]), ("GB"[i // grid], float(cs[i % grid])), 0.0, {})


def bayes_consistency_check(params: ModelParams, eq) -> RegretReport:
    """Recompute posteriors from the strategy by direct Bayes rule."""
    g, q = params.gamma, params.q
    _, (c_G, c_B), (r_G, r_B) = strategy(eq)
    h_G, h_B = params.H.cdf(c_G), params.H.cdf(c_B)
    mu_nn = Belief.normalized(g * q * h_G, g * (1.0 - q) * h_B, 1.0 - g)
    w_r = (g * q * r_G * (1.0 - h_G), g * (1.0 - q) * r_B * (1.0 - h_B), 0.0)
    # where no type reveals, R is off path and Bayes rule leaves mu_R free
    mu_r = Belief.normalized(*w_r) if sum(w_r) > 0.0 else eq.mu_R
    # no news scales the prior type odds q/(1-q) by H(c_G)/H(c_B)
    ratio_gap = abs(mu_nn.mu_G * (1.0 - q) * h_B - mu_nn.mu_B * q * h_G)
    gap = max(
        abs(a - b)
        for a, b in zip(mu_nn.as_tuple() + mu_r.as_tuple(), eq.mu_NN.as_tuple() + eq.mu_R.as_tuple())
    )
    return RegretReport(0.0, None, gap, {"no_news_type_odds": ratio_gap})


def identity_suite(params: ModelParams, eq) -> dict:
    """Residuals of the closed-form identities at a solved equilibrium.

    Every variant is checked for revealed + concealed = total first and
    reports its on-path reveal probability last; the identities between
    are the variant's own indifference conditions.
    """
    variant, (c_G, c_B), _ = strategy(eq)
    probs = repression_probabilities(eq, params)
    gaps = {
        "revealed_plus_concealed_minus_total": abs(
            probs.prob_revealed + probs.prob_concealed - probs.prob_total
        )
    }
    if variant == "mild":
        gaps["estimator_total_vs_prob_total"] = abs(
            estimator_total(params.q, eq.q_prime, probs.prob_revealed) - probs.prob_total
        )
        gaps["estimator_H_vs_concealed"] = abs(
            estimator_H(params.q, eq.q_prime, probs.prob_revealed) - params.H.cdf(c_G)
        )
        gaps["q_prime_odds"] = abs(
            eq.q_prime / (1.0 - eq.q_prime) - eq.kappa * params.q / (1.0 - params.q)
        )
        gaps["p_R_minus_alpha_G"] = abs(eq.p_R - params.alpha_G)
        gaps["p_NN_minus_indifference"] = abs(eq.p_NN - (params.alpha_G - c_G))
        gaps["D_lower_plus_c_tilde"] = abs(eq.p_NN - eq.p_R + c_G)  # estimable form
    elif variant == "severe":
        p_nn = model.protest_prob(eq.mu_NN, params)
        g_beta_G = params.G.cdf(params.beta_G)
        gaps["indifference_G"] = abs(g_beta_G - p_nn - c_G)
        if eq.corner:
            gaps["corner_slack_B"] = max(params.alpha_B - p_nn - c_B, 0.0)
        else:
            gaps["indifference_B"] = abs(params.alpha_B - p_nn - c_B)
            gaps["gap_identity"] = abs((c_G - c_B) - (g_beta_G - params.alpha_B))
        gaps["p_R_minus_G_beta_G"] = abs(eq.p_R - g_beta_G)
    else:  # no-concession: revealing keeps the prior type mix, so p_R = G(beta_e)
        g_beta_e = params.G.cdf(model.beta_e(params))
        gaps["D_lower_plus_c_tilde"] = abs(eq.p_NN - eq.p_R + c_G)
        gaps["p_R_minus_G_beta_e"] = abs(eq.p_R - g_beta_e)
        gaps["p_NN_minus_indifference"] = abs(eq.p_NN - (g_beta_e - c_G))
    gaps["reveal_probability"] = probs.prob_revealed  # positive while reveal is on path
    return gaps


def certify_equilibrium(params: ModelParams, eq, grid: int = DEFAULT_GRID) -> RegretReport:
    """Full certificate: regret, Bayes gap, identity residuals, on-path reveal."""
    br = best_response_check(params, eq, grid)
    bayes = bayes_consistency_check(params, eq)
    gaps = dict(bayes.identity_gaps)
    gaps.update(identity_suite(params, eq))
    return RegretReport(br.max_regret, br.worst_type, bayes.bayes_gap, gaps)


# -- comparative statics ------------------------------------------------------


@dataclass(frozen=True)
class FosdReport:
    ok: bool
    prob_revealed_1: float
    prob_revealed_2: float
    prob_total_1: float
    prob_total_2: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def fosd_comparative_statics_check(
    params: ModelParams, H1: BoundedCDF, H2: BoundedCDF
) -> FosdReport:
    """Costlier concealment (H1 above H2 in FOSD) must raise revealed and
    lower total repression; both orderings are strict."""
    if not fosd_dominates(H1, H2):
        raise DomainError("H1 must strictly FOSD-dominate H2 (pointwise smaller CDF)")
    eq1 = solve_mild(dataclasses.replace(params, H=H1))
    eq2 = solve_mild(dataclasses.replace(params, H=H2))
    ok = eq1.prob_revealed > eq2.prob_revealed and eq1.prob_total < eq2.prob_total
    return FosdReport(ok, eq1.prob_revealed, eq2.prob_revealed, eq1.prob_total, eq2.prob_total)


@dataclass(frozen=True)
class LimitPoint:
    eps: float
    h_at_threshold: float | None
    relaxed: bool
    note: str = ""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class LimitReport:
    prohibitive: tuple[LimitPoint, ...]
    negligible: tuple[LimitPoint, ...]
    prohibitive_limit: float
    negligible_limit: float
    prohibitive_gap: float | None
    negligible_gap: float | None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _limit_point(params: ModelParams, h_family: BoundedCDF, eps: float) -> LimitPoint:
    trial = dataclasses.replace(params, H=h_family)
    strict_ok = model.check_assumption("mild", trial).ok
    try:
        eq = solve_mild(trial, relaxed=not strict_ok)
    except AssumptionError as exc:
        return LimitPoint(eps, None, not strict_ok, f"skipped: {exc}")
    return LimitPoint(eps, trial.H.cdf(eq.c_tilde), not strict_ok)


def degenerate_cost_limit_check(params: ModelParams, eps_sequence) -> LimitReport:
    """Approach the degenerate concealment-cost limits along uniform families.

    Prohibitive family H = U[1-eps, 1]: concealment mass must fall toward 0.
    Negligible family H = U[0, eps]: the mass must approach the degenerate
    limit value. Family members that violate even the H-free clauses are
    skipped and noted; the rest solve in relaxed mode, since degenerating H
    necessarily breaks the H-dependent clauses.
    """
    eps_list = [float(e) for e in eps_sequence]
    if not eps_list or any(not 0.0 < e < 1.0 for e in eps_list):
        raise DomainError("eps values must lie in (0, 1)")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise DomainError("eps values must be strictly decreasing")
    limits = limit_H_degenerate(params)
    prohibitive = tuple(
        _limit_point(params, BoundedCDF.uniform(1.0 - e, 1.0), e) for e in eps_list
    )
    negligible = tuple(_limit_point(params, BoundedCDF.uniform(0.0, e), e) for e in eps_list)
    pro_vals = [p.h_at_threshold for p in prohibitive if p.h_at_threshold is not None]
    neg_vals = [p.h_at_threshold for p in negligible if p.h_at_threshold is not None]
    return LimitReport(
        prohibitive=prohibitive,
        negligible=negligible,
        prohibitive_limit=limits.prohibitive,
        negligible_limit=limits.negligible,
        prohibitive_gap=abs(pro_vals[-1] - limits.prohibitive) if pro_vals else None,
        negligible_gap=abs(neg_vals[-1] - limits.negligible) if neg_vals else None,
    )


@dataclass(frozen=True)
class MonotonicityReport:
    axis: str
    regime: str
    values: tuple[float, ...]
    effects: tuple[float, ...]
    ok: bool
    violations: tuple[int, ...]
    truncated_note: str = ""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def effect_monotonicity_check(
    params: ModelParams, axis: str, lo: float, hi: float, steps: int
) -> MonotonicityReport:
    """The effect D must be nondecreasing along q, beta_B, gamma (either
    regime) and along upward CDF shifts of G (mild regime only)."""
    if axis not in ("q", "beta_B", "gamma", "G_shift"):
        raise DomainError(f"unsupported monotonicity axis {axis!r}")
    if steps < 2 or not lo < hi:
        raise DomainError("need lo < hi and steps >= 2")
    base_regime = next((r for r in model.REGIMES if model.check_assumption(r, params).ok), None)
    if base_regime is None:
        raise AssumptionError("base params fail both regime checks", None)
    if axis == "G_shift" and base_regime != "mild":
        raise DomainError("G_shift monotonicity applies to the mild regime only")

    grid = np.linspace(lo, hi, steps)
    values: list[float] = []
    effects: list[float] = []
    note = ""
    for v in grid:
        try:
            trial = apply_axis(params, axis, float(v))
        except DomainError as exc:
            note = f"truncated at {axis}={float(v)}: {exc}"
            break
        report = model.check_assumption(base_regime, trial)
        if not report.ok:
            note = f"truncated at {axis}={float(v)}: {report.failed_clauses()}"
            break
        effect = solve_mild(trial).D if base_regime == "mild" else effect_D_severe(trial)
        values.append(float(v))
        effects.append(effect)
    if not values:
        raise AssumptionError(f"no valid grid points along {axis}", None)
    violations = tuple(
        i for i in range(len(effects) - 1) if effects[i + 1] < effects[i] - MONOTONE_SLACK
    )
    return MonotonicityReport(
        axis, base_regime, tuple(values), tuple(effects), not violations, violations, note
    )


# -- randomized law checks ----------------------------------------------------


# A proposal is a run of doubles, in this draw order: beta_G, beta_B, the
# protest-cost distribution G, gamma, q, alpha_G, alpha_B and the
# concealment-cost distribution H. A cost distribution takes lo, width and a
# flag, then two beta shapes only if the flag is below BETA_FLAG, so a
# proposal is 12, 14 or 16 doubles long. It is parsed into a row of 16 floats
# in ModelParams order: gamma, q, beta_G, beta_B, alpha_G, alpha_B, then
# (lo, hi, flag, a, b) for G and for H; a and b are unused when flag >= BETA_FLAG.
BETA_FLAG = 0.3
# the offset of each column's double from the proposal's start, plus 2 where
# _AFTER_G and G has beta shapes
_OFFSETS = np.array([5, 6, 0, 1, 7, 8, 2, 3, 4, 5, 6, 9, 10, 11, 12, 13])
_AFTER_G = np.array([1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1], dtype=bool)
_UNIT, _SHAPE = (0.0, 1.0), (0.5, 3.0)  # a flag keeps its double
# regime -> (lo, hi) of each column, the width's in place of hi's
_RANGES = {
    regime: np.array(
        ((0.1, 0.9), (0.1, 0.9), beta_G, beta_B, (0.02, 0.98), (0.02, 0.98))
        + (g_lo, g_width, _UNIT, _SHAPE, _SHAPE)
        + ((0.0, 0.5), (0.3, 1.5), _UNIT, _SHAPE, _SHAPE)
    ).T
    for regime, beta_G, beta_B, g_lo, g_width in (
        ("mild", (0.3, 3.0), (-1.5, 0.8), (0.0, 0.3), (0.4, 1.6)),
        ("severe", (0.2, 1.2), (-1.0, 0.6), (0.0, 0.2), (0.8, 1.8)),
    )
}
# sign_law_check draws the doubles of this many longest proposals at once;
# larger blocks are no faster and hold more memory
BLOCK_PROPOSALS = 512


def _uniform(lo, hi, u):
    # Generator.uniform's own formula on next_double u, bit for bit, for
    # floats or arrays
    return lo + (hi - lo) * u


def _parse(u: np.ndarray, regime: str) -> tuple[np.ndarray, int]:
    """Rows of the whole proposals at the head of u, and the doubles they use.

    The length of a proposal starting at each double follows from its two
    flags; the chain of starts from 0 stops at the first proposal that runs
    past the end of u.
    """
    n = len(u)
    flag = u < BETA_FLAG
    m = max(n - 11, 0)  # starts with room for the shortest proposal
    g_beta = flag[4 : 4 + m]
    # an index clipped at the end belongs to a start whose proposal cannot fit
    h_beta = np.take(flag, np.arange(11, 11 + m) + 2 * g_beta, mode="clip")
    # the chain visits about one start in thirteen: index bytes, whose items
    # are ints, rather than build a list of every start's length
    lengths = (12 + 2 * g_beta + 2 * h_beta).astype(np.uint8).tobytes()
    starts = []
    s = 0
    while s < m and s + lengths[s] <= n:
        starts.append(s)
        s += lengths[s]
    first = np.array(starts, dtype=np.intp)[:, None]
    index = first + _OFFSETS + 2 * (flag[first + 4] & _AFTER_G)
    # shape columns past the end of u are clipped; their flag leaves them unused
    rows = _uniform(*_RANGES[regime], np.take(u, index, mode="clip"))
    for lo in (6, 11):  # G's and H's hi is lo + width
        rows[:, lo + 1] += rows[:, lo]
    return rows, s


def _columns(rows: np.ndarray) -> SimpleNamespace:
    """The block's columns under ModelParams' attribute names; G and H are
    ``cost_columns`` of their five columns."""
    c = rows.T
    cost = lambda d: distributions.cost_columns(d[0], d[1], d[2] < BETA_FLAG, d[3], d[4])
    return SimpleNamespace(**dict(zip(model._SCALARS, c[:6])), G=cost(c[6:11]), H=cost(c[11:]))


def _screen(rows: np.ndarray, regime: str) -> np.ndarray:
    """Indices of the rows that pass ``ModelParams``' rule beta_G >
    max(beta_B, 0), the only one these ranges can fail, and every clause of
    ``model.clauses(regime, ...)``.

    The clauses are the model's own on the same floats, so a row fails here
    exactly when building and checking it fails.
    """
    p = _columns(rows)
    return np.flatnonzero((p.beta_G > np.maximum(p.beta_B, 0.0)) & model.holds(regime, p))


def _cost_dist(lo: float, hi: float, flag: float, a: float, b: float) -> BoundedCDF:
    if flag < BETA_FLAG:
        return BoundedCDF.scaled_beta(lo, hi, a, b)
    return BoundedCDF.uniform(lo, hi)


def _accepted(rows: np.ndarray, regime: str):
    """(index, params) of each row that passes the screen. The regime check
    of the solve that follows stays the authority."""
    keep = _screen(rows, regime)
    for i, row in zip(keep.tolist(), rows[keep].tolist()):
        yield i, ModelParams(*row[:6], _cost_dist(*row[6:11]), _cost_dist(*row[11:]))


def draw_params(rng: np.random.Generator, regime: str) -> ModelParams | None:
    """One proposal draw; None when it fails type validity or the regime check.

    Draws exactly the proposal's doubles (5, 2 more if G has beta shapes, 7,
    2 more if H has) and runs them through the parser and screen that
    ``sign_law_check`` runs on whole blocks. Only a survivor is built, and
    the result and the rng use are what building and checking every
    proposal gives.
    """
    parts = [rng.random(5)]
    if parts[-1][4] < BETA_FLAG:
        parts.append(rng.random(2))
    parts.append(rng.random(7))
    if parts[-1][6] < BETA_FLAG:
        parts.append(rng.random(2))
    rows, _ = _parse(np.concatenate(parts), regime)
    return next((params for _, params in _accepted(rows, regime)), None)


def _accepted_draws(rng: np.random.Generator, regime: str, budget: int):
    """(index, params) of each accepted proposal among the first ``budget``.

    The doubles come in blocks of ``BLOCK_PROPOSALS`` longest proposals; for
    ``default_rng`` these are the doubles that scalar draws give, so the
    proposals are ``draw_params``'s. A proposal cut by a block's end carries
    into the next block.
    """
    u = np.empty(0)
    base = 0
    while base < budget:
        u = np.concatenate((u, rng.random(16 * BLOCK_PROPOSALS)))
        rows, used = _parse(u, regime)
        for i, params in _accepted(rows, regime):
            if base + i >= budget:
                return
            yield base + i, params
        base += len(rows)
        u = u[used:]


@dataclass(frozen=True)
class SignLawReport:
    """Outcome of the randomized deterrence/backlash sign laws."""

    regime: str
    n_checked: int
    draws_used: int
    acceptance_rate: float
    ok: bool
    failures: tuple[dict, ...]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def sign_law_check(
    regime: str, n_draws: int = 500, seed: int = 0, budget: int = 100_000
) -> SignLawReport:
    """Mild regime: sign(D) must match sign(G(gamma*beta_e) - alpha_G).
    Severe regime: D must be strictly negative. Knife-edge draws (the
    measure-zero boundary) are skipped rather than counted either way,
    unless their solve fails.

    The draws up to the ``n_draws``-th one with a sign prediction are solved
    together, in one ``solve_block`` call, and then checked in order.
    """
    if regime not in model.REGIMES:
        raise DomainError(f"unknown regime {regime!r}")
    if n_draws < 1:
        raise DomainError(f"need at least one draw, got n_draws={n_draws}")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    draws = []  # (index, params, reference); the reference is None in the severe regime
    predicted = 0
    for index, params in _accepted_draws(rng, regime, budget):
        ref = None
        if regime == "mild":
            ref = params.G.cdf(params.gamma * model.beta_e(params)) - params.alpha_G
        draws.append((index, params, ref))
        predicted += ref is None or abs(ref) >= KNIFE_EDGE
        if predicted == n_draws:
            break
    solved = solve_block(regime, [params for _, params, _ in draws])
    checked = 0
    used = budget  # unless n_draws are accepted first
    failures: list[dict] = []
    for (index, params, ref), eq in zip(draws, solved):
        if isinstance(eq, RepgameError):
            failures.append({"params": params.to_dict(), "error": str(eq)})
        elif ref is None:
            if not eq.D < 0.0:
                failures.append({"params": params.to_dict(), "D": eq.D})
        elif abs(ref) < KNIFE_EDGE:
            continue  # no sign prediction
        elif (eq.D > 0.0) != (ref > 0.0):
            failures.append({"params": params.to_dict(), "D": eq.D, "reference": ref})
        checked += 1
        if checked == n_draws:
            used = index + 1
            break
    if checked < n_draws:
        raise DomainError(
            f"draw budget {budget} exhausted after {checked}/{n_draws} accepted draws"
        )
    return SignLawReport(
        regime=regime,
        n_checked=checked,
        draws_used=used,
        acceptance_rate=checked / used,
        ok=not failures,
        failures=tuple(failures),
    )
