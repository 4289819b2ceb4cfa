"""Mild-conflict equilibrium: one concealment threshold and a reveal mix.

Under mild conflict (alpha_G < alpha_B) every equilibrium has a single
concealment-cost threshold c_tilde: the regime represses and conceals both
activist types whenever c < c_tilde. Above the threshold, bad activists are
repressed publicly while good activists are publicly repressed with a
probability pinned by the regime's indifference between revealing and
conceding, summarized by the likelihood ratio kappa in (0, 1).

The threshold solves a monotone scalar equation: the probability of protest
after no news, G(gamma'(c) * beta_e), must equal alpha_G - c, where
gamma'(c) is the posterior probability of an organized activist after no
news. The left side is nondecreasing in c and the right side strictly
decreasing, so the root is unique and bracketed on (c_lo, alpha_G).

Two indifference identities anchor everything downstream: the probability
of protest after revealed repression equals alpha_G, and after no news it
equals alpha_G - c_tilde.

A solve checks the point and then runs in three steps: ``threshold_bracket``
brackets the root, the root search runs on that bracket, and
``mild_equilibrium`` certifies the root and builds the equilibrium.
``solve_mild`` runs them on one point around ``find_root``;
``solver_severe.solve_block`` runs them on a block, with one lockstep root
search.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from . import model
from .errors import AssumptionError, DomainError, EstimationError, InconsistentInputsError, SolverError
from .model import Belief, ModelParams
from .rootfind import find_root, ulp_bracket

DEFAULT_TOL = 1e-10
MAX_TOL = 1e-6
_BRACKET_PAD = 1e-14
_IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class MildEquilibrium:
    """Solved mild-conflict equilibrium and its derived quantities.

    All repression/concession probabilities are conditional on an organized
    activist. p_R, p_NN, p_prior are protest probabilities after revealed
    repression, after no news, and under the prior. D = p_prior - p_R is
    the deterrence (positive) or backlash (negative) effect; D_lower =
    p_NN - p_R = -c_tilde is its always-negative estimable lower bound,
    stored as -c_tilde: p_NN and p_R both sit near alpha_G, so their
    difference keeps no digits of a threshold below alpha_G's precision.
    """

    c_tilde: float
    kappa: float
    gamma_prime: float
    mu_R: Belief
    mu_NN: Belief
    q_prime: float
    prob_revealed_given_G: float
    prob_revealed_given_B: float
    prob_revealed: float
    prob_concealed: float
    prob_total: float
    prob_concession: float
    p_R: float
    p_NN: float
    p_prior: float
    D: float
    D_lower: float
    residual: float


@dataclass(frozen=True)
class RepressionProbabilities:
    prob_revealed_given_G: float
    prob_revealed_given_B: float
    prob_revealed: float
    prob_concealed: float
    prob_total: float
    prob_concession: float


@dataclass(frozen=True)
class NoConcessionEquilibrium:
    """No-concession variant: conceal below c_tilde, reveal above."""

    c_tilde: float
    mu_R: Belief
    mu_NN: Belief
    p_R: float
    p_NN: float
    p_prior: float
    residual: float


@dataclass(frozen=True)
class DegenerateLimits:
    """Limits of the concealment probability H(c_tilde) under degenerate costs.

    ``prohibitive`` is the limit when concealment costs concentrate at the
    top of the unit scale (always 0). ``negligible`` is the limit when they
    concentrate at zero: 1 when G(gamma * beta_e) < alpha_G, otherwise the
    interior value (1-gamma)/gamma * Ginv(alpha_G) / (beta_e - Ginv(alpha_G)).
    """

    negligible: float
    prohibitive: float
    branch: str


def _gamma_prime(h_mass: float, gamma: float) -> float:
    return gamma * h_mass / (gamma * h_mass + 1.0 - gamma)


def _threshold_residual(params: ModelParams, be: float, target: float, c: float) -> float:
    """G(gamma'(c) * beta_e) + c - target: the indifference between
    concealing at cost c and revealing, whose protest probability is target."""
    gp = _gamma_prime(params.H.cdf(c), params.gamma)
    return params.G.cdf(gp * be) + c - target


def _require_h_free(report: model.AssumptionReport) -> None:
    failed = [name for name in report.failed_clauses() if name in model.H_FREE_MILD]
    model.require(report, failed, "non-H mild clauses")


def _certify(f, c: float, lo: float, hi: float, tol: float, what: str) -> tuple[float, float]:
    """(c, |f(c)|) for find_root's root c of an increasing f on [lo, hi].

    A residual above tol is retried on the float nearest the root, which a
    tiny root (a huge beta_G) needs. If even that misses tol, f jumps by
    more than tol between adjacent floats, so no float root meets tol: the
    inputs are at fault, not the solver.
    """
    residual = abs(f(c))
    if residual <= tol:
        return c, residual
    bracket = ulp_bracket(f, c, lo, hi)
    if bracket is None:
        raise SolverError(f"{what} residual {residual:.3e} exceeds tol {tol:.3e}")
    c = min(bracket, key=lambda x: abs(f(x)))
    residual = abs(f(c))
    if residual > tol:
        raise DomainError(
            f"{what} equation is ill-conditioned at these inputs: best attainable "
            f"residual {residual:.3e} exceeds tol {tol:.3e}"
        )
    return c, residual


def validate_tol(tol: float) -> None:
    """Reject a tol that is not in (0, MAX_TOL]: a huge one would pass every
    residual guard, and 10 * tol overflows to inf from about 1.8e307."""
    if not 0.0 < tol <= MAX_TOL:
        raise DomainError(f"tol must be finite and positive, at most {MAX_TOL:g}, got {tol}")


def threshold_equation(params):
    """The threshold's equation, increasing in c: ``_threshold_residual`` at
    the protest probability alpha_G after revealed repression. ``params``
    may be a block of points as columns, as ``model.clauses`` takes."""
    be = model.beta_e(params)
    return lambda c: _threshold_residual(params, be, params.alpha_G, c)


def threshold_bracket(params: ModelParams, relaxed: bool = False) -> tuple[float, float]:
    """[lo, hi] with the threshold equation's root inside, for checked
    params: the first step of ``solve_mild`` after its check. ``relaxed``
    widens the bracket's lower end to 0."""
    lo, hi = 0.0 if relaxed else params.H.lo, params.alpha_G
    f = threshold_equation(params)
    f_lo, f_hi = f(lo), f(hi)
    if f_lo > 0.0 or f_hi < 0.0:
        # numerically impossible under the assumption check, guarded anyway
        raise SolverError(f"threshold equation not bracketed: f({lo})={f_lo}, f({hi})={f_hi}")
    pad_lo, pad_hi = lo + _BRACKET_PAD, hi - _BRACKET_PAD
    if f(pad_lo) < 0.0 < f(pad_hi):
        return pad_lo, pad_hi
    return lo, hi


def reveal_likelihood_ratio(params: ModelParams, g_inv: float) -> float:
    """kappa: odds of publicly repressing a good versus a bad activist, at
    g_inv = G^{-1}(alpha_G)."""
    num = g_inv - params.beta_B
    den = params.beta_G - g_inv
    if den <= 0.0 or num <= 0.0:
        raise SolverError(
            f"reveal likelihood ratio undefined: Ginv(alpha_G)={g_inv} "
            f"not inside (beta_B, beta_G)"
        )
    return (1.0 - params.q) / params.q * num / den


def _probabilities(
    q: float, masses: tuple[float, float], reveals: tuple[float, float]
) -> RepressionProbabilities:
    """Repression/concession probabilities, conditional on an organized
    activist, of the play that conceals type t with probability masses[t] =
    H(c_t) and otherwise reveals it with probability reveals[t].

    Total is one minus the concession mass of each type, not revealed plus
    concealed, so that revealed + concealed = total stays a check.
    """
    (h_G, h_B), (r_G, r_B) = masses, reveals
    rev_G = r_G * (1.0 - h_G)
    rev_B = r_B * (1.0 - h_B)
    total = 1.0 - (q * (1.0 - r_G) * (1.0 - h_G) + (1.0 - q) * (1.0 - r_B) * (1.0 - h_B))
    return RepressionProbabilities(
        prob_revealed_given_G=rev_G,
        prob_revealed_given_B=rev_B,
        prob_revealed=q * rev_G + (1.0 - q) * rev_B,
        prob_concealed=q * h_G + (1.0 - q) * h_B,
        prob_total=total,
        prob_concession=1.0 - total,
    )


def solve_mild(
    params: ModelParams, tol: float = DEFAULT_TOL, relaxed: bool = False
) -> MildEquilibrium:
    """Solve the unique mild-conflict equilibrium.

    Raises AssumptionError when the mild-conflict check fails, and
    SolverError if any equilibrium identity fails to certify at the
    requested tolerance (which would indicate a bug, not bad inputs).

    With ``relaxed=True`` only the clauses that do not involve H are
    enforced and the bracket is widened to [0, alpha_G], allowing boundary
    roots. This supports limit analyses where H degenerates and the
    H-dependent clauses necessarily fail; the root c_tilde = alpha_G (no
    concealment ever pays) is then legitimate.
    """
    validate_tol(tol)
    if relaxed:
        _require_h_free(model.check_assumption("mild", params))
    else:
        model.require_regime("mild", params)
    bracket = threshold_bracket(params, relaxed)
    c = find_root(threshold_equation(params), *bracket)
    return mild_equilibrium(params, bracket, c, tol, relaxed)


def mild_equilibrium(
    params: ModelParams, bracket: tuple[float, float], c: float, tol: float, relaxed: bool = False
) -> MildEquilibrium:
    """The equilibrium at find_root's root c of the threshold equation on
    ``threshold_bracket``'s ``bracket``: the last step of ``solve_mild``.
    It certifies c as c_tilde at tol, with the adjacent-float retry of
    ``_certify``, checks that c_tilde lies inside (H.lo, alpha_G) unless
    ``relaxed``, and builds the derived quantities with their identities
    certified at tol."""
    c_tilde, residual = _certify(threshold_equation(params), c, *bracket, tol, "threshold")
    if not relaxed and not params.H.lo < c_tilde < params.alpha_G:
        raise SolverError(f"threshold {c_tilde} escaped ({params.H.lo}, {params.alpha_G})")
    be = model.beta_e(params)

    h_mass = params.H.cdf(c_tilde)
    gp = _gamma_prime(h_mass, params.gamma)
    q = params.q
    mu_NN = Belief(gp * q, gp * (1.0 - q), 1.0 - gp)
    g_inv = params.G.quantile(params.alpha_G)
    kappa = reveal_likelihood_ratio(params, g_inv)
    mu_R = Belief.normalized(kappa * q, 1.0 - q, 0.0)
    probs = _probabilities(q, (h_mass, h_mass), (kappa, 1.0))
    # the same probabilities written directly in the payoff parameters
    not_concealed = 1.0 - h_mass
    revealed_alt = (params.beta_G - params.beta_B) / (params.beta_G - g_inv) * (1.0 - q) * not_concealed
    total_alt = 1.0 - (be - g_inv) / (params.beta_G - g_inv) * not_concealed
    revealed, total = probs.prob_revealed, probs.prob_total
    if abs(revealed - revealed_alt) > _IDENTITY_TOL or abs(total - total_alt) > _IDENTITY_TOL:
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
        D_lower=-c_tilde,  # = p_NN - p_R, certified above
        residual=residual,
    )


# -- measurement ------------------------------------------------------------


@dataclass(frozen=True)
class EstimationReport:
    """Plug-in estimates recovered from observables, with delta-method SEs."""

    total_hat: float
    H_hat: float
    D_lower_hat: float | None
    se_total_hat: float | None
    se_H_hat: float | None
    se_D_lower_hat: float | None
    flags: tuple[str, ...]

    def to_dict(self) -> dict:
        return asdict(self)


def estimate_plugin(
    q_hat: float,
    q_prime_hat: float,
    p_hat: float,
    p_R_hat: float | None = None,
    p_NN_hat: float | None = None,
    se: dict | None = None,
) -> EstimationReport:
    """Estimation report from raw estimates (q_hat, q'_hat, p_hat, ...): the
    mild equilibrium's revealed-repression probability inverted.

    total = 1 - (q-q')/(1-q) * p reproduces prob_total, and H = 1 -
    (1-q')/(1-q) * p reproduces H(c_tilde), on exact equilibrium inputs;
    D_lower = p_NN - p_R. ``se`` may carry standard errors for q, q_prime,
    p, p_R, p_NN; missing entries leave the corresponding delta-method
    errors as None.
    """
    if not 0.0 < q_hat < 1.0:
        raise EstimationError(f"q_hat must be interior to (0,1), got {q_hat}")
    flags: list[str] = []
    if q_prime_hat == 1.0:
        # revealed repression identifies the good type: a misspecification, not noise
        flags.append(
            "severe-regime signature: q_hat_prime = 1 (every revealed episode is a good "
            "type); the mild-regime estimators do not apply"
        )
    elif q_prime_hat >= q_hat:
        flags.append("inconsistent-sample: q_hat_prime >= q_hat (finite-sample noise)")
    one_m_q = 1.0 - q_hat
    total_hat = 1.0 - (q_hat - q_prime_hat) / one_m_q * p_hat
    H_hat = 1.0 - (1.0 - q_prime_hat) / one_m_q * p_hat
    if not 0.0 <= H_hat <= 1.0:
        flags.append(f"H_hat outside [0,1]: {H_hat:.12g}")
    D_lower_hat = None
    if p_R_hat is not None and p_NN_hat is not None:
        D_lower_hat = p_NN_hat - p_R_hat
    else:
        flags.append("D_lower_hat unavailable: missing p_R_hat or p_NN_hat")

    se = se or {}
    se_total = se_H = se_D = None
    if all(se.get(k) is not None for k in ("q", "q_prime", "p")):
        # total - H = p, so both share their q and q' partials
        d_q = -p_hat * (1.0 - q_prime_hat) / one_m_q**2
        d_qp = p_hat / one_m_q
        d_p_total = -(q_hat - q_prime_hat) / one_m_q
        d_p_H = -(1.0 - q_prime_hat) / one_m_q
        shared = (d_q * se["q"]) ** 2 + (d_qp * se["q_prime"]) ** 2
        se_total = math.sqrt(shared + (d_p_total * se["p"]) ** 2)
        se_H = math.sqrt(shared + (d_p_H * se["p"]) ** 2)
    if D_lower_hat is not None and se.get("p_R") is not None and se.get("p_NN") is not None:
        se_D = math.sqrt(se["p_R"] ** 2 + se["p_NN"] ** 2)
    return EstimationReport(total_hat, H_hat, D_lower_hat, se_total, se_H, se_D, tuple(flags))


def _check_estimator_inputs(q: float, q_prime: float, p_revealed: float) -> None:
    if not 0.0 < q < 1.0:
        raise DomainError(f"q must be in (0,1), got {q}")
    if not 0.0 <= q_prime <= 1.0:
        raise DomainError(f"q_prime must be in [0,1], got {q_prime}")
    if not 0.0 <= p_revealed <= 1.0:
        raise DomainError(f"p_revealed must be in [0,1], got {p_revealed}")


def estimator_total(q: float, q_prime: float, p_revealed: float) -> float:
    """``estimate_plugin``'s total repression, 1 - (q-q')/(1-q) * p_revealed.

    Requires q' < q, the direction in which the public updates about types
    after observing repression; on exact equilibrium inputs this reproduces
    prob_total.
    """
    _check_estimator_inputs(q, q_prime, p_revealed)
    if q_prime >= q:
        raise DomainError(f"estimator_total needs q_prime < q, got {q_prime} >= {q}")
    return estimate_plugin(q, q_prime, p_revealed).total_hat


def estimator_H(q: float, q_prime: float, p_revealed: float) -> float:
    """``estimate_plugin``'s concealment probability H(c_tilde).

    1 - (1-q')/(1-q) * p_revealed; equals H(c_tilde) on exact equilibrium
    inputs. q' = q is accepted (degenerate no-updating reading). A result
    outside [0,1] means the data contradict the model and raises
    InconsistentInputsError carrying the value.
    """
    _check_estimator_inputs(q, q_prime, p_revealed)
    if q_prime > q:
        raise DomainError(f"estimator_H needs q_prime <= q, got {q_prime} > {q}")
    value = estimate_plugin(q, q_prime, p_revealed).H_hat
    if not 0.0 <= value <= 1.0:
        raise InconsistentInputsError(
            f"estimated concealment probability {value} outside [0,1]", value
        )
    return value


# -- effects ----------------------------------------------------------------


def effect_D_mild(params: ModelParams, eq: MildEquilibrium) -> float:
    """Deterrence/backlash effect D = p_prior - p_R (= G(gamma*beta_e) - alpha_G)."""
    p_prior = params.G.cdf(params.gamma * model.beta_e(params))
    return p_prior - eq.p_R


def limit_H_degenerate(params: ModelParams) -> DegenerateLimits:
    """Limiting concealment probability when H degenerates at 0 or at 1.

    Only the clauses not involving H are required of ``params``; the limit
    statement replaces H itself.
    """
    report = model.check_assumption("mild", params)
    _require_h_free(report)
    be = model.beta_e(params)
    if params.G.cdf(params.gamma * be) < params.alpha_G:
        return DegenerateLimits(negligible=1.0, prohibitive=0.0, branch="conceal_always")
    g_inv = params.G.quantile(params.alpha_G)
    den = be - g_inv
    if den <= 0.0:
        raise AssumptionError(
            f"degenerate limit undefined: beta_e - Ginv(alpha_G) = {den} <= 0", report
        )
    value = (1.0 - params.gamma) / params.gamma * g_inv / den
    return DegenerateLimits(negligible=value, prohibitive=0.0, branch="interior")


# -- no-concession variant ---------------------------------------------------


def solve_no_concession(params: ModelParams, tol: float = DEFAULT_TOL) -> float:
    """Concealment threshold when conceding is not an option.

    Solves c = G(beta_e) - G(gamma'(c) * beta_e), unique on
    (c_lo, G(beta_e)); requires G(beta_e) > c_lo.
    """
    return no_concession_equilibrium(params, tol).c_tilde


def no_concession_equilibrium(params: ModelParams, tol: float = DEFAULT_TOL) -> NoConcessionEquilibrium:
    validate_tol(tol)
    be = model.beta_e(params)
    g_at_be = params.G.cdf(be)
    if not g_at_be > params.H.lo:
        raise DomainError(
            f"no-concession variant needs G(beta_e) > c_lo, got {g_at_be} <= {params.H.lo}"
        )
    f = lambda c: _threshold_residual(params, be, g_at_be, c)
    lo, hi = params.H.lo, g_at_be
    c_tilde, residual = _certify(f, find_root(f, lo, hi), lo, hi, tol, "no-concession")
    q = params.q
    gp = _gamma_prime(params.H.cdf(c_tilde), params.gamma)
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
