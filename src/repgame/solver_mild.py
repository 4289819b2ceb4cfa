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
brackets the root, the root search runs on that bracket and certifies the
root, and ``mild_equilibrium`` builds the equilibrium at it. The
no-concession variant, in which the regime cannot concede, runs the same
three steps with its own target: ``no_concession_bracket``, the search and
``no_concession_build``. The bracket and the build are column statements
over a ``model._block`` of points, each row bit for bit its point's own,
and a row that an earlier step failed keeps its error; ``solver.solve_block``
runs and certifies the search between them, and a single solve is a block
of one point.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import asdict, dataclass, fields
from types import SimpleNamespace

import numpy as np

from . import model
from .errors import (
    AssumptionError,
    DomainError,
    EstimationError,
    InconsistentInputsError,
    SolverError,
    attempt,
)
from .model import Belief, ModelParams

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


def _require_h_free(params: ModelParams) -> model.AssumptionReport:
    """The mild check of ``params``, if every clause that involves no part
    of H passes, else require's AssumptionError."""
    report = model.check_assumption("mild", params)
    failed = [name for name in report.failed_clauses() if name in model.H_FREE_MILD]
    model.require(report, failed, "non-H mild clauses")
    return report


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


def threshold_bracket(p, relaxed: bool = False) -> list:
    """Each row's [lo, hi] with the threshold equation's root inside, for a
    ``model._block`` p of checked points: the first step of a mild solve
    after its check. A row is its pair of floats, or the SolverError of an
    equation that its ends do not bracket. ``relaxed`` widens each
    bracket's lower end to 0."""
    hi = p.alpha_G
    lo = np.broadcast_to(0.0 if relaxed else p.H.lo, hi.shape)
    f = threshold_equation(p)
    f_lo, f_hi = f(lo), f(hi)
    pad_lo, pad_hi = lo + _BRACKET_PAD, hi - _BRACKET_PAD
    padded = (f(pad_lo) < 0.0) & (0.0 < f(pad_hi))
    out = []
    for row in zip(*(v.tolist() for v in (lo, hi, f_lo, f_hi, pad_lo, pad_hi, padded))):
        a, b, f_a, f_b, pad_a, pad_b, pad = row
        if f_a > 0.0 or f_b < 0.0:
            # numerically impossible under the assumption check, guarded anyway
            out.append(SolverError(f"threshold equation not bracketed: f({a})={f_a}, f({b})={f_b}"))
        else:
            out.append((pad_a, pad_b) if pad else (a, b))
    return out


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

    ``solve_block`` on a block of one point: raises AssumptionError when the
    mild-conflict check fails, and SolverError if any equilibrium identity
    fails to certify at the requested tolerance (which would indicate a
    bug, not bad inputs).
    """
    from .solver import solve_one  # the solve path imports this module

    return solve_one("mild", params, tol, relaxed)


_PROBABILITIES = tuple(f.name for f in fields(RepressionProbabilities))
# one row of mild_equilibrium's columns: the floats that its checks and its
# equilibrium read
_Row = namedtuple(
    "_Row",
    "c_tilde residual gamma_prime nn_G nn_B nn_N g_inv num den kappa r_G r_B r_N "
    "revealed_alt total_alt p_R p_NN p_prior " + " ".join(_PROBABILITIES),
)


def mild_equilibrium(p, points: list, roots: list, tol: float, relaxed: bool = False) -> list:
    """The equilibrium of each row of the ``model._block`` p of ``points``,
    at the row's root of the threshold equation as ``solver._certify_roots``
    gives it, the certified (c_tilde, residual): the last step of a mild
    solve. A row whose root is a RepgameError, its bracket's, its search's
    or its certificate's, keeps it.

    c_tilde must lie inside (H.lo, alpha_G) unless ``relaxed``, and the
    derived quantities are built in columns, with their identities certified
    at tol. A row is its MildEquilibrium, or the first error of these checks
    in this order, each check made on the row's own floats.
    """
    guard = max(10.0 * tol, 1e-12)

    def build(p, roots: list, points: list) -> list:
        c, residual = zip(*roots)
        columns = _equilibrium_columns(p, np.array(c))
        rows = zip(points, zip(c, residual, *(v.tolist() for v in columns)))
        return [attempt(_equilibrium, params, _Row._make(r), relaxed, guard) for params, r in rows]

    return model._live_rows(build, p, roots, roots, points)


def _equilibrium_columns(p, c_tilde: np.ndarray) -> tuple:
    """The columns of ``_Row`` after c_tilde and its residual, of the block
    p at the thresholds c_tilde: each the scalar build's IEEE operations,
    elementwise."""
    be = model.beta_e(p)
    h_mass, gp, mu_NN = _no_news(p, c_tilde)
    q = p.q
    g_inv = p.G.quantile(p.alpha_G)
    # kappa, the odds of publicly repressing a good versus a bad activist,
    # is defined where g_inv lies inside (beta_B, beta_G): num, den > 0
    num, den = g_inv - p.beta_B, p.beta_G - g_inv
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = (1.0 - q) / q * num / den
        # mu_R = Belief.normalized(kappa * q, 1 - q, 0)
        w_G, w_B = kappa * q, 1.0 - q
        w = w_G + w_B + 0.0
        mu_R = SimpleNamespace(mu_G=w_G / w, mu_B=w_B / w, mu_N=0.0 / w)
        probs = _probabilities(q, (h_mass, h_mass), (kappa, 1.0))
        # the same probabilities written directly in the payoff parameters
        not_concealed = 1.0 - h_mass
        revealed_alt = (p.beta_G - p.beta_B) / den * (1.0 - q) * not_concealed
        total_alt = 1.0 - (be - g_inv) / den * not_concealed
    p_R, p_NN, p_prior = (model.protest_prob(mu, p) for mu in (mu_R, mu_NN, model.prior(p)))
    return (
        gp,
        *vars(mu_NN).values(),
        g_inv,
        num,
        den,
        kappa,
        *vars(mu_R).values(),
        revealed_alt,
        total_alt,
        p_R,
        p_NN,
        p_prior,
        *vars(probs).values(),
    )


def _no_news(p, c_tilde: np.ndarray) -> tuple:
    """(H(c_tilde), gamma', the no-news posterior) of the block p when both
    types conceal below c_tilde, in columns."""
    h_mass = p.H.cdf(c_tilde)
    gp = _gamma_prime(h_mass, p.gamma)
    return h_mass, gp, SimpleNamespace(mu_G=gp * p.q, mu_B=gp * (1.0 - p.q), mu_N=1.0 - gp)


def _equilibrium(params: ModelParams, r: _Row, relaxed: bool, guard: float) -> MildEquilibrium:
    """The MildEquilibrium of the row r of ``mild_equilibrium``'s columns,
    whose residual is certified, or the first error of its other checks."""
    if not relaxed and not params.H.lo < r.c_tilde < params.alpha_G:
        raise SolverError(f"threshold {r.c_tilde} escaped ({params.H.lo}, {params.alpha_G})")
    mu_NN = Belief(r.nn_G, r.nn_B, r.nn_N)
    if r.den <= 0.0 or r.num <= 0.0:
        raise SolverError(
            f"reveal likelihood ratio undefined: Ginv(alpha_G)={r.g_inv} "
            f"not inside (beta_B, beta_G)"
        )
    # Belief.normalized's positive-total check passes: kappa > 0 here
    mu_R = Belief(r.r_G, r.r_B, r.r_N)
    revealed, total = r.prob_revealed, r.prob_total
    if abs(revealed - r.revealed_alt) > _IDENTITY_TOL or abs(total - r.total_alt) > _IDENTITY_TOL:
        raise SolverError(
            f"probability closed forms disagree: revealed {revealed} vs {r.revealed_alt}, "
            f"total {total} vs {r.total_alt}"
        )
    if abs(r.p_R - params.alpha_G) > guard:
        raise SolverError(f"protest-after-reveal {r.p_R} != alpha_G {params.alpha_G}")
    if abs(r.p_NN - (params.alpha_G - r.c_tilde)) > guard:
        raise SolverError(f"protest-after-no-news {r.p_NN} != alpha_G - c_tilde")
    return MildEquilibrium(
        c_tilde=r.c_tilde,
        kappa=r.kappa,
        gamma_prime=r.gamma_prime,
        mu_R=mu_R,
        mu_NN=mu_NN,
        q_prime=mu_R.mu_G,
        **{name: getattr(r, name) for name in _PROBABILITIES},
        p_R=r.p_R,
        p_NN=r.p_NN,
        p_prior=r.p_prior,
        D=r.p_prior - r.p_R,
        D_lower=-r.c_tilde,  # = p_NN - p_R, certified above
        residual=r.residual,
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
    report = _require_h_free(params)
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


def no_concession_equation(params):
    """``threshold_equation`` of the no-concession variant, whose revealed
    repression leaves the public at the prior odds of the types: protest
    after it has probability G(beta_e)."""
    be = model.beta_e(params)
    target = params.G.cdf(be)
    return lambda c: _threshold_residual(params, be, target, c)


def no_concession_bracket(p) -> list:
    """Each row's [H.lo, G(beta_e)], for a ``model._block`` p: the first step
    of a no-concession solve. A row is its pair of floats, or the
    DomainError of a G(beta_e) not above H.lo."""
    g_at_be = p.G.cdf(model.beta_e(p))
    error = "no-concession variant needs G(beta_e) > c_lo, got {} <= {}"
    lows = np.broadcast_to(p.H.lo, g_at_be.shape).tolist()
    return [(lo, g) if g > lo else DomainError(error.format(g, lo)) for lo, g in zip(lows, g_at_be.tolist())]


def no_concession_build(p, points: list, roots: list) -> list:
    """``mild_equilibrium`` of the no-concession variant, whose certified
    roots are its only check: at each, c_tilde, mu_R = (q, 1 - q, 0), the
    no-news posterior and the three protest probabilities, in columns."""

    def build(p, roots: list, points: list) -> list:
        c, residual = zip(*roots)
        mu_NN = _no_news(p, np.array(c))[2]
        mu_R = SimpleNamespace(mu_G=p.q, mu_B=1.0 - p.q, mu_N=0.0)
        protest = (model.protest_prob(mu, p) for mu in (mu_R, mu_NN, model.prior(p)))
        columns = zip(*(v.tolist() for v in (*vars(mu_NN).values(), *protest)))
        rows = zip((x.q for x in points), c, residual, columns)
        def equilibrium(q, c_i, res, r):  # mu_NN's Belief check is the one that can fail
            return NoConcessionEquilibrium(c_i, Belief(q, 1.0 - q, 0.0), Belief(*r[:3]), *r[3:], res)

        return [attempt(equilibrium, *row) for row in rows]

    return model._live_rows(build, p, roots, roots, points)


def solve_no_concession(params: ModelParams, tol: float = DEFAULT_TOL) -> float:
    """Concealment threshold when conceding is not an option.

    Solves c = G(beta_e) - G(gamma'(c) * beta_e), unique on
    (c_lo, G(beta_e)); requires G(beta_e) > c_lo.
    """
    return no_concession_equilibrium(params, tol).c_tilde


def no_concession_equilibrium(params: ModelParams, tol: float = DEFAULT_TOL) -> NoConcessionEquilibrium:
    """The no-concession equilibrium: ``solve_block`` on a block of one point."""
    from .solver import solve_one  # the solve path imports this module

    return solve_one("no-concession", params, tol)
