"""Model primitives: parameters, beliefs, and the public's protest rule.

The public protests whenever its protest cost rho falls below a cutoff that
is linear in its belief about the activist: rho_tilde(mu) = mu_G * beta_G +
mu_B * beta_B. Two parameter regimes are analyzed. Under mild conflict the
regime dislikes conceding to bad activists more than to good ones
(alpha_G < alpha_B); under severe conflict the ordering is reversed. Each
regime comes with a clause-by-clause validity check that returns structured
data instead of raising, so parameter sweeps can skip and record invalid
grid points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .distributions import BoundedCDF
from .errors import DomainError, read_field

BELIEF_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Game primitives.

    gamma: probability activists have a window of opportunity to organize.
    q: probability an organized activist is good.
    beta_G, beta_B: public payoff from good / bad policy change (beta_G >
        max(beta_B, 0); the status quo is normalized to 0 for the public).
    alpha_G, alpha_B: regime cost of conceding to a good / bad activist,
        both in (0, 1) (regime payoffs normalized to 1 for the status quo
        and 0 for a successful protest).
    G: distribution of the public's protest cost rho.
    H: distribution of the regime's concealment cost c.
    """

    gamma: float
    q: float
    beta_G: float
    beta_B: float
    alpha_G: float
    alpha_B: float
    G: BoundedCDF
    H: BoundedCDF

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise DomainError(f"gamma must be in (0,1), got {self.gamma}")
        if not 0.0 < self.q < 1.0:
            raise DomainError(f"q must be in (0,1), got {self.q}")
        if not (math.isfinite(self.beta_G) and math.isfinite(self.beta_B)):
            raise DomainError(
                f"beta_G and beta_B must be finite, got beta_G={self.beta_G}, beta_B={self.beta_B}"
            )
        if not self.beta_G > max(self.beta_B, 0.0):
            raise DomainError(
                f"beta_G must exceed max(beta_B, 0), got beta_G={self.beta_G}, beta_B={self.beta_B}"
            )
        if not 0.0 < self.alpha_G < 1.0:
            raise DomainError(f"alpha_G must be in (0,1), got {self.alpha_G}")
        if not 0.0 < self.alpha_B < 1.0:
            raise DomainError(f"alpha_B must be in (0,1), got {self.alpha_B}")
        if self.G.lo < 0.0:
            raise DomainError("protest costs must be nonnegative (G.lo >= 0)")
        if self.H.lo < 0.0:
            raise DomainError("concealment costs must be nonnegative (H.lo >= 0)")

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "q": self.q,
            "beta_G": self.beta_G,
            "beta_B": self.beta_B,
            "alpha_G": self.alpha_G,
            "alpha_B": self.alpha_B,
            "G": self.G.to_dict(),
            "H": self.H.to_dict(),
        }

    @classmethod
    def from_dict(cls, spec: dict) -> "ModelParams":
        keys = {"gamma", "q", "beta_G", "beta_B", "alpha_G", "alpha_B", "G", "H"}
        if not isinstance(spec, dict):
            raise DomainError("params spec must be an object")
        extra = set(spec) - keys
        if extra:
            raise DomainError(f"unknown parameter keys: {sorted(extra)}")
        missing = keys - set(spec)
        if missing:
            raise DomainError(f"missing parameter keys: {sorted(missing)}")
        scalars = ("gamma", "q", "beta_G", "beta_B", "alpha_G", "alpha_B")
        return cls(
            **{k: read_field(k, float, spec[k]) for k in scalars},
            G=read_field("G", BoundedCDF.from_dict, spec["G"]),
            H=read_field("H", BoundedCDF.from_dict, spec["H"]),
        )


@dataclass(frozen=True)
class Belief:
    """A point in the simplex over activist types (good, bad, unorganized)."""

    mu_G: float
    mu_B: float
    mu_N: float

    def __post_init__(self):
        if min(self.mu_G, self.mu_B, self.mu_N) < 0.0:
            raise DomainError(f"belief components must be nonnegative: {self}")
        if abs(self.mu_G + self.mu_B + self.mu_N - 1.0) > BELIEF_SUM_TOL:
            raise DomainError(f"belief components must sum to 1: {self}")

    @classmethod
    def normalized(cls, w_G: float, w_B: float, w_N: float) -> "Belief":
        total = w_G + w_B + w_N
        if total <= 0.0:
            raise DomainError("belief weights must have positive total mass")
        return cls(w_G / total, w_B / total, w_N / total)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.mu_G, self.mu_B, self.mu_N)

    def to_dict(self) -> dict:
        return {"mu_G": self.mu_G, "mu_B": self.mu_B, "mu_N": self.mu_N}


def prior(params: ModelParams) -> Belief:
    """Common prior over types: (gamma*q, gamma*(1-q), 1-gamma)."""
    g = params.gamma
    return Belief(g * params.q, g * (1.0 - params.q), 1.0 - g)


def beta_e(params: ModelParams) -> float:
    """Expected policy payoff from a successful revolt, q*beta_G + (1-q)*beta_B."""
    return params.q * params.beta_G + (1.0 - params.q) * params.beta_B


def rho_tilde(belief: Belief, params: ModelParams) -> float:
    """Protest-cost cutoff: the public protests iff rho <= rho_tilde(mu)."""
    return belief.mu_G * params.beta_G + belief.mu_B * params.beta_B


def protest_prob(belief: Belief, params: ModelParams) -> float:
    """Probability of protest under a belief: G evaluated at the cutoff."""
    return params.G.cdf(rho_tilde(belief, params))


# -- assumption checks -----------------------------------------------------


@dataclass(frozen=True)
class ClauseCheck:
    name: str
    lhs: float
    rhs: float
    passed: bool

    def to_dict(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs, "passed": self.passed}


@dataclass(frozen=True)
class AssumptionReport:
    regime: str
    clauses: tuple[ClauseCheck, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.clauses)

    def failed_clauses(self) -> list[str]:
        return [c.name for c in self.clauses if not c.passed]

    def to_dict(self) -> dict:
        return {
            "regime": self.regime,
            "ok": self.ok,
            "clauses": [c.to_dict() for c in self.clauses],
        }


def _strict_lt(name: str, lhs: float, rhs: float) -> ClauseCheck:
    # equality counts as failure: the clauses are strict inequalities
    return ClauseCheck(name, float(lhs), float(rhs), bool(lhs < rhs))


def check_assumption_mild(params: ModelParams) -> AssumptionReport:
    """Mild-conflict validity check (six strict clauses).

    Clause 6 keeps the probability of protest after no news away from zero:
    the lower edge of the protest-cost support must sit below the no-news
    cutoff implied by concealment at cost alpha_G.
    """
    be = beta_e(params)
    h_at_alpha = params.H.cdf(params.alpha_G)
    if h_at_alpha > 0.0:
        nn_bound = be / (1.0 + (1.0 - params.gamma) / (params.gamma * h_at_alpha))
    else:
        nn_bound = 0.0  # limit of the expression as H(alpha_G) -> 0
    clauses = (
        _strict_lt("alpha_G < alpha_B", params.alpha_G, params.alpha_B),
        _strict_lt("alpha_G < G(beta_e)", params.alpha_G, params.G.cdf(be)),
        _strict_lt("alpha_G < c_hi", params.alpha_G, params.H.hi),
        _strict_lt("c_lo < alpha_G", params.H.lo, params.alpha_G),
        _strict_lt("G(beta_B) < alpha_G", params.G.cdf(params.beta_B), params.alpha_G),
        _strict_lt("rho_lo < no-news protest bound", params.G.lo, nn_bound),
    )
    return AssumptionReport("mild", clauses)


def check_assumption_severe(params: ModelParams) -> AssumptionReport:
    """Severe-conflict validity check (five strict clauses)."""
    be = beta_e(params)
    g_at_betaG = params.G.cdf(params.beta_G)
    clauses = (
        _strict_lt("alpha_B < alpha_G", params.alpha_B, params.alpha_G),
        _strict_lt("alpha_B < G(beta_e)", params.alpha_B, params.G.cdf(be)),
        _strict_lt("G(beta_G) < alpha_G", g_at_betaG, params.alpha_G),
        _strict_lt("alpha_G < c_hi", params.alpha_G, params.H.hi),
        _strict_lt("c_lo < G(beta_G)", params.H.lo, g_at_betaG),
    )
    return AssumptionReport("severe", clauses)
