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
from dataclasses import dataclass, field, fields
from types import SimpleNamespace

import numpy as np

from .distributions import BoundedCDF, cost_columns
from .errors import AssumptionError, DomainError, RepgameError, read_field

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
        scalars = {k: getattr(self, k) for k in _SCALARS}
        return {**scalars, "G": self.G.to_dict(), "H": self.H.to_dict()}

    @classmethod
    def from_dict(cls, spec: dict) -> "ModelParams":
        keys = {*_SCALARS, "G", "H"}
        if not isinstance(spec, dict):
            raise DomainError("params spec must be an object")
        extra = set(spec) - keys
        if extra:
            raise DomainError(f"unknown parameter keys: {sorted(extra)}")
        missing = keys - set(spec)
        if missing:
            raise DomainError(f"missing parameter keys: {sorted(missing)}")
        return cls(
            **{k: read_field(k, float, spec[k]) for k in _SCALARS},
            G=read_field("G", BoundedCDF.from_dict, spec["G"]),
            H=read_field("H", BoundedCDF.from_dict, spec["H"]),
        )


# the six float fields, gamma .. alpha_B, in ModelParams order
_SCALARS = tuple(f.name for f in fields(ModelParams) if f.type == "float")


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


def prior(params: ModelParams) -> Belief:
    """Common prior over types: (gamma*q, gamma*(1-q), 1-gamma). Of a
    ``_block``, the columns under Belief's names, unchecked."""
    g = params.gamma
    mu_G, mu_B, mu_N = g * params.q, g * (1.0 - params.q), 1.0 - g
    if isinstance(params, ModelParams):
        return Belief(mu_G, mu_B, mu_N)
    return SimpleNamespace(mu_G=mu_G, mu_B=mu_B, mu_N=mu_N)


def beta_e(params: ModelParams) -> float:
    """Expected policy payoff from a successful revolt, q*beta_G + (1-q)*beta_B."""
    return params.q * params.beta_G + (1.0 - params.q) * params.beta_B


def rho_tilde(belief: Belief, params: ModelParams) -> float:
    """Protest-cost cutoff: the public protests iff rho <= rho_tilde(mu).
    Of a ``_block``, each row's, at a belief of columns."""
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


REGIMES = ("mild", "severe")
# the mild clauses that involve no part of H: where H degenerates the others
# fail by construction, so the relaxed solve and the degenerate limits keep these
H_FREE_MILD = ("alpha_G < alpha_B", "alpha_G < G(beta_e)", "G(beta_B) < alpha_G")


def clauses(regime: str, p) -> tuple:
    """``(name, lhs, rhs)`` of each strict clause ``lhs < rhs`` of the regime.

    ``p`` is a ModelParams, or a block of proposals as columns under the
    same names whose G.cdf and H.cdf work elementwise; each row's lhs and
    rhs are then bit for bit its ModelParams' own. The last mild clause
    keeps the probability of protest after no news away from zero: the
    lower edge of the protest-cost support must sit below the no-news cutoff
    implied by concealment at cost alpha_G.
    """
    be = beta_e(p)
    if regime == "mild":
        return (
            ("alpha_G < alpha_B", p.alpha_G, p.alpha_B),
            ("alpha_G < G(beta_e)", p.alpha_G, p.G.cdf(be)),
            ("alpha_G < c_hi", p.alpha_G, p.H.hi),
            ("c_lo < alpha_G", p.H.lo, p.alpha_G),
            ("G(beta_B) < alpha_G", p.G.cdf(p.beta_B), p.alpha_G),
            ("rho_lo < no-news protest bound", p.G.lo, _no_news_bound(p, be)),
        )
    g_at_betaG = p.G.cdf(p.beta_G)
    return (
        ("alpha_B < alpha_G", p.alpha_B, p.alpha_G),
        ("alpha_B < G(beta_e)", p.alpha_B, p.G.cdf(be)),
        ("G(beta_G) < alpha_G", g_at_betaG, p.alpha_G),
        ("alpha_G < c_hi", p.alpha_G, p.H.hi),
        ("c_lo < G(beta_G)", p.H.lo, g_at_betaG),
    )


def _no_news_bound(p, be):
    """be / (1 + (1 - gamma) / g_h) at g_h = gamma * H(alpha_G), and its limit
    +0.0 where g_h = 0 (be / inf is -0.0 for a negative be). A parameter set
    stays plain Python: a numpy call there costs half the check again."""
    g_h = p.gamma * p.H.cdf(p.alpha_G)
    if isinstance(g_h, float):
        return be / (1.0 + (1.0 - p.gamma) / g_h) if g_h > 0.0 else 0.0
    with np.errstate(divide="ignore"):
        return np.where(g_h > 0.0, be / (1.0 + (1.0 - p.gamma) / g_h), 0.0)


def holds(regime: str, p):
    """Whether every clause of ``clauses(regime, p)`` holds: a bool, or of
    a block, a column of them, each row's bit for bit its own."""
    ok = True
    for _, lhs, rhs in clauses(regime, p):
        ok = ok & (lhs < rhs)
    return ok


def _report(regime: str, params: ModelParams) -> AssumptionReport:
    # equality counts as failure: the clauses are strict inequalities
    checks = clauses(regime, params)
    return AssumptionReport(
        regime, tuple(ClauseCheck(n, float(lhs), float(rhs), bool(lhs < rhs)) for n, lhs, rhs in checks)
    )


def check_assumption_mild(params: ModelParams) -> AssumptionReport:
    """Mild-conflict validity check (six strict clauses)."""
    return _report("mild", params)


def check_assumption_severe(params: ModelParams) -> AssumptionReport:
    """Severe-conflict validity check (five strict clauses)."""
    return _report("severe", params)


def check_assumption(regime: str, params: ModelParams) -> AssumptionReport:
    """``check_assumption_<regime>(params)``, looked up by name at each call,
    so that a replaced module attribute is the one that runs."""
    return globals()[f"check_assumption_{regime}"](params)


def require(report: AssumptionReport, failed: list[str], what: str) -> None:
    """Raise an AssumptionError carrying ``report`` if ``failed`` names a clause."""
    if failed:
        raise AssumptionError(f"{what} failed: {failed}", report)


def require_regime(regime: str, params: ModelParams) -> ModelParams:
    """``params`` if ``check_assumption(regime, params)`` passes, else require's AssumptionError."""
    report = check_assumption(regime, params)
    require(report, report.failed_clauses(), f"{regime}-conflict assumption")
    return params


# -- blocks ------------------------------------------------------------------


def _block(points: list[ModelParams]) -> SimpleNamespace:
    """The points as columns under ModelParams' attribute names, as
    ``clauses`` takes them. A cost distribution that every point shares
    stays itself; one that varies becomes ``cost_columns``, which holds
    uniform and scaled_beta distributions only, so a varying
    piecewise-linear one raises DomainError."""
    block = {k: np.array([getattr(p, k) for p in points]) for k in _SCALARS}
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


def _rows(block: SimpleNamespace, rows, names=None) -> SimpleNamespace:
    """The points of a ``_block`` at the indices ``rows``, as a block of its
    attributes ``names``, or of all of them."""
    rows = np.asarray(rows, dtype=np.intp)  # a list once, not once per column

    def take(v):
        if isinstance(v, np.ndarray):
            return v[rows]
        if isinstance(v, SimpleNamespace):
            return cost_columns(*(c[rows] for c in v.columns))
        return v  # a distribution that every point shares

    return SimpleNamespace(**{k: take(getattr(block, k)) for k in names or vars(block)})


def _live_rows(step, block: SimpleNamespace, values: list, *columns: list) -> list:
    """``values``, each one that is not a RepgameError replaced by its row's
    result of ``step`` run on those rows alone: on their ``_rows`` of the
    ``_block`` block, or on the block itself when every row is live, and
    their entries of each list of columns."""
    live = [i for i, v in enumerate(values) if not isinstance(v, RepgameError)]
    out = list(values)
    if live:
        rows = block if len(live) == len(values) else _rows(block, live)
        for i, result in zip(live, step(rows, *([c[k] for k in live] for c in columns))):
            out[i] = result
    return out
