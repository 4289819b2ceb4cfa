"""Seeded Monte Carlo engine for playing a solved equilibrium.

Episodes are generated from a counter-based random stream (Philox keyed by
the seed): episode i consumes exactly the four draws of counter block i,
one per slot (type, concealment cost, protest cost, reveal mix). Episode
draws therefore depend only on (seed, episode index), so disjoint index
ranges can be generated independently, in any order, and merged into the
same totals as a single full run.

Observables recorded per episode match what an outside observer could see:
revealed repression, concession, or no news, plus whether a protest
occurred. The survey-analog estimates (q_hat from organized episodes,
q_hat_prime from revealed-repression episodes) use within-episode ground
truth, standing in for the public-opinion surveys the measurement strategy
assumes.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from . import model
from .errors import DomainError, EstimationError
from .model import Belief, ModelParams
from .solver_mild import MildEquilibrium, NoConcessionEquilibrium
from .solver_severe import SevereEquilibrium

THETAS = ("G", "B", "N")
ACTIONS = ("none", "concede", "reveal", "conceal")
OBSERVATIONS = ("R", "NN", "concession")
# "theta,action,observation,protested" key of each outcome code
# ((theta * 4 + action) * 3 + observation) * 2 + protested
OUTCOMES = tuple(
    ",".join(k) for k in itertools.product(THETAS, ACTIONS, OBSERVATIONS, ("false", "true"))
)

_VARIANTS = ("mild", "severe", "no-concession")

CHUNK = 1 << 16  # episodes per block of a streamed run


@dataclass(frozen=True)
class Strategy:
    """Regime strategy implied by a solved equilibrium.

    ``thresholds`` holds the concealment cutoffs: (c_tilde,) for the mild
    and no-concession variants, (c_tilde_B, c_tilde_G) for severe.
    ``reveal_mix`` is the mild-variant probability that a good-type regime
    above the cutoff reveals rather than concedes (equal to kappa, which
    reproduces the equilibrium reveal likelihood ratio); None otherwise.
    """

    variant: str
    thresholds: tuple[float, ...]
    reveal_mix: float | None = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise DomainError(f"unknown strategy variant {self.variant!r}")
        want = 2 if self.variant == "severe" else 1
        if len(self.thresholds) != want:
            raise DomainError(f"{self.variant} strategy needs {want} threshold(s)")
        if self.variant == "mild" and self.reveal_mix is None:
            raise DomainError("mild strategy needs a reveal_mix probability")


def make_strategy(eq) -> Strategy:
    if isinstance(eq, MildEquilibrium):
        return Strategy("mild", (eq.c_tilde,), eq.kappa)
    if isinstance(eq, SevereEquilibrium):
        return Strategy("severe", (eq.c_tilde_B, eq.c_tilde_G))
    if isinstance(eq, NoConcessionEquilibrium):
        return Strategy("no-concession", (eq.c_tilde,))
    raise DomainError(f"not a solved equilibrium: {type(eq).__name__}")


def equilibrium_posteriors(eq) -> tuple[Belief, Belief]:
    """(mu_R, mu_NN) pair the public plays against."""
    return eq.mu_R, eq.mu_NN


# -- vectorized engine -------------------------------------------------------


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 2**128:
        raise DomainError(f"seed must be in [0, 2**128), got {seed}")


def episode_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """(count, 4) uniforms; row i is counter block start+i of Philox(seed)."""
    _check_seed(seed)
    bg = Philox(key=seed)
    if start:
        bg.advance(start)  # one counter block == one episode of 4 draws
    return Generator(bg).random((count, 4))


def simulate_arrays(params: ModelParams, eq, n: int, seed: int, start: int = 0) -> dict:
    """Vectorized episode arrays for episodes [start, start+n)."""
    if n < 1:
        raise DomainError(f"need at least one episode, got n={n}")
    strategy = make_strategy(eq)
    mu_R, mu_NN = equilibrium_posteriors(eq)
    u = episode_uniforms(seed, start, n)

    g, q = params.gamma, params.q
    theta = np.full(n, 2, dtype=np.int8)  # N
    theta[u[:, 0] < g] = 1  # B
    theta[u[:, 0] < g * q] = 0  # G
    c = params.H.quantile(u[:, 1])
    rho = params.G.quantile(u[:, 2])

    organized = theta != 2
    good = theta == 0
    action = np.zeros(n, dtype=np.int8)  # none
    if strategy.variant == "severe":
        c_B, c_G = strategy.thresholds
        conceal = organized & (c <= np.where(good, c_G, c_B))
        reveal = organized & ~conceal & good
        concede = organized & ~conceal & ~good
    else:
        conceal = organized & (c <= strategy.thresholds[0])
        if strategy.variant == "mild":
            mix = u[:, 3] < strategy.reveal_mix
            reveal = organized & ~conceal & (~good | mix)
            concede = organized & ~conceal & good & ~mix
        else:
            reveal = organized & ~conceal
            concede = np.zeros(n, dtype=bool)
    action[concede] = 1
    action[reveal] = 2
    action[conceal] = 3

    observation = np.full(n, 1, dtype=np.int8)  # NN
    observation[reveal] = 0  # R
    observation[concede] = 2  # concession

    rho_cut_R = model.rho_tilde(mu_R, params)
    rho_cut_NN = model.rho_tilde(mu_NN, params)
    protested = np.where(
        observation == 0, rho <= rho_cut_R, (observation == 1) & (rho <= rho_cut_NN)
    )
    success = protested & organized & (action != 1)
    return {
        "theta": theta,
        "c": c,
        "rho": rho,
        "action": action,
        "observation": observation,
        "protested": protested,
        "success": success,
    }


def simulate_blocks(params: ModelParams, eq, n: int, seed: int, start: int = 0):
    """Episodes [start, start+n) as consecutive ``simulate_arrays`` blocks of
    at most CHUNK episodes.

    Philox is counter-based, so the blocks hold exactly the episodes of one
    ``simulate_arrays(params, eq, n, seed, start)`` call. n and seed are
    checked here, before the first block is drawn.
    """
    if n < 1:
        raise DomainError(f"need at least one episode, got n={n}")
    _check_seed(seed)
    return (
        simulate_arrays(params, eq, min(CHUNK, start + n - s), seed, s)
        for s in range(start, start + n, CHUNK)
    )


def outcome_codes(arrays: dict) -> np.ndarray:
    """Index into OUTCOMES of each episode of ``simulate_arrays`` output."""
    return (
        (arrays["theta"].astype(np.int64) * 4 + arrays["action"]) * 3 + arrays["observation"]
    ) * 2 + arrays["protested"]


@dataclass(frozen=True)
class SimStats:
    """Empirical frequencies and binomial standard errors from one run.

    ``counts`` maps "theta,action,observation,protested" to episode counts.
    Frequencies with empty denominators are None. p_hat_revealed, q_hat and
    their errors condition on organized episodes; q_hat_prime conditions on
    revealed-repression episodes; p_hat_R / p_hat_NN on the observation.
    """

    n_episodes: int
    counts: dict
    p_hat_revealed: float | None
    p_hat_R: float | None
    p_hat_NN: float | None
    q_hat: float | None
    q_hat_prime: float | None
    se_p_hat_revealed: float | None
    se_p_hat_R: float | None
    se_p_hat_NN: float | None
    se_q_hat: float | None
    se_q_hat_prime: float | None

    def _sum(self, theta=None, action=None, observation=None, protested=None) -> int:
        total = 0
        for key, cnt in self.counts.items():
            th, ac, ob, pr = key.split(",")
            if theta is not None and th != theta:
                continue
            if action is not None and ac != action:
                continue
            if observation is not None and ob != observation:
                continue
            if protested is not None and pr != ("true" if protested else "false"):
                continue
            total += cnt
        return total

    @property
    def n_organized(self) -> int:
        return self._sum(theta="G") + self._sum(theta="B")

    @property
    def n_revealed(self) -> int:
        return self._sum(observation="R")

    @property
    def n_no_news(self) -> int:
        return self._sum(observation="NN")

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "counts": dict(sorted(self.counts.items()))}

    @classmethod
    def from_counts(cls, n_episodes: int, counts: dict) -> "SimStats":
        if sum(counts.values()) != n_episodes:
            raise DomainError("episode counts do not sum to n_episodes")
        stub = cls(
            n_episodes, counts, None, None, None, None, None, None, None, None, None, None
        )

        def freq(num: int, den: int):
            if den == 0:
                return None, None
            p = num / den
            return p, float(np.sqrt(p * (1.0 - p) / den))

        n_org = stub.n_organized
        n_rev = stub.n_revealed
        n_nn = stub.n_no_news
        p_rev, se_rev = freq(n_rev, n_org)
        p_r, se_r = freq(stub._sum(observation="R", protested=True), n_rev)
        p_nn, se_nn = freq(stub._sum(observation="NN", protested=True), n_nn)
        q_hat, se_q = freq(stub._sum(theta="G"), n_org)
        q_p, se_qp = freq(stub._sum(theta="G", observation="R"), n_rev)
        return cls(
            n_episodes=n_episodes,
            counts=counts,
            p_hat_revealed=p_rev,
            p_hat_R=p_r,
            p_hat_NN=p_nn,
            q_hat=q_hat,
            q_hat_prime=q_p,
            se_p_hat_revealed=se_rev,
            se_p_hat_R=se_r,
            se_p_hat_NN=se_nn,
            se_q_hat=se_q,
            se_q_hat_prime=se_qp,
        )

    @classmethod
    def from_binned(cls, binned: np.ndarray) -> "SimStats":
        """Stats of per-outcome episode counts, indexed like OUTCOMES."""
        counts = {OUTCOMES[i]: int(binned[i]) for i in np.flatnonzero(binned)}
        return cls.from_counts(int(binned.sum()), counts)

    @classmethod
    def from_arrays(cls, arrays: dict) -> "SimStats":
        """Stats of the episode arrays returned by ``simulate_arrays``."""
        return cls.from_binned(np.bincount(outcome_codes(arrays), minlength=len(OUTCOMES)))

    @classmethod
    def from_dict(cls, spec: dict) -> "SimStats":
        return cls.from_counts(int(spec["n_episodes"]), {k: int(v) for k, v in spec["counts"].items()})


def run_simulation(params: ModelParams, eq, n: int, seed: int, start: int = 0) -> SimStats:
    """Play n independent episodes and aggregate; bit-reproducible given
    (seed, n, params, equilibrium). Holds one block of episodes at a time."""
    binned = sum(
        np.bincount(outcome_codes(block), minlength=len(OUTCOMES))
        for block in simulate_blocks(params, eq, n, seed, start)
    )
    return SimStats.from_binned(binned)


# -- estimation --------------------------------------------------------------


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
        return dataclasses.asdict(self)


def estimate_plugin(
    q_hat: float,
    q_prime_hat: float,
    p_hat: float,
    p_R_hat: float | None = None,
    p_NN_hat: float | None = None,
    se: dict | None = None,
) -> EstimationReport:
    """Estimation report from raw estimates (q_hat, q'_hat, p_hat, ...).

    ``se`` may carry standard errors for q, q_prime, p, p_R, p_NN; missing
    entries leave the corresponding delta-method errors as None.
    """
    if not 0.0 < q_hat < 1.0:
        raise EstimationError(f"q_hat must be interior to (0,1), got {q_hat}")
    flags: list[str] = []
    if q_prime_hat >= q_hat:
        flags.append("inconsistent-sample: q_hat_prime >= q_hat (finite-sample noise)")
    total_hat = 1.0 - (q_hat - q_prime_hat) / (1.0 - q_hat) * p_hat
    H_hat = 1.0 - (1.0 - q_prime_hat) / (1.0 - q_hat) * p_hat
    if not 0.0 <= H_hat <= 1.0:
        flags.append(f"H_hat outside [0,1]: {H_hat}")
    D_lower_hat = None
    if p_R_hat is not None and p_NN_hat is not None:
        D_lower_hat = p_NN_hat - p_R_hat
    else:
        flags.append("D_lower_hat unavailable: missing p_R_hat or p_NN_hat")

    se = se or {}
    se_total = se_H = se_D = None
    if all(k in se and se[k] is not None for k in ("q", "q_prime", "p")):
        one_m_q = 1.0 - q_hat
        d_q = -p_hat * (1.0 - q_prime_hat) / one_m_q**2
        d_qp = p_hat / one_m_q
        d_p_total = -(q_hat - q_prime_hat) / one_m_q
        d_p_H = -(1.0 - q_prime_hat) / one_m_q
        se_total = float(
            np.sqrt((d_q * se["q"]) ** 2 + (d_qp * se["q_prime"]) ** 2 + (d_p_total * se["p"]) ** 2)
        )
        se_H = float(
            np.sqrt((d_q * se["q"]) ** 2 + (d_qp * se["q_prime"]) ** 2 + (d_p_H * se["p"]) ** 2)
        )
    if (
        D_lower_hat is not None
        and se.get("p_R") is not None
        and se.get("p_NN") is not None
    ):
        se_D = float(np.sqrt(se["p_R"] ** 2 + se["p_NN"] ** 2))
    return EstimationReport(total_hat, H_hat, D_lower_hat, se_total, se_H, se_D, tuple(flags))


def estimate_from_sim(stats: SimStats) -> EstimationReport:
    """Recover total repression, concealment mass, and the effect bound.

    Requires at least one revealed-repression episode; a sample with
    q_hat_prime >= q_hat is flagged rather than rejected (finite-sample
    noise), and the report is still emitted.
    """
    if stats.n_revealed == 0:
        raise EstimationError("estimator undefined: no revealed-repression episodes")
    if stats.q_hat is None or not 0.0 < stats.q_hat < 1.0:
        raise EstimationError(f"estimator undefined: q_hat={stats.q_hat}")
    return estimate_plugin(
        stats.q_hat,
        stats.q_hat_prime,
        stats.p_hat_revealed,
        stats.p_hat_R,
        stats.p_hat_NN,
        se={
            "q": stats.se_q_hat,
            "q_prime": stats.se_q_hat_prime,
            "p": stats.se_p_hat_revealed,
            "p_R": stats.se_p_hat_R,
            "p_NN": stats.se_p_hat_NN,
        },
    )
