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
from .model import ModelParams
from .solver_mild import MildEquilibrium, NoConcessionEquilibrium
from .solver_severe import SevereEquilibrium

THETAS = ("G", "B", "N")
ACTIONS = ("none", "concede", "reveal", "conceal")
OBSERVATIONS = ("R", "NN", "concession")
# outcome code ((theta * 4 + action) * 3 + observation) * 2 + protested is the
# index into OUTCOMES, the "theta,action,observation,protested" keys, and into
# the per-field columns below, all from one product
_PRODUCT = tuple(itertools.product(THETAS, ACTIONS, OBSERVATIONS, ("false", "true")))
OUTCOMES = tuple(",".join(k) for k in _PRODUCT)
_THETA, _, _OBSERVATION, _PROTESTED = (np.array(column) for column in zip(*_PRODUCT))
_OUTCOME_INDEX = {key: code for code, key in enumerate(OUTCOMES)}
# SimStats frequency: (event, conditioning event), as masks over OUTCOMES
_FREQUENCIES = {
    "p_hat_revealed": (_OBSERVATION == "R", _THETA != "N"),
    "p_hat_R": (_PROTESTED == "true", _OBSERVATION == "R"),
    "p_hat_NN": (_PROTESTED == "true", _OBSERVATION == "NN"),
    "q_hat": (_THETA == "G", _THETA != "N"),
    "q_hat_prime": (_THETA == "G", _OBSERVATION == "R"),
}

CHUNK = 1 << 16  # episodes per block of a streamed run


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
    """Vectorized episode arrays for episodes [start, start+n) played under a
    MildEquilibrium, SevereEquilibrium or NoConcessionEquilibrium.

    A regime conceals at a cost c up to its cutoff (the knife edge is
    measure-zero and payoff-equivalent) and otherwise reveals or concedes.
    """
    if n < 1:
        raise DomainError(f"need at least one episode, got n={n}")
    u = episode_uniforms(seed, start, n)

    g, q = params.gamma, params.q
    theta = np.full(n, 2, dtype=np.int8)  # N
    theta[u[:, 0] < g] = 1  # B
    theta[u[:, 0] < g * q] = 0  # G
    c = params.H.quantile(u[:, 1])
    rho = params.G.quantile(u[:, 2])

    organized = theta != 2
    good = theta == 0
    if isinstance(eq, SevereEquilibrium):
        cutoff = np.where(good, eq.c_tilde_G, eq.c_tilde_B)
        reveals = good  # revealed repression identifies the good type
    elif isinstance(eq, MildEquilibrium):
        cutoff = eq.c_tilde
        # the good type reveals with probability kappa, which reproduces the
        # equilibrium reveal likelihood ratio, and concedes otherwise
        reveals = ~good | (u[:, 3] < eq.kappa)
    elif isinstance(eq, NoConcessionEquilibrium):
        cutoff = eq.c_tilde
        reveals = np.True_  # every type above its cutoff reveals
    else:
        raise DomainError(f"not a solved equilibrium: {type(eq).__name__}")
    conceal = organized & (c <= cutoff)
    in_open = organized & ~conceal
    reveal = in_open & reveals
    concede = in_open & ~reveals
    action = np.zeros(n, dtype=np.int8)  # none
    action[concede] = 1
    action[reveal] = 2
    action[conceal] = 3

    observation = np.full(n, 1, dtype=np.int8)  # NN
    observation[reveal] = 0  # R
    observation[concede] = 2  # concession

    rho_cut_R = model.rho_tilde(eq.mu_R, params)
    rho_cut_NN = model.rho_tilde(eq.mu_NN, params)
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


def _count(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise DomainError(f"{name} must be a non-negative integer, got {value!r}")
    return value


@dataclass(frozen=True)
class SimStats:
    """Empirical frequencies and binomial standard errors from one run.

    ``counts`` holds the episode count of each outcome, indexed like
    OUTCOMES. Each frequency is the share of its event within its
    conditioning event (_FREQUENCIES); with no conditioning episodes it and
    its error are None.
    """

    n_episodes: int
    counts: tuple[int, ...]
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

    def to_dict(self) -> dict:
        """Fields as JSON values; ``counts`` maps each outcome key with a
        non-zero count to it, in key order."""
        counts = {key: n for key, n in sorted(zip(OUTCOMES, self.counts)) if n}
        return {**dataclasses.asdict(self), "counts": counts}

    @classmethod
    def from_binned(cls, binned) -> "SimStats":
        """Stats of per-outcome episode counts, indexed like OUTCOMES."""
        counts = tuple(int(n) for n in binned)
        fields = {}
        for name, (event, within) in _FREQUENCIES.items():
            den = sum(itertools.compress(counts, within))
            p = sum(itertools.compress(counts, event & within)) / den if den else None
            fields[name] = p
            fields[f"se_{name}"] = None if p is None else float(np.sqrt(p * (1.0 - p) / den))
        return cls(n_episodes=sum(counts), counts=counts, **fields)

    @classmethod
    def from_arrays(cls, arrays: dict) -> "SimStats":
        """Stats of the episode arrays returned by ``simulate_arrays``."""
        return cls.from_binned(np.bincount(outcome_codes(arrays), minlength=len(OUTCOMES)))

    @classmethod
    def from_dict(cls, spec: dict) -> "SimStats":
        """Stats of a ``to_dict`` object. Its frequencies and errors are
        recomputed from ``n_episodes`` and ``counts``, which must be
        non-negative integers keyed by OUTCOMES and summing to n_episodes."""
        if not isinstance(spec, dict) or not isinstance(spec.get("counts"), dict):
            raise DomainError("need an object with a counts object")
        unknown = spec.keys() - {field.name for field in dataclasses.fields(cls)}
        if unknown:
            raise DomainError(f"unknown keys {sorted(unknown)}")
        binned = [0] * len(OUTCOMES)
        for key, n in spec["counts"].items():
            if key not in _OUTCOME_INDEX:
                raise DomainError(f"unknown outcome {key!r}")
            binned[_OUTCOME_INDEX[key]] = _count(f"counts[{key!r}]", n)
        if sum(binned) != _count("n_episodes", spec.get("n_episodes")):
            raise DomainError("episode counts do not sum to n_episodes")
        return cls.from_binned(binned)


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
    if stats.q_hat_prime is None:
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
