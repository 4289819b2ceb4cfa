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

import collections
import dataclasses
import functools
import itertools
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import DomainError, EstimationError, WorkerError
from .model import ModelParams
from .solver_mild import EstimationReport, estimate_plugin
from .solver import strategy

THETAS = ("G", "B", "N")
ACTIONS = ("none", "concede", "reveal", "conceal")
OBSERVATIONS = ("R", "NN", "concession")
# outcome code ((theta * 4 + action) * 3 + observation) * 2 + protested is the
# index into OUTCOMES, the "theta,action,observation,protested" keys, and into
# the per-field columns below, all from one product
_PRODUCT = tuple(itertools.product(THETAS, ACTIONS, OBSERVATIONS, ("false", "true")))
OUTCOMES = tuple(",".join(k) for k in _PRODUCT)
_THETA, _ACTION, _OBSERVATION, _PROTESTED = (np.array(column) for column in zip(*_PRODUCT))
_OUTCOME_INDEX = {key: code for code, key in enumerate(OUTCOMES)}
# SimStats frequency: (event, conditioning event), as masks over OUTCOMES
_FREQUENCIES = {
    "p_hat_revealed": (_OBSERVATION == "R", _THETA != "N"),
    "p_hat_R": (_PROTESTED == "true", _OBSERVATION == "R"),
    "p_hat_NN": (_PROTESTED == "true", _OBSERVATION == "NN"),
    "q_hat": (_THETA == "G", _THETA != "N"),
    "q_hat_prime": (_THETA == "G", _OBSERVATION == "R"),
}
# outcomes the game can produce, as a mask over OUTCOMES: exactly the
# unorganized activists take no action, each action has one observation, and
# no one protests a concession
_SEEN_AFTER = {"none": "NN", "concede": "concession", "reveal": "R", "conceal": "NN"}
_POSSIBLE = (
    ((_THETA == "N") == (_ACTION == "none"))
    & (_OBSERVATION == [_SEEN_AFTER[a] for a in _ACTION])
    & ~((_ACTION == "concede") & (_PROTESTED == "true"))
)

CHUNK = 1 << 16  # episodes per block of a streamed run
# values per step of decimal_cells: its temporaries, at most 24 bytes a value,
# then stay below malloc's 128 KiB mmap threshold, so their pages are reused
_SLICE = 1 << 12


# -- vectorized engine -------------------------------------------------------


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 2**128:
        raise DomainError(f"seed must be in [0, 2**128), got {seed}")


def episode_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """(count, 4) uniforms; row i is counter block start+i of Philox(seed)."""
    from numpy.random import Generator, Philox  # only a simulation needs numpy.random

    _check_seed(seed)
    bg = Philox(key=seed)
    if start:
        bg.advance(start)  # one counter block == one episode of 4 draws
    return Generator(bg).random((count, 4))


def simulate_arrays(params: ModelParams, eq, n: int, seed: int, start: int = 0) -> dict:
    """Vectorized episode arrays for episodes [start, start+n) played under
    the solved equilibrium eq, by its ``strategy``.

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
    good, bad = theta == 0, theta == 1
    _, (c_G, c_B), (r_G, r_B) = strategy(eq)
    conceal = (good & (c <= c_G)) | (bad & (c <= c_B))
    u3 = u[:, 3]  # the reveal mix: u3 < 1 always and u3 < 0 never
    reveals = (good & (u3 < r_G)) | (bad & (u3 < r_B))
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


def _play_block(params: ModelParams, eq, seed: int, end: int, encode, start: int):
    """(per-outcome counts, encode(arrays, codes) or None) of the episodes
    [start, min(start + CHUNK, end))."""
    arrays = simulate_arrays(params, eq, min(CHUNK, end - start), seed, start)
    codes = outcome_codes(arrays)
    binned = np.bincount(codes, minlength=len(OUTCOMES))
    return binned, None if encode is None else encode(arrays, codes)


def _worker_count(n_blocks: int) -> int:
    """Processes to play n_blocks on: one per usable CPU and at most one per
    block, or 1 (this process alone) where processes cannot be forked."""
    if not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, n_blocks)


def play_blocks(params: ModelParams, eq, n: int, seed: int, start: int = 0, encode=None):
    """(binned, text) per block of at most CHUNK episodes of [start, start+n),
    in block order.

    ``binned`` counts each block's episodes by outcome, indexed like
    OUTCOMES; ``text`` is ``encode(arrays, codes)`` of the block's
    ``simulate_arrays`` output and ``outcome_codes``, or None without
    ``encode``. Philox is counter-based, so the blocks hold exactly the
    episodes of one ``simulate_arrays(params, eq, n, seed, start)`` call
    wherever they are played: on a pool of forked processes, one per usable
    CPU, with at most two blocks per process in flight besides the one
    being yielded, or here when there is one block or one process. n and
    seed are checked on the call, before the first block is played. Close
    the generator to stop the pool early.
    """
    if n < 1:
        raise DomainError(f"need at least one episode, got n={n}")
    _check_seed(seed)
    starts = range(start, start + n, CHUNK)
    job = functools.partial(_play_block, params, eq, seed, start + n, encode)
    workers = _worker_count(-(-n // CHUNK))
    if workers == 1:
        return (job(s) for s in starts)
    return _pooled(job, starts, workers)


def _watch_parent(parent: int) -> None:
    """Initializer of a pool worker: Ctrl-C is left to the parent, which
    shuts the pool down, and the worker exits once the parent is gone, so a
    killed run leaves no process behind."""
    import signal  # only a pool worker needs it, so an import of repgame skips it

    signal.signal(signal.SIGINT, signal.SIG_IGN)

    def watch():
        while os.getppid() == parent:
            time.sleep(0.1)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _pooled(job, starts: range, workers: int):
    """``map(job, starts)`` on ``workers`` forked processes."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    import numpy.random  # episode_uniforms needs it: loaded here once, not in each forked worker

    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_watch_parent,
        initargs=(os.getpid(),),
    )
    try:
        pending = collections.deque()
        for s in starts:
            pending.append(pool.submit(job, s))
            if len(pending) > 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    except BrokenProcessPool as exc:
        raise WorkerError(f"a simulation worker process died: {exc}") from exc
    finally:
        pool.shutdown(cancel_futures=True)


# -- episode CSV cells ---------------------------------------------------------


@functools.cache
def cell_tables() -> tuple:
    """Lookup tables of ``decimal_cells``, built once per process:
    ``repgame simulate`` builds them before ``play_blocks`` forks its pool,
    so the workers inherit them.

    (pow10, ascii4, last4, marks, shift, keep): 10.0**s for s in [0, 15];
    '%04d' % k as a little-endian word and the end of its last non-zero
    digit (0 for k = 0), for k < 10**4; indexed by 2*s + negative, the
    bytes to subtract from the field's '0's for the point and the sign
    (as three words a row) and 8 times the cell's start in the field;
    indexed by end, the three words' masks of the field's first end bytes.
    """
    k = np.arange(10**4, dtype=np.uint64)
    digits = [k // 10 ** (3 - j) % 10 for j in range(4)]
    ascii4 = sum((d + ord("0")) << 8 * j for j, d in enumerate(digits))
    last4 = np.max([(j + 1) * (d != 0) for j, d in enumerate(digits)], axis=0)
    marks = np.zeros((16, 2, 24), dtype=np.uint8)
    start = np.zeros((16, 2), dtype=np.uint64)
    for s in range(16):
        marks[s, :, 17 - s] = ord("0") - ord(".")
        start[s] = min(16 - s, 5) - np.arange(2)
        marks[s, 1, start[s, 1]] = ord("0") - ord("-")
    keep = np.where(np.arange(24) < np.arange(19)[:, None], 0xFF, 0).astype(np.uint8)
    return (
        np.array([float(10**s) for s in range(16)]),
        ascii4,
        last4,
        np.ascontiguousarray(marks.reshape(32, 24).view("<u8").T),
        8 * start.ravel(),
        np.ascontiguousarray(keep.view("<u8").T),
    )


def decimal_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cells, rest) of a float64 array: cells is an 'S24' array whose
    element i holds ``'%.12g' % x[i]`` as bytes for every i but those in
    ``rest``, which are left for a scalar formatter.

    A value is left over unless its decimal exponent X is in [-4, 11] (so
    '%.12g' writes it without an exponent) and its 12-digit significand
    can be certified. With s = 11 - X, 10**s is exact, so y = |x| * 10**s
    is the exact product correctly rounded. Where y is in [1e11, 1e12),
    every half-integer is a double, so rounding cannot carry the product
    across one: unless y is a half-integer itself, rint(y) is the
    significand that the correctly rounded '%.12g' prints. Zeros,
    non-finite values, the exponent forms, a significand that rounds up to
    1e12 and y on a tie (about 2 in 10**4 uniform draws) are left over.

    Each cell is a slice of an 18-byte field: '%018d' of the significand
    with a 0 inserted after its first X + 1 digits, which becomes the
    point at byte X + 6; the cell starts at the '0' before the point for
    X < 0, otherwise at the first digit, one byte earlier with a '-' for a
    negative x, and ends at the last non-zero digit after the point, or
    before the point where there is none. The values are taken _SLICE at a
    time.
    """
    words = np.empty((len(x), 3), dtype="<u8")
    left = np.empty(len(x), dtype=bool)
    for i in range(0, len(x), _SLICE):
        left[i : i + _SLICE] = _fill_cells(x[i : i + _SLICE], words[i : i + _SLICE].T)
    return words.view("S24").ravel(), np.flatnonzero(left)


def _fill_cells(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Writes the cells of x to out, as three little-endian words a cell
    (shape (3, len(x))), and returns which values are left over."""
    pow10, ascii4, last4, marks, shift, keep = cell_tables()
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):  # at 0, inf and nan
        e = np.floor(np.log10(a))
        ok = (e >= -4) & (e <= 11)
        s = np.where(ok, 11 - e, 0).astype(np.intp)
        p = pow10[s]
        y = a * p
        r = np.rint(y)
        ok &= (y >= 1e11) & (r < 1e12) & (np.abs(y - r) < 0.5)
    r = np.where(ok, r, 1e11)
    # the floor is exact: r / p is at least 10**-s from the next integer
    v = (r + 9 * np.floor(r / p) * p).astype(np.int64)  # r with its point as a 0
    q6, q2 = v // 10**6, v // 100
    g0 = q6 // 10**4
    g1, g2, g3 = q6 - g0 * 10**4, q2 - q6 * 10**4, v - q2 * 100
    # the field, '%018d' % v: byte j is byte j % 8 of words[j // 8]
    words = np.empty((3, len(x)), dtype="<u8")
    words[0] = 0x3030303030 | ascii4[g0] >> 8 << 40
    words[1] = ascii4[g1] | ascii4[g2] << 32
    words[2] = ascii4[g3] >> 16
    end = 14 + last4[g3]  # just past the field's last non-zero digit
    z = np.flatnonzero(g3 == 0)
    end[z] = np.select(
        [g2[z] > 0, g1[z] > 0], [12 + last4[g2[z]], 8 + last4[g1[z]]], 4 + last4[g0[z]]
    )
    row = 2 * s + (x < 0)
    words -= marks[:, row]
    words &= keep[:, np.maximum(end, 17 - s)]  # a point with no digit after it goes too
    b = shift[row]
    np.right_shift(words, b, out=out)
    out[:2] |= words[1:] << 64 - b  # numpy shifts a word by 64 bits to 0
    return ~ok


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
        non-negative integers keyed by OUTCOMES and summing to n_episodes; an
        outcome the game cannot produce must have no count."""
        if not isinstance(spec, dict) or not isinstance(spec.get("counts"), dict):
            raise DomainError("need an object with a counts object")
        unknown = spec.keys() - {field.name for field in dataclasses.fields(cls)}
        if unknown:
            raise DomainError(f"unknown keys {sorted(unknown)}")
        binned = [0] * len(OUTCOMES)
        for key, n in spec["counts"].items():
            if key not in _OUTCOME_INDEX:
                raise DomainError(f"unknown outcome {key!r}")
            code = _OUTCOME_INDEX[key]
            binned[code] = _count(f"counts[{key!r}]", n)
            if binned[code] and not _POSSIBLE[code]:
                raise DomainError(f"outcome {key!r} cannot occur in the game")
        if sum(binned) != _count("n_episodes", spec.get("n_episodes")):
            raise DomainError("episode counts do not sum to n_episodes")
        return cls.from_binned(binned)


def run_simulation(params: ModelParams, eq, n: int, seed: int, start: int = 0) -> SimStats:
    """Play n independent episodes and aggregate; bit-reproducible given
    (seed, n, params, equilibrium). Holds the blocks in flight of
    ``play_blocks`` at a time."""
    return SimStats.from_binned(sum(binned for binned, _ in play_blocks(params, eq, n, seed, start)))


# -- estimation --------------------------------------------------------------


def estimate_from_sim(stats: SimStats) -> EstimationReport:
    """``estimate_plugin``'s report on a run's stats: total repression,
    concealment mass, and the effect bound.

    Requires at least one revealed-repression episode, so organized ones
    too; a sample with q_hat_prime >= q_hat is flagged rather than rejected,
    and the report is still emitted.
    """
    if stats.q_hat_prime is None:
        raise EstimationError("estimator undefined: no revealed-repression episodes")
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
