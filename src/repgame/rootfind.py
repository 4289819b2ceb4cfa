"""Bracketed root finding by the Illinois rule, for one equation or, in
lockstep, for a block of them.

The equilibrium equations solved in this package are strictly monotone in
the unknown, so a guaranteed sign-change bracket is enough; the steps
inside it only set the speed. Each step is one of three:

- an Illinois step: a regula falsi (secant) step on the bracket's ends,
  where an end that is kept twice in a row has its stored value halved
  (Dowell and Jarratt, *BIT* 11, 1971), so that neither end stalls;
- a minimum step: a secant point that falls within a quarter of the
  stopping width of an end is moved to that distance inside it, so that
  the last ulps do not go one at a time;
- a forced bisection, whenever the bracket has not halved over the last
  two steps.

The forced bisection bounds the worst case: the bracket at least halves
every three steps, so a search on [lo, hi] takes at most
2 + 3 * ceil(log2((hi - lo) / (4 * eps))) evaluations (152 on [0, 1]),
and never more than MAX_ITER + 2. A flat run then a jump comes close to
that bound; the package's equations take about 10 to 20.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import SolverError

MAX_ITER = 200
_EPS = 2.220446049250313e-16


def _stop_width(a: float, b: float) -> float:
    """Bracket width at which find_root stops: a few ulps of max(1, |a|, |b|)."""
    return 4.0 * _EPS * max(1.0, abs(a), abs(b))


def _bracket_error(lo: float, hi: float, fa: float = 0.0, fb: float = 0.0) -> SolverError:
    """find_root's rejection of [lo, hi]: empty, else not bracketed by the
    endpoint values fa, fb."""
    if not lo < hi:
        return SolverError(f"empty bracket [{lo}, {hi}]")
    return SolverError(f"root not bracketed on [{lo}, {hi}]: f(lo)={fa:.3e}, f(hi)={fb:.3e}")


def find_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of f on [lo, hi], where f(lo) and f(hi) have opposite signs.

    Converges the bracket down to a few ulps (well below any tolerance used
    by the callers, which assert their own residual bounds). Endpoint zeros
    are returned directly; a same-sign bracket raises SolverError.
    """
    if not lo < hi:
        raise _bracket_error(lo, hi)
    fa = f(lo)
    fb = f(hi)
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if (fa > 0.0) == (fb > 0.0):
        raise _bracket_error(lo, hi, fa, fb)
    # b keeps f(hi)'s sign: fa and fb are halved and may underflow to zero
    up = fb > 0.0
    a, b = lo, hi
    width_prev2 = width_prev = math.inf  # the widths two steps and one step back
    moved_a = moved_b = False  # which end the last step replaced
    for _ in range(MAX_ITER):
        width = b - a
        stop = _stop_width(a, b)
        if width <= stop:
            break
        denom = fb - fa
        x = b - width * (fb / denom) if denom != 0.0 else math.nan
        if width > 0.5 * width_prev2 or x != x:
            x = 0.5 * (a + b)  # slow progress, or no secant point: bisect
        elif x < a + 0.25 * stop:
            x = a + 0.25 * stop
        elif x > b - 0.25 * stop:
            x = b - 0.25 * stop
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == up:
            if moved_b:
                fa *= 0.5
            b, fb = x, fx
            moved_a, moved_b = False, True
        else:
            if moved_a:
                fb *= 0.5
            a, fa = x, fx
            moved_a, moved_b = True, False
        width_prev2, width_prev = width_prev, width
    return 0.5 * (a + b)


def find_roots(f: Callable[[np.ndarray], np.ndarray], lo, hi) -> np.ndarray:
    """``find_root`` on each row of the brackets ``lo``, ``hi`` at once, for
    an ``f`` that maps a column of points to the column of each row's value.

    Every row runs find_root's float operations and takes its branches, and
    is frozen once it returns, so each root is bit for bit the scalar one. A
    row that find_root would reject raises its SolverError, the first such
    row's. ``f`` is evaluated on every row at each step, so this pays only
    on blocks of many rows: its one caller is ``solver._lockstep``, for the
    blocks of ``solve_block``, and a search of one row runs find_root.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    fa, fb = f(lo), f(hi)
    zero_a = fa == 0.0
    zero_b = ~zero_a & (fb == 0.0)
    bad = ~(lo < hi) | (~zero_a & ~zero_b & ((fa > 0.0) == (fb > 0.0)))
    if bad.any():
        i = int(np.argmax(bad))
        raise _bracket_error(float(lo[i]), float(hi[i]), fa[i], fb[i])
    root = np.where(zero_a, lo, hi)
    active = ~(zero_a | zero_b)
    up = fb > 0.0
    a, b = lo, hi
    width_prev2 = width_prev = np.full(lo.shape, np.inf)
    moved_a = moved_b = np.zeros(lo.shape, dtype=bool)
    for _ in range(MAX_ITER):
        width = b - a
        mid = 0.5 * (a + b)
        # _stop_width: fmax skips a NaN after the 1.0, as Python's max does
        stop = 4.0 * _EPS * np.fmax(np.fmax(1.0, abs(a)), abs(b))
        done = active & (width <= stop)
        root[done] = mid[done]
        active &= ~done
        if not active.any():
            return root
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x = b - width * (fb / (fb - fa))  # NaN where find_root's denom is 0
        near_a, near_b = a + 0.25 * stop, b - 0.25 * stop
        x = np.where(x < near_a, near_a, np.where(x > near_b, near_b, x))
        x = np.where((width > 0.5 * width_prev2) | (x != x), mid, x)
        fx = f(x)
        hit = active & (fx == 0.0)
        root[hit] = x[hit]
        active &= ~hit
        to_b = active & ((fx > 0.0) == up)
        to_a = active & ~to_b
        fa = np.where(to_b & moved_b, 0.5 * fa, fa)
        fb = np.where(to_a & moved_a, 0.5 * fb, fb)
        b, fb = np.where(to_b, x, b), np.where(to_b, fx, fb)
        a, fa = np.where(to_a, x, a), np.where(to_a, fx, fa)
        moved_a, moved_b = to_a, to_b
        width_prev2, width_prev = width_prev, width
    root[active] = 0.5 * (a[active] + b[active])
    return root


def ulp_bracket(
    f: Callable[[float], float], x: float, lo: float, hi: float
) -> tuple[float, float] | None:
    """Adjacent floats a < b near find_root's answer x with f(a) <= 0 < f(b),
    for f increasing on [lo, hi]; None if find_root's final bracket around x
    holds no sign change (the root finder did not converge).

    find_root stops at a few ulps of max(1, |a|, |b|), which is many ulps of
    a root far below 1. Plain bisection here resolves a root of any
    magnitude to one ulp: at most about 1,100 steps, for a subnormal root.
    """
    w = _stop_width(x, x)
    a, b = max(lo, x - w), min(hi, x + w)
    if not f(a) <= 0.0 < f(b):
        return None
    while True:
        m = a + 0.5 * (b - a)
        if not a < m < b:
            return a, b
        if f(m) <= 0.0:
            a = m
        else:
            b = m
