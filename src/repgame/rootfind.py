"""Bracketed root finding: bisection refined by secant steps, for one
equation or, in lockstep, for a block of them.

The equilibrium equations solved in this package are strictly monotone in
the unknown, so a guaranteed sign-change bracket plus bisection is enough;
secant proposals inside the bracket only accelerate convergence. Whenever a
secant step fails to halve the bracket over two iterations, a bisection
step is forced, so the worst case is plain bisection at twice the iteration
count. Robustness over speed.
"""

from __future__ import annotations

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
    a, b = lo, hi
    width_prev2 = 2.0 * (b - a)
    width_prev = b - a
    for _ in range(MAX_ITER):
        width = b - a
        if width <= _stop_width(a, b):
            break
        if width > 0.5 * width_prev2:
            x = 0.5 * (a + b)  # slow progress: force bisection
        else:
            denom = fb - fa
            x = b - fb * (b - a) / denom if denom != 0.0 else 0.5 * (a + b)
            margin = 0.01 * width
            if not (a + margin <= x <= b - margin):
                x = 0.5 * (a + b)
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fb > 0.0):
            b, fb = x, fx
        else:
            a, fa = x, fx
        width_prev2, width_prev = width_prev, b - a
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
    a, b = lo, hi
    width_prev2 = 2.0 * (b - a)
    width_prev = b - a
    for _ in range(MAX_ITER):
        width = b - a
        mid = 0.5 * (a + b)
        # _stop_width: fmax skips a NaN after the 1.0, as Python's max does
        done = active & (width <= 4.0 * _EPS * np.fmax(np.fmax(1.0, abs(a)), abs(b)))
        root[done] = mid[done]
        active &= ~done
        if not active.any():
            return root
        denom = fb - fa
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x = np.where(denom != 0.0, b - fb * (b - a) / denom, mid)
        margin = 0.01 * width
        slow = (width > 0.5 * width_prev2) | ~((a + margin <= x) & (x <= b - margin))
        x = np.where(slow, mid, x)
        fx = f(x)
        hit = active & (fx == 0.0)
        root[hit] = x[hit]
        active &= ~hit
        to_b = active & ((fx > 0.0) == (fb > 0.0))
        to_a = active & ~to_b
        b, fb = np.where(to_b, x, b), np.where(to_b, fx, fb)
        a, fa = np.where(to_a, x, a), np.where(to_a, fx, fa)
        width_prev2, width_prev = width_prev, b - a
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
