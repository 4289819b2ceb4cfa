"""Shared builders and independent oracles for the test suite.

The oracles here assemble the equilibrium equations from scratch (plain
bisection, quadratic closed forms, brute-force grids) so they stay
independent of the solver paths they certify.
"""

from __future__ import annotations

import math

import numpy as np

from repgame import BoundedCDF, ModelParams
from repgame.cli import format_float
from repgame.simulate import ACTIONS, OBSERVATIONS, THETAS


def make_p1(**overrides) -> ModelParams:
    """Mild-conflict benchmark: gamma=0.4, q=0.65, beta=(2.5, -1), alpha=(0.6, 0.7)."""
    base = dict(
        gamma=0.4,
        q=0.65,
        beta_G=2.5,
        beta_B=-1.0,
        alpha_G=0.6,
        alpha_B=0.7,
        G=BoundedCDF.uniform(0.0, 1.0),
        H=BoundedCDF.uniform(0.0, 1.0),
    )
    base.update(overrides)
    return ModelParams(**base)


def make_p2(**overrides) -> ModelParams:
    """Severe-conflict benchmark: gamma=0.4, q=0.5, beta=(0.9, 0.1), alpha=(0.95, 0.4)."""
    base = dict(
        gamma=0.4,
        q=0.5,
        beta_G=0.9,
        beta_B=0.1,
        alpha_G=0.95,
        alpha_B=0.4,
        G=BoundedCDF.uniform(0.0, 1.0),
        H=BoundedCDF.uniform(0.0, 1.0),
    )
    base.update(overrides)
    return ModelParams(**base)


def bisect(f, lo: float, hi: float, iters: int = 200) -> float:
    """Plain bisection, no secant refinement: the independent root oracle."""
    fa, fb = f(lo), f(hi)
    assert fa * fb <= 0.0, f"oracle bracket has no sign change: {fa}, {fb}"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fb > 0.0):
            hi, fb = mid, fm
        else:
            lo, fa = mid, fm
    return 0.5 * (lo + hi)


def mild_threshold_equation(params: ModelParams):
    """Residual of the concealment-threshold equation, assembled here."""
    be = params.q * params.beta_G + (1.0 - params.q) * params.beta_B

    def residual(c: float) -> float:
        h = params.H.cdf(c)
        gp = params.gamma * h / (params.gamma * h + 1.0 - params.gamma)
        return params.G.cdf(gp * be) - (params.alpha_G - c)

    return residual


def no_concession_equation(params: ModelParams):
    be = params.q * params.beta_G + (1.0 - params.q) * params.beta_B
    g_at_be = params.G.cdf(be)

    def residual(c: float) -> float:
        h = params.H.cdf(c)
        gp = params.gamma * h / (params.gamma * h + 1.0 - params.gamma)
        return c - (g_at_be - params.G.cdf(gp * be))

    return residual


def quad_root_positive(a: float, b: float, c: float) -> float:
    """Positive root of a*x^2 + b*x + c = 0."""
    disc = b * b - 4.0 * a * c
    assert disc >= 0.0
    return (-b + math.sqrt(disc)) / (2.0 * a)


def severe_indifference_residuals(params: ModelParams, c_B, c_G):
    """Residual pair of the severe two-threshold system, assembled here."""
    g, q = params.gamma, params.q
    h_G = params.H.cdf(c_G)
    h_B = params.H.cdf(c_B)
    num = g * (h_G * q * params.beta_G + h_B * (1.0 - q) * params.beta_B)
    den = g * (h_G * q + h_B * (1.0 - q)) + 1.0 - g
    p_nn = params.G.cdf(num / den)
    r_B = params.alpha_B - p_nn - c_B
    r_G = params.G.cdf(params.beta_G) - p_nn - c_G
    return r_B, r_G


def severe_grid_argmin(params: ModelParams, n: int = 1500) -> tuple[float, float, float]:
    """Brute 2-D scan oracle: argmin of the residual norm over the threshold box."""
    c_B = np.linspace(params.H.lo, params.alpha_B, n)
    c_G = np.linspace(params.H.lo, params.G.cdf(params.beta_G), n)
    BB, GG = np.meshgrid(c_B, c_G, indexing="ij")
    r_B, r_G = severe_indifference_residuals(params, BB, GG)
    norm = np.hypot(r_B, r_G)
    i, j = np.unravel_index(np.argmin(norm), norm.shape)
    return float(BB[i, j]), float(GG[i, j]), float(norm[i, j])


def severe_grid_zoom_oracle(params: ModelParams, rounds: int = 4, n: int = 400):
    """Grid fixed-point oracle refined by argmin zooming, resolution < 1e-6."""
    b_lo, b_hi = params.H.lo, params.alpha_B
    g_lo, g_hi = params.H.lo, params.G.cdf(params.beta_G)
    cb = cg = None
    for _ in range(rounds):
        c_B = np.linspace(b_lo, b_hi, n)
        c_G = np.linspace(g_lo, g_hi, n)
        BB, GG = np.meshgrid(c_B, c_G, indexing="ij")
        r_B, r_G = severe_indifference_residuals(params, BB, GG)
        i, j = np.unravel_index(np.argmin(np.hypot(r_B, r_G)), BB.shape)
        cb, cg = float(BB[i, j]), float(GG[i, j])
        db, dg = (b_hi - b_lo) / (n - 1), (g_hi - g_lo) / (n - 1)
        b_lo, b_hi = cb - 2 * db, cb + 2 * db
        g_lo, g_hi = cg - 2 * dg, cg + 2 * dg
    return cb, cg


def ks_distance(dist: BoundedCDF, samples: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between the empirical CDF and dist."""
    xs = np.sort(samples)
    n = xs.size
    cdf = dist.cdf(xs)
    upper = np.max(np.abs(np.arange(1, n + 1) / n - cdf))
    lower = np.max(np.abs(np.arange(0, n) / n - cdf))
    return float(max(upper, lower))


def reference_episodes_csv(arrays: dict) -> str:
    """Episode CSV of ``simulate_arrays`` output, encoded row by row with
    ``format_float`` on each float: the reference for the block encoder of
    ``repgame simulate --episodes-out``."""
    columns = ("theta", "c", "rho", "action", "observation", "protested", "success")
    rows = [",".join(columns) + "\n"]
    for th, c, rho, ac, ob, pr, su in zip(*(arrays[k].tolist() for k in columns)):
        # theta code 2 is N, an unorganized activist, whose cost c is left blank
        rows.append(
            f"{THETAS[th]},{'' if th == 2 else format_float(c)},{format_float(rho)},"
            f"{ACTIONS[ac]},{OBSERVATIONS[ob]},{'true' if pr else 'false'},"
            f"{'true' if su else 'false'}\n"
        )
    return "".join(rows)
