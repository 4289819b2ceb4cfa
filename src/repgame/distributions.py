"""Bounded continuous cost distributions.

Three families on a compact support [lo, hi]: uniform, scaled beta, and
piecewise linear. Each exposes an exact CDF (clamped to 0/1 outside the
support), the generalized inverse (quantile), inverse-transform sampling,
and a strict first-order-stochastic-dominance comparison. All values are
immutable after construction and every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, read_field

FAMILIES = ("uniform", "scaled_beta", "piecewise_linear")

betainc = betaincinv = betaln = None  # bound by _load_beta_functions


def _load_beta_functions() -> None:
    """Bind scipy's incomplete-beta functions as module globals.

    Importing scipy.special costs about half of a cold CLI start, and only
    scaled_beta needs it, so it is deferred to the first scaled_beta built;
    the evaluation paths then read plain globals at no per-call cost.
    """
    global betainc, betaincinv, betaln
    if betainc is None:
        from scipy.special import betainc, betaincinv, betaln


def _knot(pair) -> tuple[float, float]:
    x, f = pair
    return float(x), float(f)


def _maybe_scalar(out: np.ndarray, x) -> float | np.ndarray:
    if np.ndim(x) == 0:
        return float(out)
    return out


def cdf_columns(x, lo, hi, is_beta, a, b) -> np.ndarray:
    """The clamped uniform or scaled_beta CDF at x, a scalar or a column:
    lo, hi, is_beta, a and b are one distribution's scalars, is_beta a
    bool, or one column per row, and a row with ``is_beta`` false is
    uniform and leaves its shapes a, b unused.

    These are ``BoundedCDF.cdf``'s scalar-path IEEE operations elementwise,
    so each value is bit for bit the scalar one; the clip keeps -0.0 and
    NaN, as the scalar clamp does. np.divide makes an all-scalar quotient a
    numpy float, whose clip method costs about half of np.clip's wrapper.
    """
    t = np.divide(x - lo, hi - lo).clip(0.0, 1.0)
    # a bool is tested without numpy: the block paths make hundreds of calls
    if isinstance(is_beta, bool):
        return betainc(a, b, t) if is_beta else t
    if is_beta.any():
        _load_beta_functions()
        t[is_beta] = betainc(a[is_beta], b[is_beta], t[is_beta])
    return t


def quantile_columns(p, lo, hi, is_beta, a, b) -> np.ndarray:
    """The uniform or scaled_beta quantile at each p in [0, 1], a column,
    of the distributions that ``cdf_columns`` takes. These are
    ``BoundedCDF.quantile``'s operations elementwise, so each value is bit
    for bit the scalar one; the caller checks the range of p."""
    t = np.asarray(p, dtype=float)
    if isinstance(is_beta, bool):
        if is_beta:
            t = _unit_quantile(a, b, np.atleast_1d(t))
    elif is_beta.any():
        _load_beta_functions()
        t = t.copy()
        t[is_beta] = _unit_quantile(a[is_beta], b[is_beta], t[is_beta])
    return lo + (hi - lo) * t


def cost_columns(lo, hi, is_beta, a, b) -> SimpleNamespace:
    """A column of uniform or scaled_beta distributions under BoundedCDF's
    names: lo, hi and a ``cdf_columns`` cdf and ``quantile_columns``
    quantile, as ``model.clauses`` reads a block of parameter sets;
    ``columns`` holds the five columns."""
    columns = (lo, hi, is_beta, a, b)
    return SimpleNamespace(
        lo=lo,
        hi=hi,
        columns=columns,
        cdf=lambda x: cdf_columns(x, *columns),
        quantile=lambda p: quantile_columns(p, *columns),
    )


def _take(shape, rows):
    """A beta shape at the selected ``rows``: itself if it is one scalar."""
    return shape[rows] if isinstance(shape, np.ndarray) else shape


def _unit_quantile(a, b, unit: np.ndarray) -> np.ndarray:
    """The Beta(a, b) quantile at each unit in [0, 1], with a and b scalars
    or columns beside unit."""
    t = np.atleast_1d(betaincinv(a, b, unit))
    # betaincinv underflows to NaN deep in a tail, and at rare interior p
    # returns exactly 0 or 1 (a = 1.1875, b = 2.0625 at p = cdf(0.15)); the
    # mirrored form is stable there (the lost tail mass is below 1 ulp)
    bad = ~np.isfinite(t) | ((t == 0.0) & (unit > 0.0)) | ((t == 1.0) & (unit < 1.0))
    if bad.any():
        t[bad] = 1.0 - betaincinv(_take(b, bad), _take(a, bad), 1.0 - unit[bad])
        still = ~np.isfinite(t)
        if still.any():
            t[still] = np.where(unit[still] >= 0.5, 1.0, 0.0)
    _newton_polish(a, b, unit, t)
    return t


def _newton_polish(a, b, p: np.ndarray, t: np.ndarray) -> None:
    """One Newton step on betainc(a, b, t) = p, in place, where 0 < p < 1 and
    0 < t < 1, with a and b scalars or columns beside p. betaincinv alone
    can miss by ~1e-9 (symmetric shapes near 1 at p near 0.5); a step is
    kept only if it is finite and inside (0, 1)."""
    inner = (p > 0.0) & (p < 1.0) & (t > 0.0) & (t < 1.0)
    ti, pi, a, b = t[inner], p[inner], _take(a, inner), _take(b, inner)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pdf = np.exp((a - 1.0) * np.log(ti) + (b - 1.0) * np.log1p(-ti) - betaln(a, b))
        step = ti - (betainc(a, b, ti) - pi) / pdf
    keep = np.isfinite(step) & (step > 0.0) & (step < 1.0)
    t[np.flatnonzero(inner)[keep]] = step[keep]


@dataclass(frozen=True)
class BoundedCDF:
    """A continuous distribution on [lo, hi] with a strictly increasing CDF.

    ``params`` is family specific: empty for uniform, the two beta shape
    parameters for scaled_beta, and the (x, F) knot pairs for
    piecewise_linear (first knot (lo, 0), last knot (hi, 1), strictly
    increasing in both coordinates).
    """

    family: str
    lo: float
    hi: float
    params: tuple = ()

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown distribution family {self.family!r}")
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise DomainError("support bounds must be finite")
        if not self.lo < self.hi:
            raise DomainError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.family == "uniform":
            if self.params:
                raise DomainError("uniform takes no shape parameters")
        elif self.family == "scaled_beta":
            if len(self.params) != 2:
                raise DomainError("scaled_beta needs shape parameters (a, b)")
            a, b = self.params
            if not (0 < a < np.inf and 0 < b < np.inf):
                raise DomainError(f"beta shapes must be finite and positive, got ({a}, {b})")
            _load_beta_functions()
        else:
            knots = self.params
            if len(knots) < 2:
                raise DomainError("piecewise_linear needs at least two knots")
            if not np.all(np.isfinite(knots)):
                raise DomainError("knot coordinates must be finite")
            xs = [k[0] for k in knots]
            fs = [k[1] for k in knots]
            if xs[0] != self.lo or xs[-1] != self.hi:
                raise DomainError("knot x-range must equal [lo, hi]")
            if fs[0] != 0.0 or fs[-1] != 1.0:
                raise DomainError("knot CDF values must run from 0 to 1")
            if any(x1 >= x2 for x1, x2 in zip(xs, xs[1:])):
                raise DomainError("knot x values must be strictly increasing")
            if any(f1 >= f2 for f1, f2 in zip(fs, fs[1:])):
                raise DomainError("knot CDF values must be strictly increasing")

    # -- constructors ------------------------------------------------------

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "BoundedCDF":
        return cls("uniform", float(lo), float(hi))

    @classmethod
    def scaled_beta(cls, lo: float, hi: float, a: float, b: float) -> "BoundedCDF":
        return cls("scaled_beta", float(lo), float(hi), (float(a), float(b)))

    @classmethod
    def piecewise_linear(cls, knots: Iterable[Sequence[float]]) -> "BoundedCDF":
        kt = tuple(read_field(f"knots[{i}]", _knot, k) for i, k in enumerate(knots))
        if len(kt) < 2:
            raise DomainError("piecewise_linear needs at least two knots")
        return cls("piecewise_linear", kt[0][0], kt[-1][0], kt)

    # -- evaluation --------------------------------------------------------

    def cdf(self, x):
        """Clamped CDF: 0 below the support, 1 above, exact inside."""
        if isinstance(x, float) and self.family != "piecewise_linear":
            # scalar fast path (np.float64 is a float): the array path's IEEE
            # operations without its numpy round trip; like np.clip, the
            # clamp keeps -0.0 and NaN
            t = (x - self.lo) / (self.hi - self.lo)
            t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
            if self.family == "uniform":
                return float(t)
            a, b = self.params
            return float(betainc(a, b, t))
        xs = np.asarray(x, dtype=float)
        if self.family == "piecewise_linear":
            kx, kf = self._knot_arrays()
            out = np.interp(xs, kx, kf)
        else:
            a, b = self.params or (1.0, 1.0)  # a uniform's shapes go unused
            out = cdf_columns(xs, self.lo, self.hi, self.family == "scaled_beta", a, b)
        return _maybe_scalar(out, x)

    def quantile(self, p):
        """Smallest x in [lo, hi] with cdf(x) >= p; endpoints at p = 0, 1."""
        if isinstance(p, float) and self.family == "uniform":
            # scalar fast path, as cdf's; NaN passes the range check, as below
            if p < 0.0 or p > 1.0:
                raise DomainError(f"quantile argument outside [0, 1]: {p!r}")
            return float(self.lo + (self.hi - self.lo) * p)
        ps = np.asarray(p, dtype=float)
        if np.any(ps < 0.0) or np.any(ps > 1.0):
            raise DomainError(f"quantile argument outside [0, 1]: {p!r}")
        if self.family == "piecewise_linear":
            kx, kf = self._knot_arrays()
            out = np.interp(ps, kf, kx)
        else:
            a, b = self.params or (1.0, 1.0)  # a uniform's shapes go unused
            out = quantile_columns(ps.ravel(), self.lo, self.hi, self.family == "scaled_beta", a, b)
            out = out.reshape(ps.shape)
        return _maybe_scalar(out, p)

    def sample(self, u):
        """Inverse-transform sample from a uniform variate in [0, 1)."""
        return self.quantile(u)

    def _knot_arrays(self):
        kx = np.array([k[0] for k in self.params])
        kf = np.array([k[1] for k in self.params])
        return kx, kf

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        if self.family == "uniform":
            return {"family": "uniform", "lo": self.lo, "hi": self.hi}
        if self.family == "scaled_beta":
            a, b = self.params
            return {"family": "scaled_beta", "lo": self.lo, "hi": self.hi, "a": a, "b": b}
        return {"family": "piecewise_linear", "knots": [list(k) for k in self.params]}

    @classmethod
    def from_dict(cls, spec: dict) -> "BoundedCDF":
        if not isinstance(spec, dict) or "family" not in spec:
            raise DomainError("distribution spec must be an object with a 'family' key")
        family = spec["family"]
        allowed = {
            "uniform": {"family", "lo", "hi"},
            "scaled_beta": {"family", "lo", "hi", "a", "b"},
            "piecewise_linear": {"family", "knots"},
        }
        if family not in allowed:
            raise DomainError(f"unknown distribution family {family!r}")
        extra = set(spec) - allowed[family]
        if extra:
            raise DomainError(f"unknown keys in {family} spec: {sorted(extra)}")
        missing = allowed[family] - set(spec)
        if missing:
            raise DomainError(f"missing keys in {family} spec: {sorted(missing)}")
        if family == "piecewise_linear":
            return cls.piecewise_linear(spec["knots"])
        numbers = {k: read_field(k, float, spec[k]) for k in ("lo", "hi", "a", "b") if k in spec}
        return cls.uniform(**numbers) if family == "uniform" else cls.scaled_beta(**numbers)


def fosd_dominates(d1: BoundedCDF, d2: BoundedCDF, grid_size: int = 1024) -> bool:
    """True iff d1 strictly first-order stochastically dominates d2.

    The convention is pointwise strictly smaller CDF: d1.cdf(x) < d2.cdf(x)
    at every interior grid point of the union support where both CDFs lie
    strictly inside (0, 1). Larger costs dominate.
    """
    if grid_size < 2:
        raise DomainError("grid_size must be at least 2")
    lo = min(d1.lo, d2.lo)
    hi = max(d1.hi, d2.hi)
    # interior points only: endpoints pin both CDFs to 0 or 1
    ts = np.arange(1, grid_size + 1) / (grid_size + 1)
    xs = lo + (hi - lo) * ts
    f1 = d1.cdf(xs)
    f2 = d2.cdf(xs)
    interior = (f1 > 0.0) & (f1 < 1.0) & (f2 > 0.0) & (f2 < 1.0)
    if not np.any(interior):
        return False
    return bool(np.all(f1[interior] < f2[interior]))
