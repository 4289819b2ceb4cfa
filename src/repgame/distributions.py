"""Bounded continuous cost distributions.

Three families on a compact support [lo, hi]: uniform, scaled beta, and
piecewise linear. Each exposes an exact CDF (clamped to 0/1 outside the
support), the generalized inverse (quantile), inverse-transform sampling,
and a strict first-order-stochastic-dominance comparison. All values are
immutable after construction and every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.special import betainc, betaincinv

from .errors import DomainError, read_field

FAMILIES = ("uniform", "scaled_beta", "piecewise_linear")


def _knot(pair) -> tuple[float, float]:
    x, f = pair
    return float(x), float(f)


def _maybe_scalar(out: np.ndarray, x) -> float | np.ndarray:
    if np.ndim(x) == 0:
        return float(out)
    return out


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
        xs = np.asarray(x, dtype=float)
        if self.family == "uniform":
            out = np.clip((xs - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        elif self.family == "scaled_beta":
            a, b = self.params
            t = np.clip((xs - self.lo) / (self.hi - self.lo), 0.0, 1.0)
            out = betainc(a, b, t)
        else:
            kx, kf = self._knot_arrays()
            out = np.interp(xs, kx, kf)
        return _maybe_scalar(out, x)

    def quantile(self, p):
        """Smallest x in [lo, hi] with cdf(x) >= p; endpoints at p = 0, 1."""
        ps = np.asarray(p, dtype=float)
        if np.any(ps < 0.0) or np.any(ps > 1.0):
            raise DomainError(f"quantile argument outside [0, 1]: {p!r}")
        if self.family == "uniform":
            out = self.lo + (self.hi - self.lo) * ps
        elif self.family == "scaled_beta":
            a, b = self.params
            unit = np.atleast_1d(np.asarray(ps, dtype=float))
            t = np.atleast_1d(betaincinv(a, b, unit))
            bad = ~np.isfinite(t)
            if bad.any():
                # betaincinv underflows to NaN deep in a tail; the mirrored
                # form is stable there (the lost tail mass is below 1 ulp)
                t[bad] = 1.0 - betaincinv(b, a, 1.0 - unit[bad])
                still = ~np.isfinite(t)
                if still.any():
                    t[still] = np.where(unit[still] >= 0.5, 1.0, 0.0)
            out = self.lo + (self.hi - self.lo) * t.reshape(np.shape(ps))
        else:
            kx, kf = self._knot_arrays()
            out = np.interp(ps, kf, kx)
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
