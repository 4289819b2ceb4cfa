"""The lockstep root search against the scalar one, row by row, and the
step rule's evaluation counts.

Each row's function is built from +, -, * and comparisons only, so numpy's
elementwise values are bit for bit Python's and any difference in a root
comes from the search itself.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_p1
from repgame import model, solver, solver_mild, sweep, verify
from repgame.errors import SolverError
from repgame.rootfind import _EPS, MAX_ITER, find_root, find_roots


def _scalar_f(s, r, c1, c3, step):
    """s * (c1 d + c3 d^3 + step sign(d)) at d = x - r: monotone in x."""

    def f(x):
        d = x - r
        sign = (1.0 if d > 0.0 else 0.0) - (1.0 if d < 0.0 else 0.0)
        return s * (c1 * d + c3 * d * d * d + step * sign)

    return f


def _column_f(s, r, c1, c3, step):
    s, r, c1, c3, step = (np.array(v, dtype=float) for v in (s, r, c1, c3, step))

    def f(x):
        d = x - r
        sign = np.where(d > 0.0, 1.0, 0.0) - np.where(d < 0.0, 1.0, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            return s * (c1 * d + c3 * d * d * d + step * sign)

    return f


def _evaluations(f, lo, hi) -> int:
    """How many times find_root evaluates f on [lo, hi]."""
    n = []
    find_root(lambda x: n.append(x) or f(x), lo, hi)
    return len(n)


def _scalar_outcome(row):
    lo, hi, *coeffs = row
    try:
        return find_root(_scalar_f(*coeffs), lo, hi)
    except SolverError as exc:
        return exc


def assert_matches_scalar(rows):
    """find_roots on the rows returns each row's find_root root, bit for bit,
    or raises the first failing row's SolverError text."""
    want = [_scalar_outcome(row) for row in rows]
    lo, hi, *coeffs = zip(*rows)
    failed = [w for w in want if isinstance(w, SolverError)]
    if failed:
        with pytest.raises(SolverError) as exc:
            find_roots(_column_f(*coeffs), lo, hi)
        assert str(exc.value) == str(failed[0])
        return
    got = find_roots(_column_f(*coeffs), lo, hi)
    assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64)), (got, want)


@st.composite
def rows(draw):
    lo = draw(st.one_of(st.floats(-1e3, 1e3), st.sampled_from([-1e300, 0.0, -0.0, 1e-300])))
    hi = lo + draw(st.one_of(st.floats(1e-9, 1e3), st.sampled_from([1e300, 1e-300])))
    where = draw(st.sampled_from(["lo", "hi", "mid", "inside", "inside", "inside", "outside"]))
    frac = draw(st.floats(0.0, 1.0))
    r = {
        "lo": lo,
        "hi": hi,
        "mid": 0.5 * (lo + hi),
        "inside": lo + frac * (hi - lo),
        "outside": hi + 1.0 + frac,
    }[where]
    s = draw(st.sampled_from([1.0, -1.0]))
    c1 = draw(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)))
    c3 = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e3)))
    step = draw(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)))
    return (lo, hi, s, r, c1, c3, step)


@given(block=st.lists(rows(), min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_find_roots_is_find_root_per_row(block):
    assert_matches_scalar(block)


class TestRows:
    def test_endpoint_zeros(self):
        # f(lo) = 0 returns lo, f(hi) = 0 returns hi, and f = 0 on both ends lo
        assert_matches_scalar([
            (0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0),
            (0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0),
            (-2.0, 3.0, 1.0, 0.5, 0.0, 0.0, 0.0),
        ])

    def test_exact_zero_at_an_iterate(self):
        # the first secant step lands on the root 0.25 exactly
        evals = []
        f = _scalar_f(1.0, 0.25, 1.0, 0.0, 0.0)
        assert find_root(lambda x: evals.append(x) or f(x), 0.0, 1.0) == 0.25
        assert evals == [0.0, 1.0, 0.25]
        assert_matches_scalar([
            (0.0, 1.0, 1.0, 0.25, 1.0, 0.0, 0.0),
            (0.0, 1.0, 1.0, 0.3, 1.0, 5.0, 0.0),
        ])

    def test_rows_of_very_different_speeds(self):
        block = [
            (0.0, 1.0, 1.0, 0.25, 1.0, 0.0, 0.0),  # one step
            (0.0, 1.0, -1.0, 0.3, 1.0, 2.0, 0.0),  # Illinois steps
            (-1.0, 1.0, 1.0, 0.123, 0.0, 0.0, 1.0),  # a step
            (-1e3, 1e3, 1.0, 0.1, 0.0, 1.0, 0.0),  # triple roots: paced by
            (-1.0, 1.0, 1.0, 0.7, 0.0, 1.0, 0.0),  # the forced bisections
        ]
        counts = [_evaluations(_scalar_f(*coeffs), lo, hi) for lo, hi, *coeffs in block]
        assert counts[0] == 3 and max(counts[:3]) < 50 and min(counts[3:]) > 100
        assert_matches_scalar(block)

    def test_row_that_exhausts_max_iter(self):
        # (x - 1)^3 overflows to +-inf beyond about 5.6e102, where every
        # secant point is NaN and the step is a bisection: MAX_ITER of them
        # leave [-1e300, 1e300] far wider than find_root's stopping width
        row = (-1e300, 1e300, 1.0, 1.0, 0.0, 1.0, 0.0)
        assert _evaluations(_scalar_f(*row[2:]), row[0], row[1]) == MAX_ITER + 2
        assert_matches_scalar([row, (0.0, 1.0, 1.0, 0.3, 1.0, 0.0, 0.0)])


class TestErrors:
    @pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (2.0, 1.0), (float("nan"), 1.0)])
    def test_empty_bracket(self, lo, hi):
        assert_matches_scalar([
            (0.0, 1.0, 1.0, 0.5, 1.0, 0.0, 0.0),
            (lo, hi, 1.0, 0.5, 1.0, 0.0, 0.0),
        ])
        with pytest.raises(SolverError, match=r"^empty bracket \["):
            find_roots(lambda x: x, [lo], [hi])

    def test_unbracketed(self):
        assert_matches_scalar([
            (0.0, 1.0, 1.0, 0.5, 1.0, 0.0, 0.0),
            (0.0, 1.0, 1.0, 2.0, 1.0, 0.0, 0.0),
        ])
        with pytest.raises(SolverError) as exc:
            find_roots(_column_f([1.0], [2.0], [1.0], [0.0], [0.0]), [0.0], [1.0])
        want = "root not bracketed on [0.0, 1.0]: f(lo)=-2.000e+00, f(hi)=-1.000e+00"
        assert str(exc.value) == want

    def test_first_failing_row_in_order(self):
        # an unbracketed row before an empty one reports itself, as a loop of
        # find_root calls would
        unbracketed = (0.0, 1.0, 1.0, 2.0, 1.0, 0.0, 0.0)
        empty = (1.0, 0.0, 1.0, 0.5, 1.0, 0.0, 0.0)
        f = _column_f(*zip(unbracketed[2:], empty[2:]))
        with pytest.raises(SolverError, match="^root not bracketed"):
            find_roots(f, [0.0, 1.0], [1.0, 0.0])
        assert_matches_scalar([unbracketed, empty])
        assert_matches_scalar([empty, unbracketed])


class TestStepCounts:
    """The Illinois rule's evaluation counts: on the package's equations, and
    within the docstring's worst case on pathological ones."""

    def test_mean_evaluations_on_the_p1_H_lo_grid(self):
        # the mild thresholds of `sweep --axis H_lo --start 0 --end 0.55
        # --steps 1000` on p1: 12.6 on average; a bisection-paced rule took 42.5
        counts = []
        for v in np.linspace(0.0, 0.55, 1000):
            params = sweep.apply_axis(make_p1(), "H_lo", float(v))
            (bracket,) = solver_mild.threshold_bracket(model._block([params]))
            counts.append(_evaluations(solver_mild.threshold_equation(params), *bracket))
        assert np.mean(counts) <= 15.0

    def test_verify_sign_law_lockstep_steps(self, monkeypatch):
        # verify's three find_roots calls at seed 0: the mild block, then
        # the severe cells and corners; bisection-paced, they took 60, 41
        # and 57 evaluations of f
        calls = []

        def counting(f, lo, hi):
            calls.append([len(lo), 0])

            def g(x):
                calls[-1][1] += 1
                return f(x)

            return find_roots(g, lo, hi)

        monkeypatch.setattr(solver, "find_roots", counting)
        for regime in model.REGIMES:
            assert verify.sign_law_check(regime, n_draws=500, seed=0).ok
        rows, evaluations = zip(*calls)
        assert rows == (500, 124, 376)
        assert all(n <= bound for n, bound in zip(evaluations, (22, 7, 20))), evaluations

    # (f, lo, hi); the bound is 2 + 3 * ceil(log2((hi - lo) / (4 * eps)))
    # evaluations, 152 on [0, 1]
    PATHOLOGICAL = {
        "sign step": (lambda x: np.sign(x - 1.0 / 3.0), 0.0, 1.0),
        "wide sign step": (lambda x: np.sign(x - 7.77), -1e3, 1e3),
        "steep expm1": (lambda x: np.expm1(1e4 * (x - 0.3)), 0.0, 1.0),
        "flat then jump": (lambda x: np.where(x < 0.7, 1e-9 * (x - 0.7), 1.0), 0.0, 1.0),
        "flat at -1e-300, then steep": (lambda x: np.where(x < 0.9, -1e-300, 1e300 * (x - 0.9)), 0.0, 1.0),
    }

    @pytest.mark.parametrize("name", PATHOLOGICAL)
    def test_worst_case_bound(self, name):
        f, lo, hi = self.PATHOLOGICAL[name]
        with np.errstate(over="ignore", invalid="ignore"):
            n = _evaluations(f, lo, hi)
        assert n <= 2 + 3 * math.ceil(math.log2((hi - lo) / (4 * _EPS)))
