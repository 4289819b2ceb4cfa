"""The lockstep root search against the scalar one, row by row.

Each row's function is built from +, -, * and comparisons only, so numpy's
elementwise values are bit for bit Python's and any difference in a root
comes from the search itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repgame.errors import SolverError
from repgame.rootfind import MAX_ITER, find_root, find_roots


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
            (0.0, 1.0, -1.0, 0.3, 1.0, 2.0, 0.0),  # a few secant steps
            (-1e3, 1e3, 1.0, 0.1, 0.0, 1.0, 0.0),  # a triple root: bisection paced
            (-1.0, 1.0, 1.0, 0.123, 0.0, 0.0, 1.0),  # a step: bisection only
        ]
        counts = []
        for lo, hi, *coeffs in block:
            f = _scalar_f(*coeffs)
            n = []
            find_root(lambda x: n.append(x) or f(x), lo, hi)
            counts.append(len(n))
        assert counts[0] == 3 and counts[-1] > 40
        assert_matches_scalar(block)

    def test_row_that_exhausts_max_iter(self):
        # a step across [-1e300, 1e300] is bisected MAX_ITER times and is
        # still far wider than find_root's stopping width
        row = (-1e300, 1e300, 1.0, 1.0, 0.0, 0.0, 1.0)
        f = _scalar_f(*row[2:])
        evals = []
        find_root(lambda x: evals.append(x) or f(x), row[0], row[1])
        assert len(evals) == MAX_ITER + 2
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
