import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import ks_distance
from repgame import BoundedCDF, DomainError, distributions, fosd_dominates


def u01():
    return BoundedCDF.uniform(0.0, 1.0)


class TestCdf:
    def test_uniform_identity_on_support(self):
        assert u01().cdf(0.355641) == pytest.approx(0.355641, abs=1e-15)

    def test_clamps_below_support(self):
        assert u01().cdf(-1.0) == 0.0

    def test_clamps_above_support(self):
        # protest-payoff arguments can exceed the support, e.g. 1.275
        assert u01().cdf(1.275) == 1.0

    def test_vectorized(self):
        xs = np.array([-0.5, 0.25, 2.0])
        np.testing.assert_allclose(u01().cdf(xs), [0.0, 0.25, 1.0])

    def test_scaled_beta_symmetric_midpoint(self):
        d = BoundedCDF.scaled_beta(0.0, 2.0, 2.0, 2.0)
        assert d.cdf(1.0) == pytest.approx(0.5, abs=1e-12)

    def test_piecewise_linear_interpolates(self):
        d = BoundedCDF.piecewise_linear([(0.0, 0.0), (0.5, 0.8), (1.0, 1.0)])
        assert d.cdf(0.25) == pytest.approx(0.4, abs=1e-12)
        assert d.cdf(0.75) == pytest.approx(0.9, abs=1e-12)


class TestQuantile:
    def test_uniform_identity(self):
        assert u01().quantile(0.6) == pytest.approx(0.6, abs=1e-15)

    def test_support_edges(self):
        assert u01().quantile(0.0) == 0.0
        assert u01().quantile(1.0) == 1.0

    def test_shifted_uniform(self):
        # lo + (hi - lo) * p by hand: 0.2 + 0.8 * 0.5
        assert BoundedCDF.uniform(0.2, 1.0).quantile(0.5) == pytest.approx(0.6, abs=1e-15)

    def test_outside_unit_interval_rejected(self):
        with pytest.raises(DomainError):
            u01().quantile(1.5)
        with pytest.raises(DomainError):
            u01().quantile(-0.1)


class TestSample:
    def test_uniform(self):
        assert u01().sample(0.25) == pytest.approx(0.25, abs=1e-15)

    def test_support_edge(self):
        assert BoundedCDF.uniform(0.2, 1.0).sample(0.0) == 0.2

    def test_beta_1_1_is_uniform(self):
        assert BoundedCDF.scaled_beta(0.0, 1.0, 1.0, 1.0).sample(0.7) == pytest.approx(
            0.7, abs=1e-12
        )


class TestFosd:
    def test_shifted_support_dominates(self):
        assert fosd_dominates(BoundedCDF.uniform(0.2, 1.0), u01())

    def test_equal_distributions_do_not_dominate(self):
        assert not fosd_dominates(u01(), u01())

    def test_reversed_order(self):
        assert not fosd_dominates(u01(), BoundedCDF.uniform(0.2, 1.0))

    def test_small_grid_rejected(self):
        with pytest.raises(DomainError):
            fosd_dominates(u01(), u01(), grid_size=1)


class TestValidation:
    def test_lo_ge_hi_rejected(self):
        with pytest.raises(DomainError):
            BoundedCDF.uniform(1.0, 1.0)

    def test_bad_beta_shapes_rejected(self):
        with pytest.raises(DomainError):
            BoundedCDF.scaled_beta(0.0, 1.0, -1.0, 2.0)
        for a, b in [(np.inf, 2.0), (2.0, np.inf), (np.nan, 2.0), (2.0, np.nan)]:
            with pytest.raises(DomainError, match="finite"):
                BoundedCDF.scaled_beta(0.0, 1.0, a, b)

    def test_piecewise_needs_monotone_knots(self):
        with pytest.raises(DomainError):
            BoundedCDF.piecewise_linear([(0.0, 0.0), (0.5, 0.5), (0.4, 1.0)])
        with pytest.raises(DomainError):
            BoundedCDF.piecewise_linear([(0.0, 0.0), (0.5, 0.5), (1.0, 0.5)])
        # NaN compares false both ways, so only the finiteness check catches it
        for knot in [(0.5, np.nan), (np.nan, 0.5), (np.inf, 0.5)]:
            with pytest.raises(DomainError, match="finite"):
                BoundedCDF.piecewise_linear([(0.0, 0.0), knot, (1.0, 1.0)])

    def test_piecewise_needs_unit_cdf_range(self):
        with pytest.raises(DomainError):
            BoundedCDF.piecewise_linear([(0.0, 0.1), (1.0, 1.0)])

    def test_dict_round_trip_and_unknown_keys(self):
        d = BoundedCDF.scaled_beta(0.1, 0.9, 2.0, 3.0)
        assert BoundedCDF.from_dict(d.to_dict()) == d
        with pytest.raises(DomainError):
            BoundedCDF.from_dict({"family": "uniform", "lo": 0, "hi": 1, "a": 2})


# -- property tests ----------------------------------------------------------


def _piecewise_from_increments(increments):
    xs = np.cumsum([dx for dx, _ in increments])
    fs = np.cumsum([df for _, df in increments])
    interior = [(x / (xs[-1] + 1.0), f / (fs[-1] + 1.0)) for x, f in zip(xs, fs)]
    return BoundedCDF.piecewise_linear([(0.0, 0.0)] + interior + [(1.0, 1.0)])


families = st.one_of(
    st.tuples(
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.05, max_value=2.0),
    ).map(lambda t: BoundedCDF.uniform(t[0], t[0] + t[1])),
    st.tuples(
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.05, max_value=2.0),
        st.floats(min_value=0.3, max_value=5.0),
        st.floats(min_value=0.3, max_value=5.0),
    ).map(lambda t: BoundedCDF.scaled_beta(t[0], t[0] + t[1], t[2], t[3])),
    st.lists(
        st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0)), min_size=1, max_size=4
    ).map(_piecewise_from_increments),
)


@given(d=families, x=st.floats(-1.0, 5.0), y=st.floats(-1.0, 5.0))
@settings(max_examples=300, deadline=None)
def test_cdf_monotone(d, x, y):
    lo, hi = min(x, y), max(x, y)
    assert d.cdf(lo) <= d.cdf(hi) + 1e-15


@given(
    d=families,
    x=st.one_of(
        st.floats(-1.0, 5.0),
        st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")]),
    ),
    as_numpy=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_scalar_cdf_matches_array_path(d, x, as_numpy):
    # the scalar fast path must give the array path's bits, as a Python float
    arg = np.float64(x) if as_numpy else x
    got = d.cdf(arg)
    want = d.cdf(np.array([x]))[0]
    assert type(got) is float
    assert np.array_equal(np.float64(got).view(np.uint64), want.view(np.uint64))


@given(
    d=families.filter(lambda d: d.family != "piecewise_linear"),
    xs=st.lists(
        st.one_of(st.floats(-1.0, 5.0), st.sampled_from([0.0, -0.0, float("nan")])),
        min_size=1,
        max_size=20,
    ),
)
@settings(max_examples=200, deadline=None)
def test_cdf_columns_match_scalar_path(d, xs):
    # one distribution's scalars, and the same distribution as a column per
    # row, give the scalar path's bits, at a column of x and at each float x
    want = np.array([d.cdf(x) for x in xs])
    n = len(xs)
    a, b = d.params or (1.0, 1.0)
    rows = [np.full(n, v) for v in (d.lo, d.hi, d.family == "scaled_beta", a, b)]
    for got in (
        distributions.cdf_columns(np.array(xs), d.lo, d.hi, d.family == "scaled_beta", a, b),
        np.array([distributions.cdf_columns(x, d.lo, d.hi, d.family == "scaled_beta", a, b) for x in xs]),
        distributions.cdf_columns(np.array(xs), *rows),
        d.cdf(np.array(xs)),
    ):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@given(
    lo=st.floats(0.0, 2.0),
    width=st.floats(0.05, 2.0),
    p=st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from([0.0, -0.0, 1.0, float("nan")]),
    ),
    as_numpy=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_scalar_uniform_quantile_matches_array_path(lo, width, p, as_numpy):
    d = BoundedCDF.uniform(lo, lo + width)
    arg = np.float64(p) if as_numpy else p
    got = d.quantile(arg)
    want = d.quantile(np.array(p))  # a 0-d array takes the array path
    assert type(got) is float and type(want) is float
    assert np.array_equal(np.float64(got).view(np.uint64), np.float64(want).view(np.uint64))


@pytest.mark.parametrize("p", [-1e-300, 1.0000000000000002, -0.5, 2.0, float("inf")])
@pytest.mark.parametrize("as_numpy", [False, True])
def test_scalar_uniform_quantile_range_error(p, as_numpy):
    arg = np.float64(p) if as_numpy else p
    with pytest.raises(DomainError) as exc:
        BoundedCDF.uniform(0.0, 1.0).quantile(arg)
    assert str(exc.value) == f"quantile argument outside [0, 1]: {arg!r}"


def test_scalar_cdf_keeps_negative_zero():
    assert str(BoundedCDF.uniform(0.0, 1.0).cdf(-0.0)) == "-0.0"


@pytest.mark.parametrize(
    "a, b, x, p",
    [
        # p = cdf(0.5); betaincinv alone returns 0.4999999996755613, 3.2e-10 off
        (1.0625, 1.0625, 0.5, 0.5000000000000001),
        # betaincinv alone returns exactly 0 and 1 at these interior p
        (1.1875, 2.0625, 0.15000000000000002, 0.21760810950394924),
        (1.5, 1.125, 0.8, 0.7601445496759371),
    ],
)
def test_scaled_beta_quantile_hard_cases(a, b, x, p):
    d = BoundedCDF.scaled_beta(0.0, 1.0, a, b)
    assert abs(d.quantile(p) - x) <= 1e-15
    assert abs(d.quantile(np.array([p]))[0] - x) <= 1e-15


@given(d=families, t=st.floats(1e-6, 1.0 - 1e-6))
@settings(max_examples=300, deadline=None)
def test_quantile_cdf_round_trip(d, t):
    x = d.lo + (d.hi - d.lo) * t
    p = d.cdf(x)
    # the round trip is only well posed where the CDF has not flattened to
    # machine resolution: in a vanishing-density tail the error floor is
    # eps / pdf(x), which no inverse can beat
    assume(1e-3 < p < 1.0 - 1e-3)
    assert abs(d.quantile(p) - x) <= 1e-10 * max(1.0, abs(x))


@given(d=families, p=st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_quantile_stays_on_support(d, p):
    x = d.quantile(p)
    assert d.lo - 1e-12 <= x <= d.hi + 1e-12


@pytest.mark.parametrize(
    "dist",
    [
        BoundedCDF.uniform(0.2, 1.4),
        BoundedCDF.scaled_beta(0.0, 1.0, 2.0, 5.0),
        BoundedCDF.piecewise_linear([(0.0, 0.0), (0.3, 0.6), (1.0, 1.0)]),
    ],
)
def test_sampling_law_ks(dist):
    # empirical CDF of 1e5 inverse-transform samples within KS distance 0.01
    rng = np.random.default_rng(12345)
    samples = dist.sample(rng.random(100_000))
    assert ks_distance(dist, samples) < 0.01


# (a, b, p) the scaled_beta rows of the column quantile must get right:
# betaincinv returns exactly 0 at an interior p, the mirrored-tail case of
# test_scaled_beta_quantile_hard_cases (p = cdf(0.15)); it underflows to NaN
# at the deepest tail p; and p = 0, 1 pin the ends
QUANTILE_ROWS = [
    (1.1875, 2.0625, 0.21760810950394924),
    (1.5, 1.125, 0.7601445496759371),
    (1.0625, 1.0625, 0.5000000000000001),
    (3.0, 0.5, 5e-324),
    (3.0, 0.5, 1e-320),
    (0.05, 2000.0, 1e-300),
    (50.0, 0.2, 0.9999999999999999),
    (2.0, 5.0, 0.0),
    (2.0, 5.0, 1.0),
    (0.7, 1.8, 0.3),
]


def test_quantile_columns_match_per_row_quantile():
    # uniform and scaled_beta rows in one column: each row is its own
    # distribution's quantile, bit for bit
    rng = np.random.default_rng(8)
    dists, ps = [], []
    for a, b, p in QUANTILE_ROWS:
        lo = float(rng.uniform(0.0, 0.5))
        hi = lo + float(rng.uniform(0.3, 1.5))
        dists += [BoundedCDF.scaled_beta(lo, hi, a, b), BoundedCDF.uniform(lo, hi)]
        ps += [p, p]
    for p in (0.0, 1.0, 1e-300, 0.6):
        dists.append(BoundedCDF.uniform(0.1, 1.3))
        ps.append(p)
    want = np.array([d.quantile(p) for d, p in zip(dists, ps)])
    lo, hi, a, b = np.array([(d.lo, d.hi, *(d.params or (1.0, 1.0))) for d in dists]).T
    is_beta = np.array([d.family == "scaled_beta" for d in dists])
    got = distributions.quantile_columns(np.array(ps), lo, hi, is_beta, a, b)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # the rows do reach the fallbacks: an exact 0 at an interior p, and NaN
    unit = distributions.betaincinv(a[is_beta], b[is_beta], np.array(ps)[is_beta])
    assert unit[0] == 0.0 and np.isnan(unit).any()


@pytest.mark.parametrize("a, b, p", QUANTILE_ROWS)
def test_quantile_of_one_shared_distribution_matches_columns(a, b, p):
    # a shared distribution's scalar shapes and a column of its shapes agree
    d = BoundedCDF.scaled_beta(0.2, 1.1, a, b)
    ps = np.array([p, 0.5, p])
    columns = [np.full(3, v) for v in (d.lo, d.hi, True, a, b)]
    columns[2] = columns[2].astype(bool)
    got = distributions.quantile_columns(ps, *columns)
    want = np.array([d.quantile(float(x)) for x in ps])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(d.quantile(ps).view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize(
    "d",
    [
        BoundedCDF.uniform(0.2, 1.1),
        BoundedCDF.scaled_beta(0.0, 1.0, 2.0, 3.0),
        BoundedCDF.piecewise_linear([(0.0, 0.0), (0.3, 0.2), (0.7, 0.75), (1.0, 1.0)]),
    ],
    ids=["uniform", "scaled_beta", "piecewise_linear"],
)
@pytest.mark.parametrize(
    "ps",
    [np.array(0.3), np.array([0.1, 0.0, 1.0]), np.array([[0.1, 0.2], [0.3, 0.4]]), np.array([]), np.zeros((2, 0))],
    ids=["0-d", "1-d", "2-d", "empty", "empty-2-d"],
)
def test_quantile_of_any_shape_is_elementwise(d, ps):
    # each family takes an argument of any shape and keeps it
    got = d.quantile(ps)
    want = np.array([d.quantile(float(p)) for p in ps.ravel()]).reshape(ps.shape)
    assert np.shape(got) == ps.shape
    assert np.array_equal(np.asarray(got, dtype=float).view(np.uint64), want.view(np.uint64))
