import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_p1, make_p2
from repgame import (
    Belief,
    BoundedCDF,
    DomainError,
    beta_e,
    check_assumption_mild,
    check_assumption_severe,
    prior,
    protest_prob,
    rho_tilde,
)


class TestPrior:
    def test_p1(self, p1):
        mu = prior(p1)
        assert mu.mu_G == pytest.approx(0.26, abs=1e-12)
        assert mu.mu_B == pytest.approx(0.14, abs=1e-12)
        assert mu.mu_N == pytest.approx(0.60, abs=1e-12)

    def test_symmetric(self):
        mu = prior(make_p1(gamma=0.5, q=0.5))
        assert mu.as_tuple() == pytest.approx((0.25, 0.25, 0.5), abs=1e-12)

    @given(g=st.floats(0.01, 0.99), q=st.floats(0.01, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_simplex_identity(self, g, q):
        mu = prior(make_p1(gamma=g, q=q))
        assert sum(mu.as_tuple()) == pytest.approx(1.0, abs=1e-12)


class TestBetaE:
    def test_p1(self, p1):
        assert beta_e(p1) == pytest.approx(1.275, abs=1e-12)

    def test_p2(self, p2):
        assert beta_e(p2) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_mixture_limit(self):
        assert beta_e(make_p1(q=1.0 - 1e-12)) == pytest.approx(2.5, abs=1e-10)


class TestRhoTilde:
    def test_prior_p1(self, p1):
        assert rho_tilde(prior(p1), p1) == pytest.approx(0.51, abs=1e-12)

    def test_pure_good_belief(self, p2):
        assert rho_tilde(Belief(1.0, 0.0, 0.0), p2) == pytest.approx(0.9, abs=1e-12)

    def test_no_activist(self, p1):
        assert rho_tilde(Belief(0.0, 0.0, 1.0), p1) == 0.0

    @given(
        lam=st.floats(0.0, 1.0),
        a=st.floats(0.0, 1.0),
        b=st.floats(0.0, 1.0),
        c=st.floats(0.0, 1.0),
        d=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_linear_in_belief(self, lam, a, b, c, d):
        p1 = make_p1()
        mu = Belief.normalized(a, b, 1.0)
        nu = Belief.normalized(c, d, 1.0)
        mix = Belief(
            lam * mu.mu_G + (1 - lam) * nu.mu_G,
            lam * mu.mu_B + (1 - lam) * nu.mu_B,
            lam * mu.mu_N + (1 - lam) * nu.mu_N,
        )
        expected = lam * rho_tilde(mu, p1) + (1 - lam) * rho_tilde(nu, p1)
        assert rho_tilde(mix, p1) == pytest.approx(expected, abs=1e-12)


class TestProtestProb:
    def test_prior_p1(self, p1):
        assert protest_prob(prior(p1), p1) == pytest.approx(0.51, abs=1e-12)

    def test_no_activist_zero(self, p1):
        assert protest_prob(Belief(0.0, 0.0, 1.0), p1) == 0.0

    def test_clamped_above_support(self, p1):
        assert protest_prob(Belief(1.0, 0.0, 0.0), p1) == 1.0

    @given(shift=st.floats(0.0, 0.3))
    @settings(max_examples=100, deadline=None)
    def test_nondecreasing_in_mu_G_holding_mu_N(self, shift):
        p1 = make_p1()
        base = Belief(0.3, 0.4, 0.3)
        bumped = Belief(0.3 + shift, 0.4 - shift, 0.3)
        assert protest_prob(bumped, p1) >= protest_prob(base, p1) - 1e-15


class TestBelief:
    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            Belief(-0.1, 0.6, 0.5)

    def test_rejects_bad_sum(self):
        with pytest.raises(DomainError):
            Belief(0.5, 0.5, 0.5)

    def test_normalized(self):
        mu = Belief.normalized(2.0, 1.0, 1.0)
        assert mu.as_tuple() == pytest.approx((0.5, 0.25, 0.25), abs=1e-15)


class TestAssumptionMild:
    def test_p1_passes_all_six(self, p1):
        report = check_assumption_mild(p1)
        assert report.ok and len(report.clauses) == 6
        assert all(c.passed for c in report.clauses)

    def test_clause6_bound_value(self, p1):
        # (1 + (1-gamma)/(gamma H(alpha_G)))^-1 beta_e = 1.275 / 3.5
        report = check_assumption_mild(p1)
        assert report.clauses[5].rhs == pytest.approx(1.275 / 3.5, abs=1e-12)

    def test_alpha_ordering_failure(self):
        report = check_assumption_mild(make_p1(alpha_B=0.5))
        assert not report.ok
        assert report.clauses[0].passed is False
        assert report.failed_clauses() == ["alpha_G < alpha_B"]

    def test_cost_floor_failure(self):
        report = check_assumption_mild(make_p1(H=BoundedCDF.uniform(0.7, 1.0)))
        assert not report.ok
        assert report.clauses[3].passed is False

    def test_pure_predicate(self, p1):
        assert check_assumption_mild(p1) == check_assumption_mild(p1)

    def test_clause6_bound_when_gamma_h_underflows(self):
        # H(alpha_G) = 5e-324 > 0, but gamma * H(alpha_G) rounds to 0: the
        # bound takes its limit 0 instead of dividing by zero
        report = check_assumption_mild(make_p1(alpha_G=5e-324))
        assert report.clauses[5].rhs == 0.0 and not report.clauses[5].passed


class TestAssumptionSevere:
    def test_p2_passes_all_five(self, p2):
        report = check_assumption_severe(p2)
        assert report.ok and len(report.clauses) == 5

    def test_large_beta_G_fails(self):
        # G(2.5) clamps to 1, so alpha_G > G(beta_G) is impossible
        report = check_assumption_severe(make_p2(beta_G=2.5))
        assert not report.ok
        assert report.clauses[2].passed is False

    def test_alpha_B_above_G_beta_e_fails(self):
        report = check_assumption_severe(make_p2(alpha_B=0.6))
        assert not report.ok
        assert report.clauses[1].passed is False


class TestParamsValidation:
    def test_gamma_bounds(self):
        with pytest.raises(DomainError):
            make_p1(gamma=1.0)

    def test_beta_ordering(self):
        with pytest.raises(DomainError):
            make_p1(beta_G=-0.5, beta_B=-1.0)

    @pytest.mark.parametrize(
        "overrides",
        [{"beta_G": float("inf")}, {"beta_G": 1e400}, {"beta_B": float("-inf")}],
    )
    def test_non_finite_payoffs(self, overrides):
        with pytest.raises(DomainError, match="finite"):
            make_p1(**overrides)

    def test_negative_cost_support(self):
        with pytest.raises(DomainError):
            make_p1(G=BoundedCDF.uniform(-0.5, 1.0))

    def test_dict_round_trip(self, p1):
        assert dataclasses.asdict(make_p1()) == dataclasses.asdict(
            type(p1).from_dict(p1.to_dict())
        )

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("gamma", "abc", r"^gamma: could not convert"),
            ("H", {"family": "piecewise_linear", "knots": [[0, 0], [1]]}, r"^H\.knots\[1\]: "),
            ("G", {"family": "uniform", "lo": "x", "hi": 1}, r"^G\.lo: "),
            ("H", {"family": "uniform", "lo": 1, "hi": 0}, r"^H: need lo < hi"),
        ],
    )
    def test_wrong_value_names_key(self, p1, key, value, message):
        with pytest.raises(DomainError, match=message):
            type(p1).from_dict({**p1.to_dict(), key: value})

    def test_unknown_key_rejected(self, p1):
        spec = p1.to_dict()
        spec["extra"] = 1.0
        with pytest.raises(DomainError):
            type(p1).from_dict(spec)
