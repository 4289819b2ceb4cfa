import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    bisect,
    make_p1,
    make_p2,
    mild_threshold_equation,
    no_concession_equation,
    quad_root_positive,
    reference_mild_equilibrium,
    reference_no_concession,
    reference_solve_mild,
)
from repgame import (
    AssumptionError,
    BoundedCDF,
    DomainError,
    InconsistentInputsError,
    RepgameError,
    SolverError,
    bound_D_lower,
    effect_D_mild,
    estimate_plugin,
    estimator_H,
    estimator_total,
    limit_H_degenerate,
    no_concession_equilibrium,
    solve_block,
    solve_mild,
    solve_no_concession,
)
from repgame import model, solver, solver_mild, sweep, verify
from repgame.rootfind import find_root
from repgame.verify import draw_params

# Frozen oracle values for the benchmark parameters. With uniform G and H the
# threshold equation reduces to 0.4 c^2 + 0.87 c - 0.36 = 0 and the
# no-concession variant to 0.4 c^2 + 0.71 c - 0.6 = 0.
C_TILDE_P1 = quad_root_positive(0.4, 0.87, -0.36)
KAPPA_P1 = 112.0 / 247.0  # (0.35/0.65) * (1.6/1.9)
Q_PRIME_P1 = 16.0 / 35.0
C_TILDE_NO_CONCESSION_P1 = 0.625


class TestOracles:
    """The independent oracles must agree with each other before they are
    used to certify the solver."""

    def test_quadratic_matches_frozen_constant(self):
        assert C_TILDE_P1 == pytest.approx(0.3556411, abs=1e-7)

    def test_bisection_agrees_with_quadratic(self):
        root = bisect(mild_threshold_equation(make_p1()), 0.0, 0.6)
        assert root == pytest.approx(C_TILDE_P1, abs=1e-12)

    def test_no_concession_quadratic_is_exact(self):
        assert quad_root_positive(0.4, 0.71, -0.6) == pytest.approx(0.625, abs=1e-15)
        root = bisect(no_concession_equation(make_p1()), 0.0, 1.0)
        assert root == pytest.approx(0.625, abs=1e-12)


class TestSolveMildP1:
    def test_threshold_matches_bisection_oracle(self, p1):
        eq = solve_mild(p1)
        oracle = bisect(mild_threshold_equation(p1), 0.0, p1.alpha_G)
        assert eq.c_tilde == pytest.approx(oracle, abs=1e-8)

    def test_threshold_value(self, p1):
        assert solve_mild(p1).c_tilde == pytest.approx(C_TILDE_P1, abs=1e-10)

    def test_kappa_closed_form(self, p1):
        assert solve_mild(p1).kappa == pytest.approx(KAPPA_P1, abs=1e-14)

    def test_posteriors(self, p1):
        eq = solve_mild(p1)
        assert eq.q_prime == pytest.approx(Q_PRIME_P1, abs=1e-12)
        assert eq.mu_R.mu_N == 0.0
        # no-news posterior keeps the type odds of the prior
        assert eq.mu_NN.mu_G / eq.mu_NN.mu_B == pytest.approx(0.65 / 0.35, rel=1e-12)
        assert eq.gamma_prime == pytest.approx(
            0.4 * C_TILDE_P1 / (0.4 * C_TILDE_P1 + 0.6), abs=1e-10
        )

    def test_protest_probabilities(self, p1):
        eq = solve_mild(p1)
        assert eq.p_R == pytest.approx(0.6, abs=1e-12)
        assert eq.p_NN == pytest.approx(0.6 - C_TILDE_P1, abs=1e-10)
        assert eq.p_prior == pytest.approx(0.51, abs=1e-12)

    def test_repression_probabilities(self, p1):
        eq = solve_mild(p1)
        revealed = (KAPPA_P1 * 0.65 + 0.35) * (1.0 - C_TILDE_P1)
        assert eq.prob_revealed == pytest.approx(revealed, abs=1e-9)
        assert eq.prob_concealed == pytest.approx(C_TILDE_P1, abs=1e-10)
        assert eq.prob_total == pytest.approx(revealed + C_TILDE_P1, abs=1e-9)
        assert eq.prob_revealed_given_B == pytest.approx(1.0 - C_TILDE_P1, abs=1e-10)
        assert eq.prob_revealed_given_G == pytest.approx(
            KAPPA_P1 * (1.0 - C_TILDE_P1), abs=1e-10
        )
        assert eq.prob_concession == pytest.approx(1.0 - eq.prob_total, abs=1e-15)

    def test_effects(self, p1):
        eq = solve_mild(p1)
        assert eq.D == pytest.approx(-0.09, abs=1e-12)
        assert effect_D_mild(p1, eq) == pytest.approx(-0.09, abs=1e-12)
        assert bound_D_lower(eq) == pytest.approx(-C_TILDE_P1, abs=1e-10)
        assert eq.D_lower < 0.0
        assert eq.D_lower <= eq.D

    def test_deterrence_direction_flip(self):
        # lowering concession costs turns the backlash into deterrence
        params = make_p1(alpha_G=0.4)
        eq = solve_mild(params)
        assert effect_D_mild(params, eq) == pytest.approx(0.51 - 0.4, abs=1e-12)

    def test_residual_below_default_tol(self, p1):
        assert solve_mild(p1).residual <= 1e-10


def test_solve_mild_evaluates_g_inverse_once(monkeypatch):
    # kappa and the closed-form cross-check share one G^{-1}(alpha_G), which a
    # solve of one takes as a column of one
    params = make_p1(G=BoundedCDF.scaled_beta(0.0, 1.0, 2.0, 2.0))
    quantile = BoundedCDF.quantile
    calls = []

    def counting(self, u):
        if self is params.G and np.all(np.asarray(u) == params.alpha_G):
            calls.append(u)
        return quantile(self, u)

    monkeypatch.setattr(BoundedCDF, "quantile", counting)
    solve_mild(params)
    assert len(calls) == 1


class TestIdentities:
    def test_identity_suite_p1(self, p1):
        eq = solve_mild(p1)
        assert abs(eq.prob_revealed + eq.prob_concealed - eq.prob_total) <= 1e-12
        assert estimator_total(p1.q, eq.q_prime, eq.prob_revealed) == pytest.approx(
            eq.prob_total, abs=1e-12
        )
        assert estimator_H(p1.q, eq.q_prime, eq.prob_revealed) == pytest.approx(
            p1.H.cdf(eq.c_tilde), abs=1e-12
        )
        odds = eq.q_prime / (1.0 - eq.q_prime)
        assert odds == pytest.approx(eq.kappa * p1.q / (1.0 - p1.q), abs=1e-12)

    def test_identity_suite_random_draws(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 40:
            params = draw_params(rng, "mild")
            if params is None:
                continue
            eq = solve_mild(params)
            assert abs(eq.prob_revealed + eq.prob_concealed - eq.prob_total) <= 1e-12
            assert abs(eq.p_R - params.alpha_G) <= 1e-10
            assert abs(eq.p_NN - (params.alpha_G - eq.c_tilde)) <= 1e-10
            assert abs(eq.D_lower + eq.c_tilde) <= 1e-10
            assert params.H.lo < eq.c_tilde < params.alpha_G
            assert 0.0 < eq.kappa < 1.0
            assert eq.D_lower < 0.0 and eq.D_lower <= eq.D
            checked += 1


class TestEstimators:
    def test_total_arithmetic(self):
        assert estimator_total(0.5, 0.25, 0.4) == pytest.approx(0.8, abs=1e-15)

    def test_total_no_revealed_repression(self):
        assert estimator_total(0.6, 0.6 - 1e-6, 0.0) == 1.0

    def test_total_rejects_reversed_updating(self):
        with pytest.raises(DomainError):
            estimator_total(0.5, 0.5, 0.4)
        with pytest.raises(DomainError):
            estimator_total(0.5, 0.7, 0.4)

    def test_H_exact_inputs(self, p1):
        eq = solve_mild(p1)
        value = estimator_H(0.65, Q_PRIME_P1, eq.prob_revealed)
        assert value == pytest.approx(C_TILDE_P1, abs=1e-9)

    def test_H_all_concealed(self):
        assert estimator_H(0.5, 0.4, 0.0) == 1.0

    def test_H_degenerate_equal_beliefs(self):
        # q' = q reads as no updating: Hhat = 1 - p
        assert estimator_H(0.5, 0.5, 0.3) == pytest.approx(0.7, abs=1e-15)

    def test_H_flags_contradictory_data(self):
        with pytest.raises(InconsistentInputsError) as exc:
            estimator_H(0.65, 0.45, 1.0)
        assert exc.value.value < 0.0

    def test_bad_probabilities_rejected(self):
        with pytest.raises(DomainError):
            estimator_total(0.5, 0.25, 1.2)
        with pytest.raises(DomainError):
            estimator_H(1.0, 0.5, 0.5)


_UNIT = st.floats(0.0, 1.0)


class TestPluginStatement:
    """estimator_total and estimator_H are estimate_plugin's values."""

    @given(q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), share=_UNIT, p=_UNIT)
    def test_estimators_read_the_plugin_report(self, q, share, p):
        q_prime = q * share
        if q_prime >= q:
            return  # share rounds q' up to q
        report = estimate_plugin(q, q_prime, p)
        assert estimator_total(q, q_prime, p) == report.total_hat
        assert report.total_hat == 1.0 - (q - q_prime) / (1.0 - q) * p
        assert report.H_hat == 1.0 - (1.0 - q_prime) / (1.0 - q) * p
        if 0.0 <= report.H_hat <= 1.0:
            assert estimator_H(q, q_prime, p) == report.H_hat
        else:
            with pytest.raises(InconsistentInputsError):
                estimator_H(q, q_prime, p)

    @pytest.mark.parametrize(
        "q, q_prime, p", [(0.65, 0.4571429, 0.415442), (0.3, 0.1, 0.8), (0.5, 1.0, 0.2), (0.9, 0.2, 0.05)]
    )
    def test_errors_are_the_delta_method_of_the_estimates(self, q, q_prime, p):
        se = {"q": 0.011, "q_prime": 0.027, "p": 0.019, "p_R": 0.031, "p_NN": 0.014}
        report = estimate_plugin(q, q_prime, p, 0.6, 0.25, se=se)
        point = {"q": q, "q_prime": q_prime, "p": p}
        h = 1e-6

        def at(name, step):
            moved = {**point, name: point[name] + step}
            return estimate_plugin(moved["q"], moved["q_prime"], moved["p"])

        for field in ("total_hat", "H_hat"):
            partials = {
                name: (getattr(at(name, h), field) - getattr(at(name, -h), field)) / (2 * h)
                for name in point
            }
            expected = math.sqrt(sum((partials[name] * se[name]) ** 2 for name in point))
            assert getattr(report, f"se_{field}") == pytest.approx(expected, rel=1e-6), field
        assert report.se_D_lower_hat == math.sqrt(se["p_R"] ** 2 + se["p_NN"] ** 2)


class TestDegenerateLimits:
    def test_p1_conceal_always_branch(self, p1):
        limits = limit_H_degenerate(p1)
        assert limits.negligible == 1.0
        assert limits.prohibitive == 0.0
        assert limits.branch == "conceal_always"

    def test_interior_branch(self):
        limits = limit_H_degenerate(make_p1(alpha_G=0.4))
        assert limits.negligible == pytest.approx(1.5 * 0.4 / (1.275 - 0.4), abs=1e-12)
        assert limits.branch == "interior"

    def test_rejects_clause_violation(self):
        # beta_e = 0.4 puts G(beta_e) below alpha_G, killing the denominator
        with pytest.raises(AssumptionError):
            limit_H_degenerate(make_p1(q=0.5, beta_G=0.7, beta_B=0.1))


class TestNoConcession:
    def test_threshold_exact(self, p1):
        assert solve_no_concession(p1) == pytest.approx(0.625, abs=1e-10)

    def test_threshold_matches_bisection_oracle(self, p1):
        oracle = bisect(no_concession_equation(p1), 0.0, 1.0)
        assert solve_no_concession(p1) == pytest.approx(oracle, abs=1e-8)

    def test_residual_identity(self, p1):
        eq = no_concession_equilibrium(p1)
        # G(gamma' beta_e) at the root equals G(beta_e) - c_tilde
        assert eq.p_NN == pytest.approx(1.0 - 0.625, abs=1e-10)
        assert eq.p_R == pytest.approx(1.0, abs=1e-15)
        assert eq.c_tilde < p1.G.cdf(1.275)

    def test_precondition(self):
        # G(beta_e) must exceed the concealment-cost floor
        params = make_p1(q=0.5, beta_G=0.7, beta_B=0.1, H=BoundedCDF.uniform(0.5, 1.0))
        with pytest.raises(DomainError):
            solve_no_concession(params)


class TestRejections:
    def test_assumption_failure_carries_report(self):
        with pytest.raises(AssumptionError) as exc:
            solve_mild(make_p1(alpha_B=0.5))
        assert exc.value.report is not None
        assert exc.value.report.failed_clauses() == ["alpha_G < alpha_B"]

    def test_bad_tol(self, p1):
        for tol in (0.0, -1.0, 1e308, math.inf, math.nan):  # a huge tol would pass every guard
            with pytest.raises(DomainError, match="tol must be finite and positive"):
                solve_mild(p1, tol=tol)
            with pytest.raises(DomainError, match="tol must be finite and positive"):
                no_concession_equilibrium(p1, tol=tol)

    def test_relaxed_mode_allows_boundary_root(self, p1):
        # concealment costs entirely above alpha_G: threshold pins at alpha_G
        params = dataclasses.replace(p1, H=BoundedCDF.uniform(0.9, 1.0))
        eq = solve_mild(params, relaxed=True)
        assert eq.c_tilde == pytest.approx(p1.alpha_G, abs=1e-12)
        assert params.H.cdf(eq.c_tilde) == 0.0
        with pytest.raises(AssumptionError):
            solve_mild(params)  # strict mode still refuses


class TestHugePayoffs:
    """A huge beta_G puts the threshold far below 1, where find_root's
    absolute stopping width spans many ulps of the root."""

    @pytest.mark.parametrize("beta_G", [1e6, 1e16, 1e308])
    def test_threshold_resolved(self, beta_G):
        p = make_p1(beta_G=beta_G)
        g, a = p.gamma, p.alpha_G
        be = p.q * beta_G + (1.0 - p.q) * p.beta_B
        # uniform G and H with G's argument below 1: g c^2 + B c - a (1 - g) = 0,
        # whose quadratic term is below 1e-11 relative here
        linear = a * (1.0 - g) / (g * be + 1.0 - g - g * a)
        eq = solve_mild(p)
        assert eq.residual <= 1e-10
        assert eq.c_tilde == pytest.approx(linear, rel=1e-9, abs=0.0)
        assert eq.D_lower == bound_D_lower(eq) == pytest.approx(-linear, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("beta_G", [1e6, 1e308])
    def test_no_concession_threshold_resolved(self, beta_G):
        assert no_concession_equilibrium(make_p1(beta_G=beta_G)).residual <= 1e-10

    @pytest.mark.parametrize("beta_G", [2.5, 1e308])
    def test_tol_below_float_resolution_is_a_domain_error(self, beta_G):
        with pytest.raises(DomainError, match="ill-conditioned.*best attainable residual"):
            solve_mild(make_p1(beta_G=beta_G), tol=1e-20)

    def test_genuine_non_convergence_is_a_solver_error(self, p1, monkeypatch):
        monkeypatch.setattr(solver, "find_root", lambda f, lo, hi: hi)
        with pytest.raises(SolverError, match="threshold residual"):
            solve_mild(p1)


# -- the column steps against the point-by-point oracle ------------------------


def _outcome(result):
    """An equilibrium as its repr, which spells each float's bits; an error
    as its type, message and report."""
    if isinstance(result, RepgameError):
        return type(result), str(result), getattr(result, "report", None)
    return repr(result)


def _attempt(f, *args):
    try:
        return f(*args)
    except RepgameError as exc:
        return exc


def _mild_draws(seed: int, n: int) -> list:
    draws = verify._accepted_draws(np.random.default_rng(seed), "mild", 100_000)
    return [params for _, params in itertools.islice(draws, n)]


class TestBlockMatchesScalarOracle:
    """A block's check, bracket and build, in columns, give each point the
    point-by-point solve's result bit for bit, errors included."""

    @staticmethod
    def _assert_matches(points, tol=solver_mild.DEFAULT_TOL):
        got = [_outcome(r) for r in solve_block("mild", points, tol)]
        assert got == [_outcome(_attempt(reference_solve_mild, p, tol)) for p in points]
        return got

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_first_1000_sign_law_draws(self, seed):
        points = _mild_draws(seed, 1000)
        # two points that fail the check, inside the block
        points[10:10] = [make_p2()]
        points[500:500] = [make_p1(alpha_B=0.5)]
        got = self._assert_matches(points)
        assert sum(isinstance(r, str) for r in got) == 1000

    def test_p1_H_lo_grid(self):
        points = [sweep.apply_axis(make_p1(), "H_lo", float(v)) for v in np.linspace(0.0, 0.55, 1000)]
        got = self._assert_matches(points)
        assert all(isinstance(r, str) for r in got)

    def test_failing_residuals(self):
        # at 1e-16 some residuals fail even the adjacent-float retry
        got = self._assert_matches(_mild_draws(0, 200), tol=1e-16)
        assert 10 <= sum(isinstance(r, tuple) for r in got) <= 190


class TestNoConcessionBlockMatchesScalarOracle:
    """A no-concession block's bracket and build, in columns, give each
    point the scalar solve's result bit for bit, errors included."""

    @staticmethod
    def _assert_matches(points, tol=solver_mild.DEFAULT_TOL):
        got = [_outcome(r) for r in solve_block("no-concession", points, tol)]
        assert got == [_outcome(_attempt(reference_no_concession, p, tol)) for p in points]
        return got

    def test_first_1000_mild_sign_law_draws(self):
        got = self._assert_matches(_mild_draws(0, 1000))
        assert all(isinstance(r, str) for r in got)

    def test_p1_H_lo_grid(self):
        points = [sweep.apply_axis(make_p1(), "H_lo", float(v)) for v in np.linspace(0.0, 0.55, 1000)]
        got = self._assert_matches(points)
        assert all(isinstance(r, str) for r in got)

    def test_edge_points(self, monkeypatch):
        # p2 solves under no-concession; a huge beta_G puts the root far
        # below 1, where find_root's stopping width spans many ulps, and at
        # 1e7 the adjacent-float retry runs; G(beta_e) <= H.lo leaves no bracket
        retried = []
        ulp_bracket = solver.ulp_bracket
        monkeypatch.setattr(solver, "ulp_bracket", lambda *a: retried.append(a) or ulp_bracket(*a))
        no_room = make_p1(q=0.5, beta_G=0.7, beta_B=0.1, H=BoundedCDF.uniform(0.5, 1.0))
        points = [make_p1(), make_p2(), make_p1(beta_G=1e7), make_p1(beta_G=1e308), no_room, make_p1(q=0.3)]
        got = self._assert_matches(points)
        assert [isinstance(r, str) for r in got] == [True] * 4 + [False, True]
        assert got[4][0] is DomainError
        assert got[4][1].startswith("no-concession variant needs G(beta_e) > c_lo")
        assert len(retried) == 2  # beta_G = 1e7, in the block and in its oracle

    @pytest.mark.parametrize("tol", [1e-16, 1e-20])
    def test_failing_residuals(self, tol):
        # at 1e-16 some residuals fail even the adjacent-float retry; at 1e-20
        # no float root meets tol, and the equation is ill-conditioned
        points = _mild_draws(1, 200) + [make_p1(), make_p1(beta_G=1e308)]
        got = self._assert_matches(points, tol=tol)
        failed = [r for r in got if isinstance(r, tuple)]
        assert 10 <= len(failed) and any("ill-conditioned" in r[1] for r in failed)
        if tol == 1e-20:
            assert all(r[0] is DomainError and "ill-conditioned" in r[1] for r in failed)

    def test_varying_piecewise_linear_H_is_solved_point_by_point(self):
        # no column form holds a piecewise-linear H that varies across the block
        points = [
            make_p1(H=BoundedCDF.piecewise_linear([(0.0, 0.0), (x, 0.5), (1.0, 1.0)]))
            for x in (0.2, 0.5, 0.8)
        ]
        got = self._assert_matches(points)
        assert all(isinstance(r, str) for r in got)
        with pytest.raises(DomainError, match="piecewise-linear"):
            model._block(points)


class TestBuildCheckOrder:
    """A failure injected into each check of the build, with every later
    check failing too: the row carries the first failure in the scalar
    order, as the oracle does, and the rows around it keep their own."""

    @staticmethod
    def _build(points, tol=solver_mild.DEFAULT_TOL, moved=()):
        """Each point's build outcome, its error message or None, checked
        against the oracle's; the root of each row in ``moved`` is moved
        past alpha_G, by 0.01."""
        block = model._block(points)
        brackets = solver_mild.threshold_bracket(block)
        roots = [
            p.alpha_G + 0.01 if i in moved else find_root(solver_mild.threshold_equation(p), *b)
            for i, (p, b) in enumerate(zip(points, brackets))
        ]
        # each root certified, as the solve path does before the build
        jobs = [(i, (), bracket) for i, bracket in enumerate(brackets)]
        f = solver_mild.threshold_equation
        certified = solver._certify_roots(f, block, points, jobs, roots, tol, "threshold")
        got = solver_mild.mild_equilibrium(block, points, certified, tol)
        want = [_attempt(reference_mild_equilibrium, *args, tol) for args in zip(points, brackets, roots)]
        assert [_outcome(r) for r in got] == [_outcome(r) for r in want]
        return [str(r) if isinstance(r, RepgameError) else None for r in got]

    @staticmethod
    def _fail_later_checks(monkeypatch, closed_form=True, p_R=True):
        """Fail the closed-form check and the p_R (or only the p_NN) guard."""
        if closed_form:
            monkeypatch.setattr(solver_mild, "_IDENTITY_TOL", -1.0)
        protest_prob = model.protest_prob
        # p_R's belief is the only one with mu_N = 0
        bump = (lambda mu: 1e3) if p_R else (lambda mu: 1e3 * (mu.mu_N > 0.0))
        monkeypatch.setattr(model, "protest_prob", lambda mu, params: protest_prob(mu, params) + bump(mu))

    def test_residual_retry(self, monkeypatch):
        # a root past alpha_G misses tol, and no adjacent float pair brackets it
        self._fail_later_checks(monkeypatch)
        errors = self._build(_mild_draws(0, 6), moved={1, 3, 5})
        assert all(e.startswith("threshold residual") for e in errors[1::2])
        assert all(e.startswith("probability closed forms") for e in errors[::2])
        # below float resolution the retry fails as ill-conditioned
        assert any("ill-conditioned" in (e or "") for e in self._build(_mild_draws(1, 40), tol=1e-300))

    def test_escape(self, monkeypatch):
        # a tol of 10 passes the root past alpha_G, and the escape check fails it
        self._fail_later_checks(monkeypatch)
        errors = self._build(_mild_draws(0, 6), tol=10.0, moved={1, 3, 5})
        assert all(e.startswith("threshold ") and "escaped" in e for e in errors[1::2])
        assert all(e.startswith("probability closed forms") for e in errors[::2])

    def test_kappa(self, monkeypatch):
        # beta_B at or above G^{-1}(alpha_G) = 0.6 leaves kappa undefined
        self._fail_later_checks(monkeypatch)
        points = [make_p1(beta_B=float(b)) for b in np.linspace(0.4, 0.9, 6)]
        errors = self._build(points)
        assert [e.split(":")[0] for e in errors] == ["probability closed forms disagree"] * 2 + [
            "reveal likelihood ratio undefined"
        ] * 4

    def test_closed_forms(self, monkeypatch):
        self._fail_later_checks(monkeypatch)
        errors = self._build(_mild_draws(2, 6))
        assert all(e.startswith("probability closed forms disagree") for e in errors)

    def test_p_R_guard(self, monkeypatch):
        self._fail_later_checks(monkeypatch, closed_form=False)
        errors = self._build(_mild_draws(2, 6))
        assert all(e.startswith("protest-after-reveal") for e in errors)

    def test_p_NN_guard(self, monkeypatch):
        self._fail_later_checks(monkeypatch, closed_form=False, p_R=False)
        errors = self._build(_mild_draws(2, 6))
        assert all(e.startswith("protest-after-no-news") for e in errors)
