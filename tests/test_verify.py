import dataclasses
import functools

import numpy as np
import pytest

from helpers import make_p1, make_p2, reference_best_response, reference_draw_params
from repgame import (
    AssumptionError,
    BoundedCDF,
    DomainError,
    RepgameError,
    SignLawReport,
    SolverError,
    bayes_consistency_check,
    best_response_check,
    certify_equilibrium,
    ModelParams,
    fosd_comparative_statics_check,
    degenerate_cost_limit_check,
    effect_monotonicity_check,
    no_concession_equilibrium,
    sign_law_check,
    solve_mild,
    solve_severe,
)
from repgame import distributions, model, solver_mild, verify
from repgame.solver import solve
from repgame.verify import BETA_FLAG, MAX_GRID, _uniform, draw_params


@pytest.fixture(scope="module")
def mild_eq():
    return solve_mild(make_p1())


@pytest.fixture(scope="module")
def severe_eq():
    return solve_severe(make_p2())


class TestBestResponse:
    def test_p1_no_profitable_deviation(self, mild_eq):
        report = best_response_check(make_p1(), mild_eq, grid=1000)
        assert report.max_regret <= 1e-9

    def test_p2_no_profitable_deviation(self, severe_eq):
        report = best_response_check(make_p2(), severe_eq, grid=1000)
        assert report.max_regret <= 1e-9

    def test_p2_bad_type_strictly_prefers_concede(self, severe_eq):
        # above c_tilde_B conceding pays 1 - 0.4 against revealing 1 - 0.9
        p2 = make_p2()
        concede = 1.0 - p2.alpha_B
        reveal = 1.0 - p2.G.cdf(p2.beta_G)
        assert concede == pytest.approx(0.6, abs=1e-12)
        assert reveal == pytest.approx(0.1, abs=1e-12)

    def test_perturbed_threshold_creates_regret(self, mild_eq):
        bumped = dataclasses.replace(mild_eq, c_tilde=mild_eq.c_tilde + 0.05)
        report = best_response_check(make_p1(), bumped, grid=1000)
        assert report.max_regret >= 0.01
        theta, c = report.worst_type
        # worst types sit just below the perturbed cutoff
        assert mild_eq.c_tilde < c <= mild_eq.c_tilde + 0.05 + 1e-6

    def test_perturbed_severe_threshold_creates_regret(self, severe_eq):
        bumped = dataclasses.replace(severe_eq, c_tilde_G=severe_eq.c_tilde_G + 0.05)
        report = best_response_check(make_p2(), bumped, grid=1000)
        assert report.max_regret >= 0.01

    def test_perturbed_bad_type_threshold_creates_regret(self, severe_eq):
        bumped = dataclasses.replace(severe_eq, c_tilde_B=severe_eq.c_tilde_B + 0.05)
        report = best_response_check(make_p2(), bumped, grid=1000)
        assert report.max_regret >= 0.01
        theta, c = report.worst_type
        assert theta == "B" and c > severe_eq.c_tilde_B

    @pytest.mark.parametrize(
        "params, solver", [(make_p1(), solve_mild), (make_p2(), solve_severe)], ids=["p1", "p2"]
    )
    def test_largest_grid(self, params, solver):
        report = best_response_check(params, solver(params), grid=MAX_GRID)
        assert report.max_regret <= 1e-9

    def test_grid_validation(self, mild_eq):
        with pytest.raises(DomainError):
            best_response_check(make_p1(), mild_eq, grid=1)

    def test_matches_reference(self):
        # solved draws, each with a raised threshold, mild draws' no-concession
        # equilibria and the severe corner: ties, zero regrets and pinned cutoffs
        corner = make_p2(gamma=0.6, alpha_B=0.3, H=BoundedCDF.scaled_beta(0.0, 1.0, 0.3, 3.0))
        cases = [(corner, solve_severe(corner))]
        rng = np.random.default_rng(5)
        for regime, raised in (("mild", ["c_tilde"]), ("severe", ["c_tilde_G", "c_tilde_B"])):
            accepted = 0
            while accepted < 25:
                params = draw_params(rng, regime)
                if params is None:
                    continue
                accepted += 1
                eq = solve(regime, params)
                cases.append((params, eq))
                cases += [(params, dataclasses.replace(eq, **{k: getattr(eq, k) * 1.01})) for k in raised]
                if regime == "mild":
                    try:
                        cases.append((params, no_concession_equilibrium(params)))
                    except RepgameError:
                        pass
        for params, eq in cases:
            for grid in (2, 57, 1000):
                assert repr(best_response_check(params, eq, grid)) == repr(
                    reference_best_response(params, eq, grid)
                )


class TestBayesConsistency:
    def test_p1_gap(self, mild_eq):
        report = bayes_consistency_check(make_p1(), mild_eq)
        assert report.bayes_gap <= 1e-10
        # no news leaves type odds at the prior
        assert report.identity_gaps["no_news_type_odds"] <= 1e-12

    def test_p2_gap_and_differential_odds(self, severe_eq):
        p2 = make_p2()
        report = bayes_consistency_check(p2, severe_eq)
        assert report.bayes_gap <= 1e-10
        assert report.identity_gaps["no_news_type_odds"] <= 1e-12
        # differential concealment shifts the no-news odds off the prior
        prior_odds = p2.q / (1.0 - p2.q)
        nn_odds = severe_eq.mu_NN.mu_G / severe_eq.mu_NN.mu_B
        expected = prior_odds * p2.H.cdf(severe_eq.c_tilde_G) / p2.H.cdf(severe_eq.c_tilde_B)
        assert nn_odds == pytest.approx(expected, rel=1e-10)
        assert abs(nn_odds - prior_odds) > 0.5


class TestCertificate:
    def test_p1_full_certificate(self, mild_eq):
        cert = certify_equilibrium(make_p1(), mild_eq, grid=500)
        assert cert.max_regret <= 1e-9
        assert cert.bayes_gap <= 1e-10
        for name, gap in cert.identity_gaps.items():
            if name == "reveal_probability":
                assert gap > 0.0  # revealed repression stays on path
            else:
                assert gap <= 1e-10, name

    def test_p2_full_certificate(self, severe_eq):
        cert = certify_equilibrium(make_p2(), severe_eq, grid=500)
        assert cert.max_regret <= 1e-9
        assert cert.bayes_gap <= 1e-10
        assert cert.identity_gaps["reveal_probability"] > 0.0
        assert cert.identity_gaps["gap_identity"] <= 1e-10

    def test_severe_corner_certificate(self):
        # the bad type's pinned threshold: every bad type concedes
        params = make_p2(gamma=0.6, alpha_B=0.3, H=BoundedCDF.scaled_beta(0.0, 1.0, 0.3, 3.0))
        eq = solve_severe(params)
        assert eq.corner
        cert = certify_equilibrium(params, eq, grid=500)
        assert cert.max_regret <= 1e-9
        assert cert.bayes_gap <= 1e-10
        assert cert.identity_gaps["no_news_type_odds"] <= 1e-12

    @pytest.mark.parametrize(
        "params, reveals",
        [
            (make_p1(), True),
            (make_p2(), True),
            # every type conceals, H(c_tilde) = 1: R is off path, so Bayes
            # rule restricts only the no-news posterior
            (make_p1(H=BoundedCDF.uniform(0.0, 0.1)), False),
        ],
        ids=["p1", "p2", "no-reveal"],
    )
    def test_no_concession_certificate(self, params, reveals):
        cert = certify_equilibrium(params, no_concession_equilibrium(params), grid=500)
        assert cert.max_regret <= 1e-9
        assert cert.bayes_gap <= 1e-10
        assert cert.identity_gaps["no_news_type_odds"] <= 1e-12
        for name, gap in cert.identity_gaps.items():
            if name != "reveal_probability":
                assert gap <= 1e-10, name
        reveal = cert.identity_gaps["reveal_probability"]
        assert reveal > 0.0 if reveals else reveal == 0.0

    def test_random_equilibria_certify(self):
        rng = np.random.default_rng(23)
        done_mild = done_severe = 0
        while done_mild < 20 or done_severe < 20:
            if done_mild < 20:
                params = draw_params(rng, "mild")
                if params is not None:
                    cert = certify_equilibrium(params, solve_mild(params), grid=300)
                    assert cert.max_regret <= 1e-9
                    assert cert.bayes_gap <= 1e-10
                    assert cert.identity_gaps["reveal_probability"] > 0.0
                    done_mild += 1
            if done_severe < 20:
                params = draw_params(rng, "severe")
                if params is not None:
                    cert = certify_equilibrium(params, solve_severe(params), grid=300)
                    assert cert.max_regret <= 1e-9
                    assert cert.bayes_gap <= 1e-10
                    assert cert.identity_gaps["reveal_probability"] > 0.0
                    done_severe += 1


class TestFosd:
    def test_costlier_concealment_raises_revealed_lowers_total(self):
        report = fosd_comparative_statics_check(
            make_p1(), BoundedCDF.uniform(0.3, 1.0), BoundedCDF.uniform(0.0, 1.0)
        )
        assert report.ok
        assert report.prob_revealed_1 > report.prob_revealed_2
        assert report.prob_total_1 < report.prob_total_2

    def test_second_pair(self):
        report = fosd_comparative_statics_check(
            make_p1(), BoundedCDF.uniform(0.5, 1.0), BoundedCDF.uniform(0.2, 1.0)
        )
        assert report.ok

    def test_identical_distributions_rejected(self):
        with pytest.raises(DomainError):
            fosd_comparative_statics_check(
                make_p1(), BoundedCDF.uniform(0.0, 1.0), BoundedCDF.uniform(0.0, 1.0)
            )


class TestLimits:
    def test_prohibitive_family_vanishes(self, p1):
        report = degenerate_cost_limit_check(p1, [0.5, 0.1, 0.02])
        values = [p.h_at_threshold for p in report.prohibitive]
        assert all(v is not None for v in values)
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] < 0.05

    def test_negligible_family_saturates(self, p1):
        report = degenerate_cost_limit_check(p1, [0.5, 0.1, 0.02])
        assert report.negligible[-1].h_at_threshold > 0.95
        assert report.negligible_limit == 1.0

    def test_negligible_family_interior_branch(self):
        params = make_p1(alpha_G=0.4)
        report = degenerate_cost_limit_check(params, [0.1, 0.02, 0.005, 0.002])
        assert report.negligible_limit == pytest.approx(0.6857142857, abs=1e-9)
        assert report.negligible_gap < 0.01

    def test_eps_validation(self, p1):
        with pytest.raises(DomainError):
            degenerate_cost_limit_check(p1, [0.1, 0.5])
        with pytest.raises(DomainError):
            degenerate_cost_limit_check(p1, [1.5])


class TestMonotonicity:
    def test_q_axis(self, p1):
        report = effect_monotonicity_check(p1, "q", 0.55, 0.75, 9)
        assert report.ok and report.regime == "mild"
        assert all(b > a for a, b in zip(report.effects, report.effects[1:]))

    def test_beta_B_axis(self, p1):
        report = effect_monotonicity_check(p1, "beta_B", -1.2, -0.3, 9)
        assert report.ok

    def test_gamma_axis_severe(self, p2):
        report = effect_monotonicity_check(p2, "gamma", 0.3, 0.5, 9)
        assert report.ok and report.regime == "severe"
        assert all(b > a for a, b in zip(report.effects, report.effects[1:]))

    def test_G_shift_axis(self):
        params = make_p1(G=BoundedCDF.uniform(0.3, 1.3))
        report = effect_monotonicity_check(params, "G_shift", 0.0, 0.3, 9)
        assert report.ok and report.regime == "mild"

    def test_G_shift_requires_mild_regime(self, p2):
        with pytest.raises(DomainError):
            effect_monotonicity_check(p2, "G_shift", 0.0, 0.1, 5)

    def test_degenerate_beta_B_truncates(self, p1):
        # the grid is cut once a clause fails, well before beta_B reaches beta_G
        report = effect_monotonicity_check(p1, "beta_B", -1.2, 0.7, 9)
        assert report.truncated_note
        assert report.values[-1] < 0.6
        assert report.ok

    def test_beta_B_guard_rejects_degenerate_params(self, p1):
        from repgame import apply_axis

        with pytest.raises(DomainError):
            apply_axis(p1, "beta_B", p1.beta_G)

    def test_unknown_axis(self, p1):
        with pytest.raises(DomainError):
            effect_monotonicity_check(p1, "alpha_B", 0.6, 0.9, 5)


class TestSignLaws:
    def test_mild_sign_law_small(self):
        report = sign_law_check("mild", n_draws=60, seed=3)
        assert report.ok and report.n_checked == 60
        assert 0.0 < report.acceptance_rate <= 1.0

    def test_severe_sign_law_small(self):
        report = sign_law_check("severe", n_draws=60, seed=3)
        assert report.ok and report.n_checked == 60

    def test_budget_exhaustion(self):
        with pytest.raises(DomainError):
            sign_law_check("mild", n_draws=500, seed=0, budget=100)

    def test_unknown_regime(self):
        with pytest.raises(DomainError):
            sign_law_check("both")


@functools.lru_cache(maxsize=None)
def reference_sign_law(regime: str, n_draws: int, seed: int, budget: int = 100_000):
    """``sign_law_check`` as the scalar loop it replaces: one
    ``reference_draw_params`` proposal per step, built and checked in full."""
    rng = np.random.default_rng(seed)
    checked = used = 0
    failures = []
    while checked < n_draws and used < budget:
        used += 1
        params = reference_draw_params(rng, regime)
        if params is None:
            continue
        try:
            if regime == "mild":
                eq = solve_mild(params)
                ref = params.G.cdf(params.gamma * model.beta_e(params)) - params.alpha_G
                if abs(ref) < 1e-12:
                    continue
                if (eq.D > 0.0) != (ref > 0.0):
                    failures.append({"params": params.to_dict(), "D": eq.D, "reference": ref})
            else:
                eq = solve_severe(params)
                if not eq.D < 0.0:
                    failures.append({"params": params.to_dict(), "D": eq.D})
        except RepgameError as exc:
            failures.append({"params": params.to_dict(), "error": str(exc)})
        checked += 1
    if checked < n_draws:
        raise DomainError(
            f"draw budget {budget} exhausted after {checked}/{n_draws} accepted draws"
        )
    return SignLawReport(regime, checked, used, checked / used, not failures, tuple(failures))


class TestSignLawBlocks:
    # proposals are screened in blocks of BLOCK_PROPOSALS; with blocks of 1
    # and 3 proposals, most block ends cut a proposal in two
    @pytest.mark.parametrize("block, n_draws", [(None, 500), (1, 100), (3, 100)])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("regime", ["mild", "severe"])
    def test_report_matches_scalar_loop(self, regime, seed, block, n_draws, monkeypatch):
        if block is not None:
            monkeypatch.setattr(verify, "BLOCK_PROPOSALS", block)
        got = sign_law_check(regime, n_draws=n_draws, seed=seed)
        assert got.to_dict() == reference_sign_law(regime, n_draws, seed).to_dict()

    @pytest.mark.parametrize("block", [None, 1, 3])
    @pytest.mark.parametrize("regime", ["mild", "severe"])
    def test_accepted_proposals_match_scalar_draws(self, regime, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(verify, "BLOCK_PROPOSALS", block)
        accepted = verify._accepted_draws(np.random.default_rng(4), regime, 3000)
        got = [(i, p.to_dict()) for i, p in accepted]
        rng = np.random.default_rng(4)
        want = [(i, p.to_dict()) for i in range(3000) if (p := reference_draw_params(rng, regime))]
        assert got == want and len(want) > 50

    @pytest.mark.parametrize("regime", ["mild", "severe"])
    def test_screen_passes_exactly_the_accepted_proposals(self, regime):
        # the screen is no looser than the full check it spares
        rows, _ = verify._parse(np.random.default_rng(5).random(16 * 512), regime)
        rng = np.random.default_rng(5)
        want = [i for i in range(len(rows)) if reference_draw_params(rng, regime) is not None]
        assert verify._screen(rows, regime).tolist() == want

    @pytest.mark.parametrize("regime", ["mild", "severe"])
    def test_budget_message_matches_scalar_loop(self, regime):
        with pytest.raises(DomainError) as want:
            reference_sign_law(regime, 500, 0, budget=100)
        with pytest.raises(DomainError) as got:
            sign_law_check(regime, n_draws=500, seed=0, budget=100)
        assert str(got.value) == str(want.value)


class TestSignLawKnifeEdge:
    def test_failing_knife_edge_draw_counts_as_scalar_loop(self, monkeypatch):
        # beta_e moved so that G(gamma*beta_e) = alpha_G for one accepted mild
        # draw, whose solve then fails: a knife edge makes no sign prediction,
        # but its failure counts, in the scalar loop and in the block
        knife: set = set()
        beta_e = model.beta_e

        def knife_beta_e(p):
            if isinstance(p, ModelParams) and p.q in knife:
                return p.G.quantile(p.alpha_G) / p.gamma
            return beta_e(p)

        monkeypatch.setattr(model, "beta_e", knife_beta_e)
        for index, params in verify._accepted_draws(np.random.default_rng(0), "mild", 100_000):
            knife.add(params.q)
            ref = params.G.cdf(params.gamma * model.beta_e(params)) - params.alpha_G
            if abs(ref) < 1e-12 and model.check_assumption("mild", params).ok:
                break
            knife.clear()
        assert knife and index < 30
        bracket = solver_mild.threshold_bracket

        def failing(p, *args):
            out = bracket(p, *args)
            return [SolverError(f"knife edge at q={q}") if q in knife else b for q, b in zip(p.q.tolist(), out)]

        monkeypatch.setattr(solver_mild, "threshold_bracket", failing)
        got = sign_law_check("mild", n_draws=40, seed=0)
        assert got.to_dict() == reference_sign_law.__wrapped__("mild", 40, 0).to_dict()
        assert [f.get("error") for f in got.failures] == [f"knife edge at q={params.q}"]
        assert got.n_checked == 40


class TestSignLawCheckAuthority:
    def test_draw_that_the_check_rejects_is_a_failure(self, monkeypatch):
        # a screen that also passes one type-valid row failing a mild clause:
        # the block's regime check rejects that draw, and the report lists it
        # as a failure instead of dropping it
        screen = verify._screen
        extra = []

        def looser(rows, regime):
            keep = screen(rows, regime).tolist()
            if not extra:
                p = verify._columns(rows)
                typed = np.flatnonzero(p.beta_G > np.maximum(p.beta_B, 0.0)).tolist()
                extra.append(next(i for i in typed if i not in keep))
                row = rows[extra[0]].tolist()
                extra.append(ModelParams(*row[:6], verify._cost_dist(*row[6:11]),
                                         verify._cost_dist(*row[11:])))
                keep = sorted(keep + extra[:1])
            return np.array(keep, dtype=np.intp)

        monkeypatch.setattr(verify, "_screen", looser)
        got = sign_law_check("mild", n_draws=40, seed=0)
        index, params = extra
        assert not model.check_assumption("mild", params).ok and index < 40
        assert len(got.failures) == 1 and got.n_checked == 40
        (failure,) = got.failures
        assert failure["params"] == params.to_dict()
        assert failure["error"].startswith("mild-conflict assumption failed")


class TestClauseStatement:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("regime", ["mild", "severe"])
    def test_block_clauses_match_scalar_reports(self, regime, seed):
        # one statement of the clauses, on a block of columns and on a row's params
        rows, _ = verify._parse(np.random.default_rng(seed).random(16 * 512), regime)
        block = model.clauses(regime, verify._columns(rows))
        built = 0
        for i, row in enumerate(rows.tolist()):
            try:
                params = ModelParams(*row[:6], verify._cost_dist(*row[6:11]),
                                     verify._cost_dist(*row[11:]))
            except DomainError:
                continue
            built += 1
            report = model.check_assumption(regime, params)
            got = np.array([[lhs[i], rhs[i]] for _, lhs, rhs in block])
            want = np.array([[c.lhs, c.rhs] for c in report.clauses])
            assert [name for name, _, _ in block] == [c.name for c in report.clauses]
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), i
        assert built > 100


class TestBatchedCDF:
    def test_bit_identical_to_scalar_cdf(self):
        dists = [
            BoundedCDF.uniform(0.0, 1.0),
            BoundedCDF.uniform(0.2, 1.3),
            BoundedCDF.scaled_beta(0.0, 1.0, 0.3, 3.0),
            BoundedCDF.scaled_beta(0.4, 1.9, 2.5, 0.7),
            BoundedCDF.scaled_beta(0.1, 0.5, 1.0625, 1.0625),
        ]
        rows, xs = [], []
        for d in dists:
            width = d.hi - d.lo
            # below, at and inside, and above the support; -0.0 at lo = 0.0
            for x in (-0.0, d.lo - 0.5, d.lo, d.lo + 1e-300, d.lo + 0.01 * width,
                      d.lo + 0.5 * width, d.hi - 1e-12, d.hi, d.hi + 0.25, 7.0):
                rows.append(d)
                xs.append(x)
        columns = (
            np.array([d.lo for d in rows]),
            np.array([d.hi for d in rows]),
            np.array([0.0 if d.family == "scaled_beta" else 1.0 for d in rows]),
            np.array([(d.params or (1.0, 1.0))[0] for d in rows]),
            np.array([(d.params or (1.0, 1.0))[1] for d in rows]),
        )
        lo, hi, flag, a, b = columns
        got = distributions.cost_columns(lo, hi, flag < BETA_FLAG, a, b).cdf(np.array(xs))
        want = np.array([d.cdf(x) for d, x in zip(rows, xs)])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestDrawParams:
    @pytest.mark.parametrize("regime", ["mild", "severe"])
    def test_matches_reference(self, regime):
        # same proposals, same accept/reject decisions, same rng stream as
        # building and fully checking every draw
        accepted = 0
        for seed in range(20):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(1000):
                got, want = draw_params(rng, regime), reference_draw_params(ref_rng, regime)
                assert (got is None) == (want is None)
                if got is not None:
                    assert got.to_dict() == want.to_dict()
                    accepted += 1
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert accepted > 0

    @pytest.mark.parametrize(
        "lo,hi",
        [
            (0.0, 0.2), (0.0, 0.3), (0.0, 0.5), (0.3, 1.5), (0.4, 1.6), (0.8, 1.8),
            (0.5, 3.0), (0.3, 3.0), (0.2, 1.2), (-1.5, 0.8), (-1.0, 0.6),
            (0.1, 0.9), (0.02, 0.98),
        ],
    )
    def test_uniform_is_generator_uniform(self, lo, hi):
        # bit for bit: a numpy release that changes Generator.uniform's
        # formula must fail here rather than silently change verify's draws
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        got = _uniform(lo, hi, rng.random(5000))
        want = np.array([ref_rng.uniform(lo, hi) for _ in range(5000)])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _list_walk(u: np.ndarray) -> tuple[list, int]:
    """The starts of the whole proposals at the head of u, and the doubles
    they use, found one proposal at a time from its two flags."""
    flag = (u < BETA_FLAG).tolist()
    starts, s = [], 0
    while s + 12 <= len(u):
        g_beta = flag[s + 4]
        if s + 12 + 2 * g_beta > len(u):
            break
        length = 12 + 2 * g_beta + 2 * flag[s + 11 + 2 * g_beta]
        if s + length > len(u):
            break
        starts.append(s)
        s += length
    return starts, s


class TestParse:
    @pytest.mark.parametrize("regime", ["mild", "severe"])
    def test_chain_matches_a_list_walk(self, regime):
        # short blocks end inside a proposal, cut at each of its doubles
        rng = np.random.default_rng(29)
        sizes = list(range(0, 60)) + rng.integers(60, 400, 200).tolist() + [16 * verify.BLOCK_PROPOSALS] * 3
        for n in sizes:
            u = rng.random(n)
            rows, used = verify._parse(u, regime)
            starts, want_used = _list_walk(u)
            assert used == want_used and len(rows) == len(starts)
            # each row is the first proposal of a parse that starts at its start
            for row, start in zip(rows, starts):
                assert np.array_equal(row.view(np.uint64), verify._parse(u[start:], regime)[0][0].view(np.uint64))


class TestRejections:
    def test_fosd_requires_assumption_under_both(self):
        # H floor above alpha_G violates the mild check for H1
        with pytest.raises(AssumptionError):
            fosd_comparative_statics_check(
                make_p1(), BoundedCDF.uniform(0.65, 1.0), BoundedCDF.uniform(0.0, 1.0)
            )

    def test_monotonicity_needs_a_regime(self):
        bad = make_p1(alpha_B=0.5, alpha_G=0.6)  # fails mild clause 1
        # and severe clause 3 (alpha_G < G(beta_G) = 1)
        with pytest.raises(AssumptionError):
            effect_monotonicity_check(bad, "q", 0.55, 0.75, 5)
