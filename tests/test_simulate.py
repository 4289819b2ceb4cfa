import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    make_p1,
    make_p2,
    play_episode,
    public_action,
    reference_frequencies,
    regime_action,
)
from repgame import (
    Belief,
    DomainError,
    EstimationError,
    SimStats,
    estimate_from_sim,
    no_concession_equilibrium,
    run_simulation,
    solve_mild,
    solve_severe,
)
from repgame.simulate import (
    ACTIONS,
    CHUNK,
    OBSERVATIONS,
    OUTCOMES,
    THETAS,
    _POSSIBLE,
    episode_uniforms,
    outcome_codes,
    play_blocks,
    simulate_arrays,
)


@pytest.fixture(scope="module")
def mild_eq():
    return solve_mild(make_p1())


@pytest.fixture(scope="module")
def severe_eq():
    return solve_severe(make_p2())


def solved(variant, mild_eq, severe_eq):
    """(params, equilibrium) of one simulation variant."""
    if variant == "mild":
        return make_p1(), mild_eq
    if variant == "severe":
        return make_p2(), severe_eq
    return make_p1(), no_concession_equilibrium(make_p1())


class TestRegimeAction:
    def test_mild_conceals_below_threshold(self, mild_eq):
        assert regime_action("B", 0.2, mild_eq, 0.9) == "conceal"

    def test_mild_good_type_mixes(self, mild_eq):
        assert regime_action("G", 0.9, mild_eq, 0.3) == "reveal"  # 0.3 < kappa
        assert regime_action("G", 0.9, mild_eq, 0.5) == "concede"  # 0.5 > kappa
        assert regime_action("B", 0.9, mild_eq, 0.5) == "reveal"

    def test_knife_edge_conceals(self, mild_eq):
        assert regime_action("G", mild_eq.c_tilde, mild_eq, 0.0) == "conceal"

    def test_severe_differential_thresholds(self, severe_eq):
        assert regime_action("B", 0.5, severe_eq, 0.0) == "concede"  # 0.5 > c_tilde_B
        assert regime_action("G", 0.5, severe_eq, 0.0) == "conceal"  # 0.5 < c_tilde_G
        assert regime_action("G", 0.8, severe_eq, 0.0) == "reveal"
        assert regime_action("B", 0.1, severe_eq, 0.0) == "conceal"

    def test_no_concession_variant(self):
        eq = no_concession_equilibrium(make_p1())
        assert regime_action("G", 0.5, eq, 0.99) == "conceal"
        assert regime_action("B", 0.7, eq, 0.0) == "reveal"

    def test_unorganized_has_no_move(self, mild_eq):
        with pytest.raises(DomainError):
            regime_action("N", 0.5, mild_eq, 0.0)


class TestPublicAction:
    def test_protests_after_reveal_below_cutoff(self, mild_eq):
        p1 = make_p1()
        assert public_action("R", 0.3, mild_eq, p1) is True  # cutoff 0.6
        assert public_action("R", 0.7, mild_eq, p1) is False

    def test_no_news_cutoff_is_lower(self, mild_eq):
        p1 = make_p1()
        assert public_action("NN", 0.3, mild_eq, p1) is False  # cutoff ~0.2444
        assert public_action("NN", 0.2, mild_eq, p1) is True

    def test_concession_never_protests(self, mild_eq):
        assert public_action("concession", 0.0, mild_eq, make_p1()) is False


class TestPlayEpisode:
    def test_forced_unorganized_path(self, mild_eq):
        p1 = make_p1()
        rec = play_episode(p1, mild_eq, "N", None, 0.9)
        assert rec.action == "none"
        assert rec.observation == "NN"
        assert rec.c is None
        assert rec.success is False

    def test_success_requires_protest_and_no_concession(self, mild_eq):
        p1 = make_p1()
        rec = play_episode(p1, mild_eq, "G", 0.1, 0.05)
        assert rec.action == "conceal" and rec.protested and rec.success
        rec = play_episode(p1, mild_eq, "G", 0.9, 0.05, u_mix=0.9)
        assert rec.action == "concede" and not rec.protested and not rec.success


class TestReproducibility:
    def test_identical_runs(self, mild_eq):
        p1 = make_p1()
        a = run_simulation(p1, mild_eq, 20_000, seed=42)
        b = run_simulation(p1, mild_eq, 20_000, seed=42)
        assert a == b

    def test_different_seeds_differ(self, mild_eq):
        p1 = make_p1()
        a = run_simulation(p1, mild_eq, 20_000, seed=1)
        b = run_simulation(p1, mild_eq, 20_000, seed=2)
        assert a != b

    def test_disjoint_ranges_merge_to_full_run(self, mild_eq):
        p1 = make_p1()
        full = run_simulation(p1, mild_eq, 10_000, seed=9)
        head = run_simulation(p1, mild_eq, 3_777, seed=9, start=0)
        tail = run_simulation(p1, mild_eq, 6_223, seed=9, start=3_777)
        assert tuple(a + b for a, b in zip(head.counts, tail.counts)) == full.counts

    @pytest.mark.parametrize("start", [0, CHUNK - 5])
    @pytest.mark.parametrize("variant", ["mild", "severe", "no-concession"])
    def test_streamed_run_matches_one_shot(self, variant, start, mild_eq, severe_eq):
        params, eq = solved(variant, mild_eq, severe_eq)
        n = 2 * CHUNK + 3
        one_shot = SimStats.from_arrays(simulate_arrays(params, eq, n, seed=4, start=start))
        assert run_simulation(params, eq, n, seed=4, start=start) == one_shot
        sizes = [int(binned.sum()) for binned, _ in play_blocks(params, eq, n, 4, start)]
        assert sizes == [CHUNK, CHUNK, 3]

    def test_episode_draws_depend_only_on_seed_and_index(self):
        np.testing.assert_array_equal(
            episode_uniforms(5, 100, 1), episode_uniforms(5, 0, 101)[100:101]
        )


class TestVectorizedAgainstReference:
    @pytest.mark.parametrize("variant", ["mild", "severe", "no-concession"])
    def test_cross_check(self, variant, mild_eq, severe_eq):
        params, eq = solved(variant, mild_eq, severe_eq)
        n = 2_000
        arrays = simulate_arrays(params, eq, n, seed=3)
        u = episode_uniforms(3, 0, n)
        thetas = ("G", "B", "N")
        actions = ("none", "concede", "reveal", "conceal")
        for i in range(n):
            theta = "G" if u[i, 0] < params.gamma * params.q else (
                "B" if u[i, 0] < params.gamma else "N"
            )
            c = params.H.quantile(u[i, 1]) if theta != "N" else None
            rho = params.G.quantile(u[i, 2])
            rec = play_episode(params, eq, theta, c, rho, u_mix=u[i, 3])
            assert thetas[arrays["theta"][i]] == rec.theta
            assert actions[arrays["action"][i]] == rec.action
            assert bool(arrays["protested"][i]) == rec.protested
            assert bool(arrays["success"][i]) == rec.success

    def test_success_invariant(self, mild_eq):
        arrays = simulate_arrays(make_p1(), mild_eq, 50_000, seed=17)
        success = arrays["success"]
        assert np.all(arrays["protested"][success])
        assert np.all(arrays["theta"][success] != 2)
        assert np.all(arrays["action"][success] != 1)
        # observation R exactly when the action is reveal
        np.testing.assert_array_equal(arrays["observation"] == 0, arrays["action"] == 2)

    def test_minimum_episode_count(self, mild_eq):
        with pytest.raises(DomainError):
            simulate_arrays(make_p1(), mild_eq, 0, seed=1)

    def test_rejects_non_equilibrium(self):
        with pytest.raises(DomainError, match="not a solved equilibrium: Belief"):
            simulate_arrays(make_p1(), Belief(1.0, 0.0, 0.0), 10, seed=1)

    @pytest.mark.parametrize("n, seed", [(0, 1), (10, -1)])
    def test_blocks_checked_before_first_block(self, mild_eq, n, seed):
        with pytest.raises(DomainError):
            play_blocks(make_p1(), mild_eq, n, seed)  # raises on the call, not on next()


class TestPossibleOutcomes:
    def test_mask_holds_the_twelve_playable_outcomes(self):
        expected = {"N,none,NN,false", "N,none,NN,true"}
        for theta in ("G", "B"):
            expected.add(f"{theta},concede,concession,false")
            for action, observation in (("reveal", "R"), ("conceal", "NN")):
                expected |= {f"{theta},{action},{observation},{p}" for p in ("false", "true")}
        assert {key for key, possible in zip(OUTCOMES, _POSSIBLE) if possible} == expected

    def test_every_simulated_outcome_is_possible(self, mild_eq, severe_eq):
        """All three variants on every config each solves, 200,000 episodes
        apiece: together they produce each possible outcome and no other."""
        p1, p2 = make_p1(), make_p2()
        runs = [
            (p1, mild_eq),
            (p1, no_concession_equilibrium(p1)),
            (p2, severe_eq),
            (p2, no_concession_equilibrium(p2)),
        ]
        seen = set()
        for params, eq in runs:
            seen.update(np.unique(outcome_codes(simulate_arrays(params, eq, 200_000, seed=11))).tolist())
        assert seen == set(np.flatnonzero(_POSSIBLE).tolist())


class TestStats:
    def test_counts_sum_to_n(self, mild_eq):
        stats = run_simulation(make_p1(), mild_eq, 30_000, seed=5)
        assert len(stats.counts) == len(OUTCOMES)
        assert sum(stats.counts) == stats.n_episodes == 30_000

    def test_frequencies_near_analytic_targets(self, mild_eq):
        p1 = make_p1()
        stats = run_simulation(p1, mild_eq, 200_000, seed=0)
        for observed, se, target in [
            (stats.p_hat_revealed, stats.se_p_hat_revealed, mild_eq.prob_revealed),
            (stats.q_hat_prime, stats.se_q_hat_prime, mild_eq.q_prime),
            (stats.p_hat_R, stats.se_p_hat_R, mild_eq.p_R),
            (stats.p_hat_NN, stats.se_p_hat_NN, mild_eq.p_NN),
            (stats.q_hat, stats.se_q_hat, p1.q),
        ]:
            assert abs(observed - target) < 4.0 * se

    def test_errors_shrink_with_sample_size(self, mild_eq):
        # averaged over quantities and seeds so a lucky small-n draw cannot
        # mask the 10x error scaling
        p1 = make_p1()
        targets = {
            "p_hat_revealed": mild_eq.prob_revealed,
            "q_hat_prime": mild_eq.q_prime,
            "p_hat_R": mild_eq.p_R,
            "p_hat_NN": mild_eq.p_NN,
        }

        def mean_error(n):
            errs = []
            for seed in (0, 1, 2):
                stats = run_simulation(p1, mild_eq, n, seed=seed)
                errs.extend(abs(getattr(stats, k) - v) for k, v in targets.items())
            return float(np.mean(errs))

        assert mean_error(1_000_000) < mean_error(10_000)

    def test_round_trip_through_dict(self, mild_eq):
        stats = run_simulation(make_p1(), mild_eq, 10_000, seed=8)
        assert SimStats.from_dict(stats.to_dict()) == stats

    @given(
        counts=st.dictionaries(
            st.sampled_from(OUTCOMES),
            st.one_of(st.integers(0, 5), st.integers(0, 10**6), st.integers(0, 10**300)),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_masks_match_key_by_key_reference(self, counts):
        stats = SimStats.from_binned([counts.get(key, 0) for key in OUTCOMES])
        assert stats.n_episodes == sum(counts.values())
        expected = reference_frequencies(counts)
        assert {name: getattr(stats, name) for name in expected} == expected  # bit for bit
        assert stats.to_dict()["counts"] == {k: n for k, n in sorted(counts.items()) if n}

    def test_outcome_table_matches_code_layout(self):
        # code = ((theta * 4 + action) * 3 + observation) * 2 + protested
        assert len(OUTCOMES) == 72
        for code in range(72):
            rest, pr = divmod(code, 2)
            rest, ob = divmod(rest, 3)
            th, ac = divmod(rest, 4)
            key = f"{THETAS[th]},{ACTIONS[ac]},{OBSERVATIONS[ob]},{'true' if pr else 'false'}"
            assert OUTCOMES[code] == key

    def test_severe_run_has_no_bad_reveals(self, severe_eq):
        stats = run_simulation(make_p2(), severe_eq, 50_000, seed=2)
        assert [k for k, n in zip(OUTCOMES, stats.counts) if n and k.startswith("B,") and ",R," in k] == []
        assert 0 < stats.q_hat_prime == 1.0


class TestEstimateFromSim:
    def test_recovers_analytic_quantities(self, mild_eq):
        p1 = make_p1()
        stats = run_simulation(p1, mild_eq, 400_000, seed=13)
        report = estimate_from_sim(stats)
        assert abs(report.total_hat - mild_eq.prob_total) < 4.0 * report.se_total_hat
        assert abs(report.H_hat - mild_eq.prob_concealed) < 4.0 * report.se_H_hat
        assert abs(report.D_lower_hat + mild_eq.c_tilde) < 4.0 * report.se_D_lower_hat
        assert report.flags == ()

    def test_requires_revealed_episodes(self):
        stats = SimStats.from_dict(
            {
                "n_episodes": 10,
                "counts": {"G,conceal,NN,false": 4, "B,conceal,NN,true": 3, "N,none,NN,false": 3},
            }
        )
        with pytest.raises(EstimationError):
            estimate_from_sim(stats)

    def test_reversed_updating_is_flagged_not_fatal(self):
        stats = SimStats.from_dict(
            {
                "n_episodes": 100,
                "counts": {
                    "G,reveal,R,false": 30,
                    "B,reveal,R,true": 10,
                    "B,conceal,NN,false": 20,
                    "N,none,NN,false": 40,
                },
            }
        )
        report = estimate_from_sim(stats)
        assert any("inconsistent-sample" in f for f in report.flags)

    def test_all_good_revealed_names_the_severe_regime(self):
        # q_hat_prime = 1 is the severe regime's signature, not sampling noise
        stats = SimStats.from_dict(
            {
                "n_episodes": 100,
                "counts": {
                    "G,reveal,R,false": 30,
                    "B,conceal,NN,false": 20,
                    "B,concede,concession,false": 10,
                    "N,none,NN,false": 40,
                },
            }
        )
        assert stats.q_hat_prime == 1.0
        flags = estimate_from_sim(stats).flags
        assert [f for f in flags if "q_hat_prime" in f] == [
            "severe-regime signature: q_hat_prime = 1 (every revealed episode is a good type); "
            "the mild-regime estimators do not apply"
        ]
        assert not any("noise" in f for f in flags)

    @pytest.mark.parametrize("good", [0, 60])
    def test_q_hat_at_unit_interval_edge_is_undefined(self, good):
        stats = SimStats.from_dict(
            {
                "n_episodes": 100,
                "counts": {"G,reveal,R,false": good, "B,reveal,R,true": 60 - good, "N,none,NN,false": 40},
            }
        )
        with pytest.raises(EstimationError, match="q_hat must be interior to"):
            estimate_from_sim(stats)
