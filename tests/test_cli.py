import argparse
import concurrent.futures
import contextlib
import copy
import dataclasses
import importlib
import io
import json
import math
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import make_p1, make_p2, reference_episodes_csv
import repgame
from repgame import BoundedCDF, SimStats, SolverError, simulate, solve, solve_mild
from repgame.cli import _episode_rows, _format_floats, build_parser, format_float, main
from repgame.simulate import CHUNK, OUTCOMES, outcome_codes, simulate_arrays

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def p1_config(tmp_path):
    path = tmp_path / "p1.json"
    path.write_text(json.dumps(make_p1().to_dict()))
    return str(path)


@pytest.fixture
def p2_config(tmp_path):
    path = tmp_path / "p2.json"
    path.write_text(json.dumps(make_p2().to_dict()))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_p1_passes(self, capsys, p1_config):
        code, out, _ = run_cli(capsys, "check", "--config", p1_config)
        assert code == 0
        payload = json.loads(out)
        assert payload["mild"]["ok"] is True
        assert payload["severe"]["ok"] is False
        assert len(payload["mild"]["clauses"]) == 6

    def test_broken_ordering_exits_2(self, capsys, tmp_path):
        cfg = make_p1().to_dict()
        cfg["alpha_B"] = 0.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "check", "--config", str(path))
        assert code == 2
        payload = json.loads(out)
        assert payload["mild"]["ok"] is False

    def test_regime_flag(self, capsys, p2_config):
        code, out, _ = run_cli(capsys, "check", "--config", p2_config, "--regime", "severe")
        assert code == 0
        assert json.loads(out)["severe"]["ok"] is True

    def test_no_news_bound_limit_prints_positive_zero(self, capsys, tmp_path):
        # H.lo > alpha_G puts no concealment mass below alpha_G, and beta_e < 0:
        # the bound's limit is +0.0, where be / inf would print -0
        cfg = make_p1(
            gamma=0.4, q=0.2, beta_G=1.0, beta_B=-1.0, alpha_G=0.6, alpha_B=0.7,
            G=BoundedCDF.uniform(0.0, 1.0), H=BoundedCDF.uniform(0.7, 1.0),
        ).to_dict()
        path = tmp_path / "zero_bound.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "check", "--config", str(path), "--regime", "mild")
        assert code == 2
        (clause,) = [c for c in json.loads(out)["mild"]["clauses"]
                     if c["name"] == "rho_lo < no-news protest bound"]
        assert clause["rhs"] == 0 and not clause["passed"]
        assert '"rhs": 0,' in out and '"rhs": -0,' not in out


class TestSolveCommands:
    def test_solve_mild_output(self, capsys, p1_config):
        code, out, _ = run_cli(capsys, "solve-mild", "--config", p1_config)
        assert code == 0
        payload = json.loads(out)
        assert payload["c_tilde"] == pytest.approx(0.3556411, abs=1e-6)
        assert payload["kappa"] == pytest.approx(0.4534413, abs=1e-6)
        assert payload["mu_R"]["mu_N"] == 0.0

    def test_solve_mild_assumption_violation_exits_2(self, capsys, p2_config):
        code, _, err = run_cli(capsys, "solve-mild", "--config", p2_config)
        assert code == 2
        assert "assumption violated" in err

    def test_solve_severe_output(self, capsys, p2_config):
        code, out, _ = run_cli(capsys, "solve-severe", "--config", p2_config)
        assert code == 0
        payload = json.loads(out)
        assert payload["c_tilde_B"] == pytest.approx(0.2285271, abs=1e-6)
        assert payload["c_tilde_G"] == pytest.approx(0.7285271, abs=1e-6)
        assert payload["corner"] is False
        assert payload["multiplicity_note"] == []

    @pytest.mark.parametrize(
        "golden, params",
        [
            ("solve_severe_p2", make_p2()),
            (
                "solve_severe_corner",
                make_p2(gamma=0.6, alpha_B=0.3, H=BoundedCDF.scaled_beta(0.0, 1.0, 0.3, 3.0)),
            ),
        ],
        ids=["p2", "corner"],
    )
    def test_scan_flag_has_no_effect(self, capsys, tmp_path, golden, params):
        # --scan is accepted for old command lines; the solve never reads it
        path = tmp_path / "config.json"
        path.write_text(json.dumps(params.to_dict()))
        outputs = {
            run_cli(capsys, "solve-severe", "--config", str(path), *scan)
            for scan in ((), ("--scan", "0"), ("--scan", "2000"))
        }
        expected = (GOLDEN / f"{golden}.stdout").read_text(encoding="utf-8")
        assert outputs == {(0, expected, "")}

    def test_tol_flag(self, capsys, p1_config):
        code, out, _ = run_cli(capsys, "solve-mild", "--config", p1_config, "--tol", "1e-12")
        assert code == 0
        assert json.loads(out)["residual"] <= 1e-12

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve-mild",),
            ("solve-severe",),
            ("simulate", "--n", "10", "--seed", "0"),
            ("verify", "--grid", "50", "--draws", "5"),
        ],
    )
    def test_non_finite_tol_exits_5(self, capsys, p1_config, p2_config, argv):
        config = p2_config if argv[0] == "solve-severe" else p1_config
        # an infinite or huge tol would pass every residual guard
        for tol in ("inf", "-inf", "nan", "1e308", "1"):
            code, out, err = run_cli(capsys, argv[0], "--config", config, *argv[1:], f"--tol={tol}")
            assert code == 5 and out == ""
            assert err.startswith("bad input: tol must be finite and positive") and err.count("\n") == 1


def _p1_with(tmp_path, beta_G: float) -> str:
    path = tmp_path / "p1_beta_G.json"
    path.write_text(json.dumps(make_p1(beta_G=beta_G).to_dict()))
    return str(path)


_SOLVE_COMMANDS = [("solve-mild",), ("simulate", "--n", "1000", "--seed", "0")]


class TestHugePayoffs:
    @pytest.mark.parametrize("beta_G", [1e6, 1e308])
    @pytest.mark.parametrize("argv", _SOLVE_COMMANDS)
    def test_solves(self, capsys, tmp_path, beta_G, argv):
        code, out, err = run_cli(capsys, argv[0], "--config", _p1_with(tmp_path, beta_G), *argv[1:])
        assert code == 0, err
        payload = json.loads(out)
        if argv[0] == "solve-mild":
            assert 0.0 < payload["c_tilde"] < 2e-6 and payload["residual"] <= 1e-10
            assert payload["D_lower"] == pytest.approx(-payload["c_tilde"], rel=1e-9, abs=0.0)
        else:
            assert payload["stats"]["n_episodes"] == 1000

    @pytest.mark.parametrize("beta_G", [2.5, 1e308])
    @pytest.mark.parametrize("argv", _SOLVE_COMMANDS)
    def test_tol_below_float_resolution_exits_5(self, capsys, tmp_path, beta_G, argv):
        config = _p1_with(tmp_path, beta_G)
        code, out, err = run_cli(capsys, argv[0], "--config", config, *argv[1:], "--tol", "1e-20")
        assert code == 5 and out == ""
        assert err.startswith("bad input: threshold equation is ill-conditioned")

    def test_genuine_non_convergence_exits_3(self, capsys, p1_config, monkeypatch):
        from repgame import solver

        monkeypatch.setattr(solver, "find_root", lambda f, lo, hi: hi)
        code, out, err = run_cli(capsys, "solve-mild", "--config", p1_config)
        assert code == 3 and out == ""
        assert err.startswith("solver failure: threshold residual")

    def test_uncertified_sweep_roots_exit_3(self, capsys, p1_config, monkeypatch):
        # each lockstep root of a mild sweep goes through solve-mild's
        # residual check
        from repgame import solver

        monkeypatch.setattr(solver, "find_roots", lambda f, lo, hi: np.array(hi))
        code, out, err = run_cli(
            capsys, "sweep", "--config", p1_config, "--axis", "H_lo",
            "--start", "0.0", "--end", "0.4", "--steps", "6",
        )
        assert code == 3 and out == ""
        assert err.startswith("solver failure: threshold residual")

    def test_uncertified_sign_law_roots_are_failures_exit_4(self, capsys, p1_config, monkeypatch):
        # a lockstep root of a sign-law draw that misses tol is that draw's
        # failure entry, not a traceback; the certificates solve one at a
        # time. Some severe draws have their root at the bracket's end.
        from repgame import solver

        monkeypatch.setattr(solver, "find_roots", lambda f, lo, hi: np.array(hi))
        code, out, err = run_cli(capsys, "verify", "--config", p1_config, "--draws", "20")
        assert code == 4 and err == ""
        payload = json.loads(out)
        assert payload["mild"]["ok"] is True and payload["ok"] is False
        for regime, message, n_failed in (("mild", "threshold residual", 20), ("severe", "severe ", 12)):
            law = payload[f"sign_law_{regime}"]
            assert law["n_checked"] == 20 and not law["ok"]
            errors = [f["error"] for f in law["failures"]]
            assert len(errors) == n_failed and all(e.startswith(message) for e in errors), errors


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("solve-mild",),
            ("solve-severe",),
            ("sweep", "--axis", "H_lo", "--start", "0.0", "--end", "0.4", "--steps", "6"),
            ("simulate", "--n", "20000", "--seed", "7"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, p1_config, p2_config, argv):
        config = p2_config if argv[0] == "solve-severe" else p1_config
        code1, out1, _ = run_cli(capsys, argv[0], "--config", config, *argv[1:])
        code2, out2, _ = run_cli(capsys, argv[0], "--config", config, *argv[1:])
        assert code1 == code2 == 0
        assert out1 == out2


class TestSimulate:
    def test_payload_shape(self, capsys, p1_config):
        code, out, _ = run_cli(
            capsys, "simulate", "--config", p1_config, "--n", "5000", "--seed", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 5000
        assert sum(payload["stats"]["counts"].values()) == 5000
        assert "total_hat" in payload["estimates"]

    def test_episode_csv(self, capsys, p1_config, tmp_path):
        csv_path = tmp_path / "episodes.csv"
        code, _, _ = run_cli(
            capsys,
            "simulate",
            "--config",
            p1_config,
            "--n",
            "50",
            "--seed",
            "3",
            "--episodes-out",
            str(csv_path),
        )
        assert code == 0
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "theta,c,rho,action,observation,protested,success"
        assert len(lines) == 51
        n_fields = [len(line.split(",")) for line in lines]
        assert set(n_fields) == {7}

    @pytest.mark.parametrize("variant", ["mild", "severe", "no-concession"])
    def test_streamed_csv_matches_reference(self, capsys, p1_config, p2_config, tmp_path, variant):
        params, config = (make_p2(), p2_config) if variant == "severe" else (make_p1(), p1_config)
        eq = solve(variant, params)
        n = 2 * CHUNK + 3
        csv_path = tmp_path / "episodes.csv"
        code, out, _ = run_cli(
            capsys, "simulate", "--config", config, "--n", str(n), "--seed", "6",
            "--variant", variant, "--episodes-out", str(csv_path),
        )
        assert code == 0
        arrays = simulate_arrays(params, eq, n, seed=6)
        assert csv_path.read_bytes() == reference_episodes_csv(arrays).encode("utf-8")
        assert json.loads(out)["stats"]["counts"] == SimStats.from_arrays(arrays).to_dict()["counts"]

    @pytest.mark.parametrize(
        "overrides, reached",
        [
            # a scaled_beta H that puts costs below 1e-4, which decimal_cells leaves over
            ({"H": BoundedCDF.scaled_beta(0.0, 1.0, 0.2, 2.0)}, lambda a: a["c"][a["theta"] != 2] < 1e-4),
            # a G support reaching above 1: rho cells with up to two digits before the point
            ({"G": BoundedCDF.uniform(0.0, 30.0), "beta_G": 40.0}, lambda a: a["rho"] >= 10.0),
        ],
        ids=["beta-H-small-costs", "G-above-1"],
    )
    def test_csv_cells_the_p1_goldens_never_reach(self, capsys, tmp_path, overrides, reached):
        params = make_p1(**overrides)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(params.to_dict()))
        csv_path = tmp_path / "episodes.csv"
        n = CHUNK + 3
        code, _, _ = run_cli(
            capsys, "simulate", "--config", str(config), "--n", str(n), "--seed", "4",
            "--episodes-out", str(csv_path),
        )
        assert code == 0
        arrays = simulate_arrays(params, solve_mild(params), n, seed=4)
        assert csv_path.read_bytes() == reference_episodes_csv(arrays).encode("utf-8")
        assert reached(arrays).any()

    @pytest.mark.parametrize("theta, raises", [(0, True), (2, False)])
    def test_non_finite_cost_in_block(self, theta, raises):
        block = simulate_arrays(make_p1(), solve_mild(make_p1()), 20, seed=0)
        block["theta"][7] = theta
        block["c"][7] = np.nan
        if raises:
            with pytest.raises(SolverError, match=r"^non-finite value in output: nan$"):
                _episode_rows(block, outcome_codes(block))
        else:  # an unorganized activist's cost is never written
            assert _episode_rows(block, outcome_codes(block)).count(b"\n") == 20

    def test_severe_variant(self, capsys, p2_config):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--config",
            p2_config,
            "--n",
            "5000",
            "--seed",
            "2",
            "--variant",
            "severe",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["stats"]["q_hat_prime"] == 1.0  # reveal identifies good types


def _ulps(x: float, k: int) -> float:
    """x moved k units in the last place (toward +inf for k > 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


_SIGN = st.sampled_from([1.0, -1.0])
# 10**k a few ulps either way, weighted to the edges of '%.12g''s fixed form
_NEAR_POWERS = st.builds(
    lambda k, ulps, sign: sign * _ulps(float(f"1e{k}"), ulps),
    st.sampled_from([-5, -4, 11, 12]) | st.integers(-323, 308),
    st.integers(-3, 3),
    _SIGN,
)
# m.5 * 10**(e - 11) a few ulps either way, for a 12-digit m: the 13th
# significant digit is a constructed tie
_NEAR_TIES = st.builds(
    lambda m, e, ulps, sign: sign * _ulps(float(f"{m}5e{e - 12}"), ulps),
    st.integers(10**11, 10**12 - 1),
    st.integers(-6, 13),
    st.integers(-3, 3),
    _SIGN,
)
_FIXED_FORM = st.builds(
    lambda u, e, sign: sign * u * 10.0**e, st.floats(1.0, 10.0, exclude_max=True), st.integers(-5, 12), _SIGN
)
_DOUBLES = st.floats(allow_nan=False, allow_infinity=False) | _NEAR_POWERS | _NEAR_TIES | _FIXED_FORM


class TestFormatFloats:
    """_format_floats is format_float, as bytes, on every element."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_DOUBLES, min_size=1, max_size=30))
    def test_equals_format_float(self, values):
        got = _format_floats(np.array(values, dtype=np.float64))
        assert got.dtype == np.dtype("S24")
        assert got.tolist() == [format_float(v).encode() for v in values]

    def test_across_slices(self):
        rng = np.random.default_rng(8)
        n = 3 * simulate._SLICE + 5
        values = rng.choice([-1.0, 1.0], n) * rng.random(n) * 10.0 ** rng.integers(-7, 15, n)
        values[::97] = np.round(values[::97], 2)
        assert _format_floats(values).tolist() == [format_float(v).encode() for v in values.tolist()]

    def test_array_part_takes_almost_every_uniform_draw(self):
        values = np.random.default_rng(3).random(100_000)
        _, rest = simulate.decimal_cells(values)
        assert len(rest) < 100  # a product on a tie is about 2 in 10**4

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises(self, bad):
        with pytest.raises(SolverError, match=rf"^non-finite value in output: {bad}$"):
            _format_floats(np.array([0.5, bad, math.nan]))


def _force_workers(monkeypatch, count: int) -> None:
    """Play simulate blocks on up to ``count`` processes, whatever the CPUs."""
    monkeypatch.setattr(simulate, "_worker_count", lambda n_blocks: min(count, n_blocks))


def _die(*args):
    os._exit(1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the block pool forks its workers")
class TestBlockPool:
    @pytest.mark.parametrize("n", [CHUNK, CHUNK + 1, 2 * CHUNK + 3])
    @pytest.mark.parametrize("variant", ["mild", "severe", "no-concession"])
    def test_one_worker_writes_the_same_bytes(
        self, capsys, monkeypatch, tmp_path, p1_config, p2_config, variant, n
    ):
        config = p2_config if variant == "severe" else p1_config
        argv = ["simulate", "--config", config, "--variant", variant, "--n", str(n), "--seed", "6"]
        runs = []
        for workers in (1, 2):
            _force_workers(monkeypatch, workers)
            csv_path, out_path = tmp_path / f"episodes{workers}.csv", tmp_path / f"sim{workers}.json"
            printed = run_cli(capsys, *argv, "--episodes-out", str(csv_path))
            written = run_cli(capsys, *argv, "--out", str(out_path))
            runs.append((printed, written, csv_path.read_bytes(), out_path.read_bytes()))
        assert runs[0] == runs[1]
        (code, _, _), _, episodes, _ = runs[0]
        assert code == 0 and episodes.count(b"\n") == n + 1

    def test_non_finite_cost_in_later_block_exits_3(self, capsys, monkeypatch, tmp_path, p1_config):
        play = simulate.simulate_arrays

        def poisoned(params, eq, n, seed, start=0):
            arrays = play(params, eq, n, seed, start)
            if start >= CHUNK:
                arrays["c"][:] = np.nan
            return arrays

        monkeypatch.setattr(simulate, "simulate_arrays", poisoned)
        runs = []
        for workers in (1, 2):
            _force_workers(monkeypatch, workers)
            csv_path = tmp_path / f"episodes{workers}.csv"
            result = run_cli(
                capsys, "simulate", "--config", p1_config, "--n", str(3 * CHUNK), "--seed", "0",
                "--episodes-out", str(csv_path),
            )
            runs.append((result, csv_path.read_bytes()))
        assert runs[0] == runs[1]
        result, episodes = runs[0]
        assert result == (3, "", "solver failure: non-finite value in output: nan\n")
        assert episodes.count(b"\n") == 1 + CHUNK  # the header and the first block

    def test_dead_worker_exits_3_in_one_line(self, capsys, monkeypatch, p1_config):
        monkeypatch.setattr(simulate, "_play_block", _die)
        _force_workers(monkeypatch, 2)
        code, out, err = run_cli(
            capsys, "simulate", "--config", p1_config, "--n", str(CHUNK + 1), "--seed", "0"
        )
        assert code == 3 and out == ""
        assert err.startswith("error: a simulation worker process died: ") and err.count("\n") == 1

    @pytest.mark.skipif(simulate._worker_count(2) < 2, reason="one process plays every block here")
    def test_killed_run_leaves_no_worker(self, p1_config, tmp_path):
        csv_path = tmp_path / "episodes.csv"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repgame.cli", "simulate", "--config", p1_config,
             "--n", str(1000 * CHUNK), "--seed", "0", "--episodes-out", str(csv_path)],
            stdout=subprocess.PIPE,
            env=_fresh_env(),
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not csv_path.exists() or csv_path.stat().st_size < CHUNK:  # a block is written
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            proc.kill()
            proc.wait(timeout=10)
            # the workers share the run's stdout: it ends once the last one exits
            ready, _, _ = select.select([proc.stdout], [], [], 10)
            assert ready and proc.stdout.read() == b""
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)  # what is left of the run's session
            proc.stdout.close()

    def test_one_block_starts_no_process(self, capsys, monkeypatch, p1_config):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        argv = ["simulate", "--config", p1_config, "--seed", "0"]
        assert run_cli(capsys, *argv, "--n", str(CHUNK))[0] == 0
        _force_workers(monkeypatch, 2)  # two blocks do take their pool from there
        with pytest.raises(AssertionError, match="a process pool was started"):
            main(argv + ["--n", str(CHUNK + 1)])


@pytest.fixture(scope="module")
def sim_payload(tmp_path_factory) -> dict:
    """The object ``simulate --out`` writes for 2,000 p1 episodes."""
    config = tmp_path_factory.mktemp("sim") / "p1.json"
    config.write_text(json.dumps(make_p1().to_dict()))
    out = config.with_name("sim.json")
    argv = ["simulate", "--config", str(config), "--n", "2000", "--seed", "0", "--out", str(out)]
    assert main(argv) == 0
    return json.loads(out.read_text())


_REVEAL = "G,reveal,R,true"  # an outcome with a non-zero count in sim_payload


def _set(key, value):
    def mutate(stats):
        stats[key] = value
    return mutate


def _set_count(key, value):
    """Sets one count, keeping n_episodes the sum of the counts where a
    number allows it, so that only the check on the count itself can fail."""
    def mutate(stats):
        number = round(value) if isinstance(value, (int, float)) else 0
        stats["n_episodes"] += number - stats["counts"].get(key, 0)
        stats["counts"][key] = value
    return mutate


class TestEstimate:
    def test_from_stats_file(self, capsys, p1_config, tmp_path):
        code, out, _ = run_cli(
            capsys, "simulate", "--config", p1_config, "--n", "50000", "--seed", "4"
        )
        stats_path = tmp_path / "stats.json"
        stats_path.write_text(json.dumps(json.loads(out)["stats"]))
        code, out2, _ = run_cli(capsys, "estimate", "--stats", str(stats_path))
        assert code == 0
        payload = json.loads(out2)
        assert payload["total_hat"] == pytest.approx(0.771083, abs=0.02)
        # the whole simulate payload is accepted too, with the same output
        sim_path = tmp_path / "sim.json"
        sim_path.write_text(out)
        code, out3, _ = run_cli(capsys, "estimate", "--stats", str(sim_path))
        assert code == 0
        assert out3 == out2

    def test_from_raw_values(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "estimate",
            "--q-hat", "0.65",
            "--q-prime-hat", "0.4571429",
            "--p-hat", "0.415442",
            "--p-r-hat", "0.6",
            "--p-nn-hat", "0.2443589",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["total_hat"] == pytest.approx(0.771083, abs=1e-5)
        assert payload["H_hat"] == pytest.approx(0.355641, abs=1e-5)
        assert payload["D_lower_hat"] == pytest.approx(-0.3556411, abs=1e-6)
        assert payload["se_total_hat"] is None  # no counts, no errors

    @pytest.mark.parametrize(
        "mutate",
        [
            _set_count(_REVEAL, -3),
            _set_count("X,bogus,R,maybe", 0),
            _set_count(_REVEAL, 30.9),
            _set_count(_REVEAL, 30.0),
            _set_count(_REVEAL, True),
            _set_count(_REVEAL, "5"),
            _set_count(_REVEAL, 10**400),  # beyond float range
            _set("n_episodes", 30.9),
            lambda stats: stats.update(n_episodes=True, counts={_REVEAL: 1}),
            _set("n_episodes", 1999),
            _set("counts", [1, 2]),
            _set("bogus", 1),
            lambda stats: stats.pop("n_episodes"),
            _set_count("N,reveal,R,true", 100),  # an unorganized activist repressed
            _set_count("G,concede,concession,true", 1),  # a protest after a concession
        ],
        ids=[
            "negative", "unknown-outcome", "fractional", "float", "bool", "string", "huge",
            "fractional-n", "bool-n", "wrong-sum", "counts-list", "extra-key", "no-n",
            "impossible-outcome", "protested-concession",
        ],
    )
    def test_malformed_stats_exit_5(self, capsys, tmp_path, sim_payload, mutate):
        stats = copy.deepcopy(sim_payload["stats"])
        mutate(stats)
        path = tmp_path / "stats.json"
        path.write_text(json.dumps(stats))
        code, out, err = run_cli(capsys, "estimate", "--stats", str(path))
        assert code == 5 and out == ""
        assert err.startswith(f"config error: {path}: not a stats file: ") and err.count("\n") == 1

    @pytest.mark.parametrize("content", [b"\xff\xfe garbage", b'{"n_episodes": ' + b"1" * 5000 + b"}"])
    def test_unparsable_stats_file_exit_5(self, capsys, tmp_path, content):
        path = tmp_path / "stats.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "estimate", "--stats", str(path))
        assert code == 5 and out == ""
        assert err.startswith(f"config error: {path}: ") and err.count("\n") == 1

    def test_truncated_stats_file_names_line_and_column(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"a": ')
        code, out, err = run_cli(capsys, "estimate", "--stats", str(path))
        assert code == 5 and out == ""
        assert err == f"config error: {path}:1:7: Expecting value\n"

    def test_missing_inputs_exit_5(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--q-hat", "0.6")
        assert code == 5

    @pytest.mark.parametrize(
        "flag, value",
        [("--p-hat", "nan"), ("--q-prime-hat", "inf"), ("--q-hat", "nan"), ("--p-nn-hat", "-inf"),
         # finite but no probability: bad input, not a solver failure or noise
         ("--q-hat", "1.5"), ("--q-prime-hat", "7"), ("--p-hat", "-3"), ("--p-r-hat", "4"),
         ("--p-nn-hat", "-2")],
    )
    def test_non_finite_flag_exit_5(self, capsys, flag, value):
        raw = {"--q-hat": "0.65", "--q-prime-hat": "0.45", "--p-hat": "0.4",
               "--p-r-hat": "0.6", "--p-nn-hat": "0.25", flag: value}
        code, out, err = run_cli(capsys, "estimate", *(f"{k}={v}" for k, v in raw.items()))
        assert code == 5
        assert out == ""
        assert err.startswith("config error: ") and flag in err and err.count("\n") == 1

    def test_q_prime_hat_one_names_the_severe_regime(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--q-hat=0.5", "--q-prime-hat=1", "--p-hat=0.2")
        assert code == 0
        assert json.loads(out)["flags"] == [
            "severe-regime signature: q_hat_prime = 1 (every revealed episode is a good type); "
            "the mild-regime estimators do not apply",
            "D_lower_hat unavailable: missing p_R_hat or p_NN_hat",
        ]

    def test_H_hat_flag_prints_12_significant_digits(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--q-hat=0.5", "--q-prime-hat=0.2", "--p-hat=1")
        assert code == 0
        assert "H_hat outside [0,1]: -0.6" in json.loads(out)["flags"]

    @pytest.mark.parametrize("q_hat", ["0", "1"])
    def test_q_hat_at_unit_interval_edge_exit_3(self, capsys, q_hat):
        # a valid probability that the estimator cannot use is no config error
        code, out, err = run_cli(capsys, "estimate", f"--q-hat={q_hat}", "--q-prime-hat=0.3",
                                 "--p-hat=0.2")
        assert code == 3 and out == ""
        assert err.startswith("solver failure: q_hat must be interior")


class TestSweepCommand:
    def test_csv_header_and_shape(self, capsys, p1_config):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--config", p1_config,
            "--axis", "H_lo",
            "--start", "0.0",
            "--end", "0.55",
            "--steps", "12",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == (
            "axis_value,assumption_ok,c_tilde,prob_revealed,prob_concealed,"
            "prob_total,p_R,p_NN,p_prior,D,D_lower"
        )
        assert len(lines) == 13

    def test_json_format(self, capsys, p1_config):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--config", p1_config,
            "--axis", "q",
            "--start", "0.55",
            "--end", "0.75",
            "--steps", "3",
            "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 3 and rows[0]["assumption_ok"] is True

    def test_empty_sweep_exit_3(self, capsys, p1_config):
        code, _, err = run_cli(
            capsys,
            "sweep",
            "--config", p1_config,
            "--axis", "alpha_G",
            "--start", "0.75",
            "--end", "0.9",
            "--steps", "3",
        )
        assert code == 3
        assert "empty sweep" in err


class TestVerifyCommand:
    def test_p1_verifies(self, capsys, p1_config):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--config", p1_config,
            "--grid", "200",
            "--draws", "25",
            "--seed", "0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["mild"]["ok"] is True
        assert payload["sign_law_mild"]["ok"] is True
        assert payload["sign_law_severe"]["ok"] is True


class TestVerifyFailurePath:
    def test_law_violation_exits_4(self, capsys, p1_config, monkeypatch):
        from repgame import verify
        from repgame.verify import SignLawReport

        def failing(regime, n_draws=500, seed=0, budget=100_000):
            return SignLawReport(regime, n_draws, n_draws, 1.0, False, ({"error": "forced"},))

        # the verify handler calls the module attribute, so patching it is enough
        monkeypatch.setattr(verify, "sign_law_check", failing)
        code, out, _ = run_cli(
            capsys, "verify", "--config", p1_config, "--grid", "50", "--draws", "5"
        )
        assert code == 4
        assert json.loads(out)["ok"] is False


def _fresh_env() -> dict:
    """Environment of a new interpreter that imports the same package as
    this process, also when the test run put src/ on sys.path through
    pytest's pythonpath setting."""
    src = os.path.dirname(os.path.dirname(repgame.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a new interpreter (see ``_fresh_env``)."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=_fresh_env())


# Runs each argv of the JSON list in argv[1] through main in this interpreter,
# and prints per command its exit code, stdout, whether scipy is loaded and
# which of the package's modules and numpy.random are.
_RUN_COMMANDS = """
import contextlib, io, json, sys
from repgame.cli import main
def loaded():
    return sorted(m for m in sys.modules if m.startswith(("repgame", "numpy.random")))
results = [{"scipy": "scipy" in sys.modules, "loaded": loaded()}]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append({"code": code, "out": out.getvalue(), "scipy": "scipy" in sys.modules,
                    "loaded": loaded()})
print(json.dumps(results))
"""


def _run_fresh(commands: list[list[str]]) -> list[dict]:
    proc = _fresh_python("-c", _RUN_COMMANDS, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestModuleInvocation:
    def test_python_dash_m(self, p1_config):
        proc = _fresh_python("-m", "repgame.cli", "solve-mild", "--config", p1_config)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["c_tilde"] == pytest.approx(0.3556411, abs=1e-6)


class TestDeferredScipyImport:
    """scipy.special is imported only when a scaled_beta distribution is
    built, and the process-pool modules only when a simulation uses a pool."""

    def test_importing_the_cli_loads_no_process_pool(self):
        script = (
            "import sys\n"
            "import repgame.cli\n"
            "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])\n"
        )
        proc = _fresh_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_uniform_and_piecewise_configs_never_load_scipy(self, p1_config, tmp_path):
        pwl = tmp_path / "p1_pwl.json"
        knots = [(0.0, 0.0), (0.5, 0.7), (1.0, 1.0)]
        pwl.write_text(json.dumps(make_p1(G=BoundedCDF.piecewise_linear(knots)).to_dict()))
        results = _run_fresh([
            ["check", "--config", p1_config],
            ["solve-mild", "--config", p1_config],
            ["simulate", "--config", p1_config, "--n", "1000", "--seed", "0"],
            ["check", "--config", str(pwl)],
        ])
        assert [r["scipy"] for r in results] == [False] * 5
        assert [r["code"] for r in results[1:]] == [0] * 4

    def test_scaled_beta_config_loads_scipy_with_identical_output(self, capsys, tmp_path):
        config = tmp_path / "p1_beta.json"
        config.write_text(json.dumps(make_p1(H=BoundedCDF.scaled_beta(0.0, 1.0, 2.0, 2.0)).to_dict()))
        commands = [
            ["solve-mild", "--config", str(config)],
            ["simulate", "--config", str(config), "--n", "1000", "--seed", "3",
             "--episodes-out", str(tmp_path / "fresh.csv")],
        ]
        results = _run_fresh(commands)
        assert [r["scipy"] for r in results] == [False, True, True]
        commands[1][-1] = str(tmp_path / "here.csv")
        for argv, fresh in zip(commands, results[1:]):
            assert run_cli(capsys, *argv) == (fresh["code"], fresh["out"], "")
        assert (tmp_path / "fresh.csv").read_bytes() == (tmp_path / "here.csv").read_bytes()

    @pytest.mark.parametrize(
        "build",
        [
            'BoundedCDF.from_dict({"family": "scaled_beta", "lo": 0.0, "hi": 2.0, "a": 2.0, "b": 3.0})',
            'dataclasses.replace(BoundedCDF.uniform(0.0, 2.0), family="scaled_beta", params=(2.0, 3.0))',
        ],
    )
    def test_every_scaled_beta_constructor_loads_scipy(self, build):
        script = (
            "import dataclasses, sys\n"
            "import numpy as np\n"
            "from repgame import BoundedCDF\n"
            "assert 'scipy' not in sys.modules\n"
            f"d = {build}\n"
            "print(repr([d.cdf(0.7), d.cdf(np.array([0.3, 1.9])).tolist(), d.quantile(0.4)]))\n"
        )
        proc = _fresh_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        d = eval(build, {"BoundedCDF": BoundedCDF, "dataclasses": dataclasses})
        assert proc.stdout == repr([d.cdf(0.7), d.cdf(np.array([0.3, 1.9])).tolist(), d.quantile(0.4)]) + "\n"


class TestColdStart:
    """Each subcommand imports only the modules it uses, and building the
    parser imports none of them."""

    def test_building_the_parser_loads_no_numpy(self):
        script = (
            "import sys\n"
            "import repgame.cli\n"
            "repgame.cli.build_parser()\n"
            "print(sorted(m for m in sys.modules if m.startswith(('repgame', 'numpy'))))\n"
        )
        proc = _fresh_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "['repgame', 'repgame.cli', 'repgame.errors']\n"

    def test_check_and_solve_mild_load_no_simulation_sweep_or_verify(self, p1_config):
        results = _run_fresh([["check", "--config", p1_config], ["solve-mild", "--config", p1_config]])
        assert [r["code"] for r in results[1:]] == [0, 0]
        unused = {"repgame.verify", "repgame.simulate", "repgame.sweep", "numpy.random"}
        assert [unused & set(r["loaded"]) for r in results] == [set()] * 3
        assert "repgame.solver_mild" in results[2]["loaded"]

    def test_raw_flag_estimate_loads_no_random_stream(self):
        results = _run_fresh([["estimate", "--q-hat", "0.6", "--q-prime-hat", "0.7", "--p-hat", "0.3"]])
        assert results[1]["code"] == 0
        unused = {"numpy.random", "repgame.simulate", "repgame.solver_severe", "repgame.verify", "repgame.sweep"}
        assert unused & set(results[1]["loaded"]) == set()
        assert "repgame.solver_mild" in results[1]["loaded"]

    def test_pooled_simulation_loads_the_random_stream_before_the_fork(self, p1_config):
        # the parent plays no block itself, so only a pre-fork import loads it here
        script = (
            "import contextlib, io, sys\n"
            "from repgame import cli, simulate\n"
            "simulate._worker_count = lambda n_blocks: min(2, n_blocks)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.main(['simulate', '--config', {p1_config!r}, '--n', '{2 * CHUNK}', '--seed', '0'])\n"
            "print(code, 'numpy.random' in sys.modules)\n"
        )
        proc = _fresh_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0 True\n"

    def test_pooled_simulation_builds_the_csv_tables_before_the_fork(self, p1_config, tmp_path):
        # the parent encodes no block itself, so only a pre-fork build fills its caches
        argv = ["simulate", "--config", p1_config, "--n", str(2 * CHUNK), "--seed", "0",
                "--episodes-out", str(tmp_path / "episodes.csv")]
        script = (
            "import contextlib, io\n"
            "from repgame import cli, simulate\n"
            "simulate._worker_count = lambda n_blocks: min(2, n_blocks)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.main({argv!r})\n"
            "print(code, cli._row_templates.cache_info().currsize, simulate.cell_tables.cache_info().currsize)\n"
        )
        proc = _fresh_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0 1 1\n"

    def test_only_an_episode_csv_builds_the_csv_tables(self, p1_config, tmp_path):
        script = (
            "import contextlib, io, json, sys\n"
            "from repgame import cli\n"
            "def built():\n"
            "    sim = sys.modules.get('repgame.simulate')\n"
            "    return [cli._row_templates.cache_info().currsize, sim and sim.cell_tables.cache_info().currsize]\n"
            "print(json.dumps(built()))\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0\n"
            "    print(json.dumps(built()))\n"
        )
        simulate_argv = ["simulate", "--config", p1_config, "--n", "10", "--seed", "0"]
        commands = [
            ["check", "--config", p1_config],
            ["solve-mild", "--config", p1_config],
            simulate_argv,
            simulate_argv + ["--episodes-out", str(tmp_path / "episodes.csv")],
        ]
        proc = _fresh_python("-c", script, json.dumps(commands))
        assert proc.returncode == 0, proc.stderr
        built = [json.loads(line) for line in proc.stdout.splitlines()]
        assert built == [[0, None], [0, None], [0, None], [0, 0], [1, 1]]

    def test_help_exits_0(self):
        proc = _fresh_python("-m", "repgame.cli", "--help")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: repgame ")


def _actions(flag: str) -> dict:
    """Each subcommand's action for ``flag``, by command name."""
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        command: action
        for command, sub in commands.choices.items()
        for action in sub._actions
        if flag in action.option_strings
    }


def _choices(command: str, flag: str) -> tuple:
    return tuple(_actions(flag)[command].choices)


class TestParserVocabulary:
    """build_parser spells its choices out, so that it imports no model
    module; they must stay the names those modules use."""

    def test_check_regimes(self):
        from repgame import model

        assert _choices("check", "--regime") == (*model.REGIMES, "auto")

    def test_sweep_axes_and_variants(self):
        from repgame import sweep

        assert _choices("sweep", "--axis") == sweep.SWEEP_AXES
        assert _choices("sweep", "--variant") == sweep.VARIANTS

    def test_simulate_variants_are_the_strategy_variants(self):
        from repgame import no_concession_equilibrium, solve_severe, strategy

        p1, p2 = make_p1(), make_p2()
        eqs = (solve_mild(p1), solve_severe(p2), no_concession_equilibrium(p1))
        assert _choices("simulate", "--variant") == tuple(strategy(eq)[0] for eq in eqs)

    def test_tol_default_is_the_solvers(self):
        from repgame import solver_mild

        tols = _actions("--tol")
        assert sorted(tols) == ["simulate", "solve-mild", "solve-severe", "verify"]
        assert {action.default for action in tols.values()} == {solver_mild.DEFAULT_TOL}


class TestPackageExports:
    """The package resolves its exports on first use (PEP 562)."""

    def test_every_export_is_the_submodules_object(self):
        assert len(set(repgame.__all__)) == len(repgame.__all__)
        for name in repgame.__all__:
            obj = getattr(repgame, name)
            assert obj.__module__.startswith("repgame."), name
            assert getattr(importlib.import_module(obj.__module__), name) is obj, name

    def test_export_follows_a_patched_submodule(self, monkeypatch):
        from repgame import solver_mild

        def patched(*args, **kwargs):
            raise AssertionError("not called")

        monkeypatch.setattr(solver_mild, "solve_mild", patched)
        assert repgame.solve_mild is patched
        monkeypatch.undo()
        assert repgame.solve_mild is solver_mild.solve_mild

    def test_star_import_binds_every_export(self):
        namespace: dict = {}
        exec("from repgame import *", namespace)
        assert set(repgame.__all__) <= namespace.keys()
        assert all(namespace[name] is getattr(repgame, name) for name in repgame.__all__)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'solve_mildd'"):
            repgame.solve_mildd
        with pytest.raises(ImportError):
            exec("from repgame import solve_mildd", {})


class TestConfigErrors:
    def test_malformed_json_exit_5_with_line(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "gamma": 0.4,\n  "q": oops\n}')
        code, _, err = run_cli(capsys, "check", "--config", str(path))
        assert code == 5
        assert ":3:" in err  # line number of the defect

    def test_unknown_key_exit_5(self, capsys, tmp_path):
        cfg = make_p1().to_dict()
        cfg["surprise"] = 1
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "check", "--config", str(path))
        assert code == 5
        assert "surprise" in err

    def test_missing_file_exit_5(self, capsys):
        code, _, _ = run_cli(capsys, "check", "--config", "/nonexistent/x.json")
        assert code == 5

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--n", "100", "--seed", "-1"),
            ("simulate", "--n", "100", "--seed", str(2**128)),
            ("verify", "--grid", "50", "--draws", "5", "--seed", "-1"),
            ("verify", "--grid", "50", "--draws", "0"),
            ("simulate", "--n", "0", "--seed", "0"),
        ],
    )
    def test_bad_seed_or_draws_exit_5(self, capsys, tmp_path, p1_config, argv):
        csv_path = tmp_path / "episodes.csv"
        extra = ("--episodes-out", str(csv_path)) if argv[0] == "simulate" else ()
        code, out, err = run_cli(capsys, argv[0], "--config", p1_config, *argv[1:], *extra)
        assert code == 5
        assert out == ""
        assert err.startswith("bad input: ") and err.count("\n") == 1
        assert not csv_path.exists()

    @pytest.mark.parametrize("scan", ["1", "-5", "2001", "1" + "0" * 20])
    def test_bad_scan_exit_5(self, capsys, p2_config, scan):
        code, out, err = run_cli(capsys, "solve-severe", "--config", p2_config, "--scan", scan)
        assert code == 5
        assert out == ""
        assert err.startswith("bad input: ") and "scan" in err and err.count("\n") == 1

    @pytest.mark.parametrize("grid", ["1", "1000001", "1" + "0" * 20])
    def test_bad_grid_exit_5(self, capsys, p1_config, grid):
        code, out, err = run_cli(capsys, "verify", "--config", p1_config, "--grid", grid, "--draws", "5")
        assert code == 5
        assert out == ""
        assert err.startswith("bad input: ") and "grid" in err and err.count("\n") == 1

    def test_non_finite_payoff_exit_5(self, capsys, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(make_p1().to_dict()).replace('"beta_G": 2.5', '"beta_G": Infinity'))
        code, _, err = run_cli(capsys, "solve-mild", "--config", str(path))
        assert code == 5
        assert err.startswith("config error: ") and "finite" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "key, value",
        [
            ("gamma", "abc"),
            ("gamma", None),
            ("gamma", [1]),
            ("gamma", 10**400),
            ("H", {"family": "piecewise_linear", "knots": [[0, 0], [1]]}),
            ("H", {"family": ["uniform"], "lo": 0, "hi": 1}),
        ],
    )
    @pytest.mark.parametrize("command", ["check", "solve-mild", "simulate"])
    def test_wrong_value_type_exit_5(self, capsys, tmp_path, key, value, command):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**make_p1().to_dict(), key: value}))
        extra = ("--n", "10", "--seed", "0") if command == "simulate" else ()
        code, out, err = run_cli(capsys, command, "--config", str(path), *extra)
        assert code == 5
        assert out == ""
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert f"bad.json: {key}" in err  # the message leads with the key

    @pytest.mark.parametrize("content", [b"\xff\xfe garbage", b'{"gamma": ' + b"1" * 5000 + b"}"])
    def test_unparsable_file_exit_5(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, _, err = run_cli(capsys, "check", "--config", str(path))
        assert code == 5
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "dist, spec",
        [
            ("G", {"family": "scaled_beta", "lo": 0, "hi": 1, "a": 2, "b": "Infinity"}),
            ("H", {"family": "scaled_beta", "lo": 0, "hi": 1, "a": "Infinity", "b": 2}),
            ("H", {"family": "piecewise_linear", "knots": [[0, 0], [0.5, "NaN"], [1, 1]]}),
        ],
    )
    def test_non_finite_distribution_exit_5(self, capsys, tmp_path, dist, spec):
        path = tmp_path / "bad.json"
        text = json.dumps({**make_p1().to_dict(), dist: spec})
        path.write_text(text.replace('"Infinity"', "Infinity").replace('"NaN"', "NaN"))
        code, out, err = run_cli(capsys, "solve-mild", "--config", str(path))
        assert code == 5
        assert out == ""
        assert err.startswith("config error: ") and "finite" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "p1", "--out"),
            ("solve-mild", "p1", "--out"),
            ("solve-severe", "p2", "--out"),
            ("simulate", "p1", "--n", str(2 * CHUNK), "--seed", "0", "--episodes-out", "episodes.csv", "--out"),
            ("simulate", "p1", "--n", "10", "--seed", "0", "--episodes-out"),
            ("sweep", "p1", "--axis", "q", "--start", "0.6", "--end", "0.7", "--steps", "3", "--out"),
            ("verify", "p1", "--grid", "50", "--draws", "5", "--out"),
            ("estimate", None, "--q-hat", "0.65", "--q-prime-hat", "0.45", "--p-hat", "0.4", "--out"),
        ],
    )
    def test_unwritable_output_exit_5(self, capsys, tmp_path, p1_config, p2_config, argv):
        command, config, *rest = argv
        missing = tmp_path / "missing" / "out"  # the last flag names it
        configs = {"p1": ("--config", p1_config), "p2": ("--config", p2_config), None: ()}
        episodes = tmp_path / "episodes.csv"
        rest = [str(episodes) if arg == "episodes.csv" else arg for arg in rest]
        code, out, err = run_cli(capsys, command, *configs[config], *rest, str(missing))
        assert code == 5 and out == ""
        assert err.startswith(f"config error: {missing}: ") and err.count("\n") == 1
        assert not episodes.exists()  # --out is opened before any episode is played

    def test_out_flag_writes_file(self, capsys, p1_config, tmp_path):
        out_path = tmp_path / "eq.json"
        code, out, _ = run_cli(
            capsys, "solve-mild", "--config", p1_config, "--out", str(out_path)
        )
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["c_tilde"] == pytest.approx(
            0.3556411, abs=1e-6
        )


# -- malformed and extreme configs -------------------------------------------

_SCALAR_KEYS = ("gamma", "q", "beta_G", "beta_B", "alpha_G", "alpha_B")
_DIST_KEYS = ("family", "lo", "hi", "a", "b", "knots")
_HUGE_TINY = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-16, 1e6, 1e16, 1e300, 1e308, -1e308])
_FINITE = st.one_of(st.floats(0.0, 1.0), st.floats(allow_nan=False, allow_infinity=False), _HUGE_TINY)
_EXTREME = st.one_of(_HUGE_TINY, st.sampled_from([math.inf, -math.inf, math.nan]))
_WRONG_TYPE = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.integers(-(10**400), 10**400),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=1),
)
_VALUE = st.one_of(st.floats(0.0, 1.0), st.floats(-3.0, 3.0), _EXTREME, st.floats(), _WRONG_TYPE)
_KNOTS = st.lists(st.lists(st.one_of(st.floats(0.0, 1.0), _VALUE), max_size=3), max_size=5)
_FAMILY = st.sampled_from(["uniform", "scaled_beta", "piecewise_linear", "normal", ""])
_DIST = st.one_of(
    st.fixed_dictionaries(
        {"family": _FAMILY, "lo": _VALUE, "hi": _VALUE},
        optional={"a": _VALUE, "b": _VALUE, "knots": _KNOTS, "extra": _VALUE},
    ),
    st.fixed_dictionaries({"family": st.just("piecewise_linear"), "knots": _KNOTS}),
    _WRONG_TYPE,
)


@st.composite
def mutated_configs(draw):
    """p1 or p2 with one to three mutations: dropped or extra keys, wrong
    types, non-finite, huge and tiny numbers, bad families and knots; now
    and then a document that is not an object at all."""
    if draw(st.integers(0, 19)) == 0:
        return draw(_WRONG_TYPE)
    cfg = copy.deepcopy(draw(st.sampled_from([make_p1().to_dict(), make_p2().to_dict()])))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["number"] * 4 + ["drop", "set", "extra", "dist", "dist_key"]))
        if op == "number":
            # keeps the config well-typed, so it reaches the checks and solvers
            key = draw(st.sampled_from(_SCALAR_KEYS + ("G", "H")))
            if key in _SCALAR_KEYS:
                cfg[key] = draw(_FINITE)
            elif isinstance(cfg.get(key), dict) and cfg[key].get("family") != "piecewise_linear":
                cfg[key][draw(st.sampled_from(["lo", "hi"]))] = draw(_FINITE)
        elif op == "drop" and cfg:
            del cfg[draw(st.sampled_from(sorted(cfg)))]
        elif op == "set":
            cfg[draw(st.sampled_from(_SCALAR_KEYS))] = draw(_VALUE)
        elif op == "extra":
            cfg[draw(st.text(min_size=1, max_size=6))] = draw(_VALUE)
        elif op == "dist":
            cfg[draw(st.sampled_from("GH"))] = draw(_DIST)
        elif isinstance(cfg.get(dist := draw(st.sampled_from("GH"))), dict):
            cfg[dist][draw(st.sampled_from(_DIST_KEYS))] = draw(st.one_of(_VALUE, _KNOTS, _FAMILY))
    return cfg


@given(
    cfg=mutated_configs(),
    argv=st.sampled_from([("check",), ("solve-mild",), ("solve-severe", "--scan", "0")]),
)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_malformed_config_exits_with_documented_code(tmp_path, cfg, argv):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(cfg))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], "--config", str(path), *argv[1:]])
    assert code in (0, 2, 3, 4, 5), err.getvalue()


def _exit_code(argv) -> tuple[int, str]:
    """main's exit code, or argparse's for a flag it rejects, with stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


# --steps values that finish at once: beyond the cap, below 2, or not an integer
_STEPS = st.sampled_from(
    ["-9223372036854775808", "-1", "0", "1", "3", "1000001", str(2**63), "1" + "0" * 400, "1e9", "nan"]
)


@given(
    cfg=st.one_of(mutated_configs(), st.sampled_from([make_p1().to_dict(), make_p2().to_dict()])),
    axis=st.sampled_from(["H_lo", "G_lo", "q", "gamma", "beta_B", "alpha_G"]),
    start=st.one_of(st.floats(0.0, 1.0), _EXTREME),
    end=st.one_of(st.floats(0.0, 1.0), _EXTREME),
    steps=st.one_of(st.just("3"), _STEPS),
    tail=st.sampled_from([(), ("--variant", "severe"), ("--format", "json")]),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_sweep_extreme_flags_exit_with_documented_code(tmp_path, cfg, axis, start, end, steps, tail):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(cfg))
    code, err = _exit_code(
        ["sweep", "--config", str(path), "--axis", axis, f"--start={start!r}",
         f"--end={end!r}", f"--steps={steps}", *tail]
    )
    assert code in (0, 2, 3, 4, 5), err
    assert "Traceback" not in err


_ESTIMATE_FLAGS = ("--q-hat", "--q-prime-hat", "--p-hat", "--p-r-hat", "--p-nn-hat")


@given(
    values=st.lists(st.one_of(st.none(), st.floats(0.0, 1.0), _EXTREME), min_size=5, max_size=5)
)
@settings(max_examples=100, deadline=None)
def test_estimate_extreme_flags_exit_with_documented_code(values):
    argv = [f"{flag}={v!r}" for flag, v in zip(_ESTIMATE_FLAGS, values) if v is not None]
    code, err = _exit_code(["estimate", *argv])
    assert code in (0, 2, 3, 4, 5), err
    assert "Traceback" not in err


_COUNT = st.one_of(
    st.integers(0, 3000),
    st.integers(-3, -1),
    st.floats(),
    st.booleans(),
    st.sampled_from([2**63, 10**308, 10**400]),
    _WRONG_TYPE,
)


@given(data=st.data())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_estimate_mutated_stats_exits_with_documented_code(tmp_path, sim_payload, data):
    """``estimate --stats`` on a ``simulate --out`` payload, or its stats
    object, with one to three mutations: dropped, renamed and extra keys at
    either level, and counts or n_episodes set to negative, float, bool,
    huge or wrong-typed values."""
    doc = copy.deepcopy(sim_payload)
    stats = doc["stats"]
    for _ in range(data.draw(st.integers(1, 3))):
        target = data.draw(st.sampled_from([d for d in (stats, stats.get("counts")) if isinstance(d, dict)]))
        op = data.draw(st.sampled_from(["drop", "rename", "extra", "value"]))
        if op == "extra" or not target:
            target[data.draw(st.one_of(st.sampled_from(OUTCOMES), st.text(max_size=6)))] = data.draw(_COUNT)
            continue
        key = data.draw(st.sampled_from(sorted(target)))
        if op == "drop":
            del target[key]
        elif op == "rename":
            new_key = data.draw(st.one_of(st.sampled_from(OUTCOMES + tuple(stats)), st.text(max_size=6)))
            target[new_key] = target.pop(key)
        else:
            target[key] = data.draw(_COUNT)
    path = tmp_path / "stats.json"
    path.write_text(json.dumps(doc if data.draw(st.booleans()) else stats))
    code, err = _exit_code(["estimate", "--stats", str(path)])
    assert code in (0, 2, 3, 4, 5), err
    assert "Traceback" not in err


_SEED = st.one_of(
    st.integers(0, 2**128 - 1),
    st.sampled_from([-1, -(2**128), 2**64, 2**128 - 1, 2**128, 10**400]),
)


@given(
    variant=st.sampled_from(["mild", "severe", "no-concession"]),
    config=st.sampled_from(["p1", "p2"]),
    n=st.one_of(st.integers(1, 2000), st.sampled_from([0, -1])),
    seed=_SEED,
    tol=st.one_of(st.just(1e-10), _EXTREME),
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_simulate_extreme_flags_exit_with_documented_code(p1_config, p2_config, variant, config, n, seed, tol):
    path = p1_config if config == "p1" else p2_config
    code, err = _exit_code(
        ["simulate", "--config", path, "--variant", variant, f"--n={n}", f"--seed={seed}", f"--tol={tol!r}"]
    )
    assert code in (0, 2, 3, 4, 5), err
    assert "Traceback" not in err
