import json

import pytest

from helpers import make_p1, make_p2
from repgame.cli import main


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

    def test_tol_flag(self, capsys, p1_config):
        code, out, _ = run_cli(capsys, "solve-mild", "--config", p1_config, "--tol", "1e-12")
        assert code == 0
        assert json.loads(out)["residual"] <= 1e-12


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

    def test_missing_inputs_exit_5(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--q-hat", "0.6")
        assert code == 5

    @pytest.mark.parametrize(
        "flag, value",
        [("--p-hat", "nan"), ("--q-prime-hat", "inf"), ("--q-hat", "nan"), ("--p-nn-hat", "-inf")],
    )
    def test_non_finite_flag_exit_5(self, capsys, flag, value):
        raw = {"--q-hat": "0.65", "--q-prime-hat": "0.45", "--p-hat": "0.4",
               "--p-r-hat": "0.6", "--p-nn-hat": "0.25", flag: value}
        code, out, err = run_cli(capsys, "estimate", *(f"{k}={v}" for k, v in raw.items()))
        assert code == 5
        assert out == ""
        assert err.startswith("config error: ") and flag in err and err.count("\n") == 1


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
        import repgame.cli as cli_mod
        from repgame.verify import SignLawReport

        def failing(regime, n_draws=500, seed=0, budget=100_000):
            return SignLawReport(regime, n_draws, n_draws, 1.0, False, ({"error": "forced"},))

        monkeypatch.setattr(cli_mod.verify, "sign_law_check", failing)
        code, out, _ = run_cli(
            capsys, "verify", "--config", p1_config, "--grid", "50", "--draws", "5"
        )
        assert code == 4
        assert json.loads(out)["ok"] is False


class TestModuleInvocation:
    def test_python_dash_m(self, p1_config):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repgame.cli", "solve-mild", "--config", p1_config],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["c_tilde"] == pytest.approx(0.3556411, abs=1e-6)


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
        ],
    )
    def test_bad_seed_or_draws_exit_5(self, capsys, p1_config, argv):
        code, out, err = run_cli(capsys, argv[0], "--config", p1_config, *argv[1:])
        assert code == 5
        assert out == ""
        assert err.startswith("bad input: ") and err.count("\n") == 1

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
