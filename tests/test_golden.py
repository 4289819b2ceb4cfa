"""CLI output pinned byte for byte across commits.

Each case runs ``repgame.cli.main`` in-process and compares its stdout and
every file it writes with the expected files under ``tests/golden/``. The
determinism tests only compare reruns of one commit; this one catches any
change in output bytes between commits.

The expected files change only with an intended output change, explained
in CHANGES.md. Regenerate them with ``PYTHONPATH=src python tests/test_golden.py``,
which prints, for each file, whether its bytes changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from helpers import make_p1, make_p2
from repgame import BoundedCDF
from repgame.cli import main

GOLDEN = Path(__file__).parent / "golden"

CONFIGS = {
    "p1": make_p1,
    "p2": make_p2,
    # the severe corner config of test_solver_severe.TestCorner
    "corner": lambda: make_p2(gamma=0.6, alpha_B=0.3, H=BoundedCDF.scaled_beta(0.0, 1.0, 0.3, 3.0)),
}

# name: (config, argv after --config, files the command writes)
CASES = {
    "check_p1": ("p1", ["check"], ()),
    "solve_mild_p1": ("p1", ["solve-mild"], ()),
    "solve_severe_p2": ("p2", ["solve-severe", "--scan", "400"], ()),
    "solve_severe_corner": ("corner", ["solve-severe", "--scan", "400"], ()),
    "sweep_p1_H_lo": (
        "p1",
        ["sweep", "--axis", "H_lo", "--start", "0", "--end", "0.55", "--steps", "12"],
        (),
    ),
    "sweep_p2_severe_gamma": (
        "p2",
        ["sweep", "--variant", "severe", "--axis", "gamma", "--start", "0.05", "--end", "0.95",
         "--steps", "12", "--format", "json"],
        (),
    ),
    "simulate_p1": (
        "p1",
        ["simulate", "--n", "500", "--seed", "0", "--episodes-out", "episodes.csv"],
        ("episodes.csv",),
    ),
    "simulate_p2_severe": (
        "p2",
        ["simulate", "--variant", "severe", "--n", "500", "--seed", "0",
         "--episodes-out", "episodes.csv"],
        ("episodes.csv",),
    ),
    "simulate_p1_no_concession": (
        "p1",
        ["simulate", "--variant", "no-concession", "--n", "500", "--seed", "0",
         "--episodes-out", "episodes.csv"],
        ("episodes.csv",),
    ),
    "simulate_corner_severe": (
        "corner",
        ["simulate", "--variant", "severe", "--n", "500", "--seed", "0",
         "--episodes-out", "episodes.csv"],
        ("episodes.csv",),
    ),
    "verify_p1": ("p1", ["verify", "--grid", "200", "--draws", "20"], ()),
    "verify_p2": ("p2", ["verify", "--grid", "200", "--draws", "20"], ()),
    "verify_corner": ("corner", ["verify", "--grid", "200", "--draws", "20"], ()),
}


def run_case(name: str, workdir: Path) -> dict[str, bytes]:
    """Run one case in ``workdir``; map golden file names to output bytes."""
    config, argv, written = CASES[name]
    cfg_path = workdir / f"{config}.json"
    cfg_path.write_text(json.dumps(CONFIGS[config]().to_dict()))
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main([argv[0], "--config", str(cfg_path), *argv[1:]])
    finally:
        os.chdir(cwd)
    assert code == 0, f"{name} exited {code}"
    outputs = {f"{name}.stdout": stdout.getvalue().encode("utf-8")}
    for fname in written:
        outputs[f"{name}.{fname}"] = (workdir / fname).read_bytes()
    return outputs


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    for fname, data in run_case(name, tmp_path).items():
        assert data == (GOLDEN / fname).read_bytes(), f"{fname} differs from tests/golden"


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            for fname, data in run_case(case, Path(tmp)).items():
                path = GOLDEN / fname
                status = "unchanged" if path.exists() and path.read_bytes() == data else "CHANGED"
                path.write_bytes(data)
                print(f"{status:9} tests/golden/{fname} ({len(data)} bytes)")
