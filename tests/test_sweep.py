import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import repgame
from helpers import failing_rows, make_p1, make_p2, reference_sweep
from repgame import (
    BoundedCDF,
    DomainError,
    EmptySweepError,
    SolverError,
    SweepSpec,
    model,
    run_sweep,
    solve_mild,
    solver_mild,
    solver_severe,
    sweep,
)
from repgame.sweep import SWEEP_AXES


class TestFigureOnePanels:
    def test_left_panel_concealment_cost_floor(self, p1):
        # costlier concealment: revealed repression up, total repression down
        spec = SweepSpec(axis="H_lo", start=0.0, end=0.55, steps=12, base=p1)
        rows = run_sweep(spec)
        assert len(rows) == 12
        assert all(r.assumption_ok for r in rows)
        revealed = [r.prob_revealed for r in rows]
        total = [r.prob_total for r in rows]
        assert all(b > a for a, b in zip(revealed, revealed[1:]))
        assert all(b < a for a, b in zip(total, total[1:]))

    def test_right_panel_protest_cost_floor(self, p1):
        spec = SweepSpec(axis="G_lo", start=0.0, end=0.35, steps=12, base=p1)
        rows = run_sweep(spec)
        valid = [r for r in rows if r.assumption_ok]
        assert len(valid) == 12
        revealed = [r.prob_revealed for r in valid]
        total = [r.prob_total for r in valid]
        # opposite-direction movement across the panel
        assert all(b < a for a, b in zip(revealed, revealed[1:]))
        assert all(b > a for a, b in zip(total, total[1:]))


class TestRowContents:
    def test_single_point_sweep_matches_solver(self, p1):
        spec = SweepSpec(axis="q", start=0.65, end=0.65 + 1e-9, steps=2, base=p1)
        rows = run_sweep(spec)
        eq = solve_mild(p1)
        assert rows[0].c_tilde == pytest.approx(eq.c_tilde, abs=1e-9)
        assert rows[0].prob_total == pytest.approx(eq.prob_total, abs=1e-9)
        assert rows[0].D == pytest.approx(eq.D, abs=1e-9)

    def test_row_identities(self, p1):
        spec = SweepSpec(axis="gamma", start=0.3, end=0.5, steps=5, base=p1)
        for row in run_sweep(spec):
            assert row.assumption_ok
            assert row.prob_revealed + row.prob_concealed == pytest.approx(
                row.prob_total, abs=1e-12
            )
            assert row.p_R == pytest.approx(p1.alpha_G, abs=1e-10)
            assert row.D_lower == pytest.approx(-row.c_tilde, abs=1e-10)

    def test_invalid_points_have_empty_cells(self, p1):
        # alpha_G crossing alpha_B = 0.7 breaks the mild ordering clause
        spec = SweepSpec(axis="alpha_G", start=0.55, end=0.75, steps=5, base=p1)
        rows = run_sweep(spec)
        flags = [r.assumption_ok for r in rows]
        assert flags == [True, True, True, False, False]
        assert rows[-1].c_tilde is None
        assert rows[-1].prob_total is None

    def test_severe_variant_rows(self, p2):
        spec = SweepSpec(axis="gamma", start=0.3, end=0.5, steps=5, base=p2, variant="severe")
        rows = run_sweep(spec)
        assert all(r.assumption_ok for r in rows)
        for row in rows:
            assert row.c_tilde is None
            assert row.c_tilde_B < row.c_tilde_G
            assert row.prob_revealed + row.prob_concealed == pytest.approx(
                row.prob_total, abs=1e-12
            )
            assert row.D < 0.0
            assert row.D_lower == -row.c_tilde_G
            assert row.D_lower == pytest.approx(row.p_NN - row.p_R, abs=1e-12)


class TestValidation:
    def test_all_invalid_raises(self, p1):
        spec = SweepSpec(axis="alpha_G", start=0.75, end=0.9, steps=4, base=p1)
        with pytest.raises(EmptySweepError):
            run_sweep(spec)

    def test_spec_rejects_bad_ranges(self, p1):
        with pytest.raises(DomainError):
            SweepSpec(axis="q", start=0.7, end=0.6, steps=5, base=p1)
        with pytest.raises(DomainError):
            SweepSpec(axis="q", start=0.6, end=0.7, steps=1, base=p1)
        with pytest.raises(DomainError):
            SweepSpec(axis="zeta", start=0.0, end=1.0, steps=3, base=p1)

    def test_spec_rejects_type_invalid_endpoints(self, p1):
        with pytest.raises(DomainError):
            SweepSpec(axis="q", start=0.5, end=1.0, steps=3, base=p1)

    def test_deterministic(self, p1):
        spec = SweepSpec(axis="H_lo", start=0.0, end=0.4, steps=6, base=p1)
        assert run_sweep(spec) == run_sweep(spec)


class TestApplyAxis:
    @pytest.mark.parametrize(
        "dist, moved",
        [
            (BoundedCDF.uniform(0.0, 1.0), BoundedCDF.uniform(0.2, 1.0)),
            (BoundedCDF.scaled_beta(0.0, 1.0, 2.0, 3.0), BoundedCDF.scaled_beta(0.2, 1.0, 2.0, 3.0)),
        ],
    )
    def test_support_edge_axes(self, dist, moved):
        params = make_p1(G=dist, H=dist)
        assert sweep.apply_axis(params, "H_lo", 0.2) == dataclasses.replace(params, H=moved)
        assert sweep.apply_axis(params, "G_lo", 0.2) == dataclasses.replace(params, G=moved)

    def test_support_edge_rejects_piecewise_linear(self):
        params = make_p1(H=BoundedCDF.piecewise_linear([(0.0, 0.0), (0.5, 0.8), (1.0, 1.0)]))
        with pytest.raises(DomainError, match="support-edge axis unsupported for family 'piecewise_linear'"):
            sweep.apply_axis(params, "H_lo", 0.2)

    @pytest.mark.parametrize(
        "G, shifted",
        [
            (BoundedCDF.uniform(0.5, 1.5), BoundedCDF.uniform(0.25, 1.25)),
            (BoundedCDF.scaled_beta(0.5, 1.5, 2.0, 3.0), BoundedCDF.scaled_beta(0.25, 1.25, 2.0, 3.0)),
            (
                BoundedCDF.piecewise_linear([(0.5, 0.0), (1.0, 0.4), (1.5, 1.0)]),
                BoundedCDF.piecewise_linear([(0.25, 0.0), (0.75, 0.4), (1.25, 1.0)]),
            ),
        ],
    )
    def test_G_shift_moves_the_whole_support_down(self, G, shifted):
        assert sweep.apply_axis(make_p1(G=G), "G_shift", 0.25).G == shifted

    @pytest.mark.parametrize("axis", ["beta_G", "alpha_B", "zeta"])
    def test_other_axes_rejected(self, p1, axis):
        # beta_G and alpha_B are ModelParams fields, but no sweep axis
        with pytest.raises(DomainError, match="unknown sweep axis"):
            sweep.apply_axis(p1, axis, 0.5)


# -- the lockstep mild sweep against a point-by-point loop ---------------------

RANGES = {
    "H_lo": (0.0, 0.7),
    "G_lo": (0.0, 0.5),
    "q": (0.05, 0.95),
    "gamma": (0.05, 0.95),
    "beta_B": (-2.0, 2.0),
    "alpha_G": (0.05, 0.95),
}
BETA_H = BoundedCDF.scaled_beta(0.0, 1.0, 2.0, 3.0)
BETA_G = BoundedCDF.scaled_beta(0.0, 1.2, 1.5, 2.5)
BETA_H2 = BoundedCDF.scaled_beta(0.0, 1.0, 0.7, 1.8)
# the steps of a mild solve, in solver_mild, in the order they run
SOLVE_STEPS = ("threshold_bracket", "mild_equilibrium")
# and of a severe solve, in solver_severe
SEVERE_STEPS = ("_severe_scans", "severe_equilibrium")
PIECEWISE_G = BoundedCDF.piecewise_linear([(0.0, 0.0), (0.3, 0.2), (0.7, 0.75), (1.0, 1.0)])


def _bits(rows):
    """Each row's cells, a float as its type and its bits."""
    return [
        tuple(
            (type(v), int(np.float64(v).view(np.uint64))) if isinstance(v, float) else v
            for v in dataclasses.astuple(row)
        )
        for row in rows
    ]


def _outcome(run, spec):
    try:
        return _bits(run(spec))
    except Exception as exc:  # the first failing point's, in both
        return type(exc), str(exc)


def assert_matches_reference(spec, min_valid=1):
    got = _outcome(run_sweep, spec)
    assert got == _outcome(reference_sweep, spec)
    assert sum(row[1] is True for row in got) >= min_valid, got


class TestLockstepMatchesPointByPoint:
    @pytest.mark.parametrize("axis", SWEEP_AXES)
    def test_mild_uniform(self, axis):
        assert_matches_reference(SweepSpec(axis, *RANGES[axis], 97, make_p1()), min_valid=20)

    def test_mild_scaled_beta_H_on_H_lo(self):
        assert_matches_reference(SweepSpec("H_lo", 0.0, 0.7, 151, make_p1(H=BETA_H)), min_valid=50)

    @pytest.mark.parametrize("axis", SWEEP_AXES)
    def test_mild_scaled_beta_G_and_H(self, axis):
        base = make_p1(G=BETA_G, H=BETA_H2)
        assert_matches_reference(SweepSpec(axis, *RANGES[axis], 97, base), min_valid=10)

    def test_mild_piecewise_linear_G_on_q(self):
        base = make_p1(G=PIECEWISE_G)
        assert_matches_reference(SweepSpec("q", 0.05, 0.95, 151, base), min_valid=50)

    @pytest.mark.parametrize("axis", SWEEP_AXES)
    def test_severe(self, axis):
        # p2's beta_G is 0.9, and its G(beta_G) = 0.9 must stay below alpha_G
        start, end = {"beta_B": (-1.0, 0.8), "alpha_G": (0.85, 0.99)}.get(axis, RANGES[axis])
        spec = SweepSpec(axis, start, end, 41, make_p2(), variant="severe")
        assert_matches_reference(spec, min_valid=5)

    def test_points_that_share_a_bracket_keep_their_own_roots(self):
        # every G_lo point has the bracket (H.lo, alpha_G) padded, so a root
        # looked up by its bracket would go to the wrong point
        spec = SweepSpec("G_lo", 0.0, 0.35, 60, make_p1())
        points = [sweep.apply_axis(spec.base, "G_lo", float(v)) for v in np.linspace(0.0, 0.35, 60)]
        brackets = set(solver_mild.threshold_bracket(model._block(points)))
        rows = run_sweep(spec)
        assert len(brackets) == 1
        assert len({row.c_tilde for row in rows}) == 60
        assert _bits(rows) == _bits(reference_sweep(spec))

    @pytest.mark.parametrize(
        "spec",
        [
            SweepSpec("alpha_G", 0.55, 0.75, 9, make_p1()),
            SweepSpec("q", 0.1, 0.9, 9, make_p2(), variant="severe"),
        ],
        ids=["mild", "severe"],
    )
    def test_one_clause_pass_per_block(self, monkeypatch, spec):
        # the block's points are checked by one column pass of the clauses,
        # and only the 3 of 9 points that fail it get a scalar check, for
        # the report that their AssumptionError carries
        passes, checked = [], []
        holds = model.holds
        monkeypatch.setattr(model, "holds", lambda regime, p: passes.append(p) or holds(regime, p))
        name = f"check_assumption_{spec.variant}"
        check = getattr(model, name)
        monkeypatch.setattr(model, name, lambda p: checked.append(p) or check(p))
        rows = run_sweep(spec)
        assert len(passes) == 1 and passes[0].q.size == 9
        valid = [row.assumption_ok for row in rows]
        assert valid.count(True) == 6
        failing = [sweep.apply_axis(spec.base, spec.axis, row.axis_value) for row in rows if not row.assumption_ok]
        assert checked == failing


class TestLockstepFailures:
    @pytest.mark.parametrize("first", SOLVE_STEPS)
    @pytest.mark.parametrize("second", SOLVE_STEPS)
    def test_first_failing_point_in_grid_order(self, monkeypatch, first, second):
        # q points 3 and 7 fail, each in the given step of a mild solve; a
        # point-by-point loop reports point 3
        spec = SweepSpec("q", 0.5, 0.9, 11, make_p1())
        grid = np.linspace(0.5, 0.9, 11).tolist()
        fails: dict[str, set] = {}
        fails.setdefault(first, set()).add(grid[3])
        fails.setdefault(second, set()).add(grid[7])
        # the failures are injected into the column steps' outputs
        for step, qs in fails.items():
            monkeypatch.setattr(solver_mild, step, failing_rows(getattr(solver_mild, step), qs, step))
        with pytest.raises(SolverError) as got:
            run_sweep(spec)
        assert str(got.value) == f"{first} fails at q={grid[3]}"


class TestSevereLockstepFailures:
    @pytest.mark.parametrize("first", SEVERE_STEPS)
    @pytest.mark.parametrize("second", SEVERE_STEPS)
    def test_first_failing_point_in_grid_order(self, monkeypatch, first, second):
        # as TestLockstepFailures, on the column steps of a severe solve
        # around its root searches
        spec = SweepSpec("q", 0.5, 0.9, 11, make_p2(), variant="severe")
        grid = np.linspace(0.5, 0.9, 11).tolist()
        fails: dict[str, set] = {}
        fails.setdefault(first, set()).add(grid[3])
        fails.setdefault(second, set()).add(grid[7])
        for step, qs in fails.items():
            monkeypatch.setattr(solver_severe, step, failing_rows(getattr(solver_severe, step), qs, step))
        with pytest.raises(SolverError) as got:
            run_sweep(spec)
        with pytest.raises(SolverError) as want:
            reference_sweep(spec)
        assert str(got.value) == str(want.value) == f"{first} fails at q={grid[3]}"


def test_only_solve_block_calls_find_roots():
    # the lockstep loses to find_root on small blocks, so a search of one row
    # runs find_root; sweeps and the sign-law draws reach it through solve_block
    sites = []
    for path in sorted(Path(repgame.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                called = getattr(node.func, "id", getattr(node.func, "attr", None))
                if called == "find_roots":
                    sites.append((path.name, node.lineno))
    assert {name for name, _ in sites} == {"solver.py"}, sites
