import pytest

from repgame import DomainError, EmptySweepError, SweepSpec, run_sweep, solve_mild


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
