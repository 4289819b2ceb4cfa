import ast
import dataclasses
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import repgame
from helpers import (
    failing_rows,
    make_p1,
    make_p2,
    quad_root_positive,
    reference_severe_build,
    reference_severe_roots,
    reference_severe_scan,
    reference_severe_scan_step,
    reference_solve_severe,
    severe_grid_argmin,
    severe_grid_zoom_oracle,
    severe_indifference_residuals,
    severe_interior_roots,
)
from repgame import (
    AssumptionError,
    Belief,
    BoundedCDF,
    DomainError,
    bound_D_lower,
    effect_D_severe,
    no_concession_equilibrium,
    posterior_nn_severe,
    repression_probabilities,
    SweepSpec,
    rho_tilde,
    run_sweep,
    solve,
    solve_block,
    solve_mild,
    solve_severe,
    strategy,
)
from repgame import solver, solver_mild, solver_severe
from repgame.rootfind import find_root
from repgame.solver_severe import _SCAN_1D, _distinct, _scan_cells, _scan_points

# With uniform G and H the gap-substituted indifference reduces to
# 0.4 x^2 + 0.74 x - 0.19 = 0 for the bad-type threshold.
C_B_P2 = quad_root_positive(0.4, 0.74, -0.19)
C_G_P2 = C_B_P2 + 0.5


class TestOracles:
    def test_quadratic_matches_frozen_constant(self):
        assert C_B_P2 == pytest.approx(0.2285271, abs=1e-7)

    def test_grid_fixed_point_agrees(self, p2):
        cb, cg, norm = severe_grid_argmin(p2, n=1500)
        assert cb == pytest.approx(C_B_P2, abs=1e-3)
        assert cg == pytest.approx(C_G_P2, abs=1e-3)
        assert norm < 2e-3

    def test_residuals_vanish_at_quadratic_root(self, p2):
        r_B, r_G = severe_indifference_residuals(p2, C_B_P2, C_G_P2)
        assert abs(r_B) < 1e-14
        assert abs(r_G) < 1e-14


class TestPosteriorNN:
    def test_rho_value_at_solution(self, p2):
        mu = posterior_nn_severe(0.2285271, 0.7285271, p2)
        # (0.2 x + 0.09) / (0.4 x + 0.7) at x = 0.2285271
        x = 0.2285271
        assert rho_tilde(mu, p2) == pytest.approx(
            (0.2 * x + 0.09) / (0.4 * x + 0.7), abs=1e-12
        )

    def test_collapses_to_common_threshold(self, p2):
        mu = posterior_nn_severe(0.3, 0.3, p2)
        h = p2.H.cdf(0.3)
        gp = p2.gamma * h / (p2.gamma * h + 1.0 - p2.gamma)
        assert mu.as_tuple() == pytest.approx(
            (gp * p2.q, gp * (1 - p2.q), 1 - gp), abs=1e-12
        )

    def test_no_concealment_mass(self, p2):
        params = dataclasses.replace(p2, H=BoundedCDF.uniform(0.9, 1.0))
        mu = posterior_nn_severe(0.1, 0.2, params)
        assert mu.as_tuple() == (0.0, 0.0, 1.0)
        assert rho_tilde(mu, params) == 0.0

    def test_ordering_enforced(self, p2):
        with pytest.raises(DomainError):
            posterior_nn_severe(0.5, 0.2, p2)


class TestSolveSevereP2:
    def test_thresholds_match_oracles(self, p2):
        eq = solve_severe(p2)
        assert eq.c_tilde_B == pytest.approx(C_B_P2, abs=1e-8)
        assert eq.c_tilde_G == pytest.approx(C_G_P2, abs=1e-8)
        assert not eq.corner

    def test_agrees_with_coarse_grid_oracle(self, p2):
        eq = solve_severe(p2)
        cb, cg, _ = severe_grid_argmin(p2, n=1500)
        assert eq.c_tilde_B == pytest.approx(cb, abs=1e-3)
        assert eq.c_tilde_G == pytest.approx(cg, abs=1e-3)

    def test_agrees_with_zoomed_grid_oracle(self, p2):
        eq = solve_severe(p2)
        cb, cg = severe_grid_zoom_oracle(p2)
        assert eq.c_tilde_B == pytest.approx(cb, abs=1e-6)
        assert eq.c_tilde_G == pytest.approx(cg, abs=1e-6)

    def test_gap_identity(self, p2):
        eq = solve_severe(p2)
        assert eq.c_tilde_G - eq.c_tilde_B == pytest.approx(0.5, abs=1e-10)

    def test_reveal_identifies_good_activists(self, p2):
        eq = solve_severe(p2)
        assert eq.mu_R == Belief(1.0, 0.0, 0.0)
        assert eq.p_R == pytest.approx(0.9, abs=1e-12)

    def test_backlash(self, p2):
        eq = solve_severe(p2)
        assert eq.D == pytest.approx(-0.7, abs=1e-12)
        assert eq.p_prior == pytest.approx(0.2, abs=1e-12)

    def test_residuals_and_multiplicity(self, p2):
        eq = solve_severe(p2)
        assert eq.residual_B <= 1e-10
        assert eq.residual_G <= 1e-10
        assert eq.multiplicity_note == ()


class TestStrategy:
    @pytest.mark.parametrize(
        "make, solve",
        [(make_p1, solve_mild), (make_p2, solve_severe), (make_p1, no_concession_equilibrium)],
        ids=["mild", "severe", "no-concession"],
    )
    def test_repression_probabilities(self, make, solve):
        params = make()
        eq = solve(params)
        probs = repression_probabilities(eq, params)
        variant, (c_G, _), _ = strategy(eq)
        if variant == "mild":
            # the stored fields come from the same formula
            for field in dataclasses.fields(probs):
                assert getattr(probs, field.name) == getattr(eq, field.name), field.name
        elif variant == "severe":
            h_B, h_G = C_B_P2, C_G_P2  # uniform H on [0, 1]
            assert probs.prob_revealed == pytest.approx(0.5 * (1 - h_G), abs=1e-8)
            assert probs.prob_concealed == pytest.approx(0.5 * h_G + 0.5 * h_B, abs=1e-8)
            assert probs.prob_total == pytest.approx(
                probs.prob_revealed + probs.prob_concealed, abs=1e-15
            )
            assert probs.prob_revealed_given_B == 0.0
            assert probs.prob_concession == pytest.approx(0.5 * (1 - h_B), abs=1e-8)
        else:
            # every type conceals or reveals
            assert probs.prob_total == 1.0
            assert probs.prob_concession == 0.0
            assert probs.prob_concealed == pytest.approx(params.H.cdf(c_G), abs=1e-15)
            assert probs.prob_revealed_given_G == probs.prob_revealed_given_B
        # the good type is indifferent between concealing and revealing at c_G
        assert bound_D_lower(eq) == -c_G
        assert bound_D_lower(eq) == pytest.approx(eq.p_NN - eq.p_R, abs=1e-12)

    def test_only_strategy_dispatches_on_equilibrium_class(self):
        classes = {"MildEquilibrium", "SevereEquilibrium", "NoConcessionEquilibrium"}
        sites = []

        class Finder(ast.NodeVisitor):
            scope = "<module>"

            def visit_FunctionDef(self, node):
                outer, self.scope = self.scope, node.name
                self.generic_visit(node)
                self.scope = outer

            def visit_Call(self, node):
                if isinstance(node.func, ast.Name) and node.func.id == "isinstance":
                    named = {
                        getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])
                    }
                    if named & classes:
                        sites.append((path.name, self.scope))
                self.generic_visit(node)

        for path in sorted(Path(repgame.__file__).parent.glob("*.py")):
            Finder().visit(ast.parse(path.read_text(encoding="utf-8")))
        assert sites and set(sites) == {("solver.py", "strategy")}, sites

    def test_only_solve_calls_the_severe_and_no_concession_solvers(self):
        # cli, sweep and verify pick a variant's solver through solve()
        names = {"solve_severe", "no_concession_equilibrium"}
        sites = []
        for path in sorted(Path(repgame.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    called = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if called in names:
                        sites.append((path.name, node.lineno))
        assert {name for name, _ in sites} == {"solver_mild.py"}, sites

    def test_only_model_names_the_regime_checks(self):
        # every other module reaches a check through model.check_assumption;
        # the package's __init__ re-exports the names but reads none of them
        names = {"check_assumption_mild", "check_assumption_severe"}
        field = {ast.Name: "id", ast.Attribute: "attr", ast.FunctionDef: "name"}
        sites = []
        for path in sorted(Path(repgame.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if type(node) in field and getattr(node, field[type(node)]) in names:
                    sites.append((path.name, node.lineno))
        assert sites and {name for name, _ in sites} == {"model.py"}, sites

    def test_solve_block_is_the_one_check_of_a_blocks_points(self):
        # sweeps and sign-law draws hand solve_block unchecked parameter
        # sets, and its first step checks each one, for a single solve of
        # any variant too; the closed-form severe effect checks its own point
        functions = []  # (module, function, the names it uses)
        for path in sorted(Path(repgame.__file__).parent.glob("*.py")):
            for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(fn, ast.FunctionDef):
                    names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(fn)}
                    functions.append((path.name, fn.name, names))
        callers = {
            ("sweep.py", "run_sweep"),
            *(("verify.py", f) for f in ("_accepted", "_accepted_draws", "draw_params", "sign_law_check")),
        }
        seen = {(m, f): names for m, f, names in functions if (m, f) in callers}
        assert seen.keys() == callers
        for site, names in seen.items():
            assert not names & {"check_assumption", "require"}, site
        assert {(m, f) for m, f, names in functions if "require_regime" in names} == {
            ("solver.py", "solve_block"),
            ("solver_severe.py", "effect_D_severe"),
        }


class TestSolve:
    @pytest.mark.parametrize(
        "variant, make",
        [("mild", make_p1), ("severe", make_p2), ("no-concession", make_p1)],
    )
    def test_inverts_strategy(self, variant, make):
        assert strategy(solve(variant, make()))[0] == variant

    def test_unknown_variant(self):
        with pytest.raises(DomainError, match="unknown variant"):
            solve("moderate", make_p1())

    def test_calls_the_module_attributes(self, monkeypatch):
        calls = []
        for module, name in (
            (solver_mild, "solve_mild"),
            (solver_mild, "no_concession_equilibrium"),
            (solver_severe, "solve_severe"),
        ):
            monkeypatch.setattr(
                module, name, lambda *args, name=name, **kwargs: calls.append((name, args, kwargs))
            )
        params = make_p1()
        for variant in ("mild", "severe", "no-concession"):
            solve(variant, params, tol=1e-9)
        assert calls == [
            ("solve_mild", (params,), {"tol": 1e-9}),
            ("solve_severe", (params,), {"tol": 1e-9}),
            ("no_concession_equilibrium", (params,), {"tol": 1e-9}),
        ]

    def test_is_solve_block_on_a_block_of_one(self, monkeypatch):
        # solve and the one-line solves are solve_block on a block of one,
        # read off the module at the call, and raise the point's error
        calls = []
        block = solver.solve_block
        monkeypatch.setattr(solver, "solve_block", lambda *args: calls.append(args) or block(*args))
        p1, p2 = make_p1(), make_p2()
        cases = (
            ("mild", p1, solve_mild),
            ("severe", p2, solve_severe),
            ("no-concession", p1, no_concession_equilibrium),
        )
        for variant, params, one_line in cases:
            want = repr(block(variant, [params], 1e-9)[0])
            assert repr(solve(variant, params, tol=1e-9)) == repr(one_line(params, 1e-9)) == want
        assert calls == [(variant, [params], 1e-9, False) for variant, params, _ in cases for _ in range(2)]
        # solve_mild hands on its relaxed option
        assert repr(solve_mild(p1, relaxed=True)) == repr(block("mild", [p1], relaxed=True)[0])
        with pytest.raises(AssumptionError) as exc:
            solve("severe", p1)
        assert str(exc.value) == str(block("severe", [p1])[0])


class TestEffect:
    def test_p2_value(self, p2):
        assert effect_D_severe(p2) == pytest.approx(-0.7, abs=1e-12)

    def test_larger_q_shrinks_backlash(self, p2):
        # beta_e rises to 0.58, so D = G(0.232) - 0.9
        assert effect_D_severe(dataclasses.replace(p2, q=0.6)) == pytest.approx(
            -0.668, abs=1e-12
        )

    def test_larger_gamma_shrinks_backlash(self, p2):
        assert effect_D_severe(dataclasses.replace(p2, gamma=0.5)) == pytest.approx(
            -0.65, abs=1e-12
        )

    def test_requires_assumption(self, p2):
        with pytest.raises(AssumptionError):
            effect_D_severe(dataclasses.replace(p2, beta_G=2.5))


class TestCorner:
    def _corner_params(self):
        # concealment costs concentrated near zero push the bad-type
        # threshold out of the support from below
        return make_p2(
            gamma=0.6,
            alpha_B=0.3,
            H=BoundedCDF.scaled_beta(0.0, 1.0, 0.3, 3.0),
        )

    def test_corner_detected(self):
        params = self._corner_params()
        eq = solve_severe(params)
        assert eq.corner
        assert eq.c_tilde_B == params.H.lo
        assert params.H.lo < eq.c_tilde_G <= params.G.cdf(params.beta_G)

    def test_corner_equation_residual(self):
        params = self._corner_params()
        eq = solve_severe(params)
        # good-type indifference still holds exactly
        assert abs(params.G.cdf(params.beta_G) - eq.p_NN - eq.c_tilde_G) <= 1e-10
        # conceding dominates concealing for bad types at every cost
        assert params.alpha_B - eq.p_NN <= eq.c_tilde_B + 1e-10

    def test_corner_skips_gap_identity(self):
        params = self._corner_params()
        eq = solve_severe(params)
        gap = params.G.cdf(params.beta_G) - params.alpha_B
        assert abs((eq.c_tilde_G - eq.c_tilde_B) - gap) > 1e-3

    def test_corner_root_retried_on_adjacent_floats(self):
        # at this H_lo the corner root's residual (1.4e-10) misses tol by
        # float granularity; the root is retried on the floats beside it
        h_lo = float(np.linspace(0.01, 0.9, 300)[297])
        params = dataclasses.replace(
            self._corner_params(), H=BoundedCDF.scaled_beta(h_lo, 1.0, 0.3, 3.0)
        )
        eq = solve_severe(params)
        assert eq.corner and eq.c_tilde_B == h_lo
        assert eq.residual_G <= 1e-10

    def test_corner_sweep_over_H_lo_completes(self):
        rows = run_sweep(SweepSpec("H_lo", 0.01, 0.9, 300, self._corner_params(), "severe"))
        assert len(rows) == 300
        assert rows[297].assumption_ok and rows[297].c_tilde_B == rows[297].axis_value


def _scan_roots_loop(f, xs):
    """Cell-by-cell reference for the vectorized 1-D root scan."""
    vals = np.asarray(f(xs), dtype=float)
    roots = []
    for i in range(xs.size - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            roots.append(float(xs[i]))
        elif (a < 0.0) != (b < 0.0):
            roots.append(find_root(f, float(xs[i]), float(xs[i + 1])))
    if vals[-1] == 0.0:
        roots.append(float(xs[-1]))
    out = []
    for r in sorted(roots):
        if not out or r - out[-1] > 1e-9:
            out.append(r)
    return out


@pytest.mark.parametrize(
    "params, corner", [(make_p2(), False), (TestCorner()._corner_params(), True)], ids=["interior", "corner"]
)
def test_severe_solve_evaluates_g_beta_g_once(monkeypatch, params, corner):
    # the scan's G(beta_G) feeds f_B, the corner equation and the build
    cdf = BoundedCDF.cdf
    callers = []

    def counting(self, x):
        if self is params.G and np.size(x) == 1 and np.all(np.asarray(x) == params.beta_G):
            callers.append(Path(sys._getframe(1).f_code.co_filename).name)
        return cdf(self, x)

    monkeypatch.setattr(BoundedCDF, "cdf", counting)
    assert solve_severe(params).corner is corner
    assert callers.count("solver_severe.py") == 1


def test_severe_block_evaluates_g_beta_g_once_per_point(monkeypatch):
    # one column of G(beta_G) feeds the bound scans, the corner equations and
    # the build
    G = BoundedCDF.uniform(0.0, 1.0)  # one object, which the block keeps
    points = _checked([make_p2(gamma=float(g), G=G) for g in np.linspace(0.05, 0.95, 30)])
    cdf = BoundedCDF.cdf
    sizes = []

    def counting(self, x):
        caller = Path(sys._getframe(1).f_code.co_filename).name
        if self is G and np.size(x) and np.all(np.asarray(x) == 0.9) and caller == "solver_severe.py":
            sizes.append(np.size(x))
        return cdf(self, x)

    monkeypatch.setattr(BoundedCDF, "cdf", counting)
    solved = solve_block("severe", points)
    assert not any(isinstance(eq, repgame.RepgameError) for eq in solved)
    assert sizes == [len(points)] and len(points) >= 20


def test_only_lockstep_names_a_root_search():
    # a single solve and a block of every variant share one solve path, and
    # one function in it runs find_root or find_roots; outside rootfind,
    # only its module imports them
    names = {"find_root", "find_roots"}
    sites = set()
    for path in sorted(Path(repgame.__file__).parent.glob("*.py")):
        if path.name == "rootfind.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and any(alias.name in names for alias in node.names):
                sites.add((path.name, "<import>"))
            if isinstance(node, ast.FunctionDef):
                named = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}
                if named & names:
                    sites.add((path.name, node.name))
    assert sites == {("solver.py", "<import>"), ("solver.py", "_lockstep")}, sites


def test_lockstep_runs_find_roots_on_two_or_more_rows(monkeypatch, p2):
    # one row costs find_roots about fifty times what find_root costs, and a
    # row whose bracket failed is no row
    calls = []
    find_roots = solver.find_roots
    monkeypatch.setattr(solver, "find_roots", lambda *args: calls.append(args) or find_roots(*args))
    (scan,) = _scans([p2])
    block = repgame.model._block([p2])
    f_B, job = solver_severe._bad_type_equation, (0, (scan.gap,), scan.cells[0])
    one = solver._lockstep(f_B, block, [p2], [job])
    rejected = (0, (scan.gap,), repgame.SolverError("no bracket"))
    assert solver._lockstep(f_B, block, [p2], [rejected, job])[1:] == one
    assert calls == []
    assert solver._lockstep(f_B, block, [p2], [job, job]) == one + one
    assert len(calls) == 1
    assert one == [find_root(f_B(p2, scan.gap), *scan.cells[0])]


class TestScanRoots1D:
    @staticmethod
    def _check(f, xs, expected):
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        # solve_severe's scan, its root search in each cell and its dedupe
        zeros, cells = _scan_cells(counted, xs)
        roots = _distinct(zeros + [find_root(counted, a, b) for a, b in cells])
        n_calls = len(calls)
        assert roots == pytest.approx(expected, abs=1e-12)
        assert roots == _scan_roots_loop(counted, xs)
        assert n_calls == len(calls) - n_calls  # same cells refined

    @pytest.mark.parametrize(
        "f, expected",
        [
            # root on a grid node, reached from above; the zero-left cell is skipped
            (lambda x: 0.25 - x, [0.25]),
            # root at hi
            (lambda x: x - 1.0, [1.0]),
            # negative-to-zero cell: refined root and node root dedupe to one
            (lambda x: x - 0.25, [0.25]),
            # zero plateau: every zero node is a root
            (lambda x: np.minimum(x - 0.5, 0.0), [0.5, 0.75, 1.0]),
            # two roots in separate cells
            (lambda x: (x - 0.1) * (x - 0.6), [0.1, 0.6]),
            # no sign change
            (lambda x: x + 1.0, []),
        ],
    )
    def test_matches_cell_loop(self, f, expected):
        self._check(f, np.linspace(0.0, 1.0, 5), expected)

    def test_added_point_splits_a_cell(self):
        # both roots lie in the linspace cell [0.25, 0.5], whose ends agree in sign
        f = lambda x: (x - 0.3) * (x - 0.4)
        xs = np.linspace(0.0, 1.0, 5)
        self._check(f, xs, [])
        self._check(f, np.union1d(xs, [0.35]), [0.3, 0.4])


class TestScanPoints:
    def test_smooth_H_scans_the_linspace(self, p2):
        for H in (p2.H, BoundedCDF.scaled_beta(0.0, 1.0, 0.3, 3.0)):
            params = dataclasses.replace(p2, H=H)
            xs = _scan_points(params, gap=0.5)
            assert np.array_equal(xs, np.linspace(0.0, params.alpha_B, _SCAN_1D))

    def test_piecewise_linear_H_adds_its_kinks(self, p2):
        # knots at 0.1 and 0.7 put kinks in f_B at c_B = 0.1 and 0.7 - 0.5; the
        # knot at 0.7 itself and 0.1 - 0.5 fall outside [0, alpha_B]
        H = BoundedCDF.piecewise_linear([[0, 0], [0.1, 0.5], [0.7, 0.6], [1, 1]])
        xs = _scan_points(dataclasses.replace(p2, H=H), gap=0.5)
        linspace = np.linspace(0.0, p2.alpha_B, _SCAN_1D)
        assert np.array_equal(xs, np.union1d(linspace, [0.1, 0.7 - 0.5]))
        assert xs.size == _SCAN_1D + 2


class TestRejections:
    def test_assumption_failure(self, p2):
        with pytest.raises(AssumptionError):
            solve_severe(dataclasses.replace(p2, alpha_B=0.96))

    def test_bad_tol(self, p2):
        for tol in (0.0, -1.0, 1e308, math.inf, math.nan):  # a huge tol would pass every guard
            with pytest.raises(DomainError, match="tol must be finite and positive"):
                solve_severe(p2, tol=tol)


# A witness from a random spiky-H corpus: p2 with a piecewise-linear H whose
# first knot is steep. f_B dips below zero just around the knot at 8.0e-4,
# so two roots sit 6.5e-5 apart, inside one cell of the 2,048-point linspace.
WITNESS_GAMMA = 0.5809396955950434
WITNESS_Q = 0.7762006352076669
WITNESS_H = BoundedCDF.piecewise_linear(
    [
        [0, 0],
        [0.0008000740546788565, 0.7262540869304952],
        [0.28469337520220594, 0.7573258103642262],
        [0.3110938698022574, 0.8185993983215321],
        [0.3257986105885564, 0.8189207695802193],
        [0.9828591079492279, 0.9942887413911605],
        [1, 1],
    ]
)


def _spiky_H(rng) -> BoundedCDF:
    """A piecewise-linear H on [0, 1]: a first knot at 1e-4 to 1e-2, often
    steep, and one to five more knots spread log-uniformly."""
    while True:
        k = int(rng.integers(1, 6))
        xs = np.sort(np.concatenate(([10 ** rng.uniform(-4, -2)], 10 ** rng.uniform(-3, 0, k))))
        fs = np.sort(rng.uniform(0.0, 1.0, k + 1))
        if np.all(np.diff(xs) > 0) and xs[-1] < 1 and np.all(np.diff(fs) > 0) and 0 < fs[0]:
            return BoundedCDF.piecewise_linear(zip([0.0, *xs, 1.0], [0.0, *fs, 1.0]))


class TestMultiplicityNote:
    def test_witness_lists_both_close_roots(self):
        params = make_p2(gamma=WITNESS_GAMMA, q=WITNESS_Q, H=WITNESS_H)
        eq = solve_severe(params)
        assert eq.corner and eq.c_tilde_B == 0.0  # the smallest c_tilde_B is selected
        note = eq.multiplicity_note
        assert [n["source"] for n in note] == ["interior-scan", "interior-scan"]
        assert [n["c_tilde_B"] for n in note] == pytest.approx([7.983e-4, 8.635e-4], abs=1e-7)
        for n in note:
            assert n["c_tilde_G"] - n["c_tilde_B"] == pytest.approx(0.5, abs=1e-12)
            r_B, r_G = severe_indifference_residuals(params, n["c_tilde_B"], n["c_tilde_G"])
            assert max(abs(r_B), abs(r_G), n["residual"]) <= 1e-10
        # the roots share a linspace cell, so only the knot between them splits it
        cell = params.alpha_B / (_SCAN_1D - 1)
        assert len({n["c_tilde_B"] // cell for n in note}) == 1

    def test_every_interior_root_is_listed_on_a_spiky_corpus(self):
        # seeded spiky-H configs, plus the witness's H at gammas near its own,
        # where about 40% of draws put two roots in one linspace cell
        rng = np.random.default_rng(20)
        configs = []
        while len(configs) < 200:
            params = make_p2(
                gamma=float(rng.uniform(0.2, 0.95)), q=float(rng.uniform(0.2, 0.8)), H=_spiky_H(rng)
            )
            if repgame.model.check_assumption("severe", params).ok:
                configs.append(params)
        configs += [
            make_p2(gamma=WITNESS_GAMMA + float(g), q=WITNESS_Q, H=WITNESS_H)
            for g in rng.uniform(-3e-4, 3e-4, 40)
        ]
        shared_cells = 0
        for params in configs:
            eq = solve_severe(params)
            listed = [eq.c_tilde_B] + [n["c_tilde_B"] for n in eq.multiplicity_note]
            assert eq.c_tilde_B == min(listed)
            roots = severe_interior_roots(params)
            for root in roots:
                assert min(abs(root - c) for c in listed) <= 1e-6, (root, listed, params)
            cells = roots // (params.alpha_B / (_SCAN_1D - 1))
            shared_cells += np.unique(cells).size < cells.size
        assert shared_cells >= 5  # the corpus has roots that only the knots separate


# -- the bound scan against the full-grid scan ----------------------------------


def _scans(points: list) -> list:
    """The scan step of checked points, as solve_block runs it: on one block
    of them, or on blocks of one where no block holds them."""
    try:
        return solver_severe._severe_scans(repgame.model._block(points))
    except DomainError:
        return [s for p in points for s in _scans([p])]


def _assert_scans_match_oracle(points: list) -> int:
    """Each point's scan step, run on the points as one block, finds exactly
    the full-grid oracle's zeros and cells; the number of points that scan."""
    scanned = 0
    for params, scan in zip(points, _scans(points)):
        assert not isinstance(scan, repgame.RepgameError), scan
        if params.alpha_B > params.H.lo:
            assert (scan.zeros, scan.cells) == reference_severe_scan(params, scan.gap), params
            scanned += 1
        else:
            assert scan.zeros == scan.cells == []
    return scanned


def _extreme_shapes(seed: int, n: int) -> list:
    """The first n accepted severe sign-law draws at seed, with a scaled_beta H
    of shapes 10^U(-1.5, 3.5) and, in about half of them, a scaled_beta G of
    shapes 10^U(-1, 3): steep and flat f_B."""
    rng = np.random.default_rng(seed + 100)
    params = []
    for p in _accepted_points("severe", seed, n):
        H = BoundedCDF.scaled_beta(p.H.lo, p.H.hi, *10 ** rng.uniform(-1.5, 3.5, 2))
        G = BoundedCDF.scaled_beta(p.G.lo, p.G.hi, *10 ** rng.uniform(-1, 3, 2))
        params.append(dataclasses.replace(p, H=H, G=G if rng.random() < 0.5 else p.G))
    return params


def _checked(params: list) -> list:
    """The params that pass the severe check."""
    return [p for p in params if repgame.model.check_assumption("severe", p).ok]


class TestBoundScan:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sign_law_draws(self, seed):
        # about three in eight accepted severe draws scan; the rest are corners only
        assert _assert_scans_match_oracle(_accepted_points("severe", seed, 2000)) >= 700

    def test_extreme_beta_shapes(self):
        assert _assert_scans_match_oracle(_checked(_extreme_shapes(3, 1500))) >= 250

    def test_bound_holds_inside_random_intervals(self):
        # f_B at every grid point of an interval lies within the interval's
        # bounds, up to the slack; 8 intervals of 1 to 64 cells per point
        params = [p for p in _checked(_extreme_shapes(4, 400)) if p.alpha_B > p.H.lo]
        params += [p for p in _accepted_points("severe", 4, 400) if p.alpha_B > p.H.lo]
        block = repgame.model._block(params)
        gap = block.G.cdf(block.beta_G) - block.alpha_B
        lo, hi = block.H.lo, block.alpha_B
        rng = np.random.default_rng(23)
        row = np.repeat(np.arange(len(params)), 8)
        i = rng.integers(0, _SCAN_1D - 1, row.size)
        ij = np.stack((i, np.minimum(i + rng.integers(1, 65, row.size), _SCAN_1D - 1)))
        x = solver_severe._grid(lo[row], hi[row], ij)
        rows = repgame.model._rows(block, row)
        h_B = np.array([rows.H.cdf(x[0]), rows.H.cdf(x[1])])
        h_G = np.array([rows.H.cdf(x[0] + gap[row]), rows.H.cdf(x[1] + gap[row])])
        lower, upper = solver_severe._bounds(rows, x, h_B, h_G)
        # every grid point of every interval, on its point's row
        size = ij[1] - ij[0] + 1
        at = np.repeat(np.arange(row.size), size)
        k = np.concatenate([np.arange(a, b + 1) for a, b in ij.T])
        f_B = solver_severe._bad_type_equation(repgame.model._rows(block, row[at]), gap[row[at]])
        values = f_B(solver_severe._grid(lo[row[at]], hi[row[at]], k))
        assert np.all(values >= lower[at] - solver_severe._SLACK)
        assert np.all(values <= upper[at] + solver_severe._SLACK)
        assert len(params) >= 200

    def test_spiky_piecewise_linear_H_and_the_witness(self):
        # each spiky H differs, so these points scan one by one; the witness's
        # gammas share an H and scan as one block, kinks included
        rng = np.random.default_rng(20)
        spiky = [
            make_p2(gamma=float(rng.uniform(0.2, 0.95)), q=float(rng.uniform(0.2, 0.8)), H=_spiky_H(rng))
            for _ in range(300)
        ]
        witness = [
            make_p2(gamma=WITNESS_GAMMA + float(g), q=WITNESS_Q, H=WITNESS_H)
            for g in rng.uniform(-3e-4, 3e-4, 40)
        ]
        assert _assert_scans_match_oracle(_checked(spiky)) >= 150
        assert _assert_scans_match_oracle(_checked(witness)) == 40

    @pytest.mark.parametrize("alpha_B, g_first", [(0.38, True), (0.28, False)])
    def test_two_roots_that_only_an_off_diagonal_corner_sees(self, alpha_B, g_first):
        # H rises steeply where c_G = c_B + gap crosses 0.0995 (H(c_G) jumps,
        # m rises) and where c_B crosses 0.1 (H(c_B) jumps; beta_B < m, so m
        # falls), or the other way round. f_B then has a bump or a dip with a
        # root on either side, inside one interval whose ends agree in sign;
        # only the corner (H(c_G) at one end, H(c_B) at the other) bounds it.
        gap = 0.9 - alpha_B
        s_G, s_B = (0.0995, 0.1) if g_first else (0.1, 0.0995)
        knots = sorted([(s_B, 0.05), (s_B + 2e-4, 0.5), (s_G + gap, 0.55), (s_G + gap + 2e-4, 0.95)])
        H = BoundedCDF.piecewise_linear([(0.0, 0.0), *knots, (1.0, 1.0)])
        points = _checked([make_p2(q=0.8, beta_B=-0.5, alpha_B=alpha_B, H=H)])
        assert _assert_scans_match_oracle(points) == 1
        _, cells = reference_severe_scan(points[0], gap)
        assert sum(0.099 < a < 0.101 for a, _ in cells) == 2

    def test_p2_gamma_sweep(self):
        grid = np.linspace(0.05, 0.95, 300)
        assert _assert_scans_match_oracle(_checked([make_p2(gamma=float(g)) for g in grid])) >= 200

    def test_block_of_uniform_scaled_beta_and_corner_only_points(self):
        beta_H = BoundedCDF.scaled_beta(0.0, 1.0, 2.0, 3.0)
        params = [
            make_p2(),
            make_p2(H=beta_H),
            make_p2(H=BoundedCDF.uniform(0.5, 1.5)),  # alpha_B <= H.lo: the corner only
            make_p2(gamma=0.7, H=BoundedCDF.scaled_beta(0.45, 1.2, 2.0, 3.0)),  # corner only
            make_p2(gamma=0.6, G=BoundedCDF.scaled_beta(0.0, 1.2, 1.5, 2.5), H=beta_H),
            make_p2(q=0.6, H=BoundedCDF.uniform(0.05, 1.1)),
        ]
        points = _checked(params)
        assert len(points) == len(params)
        assert _assert_scans_match_oracle(points) == 4

    def test_scan_step_evaluates_few_cdf_elements(self, monkeypatch):
        # the full-grid scan evaluated H(c_B), H(c_G) and G at each of 2,048
        # points of every point that scans, 1,062,912 elements on these 173
        points = _accepted_points("severe", 0, 500)
        elements = []
        cdf_columns = repgame.distributions.cdf_columns

        def counted(x, *args):
            elements.append(np.size(x))
            return cdf_columns(x, *args)

        monkeypatch.setattr(repgame.distributions, "cdf_columns", counted)
        _scans(points)
        scanning = sum(p.alpha_B > p.H.lo for p in points)
        assert scanning == 173
        assert sum(elements) < 0.1 * 3 * _SCAN_1D * scanning

    @pytest.mark.parametrize(
        "solve_p2",
        [
            lambda: solve_severe(make_p2()),
            lambda: run_sweep(SweepSpec("gamma", 0.05, 0.95, 30, make_p2(), variant="severe")),
        ],
        ids=["solve", "sweep"],
    )
    def test_scan_makes_no_cdf_call_on_empty_arrays(self, monkeypatch, solve_p2):
        # the bound scan ends once no interval is left to halve, with no pass
        # over emptied rows
        sizes = []
        cdf_columns = repgame.distributions.cdf_columns

        def counted(x, *args):
            sizes.append(np.size(x))
            return cdf_columns(x, *args)

        monkeypatch.setattr(repgame.distributions, "cdf_columns", counted)
        solve_p2()
        assert len(sizes) > 30
        assert sizes.count(0) == 0

    @pytest.mark.parametrize(
        "lo, hi",
        [(0.0, 0.4), (-0.0, 1.0), (-0.3, 0.97), (0.123, 0.1230001), (1e-300, 1e-290), (-7.5, 1e6)],
    )
    def test_grid_is_linspace_bit_for_bit(self, lo, hi):
        grid = solver_severe._grid(lo, hi, np.arange(_SCAN_1D))
        assert np.array_equal(grid.view(np.uint64), np.linspace(lo, hi, _SCAN_1D).view(np.uint64))
        assert float(solver_severe._grid(lo, hi, _SCAN_1D - 1)) == hi


class TestRandomDraws:
    def test_solver_certifies_on_random_severe_params(self):
        from repgame.verify import draw_params

        rng = np.random.default_rng(11)
        checked = 0
        while checked < 30:
            params = draw_params(rng, "severe")
            if params is None:
                continue
            eq = solve_severe(params)
            assert eq.c_tilde_B < eq.c_tilde_G
            assert eq.D < 0.0
            assert eq.residual_B <= 1e-10 and eq.residual_G <= 1e-10
            r_B, r_G = severe_indifference_residuals(params, eq.c_tilde_B, eq.c_tilde_G)
            assert abs(r_G) <= 1e-9
            if not eq.corner:
                assert abs(r_B) <= 1e-9
            checked += 1


# -- solve_block against a point-by-point solve --------------------------------


def _accepted_points(regime: str, seed: int, n: int) -> list:
    """The params of the first n accepted sign-law draws."""
    from repgame import verify

    draws = verify._accepted_draws(np.random.default_rng(seed), regime, 100_000)
    return [params for _, params in itertools.islice(draws, n)]


def _outcome(result):
    """An equilibrium as its repr, which spells each float's bits; an error
    as its type and message."""
    if isinstance(result, repgame.RepgameError):
        return type(result), str(result)
    return repr(result)


def _solve_each(variant: str, points: list, tol: float = solver_mild.DEFAULT_TOL) -> list:
    out = []
    for params in points:
        try:
            out.append(solve(variant, params, tol))
        except repgame.RepgameError as exc:
            out.append(exc)
    return out


def assert_block_matches_solve(variant: str, points: list, tol: float = solver_mild.DEFAULT_TOL) -> list:
    got = [_outcome(r) for r in solve_block(variant, points, tol)]
    assert got == [_outcome(r) for r in _solve_each(variant, points, tol)]
    return got


def _failing_at(qs: set, step, what: str):
    """``step``, raising SolverError on the points whose q is in qs."""

    def failing(params, *args, **kwargs):
        if params.q in qs:
            raise repgame.SolverError(f"{what} fails at q={params.q}")
        return step(params, *args, **kwargs)

    return failing


class TestSolveBlock:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("regime", ["mild", "severe"])
    def test_matches_solve_on_sign_law_draws(self, regime, seed):
        points = _accepted_points(regime, seed, 500)
        got = assert_block_matches_solve(regime, points)
        assert len(got) == 500 and all(isinstance(r, str) for r in got)

    def test_matches_solve_where_roots_share_a_cell(self):
        # the witness's H at gammas near its own: several interior roots per point
        rng = np.random.default_rng(20)
        params = [
            make_p2(gamma=WITNESS_GAMMA + float(g), q=WITNESS_Q, H=WITNESS_H)
            for g in rng.uniform(-3e-4, 3e-4, 40)
        ]
        assert_block_matches_solve("severe", params)
        assert sum(len(scan.cells) > 1 for scan in _scans(params)) >= 10

    def test_varying_piecewise_linear_cost_is_solved_point_by_point(self):
        # no column form holds a piecewise-linear H that varies across the block
        rng = np.random.default_rng(3)
        params = [make_p2(gamma=g, H=_spiky_H(rng)) for g in (0.3, 0.5, 0.7)]
        got = assert_block_matches_solve("severe", params)
        assert all(isinstance(r, str) for r in got)
        with pytest.raises(DomainError, match="piecewise-linear"):
            repgame.model._block(params)

    def test_failed_check_carries_its_assumption_error(self, p1, p2):
        points = [p2, p1, p2]
        got = assert_block_matches_solve("severe", points)
        assert got[1][0] is AssumptionError and got[0] == got[2]
        assert solve_block("severe", points)[1].report == _solve_each("severe", points)[1].report

    def test_empty_block_and_unknown_variant(self):
        assert solve_block("mild", []) == solve_block("severe", []) == solve_block("no-concession", []) == []
        with pytest.raises(DomainError, match="unknown variant 'moderate'"):
            solve_block("moderate", [])
        for variant in ("severe", "no-concession"):
            with pytest.raises(DomainError, match="relaxed applies to the mild variant only"):
                solve_block(variant, [], relaxed=True)

    @pytest.mark.parametrize("regime", ["mild", "severe"])
    def test_tol_reaches_every_point(self, regime):
        # at 1e-16 some residuals pass and some fail: 13 of the mild draws
        # and 9 of the severe ones fail
        got = assert_block_matches_solve(regime, _accepted_points(regime, 0, 60), tol=1e-16)
        assert 5 <= sum(isinstance(r, tuple) for r in got) <= 55
        for tol in (0.0, math.nan):
            with pytest.raises(DomainError, match="tol must be finite and positive"):
                solve_block(regime, [], tol=tol)


class TestSolveBlockFailures:
    """A failure injected at one step of chosen points: those points carry
    their own error, and every other point is bit for bit its own solve."""

    @staticmethod
    def _check(variant, points, chosen):
        got = assert_block_matches_solve(variant, points)
        failed = [i for i, r in enumerate(got) if isinstance(r, tuple)]
        assert failed == sorted(chosen)
        return got

    @pytest.mark.parametrize("step", ["threshold_bracket", "mild_equilibrium"])
    def test_mild_step(self, monkeypatch, step):
        # the failure is injected into the column step's outputs on the chosen rows
        points = _accepted_points("mild", 0, 60)
        chosen = {3, 17, 41}
        failing = failing_rows(getattr(solver_mild, step), {points[i].q for i in chosen}, step)
        monkeypatch.setattr(solver_mild, step, failing)
        got = self._check("mild", points, chosen)
        assert got[3] == (repgame.SolverError, f"{step} fails at q={points[3].q}")

    def test_mild_bracket_that_find_roots_rejects(self, monkeypatch):
        points = _accepted_points("mild", 0, 60)
        qs = {points[i].q for i in (5, 30)}
        bracket = solver_mild.threshold_bracket

        def reversed_bracket(p, *args):
            return [b[::-1] if q in qs else b for q, b in zip(p.q.tolist(), bracket(p, *args))]

        monkeypatch.setattr(solver_mild, "threshold_bracket", reversed_bracket)
        got = self._check("mild", points, {5, 30})
        assert got[5][1].startswith("empty bracket")

    def test_severe_scan(self, monkeypatch):
        # the failure is injected into the scan step's outputs on the chosen rows
        points = _accepted_points("severe", 0, 60)
        chosen = {0, 22}
        failing = failing_rows(solver_severe._severe_scans, {points[i].q for i in chosen}, "scan")
        monkeypatch.setattr(solver_severe, "_severe_scans", failing)
        self._check("severe", points, chosen)

    @staticmethod
    def _changed_scans(monkeypatch, qs: set, change):
        """The scan step with ``change(H.lo, scan)`` in place of the scan of
        each point whose q is in qs."""
        scans = solver_severe._severe_scans

        def changed(p):
            lows = np.broadcast_to(p.H.lo, p.q.shape).tolist()
            return [change(lo, s) if q in qs else s for q, lo, s in zip(p.q.tolist(), lows, scans(p))]

        monkeypatch.setattr(solver_severe, "_severe_scans", changed)

    def test_severe_corner_bracket_that_find_roots_rejects(self, monkeypatch):
        points = _accepted_points("severe", 0, 60)
        corners = [i for i, s in enumerate(_scans(points)) if s.corner]
        chosen = {corners[1], corners[-2]}
        # G(beta_G) at H.lo leaves the corner's bracket empty
        self._changed_scans(monkeypatch, {points[i].q for i in chosen}, lambda lo, s: s._replace(g_beta_G=lo))
        got = self._check("severe", points, chosen)
        assert got[corners[1]][1].startswith("empty bracket")
        assert len(corners) >= 10 and len(corners) < len(points)

    def test_severe_interior_cell_that_find_roots_rejects(self, monkeypatch):
        points = _accepted_points("severe", 0, 60)
        interior = [i for i, s in enumerate(_scans(points)) if s.cells]
        chosen = {interior[0], interior[-1]}
        flip = lambda lo, s: s._replace(cells=[(b, a) for a, b in s.cells])
        self._changed_scans(monkeypatch, {points[i].q for i in chosen}, flip)
        got = self._check("severe", points, chosen)
        assert got[interior[0]][1].startswith("empty bracket")

    def test_severe_build_residual(self, monkeypatch):
        # a tol below the chosen points' nonzero residuals fails their build step
        points = _accepted_points("severe", 0, 60)
        eqs = [solve("severe", p) for p in points]
        inexact = [i for i, eq in enumerate(eqs) if max(eq.residual_B, eq.residual_G) > 0.0]
        chosen = {inexact[0], inexact[len(inexact) // 2], inexact[-1]}
        qs = {points[i].q for i in chosen}
        build = solver_severe.severe_equilibrium

        def strict(p, points, *args):
            out, strict = build(p, points, *args), build(p, points, *args[:-1], 1e-300)
            return [s if params.q in qs else r for params, r, s in zip(points, out, strict)]

        monkeypatch.setattr(solver_severe, "severe_equilibrium", strict)
        got = self._check("severe", points, chosen)
        assert all(got[i][0] in (repgame.SolverError, DomainError) for i in chosen)


# -- the column steps against the point-by-point oracle ---------------------------


def _attempt(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except repgame.RepgameError as exc:
        return exc


def _witness_gammas(n: int) -> list:
    """The witness's H at n gammas near its own: several interior roots per point."""
    rng = np.random.default_rng(20)
    return [
        make_p2(gamma=WITNESS_GAMMA + float(g), q=WITNESS_Q, H=WITNESS_H) for g in rng.uniform(-3e-4, 3e-4, n)
    ]


class TestBlockMatchesScalarOracle:
    """A block's scan and build, in columns, give each point the
    point-by-point solve's result bit for bit, errors included."""

    @staticmethod
    def _assert_matches(points, tol=solver_mild.DEFAULT_TOL):
        got = [_outcome(r) for r in solve_block("severe", points, tol)]
        assert got == [_outcome(_attempt(reference_solve_severe, p, tol)) for p in points]
        return got

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_first_1000_sign_law_draws(self, seed):
        points = _accepted_points("severe", seed, 1000)
        # two points that fail the check, inside the block
        points[10:10] = [make_p1()]
        points[500:500] = [make_p2(alpha_B=0.96)]
        got = self._assert_matches(points)
        assert sum(isinstance(r, str) for r in got) == 1000
        corners = sum("corner=True" in r for r in got if isinstance(r, str))
        assert 100 <= corners <= 900  # corner and interior points both

    def test_witness_roots_fill_the_note(self):
        got = self._assert_matches(_witness_gammas(40))
        assert sum("interior-scan" in r for r in got) >= 10

    def test_failing_residuals(self):
        # at 1e-16 some residuals fail, and some corner roots fail even the
        # adjacent-float retry
        got = self._assert_matches(_accepted_points("severe", 0, 300), tol=1e-16)
        assert 10 <= sum(isinstance(r, tuple) for r in got) <= 290

    def test_gap_not_positive(self):
        # the severe check keeps G(beta_G) above alpha_B, so the scan step
        # sees a gap <= 0 only on points that skip it
        points = [make_p2(), make_p2(alpha_B=0.9), make_p2(beta_G=0.3), make_p2(gamma=0.7)]
        got = [_outcome(r) for r in solver_severe._severe_scans(repgame.model._block(points))]
        assert got == [_outcome(_attempt(reference_severe_scan_step, p)) for p in points]
        assert [r[1] for r in got if isinstance(r, tuple)] == [
            "threshold gap G(beta_G) - alpha_B = 0.0 not positive",
            f"threshold gap G(beta_G) - alpha_B = {0.3 - 0.4} not positive",
        ]


class TestBuildCheckOrder:
    """A failure injected into each check of the build, with every later
    check failing too: the row carries the first failure in the scalar
    order, as the oracle does."""

    @staticmethod
    def _build(points, tol=solver_mild.DEFAULT_TOL, change=None):
        """Each point's build outcome, its error message or None, checked
        against the oracle's; ``change(scan, roots)`` gives the scan and
        roots that each point's build is handed in place of its own."""
        block = repgame.model._block(points)
        scans = solver_severe._severe_scans(block)
        roots = [reference_severe_roots(p, s) for p, s in zip(points, scans)]
        if change is not None:
            scans, roots = zip(*(change(s, r) for s, r in zip(scans, roots)))
        with np.errstate(invalid="ignore"):  # inf - inf: an injected NaN
            got = solver_severe.severe_equilibrium(block, points, list(scans), list(roots), tol)
        want = [_attempt(reference_severe_build, p, s, *r, tol=tol) for p, s, r in zip(points, scans, roots)]
        assert [_outcome(r) for r in got] == [_outcome(r) for r in want]
        return [str(r) if isinstance(r, repgame.RepgameError) else None for r in got]

    @staticmethod
    def _fail_D(monkeypatch):
        """Fail the D check: p_R, the protest probability at the only belief
        with mu_N = 0, drops by 1e3."""
        protest_prob = repgame.model.protest_prob
        bump = lambda mu: -1e3 * (mu.mu_N == 0.0)
        monkeypatch.setattr(repgame.model, "protest_prob", lambda mu, params: protest_prob(mu, params) + bump(mu))

    @staticmethod
    def _interior(n):
        """n sign-law draws whose interior roots all lie in scan cells, at
        least one, and that are no corner."""
        points = _accepted_points("severe", 1, 8 * n)
        return [p for p, s in zip(points, _scans(points)) if s.cells and not (s.zeros or s.corner)][:n]

    def test_corner_certificate(self, monkeypatch):
        self._fail_D(monkeypatch)
        points = _accepted_points("severe", 0, 40)
        corners = [i for i, s in enumerate(_scans(points)) if s.corner]
        # a corner root moved by 0.01 misses tol, and no adjacent float pair brackets it
        moved = lambda s, r: (s, r[:-1] + [r[-1] + 0.01] if s.corner else r)
        errors = self._build(points, change=moved)
        assert all(errors[i].startswith("severe corner residual") for i in corners)
        assert all(e.startswith("severe-conflict effect") for i, e in enumerate(errors) if i not in corners)
        # below float resolution the retry fails as ill-conditioned
        assert any("ill-conditioned" in (e or "") for e in self._build(points, tol=1e-300))
        assert len(corners) >= 10

    def test_no_fixed_point(self):
        # an interior root at H.lo is no interior fixed point
        errors = self._build(self._interior(6), change=lambda s, r: (s, [0.0] * len(r)))
        assert errors == ["no severe-conflict fixed point found on the bracket"] * 6

    def test_posterior_order(self, monkeypatch):
        # a negative gap puts c_G below c_B, which the no-news posterior rejects
        self._fail_D(monkeypatch)
        errors = self._build(self._interior(6), change=lambda s, r: (s._replace(gap=-s.gap), r))
        assert all(e.startswith("need c_B <= c_G") for e in errors)

    def test_residuals(self, monkeypatch):
        # a root at inf fails the residuals, the order and the gap identity
        self._fail_D(monkeypatch)
        errors = self._build(self._interior(6), change=lambda s, r: (s, [math.inf] * len(r)))
        assert all(e.startswith("severe indifference residuals") for e in errors)

    def test_order(self, monkeypatch):
        # a NaN gap makes c_G NaN: the residuals pass as NaN, and the order
        # and the gap identity fail
        self._fail_D(monkeypatch)
        errors = self._build(self._interior(6), change=lambda s, r: (s._replace(gap=math.nan), r))
        assert all(e.startswith("thresholds out of order") for e in errors)

    def test_gap_identity(self, monkeypatch):
        # an infinite G(beta_G) and gap: c_G is inf, residual_G is NaN and
        # passes, a tol of 10 passes residual_B, and (c_G - c_B) - gap is NaN
        self._fail_D(monkeypatch)
        inf = lambda s, r: (s._replace(g_beta_G=math.inf, gap=math.inf), r)
        errors = self._build(self._interior(6), tol=10.0, change=inf)
        assert all(e.startswith("interior gap identity violated") for e in errors)

    def test_D(self, monkeypatch):
        self._fail_D(monkeypatch)
        for points in (_accepted_points("severe", 2, 6), _witness_gammas(3)):
            errors = self._build(points)
            assert all(e.startswith("severe-conflict effect must be a backlash") for e in errors)


def test_scan_and_build_are_column_statements(monkeypatch):
    # outside the bound scans and the root searches, and leaving out the
    # corner retries and the note entries, the scan and build steps make as
    # many CDF calls on 500 points as on 50: none is made point by point
    depth = {"in": 0, "out": 0}

    def track(module, name, key):
        step = getattr(module, name)

        def tracked(*args, **kwargs):
            depth[key] += 1
            try:
                return step(*args, **kwargs)
            finally:
                depth[key] -= 1

        monkeypatch.setattr(module, name, tracked)

    for name in ("_severe_scans", "severe_equilibrium"):
        track(solver_severe, name, "in")
    # the corner retries run in the certify step that the builds share
    for module, name in (
        (solver_severe, "_bound_scans"),
        (solver_mild, "_certify"),
        (solver_severe, "_fixed_point_residual"),
    ):
        track(module, name, "out")
    calls = []

    def counted(cdf):
        def counting(*args):
            if depth["in"] and not depth["out"]:
                calls.append(args)
            return cdf(*args)

        return counting

    monkeypatch.setattr(repgame.distributions, "cdf_columns", counted(repgame.distributions.cdf_columns))
    monkeypatch.setattr(BoundedCDF, "cdf", counted(BoundedCDF.cdf))
    points = _accepted_points("severe", 0, 500)
    counts = []
    for n in (50, 500):
        calls.clear()
        solved = solve_block("severe", points[:n])
        assert 0 < sum(eq.corner for eq in solved) < n
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
