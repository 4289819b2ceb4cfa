"""Command-line entry point.

Subcommands: check, solve-mild, solve-severe, simulate, estimate, sweep,
verify. One UTF-8 JSON config format (flat parameter keys plus nested G, H
distribution objects); unknown keys are rejected. All output is
deterministic given the config (and seed): stable key order and fixed
12-significant-digit float formatting make repeated runs byte-identical.

Exit codes: 0 success, 2 assumption violated, 3 solver failure (or a
simulation worker process that died), 4 verification failure, 5 bad config.

Building the parser loads no numpy and no package module besides errors:
each subcommand imports the modules it uses when it runs, and calls their
functions through the module, so a patched module attribute is the one
called.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from typing import TYPE_CHECKING

from .errors import (
    AssumptionError,
    ConfigError,
    DomainError,
    EmptySweepError,
    EstimationError,
    RepgameError,
    SolverError,
)

if TYPE_CHECKING:
    import numpy as np

    from .model import ModelParams

EXIT_OK = 0
EXIT_ASSUMPTION = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4
EXIT_CONFIG = 5


# -- canonical output ---------------------------------------------------------


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise SolverError(f"non-finite value in output: {x}")
    return f"{x:.12g}"


def _dumps(obj, indent: int = 0) -> str:
    # scalars first: sweep CSV cells and table rows are almost all floats
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: {_dumps(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return json.dumps(obj)


def canonical_json(obj) -> str:
    return _dumps(obj) + "\n"


@contextlib.contextmanager
def _writing(path: str, binary: bool = False):
    """``path`` open for writing, as UTF-8 text or as bytes; failing to open
    or write it is a config error."""
    try:
        with open(path, "wb") if binary else open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _emit(text: str, out_path: str | None) -> None:
    if not out_path:
        sys.stdout.write(text)
        return
    with _writing(out_path) as fh:
        fh.write(text)


# -- config -------------------------------------------------------------------


def _read_json(path: str):
    """The JSON document in ``path``; failing to read or parse it is a config
    error, with a JSON syntax error placed as path:line:column."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # not UTF-8, or an integer literal too long to parse
        raise ConfigError(f"{path}: {exc}") from exc


def load_params(path: str) -> ModelParams:
    from . import model

    raw = _read_json(path)
    try:
        return model.ModelParams.from_dict(raw)
    except (TypeError, ValueError, OverflowError) as exc:  # DomainError is a ValueError
        raise ConfigError(f"{path}: {exc}") from exc


# -- subcommands ----------------------------------------------------------------


def _cmd_check(args) -> int:
    from . import model

    params = load_params(args.config)
    regimes = model.REGIMES if args.regime == "auto" else (args.regime,)
    reports = [model.check_assumption(regime, params) for regime in regimes]
    _emit(canonical_json({r.regime: r.to_dict() for r in reports}), args.out)
    return EXIT_OK if any(r.ok for r in reports) else EXIT_ASSUMPTION


def _cmd_solve(args) -> int:
    import dataclasses

    from . import solver

    params = load_params(args.config)
    scan = getattr(args, "scan", 0)  # solve-severe accepts --scan and ignores it
    if scan == 1 or not 0 <= scan <= 2000:
        raise DomainError(f"scan must be 0 or 2 to 2000, got {scan}")
    eq = solver.solve(args.variant, params, tol=args.tol)
    _emit(canonical_json(dataclasses.asdict(eq)), args.out)
    return EXIT_OK


_EPISODE_HEADER = b"theta,c,rho,action,observation,protested,success\n"


def _row_template(outcome: str) -> bytes:
    """%-format CSV row of one OUTCOMES key, with the c and rho cells open."""
    theta, action, observation, protested = outcome.split(",")
    success = protested == "true" and theta != "N" and action != "concede"
    c = "" if theta == "N" else "%s"  # an unorganized activist has no cost c
    row = f"{theta},{c},%s,{action},{observation},{protested},{'true' if success else 'false'}\n"
    return row.encode()


@functools.cache
def _row_templates() -> np.ndarray:
    """Row templates indexed by outcome code, as bytes with a %s for each
    float cell. Built once per process: ``_cmd_simulate`` builds them, and
    ``simulate.cell_tables``, before its pool forks, so the workers inherit
    them."""
    import numpy as np

    from . import simulate

    return np.array([_row_template(k) for k in simulate.OUTCOMES], dtype=object)


def _format_floats(values: np.ndarray) -> np.ndarray:
    """format_float(x).encode() of each x of a float64 array, as an 'S24'
    array: ``simulate.decimal_cells``, then format_float on each value it
    leaves over, in order, so the first non-finite value raises SolverError."""
    from . import simulate

    cells, rest = simulate.decimal_cells(values)
    for i, x in zip(rest.tolist(), values[rest].tolist()):
        cells[i] = format_float(x).encode()
    return cells


def _episode_rows(block: dict, codes: np.ndarray) -> bytes:
    """CSV rows of one block of episodes, encoded by a single % call."""
    import numpy as np

    organized = block["theta"] != 2
    keep = np.stack((organized, np.ones_like(organized)), axis=1)
    floats = np.stack((block["c"], block["rho"]), axis=1)[keep]  # c, rho per row; no c on N
    return b"".join(_row_templates()[codes].tolist()) % tuple(_format_floats(floats).tolist())


def _cmd_simulate(args) -> int:
    from . import simulate, solver

    params = load_params(args.config)
    eq = solver.solve(args.variant, params, tol=args.tol)
    path = args.episodes_out
    if path:  # built before play_blocks forks its pool, so the workers inherit them
        _row_templates()
        simulate.cell_tables()
    blocks = simulate.play_blocks(  # rejects n and seed here
        params, eq, args.n, args.seed, encode=_episode_rows if path else None
    )
    binned = 0
    # --out is opened first, so that a path it cannot write costs no episodes
    with _writing(args.out) if args.out else contextlib.nullcontext(sys.stdout) as out:
        episodes = _writing(path, binary=True) if path else contextlib.nullcontext()
        with contextlib.closing(blocks), episodes as csv:
            if csv is not None:
                csv.write(_EPISODE_HEADER)
            for counts, rows in blocks:
                binned = binned + counts
                if csv is not None:
                    csv.write(rows)
        stats = simulate.SimStats.from_binned(binned)
        try:
            estimates = simulate.estimate_from_sim(stats).to_dict()
        except EstimationError as exc:
            estimates = {"error": str(exc)}
        payload = {
            "variant": args.variant,
            "n": args.n,
            "seed": args.seed,
            "stats": stats.to_dict(),
            "estimates": estimates,
        }
        out.write(canonical_json(payload))
    return EXIT_OK


def _cmd_estimate(args) -> int:
    from . import solver_mild

    if args.stats:
        from . import simulate

        raw = _read_json(args.stats)
        if isinstance(raw, dict) and "stats" in raw:
            raw = raw["stats"]  # the whole payload of simulate --out
        try:
            stats = simulate.SimStats.from_dict(raw)
        except (DomainError, OverflowError) as exc:  # OverflowError: counts beyond float range
            raise ConfigError(f"{args.stats}: not a stats file: {exc}") from exc
        report = simulate.estimate_from_sim(stats)
    else:
        flags = {"--q-hat": args.q_hat, "--q-prime-hat": args.q_prime_hat, "--p-hat": args.p_hat}
        if any(v is None for v in flags.values()):
            raise ConfigError("estimate needs --stats or all of --q-hat --q-prime-hat --p-hat")
        flags.update({"--p-r-hat": args.p_r_hat, "--p-nn-hat": args.p_nn_hat})
        # a probability outside [0, 1] or NaN is bad input, not a solver failure or noise
        bad = [f"{k} {v}" for k, v in flags.items() if v is not None and not 0.0 <= v <= 1.0]
        if bad:
            raise ConfigError(f"estimate flags must be in [0, 1], got {', '.join(bad)}")
        report = solver_mild.estimate_plugin(
            args.q_hat, args.q_prime_hat, args.p_hat, args.p_r_hat, args.p_nn_hat
        )
    _emit(canonical_json(report.to_dict()), args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    from . import sweep

    params = load_params(args.config)
    spec = sweep.SweepSpec(
        axis=args.axis,
        start=args.start,
        end=args.end,
        steps=args.steps,
        base=params,
        variant=args.variant,
    )
    table = [row.to_dict(spec.variant) for row in sweep.run_sweep(spec)]
    if args.format == "json":
        _emit(canonical_json(table), args.out)
        return EXIT_OK
    lines = [",".join(table[0])]
    for row in table:
        lines.append(",".join("" if v is None else _dumps(v) for v in row.values()))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import model, solver, verify

    params = load_params(args.config)
    mild, severe = (model.check_assumption(regime, params) for regime in model.REGIMES)
    if not (mild.ok or severe.ok):
        raise AssumptionError(
            f"both regime checks failed: mild {mild.failed_clauses()}, "
            f"severe {severe.failed_clauses()}",
            mild,
        )
    payload: dict = {}
    failed = False
    for report in (mild, severe):
        if not report.ok:
            continue
        eq = solver.solve(report.regime, params, tol=args.tol)
        cert = verify.certify_equilibrium(params, eq, grid=args.grid)
        ok = (
            cert.max_regret <= 1e-9
            and cert.bayes_gap <= 1e-10
            and cert.identity_gaps["reveal_probability"] > 0.0
        )
        payload[report.regime] = {"ok": ok, "certificate": cert.to_dict()}
        failed |= not ok
    for regime in model.REGIMES:
        law = verify.sign_law_check(regime, n_draws=args.draws, seed=args.seed)
        payload[f"sign_law_{regime}"] = law.to_dict()
        failed |= not law.ok
    payload["ok"] = not failed
    _emit(canonical_json(payload), args.out)
    return EXIT_VERIFY if failed else EXIT_OK


# -- parser ---------------------------------------------------------------------
# The choice tuples and --tol's default are written out, so that building the
# parser imports no model module; tests/test_cli.py pins them to model.REGIMES,
# sweep.SWEEP_AXES, sweep.VARIANTS and solver_mild.DEFAULT_TOL.
DEFAULT_TOL = 1e-10


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repgame",
        description="Equilibrium lab for a repression game with concealment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="JSON model parameters")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")

    p = sub.add_parser("check", help="run the regime assumption checks")
    add_common(p)
    p.add_argument("--regime", choices=("mild", "severe", "auto"), default="auto")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("solve-mild", help="solve the mild-conflict equilibrium")
    add_common(p)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_solve, variant="mild")

    p = sub.add_parser("solve-severe", help="solve the severe-conflict equilibrium")
    add_common(p)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument(
        "--scan",
        type=int,
        default=400,
        help="accepted for old command lines and has no effect: 0 or 2 to 2000",
    )
    p.set_defaults(func=_cmd_solve, variant="severe")

    p = sub.add_parser("simulate", help="seeded Monte Carlo run under a solved equilibrium")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--variant", choices=("mild", "severe", "no-concession"), default="mild")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--episodes-out", default=None, help="write per-episode CSV here")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="plug-in estimates from stats or raw values")
    p.add_argument("--stats", default=None, help="stats JSON produced by simulate")
    p.add_argument("--q-hat", type=float, default=None)
    p.add_argument("--q-prime-hat", type=float, default=None)
    p.add_argument("--p-hat", type=float, default=None)
    p.add_argument("--p-r-hat", type=float, default=None)
    p.add_argument("--p-nn-hat", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("sweep", help="one-axis comparative statics table")
    add_common(p)
    p.add_argument(
        "--axis", choices=("H_lo", "G_lo", "q", "gamma", "beta_B", "alpha_G"), required=True
    )
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--end", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--variant", choices=("mild", "severe"), default="mild")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="certify equilibria and randomized laws")
    add_common(p)
    p.add_argument("--grid", type=int, default=1000)
    p.add_argument("--draws", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AssumptionError as exc:
        print(f"assumption violated: {exc}", file=sys.stderr)
        if exc.report is not None:
            print(canonical_json(exc.report.to_dict()), file=sys.stderr, end="")
        return EXIT_ASSUMPTION
    except (SolverError, EstimationError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except EmptySweepError as exc:
        print(f"empty sweep: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except DomainError as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RepgameError as exc:  # WorkerError, and a safety net for the rest
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
