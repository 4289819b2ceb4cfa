"""Command-line entry point.

Subcommands: check, solve-mild, solve-severe, simulate, estimate, sweep,
verify. One UTF-8 JSON config format (flat parameter keys plus nested G, H
distribution objects); unknown keys are rejected. All output is
deterministic given the config (and seed): stable key order and fixed
12-significant-digit float formatting make repeated runs byte-identical.

Exit codes: 0 success, 2 assumption violated, 3 solver failure (or a
simulation worker process that died), 4 verification failure, 5 bad config.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys

import numpy as np

from . import model, simulate, sweep, verify
from .errors import (
    AssumptionError,
    ConfigError,
    DomainError,
    EmptySweepError,
    EstimationError,
    RepgameError,
    SolverError,
)
from .model import ModelParams
from .solver_mild import no_concession_equilibrium, solve_mild
from .solver_severe import solve_severe

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
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    return json.dumps(obj)


def canonical_json(obj) -> str:
    return _dumps(obj) + "\n"


@contextlib.contextmanager
def _writing(path: str):
    """``path`` open for writing; failing to open or write it is a config error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
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


def load_params(path: str) -> ModelParams:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # not UTF-8, or an integer literal too long to parse
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        return ModelParams.from_dict(raw)
    except (TypeError, ValueError, OverflowError) as exc:  # DomainError is a ValueError
        raise ConfigError(f"{path}: {exc}") from exc


# -- subcommands ----------------------------------------------------------------


def _cmd_check(args) -> int:
    params = load_params(args.config)
    mild = model.check_assumption_mild(params)
    severe = model.check_assumption_severe(params)
    if args.regime == "mild":
        report = {"mild": mild.to_dict()}
        ok = mild.ok
    elif args.regime == "severe":
        report = {"severe": severe.to_dict()}
        ok = severe.ok
    else:
        report = {"mild": mild.to_dict(), "severe": severe.to_dict()}
        ok = mild.ok or severe.ok
    _emit(canonical_json(report), args.out)
    return EXIT_OK if ok else EXIT_ASSUMPTION


def _cmd_solve_mild(args) -> int:
    params = load_params(args.config)
    eq = solve_mild(params, tol=args.tol)
    _emit(canonical_json(dataclasses.asdict(eq)), args.out)
    return EXIT_OK


def _cmd_solve_severe(args) -> int:
    params = load_params(args.config)
    eq = solve_severe(params, tol=args.tol, scan=args.scan)
    _emit(canonical_json(dataclasses.asdict(eq)), args.out)
    return EXIT_OK


def _solve_for_variant(params: ModelParams, variant: str, tol: float):
    if variant == "mild":
        return solve_mild(params, tol=tol)
    if variant == "severe":
        return solve_severe(params, tol=tol)
    return no_concession_equilibrium(params, tol=tol)


_EPISODE_HEADER = "theta,c,rho,action,observation,protested,success\n"


def _row_template(outcome: str) -> str:
    """%-format CSV row of one OUTCOMES key, with the c and rho cells open."""
    theta, action, observation, protested = outcome.split(",")
    success = protested == "true" and theta != "N" and action != "concede"
    c = "" if theta == "N" else "%.12g"  # an unorganized activist has no cost c
    return f"{theta},{c},%.12g,{action},{observation},{protested},{'true' if success else 'false'}\n"


# indexed by outcome code; '%.12g' % x gives the same string as format_float(x)
_ROW_TEMPLATES = np.array([_row_template(k) for k in simulate.OUTCOMES], dtype=object)


def _episode_rows(block: dict, codes: np.ndarray) -> str:
    """CSV rows of one block of episodes, encoded by a single % call."""
    organized = block["theta"] != 2
    keep = np.stack((organized, np.ones_like(organized)), axis=1)
    floats = np.stack((block["c"], block["rho"]), axis=1)[keep]  # c, rho per row; no c on N
    finite = np.isfinite(floats)
    if not finite.all():
        format_float(float(floats[np.argmin(finite)]))  # raises SolverError for the first one
    return "".join(_ROW_TEMPLATES[codes].tolist()) % tuple(floats.tolist())


def _cmd_simulate(args) -> int:
    params = load_params(args.config)
    eq = _solve_for_variant(params, args.variant, args.tol)
    path = args.episodes_out
    blocks = simulate.play_blocks(  # rejects n and seed here
        params, eq, args.n, args.seed, encode=_episode_rows if path else None
    )
    binned = 0
    # --out is opened first, so that a path it cannot write costs no episodes
    with _writing(args.out) if args.out else contextlib.nullcontext(sys.stdout) as out:
        with contextlib.closing(blocks), _writing(path) if path else contextlib.nullcontext() as csv:
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
    if args.stats:
        try:
            with open(args.stats, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON, not UTF-8, huge integer
            raise ConfigError(f"{args.stats}: {exc}") from exc
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
        bad = [f"{k} {v}" for k, v in flags.items() if v is not None and not math.isfinite(v)]
        if bad:
            raise ConfigError(f"estimate flags must be finite, got {', '.join(bad)}")
        report = simulate.estimate_plugin(
            args.q_hat, args.q_prime_hat, args.p_hat, args.p_r_hat, args.p_nn_hat
        )
    _emit(canonical_json(report.to_dict()), args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
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
        cells = []
        for value in row.values():
            if value is None:
                cells.append("")
            elif isinstance(value, bool):
                cells.append("true" if value else "false")
            else:
                cells.append(format_float(value))
        lines.append(",".join(cells))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    params = load_params(args.config)
    mild_report = model.check_assumption_mild(params)
    severe_report = model.check_assumption_severe(params)
    if not (mild_report.ok or severe_report.ok):
        raise AssumptionError(
            f"both regime checks failed: mild {mild_report.failed_clauses()}, "
            f"severe {severe_report.failed_clauses()}",
            mild_report,
        )
    payload: dict = {}
    failed = False
    for regime, report, solver in (
        ("mild", mild_report, solve_mild),
        ("severe", severe_report, solve_severe),
    ):
        if not report.ok:
            continue
        eq = solver(params, tol=args.tol)
        cert = verify.certify_equilibrium(params, eq, grid=args.grid)
        ok = (
            cert.max_regret <= 1e-9
            and cert.bayes_gap <= 1e-10
            and cert.identity_gaps["reveal_probability"] > 0.0
        )
        payload[regime] = {"ok": ok, "certificate": cert.to_dict()}
        failed |= not ok
    for regime in ("mild", "severe"):
        law = verify.sign_law_check(regime, n_draws=args.draws, seed=args.seed)
        payload[f"sign_law_{regime}"] = law.to_dict()
        failed |= not law.ok
    payload["ok"] = not failed
    _emit(canonical_json(payload), args.out)
    return EXIT_VERIFY if failed else EXIT_OK


# -- parser ---------------------------------------------------------------------


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
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=_cmd_solve_mild)

    p = sub.add_parser("solve-severe", help="solve the severe-conflict equilibrium")
    add_common(p)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument(
        "--scan",
        type=int,
        default=400,
        help="multiplicity grid-scan resolution, 2 to 2000; 0 turns the scan off",
    )
    p.set_defaults(func=_cmd_solve_severe)

    p = sub.add_parser("simulate", help="seeded Monte Carlo run under a solved equilibrium")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--variant", choices=("mild", "severe", "no-concession"), default="mild")
    p.add_argument("--tol", type=float, default=1e-10)
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
    p.add_argument("--axis", choices=sweep.SWEEP_AXES, required=True)
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
    p.add_argument("--tol", type=float, default=1e-10)
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
