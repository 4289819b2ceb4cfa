"""Layered benchmark of the repgame CLI.

    python3 perfbench/run.py --workload verify --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Run from the root of a checkout; `repgame` is imported from `src/`, so
nothing is built or installed. Each run measures the set-up time of fresh
interpreters, then starts one fresh worker process for the workload (see
worker.py) and checks its outputs. The last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`. A full report of
the run (environment, per-command times, output digests and, when traced,
the span tree) is written to `.perfbench_out/`.

`--workload all` runs every workload untraced and prints one table of the
end-to-end metrics, failures included.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS_BEFORE = 2  # set-up runs before the worker; the rest run after it,
SETUP_REPS_AFTER = 3  # so their median spans the same stretch of time as the passes
WORKER_TIMEOUT_S = 170
# One interpreter per measurement: it prints the CLOCK_MONOTONIC reading
# taken once `repgame.cli` is imported and its parser built.
SETUP_SNIPPET = (
    "import time\n"
    "import repgame.cli\n"
    "repgame.cli.build_parser()\n"
    "print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))\n"
)


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one process, no extra threads: keep BLAS pools single-threaded
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def measure_setup(env: dict, reps: int) -> list[float]:
    """Seconds from starting an interpreter to `build_parser()` returning."""
    times = []
    for _ in range(reps):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]) - start)
    return times


def run_worker(args, env: dict, trace: int) -> dict:
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("worker.py")),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(trace), "--work", str(work)],
            env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_one(args) -> tuple[dict, dict]:
    """Returns (result line, full report) for one workload."""
    env = _child_env()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    setup = []
    if not args.trace:
        measure_setup(env, 1)  # fills the bytecode and page caches; not reported
        setup += measure_setup(env, SETUP_REPS_BEFORE)
    raw = run_worker(args, env, args.trace)
    if not args.trace:
        setup += measure_setup(env, SETUP_REPS_AFTER)
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in raw.pop("layers").items()}
    else:
        wall = statistics.median(raw["walls"])
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "items_per_s": {"value": raw["units"] / wall, "unit": "items/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": raw.pop("peak_rss_mb"), "unit": "MB"},
        }
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    report.update(setup_s=setup, result=result, **raw)
    return result, report


def write_report(report: dict) -> Path:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{report['workload']}-seed{report['seed']}-trace{report['trace']}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return path


def run_all(args) -> int:
    rows = []
    for name in WORKLOADS:
        one = argparse.Namespace(workload=name, seed=args.seed, seconds=args.seconds, trace=0)
        result, report = run_one(one)
        write_report(report)
        rows.append((name, result))
    print(f"{'workload':<14} {'metric':<12} {'value':>14}  unit")
    for name, result in rows:
        for metric, m in result["metrics"].items():
            print(f"{name:<14} {metric:<12} {m['value']:>14.6g}  {m['unit']}")
        rate = result["failed"] / result["attempted"]
        print(f"{name:<14} {'error_rate':<12} {rate:>14.6g}  ratio "
              f"({result['failed']}/{result['attempted']} invocations)")
    return 0 if all(r["correct"] for _, r in rows) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repgame" / "cli.py").is_file():
        print(f"perfbench: no repgame sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result, report = run_one(args)
    path = write_report(report)
    print(f"report: {path.relative_to(ROOT)}")
    if report["failures"]:
        print("failures: " + "; ".join(report["failures"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
