"""Runs one workload in a fresh interpreter and prints its raw results.

Started by run.py with `repgame` importable from `src/`. Each pass runs
the workload's commands through `repgame.cli.main(argv)` in this process;
the first pass is an untimed warm-up. Without --trace the timed passes
repeat until --seconds have gone by. With --trace the time is split
between untraced passes and passes under the tracer, whose ratio is the
tracing overhead.

Every invocation is checked: its exit code must be 0 and its stdout and
output files must be byte-identical to the last pass's, whose files the
workload's content checks then read. The last stdout line is one JSON
object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from repgame import cli
from tracer import HOOKS, Tracer, layer_metrics
from workloads import WORKLOADS, CheckFailed, Workload, write_configs

MIN_PASSES = 3
MIN_TRACE_PASSES = 2


def _sha256_file(path: Path) -> tuple[str, int]:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest(), path.stat().st_size


class Ledger:
    """Attempted and failed invocations, with the outputs of each."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.passes: list[list[dict]] = []
        self.failures: list[str] = []

    def run_pass(self, work: Path) -> float:
        """One pass over the command list; returns the summed wall time of
        the cli.main calls alone."""
        results = []
        wall = 0.0
        for step in self.workload.steps:
            if step.prepare is not None:
                step.prepare(work)
            out, err = io.StringIO(), io.StringIO()
            error = None
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(step.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a traceback is a failed invocation, not a crash of the benchmark
                code, error = None, traceback.format_exc(limit=3)
            elapsed = perf_counter() - start
            wall += elapsed
            stdout = out.getvalue().encode()
            files = {}
            for name in step.outputs:
                path = work / name
                files[name] = _sha256_file(path) if path.exists() else (None, 0)
            results.append({
                "argv": step.argv,
                "exit": code,
                "error": error or err.getvalue()[-500:] or None,
                "seconds": elapsed,
                "stdout": (hashlib.sha256(stdout).hexdigest(), len(stdout)),
                "files": files,
            })
        self.passes.append(results)
        return wall

    def output_bytes(self) -> int:
        last = self.passes[-1]
        return sum(r["stdout"][1] + sum(size for _, size in r["files"].values()) for r in last)

    def settle(self, work: Path) -> tuple[int, int]:
        """Check every invocation; returns (attempted, failed)."""
        last = self.passes[-1]
        content_ok = []
        for step, ref in zip(self.workload.steps, last):
            if step.check is None or ref["exit"] != 0:
                content_ok.append(True)
                continue
            try:
                step.check(work)
                content_ok.append(True)
            except (CheckFailed, KeyError, TypeError, ValueError, OSError) as exc:
                self.failures.append(f"{step.argv[0]}: check failed: {exc!r}")
                content_ok.append(False)
        failed = 0
        for k, results in enumerate(self.passes):
            for i, res in enumerate(results):
                ref = last[i]
                problem = None
                if res["exit"] != 0:
                    problem = f"exit {res['exit']}: {res['error']}"
                elif (res["stdout"], res["files"]) != (ref["stdout"], ref["files"]):
                    problem = "output differs from the last pass"
                elif not content_ok[i]:
                    problem = "content check failed"
                if problem:
                    failed += 1
                    self.failures.append(f"pass {k} {res['argv'][0]}: {problem}")
        attempted = sum(len(r) for r in self.passes)
        return attempted, failed

    def digests(self) -> list[dict]:
        return [
            {"argv": r["argv"], "stdout_sha256": r["stdout"][0],
             "files": {n: {"sha256": d, "bytes": b} for n, (d, b) in r["files"].items()}}
            for r in self.passes[-1]
        ]


def _timed_passes(run_pass, budget: float, min_passes: int) -> list[float]:
    walls: list[float] = []
    start = perf_counter()
    while len(walls) < min_passes or perf_counter() - start < budget:
        walls.append(run_pass())
    return walls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    args = ap.parse_args(argv)

    work = Path(args.work).resolve()
    os.chdir(work)
    write_configs(work)
    workload = WORKLOADS[args.workload](args.seed)
    ledger = Ledger(workload)
    ledger.run_pass(work)  # warm-up

    result: dict = {}
    untraced_pass = functools.partial(ledger.run_pass, work)
    if not args.trace:
        walls = _timed_passes(untraced_pass, args.seconds, MIN_PASSES)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        walls = _timed_passes(untraced_pass, args.seconds / 2, MIN_TRACE_PASSES)
        tracer = Tracer(HOOKS)
        per_pass = []

        def traced_pass() -> float:
            tracer.reset()
            wall = ledger.run_pass(work)
            per_pass.append(layer_metrics(tracer, workload.episodes_requested))
            return wall

        tracer.install()
        try:
            traced_walls = _timed_passes(traced_pass, args.seconds / 2, MIN_TRACE_PASSES)
        finally:
            tracer.uninstall()
        layers = {
            name: (statistics.median(p[name][0] for p in per_pass), unit)
            for name, (_, unit) in per_pass[0].items()
        }
        layers["cli.output_bytes"] = (float(ledger.output_bytes()), "B")
        layers["trace.overhead_ratio"] = (
            statistics.median(traced_walls) / statistics.median(walls), "ratio"
        )
        result.update(
            traced_walls=traced_walls,
            layers=layers,
            missing_hooks=tracer.missing,
            spans=tracer.root.to_dict(),
        )

    attempted, failed = ledger.settle(work)
    steps = [
        {"command": s.argv[0], "median_s": statistics.median(p[i]["seconds"] for p in ledger.passes[1:])}
        for i, s in enumerate(workload.steps)
    ]
    result.update(
        walls=walls,
        units=workload.units,
        unit=workload.unit,
        attempted=attempted,
        failed=failed,
        failures=ledger.failures[:20],
        steps=steps,
        output_bytes=ledger.output_bytes(),
        digests=ledger.digests(),
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
