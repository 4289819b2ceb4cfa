"""Span tracer that hooks the public functions of each `repgame` layer.

The program itself is not edited: `Tracer.install()` swaps each hooked
function for a wrapper in every `repgame` module namespace that holds it
(`cli`, `verify` and `sweep` use `from .x import y`), wraps the two
`BoundedCDF` methods on the class, and `uninstall()` puts the originals
back. A hook whose target no longer exists is skipped and reported in
`missing`; the metrics that need it are left out rather than failing.

Spans are aggregated into a call tree keyed by the path of span names from
the root, so memory stays bounded however many calls a pass makes. Each
node keeps its call count, total time, self time (duration minus the time
of child spans) and counts attributed to it while it was the innermost
open span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np


class Node:
    __slots__ = ("name", "children", "calls", "total", "self_time", "counts")

    def __init__(self, name: str):
        self.name = name
        self.children: dict[str, Node] = {}
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.counts: dict[str, float] = {}

    def child(self, name: str) -> "Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node(name)
        return node

    def walk(self, path=()):
        """Yield (node, names of its ancestors) for every node below this one."""
        for node in self.children.values():
            yield node, path
            yield from node.walk(path + (node.name,))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.self_time,
            "counts": dict(self.counts),
            "children": [c.to_dict() for c in self.children.values()],
        }


def _bump(node: Node, key: str, by: float = 1) -> None:
    node.counts[key] = node.counts.get(key, 0) + by


@dataclass(frozen=True)
class Hook:
    """One hooked name. `attr` may be `Class.method`. With `span=None` the
    hook opens no span and only counts calls, under the function's name, on
    the innermost open span."""

    module: str
    attr: str
    span: str | None
    before: Callable | None = None  # (node, args, kwargs) -> (args, kwargs)
    after: Callable | None = None  # (node, args, kwargs, result) -> None
    rename: Callable | None = None  # (fn) -> (args, kwargs) -> span name


class Tracer:
    def __init__(self, hooks: list[Hook]):
        self.hooks = hooks
        self.root = Node("<root>")
        self._stack: list[list] = [[self.root, 0.0]]
        self._restore: list[tuple[object, str, object]] = []
        self.installed: set[str] = set()
        self.missing: list[str] = []

    def reset(self) -> None:
        self.root = Node("<root>")
        self._stack[:] = [[self.root, 0.0]]

    # -- wrapping ------------------------------------------------------------

    def _span_wrapper(self, fn, hook: Hook):
        stack = self._stack
        name_of = hook.rename(fn) if hook.rename else None
        before, after = hook.before, hook.after

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            node = parent[0].child(name_of(args, kwargs) if name_of else hook.span)
            if before is not None:
                args, kwargs = before(node, args, kwargs)
            frame = [node, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                node.calls += 1
                node.total += dur
                node.self_time += dur - frame[1]
                parent[1] += dur
            if after is not None:
                after(node, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, key: str):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            _bump(stack[-1][0], key)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for hook in self.hooks:
            key = f"{hook.module}.{hook.attr}"
            try:
                owner = importlib.import_module(f"repgame.{hook.module}")
            except ImportError:
                self.missing.append(key)
                continue
            *cls_path, attr = hook.attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(key)
                continue
            if hook.span is None:
                wrapped = self._count_wrapper(original, hook.attr.rsplit(".", 1)[-1])
            else:
                wrapped = self._span_wrapper(original, hook)
            if cls_path:
                targets = [owner]
            else:
                targets = [m for n, m in list(sys.modules.items())
                           if n == "repgame" or n.startswith("repgame.")]
            for target in targets:
                for name, value in list(vars(target).items()):
                    if value is original:
                        self._restore.append((target, name, original))
                        setattr(target, name, wrapped)
            self.installed.add(key)

    def uninstall(self) -> None:
        for target, name, original in reversed(self._restore):
            setattr(target, name, original)
        self._restore.clear()


# -- hooks for the repgame layers ------------------------------------------------------


def _count_scalar(node, args, kwargs, result):
    x = args[1] if len(args) > 1 else next(iter(kwargs.values()))
    if np.ndim(x) == 0:
        _bump(node, "scalar")


def _count_elements(node, args, kwargs, result):
    p = args[1] if len(args) > 1 else next(iter(kwargs.values()))
    _bump(node, "elements", int(np.size(p)))


def _count_evals(node, args, kwargs):
    """Wrap the `f` passed to find_root so each evaluation is counted."""
    f = args[0] if args else kwargs.pop("f")

    def counted(x):
        _bump(node, "evals")
        return f(x)

    return (counted, *args[1:]), kwargs


def _count_accepted(node, args, kwargs, result):
    if result is not None:
        _bump(node, "accepted")


def _count_generated(node, args, kwargs, result):
    _bump(node, "generated", int(np.shape(result)[0]))


def _count_points(node, args, kwargs, result):
    _bump(node, "points", len(result))


def _severe_name(fn):
    """Calls with the multiplicity grid scan on (scan >= 2) get their own span."""
    sig = inspect.signature(fn)
    if "scan" not in sig.parameters:
        return lambda args, kwargs: "solver_severe.solve_severe"

    def name_of(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        scan = bound.arguments["scan"]
        return "solver_severe.solve_severe_scan" if scan >= 2 else "solver_severe.solve_severe"

    return name_of


HOOKS = [
    Hook("distributions", "BoundedCDF.cdf", "distributions.cdf", after=_count_scalar),
    Hook("distributions", "BoundedCDF.quantile", "distributions.quantile", after=_count_elements),
    Hook("model", "check_assumption_mild", "model.check_assumption"),
    Hook("model", "check_assumption_severe", "model.check_assumption"),
    Hook("rootfind", "find_root", "rootfind.find_root", before=_count_evals),
    Hook("solver_mild", "solve_mild", "solver_mild.solve_mild"),
    Hook("solver_severe", "solve_severe", "solver_severe.solve_severe", rename=_severe_name),
    Hook("verify", "certify_equilibrium", "verify.certify_equilibrium"),
    Hook("verify", "sign_law_check", "verify.sign_law_check"),
    Hook("verify", "draw_params", "verify.draw_params", after=_count_accepted),
    Hook("simulate", "episode_uniforms", "simulate.episode_uniforms", after=_count_generated),
    Hook("simulate", "simulate_arrays", "simulate.simulate_arrays"),
    Hook("simulate", "run_simulation", "simulate.run_simulation"),
    Hook("sweep", "run_sweep", "sweep.run_sweep", after=_count_points),
    Hook("cli", "main", "cli.main"),
    Hook("cli", "canonical_json", "cli.canonical_json"),
    Hook("cli", "load_params", "cli.load_params"),
    Hook("cli", "format_float", None),
]


# -- per-layer metrics -------------------------------------------------------------------


class _Tree:
    """Per-name totals over one pass's call tree."""

    def __init__(self, root: Node):
        self.nodes = list(root.walk())

    def calls(self, *names: str) -> int:
        return sum(n.calls for n, _ in self.nodes if n.name in names)

    def self_s(self, *names: str) -> float:
        return sum(n.self_time for n, _ in self.nodes if n.name in names)

    def count(self, name: str | None, key: str) -> float:
        return sum(n.counts.get(key, 0) for n, _ in self.nodes if name is None or n.name == name)

    def calls_under(self, name: str, ancestors: tuple[str, ...]) -> int:
        return sum(n.calls for n, path in self.nodes
                   if n.name == name and any(a in path for a in ancestors))

    def outer_total(self, prefix: str) -> float:
        """Inclusive time of spans named `prefix*` not nested in another one."""
        return sum(n.total for n, path in self.nodes
                   if n.name.startswith(prefix) and not any(p.startswith(prefix) for p in path))


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num * scale / den if den else 0.0


_CDF = "distributions.cdf"
_QUANT = "distributions.quantile"
_MILD = "solver_mild.solve_mild"
_SEVERE = ("solver_severe.solve_severe", "solver_severe.solve_severe_scan")
_SIM_HOOKS = ("simulate.episode_uniforms", "simulate.simulate_arrays", "simulate.run_simulation")

# (metric, unit, hooks it needs, value from (tree, episodes requested per pass))
LAYER_METRICS = [
    ("distributions.cdf.calls", "count", ("distributions.BoundedCDF.cdf",),
     lambda t, e: t.calls(_CDF)),
    ("distributions.cdf.scalar_share", "ratio", ("distributions.BoundedCDF.cdf",),
     lambda t, e: _ratio(t.count(_CDF, "scalar"), t.calls(_CDF))),
    ("distributions.cdf.self_s", "s", ("distributions.BoundedCDF.cdf",),
     lambda t, e: t.self_s(_CDF)),
    ("distributions.quantile.elements", "count", ("distributions.BoundedCDF.quantile",),
     lambda t, e: t.count(_QUANT, "elements")),
    ("distributions.quantile.self_s", "s", ("distributions.BoundedCDF.quantile",),
     lambda t, e: t.self_s(_QUANT)),
    ("distributions.quantile.ns_per_element", "ns", ("distributions.BoundedCDF.quantile",),
     lambda t, e: _ratio(t.self_s(_QUANT), t.count(_QUANT, "elements"), 1e9)),
    ("model.check_assumption.calls", "count",
     ("model.check_assumption_mild", "model.check_assumption_severe"),
     lambda t, e: t.calls("model.check_assumption")),
    ("model.check_assumption.self_s", "s",
     ("model.check_assumption_mild", "model.check_assumption_severe"),
     lambda t, e: t.self_s("model.check_assumption")),
    ("rootfind.find_root.calls", "count", ("rootfind.find_root",),
     lambda t, e: t.calls("rootfind.find_root")),
    ("rootfind.find_root.evals_per_call", "evals/call", ("rootfind.find_root",),
     lambda t, e: _ratio(t.count("rootfind.find_root", "evals"), t.calls("rootfind.find_root"))),
    ("rootfind.find_root.self_s", "s", ("rootfind.find_root",),
     lambda t, e: t.self_s("rootfind.find_root")),
    ("solver_mild.solve_mild.calls", "count", ("solver_mild.solve_mild",),
     lambda t, e: t.calls(_MILD)),
    ("solver_mild.solve_mild.self_s", "s", ("solver_mild.solve_mild",),
     lambda t, e: t.self_s(_MILD)),
    ("solver_mild.cdf_calls_per_solve", "calls/solve",
     ("solver_mild.solve_mild", "distributions.BoundedCDF.cdf"),
     lambda t, e: _ratio(t.calls_under(_CDF, (_MILD,)), t.calls(_MILD))),
    ("solver_severe.solve_severe.calls", "count", ("solver_severe.solve_severe",),
     lambda t, e: t.calls(*_SEVERE)),
    ("solver_severe.solve_severe.self_s", "s", ("solver_severe.solve_severe",),
     lambda t, e: t.self_s(*_SEVERE)),
    ("solver_severe.cdf_calls_per_solve", "calls/solve",
     ("solver_severe.solve_severe", "distributions.BoundedCDF.cdf"),
     lambda t, e: _ratio(t.calls_under(_CDF, _SEVERE), t.calls(*_SEVERE))),
    ("solver_severe.solve_severe_scan.self_s", "s", ("solver_severe.solve_severe",),
     lambda t, e: t.self_s(_SEVERE[1])),
    ("verify.certify_equilibrium.self_s", "s", ("verify.certify_equilibrium",),
     lambda t, e: t.self_s("verify.certify_equilibrium")),
    ("verify.sign_law_check.self_s", "s", ("verify.sign_law_check",),
     lambda t, e: t.self_s("verify.sign_law_check")),
    ("verify.draw_params.calls", "count", ("verify.draw_params",),
     lambda t, e: t.calls("verify.draw_params")),
    ("verify.acceptance_rate", "ratio", ("verify.draw_params",),
     lambda t, e: _ratio(t.count("verify.draw_params", "accepted"), t.calls("verify.draw_params"))),
    ("simulate.episode_uniforms.self_s", "s", ("simulate.episode_uniforms",),
     lambda t, e: t.self_s("simulate.episode_uniforms")),
    ("simulate.simulate_arrays.self_s", "s", ("simulate.simulate_arrays",),
     lambda t, e: t.self_s("simulate.simulate_arrays")),
    ("simulate.run_simulation.self_s", "s", ("simulate.run_simulation",),
     lambda t, e: t.self_s("simulate.run_simulation")),
    ("simulate.ns_per_episode", "ns", _SIM_HOOKS,
     lambda t, e: _ratio(t.outer_total("simulate."), e, 1e9)),
    ("simulate.passes_per_episode", "ratio", ("simulate.episode_uniforms",),
     lambda t, e: _ratio(t.count("simulate.episode_uniforms", "generated"), e)),
    ("sweep.run_sweep.self_s", "s", ("sweep.run_sweep",),
     lambda t, e: t.self_s("sweep.run_sweep")),
    ("sweep.points", "count", ("sweep.run_sweep",),
     lambda t, e: t.count("sweep.run_sweep", "points")),
    ("sweep.ms_per_point", "ms", ("sweep.run_sweep",),
     lambda t, e: _ratio(t.outer_total("sweep.run_sweep"), t.count("sweep.run_sweep", "points"), 1e3)),
    ("cli.self_s", "s", ("cli.main",),
     lambda t, e: t.self_s("cli.main")),
    ("cli.format_float.calls", "count", ("cli.format_float",),
     lambda t, e: t.count(None, "format_float")),
    ("cli.canonical_json.self_s", "s", ("cli.canonical_json",),
     lambda t, e: t.self_s("cli.canonical_json")),
    ("cli.load_params.self_s", "s", ("cli.load_params",),
     lambda t, e: t.self_s("cli.load_params")),
]


def layer_metrics(tracer: Tracer, episodes_requested: int) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit) for one traced pass; metrics whose hooks
    are missing are left out."""
    tree = _Tree(tracer.root)
    return {
        name: (float(fn(tree, episodes_requested)), unit)
        for name, unit, needs, fn in LAYER_METRICS
        if all(h in tracer.installed for h in needs)
    }
