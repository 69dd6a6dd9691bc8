"""In-memory span tracer for the araid benchmark.

Wrappers are installed from the benchmark's side, around the functions
each `araid` module exposes; the library itself carries no tracing code.
A wrapper records one span (name, parent, start, end) per call into flat
arrays and does nothing else on the hot path. Spans are kept in memory
and turned into per-layer metrics only when the run ends.

Every target is looked up by name when the tracer is built. A target
that no longer exists (a refactor deleted or renamed it) is reported as
absent; it never fails the run. A module-level function is patched in
every loaded `araid` module that holds it under some name, so calls made
through `from .ara import forecast_attack`-style imports are traced too.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

ROOT_SPAN = "bench.op"


@dataclass(frozen=True)
class Target:
    module: str
    qualname: str   # "func" or "Class.method"
    span: str


# (module, function, span name). Several targets may share a span name;
# their self times then add up under that name.
TARGETS = (
    Target("araid.modelfile", "try_parse_model", "modelfile.parse"),
    Target("araid.modelfile", "parse_distribution_rows", "modelfile.parse"),
    Target("araid.diagram", "build_diagram", "diagram.build"),
    Target("araid.inference", "CompiledModel.compile", "inference.compile"),
    Target("araid.inference", "CompiledModel.prepare_utility_query", "inference.prepare"),
    Target("araid.inference", "ContractionTape.__init__", "inference.tape"),
    Target("araid.inference", "PreparedUtilityQuery.evaluate", "inference.evaluate"),
    Target("araid.inference", "ContractionTape.execute", "inference.execute"),
    Target("araid.inference", "decision_table", "inference.table"),
    Target("araid.ara", "attacker_view", "ara.view"),
    Target("araid.ara", "apply_forecast", "ara.view"),
    Target("araid.ara", "_draw_rng", "ara.rng"),
    Target("araid.ara", "_sampled_overrides", "ara.sample"),
    Target("araid.ara", "forecast_attack", "ara.forecast"),
    Target("araid.ara", "solve_defender", "ara.search"),
    Target("araid.cli", "main", "cli.main"),
)

# per-layer time metric (seconds) -> span names whose self times it sums
TIME_METRICS = {
    "modelfile.parse_s": ("modelfile.parse",),
    "diagram.build_s": ("diagram.build",),
    "inference.compile_s": ("inference.compile",),
    "inference.plan_s": ("inference.prepare", "inference.tape"),
    "inference.evaluate_self_s": ("inference.evaluate",),
    "inference.execute_s": ("inference.execute",),
    "inference.table_self_s": ("inference.table",),
    "ara.view_s": ("ara.view",),
    "ara.rng_s": ("ara.rng",),
    "ara.sample_s": ("ara.sample",),
    "ara.tally_s": ("ara.forecast",),
    "ara.search_self_s": ("ara.search",),
    "cli.self_s": ("cli.main",),
}
# per-layer count -> span name whose calls it counts
CALL_METRICS = {
    "modelfile.parse_calls": "modelfile.parse",
    "diagram.build_calls": "diagram.build",
    "inference.compile_calls": "inference.compile",
    "inference.plan_calls": "inference.tape",
    "inference.evaluate_calls": "inference.evaluate",
    "inference.execute_calls": "inference.execute",
    "ara.view_calls": "ara.view",
    "ara.draws": "ara.rng",
}
# counts filled in by hooks or by the runner, not by span counting:
# name -> (unit, span whose absence makes the count absent)
HOOK_METRICS = {
    "inference.einsum_steps": ("count", "inference.execute"),
    "inference.einsum_ops": ("count", "inference.execute"),
    "inference.einsum_bytes": ("bytes", "inference.execute"),
    "ara.policies": ("count", "ara.search"),
}
RUNNER_METRICS = ("cli.stdout_bytes",)


class SpanError(AssertionError):
    """The recorded spans are not properly nested."""


def einsum_cost(steps, shapes) -> tuple[int, int, int]:
    """(steps, scalar ops, bytes) of one tape execution, computed from specs.

    Per step: ops = iteration-space size (product of the extents of every
    index in the step) times the number of operands; bytes = 8 per float64
    element read from every operand plus written to the output.
    """
    extent: dict[str, int] = {}
    n_ops = n_bytes = 0
    for spec, operands in steps:
        ins, out = spec.split("->")
        # every index first appears on an input table; intermediates reuse it
        for term, slot in zip(ins.split(","), operands):
            if slot < len(shapes):
                for letter, size in zip(term, shapes[slot]):
                    extent[letter] = size
        letters = set(ins.replace(",", ""))
        space = 1
        for letter in letters:
            space *= extent[letter]
        n_ops += space * len(operands)
        for term in ins.split(","):
            n_bytes += 8 * _size(term, extent)
        n_bytes += 8 * _size(out, extent)
    return len(steps), n_ops, n_bytes


def _size(term: str, extent: dict[str, int]) -> int:
    size = 1
    for letter in term:
        size *= extent[letter]
    return size


class Tracer:
    """Records spans around the `araid` functions named in TARGETS."""

    def __init__(self, targets=TARGETS):
        self.span_names: list[str] = [ROOT_SPAN]
        self._span_id = {ROOT_SPAN: 0}
        self._name = array("H")
        self._parent = array("l")
        self._t0 = array("d")
        self._t1 = array("d")
        self._stack: list[int] = []
        self.ops: list[tuple[int, dict]] = []   # (root span index, op counters)
        self._tape_calls: dict = {}
        self._tape_shapes: dict = {}
        self._policies = 0
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self.installed = False
        self.targets = tuple(targets)
        for target in targets:
            self._plan_patches(target)

    # -- wrapping ------------------------------------------------------------

    def _plan_patches(self, target: Target) -> None:
        label = f"{target.module}.{target.qualname}"
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            self.absent.append(label)
            return
        owner_name, _, attr = target.qualname.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or attr not in vars(owner):
            self.absent.append(label)
            return
        span_id = self._span_id.setdefault(target.span, len(self.span_names))
        if span_id == len(self.span_names):
            self.span_names.append(target.span)
        after = {"inference.execute": self._after_execute,
                 "ara.search": self._after_search}.get(target.span)
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, span_id, after))
            self._patches.append((owner, attr, raw, wrapped))
            return
        wrapped = self._wrap(raw, span_id, after)
        if owner_name:
            self._patches.append((owner, attr, raw, wrapped))
            return
        # module-level function: patch every araid module holding it by name
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "araid" or mod_name.startswith("araid.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is raw:
                    self._patches.append((mod, name, raw, wrapped))

    def _wrap(self, fn: Callable, span_id: int, after) -> Callable:
        names, parents, t0s, t1s = self._name, self._parent, self._t0, self._t1
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(t0s)
            names.append(span_id)
            parents.append(stack[-1] if stack else -1)
            t1s.append(0.0)
            stack.append(idx)
            t0s.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return traced

    def _after_execute(self, args, result) -> None:
        tape = args[0]
        calls = self._tape_calls
        n = calls.get(tape)
        if n is None:
            self._tape_shapes[tape] = [t.shape for t in args[1]]
            calls[tape] = 1
        else:
            calls[tape] = n + 1

    def _after_search(self, args, result) -> None:
        self._policies += len(result.ranking)

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, raw, _ in reversed(self._patches):
            setattr(owner, attr, raw)
        self.installed = False

    # -- ops -----------------------------------------------------------------

    def begin_op(self) -> None:
        if self._stack:
            raise SpanError("an op began inside another span")
        idx = len(self._t0)
        self._name.append(0)
        self._parent.append(-1)
        self._t1.append(0.0)
        self._stack.append(idx)
        self._tape_calls, self._tape_shapes, self._policies = {}, {}, 0
        self.install()
        self._t0.append(perf_counter())

    def end_op(self) -> float:
        """Close the op's root span; returns its duration in seconds."""
        end = perf_counter()
        self.uninstall()
        idx = self._stack.pop()
        if self._stack or self._name[idx] != 0:
            raise SpanError("op ended with spans still open")
        self._t1[idx] = end
        steps = ops = nbytes = 0
        for tape, calls in self._tape_calls.items():
            s, o, b = einsum_cost(tape.steps, self._tape_shapes[tape])
            steps += s * calls
            ops += o * calls
            nbytes += b * calls
        counts = {"inference.einsum_steps": steps, "inference.einsum_ops": ops,
                  "inference.einsum_bytes": nbytes, "ara.policies": self._policies}
        self._tape_calls, self._tape_shapes = {}, {}
        self.ops.append((idx, counts))
        return end - self._t0[idx]

    def count(self, name: str, value: int) -> None:
        """Record a count the runner measured for the last traced op."""
        self.ops[-1][1][name] = value

    # -- analysis ------------------------------------------------------------

    def absent_spans(self) -> set[str]:
        """Span names none of whose targets exist in the code under test."""
        return {t.span for t in self.targets} - set(self.span_names)

    def op_profiles(self) -> list[dict]:
        """Per op: duration, and per span name its self time and call count.

        Raises SpanError if any child span lies outside its parent or the
        children of a span cover more than its duration.
        """
        names, parents, t0s, t1s = self._name, self._parent, self._t0, self._t1
        total = len(t0s)
        cover = [0.0] * total
        for i in range(total):
            p = parents[i]
            if p >= 0:
                if t0s[i] < t0s[p] or t1s[i] > t1s[p]:
                    raise SpanError(f"span {self.span_names[names[i]]} #{i} lies "
                                    f"outside its parent {self.span_names[names[p]]}")
                cover[p] += t1s[i] - t0s[i]
        bounds = [idx for idx, _ in self.ops] + [total]
        profiles = []
        for k, (root, counts) in enumerate(self.ops):
            self_s: dict[str, float] = {}
            calls: dict[str, int] = {}
            for i in range(root, bounds[k + 1]):
                dur = t1s[i] - t0s[i]
                if cover[i] > dur * (1 + 1e-12) + 1e-12:
                    raise SpanError(f"children of span #{i} cover {cover[i]:.9f} s "
                                    f"of its {dur:.9f} s")
                name = self.span_names[names[i]]
                self_s[name] = self_s.get(name, 0.0) + dur - cover[i]
                calls[name] = calls.get(name, 0) + 1
            profiles.append({"op_s": t1s[root] - t0s[root], "self_s": self_s,
                             "calls": calls, "counts": counts})
        return profiles


def layer_metrics(profiles: list[dict], absent_spans: set[str]) -> dict[str, dict]:
    """Per-layer metrics as the median over traced ops.

    Each entry holds value, unit, samples (ops) and `absent` when every
    target behind the metric is missing from the code under test.
    """
    out: dict[str, dict] = {}

    def put(name, unit, values, spans):
        # counts repeat exactly, so the low median is the count itself
        median = statistics.median(values) if unit == "s" else statistics.median_low(values)
        out[name] = {"value": median, "unit": unit,
                     "samples": len(values),
                     "absent": all(s in absent_spans for s in spans)}

    for name, spans in TIME_METRICS.items():
        put(name, "s", [sum(p["self_s"].get(s, 0.0) for s in spans) for p in profiles],
            spans)
    for name, span in CALL_METRICS.items():
        put(name, "count", [p["calls"].get(span, 0) for p in profiles], (span,))
    for name, (unit, span) in HOOK_METRICS.items():
        put(name, unit, [p["counts"][name] for p in profiles], (span,))
    for name in RUNNER_METRICS:
        put(name, "bytes", [p["counts"][name] for p in profiles], ())
        out[name]["absent"] = False
    return out
