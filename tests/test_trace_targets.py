"""Every function the benchmark's tracer hooks still exists, and it can
still read what it records.

`bench/tracer.py` looks its targets up by name and reports a missing one as
absent rather than failing, so a rename in `araid` would silently drop a
span from the per-layer metrics. This reads the targets with `ast`, without
importing the tracer, and resolves each one in the library. A change to the
format of a tape's steps would instead abort a traced run, so the tracer's
step cost is run, loaded by path, over the tapes the benchmark's queries
plan.
"""
import ast
import importlib
import importlib.util
import sys
from pathlib import Path
from unittest import mock

from araid.ara import (AttackForecast, ParameterUncertainty, UniformRule, forecast_attack,
                       solve_defender)
from araid.drilling import default_beliefs, default_uncertainty
from araid.inference import CompiledModel, ContractionTape, constant_policy, decision_table

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# renamed before this check existed; ROADMAP.md's benchmark item retargets them
STALE = {
    ("araid.inference", "CompiledModel.prepare_utility_query"),
    ("araid.inference", "PreparedUtilityQuery.evaluate"),
    ("araid.ara", "_sampled_overrides"),
}


def trace_targets() -> list[tuple[str, str]]:
    calls = [node for node in ast.walk(ast.parse(TRACER.read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Target"]
    return [(ast.literal_eval(c.args[0]), ast.literal_eval(c.args[1])) for c in calls]


def resolves(module: str, qualname: str) -> bool:
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    return True


def test_every_trace_target_resolves_but_the_known_stale_ones():
    targets = trace_targets()
    assert ("araid.cli", "main") in targets and len(targets) > len(STALE)
    assert {t for t in targets if not resolves(*t)} <= STALE



def test_the_traced_benchmark_reads_every_tape_these_queries_plan(drilling):
    # `bench/tracer.py` costs each executed tape from its `steps`, read as
    # (einsum spec, operand slots) pairs, and the shapes it was called with
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {spec.name: tracer}):  # its dataclasses look it up
        spec.loader.exec_module(tracer)

    queries, shapes = [], {}
    plan, execute = CompiledModel.utility_query, ContractionTape.execute

    def spy_plan(self, *args, **kwargs):
        queries.append(plan(self, *args, **kwargs))
        return queries[-1]

    def spy_execute(tape, tables):
        shapes.setdefault(tape, [t.shape for t in tables])
        return execute(tape, tables)

    forecast = AttackForecast.constant(drilling, "AP", {"perpetrate": 0.35,
                                                        "no_perpetrate": 0.65})
    wide = ParameterUncertainty({("value_scale", "AMV"): UniformRule(8e6, 1.2e7),
                                 ("value_root", "AMV"): UniformRule(2.5, 3.5),
                                 **default_uncertainty().rules})
    with mock.patch.object(CompiledModel, "utility_query", spy_plan), \
            mock.patch.object(ContractionTape, "execute", spy_execute):
        for rules in (default_uncertainty(), wide):
            forecast_attack(drilling, default_beliefs(), rules, draws=300, seed=1)
        solve_defender(drilling, forecast)
        decision_table(drilling, "defender", ["DP", "DF", "DT", "DR", "UC", "UA"])
        decision_table(drilling, "attacker", ["AP", "UC", "DP", "DF"],
                       fixed=constant_policy(drilling, {"DT": "accept", "DR": "continue"}))
    assert len(queries) == 5
    tapes = [t for q in queries for t in (q.norm_tape, *q.value_tapes.values())]
    for tape in tapes:
        if tape not in shapes:  # planned whole: nothing is executed or traced
            assert tape.result is not None and tape.steps == []
            continue
        steps, ops, nbytes = tracer.einsum_cost(tape.steps, shapes[tape])
        assert steps == len(tape.steps) and ops > 0 and nbytes > 0
    # a tape with a gathered step is among them
    assert any(g is not None for t in shapes for g in t.gathers)
