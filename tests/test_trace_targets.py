"""Every function the benchmark's tracer hooks still exists.

`bench/tracer.py` looks its targets up by name and reports a missing one as
absent rather than failing, so a rename in `araid` would silently drop a
span from the per-layer metrics. This reads the targets with `ast`, without
importing the tracer, and resolves each one in the library.
"""
import ast
import importlib
from pathlib import Path

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

