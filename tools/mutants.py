#!/usr/bin/env python3
"""Re-run the seeded faults: apply each mutant to a copy and see a test fail.

    python3 tools/mutants.py

Each entry names a source file, an exact text in it, the text that
replaces it (every occurrence), where the fault was named, and the tests
expected to kill it. The script copies the repository (without .git) into
a temporary directory once, then per entry writes the mutated file, runs
the named tests, and, if they all pass, tier-1 with `-x`, and restores the
file. It prints one line per entry:

* `killed`: a named test failed;
* `killed elsewhere`: the named tests passed and tier-1 failed, so the
  entry's list of tests is wrong;
* `survived`: every test passed;
* `stale`: the old text is no longer in the file, so nothing ran;
* `error <code>`: pytest's exit code was neither 0 nor 1, so the named
  tests did not run (a misspelt id, say);

with the time the runs took, and exits 1 unless every entry was killed by
its named tests. First it runs every named test on the unmutated copy,
and exits 2 if one fails there, since a kill would then prove nothing. The run takes minutes, too long for tier-1.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER1 = ["-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str           # relative to the repository root
    old: str            # exact text; every occurrence is replaced
    new: str
    origin: str         # where the fault was named
    tests: tuple[str, ...]


PROBE = "the mutant probe of the ROADMAP's seeded-faults item"
COMPILE = "one compile per diagram (CHANGES.md)"
PLANS = "one plan per diagram family (CHANGES.md)"
TAKES = "the walk's planned takes (CHANGES.md)"
ARA, INF, DIAG = "src/araid/ara.py", "src/araid/inference.py", "src/araid/diagram.py"

MUTANTS = [
    Mutant("perturb-clip-dropped", ARA, "np.maximum(jittered, 0.0, out=jittered)", "pass",
           PROBE, ("tests/test_ara.py::test_perturb_rule_is_jitter_clipped_and_renormalised",)),
    Mutant("tie-split-lcm-each", ARA,
           "return (winners * (lcm // winners.sum(axis=-1, keepdims=True))).sum(axis=0)",
           "return (winners * lcm).sum(axis=0)",
           PROBE, ("tests/test_ara.py::test_tie_split_equally",)),
    Mutant("policy-cap-off-by-one", ARA, "if count <= MAX_POLICIES:", "if count < MAX_POLICIES:",
           PROBE, ("tests/test_ara.py::test_a_search_over_the_most_policies_is_bounded_by_a"
                   "_chunk",)),
    Mutant("draws-ceiling-off-by-one", "src/araid/cli.py", "if args.draws > MAX_DRAWS:",
           "if args.draws >= MAX_DRAWS:",
           PROBE, ("tests/test_cli.py::test_solve_refuses_draws_over_its_ceiling_before_sampling",)),
    Mutant("cell-budget-off-by-one", INF, "if cells > MAX_STEP_CELLS:",
           "if cells >= MAX_STEP_CELLS:",
           PROBE, ("tests/test_inference.py::test_the_cell_budget_bounds_a_batched_step_per_row",)),
    Mutant("zero-mass-check-dropped", ARA, "if np.any(total <= 0):", "if False:",
           PROBE, ("tests/test_ara.py::test_perturb_rule_rejects_a_block_with_a_collapsed_row",)),
    Mutant("tie-keeps-deepest", INF, "if total >= below:", "if total > below:",
           PROBE, ("tests/test_inference.py::test_a_greedy_walk_that_ties_deepest_first_keeps"
                   "_deepest_first",)),
    Mutant("take-index-transposed", INF, "return table.argmax(axis=axis) if (",
           "return table.argmax(axis=axis).T if (",
           TAKES, ("tests/test_inference.py::test_a_take_over_a_wider_fixed_input_gives_the_bits"
                   "_of_its_einsum_on_random_diagrams",)),
    Mutant("take-index-int32", INF, "return table.argmax(axis=axis) if (",
           "return table.argmax(axis=axis).astype(np.int32) if (",
           TAKES, ("tests/test_plan_digest.py::test_the_shipped_plans_digest_is_pinned",)),
    Mutant("take-priced-one-higher", INF, "c //= self.sizes[v]", "c = c // self.sizes[v] + 1",
           TAKES, ("tests/test_plan_digest.py::test_the_shipped_plans_digest_is_pinned",)),
    Mutant("take-layout-guard-dropped", INF,
           "if all(a > b for a, b in zip(strides, [*strides[1:], 0])):", "if True:",
           TAKES, ("tests/test_inference.py::test_a_gathered_step_gives_the_bits_of_its_einsum"
                   "_on_random_diagrams",)),
    Mutant("memo-holds-the-model", INF, 'object.__setattr__(d, "_compiled", (',
           'object.__setattr__(d, "_model", m)\n        object.__setattr__(d, "_compiled", (',
           COMPILE, ("tests/test_inference.py::test_a_compiled_diagram_is_freed_without_the"
                     "_cycle_collector",)),
    Mutant("tables-writeable", INF, "f.table.flags.writeable = False",
           "f.table.flags.writeable = True",
           COMPILE, ("tests/test_inference.py::test_compiled_factor_tables_are_read_only",)),
    Mutant("resized-children-kept", INF, "if not resized.isdisjoint(n.parents)}", "if False}",
           COMPILE, ("tests/test_inference.py::test_a_derived_compile_equals_a_compile_of_the"
                     "_derived_diagram",)),
    Mutant("swap-always-local", DIAG, "return (old is not None and new.domain == old.domain",
           "return True or (old is not None and new.domain == old.domain",
           COMPILE, ("tests/test_diagram.py::test_a_swap_the_rule_does_not_admit_runs_every"
                     "_check",)),
    Mutant("swap-parent-subset-dropped", DIAG, "and set(new.parents) <= set(old.parents)",
           "and True",
           COMPILE, ("tests/test_diagram.py::test_a_swap_the_rule_does_not_admit_runs_every"
                     "_check",)),
    Mutant("ranking-tie-key-dropped", ARA,
           "[keys[i] for keys, i in zip(items, picked[p])]", "0",
           COMPILE, ("tests/test_ara.py::test_the_ranking_orders_ties_by_policy_content",)),
    Mutant("overflow-check-dropped", ARA, "if np.any(total == np.inf):", "if False:",
           COMPILE, ("tests/test_ara.py::test_perturb_rule_refuses_a_mass_past_the_largest"
                     "_float_without_a_warning",)),
    Mutant("refusal-without-targets", ARA,
           "raise ValueError(f\"sampling {', '.join(map(repr, targets))} in block {block} \"\n"
           "                                 f\"(draws from {block * DRAW_BLOCK}): {exc}\")",
           "raise exc", COMPILE,
           ("tests/test_ara.py::test_a_refused_draw_names_its_targets_and_block",)),
    Mutant("memo-one-hot-unchecked", INF, "if plan is None or not all(_same_index(",
           "if plan is None or not all(True or _same_index(",
           PLANS, ("tests/test_inference.py::test_a_memoized_tape_equals_a_fresh_one_whatever"
                   "_part_of_its_key_changes",
                   "tests/test_ara.py::test_a_one_hot_forecast_replans_a_search_whose_take_it"
                   "_changes")),
    Mutant("memo-key-without-sizes", INF, "tuple((sizes.get(w), elim_priority.get(w))",
           "tuple((None, elim_priority.get(w))",
           PLANS, ("tests/test_inference.py::test_a_memoized_tape_equals_a_fresh_one_whatever"
                   "_part_of_its_key_changes",)),
    Mutant("memo-key-without-priority", INF, "tuple((sizes.get(w), elim_priority.get(w))",
           "tuple((sizes.get(w), None)",
           PLANS, ("tests/test_inference.py::test_a_memoized_tape_equals_a_fresh_one_whatever"
                   "_part_of_its_key_changes",)),
    Mutant("memo-key-without-by-row-cost", INF, "tuple(sorted(fixed)), by_row_cost,",
           "tuple(sorted(fixed)),",
           PLANS, ("tests/test_inference.py::test_a_memoized_tape_equals_a_fresh_one_whatever"
                   "_part_of_its_key_changes",)),
    Mutant("memo-shared-across-diagrams", INF, "return cls._lower(d, {}, {})",
           'return cls._lower(d, {}, globals().setdefault("_shared_plans", {}))',
           PLANS, ("tests/test_inference.py::test_a_compiled_diagram_is_freed_without_the"
                   "_cycle_collector",)),
    Mutant("oracle-keeps-its-cycle", INF, "        del walk  # it refers to itself",
           "        pass  # it refers to itself",
           PLANS, ("tests/test_inference.py::test_the_enumeration_oracle_leaves_no_reference"
                   "_cycle",)),
]


def pytest(copy: Path, args: list[str]) -> int:
    """pytest's exit code for `args` in `copy`, on the copy's own sources:
    0 when every test passed, 1 when one failed, another code when the
    tests did not run (a misspelt id, a collection error)."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-m", "pytest", *args], cwd=copy, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def run(m: Mutant, copy: Path) -> str:
    path = copy / m.file
    original = path.read_text()
    if m.old not in original:
        return "stale"
    path.write_text(original.replace(m.old, m.new))
    try:
        code = pytest(copy, ["-q", "-p", "no:cacheprovider", *m.tests])
        if code:
            return "killed" if code == 1 else f"error {code}"
        return "survived" if pytest(copy, TIER1) == 0 else "killed elsewhere"
    finally:
        path.write_text(original)


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        named = sorted({t for m in MUTANTS for t in m.tests})
        code = pytest(copy, ["-q", "-p", "no:cacheprovider", *named])
        if code:
            print(f"the named tests fail on the unmutated copy (pytest exit code {code})")
            return 2
        for m in MUTANTS:
            started = time.perf_counter()
            outcome = run(m, copy)
            failed += outcome != "killed"
            print(f"{m.name:32} {outcome:16} {time.perf_counter() - started:6.1f} s", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
