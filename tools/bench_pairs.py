#!/usr/bin/env python3
"""Run alternating parent/change pairs of the benchmark and record them.

    git add -A    # new files must be in the index for `git stash create`
    python3 tools/bench_pairs.py --parent HEAD --change "$(git stash create)" \\
        --title "What the change does" --pairs 10 --first-seed 1501 \\
        --out BENCH_15.json

Each side is a fresh copy of one git revision (`git archive`, no .git) in
a temporary directory, so both run the same benchmark code from their own
tree. `git stash create` names the working tree as a commit without
touching it. Pair i runs

    python3 bench/run.py --workload all --seed <first-seed + i> --seconds <s> --trace 0

in each copy, with BENCHMARK.json's `run_seconds` as <s>, one run at a
time: odd seeds run the parent first, even seeds the change first. The
last JSON line of each workload's output gives its end-to-end metrics. The record (the layout of BENCH_14.json)
holds, per workload and metric, each side's median and quartiles
(inclusive method) with its runs in seed order, the pairs in which the
change is better (ties count for neither) and the ratio of medians, plus
each side's failed ops and whether every op passed its check. Per metric
it also says whether the change's median is worse than the parent's by
more than BENCHMARK.json's bound, as a fraction of the parent's median
(`worse_beyond_bound`), and whether a gain is shown (`gain_shown`): the
change better in at least 9 of every 10 pairs, and its median better by
more than the parent's q3 - q1. It also holds
each side's line count of the Python source under src/araid, and its
code lines as `tools/count_lines.py` counts them (no blank, comment-only
or docstring lines), the column a claim of less code rests on.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from count_lines import count  # tools/count_lines.py, beside this script

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> Path:
    """A fresh copy of the files of `rev`, without .git."""
    dest.mkdir()
    archive = dest.with_suffix(".tar")
    with archive.open("wb") as fh:
        subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return dest


def source_lines(tree: Path) -> tuple[int, int]:
    """Lines of the Python source under src/araid, as `wc -l` counts them,
    and its code lines, as `tools/count_lines.py` counts them."""
    texts = [path.read_text(encoding="utf-8") for path in (tree / "src" / "araid").rglob("*.py")]
    return sum(text.count("\n") for text in texts), sum(count(text)[1] for text in texts)


def run_once(tree: Path, seed: int, seconds: float) -> dict[str, dict]:
    """One `--workload all` run: {workload: its final JSON line}."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "all", "--seed",
                           str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, env=env, capture_output=True, text=True)
    results, workload = {}, None
    for line in proc.stdout.splitlines():
        if line.startswith("# araid benchmark: workload="):
            workload = line.split("workload=", 1)[1].split()[0]
        elif line.startswith("{") and workload is not None:
            results[workload] = json.loads(line)
    if proc.returncode != 0 or not results:
        raise RuntimeError(f"bench/run.py failed in {tree} (seed {seed}, exit "
                           f"{proc.returncode}):\n{proc.stderr[-2000:]}")
    return results


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def record(runs: dict[str, list[dict]], spec: dict) -> dict:
    """Per workload: each end-to-end metric of BENCHMARK.json summarised
    for both sides, then the failed-op counts and the correctness flag."""
    results = {}
    for workload in runs["parent"][0]:
        out = results[workload] = {}
        for metric in spec["end_to_end"]:
            name, better = metric["name"], metric["better"]
            values = {side: [r[workload]["metrics"][name]["value"] for r in runs[side]]
                      for side in SIDES}
            won = sum((c < p) if better == "lower" else (c > p)
                      for p, c in zip(values["parent"], values["change"]))
            entry = out[name] = {"unit": metric["unit"], "better": better}
            entry.update({side: summary(values[side]) for side in SIDES})
            entry["change_better_in_pairs"] = f"{won}/{len(values['parent'])}"
            entry["ratio_of_medians"] = entry["change"]["median"] / entry["parent"]["median"]
            parent, change = entry["parent"], entry["change"]
            # the change's median gain, in the metric's better direction
            gain = (parent["median"] - change["median"] if better == "lower"
                    else change["median"] - parent["median"])
            entry["worse_beyond_bound"] = -gain > metric["bound"] * parent["median"]
            entry["gain_shown"] = (10 * won >= 9 * len(values["parent"])
                                   and gain > parent["q3"] - parent["q1"])
        out["failed_ops"] = {side: sum(r[workload]["failed"] for r in runs[side])
                             for side in SIDES}
        out["all_correct"] = all(r[workload]["correct"] for side in SIDES for r in runs[side])
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--title", required=True, help="one line saying what the change does")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": export(args.parent, Path(tmp) / "parent"),
                 "change": export(args.change, Path(tmp) / "change")}
        lines = {side: source_lines(tree) for side, tree in trees.items()}
        for seed in seeds:
            for side in (SIDES if seed % 2 else SIDES[::-1]):
                print(f"seed {seed}: {side}", file=sys.stderr, flush=True)
                runs[side].append(run_once(trees[side], seed, seconds))

    import numpy
    doc = {
        "parent_commit": git("rev-parse", "--short", args.parent),
        "change": args.title,
        "command": f"python3 bench/run.py --workload all --seed <seed> --seconds "
                   f"{seconds:g} --trace 0",
        "seeds": seeds,
        "order": "alternating pairs: odd seeds ran the parent first, even seeds the change "
                 "first; one run at a time",
        "trees": "the parent commit and the change, each a fresh copy of the files (no .git), "
                 "run from its own directory",
        "machine": f"{os.cpu_count()}-vCPU host, Python {platform.python_version()}, numpy "
                   f"{numpy.__version__}; each run pins itself to one CPU",
        "statistic": f"per metric: median and quartiles (inclusive method) over the "
                     f"{len(seeds)} runs of each side, the runs in seed order, and the pairs "
                     f"in which the change is better",
        "src_araid_lines": {side: lines[side][0] for side in SIDES},
        "src_araid_code_lines": {side: lines[side][1] for side in SIDES},
        "results": record(runs, spec),
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"src/araid lines: parent {lines['parent'][0]} -> change {lines['change'][0]}; "
          f"code lines: parent {lines['parent'][1]} -> change {lines['change'][1]}")
    for workload, metrics in doc["results"].items():
        for name in (m["name"] for m in spec["end_to_end"]):
            m = metrics[name]
            print(f"{workload:14s} {name:12s} parent {m['parent']['median']:.4g} "
                  f"[{m['parent']['q1']:.4g}, {m['parent']['q3']:.4g}] -> change "
                  f"{m['change']['median']:.4g} {m['unit']} (better in "
                  f"{m['change_better_in_pairs']}; worse beyond bound: "
                  f"{m['worse_beyond_bound']}, gain shown: {m['gain_shown']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
