#!/usr/bin/env python3
"""The araid benchmark: one workload per process, one thread, closed loop.

    python3 bench/run.py --workload solve-default --seed 1 --seconds 34 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 34 --trace 0

Run from anywhere; the program is imported from `src/` next to this
directory. Workloads are listed in bench/NOTES.md. With `--trace 0` the
run reports the end-to-end metrics, with times in reference seconds
(calib.py) and the wall times beside them; with `--trace 1` it alternates
untraced and traced ops and reports the per-layer metrics plus the
tracing overhead. The last line of stdout is one JSON object holding the
metrics that BENCHMARK.json lists for that mode; the lines before it
print every metric with its unit and sample count, the run metadata and
any failed check. `--workload all` runs each workload in its own process.

Exit codes: 0 when a result was printed (failed checks show in it), 1
when the benchmark itself broke, 2 when the program is not there.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
P90_MIN_OPS = 100   # op_p90_s needs at least 10 samples beyond it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# layers that should cover at least 90% of a solve-default op: sampling, tally, contraction
DRAW_LOOP_METRICS = ("ara.view_s", "ara.rng_s", "ara.sample_s", "ara.tally_s",
                     "ara.search_self_s", "inference.evaluate_self_s", "inference.execute_s")


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def probe_setup(workload: str, seed: int) -> float:
    """One cold set-up time, in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(BENCH / "probe_setup.py"), workload,
                           str(seed)], capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def measure(wl, seconds: float, tracer=None, calibrator=None, probe=None) -> dict:
    """Closed loop until `seconds` of op and calibration time have passed.

    Untraced, every op is timed. Traced, ops alternate untraced and
    traced, so both medians come from the same stretch of time. Each
    output is checked as soon as its op returns and then dropped, so
    memory does not grow with the op count. After each untraced op a
    `calibrator` (calib.py), when given, runs the calibration chunks the
    op owes. `probe`, when given, is called SETUP_PROBES times, spread
    evenly over the loop, and its set-up times are returned. Checking
    and probing are left out of the loop's time; calibration is not,
    but it is left out of `wall`, the ops' own share of the loop.
    """
    times, traced_times, failures, setup = [], [], [], []
    start = time.perf_counter()
    aside = calibrating = 0.0
    attempted = 0
    while True:
        x = wl.op_input(attempted)
        traced = tracer is not None and attempted % 2 == 1
        error = None
        if traced:
            tracer.begin_op()
            try:
                record = wl.op(x)
            except Exception as exc:
                record, error = None, f"{type(exc).__name__}: {exc}"
            finally:
                elapsed = tracer.end_op()
            traced_times.append(elapsed)
            tracer.count("cli.stdout_bytes", wl.stdout_bytes(record) if record else 0)
        else:
            t0 = time.perf_counter()
            try:
                record = wl.op(x)
            except Exception as exc:
                record, error = None, f"{type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - t0)
        attempted += 1
        c0 = time.perf_counter()
        problem = error or wl.check(x, record)
        if problem:
            failures.append(problem)
        del record
        aside += time.perf_counter() - c0
        if calibrator is not None and not traced:
            calibrating += calibrator.pay(times[-1])
        loop = time.perf_counter() - start - aside
        due = SETUP_PROBES * min(1.0, loop / seconds) if seconds > 0 else SETUP_PROBES
        if probe is not None and len(setup) < due:
            c0 = time.perf_counter()
            setup.append(probe())
            aside += time.perf_counter() - c0
        if loop >= seconds and (tracer is None or attempted >= 2):
            break
    while probe is not None and len(setup) < SETUP_PROBES:
        setup.append(probe())
    return {"times": times, "traced_times": traced_times, "setup": setup,
            "wall": loop - calibrating, "attempted": attempted, "failures": failures}


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_metric(name: str, value, unit: str, samples: int, note: str = "") -> None:
    print(f"metric {name:<28} {fmt(value):>14} {unit:<6} n={samples}{note}")


def end_to_end(run: dict, scale: float, chunks: int, probe_failed: int | None) -> dict:
    """Time metrics in reference seconds (wall seconds times `scale`); see calib.py."""
    times, setup = run["times"], run["setup"]
    n = len(times)
    probes = 0 if probe_failed is None else 1
    failed = len(run["failures"]) + (probe_failed or 0)
    wall = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "op_p50_s": (statistics.median(times), "s", n),
        "op_p90_s": ((statistics.quantiles(times, n=10)[8], "s", n)
                     if n >= P90_MIN_OPS else None),
        "ops_per_s": (n / run["wall"], "1/s", n),
    }
    metrics = {}
    for name, m in wall.items():
        if m is not None:   # a rate scales the other way
            m = (m[0] / scale if m[1] == "1/s" else m[0] * scale,) + m[1:]
        metrics[name] = m
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    metrics["fail_frac"] = (failed / (run["attempted"] + probes), "ratio",
                            run["attempted"] + probes)
    for name, m in metrics.items():
        if m is None:
            print(f"metric {name:<28} {'absent':>14} {'s':<6} n={n} "
                  f"(needs >= {P90_MIN_OPS} ops)")
        else:
            print_metric(name, *m)
    for name, m in wall.items():
        if m is not None:
            print_metric("wall." + name, *m)
    print_metric("calib.scale", scale, "ratio", chunks,
                 "  (reference seconds per wall second)")
    return {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items() if v}


def per_layer(tracer_mod, tr, run: dict) -> dict:
    profiles = tr.op_profiles()   # raises if spans are not properly nested
    absent = tr.absent_spans()
    metrics = tracer_mod.layer_metrics(profiles, absent)
    traced = statistics.median(run["traced_times"])
    untraced = statistics.median(run["times"])
    metrics["trace.overhead_frac"] = {"value": (traced - untraced) / untraced,
                                      "unit": "ratio", "samples": len(run["times"]),
                                      "absent": False}
    for name, m in metrics.items():
        if m["absent"]:
            print(f"metric {name:<28} {'absent':>14} {m['unit']:<6} n={m['samples']}")
            continue
        note = f"  share {m['value'] / traced:.4f}" if m["unit"] == "s" else ""
        print_metric(name, m["value"], m["unit"], m["samples"], note)
    print(f"info traced op_p50_s {traced:.6g} s (n={len(run['traced_times'])}), "
          f"untraced {untraced:.6g} s (n={len(run['times'])})")
    covered = sum(metrics[k]["value"] for k in DRAW_LOOP_METRICS)
    print(f"info ara.* + inference.evaluate_self_s + inference.execute_s cover "
          f"{covered / traced:.4f} of traced op time")
    if tr.absent:
        print(f"info trace targets absent from the code: {', '.join(tr.absent)}")
    return {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()}


def run_workload(args, spec: dict, threads_env: str | None) -> int:
    import numpy
    import calib
    import tracer as tracer_mod
    import workloads

    # one CPU for the ops, the calibration chunks and the set-up probes, so
    # that the chunks measure the speed of the CPU the ops ran on
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    wl_cls = workloads.WORKLOADS[args.workload]
    wl = wl_cls(args.seed)
    tr = tracer_mod.Tracer() if args.trace else None
    cal = None if args.trace else calib.Calibrator()
    probe = None if args.trace else functools.partial(probe_setup, args.workload, args.seed)
    wl.warmup()
    run = measure(wl, args.seconds, tr, cal, probe)

    print(f"# araid benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("meta " + json.dumps({
        "git_commit": git_commit(), "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "ARA_MAID_THREADS_env": threads_env,   # removed for the run either way
        "workload_seed": args.seed, "ops_per_run": run["attempted"],
        "setup_probes": len(run["setup"]),
        "calibration_chunks": len(cal.chunks) if cal else 0, "loop": "closed, 1 client, 1 thread",
    }, sort_keys=True))
    probe_failed = None
    if hasattr(wl, "known_answer"):
        problem = wl.known_answer()
        probe_failed = int(problem is not None)
        print(f"check known-answer op: {'FAIL ' + problem if problem else 'pass'}")
    for problem in run["failures"]:
        print(f"check FAIL {problem}")
    if args.trace:
        metrics = per_layer(tracer_mod, tr, run)
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        metrics = end_to_end(run, cal.scale(), len(cal.chunks), probe_failed)
        wanted = [m["name"] for m in spec["end_to_end"]]
    print(json.dumps({"correct": not run["failures"], "attempted": run["attempted"],
                      "failed": len(run["failures"]),
                      "metrics": {name: metrics[name] for name in wanted}}))
    return 0


def run_all(args) -> int:
    import workloads
    codes = []
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT)
        codes.append(proc.returncode)
    return max(codes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="solve-default, exact, solve-wide or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "araid" / "__init__.py").is_file():
        print(f"error: the araid sources are not at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # one thread: the CLI's own pool stays at its default of 1 and numpy
    # must not start BLAS threads (set before numpy is first imported)
    threads_env = os.environ.pop("ARA_MAID_THREADS", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args, spec, threads_env)


if __name__ == "__main__":
    sys.exit(main())
