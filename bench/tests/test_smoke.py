"""Smoke test of the benchmark: a short run of each workload and its checks.

    PYTHONPATH=src python3 -m pytest -q bench/tests

Takes about 20 s. The known-answer op of solve-wide is expected
to fail until `_sampled_overrides` keeps a sampled value_root when a
value_scale rule targets the same node; flip that test with the fix.
"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import calib  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_op_of_each_workload_passes_its_checks(name):
    wl = workloads.WORKLOADS[name](seed=7)
    wl.warmup()
    result = run.measure(wl, seconds=0)
    assert result["attempted"] == 1
    assert result["failures"] == []


def test_calibration_pays_the_share_it_owes():
    cal = calib.Calibrator()
    owed = 0.2 * calib.SHARE
    assert cal.pay(0.2) >= owed
    assert sum(cal.chunks) >= owed
    assert cal.scale() == pytest.approx(calib.REF_CHUNK_S / (sum(cal.chunks) / len(cal.chunks)))


def test_setup_probes_are_spread_over_the_run():
    probed_at = []

    def probe():
        probed_at.append(time.perf_counter())
        return 0.1

    wl = workloads.Exact(seed=7)
    result = run.measure(wl, seconds=1.0, calibrator=calib.Calibrator(), probe=probe)
    assert result["setup"] == [0.1] * run.SETUP_PROBES
    assert result["failures"] == []
    assert probed_at[-1] - probed_at[0] >= 0.5   # first after op 1, last past 80% of the loop


def test_known_answer_op_fails_while_the_amv_defect_stands():
    problem = workloads.SolveWide(seed=7).known_answer()
    assert problem is not None
    assert "3 of 8 contexts" in problem


def test_repeated_seed_must_repeat_bytes():
    wl = workloads.SolveDefault(seed=7)
    argv = wl.argv(wl.seeds[0], 50)
    first = workloads.run_cli(argv)
    assert wl.first_out.setdefault(wl.seeds[0], first.out) == first.out
    altered = workloads.CliResult(0, first.out.replace("0", "1", 1), "")
    assert "differs" in wl.check(argv, altered)


@pytest.mark.parametrize("name", ["exact", "solve-wide"])
def test_traced_spans_nest_inside_their_parents(name):
    wl = workloads.WORKLOADS[name](seed=7)
    tr = tracer.Tracer()
    assert tr.absent == []
    result = run.measure(wl, seconds=0, tracer=tr)
    assert result["failures"] == []
    assert not tr.installed
    profiles = tr.op_profiles()   # raises SpanError when a child outgrows its parent
    assert len(profiles) == 1
    for p in profiles:
        assert sum(p["self_s"].values()) == pytest.approx(p["op_s"], abs=1e-9)
        assert all(v >= 0 for v in p["self_s"].values())
    metrics = tracer.layer_metrics(profiles, tr.absent_spans())
    assert metrics["ara.draws"]["value"] == (1 if name == "exact" else wl.draws)
    assert metrics["inference.einsum_ops"]["value"] > 0


def test_missing_trace_target_is_absent_not_fatal():
    gone = tracer.Target("araid.ara", "_no_such_function", "ara.gone")
    tr = tracer.Tracer(tracer.TARGETS + (gone,))
    assert tr.absent == ["araid.ara._no_such_function"]
    assert "ara.gone" in tr.absent_spans()


def test_result_line_lists_the_declared_metrics():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "exact",
                           "--seed", "3", "--seconds", "0.5", "--trace", "0"],
                          capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert list(last["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert "op_p90_s" in proc.stdout   # printed, marked absent below 100 ops


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "exact",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
