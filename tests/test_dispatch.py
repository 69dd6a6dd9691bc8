"""Stdout must not depend on which SIMD kernels numpy dispatches to.

The golden digests hold where numpy picks its kernels for the host CPU.
Here they run again in a subprocess with every dispatch target above
numpy's x86-64 baseline (X86_V2) turned off, so a change that makes stdout
depend on the kernels (a reduction whose order follows the vector width,
say) fails on any host that has them.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DISABLED = "X86_V3,X86_V4,AVX512_ICL,AVX512_SPR"


def test_the_golden_digests_hold_without_numpy_simd_dispatch():
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=DISABLED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # numpy refuses, at import, to disable a target that is in its baseline
    probe = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                           text=True, env=env)
    if probe.returncode:
        # the exception's message, which may span lines, ends the traceback
        lines = probe.stderr.strip().splitlines()
        start = max((i for i, line in enumerate(lines) if "Error" in line), default=0)
        reason = " ".join(lines[start:])
        pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES={DISABLED} here: {reason}")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "tests/test_golden.py"], capture_output=True, text=True, cwd=ROOT,
                          env=env)
    assert proc.returncode == 0, proc.stdout[-3000:]
