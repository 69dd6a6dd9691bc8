"""Every script in demos/ runs to completion on the shipped model and prints
pinned stdout.

As with the CLI's golden digests (test_golden.py), a change to a demo's
bytes (a new RNG stream, a reordered sum, a formatting change) must be
deliberate: re-pin the digest and say why in CHANGES.md.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "01_build_and_validate.py": "7d6e4469a5cc9972f530066e244685388e3ff9596c8f5b43264141a8289b920a",
    "02_policy_evaluation.py": "cb0b6b354b9f08bbd6e17ef9c10341f5a7a4574e1c3f4054c6518abb1b79ad2f",
    "03_attack_forecast.py": "15559a9fde4e5e64e9a17642e1ff165353411e7d593c46efdc63cff495e6904b",
    "04_custom_model.py": "b6096640b12f693d7bdde6dbb99b21fb6aea86124d778f212eae4a82384ca574",
}


def test_every_demo_has_a_pinned_digest():
    assert sorted(STDOUT_SHA256) == [p.name for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, cwd=ROOT, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
