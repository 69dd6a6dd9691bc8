"""Golden stdout digests of the CLI on the shipped model.

Any change to these bytes (a new RNG stream, a reordered floating-point
sum that flips a near-tie, a formatting change) must be deliberate: re-pin
the digest and say why in CHANGES.md.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODEL = "src/araid/data/drilling.maid"   # relative: the path is echoed in JSON output

GOLDEN = {
    "solve-json": (
        ["solve", MODEL, "--seed", "1", "--draws", "10000", "--out", "json"],
        "366690a8108e6850b5376ad077faec006d609c664690522f9f43d2e403578604"),
    "tables-defender": (
        ["tables", MODEL, "--agent", "defender", "--axes", "DP,DF,DT,DR,UC,UA",
         "--out", "csv"],
        "a2115bd65eb947c03f076fa776a5234db793de34303b9cad5ed4b009de5e67b7"),
    "tables-attacker": (
        ["tables", MODEL, "--agent", "attacker", "--axes", "AP,UC,DP,DF",
         "--fix", "DT=accept", "DR=continue", "--out", "csv"],
        "b68614d263779960aa630b208167395af4f4d65f7d14ef86cdfc7817d6e4b851"),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_stdout_digest_is_pinned(name):
    argv, digest = GOLDEN[name]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "araid.cli", *argv],
                          capture_output=True, cwd=ROOT, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
