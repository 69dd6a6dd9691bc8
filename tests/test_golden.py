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
# a point belief file, written per test; its path is not echoed, so any path will do
BELIEFS = "cpt DT | : avoid=0.2,share=0.3,accept=0.5\ncpt DR | : continue=0.6,stop=0.4\n"

GOLDEN = {
    "solve-json": (
        ["solve", MODEL, "--seed", "1", "--draws", "10000", "--out", "json"],
        "31eeb57f877541aeb44a2c40a199895a491c82690c094adfecd7bdbc1a6d1c9e"),
    "tables-defender": (
        ["tables", MODEL, "--agent", "defender", "--axes", "DP,DF,DT,DR,UC,UA",
         "--out", "csv"],
        "a2115bd65eb947c03f076fa776a5234db793de34303b9cad5ed4b009de5e67b7"),
    "tables-attacker": (
        ["tables", MODEL, "--agent", "attacker", "--axes", "AP,UC,DP,DF",
         "--fix", "DT=accept", "DR=continue", "--out", "csv"],
        "b68614d263779960aa630b208167395af4f4d65f7d14ef86cdfc7817d6e4b851"),
    "validate": (
        ["validate", MODEL],
        "a12b7cb43c9d9134b5bb1b35e9096b66775d9e92e7611d1cc92b02edd6782a87"),
    "tables-json": (
        ["tables", MODEL, "--agent", "defender", "--axes", "DP,DF,DT,DR,UC,UA",
         "--out", "json"],
        "c7d5c03321a0e23775ed4a8d6fff0468d1c025580bf2f4d6a1c07382278e7c92"),
    "evaluate": (
        ["evaluate", MODEL, "--agent", "defender", "--policy", "DP=no_additional",
         "DF=no_forensic", "DT=accept", "DR=continue", "AP=perpetrate",
         "--evidence", "UC=riskier", "UA=attack"],
        "84b23bc77eb6408e572022fce8e6634192154d4a661faa7d1c91897f4e6f12d0"),
    "solve-text": (
        ["solve", MODEL, "--seed", "1", "--draws", "10000", "--out", "text"],
        "e2e505c4a19f445e7aaaa08e86677466aed68ec3e881a82f42a894943ef984ef"),
    "solve-csv": (
        ["solve", MODEL, "--seed", "1", "--draws", "10000", "--out", "csv"],
        "bd3127ce5f670c37fb2a4e926cd28a4a1a86977a464b8f1e3056b3e2663b8d0b"),
    "solve-beliefs": (
        ["solve", MODEL, "--beliefs", "{beliefs}", "--draws", "1", "--seed", "7",
         "--out", "json"],
        "38389b6538780fc8161128bcfcd4a2982a93e31777448f13c6a2e7453389560e"),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_stdout_digest_is_pinned(name, tmp_path):
    argv, digest = GOLDEN[name]
    beliefs = tmp_path / "beliefs.maid"
    beliefs.write_text(BELIEFS)
    argv = [arg.format(beliefs=beliefs) for arg in argv]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "araid.cli", *argv],
                          capture_output=True, cwd=ROOT, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
