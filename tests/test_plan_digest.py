"""Golden digest of the contraction tapes planned for the shipped model.

The runs are the ones the shipped commands and the benchmark make: the
attack forecast under each of `test_ara.SAMPLED_PLANS` (the default
uncertainty, every rule kind, and the default one plus `AMV`'s scale and
root); the defender's policy search; the defender and attacker tables of
the CLI; and the CLI's `evaluate` with evidence. For each tape that a run
plans, in planning order, the digest takes its steps, its gathers (each
take's index as bytes), `row_ops`, `row_cells`, the bytes of its
constants and planned result, `out_slot`, `out_axes` and
`missing_axes`. A planner refactor must keep the digest; a deliberate
change to a plan re-pins it and says why in CHANGES.md.
"""
import contextlib
import hashlib
import io
from pathlib import Path
from unittest import mock

import numpy as np

from araid import cli
from araid.ara import AttackForecast, forecast_attack, solve_defender
from araid.drilling import build_drilling_model, default_beliefs
from araid.inference import ContractionTape

from test_ara import SAMPLED_PLANS

MODEL = str(Path(__file__).resolve().parents[1] / "src/araid/data/drilling.maid")

DIGEST = "2bd07a50b4b03fdbd662ea0471ada35a4e2346dea4954cf00a80c140ea4d1a49"


def runs():
    d = build_drilling_model()
    forecast = AttackForecast.constant(d, "AP", {"perpetrate": 0.35, "no_perpetrate": 0.65})
    for rules in SAMPLED_PLANS.values():
        yield lambda rules=rules: forecast_attack(d, default_beliefs(), rules(d), draws=1, seed=0)
    yield lambda: solve_defender(d, forecast)
    for argv in (["tables", MODEL, "--agent", "defender", "--axes", "DP,DF,DT,DR,UC,UA"],
                 ["tables", MODEL, "--agent", "attacker", "--axes", "AP,UC,DP,DF",
                  "--fix", "DT=accept", "DR=continue"],
                 ["evaluate", MODEL, "--agent", "defender", "--policy", "DP=no_additional",
                  "DF=no_forensic", "DT=accept", "DR=continue", "AP=perpetrate",
                  "--evidence", "UC=riskier", "UA=attack"]):
        yield lambda argv=argv: command(argv)


def command(argv):
    assert cli.main(argv) == 0


def planned_tapes(run):
    """Every tape that run() plans, in planning order."""
    tapes, init = [], ContractionTape.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tapes.append(self)
    with mock.patch.object(ContractionTape, "__init__", spy), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        run()
    return tapes


def array_bytes(a) -> bytes:
    a = np.asarray(a)
    return repr((a.shape, a.dtype.str)).encode() + np.ascontiguousarray(a).tobytes()


def plan_digest():
    h = hashlib.sha256()
    for run in runs():
        tapes = planned_tapes(run)
        h.update(repr(len(tapes)).encode())
        for tape in tapes:
            h.update(repr((tape.steps, tape.row_ops, tape.row_cells, tape.out_slot,
                           tape.out_axes, tape.missing_axes)).encode())
            for gather in tape.gathers:
                h.update(repr(gather and gather[:3]).encode())
                if gather is not None:
                    h.update(array_bytes(gather[3]))
            for constant in tape.constants:
                h.update(array_bytes(constant))
            h.update(b"none" if tape.result is None else array_bytes(tape.result))
    return h.hexdigest()


def test_the_shipped_plans_digest_is_pinned():
    assert plan_digest() == DIGEST
