#!/usr/bin/env python3
"""Regenerate the derived data file shipped with the package.

Writes src/araid/data/T11_reference.csv: the attacker expected utilities
that the brute-force oracle computes on the shipped model
(src/araid/data/drilling.maid), next to the published figures and their
deltas.

The published attacker table is NOT reproducible from the published inputs
(see docs/attacker-table-report.md); the delta column quantifies that, which
is why this file records the oracle's numbers as the reference.
"""
from __future__ import annotations

import csv
import itertools
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from araid.drilling import build_drilling_model
from araid.inference import constant_policy, enumerate_expected_utility

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "araid" / "data"

# published attacker expected utilities, keyed (DP, DF, DT, UC, DR, AP)
PUBLISHED_T11: dict[tuple[str, ...], float] = {}


def _t11_block(dp, df, rows):
    # rows: DT -> {UC -> (continue_perp, continue_noperp, stop_perp, stop_noperp)}
    for dt, by_uc in rows.items():
        for uc, (cp, cn, sp, sn) in by_uc.items():
            PUBLISHED_T11[(dp, df, dt, uc, "continue", "perpetrate")] = cp
            PUBLISHED_T11[(dp, df, dt, uc, "continue", "no_perpetrate")] = cn
            PUBLISHED_T11[(dp, df, dt, uc, "stop", "perpetrate")] = sp
            PUBLISHED_T11[(dp, df, dt, uc, "stop", "no_perpetrate")] = sn


_t11_block("additional", "forensic", {
    "avoid": {"riskier": (1, 1, 1, 1), "normal": (1, 1, 1, 1)},
    "share": {"riskier": (0.56074, 0.56903, 0.61138, 0.61966),
              "normal": (0.56074, 0.56903, 0.61138, 0.61966)},
    "accept": {"riskier": (0.36484, 0.35433, 0.61728, 0.62458),
               "normal": (0.35170, 0.34293, 0.61375, 0.62130)},
})
_t11_block("additional", "no_forensic", {
    "avoid": {"riskier": (1, 1, 1, 1), "normal": (1, 1, 1, 1)},
    "share": {"riskier": (0.55938, 0.56699, 0.61060, 0.61821),
              "normal": (0.55938, 0.56699, 0.61060, 0.61821)},
    "accept": {"riskier": (0.34461, 0.33241, 0.61653, 0.62315),
               "normal": (0.33055, 0.32013, 0.61299, 0.61986)},
})
_t11_block("no_additional", "forensic", {
    "avoid": {"riskier": (1, 1, 1, 1), "normal": (1, 1, 1, 1)},
    "share": {"riskier": (0.55116, 0.56496, 0.60295, 0.61675),
              "normal": (0.55116, 0.56496, 0.60295, 0.61675)},
    "accept": {"riskier": (0.45634, 0.29898, 0.61588, 0.62173),
               "normal": (0.42794, 0.28532, 0.61058, 0.61841)},
})
_t11_block("no_additional", "no_forensic", {
    "avoid": {"riskier": (1, 1, 1, 1), "normal": (1, 1, 1, 1)},
    "share": {"riskier": (0.55442, 0.56282, 0.60690, 0.61530),
              "normal": (0.55442, 0.56282, 0.60690, 0.61530)},
    "accept": {"riskier": (0.32392, 0.07465, 0.61990, 0.62030),
               "normal": (0.28286, 0.05131, 0.61456, 0.61696)},
})


def write_t11_reference() -> None:
    d = build_drilling_model()
    axes = {"DP": ("additional", "no_additional"),
            "DF": ("forensic", "no_forensic"),
            "DT": ("avoid", "share", "accept"),
            "UC": ("riskier", "normal"),
            "DR": ("continue", "stop"),
            "AP": ("perpetrate", "no_perpetrate")}
    out = DATA / "T11_reference.csv"
    with out.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(axes) + ["oracle_eu", "published_eu", "delta"])
        for key in itertools.product(*axes.values()):
            dp, df, dt, uc, dr, ap = key
            policy = constant_policy(d, {"DP": dp, "DF": df, "DT": dt, "DR": dr, "AP": ap})
            eu = enumerate_expected_utility(d, "attacker", policy, {"UC": uc})
            published = PUBLISHED_T11[key]
            writer.writerow(list(key) + [repr(eu), repr(float(published)),
                                         repr(eu - published)])
    print("wrote T11_reference.csv")


if __name__ == "__main__":
    write_t11_reference()
