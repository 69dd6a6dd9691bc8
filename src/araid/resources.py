"""Access to the shipped model and fixture files.

The package carries the drilling model in `.maid` form, CSV transcriptions
of its published probability/cost/weight tables (T1..T10), the published
defender expected-utility table (T12_expected.csv), and an oracle-computed
attacker table with deltas against the published one (T11_reference.csv).
"""
from __future__ import annotations

import csv
from importlib import resources

_DATA = resources.files(__package__) / "data"


def data_path(name: str):
    """Traversable handle for a shipped data file (e.g. 'drilling.maid')."""
    return _DATA / name


def drilling_maid_text() -> str:
    return data_path("drilling.maid").read_text(encoding="utf-8")


def read_table(name: str) -> list[dict[str, str]]:
    """Rows of a shipped CSV (e.g. 'tables/T3.csv', 'T12_expected.csv')."""
    with (_DATA / name).open("r", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))
