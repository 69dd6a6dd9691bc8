"""Offshore-drilling cyber incident model.

The 19-node defender/attacker diagram for a drilling rig facing a
business-motivated intrusion: the defender picks protection, a forensic
capability, a residual risk treatment (avoid / share / accept) and a
respond-and-recovery action (continue / stop drilling); the attacker
decides whether to perpetrate. The model lives in `data/drilling.maid`,
the published example's probabilities, costs and preference weights in
model-file form; the test suite checks it against the published tables
(`data/tables/T1.csv` .. `T10.csv`) and against `defender_cost`.

The defender's money outcome combines per-decision costs additively,
except that avoiding the risk aborts the operation outright and costs a
flat amount regardless of every other choice. See docs/cost-model.md for
how that composition rule was pinned down from the published expected
utilities.
"""
from __future__ import annotations

from .diagram import Diagram

# decision / outcome labels
DP = ("additional", "no_additional")
DF = ("forensic", "no_forensic")
DT = ("avoid", "share", "accept")
DR = ("continue", "stop")
AP = ("perpetrate", "no_perpetrate")
UM = ("loss_0", "loss_0_1m", "loss_1_5m")

# cost components in US dollars (published table T7)
AVOID_COST = 10_000_000.0
SHARE_COST = 500_000.0
ACCEPT_LOSS = (0.0, 500_000.0, 2_500_000.0)  # per UM outcome
PROTECTION_COST = 20_000.0
FORENSIC_COST = 10_000.0
STOP_COST = 300_000.0


def defender_cost(dp: str, df: str, dt: str, dr: str, um_outcome: str) -> float:
    """Defender's total money outcome in dollars.

    Avoiding the risk overrides everything: the operation is aborted and
    the flat avoidance cost is the whole outcome. Otherwise the treatment
    cost (insurance premium when sharing, the inherited loss when
    accepting) adds to the protection, forensic and stop-drilling costs
    actually incurred.
    """
    for arg, domain in ((dp, DP), (df, DF), (dt, DT), (dr, DR), (um_outcome, UM)):
        if arg not in domain:
            raise ValueError(f"{arg!r} not in {domain}")
    if dt == "avoid":
        return AVOID_COST
    base = SHARE_COST if dt == "share" else ACCEPT_LOSS[UM.index(um_outcome)]
    return (base
            + (PROTECTION_COST if dp == "additional" else 0.0)
            + (FORENSIC_COST if df == "forensic" else 0.0)
            + (STOP_COST if dr == "stop" else 0.0))


def build_drilling_model() -> Diagram:
    """The shipped drilling diagram, parsed from `data/drilling.maid`."""
    from .modelfile import parse_model
    from .resources import drilling_maid_text
    return parse_model(drilling_maid_text())


NODE_ROSTER = frozenset({
    "DP", "DF", "DT", "DR", "DC", "DCV", "DHV", "DU",
    "AP", "AC", "AMV", "ACV", "AU",
    "UC", "UA", "UM", "UH", "URH", "UCA",
})


def is_drilling_model(d: Diagram) -> bool:
    """Heuristic identity check used for built-in CLI defaults."""
    if set(d.nodes) != NODE_ROSTER:
        return False
    return (d.nodes["DT"].domain.labels == DT
            and d.nodes["DR"].domain.labels == DR
            and d.nodes["AP"].domain.labels == AP)


def default_beliefs() -> dict[str, dict[str, float]]:
    """Attacker-eye distributions for the defender decisions he cannot see.

    Uniform placeholders; the published example never states them, and the
    forecast defaults sample them anyway (see `default_uncertainty`).
    """
    return {
        "DT": {"avoid": 1 / 3, "share": 1 / 3, "accept": 1 / 3},
        "DR": {"continue": 0.5, "stop": 0.5},
    }


def default_uncertainty():
    """Shipped sampling rules for the forecast: flat Dirichlet over the
    attacker's beliefs about DT and DR, small uniform jitter on his
    utility weights. These are this library's defaults, not published
    figures.
    """
    from .ara import DirichletRule, ParameterUncertainty, PerturbRule
    return ParameterUncertainty(rules={
        ("belief", "DT"): DirichletRule((1.0, 1.0, 1.0)),
        ("belief", "DR"): DirichletRule((1.0, 1.0)),
        ("weights", "AU"): PerturbRule(0.02),
    })
