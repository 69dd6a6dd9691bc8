"""Offshore-drilling cyber incident model.

Builds the 19-node defender/attacker diagram for a drilling rig facing a
business-motivated intrusion: the defender picks protection, a forensic
capability, a residual risk treatment (avoid / share / accept) and a
respond-and-recovery action (continue / stop drilling); the attacker
decides whether to perpetrate. Probabilities, costs and preference
weights are the published example figures, embedded here as code.

The defender's money outcome combines per-decision costs additively,
except that avoiding the risk aborts the operation outright and costs a
flat amount regardless of every other choice. See docs/cost-model.md for
how that composition rule was pinned down from the published expected
utilities.
"""
from __future__ import annotations

from dataclasses import dataclass

from .diagram import (
    Agent,
    AgentKind,
    Cpt,
    DetTable,
    Diagram,
    Domain,
    Node,
    NodeKind,
    UtilitySpec,
    ValueSpec,
    build_diagram,
)

DEFENDER = "defender"
ATTACKER = "attacker"

# decision / outcome labels
DP = ("additional", "no_additional")
DF = ("forensic", "no_forensic")
DT = ("avoid", "share", "accept")
DR = ("continue", "stop")
AP = ("perpetrate", "no_perpetrate")
UC = ("riskier", "normal")
UA = ("attack", "no_attack")
UM = ("loss_0", "loss_0_1m", "loss_1_5m")
UH = ("no_casualties", "casualties")
URH = ("no_casualties", "casualties")
UCA = ("no_identification", "identification")
AC = ("cost", "no_cost")

MONEY_SCALE = 10_000_000.0


@dataclass(frozen=True)
class DrillingModelConfig:
    """Cost constants (US dollars) and structural flags for the builder."""

    include_uc_to_ap_arc: bool = True
    avoid_cost: float = 10_000_000.0
    share_cost: float = 500_000.0
    accept_mapping: tuple[float, ...] = (0.0, 500_000.0, 2_500_000.0)  # per UM outcome
    protection_cost: float = 20_000.0
    forensic_cost: float = 10_000.0
    stop_cost: float = 300_000.0

    def __post_init__(self):
        costs = (self.avoid_cost, self.share_cost, self.protection_cost,
                 self.forensic_cost, self.stop_cost) + tuple(self.accept_mapping)
        if any(c < 0 for c in costs):
            raise ValueError("costs must be nonnegative")
        if len(self.accept_mapping) != len(UM):
            raise ValueError("accept_mapping needs one entry per monetary outcome")


def defender_cost(dp: str, df: str, dt: str, dr: str, um_outcome: str,
                  config: DrillingModelConfig | None = None) -> float:
    """Defender's total money outcome in dollars.

    Avoiding the risk overrides everything: the operation is aborted and
    the flat avoidance cost is the whole outcome. Otherwise the treatment
    cost (insurance premium when sharing, the inherited loss when
    accepting) adds to the protection, forensic and stop-drilling costs
    actually incurred.
    """
    c = config or DrillingModelConfig()
    for arg, domain in ((dp, DP), (df, DF), (dt, DT), (dr, DR), (um_outcome, UM)):
        if arg not in domain:
            raise ValueError(f"{arg!r} not in {domain}")
    if dt == "avoid":
        return c.avoid_cost
    base = c.share_cost if dt == "share" else c.accept_mapping[UM.index(um_outcome)]
    return (base
            + (c.protection_cost if dp == "additional" else 0.0)
            + (c.forensic_cost if df == "forensic" else 0.0)
            + (c.stop_cost if dr == "stop" else 0.0))


def attacker_monetary_value(dc_dollars: float) -> float:
    """Attacker's risk-averse score of the defender's loss, cube-root scaled."""
    if not 0.0 <= dc_dollars <= MONEY_SCALE:
        raise ValueError(f"defender cost {dc_dollars} outside [0, {MONEY_SCALE:.0f}]")
    return (dc_dollars / MONEY_SCALE) ** (1.0 / 3.0)


def defender_cost_value(dc_dollars: float) -> float:
    """Defender's risk-neutral score of her own loss (1 at zero cost)."""
    if dc_dollars < 0:
        raise ValueError("cost must be nonnegative")
    return 1.0 - dc_dollars / MONEY_SCALE


def _uc_cpt() -> Cpt:
    return Cpt({(): (0.3, 0.7)})


def _ua_cpt() -> Cpt:
    # rows keyed (AP, DP)
    return Cpt({
        ("perpetrate", "additional"): (0.05, 0.95),
        ("perpetrate", "no_additional"): (0.40, 0.60),
        ("no_perpetrate", "additional"): (0.0, 1.0),
        ("no_perpetrate", "no_additional"): (0.0, 1.0),
    })


def _um_cpt() -> Cpt:
    # rows keyed (UA, UC, DR) -> (loss_0, loss_0_1m, loss_1_5m)
    return Cpt({
        ("attack", "riskier", "continue"): (0.03, 0.12, 0.85),
        ("attack", "riskier", "stop"): (0.00, 0.85, 0.15),
        ("attack", "normal", "continue"): (0.10, 0.20, 0.70),
        ("attack", "normal", "stop"): (0.00, 0.90, 0.10),
        ("no_attack", "riskier", "continue"): (0.92, 0.07, 0.01),
        ("no_attack", "riskier", "stop"): (0.00, 0.97, 0.03),
        ("no_attack", "normal", "continue"): (0.96, 0.04, 0.00),
        ("no_attack", "normal", "stop"): (0.00, 0.99, 0.01),
    })


def _uh_cpt() -> Cpt:
    # rows keyed (UA, UC, DR) -> (no_casualties, casualties)
    return Cpt({
        ("attack", "riskier", "continue"): (0.96, 0.04),
        ("attack", "riskier", "stop"): (0.992, 0.008),
        ("attack", "normal", "continue"): (0.994, 0.006),
        ("attack", "normal", "stop"): (0.9996, 0.0004),
        ("no_attack", "riskier", "continue"): (0.996, 0.004),
        ("no_attack", "riskier", "stop"): (0.9996, 0.0004),
        ("no_attack", "normal", "continue"): (0.999, 0.001),
        ("no_attack", "normal", "stop"): (0.9999, 0.0001),
    })


def _urh_cpt() -> Cpt:
    # rows keyed (UH, DT); avoiding swaps offshore exposure for ordinary risk
    return Cpt({
        ("no_casualties", "avoid"): (0.9995, 0.0005),
        ("no_casualties", "share"): (1.0, 0.0),
        ("no_casualties", "accept"): (1.0, 0.0),
        ("casualties", "avoid"): (0.0, 1.0),
        ("casualties", "share"): (0.0, 1.0),
        ("casualties", "accept"): (0.0, 1.0),
    })


def _uca_cpt() -> Cpt:
    # rows keyed (UA, DF) -> (no_identification, identification)
    return Cpt({
        ("attack", "forensic"): (0.3, 0.7),
        ("attack", "no_forensic"): (0.9, 0.1),
        ("no_attack", "forensic"): (1.0, 0.0),
        ("no_attack", "no_forensic"): (1.0, 0.0),
    })


def _acv_rows() -> dict[tuple[str, str], float]:
    # rows keyed (AC, UCA)
    return {
        ("cost", "no_identification"): 0.75,
        ("cost", "identification"): 0.0,
        ("no_cost", "no_identification"): 1.0,
        ("no_cost", "identification"): 0.25,
    }


def _dc_tables(config: DrillingModelConfig) -> tuple[Domain, DetTable]:
    import itertools
    rows: dict[tuple[str, ...], float] = {}
    for dp, df, dt, dr, um in itertools.product(DP, DF, DT, DR, UM):
        rows[(dp, df, dt, dr, um)] = defender_cost(dp, df, dt, dr, um, config)
    amounts = sorted(set(rows.values()))
    labels = tuple(f"{int(a)}" if float(a).is_integer() else repr(a) for a in amounts)
    label_of = {a: lbl for a, lbl in zip(amounts, labels)}
    domain = Domain(labels=labels, numeric_tags=tuple(float(a) for a in amounts))
    det = DetTable({key: label_of[amount] for key, amount in rows.items()})
    return domain, det


def build_drilling_model(config: DrillingModelConfig | None = None) -> Diagram:
    """Assemble the full drilling diagram; always returns a valid diagram."""
    c = config or DrillingModelConfig()
    dc_domain, dc_table = _dc_tables(c)

    agents = [Agent(DEFENDER, AgentKind.DEFENDER, "Defender"),
              Agent(ATTACKER, AgentKind.ATTACKER, "Attacker")]

    ap_parents = ("DP", "DF") + (("UC",) if c.include_uc_to_ap_arc else ())
    nodes = [
        # defender decisions
        Node("DP", NodeKind.DECISION, DEFENDER, Domain(DP)),
        Node("DF", NodeKind.DECISION, DEFENDER, Domain(DF)),
        Node("DT", NodeKind.DECISION, DEFENDER, Domain(DT)),
        Node("DR", NodeKind.DECISION, DEFENDER, Domain(DR), parents=("UA",)),
        # attacker decision, informed by the defender's visible posture
        Node("AP", NodeKind.DECISION, ATTACKER, Domain(AP), parents=ap_parents),
        # chance nodes
        Node("UC", NodeKind.CHANCE, domain=Domain(UC), payload=_uc_cpt()),
        Node("UA", NodeKind.CHANCE, domain=Domain(UA), parents=("AP", "DP"),
             payload=_ua_cpt()),
        Node("UM", NodeKind.CHANCE,
             domain=Domain(UM, numeric_tags=(0.0, 500_000.0, 2_500_000.0)),
             parents=("UA", "UC", "DR"), payload=_um_cpt()),
        Node("UH", NodeKind.CHANCE, domain=Domain(UH), parents=("UA", "UC", "DR"),
             payload=_uh_cpt()),
        Node("URH", NodeKind.CHANCE, domain=Domain(URH), parents=("UH", "DT"),
             payload=_urh_cpt()),
        Node("UCA", NodeKind.CHANCE, domain=Domain(UCA), parents=("UA", "DF"),
             payload=_uca_cpt()),
        # deterministic cost nodes
        Node("DC", NodeKind.DETERMINISTIC, DEFENDER, dc_domain,
             parents=("DP", "DF", "DT", "DR", "UM"), payload=dc_table),
        Node("AC", NodeKind.DETERMINISTIC, ATTACKER, Domain(AC), parents=("AP",),
             payload=DetTable({("perpetrate",): "cost", ("no_perpetrate",): "no_cost"})),
        # value and utility nodes
        Node("DCV", NodeKind.VALUE, DEFENDER, parents=("DC",),
             payload=ValueSpec("linear", scale=MONEY_SCALE, offset=1.0)),
        Node("DHV", NodeKind.VALUE, DEFENDER, parents=("URH",),
             payload=ValueSpec("indicator", one_labels=frozenset({"no_casualties"}),
                               zero_labels=frozenset({"casualties"}))),
        Node("DU", NodeKind.UTILITY, DEFENDER, parents=("DCV", "DHV"),
             payload=UtilitySpec({"DCV": 0.05, "DHV": 0.95})),
        Node("AMV", NodeKind.VALUE, ATTACKER, parents=("DC",),
             payload=ValueSpec("power_root", scale=MONEY_SCALE, root=3.0)),
        Node("ACV", NodeKind.VALUE, ATTACKER, parents=("AC", "UCA"),
             payload=ValueSpec("table", rows=_acv_rows())),
        Node("AU", NodeKind.UTILITY, ATTACKER, parents=("AMV", "ACV"),
             payload=UtilitySpec({"AMV": 0.97, "ACV": 0.03})),
    ]
    order = {DEFENDER: ("DP", "DF", "DT", "DR"), ATTACKER: ("AP",)}
    return build_diagram(agents, nodes, order)


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
