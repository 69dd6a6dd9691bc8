import itertools
from dataclasses import replace

import pytest

from araid import drilling as model
from araid.diagram import Domain, NodeKind, validate_diagram
from araid.drilling import defender_cost, is_drilling_model
from araid.inference import constant_policy, decision_table, enumerate_expected_utility
from araid.resources import read_table

ROSTER = {
    "DP", "DF", "DT", "DR", "DC", "DCV", "DHV", "DU",
    "AP", "AC", "AMV", "ACV", "AU",
    "UC", "UA", "UM", "UH", "URH", "UCA",
}


def test_default_model_roster_and_validity(drilling):
    assert set(drilling.nodes) == ROSTER
    assert validate_diagram(drilling) == []
    assert is_drilling_model(drilling)
    kinds = {nid: drilling.nodes[nid].kind for nid in drilling.nodes}
    assert kinds["DC"] == NodeKind.DETERMINISTIC and kinds["AC"] == NodeKind.DETERMINISTIC
    assert all(kinds[v] == NodeKind.VALUE for v in ("DCV", "DHV", "AMV", "ACV"))
    assert all(kinds[u] == NodeKind.UTILITY for u in ("DU", "AU"))
    assert all(kinds[c] == NodeKind.CHANCE for c in ("UC", "UA", "UM", "UH", "URH", "UCA"))


def test_probability_spot_values(drilling):
    assert drilling.nodes["UA"].payload.rows[("perpetrate", "additional")][0] == 0.05
    assert drilling.nodes["UA"].payload.rows[("perpetrate", "no_additional")][0] == 0.40
    assert drilling.nodes["UCA"].payload.rows[("attack", "forensic")][1] == 0.70
    assert drilling.nodes["UC"].payload.rows[()] == (0.3, 0.7)


@pytest.mark.parametrize("name,node,parents", [
    ("tables/T1.csv", "UC", ()),
    ("tables/T2.csv", "UA", ("AP", "DP")),
    ("tables/T3.csv", "UM", ("UA", "UC", "DR")),
    ("tables/T4.csv", "UH", ("UA", "UC", "DR")),
    ("tables/T5.csv", "URH", ("UH", "DT")),
    ("tables/T6.csv", "UCA", ("UA", "DF")),
])
def test_cpts_match_shipped_transcriptions(drilling, name, node, parents):
    n = drilling.nodes[node]
    assert n.parents == parents
    rows = read_table(name)
    if not parents:  # T1 is one label per row
        probs = {r["outcome"]: float(r["probability"]) for r in rows}
        assert n.payload.rows[()] == tuple(probs[lbl] for lbl in n.domain.labels)
        return
    seen = set()
    for row in rows:
        key = tuple(row[p] for p in parents)
        seen.add(key)
        got = n.payload.rows[key]
        want = tuple(float(row[lbl]) for lbl in n.domain.labels)
        assert got == pytest.approx(want, abs=1e-12), (node, key)
    assert seen == set(n.payload.rows)


def test_weights_match_shipped_transcriptions(drilling):
    t8 = {r["value_node"]: float(r["weight"]) for r in read_table("tables/T8.csv")}
    t10 = {r["value_node"]: float(r["weight"]) for r in read_table("tables/T10.csv")}
    assert dict(drilling.nodes["DU"].payload.weights) == t8
    assert dict(drilling.nodes["AU"].payload.weights) == t10


def test_counterattack_scores_match_shipped_transcription(drilling):
    rows = drilling.nodes["ACV"].payload.rows
    for r in read_table("tables/T9.csv"):
        assert rows[(r["AC"], r["UCA"])] == float(r["value"])


# -- cost composition ---------------------------------------------------------

def test_cost_table_total_over_72_tuples(drilling):
    assert len(drilling.nodes["DC"].payload.rows) == 2 * 2 * 3 * 2 * 3


def test_avoid_overrides_every_other_component():
    for dp, df, dr, um in itertools.product(
            ("additional", "no_additional"), ("forensic", "no_forensic"),
            ("continue", "stop"), ("loss_0", "loss_0_1m", "loss_1_5m")):
        assert defender_cost(dp, df, "avoid", dr, um) == 10_000_000


def test_additive_cost_composition():
    assert defender_cost("no_additional", "no_forensic", "accept", "continue",
                         "loss_0") == 0
    assert defender_cost("additional", "forensic", "accept", "stop",
                         "loss_1_5m") == 2_830_000
    assert defender_cost("additional", "forensic", "share", "continue",
                         "loss_0") == 530_000
    assert defender_cost("no_additional", "no_forensic", "share", "stop",
                         "loss_0_1m") == 800_000


@pytest.mark.parametrize("arg", range(5))
def test_a_cost_label_outside_its_domain_is_refused(arg):
    labels = ["no_additional", "no_forensic", "accept", "continue", "loss_0"]
    labels[arg] = "bogus"
    domain = (model.DP, model.DF, model.DT, model.DR, model.UM)[arg]
    with pytest.raises(ValueError) as err:
        defender_cost(*labels)
    assert str(err.value) == f"'bogus' not in {domain}"


@pytest.mark.parametrize("node", ["DT", "DR", "AP"])
def test_a_relabelled_decision_is_not_the_drilling_model(drilling, node):
    # the same 19 node ids, one decision's first label renamed
    n = drilling.nodes[node]
    labels = ("renamed",) + n.domain.labels[1:]
    nodes = {**drilling.nodes, node: replace(n, domain=replace(n.domain, labels=labels))}
    assert set(nodes) == ROSTER
    assert not is_drilling_model(replace(drilling, nodes=nodes))


def test_cost_components_match_shipped_transcription():
    t7 = {r["component"]: float(r["dollars"]) for r in read_table("tables/T7.csv")}
    assert model.AVOID_COST == t7["avoid"]
    assert model.SHARE_COST == t7["share"]
    assert model.ACCEPT_LOSS == (t7["accept_loss_0"], t7["accept_loss_0_1m"],
                                 t7["accept_loss_1_5m"])
    assert model.PROTECTION_COST == t7["additional_protection"]
    assert model.FORENSIC_COST == t7["forensic_system"]
    assert model.STOP_COST == t7["stop_drilling"]


def test_shipped_cost_nodes_follow_the_cost_rule(drilling):
    nodes = drilling.nodes
    dc = nodes["DC"]
    assert dc.parents == ("DP", "DF", "DT", "DR", "UM")
    for key, label in dc.payload.rows.items():
        assert dc.domain.tag(label) == defender_cost(*key), key

    t7 = {r["component"]: float(r["dollars"]) for r in read_table("tables/T7.csv")}
    assert nodes["UM"].domain.numeric_tags == tuple(
        t7[f"accept_{lbl}"] for lbl in nodes["UM"].domain.labels)

    assert nodes["AC"].parents == ("AP",)
    assert dict(nodes["AC"].payload.rows) == {("perpetrate",): "cost",
                                              ("no_perpetrate",): "no_cost"}


def _score(spec, dollars):
    return spec.score(("x",), [Domain(("x",), numeric_tags=(float(dollars),))])


def test_money_value_functions(drilling):
    nodes = drilling.nodes
    # the attacker scores the defender's loss risk-averse, cube-root scaled
    amv = nodes["AMV"].payload
    assert nodes["AMV"].parents == ("DC",)
    assert _score(amv, 10_000_000) == 1.0
    assert _score(amv, 0) == 0.0
    assert _score(amv, 1_250_000) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        _score(amv, -1)

    # the defender scores its own loss risk-neutral, 1 at zero cost
    dcv = nodes["DCV"].payload
    assert nodes["DCV"].parents == ("DC",)
    assert _score(dcv, 10_000_000) == 0.0
    assert _score(dcv, 0) == 1.0
    assert _score(dcv, 830_000) == pytest.approx(0.917, abs=1e-12)

    dhv = nodes["DHV"]
    assert dhv.parents == ("URH",)
    urh = [nodes["URH"].domain]
    assert dhv.payload.score(("no_casualties",), urh) == 1.0
    assert dhv.payload.score(("casualties",), urh) == 0.0


# -- published table reproduction ---------------------------------------------

def test_every_published_defender_cell_within_tolerance(drilling):
    table = decision_table(drilling, "defender", ["DP", "DF", "DT", "DR", "UC", "UA"])
    rows = read_table("T12_expected.csv")
    assert len(rows) == 96
    for row in rows:
        key = (row["DP"], row["DF"], row["DT"], row["DR"], row["UC"], row["UA"])
        assert table.cells[key] == pytest.approx(float(row["eu"]), abs=1e-4), key


def test_avoid_rows_identical_across_protection_and_forensics(drilling):
    table = decision_table(drilling, "defender", ["DP", "DF", "DT", "DR", "UC", "UA"])
    for dr, uc, ua in itertools.product(("continue", "stop"), ("riskier", "normal"),
                                        ("attack", "no_attack")):
        values = {table.cells[(dp, df, "avoid", dr, uc, ua)]
                  for dp in ("additional", "no_additional")
                  for df in ("forensic", "no_forensic")}
        assert len(values) == 1  # exact equality in the engine


def test_attacker_share_rows_invariant_to_context(drilling):
    for dp, df, dr, ap in itertools.product(
            ("additional", "no_additional"), ("forensic", "no_forensic"),
            ("continue", "stop"), ("perpetrate", "no_perpetrate")):
        policy = constant_policy(drilling, {"DP": dp, "DF": df, "DT": "share",
                                            "DR": dr, "AP": ap})
        eus = [enumerate_expected_utility(drilling, "attacker", policy, {"UC": uc})
               for uc in ("riskier", "normal")]
        assert eus[0] == pytest.approx(eus[1], abs=1e-15)
