import itertools
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from araid import diagram as diagram_module
from araid.diagram import (
    Agent,
    AgentKind,
    Cpt,
    DetTable,
    Diagram,
    DiagramError,
    Domain,
    Node,
    NodeKind,
    UtilitySpec,
    ValueSpec,
    ancestors,
    build_diagram,
    topological_order,
    validate_diagram,
)
from araid.modelfile import parse_model

from conftest import attacker_only_model, random_diagram, wide_decision_model, wide_observer_model


def chance(nid, labels, rows, parents=()):
    return Node(nid, NodeKind.CHANCE, domain=Domain(tuple(labels)),
                parents=tuple(parents), payload=Cpt(rows))


def test_single_chance_node_is_valid():
    d = build_diagram([], [chance("x", ["a"], {(): (1.0,)})])
    assert validate_diagram(d) == []
    assert list(d.nodes) == ["x"]


def test_drilling_model_has_19_nodes_and_validates(drilling):
    assert len(drilling.nodes) == 19
    assert validate_diagram(drilling) == []


def test_non_stochastic_row_reported_with_node_and_row():
    bad = chance("x", ["a", "b"], {(): (0.5, 0.49)})
    with pytest.raises(DiagramError) as err:
        build_diagram([], [bad])
    (violation,) = err.value.violations
    assert "non-stochastic row" in str(violation)
    assert "'x'" in str(violation)
    assert violation.key == ()


def test_missing_row_is_incomplete_table():
    # the missing rows are counted in one violation that names the first,
    # in parent-domain product order; ('b', 'c') lies past the first
    # len(rows) parent tuples, so it is checked label by label
    p = chance("p", ["a", "b"], {(): (0.5, 0.5)})
    q = chance("q", ["a", "b", "c"], {(): (0.2, 0.3, 0.5)})
    rows = {("a", "a"): (1.0, 0.0), ("b", "a"): (1.0, 0.0), ("b", "c"): (1.0, 0.0),
            ("z", "a"): (1.0, 0.0), ("a",): (1.0, 0.0)}
    child = chance("x", ["a", "b"], rows, parents=["p", "q"])
    with pytest.raises(DiagramError) as err:
        build_diagram([], [p, q, child])
    assert [(v.code, v.key, str(v)) for v in err.value.violations] == [
        ("incomplete-table", ("a", "b"),
         "incomplete table: node 'x' missing 3 row(s), the first ('a', 'b')"),
        ("extra-row", ("a",), "node 'x' has a row for unknown parent tuple ('a',)"),
        ("extra-row", ("z", "a"), "node 'x' has a row for unknown parent tuple ('z', 'a')"),
    ]
    # a key that is not a tuple is no parent tuple, even if it spells labels
    rows = {key: (1.0, 0.0) for key in itertools.product("ab", "ab")} | {"ac": (1.0, 0.0)}
    child = chance("x", ["a", "b"], rows, parents=["p", "q"])
    with pytest.raises(DiagramError) as err:
        build_diagram([], [p, q, child])
    assert [(v.code, v.key) for v in err.value.violations] == [
        ("incomplete-table", ("a", "c")), ("extra-row", "ac")]


def test_unknown_parent_and_duplicate_id():
    n1 = chance("x", ["a"], {(): (1.0,)})
    n2 = chance("x", ["a"], {(): (1.0,)})
    with pytest.raises(DiagramError) as err:
        build_diagram([], [n1, n2])
    assert any(v.code == "duplicate-id" for v in err.value.violations)

    orphan = chance("y", ["a"], {("a",): (1.0,)}, parents=["ghost"])
    with pytest.raises(DiagramError) as err:
        build_diagram([], [orphan])
    assert any(v.code == "unknown-parent" for v in err.value.violations)


def test_cycle_detected_among_chance_nodes():
    a = chance("a", ["x", "y"], {("x",): (1.0, 0.0), ("y",): (0.0, 1.0)}, parents=["b"])
    b = chance("b", ["x", "y"], {("x",): (1.0, 0.0), ("y",): (0.0, 1.0)}, parents=["a"])
    with pytest.raises(DiagramError) as err:
        build_diagram([], [a, b])
    assert any(v.code == "cycle" for v in err.value.violations)


def test_information_arc_against_temporal_order(drilling):
    # observing the attack outcome before deciding protection is impossible:
    # the attack depends on the protection decision itself
    nodes = dict(drilling.nodes)
    dp = nodes["DP"]
    nodes["DP"] = Node("DP", dp.kind, dp.owner, dp.domain, parents=("UA",))
    d = Diagram(agents=drilling.agents, nodes=nodes,
                decision_order=drilling.decision_order)
    violations = validate_diagram(d)
    # exhaustively reported as broken information arcs, never as a raw cycle
    assert violations and all(v.code == "temporal-order" for v in violations)
    assert any("'UA' -> 'DP'" in str(v) for v in violations)
    assert all("information arc violates temporal order" in str(v) for v in violations)


def test_decision_order_must_cover_decisions(drilling):
    d = Diagram(agents=drilling.agents, nodes=drilling.nodes,
                decision_order={"defender": ("DP", "DF", "DT", "DR")})
    # attacker's AP missing from any order
    assert any(v.code == "order-coverage" for v in validate_diagram(d))


def test_same_agent_decision_parent_must_precede(drilling):
    nodes = dict(drilling.nodes)
    dp = nodes["DP"]
    # DP observing DT, but DT is declared after DP
    nodes["DP"] = Node("DP", dp.kind, dp.owner, dp.domain, parents=("DT",))
    d = Diagram(agents=drilling.agents, nodes=nodes,
                decision_order=drilling.decision_order)
    assert any(v.code == "temporal-order" for v in validate_diagram(d))


@pytest.mark.parametrize("observed, on", [
    ("DT", "later decision(s) ['DT']"),
    ("DP", "the decision itself"),
])
def test_each_broken_information_arc_is_reported_once(drilling, observed, on):
    # DP observing the later DT, and DP observing itself: one arc, one report
    nodes = dict(drilling.nodes)
    dp = nodes["DP"]
    nodes["DP"] = Node("DP", dp.kind, dp.owner, dp.domain, parents=(observed,))
    d = Diagram(agents=drilling.agents, nodes=nodes, decision_order=drilling.decision_order)
    assert [(v.code, str(v)) for v in validate_diagram(d)] == [
        ("temporal-order", f"information arc violates temporal order: {observed!r} -> 'DP' "
                           f"(observed node depends on {on})")]


def test_a_repeated_agent_id_is_reported_once():
    x = Agent("X", AgentKind.DEFENDER)
    d = Diagram(agents=(x, x, x, Agent("Y", AgentKind.ATTACKER)), nodes={})
    assert [(v.code, str(v)) for v in validate_diagram(d)] == [
        ("duplicate-id", "duplicate agent id 'X'")]


def test_weights_must_sum_to_one(drilling):
    from araid.diagram import UtilitySpec
    nodes = dict(drilling.nodes)
    du = nodes["DU"]
    nodes["DU"] = Node("DU", du.kind, du.owner, parents=du.parents,
                       payload=UtilitySpec({"DCV": 0.1, "DHV": 0.95}))
    d = Diagram(agents=drilling.agents, nodes=nodes,
                decision_order=drilling.decision_order)
    assert any(v.code == "weight-sum" for v in validate_diagram(d))


# NaN fails every comparison: each range check must fail it too

def test_a_nan_probability_is_refused():
    with pytest.raises(DiagramError, match=r"row \(\): probability outside \[0, 1\]"):
        build_diagram([], [chance("x", ["a", "b"], {(): (float("nan"), 0.5)})])


def test_a_nan_utility_weight_is_refused(drilling):
    from araid.diagram import UtilitySpec
    nodes = dict(drilling.nodes)
    nodes["DU"] = replace(nodes["DU"], payload=UtilitySpec({"DCV": float("nan"), "DHV": 0.5}))
    d = Diagram(agents=drilling.agents, nodes=nodes, decision_order=drilling.decision_order)
    assert {"weight-range", "weight-sum"} <= {v.code for v in validate_diagram(d)}


def test_a_nan_tag_under_a_power_root_value_is_refused(drilling):
    nodes = dict(drilling.nodes)
    dc = nodes["DC"]
    tags = (float("nan"),) + dc.domain.numeric_tags[1:]
    nodes["DC"] = replace(dc, domain=replace(dc.domain, numeric_tags=tags))
    d = Diagram(agents=drilling.agents, nodes=nodes, decision_order=drilling.decision_order)
    assert [v.code for v in validate_diagram(d) if v.node == "AMV"] == ["negative-tag"]


@pytest.mark.parametrize("node, field, message", [
    ("AMV", "scale", "scale must be nonzero"),
    ("AMV", "root", "power_root form needs a nonzero root"),
    ("DCV", "scale", "scale must be nonzero"),
    ("DCV", "offset", "offset must be a number"),
])
def test_a_nan_value_parameter_is_refused(drilling, node, field, message):
    nodes = dict(drilling.nodes)
    nodes[node] = replace(nodes[node], payload=replace(nodes[node].payload,
                                                        **{field: float("nan")}))
    d = Diagram(agents=drilling.agents, nodes=nodes, decision_order=drilling.decision_order)
    assert [(v.code, str(v)) for v in validate_diagram(d)] == [
        ("bad-parameter", f"value node {node!r}: {message}")]
    # the parser reads inf: an infinite parameter stays valid unless a
    # score it gives is infinite (an infinite offset's every score)
    nodes[node] = replace(nodes[node], payload=replace(nodes[node].payload,
                                                        **{field: float("inf")}))
    assert [v.code for v in validate_diagram(replace(d, nodes=nodes))] == (
        ["non-finite-score"] if field == "offset" else [])


def test_a_nan_tag_under_a_linear_value_is_refused(drilling):
    # DC feeds both the linear DCV and the power_root AMV
    nodes = dict(drilling.nodes)
    dc = nodes["DC"]
    for tag, codes in ((float("nan"), {"AMV": ["negative-tag"], "DCV": ["nan-tag"]}),
                       (float("inf"), {"AMV": ["non-finite-score"],
                                       "DCV": ["non-finite-score"]})):
        tags = dc.domain.numeric_tags[:-1] + (tag,)
        nodes["DC"] = replace(dc, domain=replace(dc.domain, numeric_tags=tags))
        d = Diagram(agents=drilling.agents, nodes=nodes, decision_order=drilling.decision_order)
        found = {}
        for v in validate_diagram(d):
            found.setdefault(v.node, []).append(v.code)
        assert found == codes


@pytest.mark.parametrize("params, score", [
    ({"scale": 1.0, "root": 0.001}, "inf"),              # 10000 ** 1000 overflows
    ({"scale": -1e7}, "(0.050000000000000024+0.08660254037844388j)"),  # a complex root
], ids=["overflow", "complex"])
def test_an_analytic_value_is_scored_at_every_tag(drilling, params, score):
    # both pass the parameter checks; the compiled factor would raise
    nodes = dict(drilling.nodes)
    nodes["AMV"] = replace(nodes["AMV"], payload=replace(nodes["AMV"].payload, **params))
    d = Diagram(agents=drilling.agents, nodes=nodes, decision_order=drilling.decision_order)
    assert [(v.code, v.key, str(v)) for v in validate_diagram(d)] == [
        ("non-finite-score", ("10000",),
         f"value node 'AMV' scores parent label '10000' (tag 10000.0) as {score}, "
         f"not a finite real number")]


DEF = Agent("def", AgentKind.DEFENDER)
TAGGED = Node("p", NodeKind.CHANCE, domain=Domain(("a", "b"), numeric_tags=(1.0, 2.0)),
              payload=Cpt({(): (0.5, 0.5)}))


def value(payload, parents=()):
    return Node("v", NodeKind.VALUE, owner="def", parents=tuple(parents), payload=payload)


@pytest.mark.parametrize("agents, nodes, order, code, message", [
    ([Agent("n1", AgentKind.NATURE), Agent("n2", AgentKind.NATURE)], [], {},
     "multiple-nature", "more than one nature agent declared"),
    ([], [chance("p", ["a"], {(): (1.0,)}), chance("x", ["a"], {("a", "a"): (1.0,)}, ["p", "p"])],
     {}, "duplicate-parent", "node 'x' lists a parent twice"),
    ([], [Node("x", NodeKind.CHANCE, domain=Domain(("a",)))], {},
     "missing-table", "chance node 'x' needs a CPT"),
    ([], [Node("x", NodeKind.DETERMINISTIC, domain=Domain(("a",)), payload=Cpt({(): (1.0,)}))],
     {}, "missing-table", "deterministic node 'x' needs a table"),
    ([DEF], [Node("u", NodeKind.UTILITY, owner="def")], {},
     "missing-spec", "utility node 'u' needs a utility spec"),
    ([DEF], [value(ValueSpec("table"))], {},
     "missing-spec", "value node 'v': table form without rows"),
    ([DEF], [Node("d", NodeKind.DECISION, owner="def", domain=Domain(("a",)),
                  payload=DetTable({(): "a"}))], {"def": ["d"]},
     "unexpected-payload", "decision node 'd' must not carry a table"),
    ([DEF], [Node("d", NodeKind.DECISION, owner="def", domain=Domain(()))], {"def": ["d"]},
     "empty-domain", "node 'd' has an empty domain"),
    ([], [Node("x", NodeKind.CHANCE, domain=Domain(("a", "b"), numeric_tags=(1.0,)),
               payload=Cpt({(): (0.5, 0.5)}))], {},
     "tag-arity", "node 'x': numeric tags must cover every label or none"),
    ([], [chance("x", ["a", "b"], {(): (1.0,)})], {},
     "row-arity", "node 'x' row (): 1 entries for 2 labels"),
    ([DEF], [value(ValueSpec("cubic"))], {}, "bad-form", "value node 'v': unknown form 'cubic'"),
    ([DEF], [value(ValueSpec("table", rows={(): float("inf")}))], {},
     "non-finite-score", "value node 'v' row () is not finite"),
    ([DEF], [TAGGED, value(ValueSpec("linear", scale=1.0), ["p"])], {},
     "bad-parameter", "value node 'v': linear form needs an offset"),
], ids=["multiple-nature", "duplicate-parent", "chance-without-cpt", "det-without-table",
        "utility-without-spec", "table-without-rows", "decision-with-payload", "empty-domain",
        "tag-arity", "row-arity", "bad-form", "infinite-table-score", "linear-without-offset"])
def test_each_node_check_reports_its_code_and_message(agents, nodes, order, code, message):
    with pytest.raises(DiagramError) as err:
        build_diagram(agents, nodes, order)
    assert [(v.code, str(v)) for v in err.value.violations] == [(code, message)]


def test_topological_order_refuses_a_cycle():
    # only build_diagram refuses a cycle; a Diagram made directly can hold one
    d = Diagram(agents=(), nodes={"x": chance("x", ["a"], {("a",): (1.0,)}, ["y"]),
                                  "y": chance("y", ["a"], {("a",): (1.0,)}, ["x"])})
    with pytest.raises(ValueError, match=r"^diagram has a cycle; validate before ordering$"):
        topological_order(d)


def test_topological_order_chain_and_diamond():
    a = chance("A", ["x"], {(): (1.0,)})
    b = chance("B", ["x"], {("x",): (1.0,)}, parents=["A"])
    c = chance("C", ["x"], {("x",): (1.0,)}, parents=["B"])
    d = build_diagram([], [c, a, b])
    assert topological_order(d) == ["A", "B", "C"]

    a = chance("A", ["x"], {(): (1.0,)})
    b = chance("B", ["x"], {("x",): (1.0,)}, parents=["A"])
    c = chance("C", ["x"], {("x",): (1.0,)}, parents=["A"])
    dd = chance("D", ["x"], {("x", "x"): (1.0,)}, parents=["B", "C"])
    d = build_diagram([], [dd, c, b, a])
    assert topological_order(d) == ["A", "B", "C", "D"]


def test_topological_order_drilling_parents_first(drilling):
    order = topological_order(drilling)
    pos = {nid: i for i, nid in enumerate(order)}
    assert pos["UC"] < pos["UM"] and pos["UC"] < pos["UH"]
    for n in drilling.nodes.values():
        for p in n.parents:
            assert pos[p] < pos[n.id]
    assert order == topological_order(drilling)  # stable


def test_valid_random_diagrams_topo_sortable():
    rng = np.random.default_rng(7)
    for _ in range(25):
        d = random_diagram(rng)
        assert validate_diagram(d) == []
        order = topological_order(d)
        assert len(order) == len(d.nodes)


# -- node swaps ----------------------------------------------------------------

def rebuilt(d, new_nodes):
    """What `d.replace_nodes(new_nodes)` must give: `build_diagram` of the
    merged nodes, or the violations it raises."""
    merged = {**d.nodes, **{n.id: n for n in new_nodes}}
    order = {a: tuple(x for x in seq if merged[x].kind == NodeKind.DECISION)
             for a, seq in d.decision_order.items()}
    try:
        return build_diagram(d.agents, merged.values(), order)
    except DiagramError as exc:
        return exc.violations


def swapped(d, new_nodes):
    try:
        return d.replace_nodes(new_nodes)
    except DiagramError as exc:
        return exc.violations


def cpt_over(d, node, rows):
    """`node` as a chance node whose rows, one per parent tuple of its
    parents in `d`, come from `rows(key)`."""
    keys = itertools.product(*(d.nodes[p].domain.labels for p in node.parents))
    return Node(node.id, NodeKind.CHANCE, domain=node.domain, parents=node.parents,
                payload=Cpt({key: rows(key) for key in keys}))


def test_a_swap_on_the_shipped_model_gives_what_a_full_build_gives(drilling):
    n = drilling.nodes
    three = Domain(("riskier", "normal", "calm"))
    cases = {
        # the forecast's swap and the attacker view's
        "attack as chance": ([cpt_over(drilling, n["AP"], lambda key: (0.3, 0.7))], None),
        "beliefs": ([chance("DT", n["DT"].domain.labels, {(): (0.2, 0.3, 0.5)}),
                     chance("DR", n["DR"].domain.labels, {(): (0.6, 0.4)})], None),
        "bad row": ([chance("UC", n["UC"].domain.labels, {(): (0.5, 0.6)})],
                    "non-stochastic-row"),
        "domain breaks children": ([replace(n["UC"], domain=three,
                                            payload=Cpt({(): (0.2, 0.3, 0.5)}))],
                                   "incomplete-table"),
        "cycle": ([cpt_over(drilling, replace(n["UC"], parents=("UH",)),
                            lambda key: (0.5, 0.5))], "cycle"),
        "decision to chance": ([cpt_over(drilling, n["DP"], lambda key: (0.5, 0.5))], None),
        "decision to owned chance": ([replace(cpt_over(drilling, n["DP"], lambda key: (0.5, 0.5)),
                                              owner="defender")], "ownership"),
    }
    for name, (nodes, code) in cases.items():
        got, want = swapped(drilling, nodes), rebuilt(drilling, nodes)
        assert got == want, name
        if code is None:
            assert isinstance(got, Diagram), name
        else:
            assert code in {v.code for v in got}, name
    # a decision that became a chance node left its agent's order
    dp = swapped(drilling, cases["decision to chance"][0])
    assert dp.decision_order["defender"] == ("DF", "DT", "DR")


def test_a_swap_on_random_diagrams_gives_what_a_full_build_gives():
    rng = np.random.default_rng(1818)
    seen = {"valid": 0, "invalid": 0}
    for _ in range(40):
        d = random_diagram(rng)
        for node in list(d.nodes.values()):
            size = None if node.domain is None else len(node.domain)
            swaps = []
            if node.kind == NodeKind.CHANCE:
                swaps.append(cpt_over(d, node, lambda key: tuple(rng.dirichlet(np.ones(size)))))
                swaps.append(cpt_over(d, node, lambda key: (1.0,) * size))
                if size > 1:  # one label fewer: a child's rows no longer fit
                    fewer = replace(node, domain=Domain(node.domain.labels[:-1]))
                    swaps.append(cpt_over(d, fewer, lambda key: (1.0,) + (0.0,) * (size - 2)))
                # a parent that depends on the node closes a cycle
                later = [m for m in d.nodes.values() if m.domain is not None and m.id != node.id
                         and node.id in ancestors(d, [m.id])]
                if later:
                    swaps.append(cpt_over(d, replace(node, parents=node.parents + (later[0].id,)),
                                          lambda key: (1.0,) + (0.0,) * (size - 1)))
            elif node.kind == NodeKind.DECISION:
                swaps.append(cpt_over(d, node, lambda key: (1.0 / size,) * size))
                swaps.append(replace(cpt_over(d, node, lambda key: (1.0 / size,) * size),
                                     owner="player"))
            for new in swaps:
                got = swapped(d, [new])
                assert got == rebuilt(d, [new])
                seen["valid" if isinstance(got, Diagram) else "invalid"] += 1
    assert seen["valid"] > 100 and seen["invalid"] > 100, seen


def admitted_swap(rng, d, node):
    """A random swap of `node` that `replace_nodes` checks alone: the same
    id and domain, a subset of its parents (in any order), and its kind and
    owner, or a decision turned chance. About a third of them carry a
    broken table or an owner a chance node may not have."""
    parents = tuple(p for p in node.parents if rng.random() < 0.7)
    if rng.random() < 0.3:
        parents = parents[::-1]
    bad = rng.random() < 0.3
    kind = node.kind
    keys = [] if kind == NodeKind.UTILITY else list(
        itertools.product(*(d.nodes[p].domain.labels for p in parents)))
    if kind == NodeKind.CHANCE or (kind == NodeKind.DECISION and rng.random() < 0.6):
        size = len(node.domain)
        rows = {k: tuple(rng.dirichlet(np.ones(size))) for k in keys}
        # a decision turned chance keeps its owner, which no chance node may have
        owner = node.owner if kind == NodeKind.CHANCE or (bad and rng.random() < 0.5) else None
        if bad and owner is None:
            rows[keys[0]] = (1.0,) * size
        return Node(node.id, NodeKind.CHANCE, owner=owner, domain=node.domain,
                    parents=parents, payload=Cpt(rows))
    if kind == NodeKind.DECISION:
        return replace(node, parents=parents)
    if kind == NodeKind.DETERMINISTIC:
        rows = {k: node.domain.labels[int(rng.integers(len(node.domain)))] for k in keys}
        if bad:
            rows[keys[0]] = "no-such-label"
        return replace(node, parents=parents, payload=DetTable(rows))
    if kind == NodeKind.VALUE and node.payload.form == "table":
        rows = {k: float(rng.uniform(0, 1)) for k in keys}
        if bad:
            rows[keys[0]] = float("nan")
        return replace(node, parents=parents, payload=ValueSpec("table", rows=rows))
    if kind == NodeKind.VALUE:  # an analytic form needs its one parent
        return replace(node, parents=parents)
    weights = rng.dirichlet(np.ones(len(parents))) if parents else []
    spec = UtilitySpec({p: float(w) for p, w in zip(parents, weights)})
    return replace(node, parents=parents,
                   payload=UtilitySpec({**spec.weights, "extra": 0.5}) if bad else spec)


def test_a_swap_the_rule_admits_reports_what_a_full_validation_reports(drilling):
    # the slow oracle: `build_diagram`, which validates the merged diagram
    # in full; the swap runs the swapped nodes' own checks and no graph check
    rng = np.random.default_rng(2626)
    diagrams = [random_diagram(rng) for _ in range(40)] + [
        parse_model(wide_observer_model()), parse_model(wide_decision_model(3)),
        parse_model(attacker_only_model()), drilling]
    seen = {"valid": 0, "invalid": 0}
    for d in diagrams:
        for _ in range(15):
            ids = rng.choice(list(d.nodes), size=int(rng.integers(1, 4)), replace=False)
            new = [admitted_swap(rng, d, d.nodes[nid]) for nid in ids]
            assert all(diagram_module._breaks_only_itself(d.nodes[n.id], n) for n in new)
            with mock.patch.object(diagram_module, "_check_graph") as graph:
                got = swapped(d, new)
            assert not graph.called
            assert got == rebuilt(d, new)
            seen["valid" if isinstance(got, Diagram) else "invalid"] += 1
    assert seen["valid"] > 150 and seen["invalid"] > 150, seen


def test_a_swap_the_rule_does_not_admit_runs_every_check(drilling):
    n = drilling.nodes
    three = Domain(("riskier", "normal", "calm"))
    cases = {
        "changed domain": ([replace(n["UC"], domain=three, payload=Cpt({(): (0.2, 0.3, 0.5)}))],
                           "incomplete-table"),
        "added parent": ([cpt_over(drilling, replace(n["UC"], parents=("UH",)),
                                   lambda key: (0.5, 0.5))], "cycle"),
        "chance turned decision": ([Node("UC", NodeKind.DECISION, owner="defender",
                                         domain=n["UC"].domain)], "order-coverage"),
        "new id": ([Node("DX", NodeKind.DECISION, owner="defender", domain=n["DP"].domain)],
                   "order-coverage"),
    }
    for name, (nodes, code) in cases.items():
        assert not all(diagram_module._breaks_only_itself(n.get(x.id), x) for x in nodes), name
        got, want = swapped(drilling, nodes), rebuilt(drilling, nodes)
        assert got == want and code in {v.code for v in got}, name
