import contextlib
import gc
import itertools
import math
import time
import weakref
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from araid.diagram import Cpt, Diagram, Domain, NodeKind, ValueSpec, Node, build_diagram
from araid import inference
from araid.inference import (
    BATCH,
    EU_AGREEMENT_TOL,
    AmbiguousCellError,
    CompiledModel,
    ContractionTape,
    Factor,
    ImpossibleEvidenceError,
    constant_policy,
    decision_table,
    enumerate_expected_utility,
    enumerate_expected_value,
    enumerate_marginal,
    expected_utility,
    expected_value,
    marginal_distribution,
)

from araid.ara import (AttackForecast, ParameterUncertainty, UniformRule, _all_rules, _tally,
                       apply_forecast, attacker_view, forecast_attack, solve_defender)
from araid.drilling import build_drilling_model, default_beliefs, default_uncertainty
from araid.modelfile import try_parse_model

from conftest import (CHAIN_PRIOR, CHAIN_STEP, assert_queries_alike, assert_tapes_alike,
                      chain_model, deepest_first, executed_expected, fresh, grid_model,
                      random_diagram, random_policy, replayed, same_bits, spy_on)


def drilling_policy(d, dp="no_additional", df="no_forensic", dt="accept",
                    dr="continue", ap="perpetrate"):
    return constant_policy(d, {"DP": dp, "DF": df, "DT": dt, "DR": dr, "AP": ap})


# -- marginals ---------------------------------------------------------------

def test_casualty_chances_under_attack(drilling):
    policy = drilling_policy(drilling)
    dist = marginal_distribution(drilling, policy,
                                 {"UA": "attack", "UC": "riskier"}, "UH")
    assert dist["no_casualties"] == pytest.approx(0.96)
    assert dist["casualties"] == pytest.approx(0.04)


def test_marginal_point_mass_on_evidence(drilling):
    policy = drilling_policy(drilling)
    dist = marginal_distribution(drilling, policy, {"UA": "attack"}, "UA")
    assert dist == {"attack": 1.0, "no_attack": 0.0}
    # a decision under a constant rule is bound like evidence: a point mass,
    # not an even split over the axis its binding removed
    policy = drilling_policy(drilling, dp="additional")
    for fn in (marginal_distribution, enumerate_marginal):
        assert fn(drilling, policy, {}, "DP") == {"additional": 1.0, "no_additional": 0.0}


def test_residual_risk_marginal_matches_oracle(drilling):
    policy = drilling_policy(drilling, dt="avoid", ap="no_perpetrate")
    got = marginal_distribution(drilling, policy, {}, "URH")
    want = enumerate_marginal(drilling, policy, {}, "URH")
    assert got["no_casualties"] == pytest.approx(want["no_casualties"], abs=1e-12)
    # avoiding still leaves the ordinary-life casualty floor
    assert got["no_casualties"] == pytest.approx(0.99760095, abs=1e-8)


def test_marginals_sum_to_one(drilling):
    policy = drilling_policy(drilling)
    for target in ("UM", "UH", "URH", "UCA", "DC"):
        dist = marginal_distribution(drilling, policy, {"UC": "riskier"}, target)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_impossible_evidence_raises(drilling):
    policy = drilling_policy(drilling, ap="no_perpetrate")
    with pytest.raises(ImpossibleEvidenceError):
        marginal_distribution(drilling, policy, {"UA": "attack"}, "UH")
    for fn in (marginal_distribution, enumerate_marginal):  # a target that is evidence too
        with pytest.raises(ImpossibleEvidenceError):
            fn(drilling, policy, {"UA": "attack"}, "UA")
    with pytest.raises(ImpossibleEvidenceError):
        expected_utility(drilling, "defender", policy, {"UA": "attack"})


@pytest.mark.parametrize("extra", ["UC", "ZZ", "DU"])
def test_policy_entries_must_name_decision_nodes(drilling, extra):
    # a chance node, an unknown id and a value node: each used to be ignored
    policy = {**drilling_policy(drilling), extra: {(): "riskier"}}
    axes = ["DP", "DF", "DT", "DR", "UC", "UA"]
    with pytest.raises(ValueError, match=f"'{extra}' is not a decision node"):
        expected_utility(drilling, "defender", policy)
    with pytest.raises(ValueError, match=f"'{extra}' is not a decision node"):
        expected_value(drilling, "DCV", policy)
    with pytest.raises(ValueError, match=f"'{extra}' is not a decision node"):
        decision_table(drilling, "defender", axes, fixed={extra: {(): "riskier"}})


def test_a_partial_rule_is_refused_where_not_every_decision_needs_one(drilling):
    # a rule that skipped an observed tuple used to contribute nothing
    # there, as if that tuple had probability 0
    policy = drilling_policy(drilling, "additional", "forensic", "accept")
    policy["DR"] = {("attack",): "stop", ("no_attack",): "continue"}
    assert expected_value(drilling, "DCV", policy) == pytest.approx(0.98881, abs=1e-12)
    for fn in (expected_value, enumerate_expected_value):
        with pytest.raises(ValueError, match=r"rule for 'DR' missing observed tuple \('no_attack',\)"):
            fn(drilling, "DCV", {**policy, "DR": {("attack",): "stop"}})
        with pytest.raises(ValueError, match="rule for 'DR' picks 'wait', not in its domain"):
            fn(drilling, "DCV", {**policy, "DR": {("attack",): "wait", ("no_attack",): "stop"}})


def test_an_empty_fixed_rule_is_refused_by_a_decision_table(drilling):
    # it used to fill every cell with 0.0
    with pytest.raises(ValueError, match=r"rule for 'AP' missing observed tuple"):
        decision_table(drilling, "defender", ["DP", "DF"], fixed={"AP": {}})


ENGINE_AND_ORACLE = {
    "utility": (expected_utility, enumerate_expected_utility),
    "value": (expected_value, enumerate_expected_value),
    "marginal": (marginal_distribution, enumerate_marginal),
}


@pytest.mark.parametrize("pair, call, message", [
    ("utility", lambda f, d, p: f(d, "defender", p, {"ZZ": "x"}), "unknown node 'ZZ'"),
    ("value", lambda f, d, p: f(d, "DCV", p, {"ZZ": "x"}), "unknown node 'ZZ'"),
    ("value", lambda f, d, p: f(d, "DCV", {}), "decision '"),
    ("value", lambda f, d, p: f(d, "UC", p), "'UC' is not a value node"),
    ("marginal", lambda f, d, p: f(d, p, {"ZZ": "x"}, "UH"), "unknown node 'ZZ'"),
    ("marginal", lambda f, d, p: f(d, {}, {}, "UH"), "policy missing a rule for decision"),
    ("marginal", lambda f, d, p: f(d, p, {}, "DCV"), "'DCV' has no outcome domain"),
    ("value", lambda f, d, p: f(d, "DM", p), "unknown target node 'DM'"),
    ("value", lambda f, d, p: f(d, "DM", p, {"UC": "normal"}), "unknown target node 'DM'"),
    ("marginal", lambda f, d, p: f(d, p, {}, "ZZ"), "unknown target node 'ZZ'"),
    ("marginal", lambda f, d, p: f(d, p, {"UC": "normal"}, "ZZ"), "unknown target node 'ZZ'"),
], ids=["utility-evidence", "value-evidence", "value-empty-policy", "value-not-a-value",
        "marginal-evidence", "marginal-empty-policy", "marginal-value-node",
        "value-unknown-target", "value-unknown-target-with-evidence",
        "marginal-unknown-target", "marginal-unknown-target-with-evidence"])
def test_oracle_checks_its_inputs_as_the_engine_does(drilling, pair, call, message):
    for fn in ENGINE_AND_ORACLE[pair]:
        with pytest.raises(ValueError, match=message) as raised:
            call(fn, drilling, drilling_policy(drilling))
        assert not isinstance(raised.value, ImpossibleEvidenceError), fn.__name__


# -- expected utility --------------------------------------------------------

T12_SPOT_CELLS = [
    (("no_additional", "no_forensic", "accept", "continue"), ("normal", "no_attack"), 0.99895),
    (("additional", "forensic", "accept", "stop"), ("riskier", "attack"), 0.98675),
    (("no_additional", "no_forensic", "accept", "continue"), ("riskier", "attack"), 0.95107),
    (("additional", "forensic", "accept", "continue"), ("riskier", "attack"), 0.95092),
    (("no_additional", "no_forensic", "share", "stop"), ("riskier", "attack"), 0.98840),
    (("additional", "forensic", "share", "continue"), ("riskier", "attack"), 0.95935),
    (("no_additional", "no_forensic", "share", "continue"), ("riskier", "attack"), 0.95950),
    (("additional", "forensic", "avoid", "continue"), ("riskier", "attack"), 0.91154),
]


@pytest.mark.parametrize("decisions,event,published", T12_SPOT_CELLS)
def test_published_expected_utility_cells(drilling, decisions, event, published):
    dp, df, dt, dr = decisions
    uc, ua = event
    policy = drilling_policy(drilling, dp, df, dt, dr, ap="perpetrate")
    eu = expected_utility(drilling, "defender", policy, {"UC": uc, "UA": ua})
    assert eu == pytest.approx(published, abs=1e-5)
    oracle = enumerate_expected_utility(drilling, "defender", policy, {"UC": uc, "UA": ua})
    assert eu == pytest.approx(oracle, abs=1e-12)


def test_constant_values_give_unit_utility():
    from araid.diagram import Agent, AgentKind, Cpt, Domain, UtilitySpec
    nodes = [
        Node("x", NodeKind.CHANCE, domain=Domain(("a", "b")), payload=Cpt({(): (0.4, 0.6)})),
        Node("v0", NodeKind.VALUE, owner="player", parents=("x",),
             payload=ValueSpec("table", rows={("a",): 1.0, ("b",): 1.0})),
        Node("v1", NodeKind.VALUE, owner="player", parents=("x",),
             payload=ValueSpec("table", rows={("a",): 1.0, ("b",): 1.0})),
        Node("u0", NodeKind.UTILITY, owner="player", parents=("v0", "v1"),
             payload=UtilitySpec({"v0": 0.25, "v1": 0.75})),
    ]
    d = build_diagram([Agent("player", AgentKind.DEFENDER)], nodes)
    assert expected_utility(d, "player", {}) == pytest.approx(1.0, abs=1e-12)


def test_law_of_total_expectation(drilling):
    policy = drilling_policy(drilling)
    total = expected_utility(drilling, "defender", policy)
    mixed = 0.0
    for ua in ("attack", "no_attack"):
        p = marginal_distribution(drilling, policy, {}, "UA")[ua]
        mixed += p * expected_utility(drilling, "defender", policy, {"UA": ua})
    assert mixed == pytest.approx(total, abs=1e-12)


# -- factor tables -------------------------------------------------------------

def row_by_row(d, nid, cell, with_node):
    """The slow reference: a table filled one parent tuple at a time, each
    label placed through Domain.index. `cell(key)` is a score, or, with an
    axis for the node itself (`with_node`), a probability row or the one
    label the node takes there."""
    n = d.nodes[nid]
    parents = [d.nodes[p] for p in n.parents]
    table = np.zeros([len(p.domain) for p in parents] + ([len(n.domain)] if with_node else []))
    for key in itertools.product(*(p.domain.labels for p in parents)):
        idx = tuple(p.domain.index(lbl) for p, lbl in zip(parents, key))
        value = cell(key)
        if isinstance(value, str):
            table[idx + (n.domain.index(value),)] = 1.0
        else:
            table[idx] = value
    return table


def test_factor_tables_equal_a_row_by_row_fill(drilling):
    """Every table is filled in parent-product order in one array; it must
    equal, bit for bit, the same table filled row by row."""
    diagrams = [drilling] + [random_diagram(np.random.default_rng(seed), with_money=seed % 2 == 1)
                             for seed in range(40)]
    rules = 0
    for d in diagrams:
        m = CompiledModel.compile(d)
        for nid, f in m.prob_factors.items():
            n = d.nodes[nid]
            cell = n.payload.rows.__getitem__
            assert f.vars == n.parents + (nid,)
            assert np.array_equal(f.table, row_by_row(d, nid, cell, with_node=True)), nid
        for nid, f in m.value_factors.items():
            n = d.nodes[nid]
            domains = [d.nodes[p].domain for p in n.parents]
            cell = lambda key: n.payload.score(key, domains)
            assert f.vars == n.parents
            assert np.array_equal(f.table, row_by_row(d, nid, cell, with_node=False)), nid
        for n in d.nodes.values():
            if n.kind != NodeKind.DECISION:
                continue
            for rule in _all_rules(d, n.id):
                f = m.rule_factor(n.id, rule)
                assert f.vars == n.parents + (n.id,)
                assert np.array_equal(f.table, row_by_row(d, n.id, rule.__getitem__, True))
                rules += 1
    assert rules > 500, rules


# -- oracle equivalence on random diagrams ------------------------------------

def test_elimination_matches_enumeration_on_random_diagrams():
    rng = np.random.default_rng(2024)
    checked_evidence = impossible = 0
    for _ in range(60):
        d = random_diagram(rng)
        policy = random_policy(rng, d)
        fast = expected_utility(d, "player", policy)
        slow = enumerate_expected_utility(d, "player", policy)
        assert fast == pytest.approx(slow, abs=1e-12)

        # a random CPT row has no zero, but a deterministic node misses
        # labels, so some evidence is impossible
        ev_ids = [n.id for n in d.nodes.values()
                  if n.kind in (NodeKind.CHANCE, NodeKind.DETERMINISTIC)]
        ev_node = ev_ids[int(rng.integers(0, len(ev_ids)))]
        labels = d.nodes[ev_node].domain.labels
        label = labels[int(rng.integers(0, len(labels)))]
        try:
            slow_ev = enumerate_expected_utility(d, "player", policy, {ev_node: label})
        except ImpossibleEvidenceError:
            with pytest.raises(ImpossibleEvidenceError):
                expected_utility(d, "player", policy, {ev_node: label})
            impossible += 1
            continue
        fast_ev = expected_utility(d, "player", policy, {ev_node: label})
        assert fast_ev == pytest.approx(slow_ev, abs=1e-12)
        checked_evidence += 1
    assert checked_evidence > 20 and impossible > 0, (checked_evidence, impossible)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_evidence=st.integers(0, 2))
def test_pruned_tapes_match_enumeration_on_random_diagrams(seed, n_evidence):
    """Each tape contracts only its targets' ancestors; with and without
    evidence, expected utility and every decision-table cell still match
    the oracle. Bits may differ from an unpruned contraction, since a
    random CPT row sums to 1 only within rounding."""
    rng = np.random.default_rng(seed)
    d = random_diagram(rng)
    policy = random_policy(rng, d)
    conditions = [n.id for n in d.nodes.values()
                  if n.kind in (NodeKind.CHANCE, NodeKind.DETERMINISTIC)]
    picked = rng.choice(len(conditions), size=min(n_evidence, len(conditions)), replace=False)
    evidence = {conditions[i]: d.nodes[conditions[i]].domain.labels[
        int(rng.integers(0, len(d.nodes[conditions[i]].domain)))] for i in picked}
    try:
        slow = enumerate_expected_utility(d, "player", policy, evidence)
    except ImpossibleEvidenceError:
        with pytest.raises(ImpossibleEvidenceError):
            expected_utility(d, "player", policy, evidence)
    else:
        assert expected_utility(d, "player", policy, evidence) == pytest.approx(slow, abs=1e-12)

    # a table over the decisions, and over the decisions and one condition,
    # which each cell conditions on
    decisions = [n.id for n in d.nodes.values() if n.kind == NodeKind.DECISION]
    for axes in (decisions, decisions + conditions[-1:]):
        oracle = {}
        try:
            for key in itertools.product(*(d.nodes[a].domain.labels for a in axes)):
                cell = dict(zip(axes, key))
                oracle[key] = enumerate_expected_utility(
                    d, "player", constant_policy(d, {a: cell[a] for a in decisions}),
                    {a: cell[a] for a in axes if a not in decisions})
        except ImpossibleEvidenceError:
            with pytest.raises(ImpossibleEvidenceError):
                decision_table(d, "player", axes)
            continue
        table = decision_table(d, "player", axes)
        for key, value in oracle.items():
            assert table.cells[key] == pytest.approx(value, abs=1e-12)


def test_marginal_matches_enumeration_on_random_diagrams():
    """Every node with a domain as the target (chance, deterministic and
    decision, so also one bound by a constant rule), with no evidence and
    with evidence on a chance or deterministic node (sometimes the target
    itself; a deterministic output can be impossible)."""
    rng = np.random.default_rng(98)
    compared = impossible = 0
    for _ in range(40):
        d = random_diagram(rng)
        policy = random_policy(rng, d)
        conditions = [n.id for n in d.nodes.values()
                      if n.kind in (NodeKind.CHANCE, NodeKind.DETERMINISTIC)]
        ev_node = conditions[int(rng.integers(0, len(conditions)))]
        ev_label = d.nodes[ev_node].domain.labels[
            int(rng.integers(0, len(d.nodes[ev_node].domain)))]
        for target in (n.id for n in d.nodes.values() if n.domain is not None):
            for evidence in ({}, {ev_node: ev_label}):
                try:
                    slow = enumerate_marginal(d, policy, evidence, target)
                except ImpossibleEvidenceError:
                    with pytest.raises(ImpossibleEvidenceError):
                        marginal_distribution(d, policy, evidence, target)
                    impossible += 1
                    continue
                fast = marginal_distribution(d, policy, evidence, target)
                assert fast.keys() == slow.keys()
                for lbl in fast:
                    assert fast[lbl] == pytest.approx(slow[lbl], abs=1e-12)
                compared += 1
    assert compared > 300 and impossible > 5


def batch_case(rng, d, m, kind):
    """A batch of R rows for one decision's rule or one or two chance nodes.

    Returns the batched nodes, the full random policy, the batched tables
    [R, *family] (batch-first, contiguous), each node's compiled table
    (rows equal to it are planted) and `alone(i)`: the model and policy
    that give row i with no batch at all.
    """
    policy = random_policy(rng, d)
    rows = int(rng.integers(2, 7))
    if kind == "decision":
        decisions = [n.id for n in d.nodes.values() if n.kind == NodeKind.DECISION]
        dec = decisions[int(rng.integers(0, len(decisions)))]
        rules = [policy[dec]] + [random_policy(rng, d)[dec] for _ in range(rows - 1)]
        batch = {dec: np.stack([m.rule_factor(dec, rule).table for rule in rules])}
        return [dec], policy, batch, {dec: batch[dec][0].copy()}, \
            lambda i: (m, {**policy, dec: rules[i]})
    chance = [n.id for n in d.nodes.values() if n.kind == NodeKind.CHANCE]
    picked = [chance[i] for i in rng.choice(len(chance), size=int(rng.integers(1, 3)),
                                            replace=False)]
    batch, compiled = {}, {}
    for nid in picked:
        stated = m.prob_factors[nid].table
        draws = rng.dirichlet(np.ones(stated.shape[-1]), size=(rows,) + stated.shape[:-1])
        draws[0] = stated  # every batched node at its compiled table
        if nid == picked[0]:
            draws[-1] = stated  # the first node alone at its compiled table
        batch[nid], compiled[nid] = draws, stated

    def alone(i):
        rows = {nid: Factor(m.prob_factors[nid].vars, batch[nid][i]) for nid in picked}
        return replace(m, prob_factors={**m.prob_factors, **rows}), policy
    return picked, policy, batch, compiled, alone


def test_batched_query_matches_row_by_row_and_unbatched_on_random_diagrams():
    """Each batch row of a query, in both memory layouts, against the same
    query on that row alone (a one-row batch), against a query that plans
    the row's table with no batch, and, where the row is the compiled
    table, against the unbatched query.

    This covers the batch-innermost layout and the steps run once at
    planning on diagrams that the drilling model does not reach.
    """
    rng = np.random.default_rng(515)
    seen = {"chance": 0, "decision": 0, "stated": 0, "conditioned": 0}
    for _ in range(60):
        d = random_diagram(rng)
        m = CompiledModel.compile(d)
        kind = "decision" if rng.integers(0, 2) else "chance"
        batched, policy, batch, compiled, alone = batch_case(rng, d, m, kind)
        # no axis, a random chance or deterministic axis, or the deterministic
        # node, whose labels that no parent state produces are impossible cells
        conditions = [n.id for n in d.nodes.values()
                      if n.kind in (NodeKind.CHANCE, NodeKind.DETERMINISTIC)]
        keep = [[], [conditions[int(rng.integers(0, len(conditions)))]],
                [c for c in conditions if c == "t0"]][int(rng.integers(0, 3))]
        rest = {k: v for k, v in policy.items() if k not in batched}
        query = m.utility_query("player", rest, {}, keep, batched=batched)
        # a decision under a constant rule is bound, so it leaves the family
        # of a batched decision that observes it
        for nid in batched:
            for v in reversed(d.nodes[nid].parents):
                if v in query.reductions:
                    axis = d.nodes[nid].parents.index(v)
                    at = d.nodes[v].domain.index(query.reductions[v])
                    batch[nid] = np.take(batch[nid], at, axis=1 + axis)
                    compiled[nid] = np.take(compiled[nid], at, axis=axis)
        plain_eu, plain_possible = m.utility_query("player", policy, {}, keep).expected()
        n = len(next(iter(batch.values())))
        innermost = {nid: np.moveaxis(np.ascontiguousarray(np.moveaxis(t, 0, -1)), -1, 0)
                     for nid, t in batch.items()}
        assert all(t.strides[0] == t.itemsize for t in innermost.values())
        singles = [row_m.utility_query("player", row_policy, {}, keep).expected()
                   for row_m, row_policy in map(alone, range(n))]
        for tables in (batch, innermost):
            # a batch that no contraction reaches comes back with extent 1
            eu, possible = (np.broadcast_to(a, (n,) + plain_possible.shape)
                            for a in query.expected(tables))
            for i in range(n):
                one_eu, one_possible = query.expected({k: t[i:i + 1] for k, t in tables.items()})
                single_eu, single_possible = singles[i]
                assert np.array_equal(possible[i], one_possible[0])
                assert np.array_equal(possible[i], single_possible)
                assert np.array_equal(possible[i], plain_possible)
                mask = possible[i]
                assert eu[i][mask] == pytest.approx(one_eu[0][mask], abs=1e-12)
                assert eu[i][mask] == pytest.approx(single_eu[mask], abs=1e-12)
                if all(np.array_equal(tables[k][i], compiled[k]) for k in tables):
                    assert eu[i][mask] == pytest.approx(plain_eu[mask], abs=1e-12)
                    seen["stated"] += 1
        seen[kind] += 1
        seen["conditioned"] += bool(keep) and not plain_possible.all()
    assert seen["chance"] > 20 and seen["decision"] > 20
    assert seen["stated"] > 120 and seen["conditioned"] > 2, seen


def test_a_planned_result_gives_the_bits_of_executing_every_tape_on_random_diagrams():
    """With no batched table every tape is planned whole and not executed;
    where Z is then exactly 1 it is not divided by either. Each query must
    give the bits and mask of executing every tape and dividing by the
    executed Z: with no evidence, keeping the free decisions, a policy's
    cell, or a condition, which Z is its marginal over; and with evidence,
    which still divides and raises where it is impossible."""
    rng = np.random.default_rng(1717)
    seen = {"unit": 0, "divided": 0, "impossible": 0}
    for _ in range(60):
        d = random_diagram(rng)
        m = CompiledModel.compile(d)
        policy = random_policy(rng, d)
        decisions = [n.id for n in d.nodes.values() if n.kind == NodeKind.DECISION]
        conditions = [n.id for n in d.nodes.values()
                      if n.kind in (NodeKind.CHANCE, NodeKind.DETERMINISTIC)]
        last = conditions[-1]
        evidence = {last: d.nodes[last].domain.labels[int(rng.integers(0, len(d.nodes[last].domain)))]}
        for rules, given, keep in (({}, {}, decisions), (policy, {}, []),
                                   ({}, {}, decisions + [last]), (policy, {}, [last]),
                                   (policy, evidence, [])):
            query = m.utility_query("player", rules, given, keep)
            assert query.norm_tape.result is not None
            assert all(tape.result is not None for tape in query.value_tapes.values())
            eu, possible = query.expected()
            slow_eu, slow_possible = executed_expected(query)
            assert same_bits(eu, slow_eu) and np.array_equal(possible, slow_possible)
            if possible.all():
                assert same_bits(query.evaluate(), slow_eu)
            else:
                with pytest.raises(ImpossibleEvidenceError):
                    query.evaluate()
            seen["unit"] += query.unit_norm
            seen["divided"] += not query.unit_norm
            seen["impossible"] += not possible.all()
    assert seen["unit"] > 100 and seen["divided"] > 50 and seen["impossible"] > 2, seen


def test_tape_runs_a_final_relabel_as_a_view_and_reads_its_row_cost():
    # eliminating b leaves [a, c, batch]; putting it in keep order is a pure
    # relabel of that output slot, which must not run as an einsum
    sizes = {"a": 2, "b": 3, "c": 5}
    tape = ContractionTape([("a", "b"), (BATCH, "b", "c")], [BATCH, "a", "c"], {}, sizes)
    assert len(tape.steps) == 1 and (tape.out_slot, tape.out_axes) == (2, (2, 0, 1))
    # per batch row, the batched input holds b*c = 15 cells and the
    # intermediate a*c = 10; the unbatched [a, b] operand does not count
    assert tape.row_cells == 15
    rng = np.random.default_rng(4)
    x, y = rng.random((2, 3)), rng.random((7, 3, 5))
    out = tape.execute([x, y])
    assert out.shape == (7, 2, 5) and not out.flags.owndata
    # bit for bit what running the relabel as an einsum step gives
    spec, _ = tape.steps[0]
    inner = spec.split("->")[1]
    relabel = inner + "->" + "".join(inner[i] for i in tape.out_axes)
    assert np.array_equal(out, np.einsum(relabel, np.einsum(spec, x, y)))
    assert np.allclose(out, np.einsum("ab,zbc->zac", x, y), rtol=1e-15, atol=0)

    # with no batch axis the whole execution is one row: every operand counts
    whole = ContractionTape([("a", "b"), ("b", "c")], ["c", "a"], {}, sizes)
    assert whole.row_cells == 15 and len(whole.steps) == 1 and whole.out_axes == (1, 0)
    # a relabel of the only input leaves no step: the result views the input
    alone = ContractionTape([("a", "c")], ["c", "a"], {}, sizes)
    assert alone.steps == [] and alone.row_cells == 10
    z = rng.random((2, 5))
    assert np.shares_memory(alone.execute([z]), z)
    assert np.array_equal(alone.execute([z]), z.T)


def sampled_child_queries(rng: np.random.Generator, count: int, wide: bool = False):
    """`count` random diagrams with a chance or value child of a deterministic
    node, picked at random. Yields the compiled model, that child, the
    weights of the value nodes to score, a `plan()` of the query that
    batches the child, and `tables(rows)`, which draws a [rows, *family]
    table of the child in both memory layouts (batch axis at stride 1, and
    C-ordered).

    With `wide`, the deterministic node t0 has a parent, which the query
    keeps, so t0's table stays an input over more than t0. A chance child
    s0 of t0 is added too, kept when it is the child: its factor sorts
    before t0's, where a value child's comes after."""
    found = 0
    while found < count:
        d = random_diagram(rng)
        if wide:
            if "t0" not in d.nodes or not d.nodes["t0"].parents:
                continue
            s0 = Node("s0", NodeKind.CHANCE, domain=Domain(("a", "b")), parents=("t0",),
                      payload=Cpt({(label,): tuple(rng.dirichlet(np.ones(2)))
                                   for label in d.nodes["t0"].domain.labels}))
            d = build_diagram(d.agents, [*d.nodes.values(), s0], d.decision_order)
        children = [n for n in d.nodes.values() if "t0" in n.parents
                    and n.kind in (NodeKind.CHANCE, NodeKind.VALUE)]
        if not children:
            continue
        found += 1
        m = CompiledModel.compile(d)
        keep = [n.id for n in d.nodes.values() if n.kind == NodeKind.DECISION]
        child = children[int(rng.integers(len(children)))]
        if wide:
            keep += [*d.nodes["t0"].parents, *[child.id] * (child.kind == NodeKind.CHANCE)]
        weights = {v: 1.0 for v in d.utility_node_of("player").payload.weights}
        if child.kind == NodeKind.VALUE:
            weights = {child.id: 1.0}
            family = m.value_factors[child.id].vars
        else:
            family = m.prob_factors[child.id].vars

        def plan(m=m, keep=keep, weights=weights, child=child):
            return m.utility_query("player", {}, {}, keep, weights=weights,
                                   batched={child.id})

        def tables(rows, shape=[m.sizes[v] for v in family], child=child):
            table = rng.random(shape + [rows])
            if child.kind == NodeKind.CHANCE:  # rows over the child's own axis sum to 1
                table /= table.sum(axis=-2, keepdims=True)
            return np.moveaxis(table, -1, 0), np.moveaxis(table, -1, 0).copy()
        yield m, child, weights, plan, tables


def test_a_gathered_step_gives_the_bits_of_its_einsum_on_random_diagrams():
    """Batch a child or value node of a deterministic node: a step that
    eliminates the deterministic node against its 0/1 table and the
    batched table alone runs as a gather. Every tape, in both memory
    layouts and at one and several batch rows, must give the bits of
    running each of its steps as an einsum."""
    seen = {"gathers": 0, "einsums": 0}
    for m, child, weights, plan, tables in sampled_child_queries(np.random.default_rng(1818), 150):
        query = plan()
        for rows in (1, 6):
            for batch_inner, layout in zip((True, False), tables(rows)):
                tapes = [(query.norm_tape, query.norm_inputs),
                         *((query.value_tapes[v], query.value_inputs[v]) for v in weights)]
                for tape, inputs in tapes:
                    if tape.result is not None:
                        continue
                    tables_in = [layout for _ in inputs] + tape.constants
                    takes, spy = spy_on(np, "take")
                    with spy:
                        got = tape.execute(tables_in)
                    assert same_bits(got, replayed(tape, tables_in))
                    if batch_inner:  # the forecast's layout: every planned take runs
                        assert len(takes) == sum(g is not None for g in tape.gathers)
                    seen["gathers"] += len(takes)
                    seen["einsums"] += sum(g is None for g in tape.gathers)
    assert seen["gathers"] > 25 and seen["einsums"] > 100, seen


def test_a_take_over_a_wider_fixed_input_gives_the_bits_of_its_einsum_on_random_diagrams():
    """With t0's parents kept, t0's table stays an input over them and t0,
    one-hot along t0, and a step that eliminates t0 against it and the
    batched table alone is planned as a take along the parents' axes. A
    value child's table reads it first, s0's second. On the forecast's own
    layout, batch innermost, every tape must give the bits of its einsums
    and every planned take must run: the walk prices each as one copy of
    its output."""
    seen = {"first": 0, "second": 0, "planned": 0}
    for m, child, weights, plan, tables in sampled_child_queries(
            np.random.default_rng(1919), 250, wide=True):
        query = plan()
        layout, _ = tables(6)
        for tape, inputs in [(query.norm_tape, query.norm_inputs),
                             *((query.value_tapes[v], query.value_inputs[v]) for v in weights)]:
            if tape.result is not None:
                continue
            picks = []
            for (spec, operands), gather in zip(tape.steps, tape.gathers):
                if gather is None or gather[0] >= len(inputs):
                    continue
                fixed = 1 - operands.index(gather[0])
                if len(spec.split("->")[0].split(",")[fixed]) > 1:
                    seen["first" if fixed == 0 else "second"] += 1
                    picks.append(gather[3])
            tables_in = [layout for _ in inputs] + tape.constants
            takes, spy = spy_on(np, "take")
            with spy:
                got = tape.execute(tables_in)
            assert same_bits(got, replayed(tape, tables_in))
            assert all(any(index is args[1] for args in takes) for index in picks)
            assert len(takes) == sum(g is not None for g in tape.gathers)
            seen["planned"] += len(takes)
    assert seen["first"] > 25 and seen["second"] > 200 and seen["planned"] > 500, seen


def test_a_cost_ordered_tape_matches_its_deepest_first_tape_on_random_diagrams():
    """The same queries, which batch sampled tables and so are ordered by
    per-row cost: in both memory layouts and at one and several batch
    rows, each must give the deepest-first query's result within 1e-12
    relative and the same tallies, and no tape may cost more per row."""
    reordered = 0
    for m, child, weights, plan, tables in sampled_child_queries(np.random.default_rng(2121), 80):
        fast, slow = plan(), deepest_first(plan)
        lcm = math.lcm(*range(1, fast.shape[-1] + 1))
        for rows in (1, 6):
            for layout in tables(rows):
                got, want = fast.evaluate({child.id: layout}), slow.evaluate({child.id: layout})
                assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
                assert np.array_equal(_tally(got, lcm, 0), _tally(want, lcm, 0))
        for tape, other in [(fast.norm_tape, slow.norm_tape),
                            *((fast.value_tapes[v], slow.value_tapes[v]) for v in weights)]:
            assert tape.row_ops <= other.row_ops
            reordered += tape.steps != other.steps
    assert reordered >= 40


def test_a_greedy_walk_that_ties_deepest_first_keeps_deepest_first():
    # deepest-first eliminates a (9 per row), b (fixed tables only: 0) and
    # c (3); greedy takes b first, then a and c: 12 per row either way. Only
    # a strictly cheaper greedy walk replaces deepest-first
    var_lists = [(BATCH, "a", "c"), ("c", "b"), ("b",)]
    sizes = {"a": 3, "b": 2, "c": 3}
    fixed = {1: np.full((3, 2), 0.25), 2: np.array([0.5, 2.0])}
    walk = inference._Elimination(var_lists, [BATCH], fixed, sizes)
    deepest, greedy = walk(["a", "b", "c"]), walk(["a", "b", "c"], greedy=True)
    assert deepest[0] == greedy[0] == 12
    assert [s[0] for s in deepest[1]] == ["a", "b", "c"]
    assert [s[0] for s in greedy[1]] == ["b", "a", "c"]
    priority = {"a": (-2,), "b": (-1,), "c": (0,)}
    tape = ContractionTape(var_lists, [BATCH], priority, sizes, fixed, by_row_cost=True)
    plain = ContractionTape(var_lists, [BATCH], priority, sizes, fixed)
    assert tape.row_ops == plain.row_ops == 12 and tape.steps == plain.steps
    x = np.random.default_rng(4).random((5, 3, 3))
    assert same_bits(tape.execute([x] + tape.constants), plain.execute([x] + plain.constants))


def test_a_gathered_step_differs_from_its_einsum_only_at_a_signed_zero_or_an_unpicked_inf():
    # b is a deterministic function of a; eliminating b against [batch, b]
    # takes each row's entry at pick[a]
    pick = np.array([2, 0, 3])
    tape = ContractionTape([("a", "b"), (BATCH, "b")], [BATCH, "a"], {}, {"a": 3, "b": 4},
                           fixed={0: np.eye(4)[pick]})
    assert [g is not None for g in tape.gathers] == [True] and tape.out_axes == (1, 0)
    x = np.random.default_rng(3).random((4, 5)).T  # [batch, b], batch at stride 1
    tables = [x] + tape.constants
    assert same_bits(tape.execute(tables), replayed(tape, tables))
    assert same_bits(tape.execute(tables), x[:, pick])
    # a picked -0.0 keeps its sign, where the einsum's sum of products is +0.0
    x[1, 0] = -0.0
    got, summed = tape.execute(tables), replayed(tape, tables)
    assert np.signbit(got[1, 1]) and not np.signbit(summed[1, 1])
    assert same_bits(np.delete(got, 1, axis=0), np.delete(summed, 1, axis=0))
    # an inf that no a picks (b = 1) is not multiplied by 0: no NaN
    x[1, 0] = 0.5
    x[3, 1] = np.inf
    with np.errstate(invalid="ignore"):
        got, summed = tape.execute(tables), replayed(tape, tables)
    assert np.isnan(summed[3]).all() and same_bits(got[3], x[3, pick])
    assert same_bits(np.delete(got, 3, axis=0), np.delete(summed, 3, axis=0))
    # batch first in memory, the step stays an einsum: a take would not
    # leave the einsum's layout. One batch row, batch innermost, takes
    for other, takes in ((np.ascontiguousarray(x), 0), (x[:1], 1)):
        calls, spy = spy_on(np, "take")
        with np.errstate(invalid="ignore"), spy:
            assert same_bits(tape.execute([other] + tape.constants),
                             replayed(tape, [other] + tape.constants))
        assert len(calls) == takes


@pytest.mark.parametrize("var_lists, fixed, takes", [
    ([(BATCH, "c", "b"), ("a", "b")], 1, 1),  # the take reads c, b, batch; a comes in b's place
    ([("a", "b"), (BATCH, "c", "b")], 0, 1),  # the same take, the fixed operand first
])
def test_a_gathered_step_reads_the_varying_operand_in_either_place(var_lists, fixed, takes):
    # the fixed operand may come first or second in the step; the take reads
    # the other, and runs where that operand is laid out in the take's order
    tape = ContractionTape(var_lists, [BATCH, "c", "a"], {}, {"a": 3, "b": 4, "c": 2},
                           fixed={fixed: np.eye(4)[[2, 0, 3]]})
    assert tape.gathers[0] is not None and tape.gathers[0][0] == 0
    x = np.moveaxis(np.random.default_rng(4).random((2, 4, 5)), -1, 0)  # [batch, c, b]
    tables = [x] + tape.constants
    calls, spy = spy_on(np, "take")
    with spy:
        got = tape.execute(tables)
    assert len(calls) == takes and same_bits(got, replayed(tape, tables))
    assert same_bits(got, x[:, :, [2, 0, 3]])


@pytest.mark.parametrize("sizes", [{"a": 1, "b": 4, "c": 2}, {"a": 3, "b": 1, "c": 2},
                                   {"a": 3, "b": 4, "c": 1}])
@pytest.mark.parametrize("rows", [1, 5])
def test_a_take_over_a_variable_of_one_label_or_one_batch_row_gives_its_einsums_bits(sizes, rows):
    # an axis of one entry has any stride; in either layout the step must
    # give its einsum's bits, and batch innermost it runs as the take
    pick = np.random.default_rng(7).integers(sizes["b"], size=sizes["a"])
    tape = ContractionTape([("a", "b"), (BATCH, "c", "b")], [BATCH, "c", "a"], {}, sizes,
                           fixed={0: np.eye(sizes["b"])[pick]})
    x = np.random.default_rng(8).random((sizes["c"], sizes["b"], rows))
    for inner, layout in ((True, np.moveaxis(x, -1, 0)),
                          (False, np.ascontiguousarray(np.moveaxis(x, -1, 0)))):
        tables = [layout] + tape.constants
        calls, spy = spy_on(np, "take")
        with spy:
            got = tape.execute(tables)
        assert same_bits(got, replayed(tape, tables)) and same_bits(got, layout[:, :, pick])
        if inner:
            assert len(calls) == sum(g is not None for g in tape.gathers) == 1


@pytest.mark.parametrize("fixed, var_lists, reason", [
    (np.eye(4)[[2, 0, 3]] * 0.5, [("a", "b"), (BATCH, "b")], "not 0/1"),
    (np.array([[1.0, 1.0, 0.0, 0.0]] * 3), [("a", "b"), (BATCH, "b")], "two 1s in a row"),
    (np.eye(4)[[2, 0, 3]], [("a", "b"), (BATCH, "a", "b")], "the other operand has a"),
    (np.eye(4)[[2, 0, 3]][None], [(BATCH, "a", "b"), ("b",)], "the fixed input has the batch"),
    # one-hot along b at every (a, a) pair, the einsum's diagonal or not
    (np.eye(4)[[[2, 1, 1], [1, 0, 1], [1, 1, 3]]].transpose(0, 2, 1),
     [("a", "b", "a"), (BATCH, "b")], "the fixed input repeats a"),
    (np.eye(4)[[2, 0, 3]], [("a", "b"), (BATCH, "b", "b")], "the other operand repeats b"),
])
def test_a_step_the_gather_does_not_cover_stays_an_einsum(fixed, var_lists, reason):
    tape = ContractionTape(var_lists, [BATCH, "a"], {}, {"a": 3, "b": 4}, fixed={0: fixed})
    assert tape.gathers == [None], reason
    x = np.random.default_rng(5).random([{BATCH: 5, "a": 3, "b": 4}[v] for v in var_lists[1]])
    tables = [x] + tape.constants
    assert same_bits(tape.execute(tables), replayed(tape, tables))


def test_a_tape_wider_than_the_einsum_alphabet_is_contracted():
    # 60 variables on one tape, at most 3 at once: letters are reused
    d, diags = try_parse_model(chain_model(60))
    assert diags == []
    exact = (np.array(CHAIN_PRIOR) @ np.linalg.matrix_power(np.array(CHAIN_STEP), 59))[1]
    assert abs(expected_utility(d, "def", {}) - exact) <= 1e-12
    # a step over more variables than einsum has letters is refused by count
    wide = tuple(f"v{i}" for i in range(53))
    with pytest.raises(ValueError, match="a contraction needs 53 einsum letters at once"):
        ContractionTape([wide, wide[:1]], wide, {}, dict.fromkeys(wide, 2))
    # a single factor kept whole takes no step: the result views its input
    alone = ContractionTape([wide], wide, {}, dict.fromkeys(wide, 1))
    x = np.random.default_rng(6).random([1] * 53)
    assert alone.steps == [] and np.shares_memory(alone.execute([x]), x)
    assert np.array_equal(alone.execute([x]), x)


def test_a_contraction_step_over_the_cell_budget_is_refused_before_any_step_runs():
    # the 20 x 20 grid's plan reaches 2**23 cells at its first step over the
    # budget and 2**30 at its largest. No einsum may run before the refusal:
    # one that did would fail here instead of allocating gigabytes
    d, diags = try_parse_model(grid_model(20))
    assert diags == []
    started = time.perf_counter()
    with mock.patch.object(inference.np, "einsum", side_effect=AssertionError("an einsum ran")), \
            pytest.raises(ValueError, match=r"^a contraction step over 23 variables \(g8_8, "
                          r"g9_7, .*\) needs 8,388,608 cells, more than "
                          r"MAX_STEP_CELLS = 4,194,304$"):
        expected_utility(d, "def", {})
    assert time.perf_counter() - started < 1.0
    # 2**14 cells at k = 12 are within it; at k = 4 the engine is the oracle's
    d, _ = try_parse_model(grid_model(12))
    assert 0.0 < expected_utility(d, "def", {}) < 1.0
    d, _ = try_parse_model(grid_model(4))
    assert expected_utility(d, "def", {}) == pytest.approx(
        enumerate_expected_utility(d, "def", {}), rel=1e-12, abs=0)


def test_a_query_frees_each_intermediate_after_its_one_read():
    # every factor of an elimination is read by one step, so a planned
    # query holds a few steps' operands and outputs at once, not every
    # step's: on the 15 x 15 grid the peak stays under 3 times the largest
    # step (8 MiB), where a tape that kept every intermediate peaks at
    # about 95 MiB
    d, _ = try_parse_model(grid_model(15))
    einsum, sizes = np.einsum, []

    def spy(*args):
        out = einsum(*args)
        sizes.append(out.nbytes)
        return out
    with mock.patch.object(inference.np, "einsum", spy):
        want = expected_utility(d, "def", {})
    largest = max(sizes)
    assert largest == 8 * 2**20  # 2**20 cells
    tracemalloc.start()
    try:
        assert expected_utility(d, "def", {}) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * largest, f"{peak / 2**20:.1f} MiB"


def test_the_cell_budget_bounds_a_batched_step_per_row():
    sizes = {"a": 2, "b": 3, "c": 4}
    with mock.patch.object(inference, "MAX_STEP_CELLS", 8):
        # 8 cells per row, whatever the rows: within
        tape = ContractionTape([(BATCH, "a", "b"), ("b", "c")], [BATCH, "a", "c"], {}, sizes)
        x, y = np.ones((1000, 2, 3)), np.ones((3, 4))
        assert np.array_equal(tape.execute([x, y]), np.full((1000, 2, 4), 3.0))
        with pytest.raises(ValueError, match=r"^a contraction step over 3 variables \(a, c, b\) "
                                             r"needs 24 cells per batch row, more than "
                                             r"MAX_STEP_CELLS = 8$"):
            ContractionTape([(BATCH, "a", "b"), ("b", "c"), ("c", "b")], [BATCH, "a", "c", "b"],
                            {}, sizes)
        # a step without the batch axis counts whole, fixed or not
        with pytest.raises(ValueError, match=r"over 2 variables \(b, c\) needs 12 cells, more"):
            ContractionTape([("a", "b"), ("a", "c")], ["b", "c"], {}, sizes)


# -- decision tables -----------------------------------------------------------

def test_decision_table_matches_enumeration_on_random_diagrams():
    """Every cell against the oracle, with and without a fixed rule.

    Axes are the decisions plus one chance or deterministic node; a
    deterministic axis has labels its parents never produce, so some tables
    have impossible cells and must raise. The fixed decision carries a
    non-constant rule, which the query keeps as a 0/1 rule factor.
    """
    rng = np.random.default_rng(404)
    compared = impossible = with_rule = 0
    for _ in range(80):
        d = random_diagram(rng)
        decisions = [n.id for n in d.nodes.values() if n.kind == NodeKind.DECISION]
        conditions = [n.id for n in d.nodes.values()
                      if n.kind in (NodeKind.CHANCE, NodeKind.DETERMINISTIC)]
        condition = conditions[int(rng.integers(0, len(conditions)))]
        policy = random_policy(rng, d)
        ruled = [dec for dec in decisions if len(set(policy[dec].values())) > 1]
        runs = [({}, decisions)]
        if ruled:
            runs.append(({ruled[0]: policy[ruled[0]]}, [x for x in decisions if x != ruled[0]]))
            with_rule += 1
        for fixed, pinned in runs:
            axes = pinned + [condition]
            labels = [d.nodes[a].domain.labels for a in axes]
            oracle = {}
            try:
                for key in itertools.product(*labels):
                    cell_policy = {**fixed, **constant_policy(d, dict(zip(pinned, key)))}
                    oracle[key] = enumerate_expected_utility(
                        d, "player", cell_policy, {condition: key[-1]})
            except ImpossibleEvidenceError:
                with pytest.raises(ImpossibleEvidenceError):
                    decision_table(d, "player", axes, fixed=fixed)
                impossible += 1
                continue
            table = decision_table(d, "player", axes, fixed=fixed)
            assert table.cells.keys() == oracle.keys()
            for key, value in oracle.items():
                assert table.cells[key] == pytest.approx(value, abs=1e-12)
            compared += 1
    assert compared > 90 and impossible > 8 and with_rule > 30


def test_defender_table_has_96_cells_and_correct_argmax(drilling):
    table = decision_table(drilling, "defender", ["DP", "DF", "DT", "DR", "UC", "UA"])
    assert len(table.cells) == 96
    best = {key[-2:]: key[:4] for key in table.argmax}
    assert best[("riskier", "attack")] == ("no_additional", "no_forensic", "share", "stop")
    assert best[("normal", "attack")] == ("no_additional", "no_forensic", "share", "stop")
    assert best[("riskier", "no_attack")] == ("no_additional", "no_forensic", "accept", "continue")
    assert best[("normal", "no_attack")] == ("no_additional", "no_forensic", "accept", "continue")


def loop_cell_values(eu, possible, axes, keys, unfixed):
    """The per-cell loop that `_cell_values` replaced, kept as its oracle."""
    lead = possible.shape[:-1]
    values = np.empty(lead)
    for key, idx in zip(keys, np.ndindex(*lead)):
        candidates = eu[idx][possible[idx]]
        if not candidates.size:
            raise ImpossibleEvidenceError(
                f"impossible evidence: table cell {dict(zip(axes, key))!r} has zero "
                f"probability under every completion")
        if candidates.max() - candidates.min() > EU_AGREEMENT_TOL:
            raise AmbiguousCellError(
                f"cell {dict(zip(axes, key))!r} depends on unfixed opponent decision(s) "
                f"{unfixed}; fix them explicitly")
        values[idx] = candidates[0]
    return values


def assert_fills_agree(*args):
    """`_cell_values` and the loop give the same bits, or the same error."""
    def outcome(fill):
        try:
            with np.errstate(invalid="ignore"):  # inf - inf spreads
                return fill(*args)
        except (ImpossibleEvidenceError, AmbiguousCellError) as exc:
            return type(exc), str(exc)
    fast, slow = outcome(inference._cell_values), outcome(loop_cell_values)
    assert type(fast) is type(slow)
    assert fast == slow if isinstance(slow, tuple) else same_bits(fast, slow)
    return slow


def test_the_table_fill_agrees_with_the_per_cell_loop_on_the_shipped_tables(drilling):
    calls, spy = spy_on(inference, "_cell_values")
    with spy:
        decision_table(drilling, "defender", ["DP", "DF", "DT", "DR", "UC", "UA"])
        decision_table(drilling, "attacker", ["AP", "UC", "DP", "DF"],
                       fixed=constant_policy(drilling, {"DT": "accept", "DR": "continue"}))
    assert [args[0].shape for args in calls] == [(2, 2, 3, 2, 2, 2, 2), (2, 2, 2, 2, 1)]
    for args in calls:
        assert_fills_agree(*args)


def test_the_table_fill_agrees_with_the_per_cell_loop_on_random_diagrams():
    # a decision left off the axes is an unfilled one, so cells have several
    # fillings, and some disagree
    rng = np.random.default_rng(1904)
    errors = []
    calls, spy = spy_on(inference, "_cell_values")
    with spy:
        for _ in range(60):
            d = random_diagram(rng)
            decisions = [n.id for n in d.nodes.values() if n.kind == NodeKind.DECISION]
            conditions = [n.id for n in d.nodes.values()
                          if n.kind in (NodeKind.CHANCE, NodeKind.DETERMINISTIC)]
            axes = decisions[:int(rng.integers(0, len(decisions) + 1))]
            axes.append(conditions[int(rng.integers(0, len(conditions)))])
            try:
                decision_table(d, "player", axes)
            except (ImpossibleEvidenceError, AmbiguousCellError):
                pass
    for args in calls:
        result = assert_fills_agree(*args)
        errors.append(result[0] if isinstance(result, tuple) else None)
    assert len(calls) == 60
    assert errors.count(ImpossibleEvidenceError) > 3 and errors.count(AmbiguousCellError) > 3
    assert errors.count(None) > 20


def test_the_first_failing_cell_in_key_order_raises_its_own_error():
    axes, keys = ["X", "Y"], list(itertools.product("ab", "pqr"))
    eu = np.arange(12.0).reshape(2, 3, 2) / 1e12     # every spread within tolerance
    possible = np.ones((2, 3, 2), bool)
    for impossible_at, ambiguous_at, error, message in [
            ((0, 1), (1, 0), ImpossibleEvidenceError,
             "impossible evidence: table cell {'X': 'a', 'Y': 'q'} has zero probability "
             "under every completion"),
            ((1, 0), (0, 1), AmbiguousCellError,
             "cell {'X': 'a', 'Y': 'q'} depends on unfixed opponent decision(s) ['Z']; "
             "fix them explicitly")]:
        cell_eu, cell_possible = eu.copy(), possible.copy()
        cell_possible[impossible_at] = False
        cell_eu[ambiguous_at + (1,)] += 1.0
        with pytest.raises(error) as raised:
            inference._cell_values(cell_eu, cell_possible, axes, keys, ["Z"])
        assert str(raised.value) == message
        assert_fills_agree(cell_eu, cell_possible, axes, keys, ["Z"])


def test_a_nan_cell_does_not_raise_and_keeps_its_first_possible_filling():
    eu = np.array([[np.nan, 1.0], [2.0, np.nan], [np.nan, 3.0], [np.inf, np.inf]])
    possible = np.array([[True, True], [True, False], [False, True], [True, True]])
    with np.errstate(invalid="ignore"):  # inf - inf
        values = inference._cell_values(eu, possible, ["X"], [(c,) for c in "abcd"], ["Z"])
    assert same_bits(values, [np.nan, 2.0, 3.0, np.inf])
    assert_fills_agree(eu, possible, ["X"], [(c,) for c in "abcd"], ["Z"])


def test_random_fills_agree_with_the_per_cell_loop():
    rng = np.random.default_rng(77)
    for _ in range(300):
        shape = tuple(rng.integers(1, 4, size=rng.integers(0, 3))) + (int(rng.integers(1, 4)),)
        eu = rng.choice([0.0, 1e-10, 0.5, 2.0, np.nan, np.inf, -np.inf], size=shape,
                        p=[0.4, 0.3, 0.1, 0.1, 0.04, 0.03, 0.03])
        possible = rng.random(shape) < 0.85
        keys = list(itertools.product(*(range(n) for n in shape[:-1])))
        assert_fills_agree(eu, possible, [f"x{i}" for i in range(len(shape) - 1)], keys, ["Z"])


def test_unscreened_opponent_decision_is_ambiguous(drilling):
    # without conditioning on the attack event, the attacker's choice
    # changes the defender's utility, so leaving it unfixed must not
    # silently pick a side
    with pytest.raises(AmbiguousCellError, match="AP"):
        decision_table(drilling, "defender", ["DP", "DF", "DT", "DR"])


def test_fixed_opponent_matches_compatibility_default(drilling):
    free = decision_table(drilling, "defender", ["DP", "DF", "DT", "DR", "UC", "UA"])
    fixed = decision_table(drilling, "defender", ["DP", "DF", "DT", "DR", "UC", "UA"],
                           fixed=constant_policy(drilling, {"AP": "perpetrate"}))
    for key, value in free.cells.items():
        assert value == pytest.approx(fixed.cells[key], abs=1e-9)


def test_tie_cells_all_marked():
    from araid.diagram import Agent, AgentKind, Cpt, Domain, UtilitySpec
    nodes = [
        Node("d0", NodeKind.DECISION, owner="player", domain=Domain(("a", "b"))),
        Node("x", NodeKind.CHANCE, domain=Domain(("l", "r")), payload=Cpt({(): (0.5, 0.5)})),
        Node("v0", NodeKind.VALUE, owner="player", parents=("x",),
             payload=ValueSpec("table", rows={("l",): 0.2, ("r",): 0.8})),
        Node("u0", NodeKind.UTILITY, owner="player", parents=("v0",),
             payload=UtilitySpec({"v0": 1.0})),
    ]
    d = build_diagram([Agent("player", AgentKind.DEFENDER)], nodes,
                      {"player": ("d0",)})
    table = decision_table(d, "player", ["d0"])
    assert table.cells[("a",)] == table.cells[("b",)]
    assert table.argmax == {("a",), ("b",)}


def test_attacker_table_matches_oracle(drilling):
    table = decision_table(drilling, "attacker", ["DP", "DF", "DT", "UC", "DR", "AP"])
    assert len(table.cells) == 96
    rng = np.random.default_rng(5)
    keys = list(table.cells)
    for i in rng.choice(len(keys), size=12, replace=False):
        dp, df, dt, uc, dr, ap = keys[i]
        policy = drilling_policy(drilling, dp, df, dt, dr, ap)
        oracle = enumerate_expected_utility(drilling, "attacker", policy, {"UC": uc})
        assert table.cells[keys[i]] == pytest.approx(oracle, abs=1e-12)


def test_argmax_invariant_under_positive_affine_value_transform():
    rng = np.random.default_rng(31)
    found = 0
    for _ in range(20):
        d = random_diagram(rng)
        decisions = [n.id for n in d.nodes.values() if n.kind == NodeKind.DECISION]
        if not decisions:
            continue
        found += 1
        transformed_nodes = []
        for n in d.nodes.values():
            if n.kind == NodeKind.VALUE:
                spec = n.payload
                rows = {k: 2.0 * v + 0.25 for k, v in spec.rows.items()}
                transformed_nodes.append(Node(n.id, n.kind, n.owner, parents=n.parents,
                                              payload=ValueSpec("table", rows=rows)))
        d2 = d.replace_nodes(transformed_nodes)
        axes = decisions
        t1 = decision_table(d, "player", axes)
        t2 = decision_table(d2, "player", axes)
        assert t1.argmax == t2.argmax
        for key in t1.cells:
            assert t2.cells[key] == pytest.approx(2.0 * t1.cells[key] + 0.25, abs=1e-9)
    assert found >= 10


def test_renaming_nodes_preserves_results(drilling):
    from araid.diagram import UtilitySpec
    mapping = {nid: f"X_{nid}" for nid in drilling.nodes}
    renamed = []
    for n in drilling.nodes.values():
        payload = n.payload
        if isinstance(payload, UtilitySpec):
            payload = UtilitySpec({mapping[k]: w for k, w in payload.weights.items()})
        renamed.append(Node(mapping[n.id], n.kind, n.owner, n.domain,
                            parents=tuple(mapping[p] for p in n.parents), payload=payload))
    order = {a: tuple(mapping[x] for x in seq)
             for a, seq in drilling.decision_order.items()}
    d2 = build_diagram(drilling.agents, renamed, order)

    policy1 = drilling_policy(drilling)
    policy2 = {mapping[k]: v for k, v in policy1.items()}
    eu1 = expected_utility(drilling, "defender", policy1, {"UC": "riskier"})
    eu2 = expected_utility(d2, "defender", policy2, {mapping["UC"]: "riskier"})
    assert eu1 == pytest.approx(eu2, abs=1e-12)


# -- refusals -----------------------------------------------------------------

@pytest.mark.parametrize("call, message", [
    (lambda d: inference.constant_rule(d, "UC", "riskier"), "'UC' is not a decision node"),
    (lambda d: inference.constant_rule(d, "DP", "nope"), "'nope' is not an alternative of 'DP'"),
    (lambda d: expected_utility(d, "defender", {}, {"DP": "additional"}),
     "evidence keys must be chance/deterministic nodes, got 'DP'"),
    (lambda d: expected_utility(d, "defender", {}, {"UC": "nope"}),
     "evidence label 'nope' not in domain of 'UC'"),
    (lambda d: decision_table(d, "defender", ["ZZ"]), "unknown axis node 'ZZ'"),
    (lambda d: decision_table(d, "defender", ["UC", "UC"]), "axis 'UC' given twice"),
    (lambda d: decision_table(d, "defender", ["AMV"]),
     "axis 'AMV' must be a decision or chance node"),
], ids=["rule_decision", "rule_alternative", "evidence_kind", "evidence_label",
        "axis_unknown", "axis_twice", "axis_kind"])
def test_each_rule_evidence_and_axis_refusal_names_its_cause(drilling, call, message):
    with pytest.raises(ValueError, match=message):
        call(drilling)


# -- one compile per diagram -----------------------------------------------------

def assert_compiles_alike(m: CompiledModel, want: CompiledModel) -> None:
    assert m.sizes == want.sizes and m.elim_priority == want.elim_priority
    for got, ref in ((m.prob_factors, want.prob_factors), (m.value_factors, want.value_factors)):
        assert list(got) == list(ref)
        for nid, f in ref.items():
            assert got[nid].vars == f.vars and same_bits(got[nid].table, f.table), nid


@contextlib.contextmanager
def factor_builds():
    """The ids of the nodes whose factors `CompiledModel` builds in the
    block, filled when it ends."""
    spies = [spy_on(CompiledModel, name) for name in ("_cpt_factor", "_value_factor",
                                                      "rule_factor")]
    built = []
    with contextlib.ExitStack() as stack:
        for _, spy in spies:
            stack.enter_context(spy)
        yield built
    built += [getattr(args[1], "id", args[1]) for calls, _ in spies for args in calls]


def test_a_diagram_is_compiled_once(drilling):
    d = fresh(drilling)
    assert d._compiled is None
    first = CompiledModel.compile(d)
    with factor_builds() as built:
        again = CompiledModel.compile(d)
    assert built == []
    assert again.diagram is d and again.prob_factors is first.prob_factors
    assert again.value_factors is first.value_factors and again.sizes is first.sizes
    assert again.elim_priority is first.elim_priority


def test_repeated_forecasts_and_searches_build_only_the_swapped_factors(drilling):
    d = fresh(drilling)
    forecast_attack(d, default_beliefs(), default_uncertainty(), draws=10, seed=1)
    for _ in range(2):
        with factor_builds() as built:
            forecast = forecast_attack(d, default_beliefs(), default_uncertainty(),
                                       draws=10, seed=1)
            solve_defender(d, forecast)
        assert built == ["DT", "DR", "AP"]  # the view's two beliefs, the attack forecast


def test_a_derived_compile_equals_a_compile_of_the_derived_diagram(drilling):
    d = fresh(drilling)
    view = attacker_view(d, default_beliefs(), {"DP", "DF"})
    forecast = AttackForecast.constant(d, "AP", {"perpetrate": 0.35, "no_perpetrate": 0.65})
    solved = apply_forecast(d, forecast)
    for derived in (view, solved):
        assert derived._compiled is not None
        assert_compiles_alike(CompiledModel.compile(derived), CompiledModel.compile(fresh(derived)))
    # DR loses its parent UA in the view, so its depths are its own
    assert CompiledModel.compile(view).elim_priority != CompiledModel.compile(d).elim_priority
    # new money tags on DC, whose children read them: AMV's factor is rebuilt
    dc = d.nodes["DC"]
    tags = tuple(2 * t for t in dc.domain.numeric_tags)
    richer = CompiledModel.compile(d).with_nodes([replace(dc, domain=Domain(dc.domain.labels, tags))])
    assert_compiles_alike(richer, CompiledModel.compile(fresh(richer.diagram)))
    assert not np.array_equal(richer.value_factors["AMV"].table,
                              CompiledModel.compile(d).value_factors["AMV"].table)
    for r, picked, m in random_swaps():
        assert_compiles_alike(m, CompiledModel.compile(fresh(m.diagram)))
        kept = set(r.nodes) - set(picked)
        parent = CompiledModel.compile(r)
        assert all(m.prob_factors[nid] is parent.prob_factors[nid]
                   for nid in kept & set(parent.prob_factors))


def random_swaps():
    """40 random swaps on random diagrams: new tables over a subset
    of the parents, decisions turned chance, several nodes at once. Yields
    each diagram, the swapped ids and the derived compiled model."""
    rng = np.random.default_rng(2626)
    for _ in range(40):
        r = random_diagram(rng, with_money=True)
        ids = [n.id for n in r.nodes.values() if n.kind in (NodeKind.CHANCE, NodeKind.DECISION)]
        picked = rng.choice(ids, size=int(rng.integers(1, min(3, len(ids)) + 1)), replace=False)
        swaps = []
        for nid in picked:
            n = r.nodes[nid]
            parents = tuple(p for p in n.parents if rng.random() < 0.6)
            keys = itertools.product(*(r.nodes[p].domain.labels for p in parents))
            swaps.append(Node(nid, NodeKind.CHANCE, domain=n.domain, parents=parents,
                              payload=Cpt({k: tuple(rng.dirichlet(np.ones(len(n.domain))))
                                           for k in keys})))
        yield r, picked, CompiledModel.compile(r).with_nodes(swaps)


def test_a_plan_replayed_in_a_swapped_family_equals_a_fresh_one():
    # each random diagram and its swap share one memo: the swap's queries,
    # planned after the diagram's, must equal those of a diagram that was
    # never compiled, whatever the memo replays. About half of the swap's
    # tapes replay a plan of the diagram's
    replays = 0
    for r, _, m in random_swaps():
        for model in (CompiledModel.compile(r), m):
            d = model.diagram
            keep = sorted(n.id for n in d.nodes.values() if n.kind == NodeKind.DECISION)
            sampled = min(nid for nid, n in d.nodes.items() if n.kind == NodeKind.CHANCE)
            want = CompiledModel.compile(fresh(d))
            for batched in ((), (sampled,)):
                calls, spy = spy_on(inference, "_plan")
                with spy:
                    query = model.utility_query("player", {}, {}, keep, batched=batched)
                if model is m:
                    replays += 1 + len(query.value_tapes) - len(calls)
                assert_queries_alike(query, want.utility_query("player", {}, {}, keep,
                                                               batched=batched))
    assert replays > 80, replays


def test_a_memoized_tape_equals_a_fresh_one_whatever_part_of_its_key_changes():
    # deepest-first (a, b, c) eliminates a against the batched table at a x b
    # x c per row; greedy eliminates b and c on the fixed tables alone, then a
    # at a. Each variant below differs from the first in one part of the
    # key, or in one-hotness, and plans differently: planned second through
    # one memo, each must still give the tape that planning it afresh gives
    rng = np.random.default_rng(27)

    def tape(plans=None, sizes=(3, 3, 3), priority=("a", "b", "c"), by_row_cost=True,
             keep=(BATCH,), fixed=(1, 2), one_hot=False):
        sizes = dict(zip("abc", sizes))
        tables = {1: rng.random([sizes[v] for v in "abc"]), 2: rng.random(sizes["c"])}
        if one_hot:  # the step that eliminates c against the fixed (c,) takes
            tables[2] = np.eye(sizes["c"])[0]
        return ContractionTape([(BATCH, "a"), ("a", "b", "c"), ("c",)], list(keep),
                               {v: (-i,) for i, v in enumerate(reversed(priority))}, sizes,
                               {i: tables[i] for i in fixed}, by_row_cost=by_row_cost,
                               plans=plans)
    deepest = {"by_row_cost": False}
    pairs = {"sizes": ({}, {"sizes": (4, 3, 3)}),
             "priority": (deepest, {**deepest, "priority": ("b", "c", "a")}),
             "by_row_cost": ({}, deepest), "keep": ({}, {"keep": (BATCH, "c")}),
             "fixed": ({}, {"fixed": (1,)}), "one-hot": (deepest, {**deepest, "one_hot": True})}
    for part, pair in pairs.items():
        for first, second in (pair, pair[::-1]):
            plans = {}
            for variant in (first, second):
                seed = int(rng.integers(2**32))
                rng = np.random.default_rng(seed)
                got = tape(plans, **variant)
                rng = np.random.default_rng(seed)
                assert_tapes_alike(got, tape(**variant))
            # the second plan differs from the first
            assert (got.steps, got.row_ops, got.gathers) != (
                tape(**first).steps, tape(**first).row_ops, tape(**first).gathers), part
            # a one-hot fact is not part of the key: its entry is replaced
            assert len(plans) == (1 if part == "one-hot" else 2)
    # a repeat of a key with the same one-hot facts, on new tables, replays:
    # no walk runs
    plans = {}
    tape(plans, **deepest, one_hot=True)
    calls, spy = spy_on(inference, "_Elimination")
    rng = np.random.default_rng(seed)
    with spy:
        got = tape(plans, **deepest, one_hot=True)
    assert not calls
    rng = np.random.default_rng(seed)
    assert_tapes_alike(got, tape(**deepest, one_hot=True))


def test_a_refused_tape_is_refused_again_on_the_same_diagram():
    # a refusal leaves nothing in the memo: the second call plans again and
    # raises the same message
    ids = [f"c{i:02d}" for i in range(53)]
    lines = ["agent def kind=defender"]
    for nid in ids:
        lines += [f"node {nid} kind=chance domain=only", f"cpt {nid} | : only=1"]
    lines += ["node V kind=value agent=def", *(f"arc {nid} -> V" for nid in ids),
              "value V form=table | " + ",".join(f"{nid}=only" for nid in ids) + " : 1",
              "node U kind=utility agent=def", "arc V -> U", "utility U weights V=1"]
    wide, diags = try_parse_model("\n".join(lines) + "\n")
    assert diags == []
    grid, _ = try_parse_model(grid_model(20))
    for d, message in ((wide, "a contraction needs 53 einsum letters at once"),
                       (grid, "a contraction step over 23 variables")):
        raised, kept = [], []
        for _ in range(2):
            calls, spy = spy_on(inference, "_plan")
            with spy, pytest.raises(ValueError, match=message) as refusal:
                expected_utility(d, "def", {})
            raised.append(str(refusal.value))
            kept.append(len(CompiledModel.compile(d).plans))
            assert calls  # the refused tape is planned again
        assert raised[0] == raised[1] and kept[0] == kept[1]


def test_a_compiled_diagram_is_freed_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        d = build_drilling_model()
        m = CompiledModel.compile(d)
        view = attacker_view(d, default_beliefs(), {"DP", "DF"})
        # a sampled AMV makes the attacker's query take over DC
        amv = ParameterUncertainty({("value_scale", "AMV"): UniformRule(8e6, 1.2e7)})
        solve_defender(d, forecast_attack(d, default_beliefs(), amv, draws=10, seed=1))
        # the parsed diagram and every model derived from it share one memo
        # of plans, and an unrelated diagram has its own
        assert m.plans and CompiledModel.compile(view).plans is m.plans
        assert CompiledModel.compile(fresh(d)).plans is not m.plans
        # a take's index array, which only the memo keeps once the tapes are gone
        index = next(a for _, _, one_hot in m.plans.values() for a in one_hot.values()
                     if a is not None)
        refs = [weakref.ref(x) for x in (d, m, view, m.prob_factors["UC"],
                                         m.value_factors["AMV"].table,
                                         CompiledModel.compile(view).prob_factors["DT"].table,
                                         index)]
        del index
        del d, m, view
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_the_enumeration_oracle_leaves_no_reference_cycle(drilling):
    gc.collect()
    gc.disable()
    try:
        d = fresh(drilling)
        eu = enumerate_expected_utility(d, "defender", drilling_policy(d))
        ref = weakref.ref(d)
        del d
        assert math.isfinite(eu) and ref() is None
    finally:
        gc.enable()


def test_compiled_factor_tables_are_read_only(drilling):
    view = attacker_view(drilling, default_beliefs(), {"DP", "DF"})
    m = CompiledModel.compile(view)
    for f in [*m.prob_factors.values(), *m.value_factors.values()]:
        with pytest.raises(ValueError, match="read-only"):
            f.table[(0,) * f.table.ndim] = 0.5


def test_the_compiled_form_takes_no_part_in_equality_or_repr(drilling):
    d, other = fresh(drilling), fresh(drilling)
    CompiledModel.compile(d)
    assert d._compiled is not None and other._compiled is None
    assert d == other and repr(d) == repr(other) and "_compiled" not in repr(d)
