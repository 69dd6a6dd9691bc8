import contextlib
import itertools
import math
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from araid import ara
from araid.ara import (
    AttackForecast,
    DirichletRule,
    ParameterUncertainty,
    PerturbRule,
    PointRule,
    UniformRule,
    apply_forecast,
    attacker_view,
    best_response,
    forecast_attack,
    solve_defender,
)
from araid.diagram import (Agent, AgentKind, Cpt, DiagramError, Node, NodeKind, build_diagram,
                           validate_diagram)
from araid.drilling import default_beliefs, default_uncertainty
from araid.modelfile import parse_model, serialize_model
from araid.resources import data_path
from araid import inference
from araid.inference import (CompiledModel, ContractionTape, ImpossibleEvidenceError,
                             UtilityQuery, constant_policy, decision_table,
                             enumerate_expected_utility, expected_utility)

from conftest import (assert_queries_alike, chain_model, deepest_first, executed_expected, fresh,
                      random_diagram, replayed, same_bits, spy_on, wide_decision_model,
                      wide_observer_model)

DP_DF = list(itertools.product(("additional", "no_additional"),
                               ("forensic", "no_forensic")))


def point(dt: str, dr: str) -> dict:
    return {
        "DT": {lbl: 1.0 if lbl == dt else 0.0 for lbl in ("avoid", "share", "accept")},
        "DR": {lbl: 1.0 if lbl == dr else 0.0 for lbl in ("continue", "stop")},
    }


# -- attacker view -------------------------------------------------------------

def test_view_turns_unobserved_decisions_into_chance(drilling):
    view = attacker_view(drilling, default_beliefs(), observed={"DP", "DF"})
    assert validate_diagram(view) == []
    for nid in ("DT", "DR"):
        node = view.nodes[nid]
        assert node.kind == NodeKind.CHANCE
        assert node.parents == ()
        assert sum(node.payload.rows[()]) == pytest.approx(1.0)
    assert view.nodes["DP"].kind == NodeKind.DECISION
    assert view.decision_order["defender"] == ("DP", "DF")
    # defender's evaluation machinery is still present
    assert view.nodes["DU"].kind == NodeKind.UTILITY


def test_view_requires_belief_for_every_unobserved_decision(drilling):
    with pytest.raises(ValueError, match="DR"):
        attacker_view(drilling, {"DT": default_beliefs()["DT"]}, observed={"DP", "DF"})
    with pytest.raises(ValueError, match="both observed"):
        attacker_view(drilling, default_beliefs(), observed={"DP", "DF", "DT"})


def test_view_rejects_a_belief_that_is_not_a_distribution(drilling):
    beliefs = {**default_beliefs(), "DR": {"continue": 0.7, "stop": 0.5}}
    with pytest.raises(DiagramError, match=r"node 'DR' row \(\): row sums to 1.2"):
        attacker_view(drilling, beliefs, observed={"DP", "DF"})


def test_an_agent_id_that_names_no_agent_is_rejected(drilling):
    beliefs = default_beliefs()
    with pytest.raises(ValueError, match="unknown attacker 'intruder'"):
        attacker_view(drilling, beliefs, observed={"DP", "DF"}, attacker="intruder")
    with pytest.raises(ValueError, match="unknown attacker 'intruder'"):
        forecast_attack(drilling, beliefs, default_uncertainty(), draws=1, seed=0,
                        attacker="intruder")
    forecast = AttackForecast.constant(drilling, "AP", {"perpetrate": 0.5,
                                                        "no_perpetrate": 0.5})
    with pytest.raises(ValueError, match="unknown defender 'operator'"):
        solve_defender(drilling, forecast, defender="operator")
    # the ids the diagram does name still work when given explicitly
    assert solve_defender(drilling, forecast, defender="defender") == \
        solve_defender(drilling, forecast)


# the derivations as written out by hand: merge the new nodes, drop them from
# the decision orders, build
def hand_merged_view(d, beliefs):
    merged = dict(d.nodes)
    for nid, dist in beliefs.items():
        old = d.nodes[nid]
        row = tuple(float(dist[lbl]) for lbl in old.domain.labels)
        merged[nid] = Node(nid, NodeKind.CHANCE, domain=old.domain, payload=Cpt({(): row}))
    order = {a: tuple(x for x in seq if x not in beliefs) for a, seq in d.decision_order.items()}
    return build_diagram(d.agents, merged.values(), order)


def hand_merged_forecast(d, forecast):
    node = d.nodes[forecast.decision]
    merged = dict(d.nodes)
    merged[node.id] = Node(node.id, NodeKind.CHANCE, domain=node.domain, parents=node.parents,
                           payload=Cpt(dict(forecast.probabilities)))
    order = {a: tuple(x for x in seq if x != node.id) for a, seq in d.decision_order.items()}
    return build_diagram(d.agents, merged.values(), order)


def random_distribution(rng, labels):
    return dict(zip(labels, map(float, rng.dirichlet(np.ones(len(labels))))))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_derivations_equal_the_hand_merged_diagram(seed):
    rng = np.random.default_rng(seed)
    d = random_diagram(rng)
    # an attacker agent with no decision: every decision is an opponent's
    d = build_diagram(d.agents + (Agent("intruder", AgentKind.ATTACKER),), d.nodes.values(),
                      d.decision_order)
    decisions = [n.id for n in d.nodes.values() if n.kind == NodeKind.DECISION]
    distributed = [nid for nid in decisions if rng.integers(0, 2)]
    beliefs = {nid: random_distribution(rng, d.nodes[nid].domain.labels) for nid in distributed}
    view = attacker_view(d, beliefs, observed=set(decisions) - set(distributed),
                         attacker="intruder")
    assert view == hand_merged_view(d, beliefs)
    for nid in decisions:
        forecast = AttackForecast.constant(
            d, nid, random_distribution(rng, d.nodes[nid].domain.labels))
        solved = apply_forecast(d, forecast)
        assert solved == hand_merged_forecast(d, forecast)
        # replacing a decision by a chance node drops it from its agent's order
        assert solved.decision_order.get("player", ()) == tuple(
            x for x in d.decision_order["player"] if x != nid)


def test_derivations_of_the_shipped_model_equal_the_hand_merged_diagram(drilling):
    beliefs = default_beliefs()
    view = attacker_view(drilling, beliefs, observed={"DP", "DF"})
    assert view == hand_merged_view(drilling, beliefs)
    forecast = AttackForecast.constant(
        drilling, "AP", {"perpetrate": 0.35, "no_perpetrate": 0.65})
    solved = apply_forecast(drilling, forecast)
    assert solved == hand_merged_forecast(drilling, forecast)
    assert "attacker" not in solved.decision_order


def test_point_beliefs_equal_fixed_policy(drilling):
    view = attacker_view(drilling, point("accept", "continue"), observed={"DP", "DF"})
    for ap in ("perpetrate", "no_perpetrate"):
        via_view = expected_utility(
            view, "attacker",
            constant_policy(view, {"DP": "no_additional", "DF": "no_forensic", "AP": ap}),
            {"UC": "riskier"})
        via_policy = expected_utility(
            drilling, "attacker",
            constant_policy(drilling, {"DP": "no_additional", "DF": "no_forensic",
                                       "DT": "accept", "DR": "continue", "AP": ap}),
            {"UC": "riskier"})
        assert via_view == pytest.approx(via_policy, abs=1e-12)


# -- best responses -------------------------------------------------------------

@pytest.mark.parametrize("dp,df", DP_DF)
@pytest.mark.parametrize("uc", ("riskier", "normal"))
def test_accept_continue_belief_makes_perpetrate_optimal(drilling, dp, df, uc):
    view = attacker_view(drilling, point("accept", "continue"), observed={"DP", "DF"})
    br = best_response(view, "attacker", {"DP": dp, "DF": df, "UC": uc})
    assert br.optimal == ("perpetrate",)


@pytest.mark.parametrize("dp,df", DP_DF)
@pytest.mark.parametrize("dt", ("share", "avoid"))
@pytest.mark.parametrize("dr", ("continue", "stop"))
def test_share_or_avoid_belief_makes_no_perpetrate_optimal(drilling, dp, df, dt, dr):
    view = attacker_view(drilling, point(dt, dr), observed={"DP", "DF"})
    for uc in ("riskier", "normal"):
        br = best_response(view, "attacker", {"DP": dp, "DF": df, "UC": uc})
        assert br.optimal == ("no_perpetrate",)


def test_continue_belief_strengthens_perpetrate(drilling):
    for dp, df in DP_DF:
        gaps = {}
        for dr in ("continue", "stop"):
            view = attacker_view(drilling, point("accept", dr), observed={"DP", "DF"})
            br = best_response(view, "attacker", {"DP": dp, "DF": df, "UC": "riskier"})
            gaps[dr] = br.expected["perpetrate"] - br.expected["no_perpetrate"]
        assert gaps["continue"] > gaps["stop"]


def test_identical_alternatives_tie():
    br = best_response(foe_diagram(), "foe", {})
    assert set(br.optimal) == {"l", "r"}


def near_tie_diagram(gap: float):
    """The foe's moves l and r score 0.25 and 0.25 + gap, with certainty."""
    from araid.diagram import (Agent, AgentKind, Domain, Node, UtilitySpec, ValueSpec,
                               build_diagram)
    nodes = [
        Node("move", NodeKind.DECISION, owner="foe", domain=Domain(("l", "r"))),
        Node("score", NodeKind.VALUE, owner="foe", parents=("move",),
             payload=ValueSpec("table", rows={("l",): 0.25, ("r",): 0.25 + gap})),
        Node("payoff", NodeKind.UTILITY, owner="foe", parents=("score",),
             payload=UtilitySpec({"score": 1.0})),
    ]
    return build_diagram([Agent("foe", AgentKind.ATTACKER)], nodes, {"foe": ("move",)})


@pytest.mark.parametrize("gap, optimal", [(0.5e-12, ("l", "r")), (2e-12, ("r",))])
def test_tables_and_best_responses_share_one_tie_tolerance(gap, optimal):
    assert ara.TIE_TOL is inference.TIE_TOL == 1e-12
    d = near_tie_diagram(gap)
    assert best_response(d, "foe", {}).optimal == optimal
    assert decision_table(d, "foe", ["move"]).argmax == {(alt,) for alt in optimal}


@pytest.mark.parametrize("call", ["decision_table", "best_response", "solve_defender"])
def test_each_call_plans_one_utility_query(drilling, call):
    view = attacker_view(drilling, default_beliefs(), observed={"DP", "DF"})
    forecast = AttackForecast.constant(drilling, "AP", {"perpetrate": 0.35,
                                                        "no_perpetrate": 0.65})
    run = {
        "decision_table": lambda: decision_table(
            drilling, "defender", ["DP", "DF", "DT", "DR", "UC", "UA"]),
        "best_response": lambda: best_response(
            view, "attacker", {"DP": "additional", "DF": "forensic", "UC": "normal"}),
        "solve_defender": lambda: solve_defender(drilling, forecast),
    }[call]
    plans = []
    plan = CompiledModel.utility_query

    def spy_plan(self, *args, **kwargs):
        plans.append(args)
        return plan(self, *args, **kwargs)

    with mock.patch.object(CompiledModel, "utility_query", spy_plan):
        run()
    assert len(plans) == 1


# -- forecast --------------------------------------------------------------------

def test_point_rules_are_draw_and_seed_independent(drilling):
    beliefs = point("accept", "continue")
    rules = ParameterUncertainty()
    one = forecast_attack(drilling, beliefs, rules, draws=1, seed=3)
    many = forecast_attack(drilling, beliefs, rules, draws=57, seed=11)
    assert one.probabilities == many.probabilities
    for ctx, probs in one.probabilities.items():
        assert probs == (1.0, 0.0)  # perpetrate dominant under this belief


def test_forecast_reproducible_and_seed_sensitive(drilling):
    a = forecast_attack(drilling, default_beliefs(), default_uncertainty(),
                        draws=400, seed=5)
    b = forecast_attack(drilling, default_beliefs(), default_uncertainty(),
                        draws=400, seed=5)
    c = forecast_attack(drilling, default_beliefs(), default_uncertainty(),
                        draws=400, seed=6)
    assert a.to_json() == b.to_json()
    assert a.to_json() != c.to_json()
    for probs in a.probabilities.values():
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 <= p <= 1.0 for p in probs)


def wide_uncertainty(d) -> ParameterUncertainty:
    """Every rule kind: belief, weights, non-root cpt_row, value_scale and value_root."""
    rules = {
        ("belief", "DT"): DirichletRule((2.0, 2.0, 2.0)),
        ("belief", "DR"): DirichletRule((2.0, 2.0)),
        ("weights", "AU"): DirichletRule((97.0, 3.0)),
        ("cpt_row", "UCA", ("attack", "forensic")): DirichletRule((3.0, 7.0)),
        ("cpt_row", "UCA", ("attack", "no_forensic")): DirichletRule((9.0, 1.0)),
        ("value_scale", "AMV"): UniformRule(8e6, 1.2e7),
        ("value_root", "AMV"): UniformRule(2.5, 3.5),
    }
    for row in d.nodes["UM"].payload.rows:
        rules[("cpt_row", "UM", row)] = PerturbRule(0.02)
    return ParameterUncertainty(rules=rules)


def foe_diagram():
    """One attacker decision, no observed context, a constant-value utility."""
    from araid.diagram import (Agent, AgentKind, Cpt, Domain, Node, UtilitySpec,
                               ValueSpec, build_diagram)
    nodes = [
        Node("move", NodeKind.DECISION, owner="foe", domain=Domain(("l", "r"))),
        Node("coin", NodeKind.CHANCE, domain=Domain(("h", "t")),
             payload=Cpt({(): (0.5, 0.5)})),
        Node("score", NodeKind.VALUE, owner="foe", parents=("coin",),
             payload=ValueSpec("table", rows={("h",): 0.3, ("t",): 0.9})),
        Node("payoff", NodeKind.UTILITY, owner="foe", parents=("score",),
             payload=UtilitySpec({"score": 1.0})),
    ]
    return build_diagram([Agent("foe", AgentKind.ATTACKER)], nodes, {"foe": ("move",)})


BLOCK_CASES = {
    "wide": lambda d: (d, default_beliefs(), wide_uncertainty(d)),
    "default": lambda d: (d, default_beliefs(), default_uncertainty()),
    "no-sampled-factor": lambda d: (d, default_beliefs(), ParameterUncertainty()),
    "context-free": lambda d: (foe_diagram(), {}, ParameterUncertainty(
        rules={("cpt_row", "coin", ()): DirichletRule((1.0, 1.0))})),
}


def traced_forecast(d, beliefs, rules, draws, seed):
    """forecast_attack, plus every draw's sampled inputs and its EU on its own.

    Each draw's EU comes from the forecast's own query evaluated on that
    draw's row alone, as a one-row batch.
    """
    queries, batches = [], []
    plan, inputs = CompiledModel.utility_query, ara._DrawBlock.inputs

    def spy_plan(self, *args, **kwargs):
        queries.append(plan(self, *args, **kwargs))
        return queries[-1]

    def spy_inputs(self, lo, hi):
        tables, weights = inputs(self, lo, hi)
        batches.append((hi - lo, {k: t.copy() for k, t in tables.items()},
                        None if weights is None else {k: w.copy() for k, w in weights.items()}))
        return tables, weights

    with mock.patch.object(CompiledModel, "utility_query", spy_plan), \
            mock.patch.object(ara._DrawBlock, "inputs", spy_inputs):
        fc = forecast_attack(d, beliefs, rules, draws=draws, seed=seed)
    (query,) = queries
    rows, eus = [], []
    for n, tables, weights in batches:
        for i in range(n):
            one = ({k: t[i:i + 1] for k, t in tables.items()},
                   None if weights is None else {k: w[i:i + 1] for k, w in weights.items()})
            rows.append(one)
            eus.append(np.reshape(query.evaluate(*one), query.shape[-len(query.keep):]))
    return fc, rows, eus


def same_row(a, b) -> bool:
    (ta, wa), (tb, wb) = a, b
    return (ta.keys() == tb.keys() and all(np.array_equal(ta[k], tb[k]) for k in ta)
            and (wa is None) == (wb is None)
            and (wa is None or all(np.array_equal(wa[k], wb[k]) for k in wa)))


@pytest.mark.parametrize("case", list(BLOCK_CASES))
@settings(max_examples=8, deadline=None)
@given(draws=st.integers(1, 1100), other=st.integers(1, 2100),
       seed=st.integers(0, 2**32 - 1))
@example(draws=1024, other=1025, seed=1)   # one block, and one draw into the next
@example(draws=1025, other=1023, seed=2)
@example(draws=1, other=2049, seed=3)      # a third block
def test_draw_depends_on_seed_and_index_alone(drilling, case, draws, other, seed):
    d, beliefs, rules = BLOCK_CASES[case](drilling)
    fc, rows, eus = traced_forecast(d, beliefs, rules, draws, seed)
    _, other_rows, _ = traced_forecast(d, beliefs, rules, other, seed)
    assert len(rows) == draws and len(other_rows) == other
    # (a) draw i samples the same parameters whatever the number of draws
    assert all(same_row(a, b) for a, b in zip(rows, other_rows))
    # (b) the batched tally equals one that evaluates each draw on its own
    tally = {}
    for eu in eus:
        for ctx in itertools.product(*(range(k) for k in eu.shape[:-1])):
            winners = eu[ctx] >= eu[ctx].max() - ara.TIE_TOL
            share = [Fraction(int(w), int(winners.sum())) for w in winners]
            tally[ctx] = [a + b for a, b in zip(tally.get(ctx, [0] * len(share)), share)]
    labels = [d.nodes[p].domain.labels for p in fc.context_nodes]
    for ctx, counts in tally.items():
        key = tuple(lbls[i] for lbls, i in zip(labels, ctx))
        assert fc.probabilities[key] == tuple(float(c / draws) for c in counts)


def rebuilt_view(view, sampled):
    """The attacker view as a plain diagram carrying (target, value) parameters."""
    from dataclasses import replace

    from araid.diagram import Cpt, UtilitySpec, build_diagram
    nodes = dict(view.nodes)
    for target, value in sampled:
        kind, node = target[0], nodes[target[1]]
        if kind in ("belief", "cpt_row"):
            rows = dict(node.payload.rows)
            rows[() if kind == "belief" else target[2]] = tuple(float(p) for p in value)
            payload = Cpt(rows)
        elif kind == "weights":
            payload = UtilitySpec(dict(zip(node.parents, (float(w) for w in value))))
        else:
            payload = replace(node.payload, **{kind[len("value_"):]: float(value)})
        nodes[node.id] = replace(node, payload=payload)
    return build_diagram(view.agents, nodes.values(), view.decision_order)


def oracle_forecast(view):
    """Per context, the attacker's winners by exhaustive enumeration."""
    ap = view.nodes["AP"]
    winners = {}
    for ctx in itertools.product(*(view.nodes[p].domain.labels for p in ap.parents)):
        pinned = dict(zip(ap.parents, ctx))
        decisions = {k: v for k, v in pinned.items() if view.nodes[k].kind == NodeKind.DECISION}
        evidence = {k: v for k, v in pinned.items() if k not in decisions}
        eu = {alt: enumerate_expected_utility(
                  view, "attacker", constant_policy(view, {**decisions, "AP": alt}), evidence)
              for alt in ap.domain.labels}
        top = max(eu.values())
        winners[ctx] = {alt for alt in ap.domain.labels if eu[alt] >= top - ara.TIE_TOL}
    return winners


@pytest.mark.parametrize("seed", range(30))
def test_single_draw_forecast_matches_the_oracle(drilling, seed):
    rules = wide_uncertainty(drilling)
    view = attacker_view(drilling, default_beliefs(), observed={"DP", "DF"})
    # a one-draw forecast samples a one-row block
    block = ara._DrawBlock(view, CompiledModel.compile(view), rules,
                           view.utility_node_of("attacker"), 1)
    block.sample(seed, 0)
    expected = oracle_forecast(rebuilt_view(
        view, [(target, slot[0]) for target, slot in zip(block.targets, block.slots)]))
    fc = forecast_attack(drilling, default_beliefs(), rules, draws=1, seed=seed)
    for ctx, probs in fc.probabilities.items():
        got = {alt for alt, p in zip(fc.alternatives, probs) if p > 0}
        assert got == expected[ctx], ctx


def test_sampled_value_scale_and_root_combine(drilling):
    # both scalars of AMV pinned by degenerate rules: the attacker's view with
    # scale 1e6 and root 2 makes perpetrating optimal in every context
    rules = ParameterUncertainty(rules={
        ("value_scale", "AMV"): UniformRule(1e6, 1e6),
        ("value_root", "AMV"): UniformRule(2.0, 2.0),
    })
    fc = forecast_attack(drilling, default_beliefs(), rules, draws=1, seed=0)
    view = attacker_view(drilling, default_beliefs(), observed={"DP", "DF"})
    expected = oracle_forecast(rebuilt_view(
        view, [(("value_scale", "AMV"), 1e6), (("value_root", "AMV"), 2.0)]))
    assert len(fc.probabilities) == 8
    for ctx, probs in fc.probabilities.items():
        assert expected[ctx] == {"perpetrate"}
        assert dict(zip(fc.alternatives, probs)) == {"perpetrate": 1.0, "no_perpetrate": 0.0}


def test_perpetrate_probability_monotone_in_believed_accept(drilling):
    grid = [i / 10 for i in range(11)]
    history = {ctx: [] for ctx in forecast_attack(
        drilling, point("accept", "continue"), ParameterUncertainty(),
        draws=1, seed=0).probabilities}
    for t in grid:
        beliefs = {
            "DT": {"accept": t, "share": (1 - t) / 2, "avoid": (1 - t) / 2},
            "DR": {"continue": 1.0, "stop": 0.0},
        }
        fc = forecast_attack(drilling, beliefs, ParameterUncertainty(), draws=1, seed=0)
        for ctx, probs in fc.probabilities.items():
            history[ctx].append(probs[0])
    for ctx, series in history.items():
        assert all(a <= b + 1e-12 for a, b in zip(series, series[1:])), (ctx, series)


def test_tie_split_equally():
    fc = forecast_attack(foe_diagram(), beliefs={}, uncertainty=ParameterUncertainty(),
                         draws=7, seed=1)
    assert fc.probabilities[()] == (0.5, 0.5)


def old_tally(eu, lcm):
    """The tally in six passes: every alternative within TIE_TOL of a draw's
    best gets lcm over the number of them."""
    winners = eu >= eu.max(axis=-1, keepdims=True) - ara.TIE_TOL
    return (winners * (lcm // winners.sum(axis=-1, keepdims=True))).sum(axis=0)


@pytest.mark.parametrize("alternatives", [2, 3])
def test_the_tally_counts_as_the_six_pass_formula_with_exact_and_near_ties(alternatives):
    rng = np.random.default_rng(alternatives)
    lcm = math.lcm(*range(1, alternatives + 1))
    paths = set()
    for ties in (0, 1, 5, 40):
        # [draw, context, context, alternative], laid out draw axis innermost
        eu = np.moveaxis(rng.random((2, 3, alternatives, 64)), -1, 0).copy()
        for _ in range(ties):
            i, j, k = (int(rng.integers(n)) for n in eu.shape[:3])
            best = eu[i, j, k].max()
            # an exact tie, or one within TIE_TOL, with the best of the row
            for alt in rng.choice(alternatives, size=int(rng.integers(2, alternatives + 1)),
                                  replace=False):
                eu[i, j, k, alt] = best - rng.choice([0.0, 0.5 * ara.TIE_TOL])
        counts = ara._tally(eu, lcm, 0)
        assert np.array_equal(counts, old_tally(eu, lcm)), ties
        assert counts.dtype.kind == "i" and counts.sum() == lcm * 64 * 6
        paths.add(bool((old_tally(eu, lcm) % lcm).any()))
    assert paths == {False, True}  # some tallies had no tie, some split a draw


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_the_tally_refuses_a_best_that_is_not_finite(bad):
    eu = np.zeros((4, 3, 2))
    eu[2, 1] = bad
    with pytest.raises(ValueError, match="not finite in block 7 "):
        ara._tally(eu, 2, 7)
    # one NaN row and one tied row would have passed a count of winners alone
    eu[3, 0] = (1.0, 1.0)
    with pytest.raises(ValueError, match="not finite in block 7 "):
        ara._tally(eu, 2, 7)


def test_an_overflowing_money_value_is_refused_not_tallied(drilling):
    # x ** 1000 overflows for every amount above 1: each alternative's
    # utility is infinite, or NaN where an infinite table meets a zero
    rules = ParameterUncertainty({("value_scale", "AMV"): UniformRule(1.0, 1.0),
                                  ("value_root", "AMV"): UniformRule(0.001, 0.001)})
    # no numpy warning goes out above the error
    with warnings.catch_warnings(), \
            pytest.raises(ValueError, match="not finite in block 0 "):
        warnings.simplefilter("error")
        forecast_attack(drilling, default_beliefs(), rules, draws=10, seed=1)


def test_sampling_rule_validation(drilling):
    beliefs = default_beliefs()
    bad = ParameterUncertainty(rules={("belief", "DT"): DirichletRule((1.0, -1.0, 1.0))})
    with pytest.raises(ValueError, match="positive"):
        forecast_attack(drilling, beliefs, bad, draws=1, seed=0)
    bad = ParameterUncertainty(rules={("belief", "DT"): DirichletRule((1.0, 1.0))})
    with pytest.raises(ValueError, match="entries"):
        forecast_attack(drilling, beliefs, bad, draws=1, seed=0)
    bad = ParameterUncertainty(rules={("weights", "AU"): UniformRule(0.0, 1.0)})
    with pytest.raises(ValueError, match="vector targets"):
        forecast_attack(drilling, beliefs, bad, draws=1, seed=0)
    bad = ParameterUncertainty(rules={("value_root", "AMV"): UniformRule(-1.0, 2.0)})
    with pytest.raises(ValueError, match="positive"):
        forecast_attack(drilling, beliefs, bad, draws=1, seed=0)
    bad = ParameterUncertainty(rules={("belief", "nope"): PointRule()})
    with pytest.raises(ValueError, match="unknown node"):
        forecast_attack(drilling, beliefs, bad, draws=1, seed=0)


@pytest.mark.parametrize("target", [("cpt_row", "UC"), ("cpt_row", "UC", (), "extra")])
def test_a_cpt_row_target_must_name_its_parent_tuple(drilling, target):
    bad = ParameterUncertainty(rules={target: PointRule()})
    with pytest.raises(ValueError, match=r"target \('cpt_row', 'UC'.*: a cpt_row target is "
                                         r"\(\"cpt_row\", node, parent tuple\)"):
        forecast_attack(drilling, default_beliefs(), bad, draws=1, seed=0)


def um_bases(d) -> np.ndarray:
    """UM's 8 rows of 3 probabilities, stacked as the wide rules' perturbation draws them."""
    return np.array(list(d.nodes["UM"].payload.rows.values()))


def test_perturb_rule_is_jitter_clipped_and_renormalised(drilling):
    # the rule's in-place arithmetic against the formula written out: base
    # plus uniform jitter, clipped at 0, divided by the row sum. UM's rows
    # hold zeros, and a width of 0.2 takes 0.03 below zero, so both clip
    length_two = np.array([0.97, 0.03])
    for base, half_width in ((length_two, 0.02), (length_two, 0.2), (um_bases(drilling), 0.02)):
        assert base.shape in ((2,), (8, 3))
        got = PerturbRule(half_width).sample(base, np.random.default_rng(11), 1024)
        jitter = np.random.default_rng(11).uniform(
            -half_width, half_width, size=base.shape[:-1] + (1024, base.shape[-1]))
        clipped = np.maximum(base[..., None, :] + jitter, 0.0)
        want = clipped / clipped.sum(axis=-1, keepdims=True)
        assert same_bits(got, want)
        assert (clipped == 0.0).any() == (half_width == 0.2 or base.ndim == 2)


def perturb_along_rows(rule: PerturbRule, base: np.ndarray, rng: np.random.Generator,
                       n: int) -> np.ndarray:
    """`PerturbRule.sample` as it was before it ran along the draw axis: in
    place on the [..., n, L] jitter, each row summed by numpy."""
    base = np.asarray(base)[..., None, :]
    jittered = rng.uniform(-rule.half_width, rule.half_width,
                           size=base.shape[:-2] + (n, base.shape[-1]))
    jittered += base
    np.maximum(jittered, 0.0, out=jittered)
    total = jittered.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise ValueError("perturbed vector collapsed to zero mass")
    jittered /= total
    return jittered


@settings(max_examples=200, deadline=None)
@given(length=st.integers(1, 12), stacks=st.integers(0, 8), n=st.integers(1, 1024),
       half_width=st.sampled_from([0.0, 0.02, 0.3, 2.0]), zeros=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_perturb_rule_gives_the_bits_of_summing_along_each_row(length, stacks, n, half_width,
                                                               zeros, seed):
    # the draw-axis arithmetic (fewer than 8 entries) and the row sums (8 or
    # more, which numpy adds pairwise) against the row-by-row method; stacks
    # of 0 is one unstacked base. Zeros in the base and wide jitter make
    # entries clip, and with every entry at 0 a row collapses
    rng = np.random.default_rng(seed)
    base = rng.dirichlet(np.ones(length), size=stacks or None)
    if zeros:
        base[..., rng.integers(length)] = 0.0
    rule = PerturbRule(half_width)
    try:
        want = perturb_along_rows(rule, base, np.random.default_rng(seed + 1), n)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            rule.sample(base, np.random.default_rng(seed + 1), n)
        return
    got = rule.sample(base, np.random.default_rng(seed + 1), n)
    assert got.shape == base.shape[:-1] + (n, length) and same_bits(got, want)


@pytest.mark.parametrize("target, rule, message", [
    (("belief", "DT"), DirichletRule((math.nan, 1.0, 1.0)), "concentration must be positive"),
    (("belief", "DT"), PerturbRule(math.nan), "half_width must be nonnegative"),
    (("value_root", "AMV"), UniformRule(math.nan, 2.0), "empty interval"),
    # parameters the generator cannot draw from, and a rule of no rule type
    (("belief", "DT"), DirichletRule((math.inf, 1.0, 1.0)),
     "concentration must be positive and finite"),
    (("belief", "DT"), PerturbRule(math.inf), "half_width must be nonnegative, and twice it finite"),
    (("weights", "AU"), PerturbRule(1e308), "half_width must be nonnegative, and twice it finite"),
    (("value_root", "AMV"), UniformRule(1.0, math.inf), "bounds must stay positive and finite"),
    (("belief", "DT"), 0.5, "vector targets take point/dirichlet/perturb rules"),
    (("value_scale", "AMV"), 0.5, "scalar targets take uniform/point rules"),
], ids=["dirichlet", "perturb", "uniform", "dirichlet_inf", "perturb_inf", "perturb_range",
        "uniform_inf", "vector_not_a_rule", "scalar_not_a_rule"])
def test_a_nan_sampling_parameter_is_refused(drilling, target, rule, message):
    # NaN fails every comparison, so each check is written to fail it too;
    # each refusal names its target
    bad = ParameterUncertainty(rules={target: rule})
    with pytest.raises(ValueError, match=message) as refused:
        forecast_attack(drilling, default_beliefs(), bad, draws=1, seed=0)
    assert str(refused.value).startswith(f"{target!r}: ")


def test_a_constant_forecast_refuses_a_nan_probability(drilling):
    with pytest.raises(ValueError, match="must form a distribution"):
        AttackForecast.constant(drilling, "AP", {"perpetrate": math.nan, "no_perpetrate": 1.0})


def test_scalar_and_row_uncertainty_sampling(drilling):
    rules = ParameterUncertainty(rules={
        ("value_root", "AMV"): UniformRule(2.0, 4.0),
        ("cpt_row", "UC", ()): DirichletRule((2.0, 5.0)),
        ("belief", "DT"): DirichletRule((1.0, 1.0, 1.0)),
        ("belief", "DR"): DirichletRule((1.0, 1.0)),
    })
    fc = forecast_attack(drilling, default_beliefs(), rules, draws=64, seed=12)
    fc2 = forecast_attack(drilling, default_beliefs(), rules, draws=64, seed=12)
    assert fc.to_json() == fc2.to_json()
    for probs in fc.probabilities.values():
        assert sum(probs) == pytest.approx(1.0)


# parent-stream (one generator per draw) `solve --seed 1 --draws 10000`:
# P(perpetrate) per (DP, DF, UC) context, and the optimal policy
OLD_STREAM_DRAWS = 10_000
OLD_STREAM_PERPETRATE = {
    ("additional", "forensic", "normal"): 0.1263,
    ("additional", "forensic", "riskier"): 0.1545,
    ("additional", "no_forensic", "normal"): 0.1569,
    ("additional", "no_forensic", "riskier"): 0.1875,
    ("no_additional", "forensic", "normal"): 0.613,
    ("no_additional", "forensic", "riskier"): 0.6472,
    ("no_additional", "no_forensic", "normal"): 0.7614,
    ("no_additional", "no_forensic", "riskier"): 0.7837,
}
OLD_STREAM_POLICY = {"DF": {(): "no_forensic"}, "DP": {(): "additional"},
                     "DR": {("attack",): "stop", ("no_attack",): "continue"},
                     "DT": {(): "accept"}}


def test_block_stream_agrees_with_the_per_draw_stream(drilling):
    fc = forecast_attack(drilling, default_beliefs(), default_uncertainty(),
                         draws=OLD_STREAM_DRAWS, seed=1)
    assert set(fc.probabilities) == set(OLD_STREAM_PERPETRATE)
    n = OLD_STREAM_DRAWS
    for ctx, old in OLD_STREAM_PERPETRATE.items():
        new = fc.probability(ctx, "perpetrate")
        se = math.sqrt(old * (1 - old) / n + new * (1 - new) / n)
        assert abs(new - old) <= 4 * se, ctx
    assert solve_defender(drilling, fc).optimal.policy == OLD_STREAM_POLICY


def test_each_forecast_chunk_runs_only_the_batched_contraction_steps(drilling):
    # a structural stand-in for a timing test: on the shipped defaults, the
    # steps that read no sampled table run once, when the query is planned,
    # and the 2 einsum steps that do run once per 512-draw slice of a
    # 1,024-draw block. They are AMV's: the normaliser and ACV's numerator
    # depend on no sampled table, and the tape's result, a pure axis
    # relabel of its last step's output, is a transposed view
    calls, spy = spy_on(inference.np, "einsum")

    def einsums(draws):
        before = len(calls)
        fc = forecast_attack(drilling, default_beliefs(), default_uncertainty(),
                             draws=draws, seed=1)
        return len(calls) - before, fc.chunks

    with spy:
        single, one, two, three = (einsums(n) for n in (1, 512, ara.DRAW_BLOCK, 1025))
    assert single[0] == one[0] and single[1] == one[1] == 1
    assert two[0] - one[0] == 2 and two[1] == 2
    # the second block's one draw is a third slice
    assert three[0] - two[0] == 2 and three[1] == 3


FORECAST_RULES = {"default": lambda d: default_uncertainty(), "wide": wide_uncertainty}


def planned_query(run):
    """The one query that `run()` plans."""
    queries, plan = [], CompiledModel.utility_query

    def spy_plan(self, *args, **kwargs):
        queries.append(plan(self, *args, **kwargs))
        return queries[-1]

    with mock.patch.object(CompiledModel, "utility_query", spy_plan):
        run()
    (query,) = queries
    return query


def forecast_query(d, rules):
    """The query forecast_attack plans for `rules` on the shipped beliefs."""
    return planned_query(lambda: forecast_attack(d, default_beliefs(), rules, draws=1, seed=0))


@pytest.mark.parametrize("case, cells, chunk", [("default", 32, 512), ("wide", 72, 227)])
def test_forecast_chunk_is_the_most_draws_within_the_cap(drilling, case, cells, chunk):
    query = forecast_query(drilling, FORECAST_RULES[case](drilling))
    assert query.row_cells == cells
    got = query.chunk_rows(ara.DRAW_BLOCK)
    assert got == chunk and 1 <= got <= ara.DRAW_BLOCK
    # the most draws within the cap: one more would not fit
    assert cells * got * 8 <= inference.CHUNK_BYTES < cells * (got + 1) * 8
    # at least one draw when none fits, and at most one block when all do
    for cap, bound in ((0, 1), (2**40, ara.DRAW_BLOCK)):
        with mock.patch.object(inference, "CHUNK_BYTES", cap):
            assert query.chunk_rows(ara.DRAW_BLOCK) == bound


def test_no_evidence_plans_the_normaliser_away(drilling):
    # nothing the forecast or the policy search keeps has an ancestor with a
    # factor left in the contraction, so the normaliser is exactly 1
    forecast = AttackForecast.constant(drilling, "AP", {"perpetrate": 0.35,
                                                        "no_perpetrate": 0.65})
    queries = [forecast_query(drilling, rules(drilling)) for rules in FORECAST_RULES.values()]
    for query in queries + [planned_query(lambda: solve_defender(drilling, forecast))]:
        tape = query.norm_tape
        assert query.norm_inputs == () and tape.steps == [] and tape.constants == []
        assert np.array_equal(tape.execute([]), np.ones([1] * len(query.shape)))
    # the shipped forecast's ACV numerator reads no sampled table: a constant
    query = queries[0]
    acv = query.value_tapes["ACV"]
    assert query.value_inputs["ACV"] == () and acv.steps == [] and len(acv.constants) == 1
    # its weighted sum with AMV's batched numerator keeps the draw axis
    # innermost in memory, where the tally reads along it
    view = attacker_view(drilling, default_beliefs(), observed={"DP", "DF"})
    m = CompiledModel.compile(view)
    tables = {nid: ara._draw_first(m.prob_factors[nid].table, 8) for nid in ("DT", "DR")}
    eu = query.evaluate(tables, {"AMV": np.full(8, 0.97), "ACV": np.full(8, 0.03)})
    assert eu.shape == (8, 2, 2, 2, 2) and eu.strides[0] == eu.itemsize


def test_a_tape_or_normaliser_the_plan_fixed_gives_the_bits_of_executing_it(drilling):
    # the forecast and the policy search read every tape that no batched
    # table reaches from the plan, and divide by no Z; every chunk must
    # give the bits and mask of executing each tape and dividing by Z
    forecast = AttackForecast.constant(drilling, "AP", {"perpetrate": 0.35,
                                                        "no_perpetrate": 0.65})
    runs = {case: lambda rules=rules: forecast_attack(
                drilling, default_beliefs(), rules(drilling), draws=ara.DRAW_BLOCK, seed=5)
            for case, rules in FORECAST_RULES.items()}
    runs["search"] = lambda: solve_defender(drilling, forecast)
    fixed = {}
    for case, run in runs.items():
        calls, spy = spy_on(UtilityQuery, "evaluate")
        with spy:
            run()
        assert calls
        for query, tables, weights in calls:
            assert query.unit_norm and query.certain and query.norm_tape.result is not None
            fixed[case] = sorted(vid for vid, tape in query.value_tapes.items()
                                 if tape.result is not None)
            eu, possible = query.expected(tables, weights)
            slow_eu, slow_possible = executed_expected(query, tables, weights)
            assert same_bits(eu, slow_eu) and np.array_equal(possible, slow_possible)
            assert possible.all() and same_bits(query.evaluate(tables, weights), slow_eu)
    # the shipped forecast's ACV numerator and the search's AMV one read no
    # batched table
    assert fixed == {"default": ["ACV"], "wide": [], "search": []}

    # with evidence, Z is planned but is P(evidence), not 1, so it still
    # divides; evidence that a factor left out of Z makes impossible leaves
    # Z at 1 but still raises
    m = CompiledModel.compile(drilling)
    for ap, evidence, divides in (("perpetrate", {"UM": "loss_0_1m"}, True),
                                  ("no_perpetrate", {"UA": "attack"}, False)):
        policy = constant_policy(drilling, {"DP": "additional", "DF": "forensic", "DT": "accept",
                                            "DR": "continue", "AP": ap})
        query = m.utility_query("defender", policy, evidence, [])
        assert query.norm_tape.result is not None and query.unit_norm != divides
        eu, possible = query.expected()
        slow_eu, slow_possible = executed_expected(query)
        assert same_bits(eu, slow_eu) and np.array_equal(possible, slow_possible)
        assert possible.all() == divides and not query.certain
        if divides:
            assert same_bits(query.evaluate(), slow_eu)
        else:
            with pytest.raises(ImpossibleEvidenceError):
                query.evaluate()


def test_every_forecast_and_search_tape_gives_the_bits_of_its_einsum_steps(drilling):
    # each tape execution of both forecasts, over two blocks and chunks of
    # 227, 116 and 68 draws, and of the policy search, replayed with every
    # step an einsum, a gathered one too
    forecast = AttackForecast.constant(drilling, "AP", {"perpetrate": 0.35,
                                                        "no_perpetrate": 0.65})
    runs = {case: lambda rules=rules: forecast_attack(
                drilling, default_beliefs(), rules(drilling), draws=2000, seed=5)
            for case, rules in FORECAST_RULES.items()}
    runs["search"] = lambda: solve_defender(drilling, forecast)
    execute, takes = ContractionTape.execute, {}
    for case, run in runs.items():
        replays = []

        def spy(tape, tables):
            got = execute(tape, tables)
            replays.append(same_bits(got, replayed(tape, tables)))
            return got
        calls, take = spy_on(inference.np, "take")
        with mock.patch.object(ContractionTape, "execute", spy), take:
            result = run()
        assert replays and all(replays), case
        takes[case] = (len(calls), getattr(result, "chunks", None))
    # the wide forecast gathers once per chunk, in AMV's tape; nothing else does
    assert takes == {"default": (0, 4), "wide": (10, 10), "search": (0, None)}

    # and the gathered step is AMV's elimination of DC against DC's table
    view = attacker_view(drilling, default_beliefs(), observed={"DP", "DF"})
    dc = CompiledModel.compile(view).prob_factors["DC"].table
    for case, rules in FORECAST_RULES.items():
        query = forecast_query(drilling, rules(drilling))
        gathered = {vid: [i for i, g in enumerate(tape.gathers) if g is not None]
                    for vid, tape in query.value_tapes.items()}
        if case == "default":
            assert gathered == {"AMV": [], "ACV": []}
            continue
        assert gathered == {"AMV": [0], "ACV": []}
        tape, inputs = query.value_tapes["AMV"], query.value_inputs["AMV"]
        (_, operands), _ = tape.steps[0], tape.gathers[0]
        fixed = [tape.constants[i - len(inputs)] for i in operands if i >= len(inputs)]
        assert len(fixed) == 1 and np.array_equal(fixed[0], dc)
        assert [inputs[i] for i in operands if i < len(inputs)] == ["AMV"]


# the forecasts that sample probability or score tables: the two above, and
# the money value's scale and root on top of the shipped rules
SAMPLED_PLANS = {**FORECAST_RULES, "scores": lambda d: ParameterUncertainty({
    ("value_scale", "AMV"): UniformRule(8e6, 1.2e7), ("value_root", "AMV"): UniformRule(2.5, 3.5),
    **default_uncertainty().rules})}


@pytest.mark.parametrize("case", list(SAMPLED_PLANS))
def test_a_cost_ordered_forecast_matches_its_deepest_first_plan(drilling, case):
    # every chunk of two blocks against the deepest-first plan of the same
    # query, on the same sampled tables; then the whole forecast's tallies
    rules = SAMPLED_PLANS[case](drilling)
    slow = deepest_first(lambda: forecast_query(drilling, rules))
    evaluate, agree = UtilityQuery.evaluate, []

    def spy(query, tables, weights):
        got, want = evaluate(query, tables, weights), evaluate(slow, tables, weights)
        agree.append(bool(np.all(np.abs(got - want) <= 1e-12 * np.abs(want))))
        return got
    with mock.patch.object(UtilityQuery, "evaluate", spy):
        fast = forecast_attack(drilling, default_beliefs(), rules, draws=2000, seed=5)
    assert len(agree) == fast.chunks and all(agree)
    assert fast.to_json() == deepest_first(lambda: forecast_attack(
        drilling, default_beliefs(), rules, draws=2000, seed=5)).to_json()
    query = forecast_query(drilling, rules)
    assert all(tape.row_ops <= slow.value_tapes[vid].row_ops
               for vid, tape in query.value_tapes.items())


def test_the_shipped_plans_per_row_cost(drilling):
    # multiply-adds and largest batched array per row, by value tape, in
    # the order each plan takes and deepest-first; a gather counts one copy
    # per output cell, and a tape the plan fixed whole costs nothing
    forecast = AttackForecast.constant(drilling, "AP", {"perpetrate": 0.35,
                                                        "no_perpetrate": 0.65})
    plans = {case: lambda rules=rules: forecast_query(drilling, rules(drilling))
             for case, rules in SAMPLED_PLANS.items()}
    plans["search"] = lambda: planned_query(lambda: solve_defender(drilling, forecast))
    costs = {(case, order): {vid: (tape.row_ops, tape.row_cells)
                             for vid, tape in query.value_tapes.items()}
             for case, plan in plans.items()
             for order, query in (("planned", plan()), ("deepest", deepest_first(plan)))}
    assert costs == {
        ("default", "planned"): {"AMV": (128, 32), "ACV": (0, 1)},
        ("default", "deepest"): {"AMV": (128, 32), "ACV": (0, 1)},
        ("wide", "planned"): {"AMV": (304, 72), "ACV": (32, 8)},
        ("wide", "deepest"): {"AMV": (680, 96), "ACV": (64, 16)},
        ("scores", "planned"): {"AMV": (680, 96), "ACV": (0, 1)},
        ("scores", "deepest"): {"AMV": (680, 96), "ACV": (0, 1)},
        ("search", "planned"): {"DCV": (282, 48), "DHV": (162, 24)},
        ("search", "deepest"): {"DCV": (282, 48), "DHV": (162, 24)},
    }


@contextlib.contextmanager
def planned_afresh():
    """Each query planned in the block, with the same query planned on a
    diagram that was never compiled, so through an empty plan memo: a list
    of (query, fresh query) pairs, filled when the block ends."""
    planned, pairs, plan = [], [], CompiledModel.utility_query

    def spy(self, *args, **kwargs):
        planned.append((self.diagram, args, kwargs, plan(self, *args, **kwargs)))
        return planned[-1][-1]
    with mock.patch.object(CompiledModel, "utility_query", spy):
        yield pairs
    pairs += [(query, plan(CompiledModel.compile(fresh(d)), *args, **kwargs))
              for d, args, kwargs, query in planned]


def walks(run):
    """The elimination walks `run()` makes, and its result."""
    calls, spy = spy_on(inference._Elimination, "__call__")
    with spy:
        result = run()
    return len(calls), result


def arrays_in(value):
    """Every numpy array or scalar inside nested tuples, lists and dicts."""
    if isinstance(value, (np.ndarray, np.generic)):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        return [a for item in value for a in arrays_in(item)]
    return []


def test_a_forecast_or_search_replays_the_plans_of_its_diagram_family(drilling):
    # the parsed diagram, its attacker's view and each forecast-applied
    # model share one plan memo. Every query, planned first or replayed,
    # must equal the query planned through an empty memo; a repeated
    # forecast and search plans nothing
    d = fresh(drilling)
    view = attacker_view(d, default_beliefs(), observed={"DP", "DF"})
    with planned_afresh() as pairs:
        for _ in range(2):
            for dp, df in DP_DF:
                best_response(view, "attacker", {"DP": dp, "DF": df})
        for rules in FORECAST_RULES.values():
            for seed in (1, 2, 77):
                count, forecast = walks(lambda: forecast_attack(
                    d, default_beliefs(), rules(d), draws=300, seed=seed))
                count += walks(lambda: solve_defender(d, forecast))[0]
                assert count == 0 or seed == 1, count
        # a sampled forecast, then a one-hot one: the walk looked at no
        # one-hot fact of AP's table, so the search replays its plan
        one_hot = AttackForecast.constant(d, "AP", {"perpetrate": 1.0, "no_perpetrate": 0.0})
        count, solution = walks(lambda: solve_defender(d, one_hot))
        assert count == 0
    assert len(pairs) == 4 * 2 + 2 * 3 * 2 + 1
    for query, want in pairs:
        assert_queries_alike(query, want)
    assert solution.optimal == solve_defender(fresh(d), one_hot).optimal
    # the memo keeps structure: its only arrays are the takes' integer indices
    memo = CompiledModel.compile(d).plans
    assert memo and CompiledModel.compile(view).plans is memo
    assert all(a.dtype.kind == "i" for a in arrays_in(memo))


def observed_attack_model() -> str:
    """The defender's one decision D observes the attacker's A, whose payoff
    depends on A and D: the search eliminates D against its score table,
    then A against A's forecast table alone, a take where that table is
    one-hot."""
    return "\n".join([
        "agent def kind=defender", "agent att kind=attacker",
        "node A kind=decision agent=att domain=go,stay",
        "node D kind=decision agent=def domain=x,y", "arc A -> D",
        "node V kind=value agent=def", "arc D -> V", "value V form=indicator one=x zero=y",
        "node W kind=value agent=att", "arc A -> W", "arc D -> W",
        "value W form=table | A=go,D=x : 0", "value W form=table | A=go,D=y : 1",
        "value W form=table | A=stay,D=x : 0.4", "value W form=table | A=stay,D=y : 0.4",
        "node UD kind=utility agent=def", "arc V -> UD", "utility UD weights V=1",
        "node UA kind=utility agent=att", "arc W -> UA", "utility UA weights W=1",
        "order def D", "order att A"]) + "\n"


def test_a_one_hot_forecast_replans_a_search_whose_take_it_changes():
    d = parse_model(observed_attack_model())
    rules = ParameterUncertainty({("belief", "D"): DirichletRule((2.0, 2.0))})
    forecast = forecast_attack(d, {"D": {"x": 0.5, "y": 0.5}}, rules, draws=500, seed=1)
    assert 0.0 < forecast.probabilities[()][0] < 1.0
    one_hot = AttackForecast.constant(d, "A", {"go": 1.0, "stay": 0.0})
    with planned_afresh() as pairs:
        assert walks(lambda: solve_defender(d, forecast))[0] > 0
        assert walks(lambda: solve_defender(d, forecast))[0] == 0
        assert walks(lambda: solve_defender(d, one_hot))[0] > 0
    for query, want in pairs:
        assert_queries_alike(query, want)
    takes = [sum(g is not None for g in query.value_tapes["V"].gathers) for query, _ in pairs]
    assert takes == [1, 1, 2]


def test_evidence_on_um_keeps_the_normaliser_and_matches_the_oracle(drilling):
    view = attacker_view(drilling, default_beliefs(), observed={"DP", "DF"})
    m = CompiledModel.compile(view)
    keep = ["DP", "DF", "UC", "AP"]
    tables = {nid: m.prob_factors[nid].table[None] for nid in ("DT", "DR")}
    for label in view.nodes["UM"].domain.labels:
        query = m.utility_query("attacker", {}, {"UM": label}, keep, batched={"DT", "DR"})
        # UM's ancestors: UA (under the free AP and DP), UC and the sampled DR
        assert query.norm_inputs == ("DR",) and query.norm_tape.steps
        assert set(query.inputs) == {"DR", "DT"}
        eu = query.evaluate(tables)
        for idx in np.ndindex(*eu.shape[1:]):
            cell = {v: view.nodes[v].domain.labels[i] for v, i in zip(keep, idx)}
            policy = constant_policy(view, {v: cell[v] for v in ("DP", "DF", "AP")})
            oracle = enumerate_expected_utility(view, "attacker", policy,
                                                {"UC": cell["UC"], "UM": label})
            assert eu[(0,) + idx] == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("case", list(FORECAST_RULES))
@pytest.mark.parametrize("draws", [1, 300, 1000, 1023, 1024, 1025, 1337, 2000])
def test_forecast_is_the_same_whatever_the_chunk(drilling, case, draws):
    # draw counts on both sides of the first block's end, most of which no
    # chunk divides
    rules = FORECAST_RULES[case](drilling)

    def run(cap):
        with mock.patch.object(inference, "CHUNK_BYTES", cap):
            return forecast_attack(drilling, default_beliefs(), rules, draws=draws, seed=7)

    derived = forecast_attack(drilling, default_beliefs(), rules, draws=draws, seed=7)
    one_draw, whole_blocks = run(0), run(2**40)
    assert one_draw.chunks == draws and whole_blocks.chunks == ara.block_count(draws)
    # each block is sliced on its own: the last one holds the rest of the draws
    chunk = forecast_query(drilling, rules).chunk_rows(ara.DRAW_BLOCK)
    full, rest = divmod(draws, ara.DRAW_BLOCK)
    assert derived.chunks == full * math.ceil(ara.DRAW_BLOCK / chunk) + math.ceil(rest / chunk)
    for other in (one_draw, whole_blocks):
        assert other == derived and other.to_json() == derived.to_json()


@pytest.mark.parametrize("case", list(FORECAST_RULES))
def test_a_contraction_of_the_wrong_number_of_draws_is_refused(drilling, case):
    # a slice that runs past the end of its block comes back short; its one
    # row must not be broadcast over the draws it stands for
    inputs = ara._DrawBlock.inputs

    def short(self, lo, hi):
        return inputs(self, lo, lo + 1)

    with mock.patch.object(ara._DrawBlock, "inputs", short), \
            pytest.raises(RuntimeError, match=r"batch rows \[0, 100\) gave 1 rows, not 100"):
        forecast_attack(drilling, default_beliefs(), FORECAST_RULES[case](drilling),
                        draws=100, seed=7)


def test_a_policy_search_contraction_of_the_wrong_number_of_policies_is_refused(drilling):
    # the shipped model's 48 policies are one chunk; one row of result must
    # not be broadcast over the policies it stands for
    evaluate = UtilityQuery.evaluate

    def short(self, tables, weights):
        return evaluate(self, tables, weights)[:1]

    forecast = AttackForecast.constant(drilling, "AP", {"perpetrate": 0.35,
                                                        "no_perpetrate": 0.65})
    with mock.patch.object(UtilityQuery, "evaluate", short), \
            pytest.raises(RuntimeError, match=r"batch rows \[0, 48\) gave 1 rows, not 48"):
        solve_defender(drilling, forecast)


def test_a_table_for_a_node_the_query_did_not_batch_is_rejected(drilling):
    view = attacker_view(drilling, default_beliefs(), observed={"DP", "DF"})
    m = CompiledModel.compile(view)
    query = m.utility_query("attacker", {}, {}, ["DP", "DF", "UC", "AP"], batched={"DT"})
    dt = np.moveaxis(np.repeat(m.prob_factors["DT"].table[:, None], 4, axis=1), -1, 0)
    assert query.expected({"DT": dt})[0].shape == (4, 2, 2, 2, 2)
    with pytest.raises(ValueError, match="'DR'.* did not batch"):
        query.expected({"DT": dt, "DR": m.prob_factors["DR"].table})
    with pytest.raises(ValueError, match="no table given for batched node.*'DT'"):
        query.expected({})


def test_policy_search_builds_each_rule_table_once(drilling):
    # each chunk's table of a decision is the stack of `rule_factor` over the
    # chunk's policies, taken in itertools.product order; no rule_factor
    # call builds them
    forecast = AttackForecast.constant(drilling, "AP", {"perpetrate": 0.35,
                                                        "no_perpetrate": 0.65})
    solved = apply_forecast(drilling, forecast)
    m = CompiledModel.compile(solved)
    decisions = sorted(n.id for n in solved.decisions_of("defender"))
    policies = [dict(zip(decisions, combo)) for combo in
                itertools.product(*(ara._all_rules(solved, dec) for dec in decisions))]
    for cap in (0, 1000, inference.CHUNK_BYTES):
        evaluated, evaluate_spy = spy_on(UtilityQuery, "evaluate")
        built, rule_spy = spy_on(CompiledModel, "rule_factor")
        with evaluate_spy, rule_spy, mock.patch.object(inference, "CHUNK_BYTES", cap):
            solution = solve_defender(drilling, forecast)
        assert [nid for _, nid, _ in built if nid in decisions] == []
        rows = max(1, cap // (48 * 8))   # 48 cells per policy: 1, 2 and 341 policies
        assert len(evaluated) == math.ceil(48 / rows)
        lo = 0
        for _, tables, weights in evaluated:
            chunk = policies[lo:lo + rows]
            for dec in decisions:
                oracle = np.stack([m.rule_factor(dec, p[dec]).table for p in chunk])
                assert tables[dec].dtype == oracle.dtype and np.array_equal(tables[dec], oracle)
            assert weights is None
            lo += len(chunk)
        assert lo == len(policies) == 48
        assert sorted(map(policy_content, (r.policy for r in solution.ranking))) == \
            sorted(map(policy_content, policies))


def policy_content(policy) -> tuple:
    """A policy's content as the search orders ties in EU: each decision's
    rule as its sorted items, decisions in sorted order."""
    return tuple((dec, tuple(sorted(policy[dec].items()))) for dec in sorted(policy))


def test_the_ranking_orders_ties_by_policy_content(drilling):
    forecast = AttackForecast.constant(drilling, "AP", {"perpetrate": 0.35,
                                                        "no_perpetrate": 0.65})
    ranking = solve_defender(drilling, forecast).ranking
    assert [r.policy for r in ranking] == [r.policy for r in sorted(
        ranking, key=lambda r: (-r.expected_utility, policy_content(r.policy)))]
    # every policy ties when D's value scores each alternative 1; labels x0
    # to x11 sort x0, x1, x10, x11, x2, ..., not in the order enumerated
    d, forecast = wide_search(12)
    v = d.nodes["V"]
    flat = d.replace_nodes([replace(v, payload=replace(v.payload, scale=math.inf))])
    ranking = solve_defender(flat, forecast).ranking
    assert len({r.expected_utility for r in ranking}) == 1
    assert [r.policy["D"][()] for r in ranking] == sorted(f"x{i}" for i in range(12))


def wide_search(alternatives: int):
    d = parse_model(wide_decision_model(alternatives))
    return d, AttackForecast("A", (), ("go", "stay"), {(): (0.4, 0.6)}, draws=1, seed=0)


@pytest.mark.parametrize("model", ["shipped", "wide"])
def test_policy_ranking_is_the_same_whatever_the_chunk(drilling, model):
    if model == "shipped":
        d = drilling
        forecast = forecast_attack(d, default_beliefs(), default_uncertainty(), draws=300,
                                   seed=21)
    else:
        d, forecast = wide_search(ara.MAX_POLICIES)
    derived = solve_defender(d, forecast)
    for cap in (0, 2**40):
        with mock.patch.object(inference, "CHUNK_BYTES", cap):
            assert solve_defender(d, forecast).ranking == derived.ranking
    if model == "wide":  # D's money tag 0 scores best: 0.5 * 1 + 0.5 * P(stay)
        assert derived.optimal.policy == {"D": {(): "x0"}}
        assert derived.optimal.expected_utility == pytest.approx(0.8, abs=1e-15)


def test_a_search_over_the_most_policies_is_bounded_by_a_chunk():
    # a parentless decision with MAX_POLICIES alternatives: stacking one
    # one-hot row per policy peaked at 66 MiB under tracemalloc
    d, forecast = wide_search(ara.MAX_POLICIES)
    tracemalloc.start()
    try:
        solution = solve_defender(d, forecast)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(solution.ranking) == ara.MAX_POLICIES
    assert peak < 8 * 2**20


def test_perturb_rule_keeps_weights_normalized():
    rows = PerturbRule(0.02).sample(np.array([0.03, 0.97]), np.random.default_rng(0), 50)
    assert rows.shape == (50, 2)
    assert rows.sum(axis=1) == pytest.approx(np.ones(50), abs=1e-12)
    assert (rows >= 0).all()


def test_perturb_rule_rejects_a_block_with_a_collapsed_row():
    # each row collapses when both entries jitter to <= 0 (chance 1/8)
    rule, base = PerturbRule(0.01), np.array([0.005, 0.0])
    with pytest.raises(ValueError, match="zero mass"):
        rule.sample(base, np.random.default_rng(0), ara.DRAW_BLOCK)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), block=st.integers(0, 2**20),
       rows=st.integers(1, ara.DRAW_BLOCK),
       half_width=st.floats(0.0, 0.05), alpha=st.floats(0.05, 20.0))
def test_batched_sampling_equals_one_target_at_a_time(drilling, seed, block, rows,
                                                      half_width, alpha):
    # the 8 UM rows share one perturb rule, both UCA rows one Dirichlet rule
    # and AMV's two scalars one uniform rule, so each run draws in one call;
    # the sequential loop draws every target's whole block on its own, in
    # the same order, from one generator, and a block of fewer rows keeps
    # the first of them
    rules = {**wide_uncertainty(drilling).rules,
             ("value_scale", "AMV"): UniformRule(2.0, 3.0),
             ("value_root", "AMV"): UniformRule(2.0, 3.0)}
    for row in drilling.nodes["UM"].payload.rows:
        rules[("cpt_row", "UM", row)] = PerturbRule(half_width)
    for row in (("attack", "forensic"), ("attack", "no_forensic")):
        rules[("cpt_row", "UCA", row)] = DirichletRule((alpha, alpha))
    view = attacker_view(drilling, default_beliefs(), observed={"DP", "DF"})
    block_of = ara._DrawBlock(view, CompiledModel.compile(view), ParameterUncertainty(rules),
                              view.utility_node_of("attacker"), rows)
    assert [len(slots) for _, _, slots, _ in block_of.runs] == [1, 1, 2, 8, 2, 1]
    assert [t for *_, targets in block_of.runs for t in targets] == block_of.targets
    bases = [slot[0].copy() if slot.ndim > 1 else float(slot[0]) for slot in block_of.slots]
    block_of.sample(seed, block)
    rng = ara._draw_rng(seed, block)
    for target, base, slot in zip(block_of.targets, bases, block_of.slots):
        alone = rules[target].sample(base, rng, ara.DRAW_BLOCK)
        assert len(slot) == rows and np.array_equal(slot, alone[:rows]), target


def test_a_collapsed_row_inside_a_stacked_run_is_rejected():
    # only the middle base can collapse (both entries jitter to <= 0)
    bases = np.array([[0.5, 0.5], [0.005, 0.0], [0.5, 0.5]])
    with pytest.raises(ValueError, match="zero mass"):
        PerturbRule(0.01).sample(bases, np.random.default_rng(0), ara.DRAW_BLOCK)


def test_a_refused_draw_names_its_targets_and_block(drilling):
    rules = {("belief", "DT"): PerturbRule(1e6)}
    with pytest.raises(ValueError, match=r"^sampling \('belief', 'DT'\) in block 0 \(draws "
                                         r"from 0\): perturbed vector collapsed to zero mass$"):
        forecast_attack(drilling, default_beliefs(), ParameterUncertainty(rules),
                        draws=2000, seed=0)
    # a run of stacked rows names every target in it, and a later block its number
    rows = [("cpt_row", "UM", row) for row in drilling.nodes["UM"].payload.rows]
    view = attacker_view(drilling, default_beliefs(), observed={"DP", "DF"})
    block = ara._DrawBlock(view, CompiledModel.compile(view),
                           ParameterUncertainty({t: PerturbRule(1e6) for t in rows}),
                           view.utility_node_of("attacker"), 10)
    assert len(block.runs) == 1 and sorted(block.targets) == sorted(rows)
    with pytest.raises(ValueError, match="zero mass") as refused:
        block.sample(0, 7)
    assert str(refused.value).startswith(
        f"sampling {', '.join(map(repr, block.targets))} in block 7 (draws from 7168): ")


@pytest.mark.parametrize("length", [7, 10])  # summed left to right, and by numpy
def test_perturb_rule_refuses_a_mass_past_the_largest_float_without_a_warning(length):
    # a half-width that `_check_rule` takes: twice it is finite
    rule, base = PerturbRule(8e307), np.full(length, 1 / length)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflowed"):
            rule.sample(base, np.random.default_rng(0), 4)


def test_no_numpy_warning_reaches_the_cli_for_a_huge_perturbation():
    code = ("import sys; from araid import ara, cli, drilling; "
            "drilling.default_uncertainty = lambda: ara.ParameterUncertainty("
            "{('belief', 'DT'): ara.PerturbRule(8e307)}); "
            "sys.exit(cli.main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", code, "solve", str(data_path("drilling.maid")),
                           "--draws", "2000", "--seed", "0"], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "Warning" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith(
        "error: sampling ('belief', 'DT') in block 0 (draws from 0): perturbed vector")


def test_dirichlet_rule_rejects_a_length_mismatch():
    with pytest.raises(ValueError, match="concentration length"):
        DirichletRule((1.0, 1.0)).sample(np.full(3, 1 / 3), np.random.default_rng(0), 4)


def test_point_rule_rows_equal_the_base():
    rng = np.random.default_rng(0)
    base = np.array([0.2, 0.8])
    assert np.array_equal(PointRule().sample(base, rng, 5), np.tile(base, (5, 1)))
    assert np.array_equal(PointRule().sample(3.5, rng, 5), np.full(5, 3.5))


def test_uniform_rule_values_lie_in_the_interval():
    values = UniformRule(2.0, 3.0).sample(2.5, np.random.default_rng(0), ara.DRAW_BLOCK)
    assert values.shape == (ara.DRAW_BLOCK,)
    assert ((values >= 2.0) & (values <= 3.0)).all()


# -- defender optimization -------------------------------------------------------

def test_no_attack_forecast_prefers_accept_and_continue(drilling):
    forecast = AttackForecast.constant(
        drilling, "AP", {"perpetrate": 0.0, "no_perpetrate": 1.0})
    solution = solve_defender(drilling, forecast)
    best = solution.optimal
    assert best.choice("DT") == "accept"
    assert best.choice("DP") == "no_additional"
    assert best.choice("DF") == "no_forensic"
    assert best.choice("DR", ("no_attack",)) == "continue"
    assert best.expected_utility == pytest.approx(0.998035, abs=1e-6)
    assert len(solution.ranking) == 48
    # the attack branch of the DR rule is unreachable, so two policies tie
    assert len(solution.ties) == 2


def test_certain_attack_forecast_solution(drilling):
    forecast = AttackForecast.constant(
        drilling, "AP", {"perpetrate": 1.0, "no_perpetrate": 0.0})
    solution = solve_defender(drilling, forecast)
    best = solution.optimal
    # protection pays off once the attack decision is certain: the engine's
    # policy enumeration beats the share/stop reading of the published table
    # because P(attack event | perpetrate) stays well below 1
    assert best.choice("DP") == "additional"
    assert best.choice("DT") == "accept"
    assert best.choice("DR", ("attack",)) == "stop"
    assert best.choice("DR", ("no_attack",)) == "continue"
    assert best.expected_utility == pytest.approx(0.99764845, abs=1e-8)


def test_solution_is_internally_consistent(drilling):
    forecast = forecast_attack(drilling, default_beliefs(), default_uncertainty(),
                               draws=300, seed=21)
    solution = solve_defender(drilling, forecast)
    top = max(r.expected_utility for r in solution.ranking)
    assert solution.optimal.expected_utility == top
    assert solution.ranking[0] is solution.optimal
    eus = [r.expected_utility for r in solution.ranking]
    assert eus == sorted(eus, reverse=True)


def test_solution_matches_direct_policy_evaluation(drilling):
    forecast = AttackForecast.constant(
        drilling, "AP", {"perpetrate": 0.35, "no_perpetrate": 0.65})
    solved = apply_forecast(drilling, forecast)
    solution = solve_defender(drilling, forecast)
    for ranked in solution.ranking[:8]:
        eu = expected_utility(solved, "defender", ranked.policy)
        # exact on this model, although the search multiplies by batched 0/1
        # rule tables where expected_utility slices constant rules away
        assert eu == ranked.expected_utility


def test_apply_forecast_requires_matching_contexts(drilling):
    forecast = AttackForecast.constant(
        drilling, "AP", {"perpetrate": 0.5, "no_perpetrate": 0.5})
    probabilities = dict(forecast.probabilities)
    probabilities.pop(("additional", "forensic", "riskier"))
    broken = AttackForecast(decision="AP", context_nodes=forecast.context_nodes,
                            alternatives=forecast.alternatives,
                            probabilities=probabilities, draws=0, seed=0)
    with pytest.raises(ValueError, match="context missing from forecast"):
        apply_forecast(drilling, broken)


@pytest.mark.parametrize("call, message", [
    (lambda d: best_response(attacker_view(d, default_beliefs(), observed={"DP", "DF"}),
                             "attacker", {"DP": "additional", "DF": "forensic", "ZZ": "x"}),
     "unknown context node 'ZZ'"),
    (lambda d: AttackForecast.constant(d, "ZZ", {"perpetrate": 1.0}),
     "'ZZ' is not a decision node"),
    (lambda d: apply_forecast(d, AttackForecast("ZZ", (), ("perpetrate",), {(): (1.0,)},
                                                draws=0, seed=0)),
     "'ZZ' is not a decision node"),
], ids=["best_response", "constant_forecast", "apply_forecast"])
def test_an_unknown_node_id_is_named(drilling, call, message):
    with pytest.raises(ValueError, match=message):
        call(drilling)


def test_an_intractable_policy_search_is_refused_before_enumerating():
    d = parse_model(wide_observer_model())
    forecast = AttackForecast("A", (), ("go", "stay"), {(): (0.5, 0.5)}, draws=1, seed=0)
    with mock.patch.object(ara, "_all_rules", side_effect=AssertionError) as spy:
        with pytest.raises(ValueError, match=r"3\*\*243 policies.*decision 'D' has 3 "
                                             r"alternatives over 243 information states"):
            solve_defender(d, forecast)
    spy.assert_not_called()


def test_the_policy_cap_admits_the_shipped_model_and_refuses_one_more(drilling):
    forecast = forecast_attack(drilling, default_beliefs(), ParameterUncertainty(),
                               draws=1, seed=0)
    assert len(solve_defender(drilling, forecast).ranking) == 48
    with mock.patch.object(ara, "MAX_POLICIES", 47):
        with pytest.raises(ValueError, match="at least 48 policies"):
            solve_defender(drilling, forecast)


# -- no contraction reads a sampled table ---------------------------------------

@pytest.mark.parametrize("target, rule", [
    (("value_scale", "DCV"), UniformRule(1e6, 2e6)),
    (("cpt_row", "URH", ("no_casualties", "avoid")), DirichletRule((1.0, 1.0))),
], ids=["defender_value", "unread_cpt_row"])
def test_a_sampled_table_that_no_contraction_reads_leaves_the_forecast_as_stated(
        drilling, target, rule):
    # the attacker's utility reads neither node, so every tape is planned and
    # the batched query's one row stands for every draw
    stated = forecast_attack(drilling, default_beliefs(), ParameterUncertainty(),
                             draws=3000, seed=1)
    sampled = forecast_attack(drilling, default_beliefs(), ParameterUncertainty({target: rule}),
                              draws=3000, seed=1)
    assert sampled == stated


def linear_amv(d):
    """The shipped model with AMV scored by a linear form, which has no root."""
    return parse_model(serialize_model(d).replace(
        "value AMV form=power_root scale=10000000.0 root=3.0",
        "value AMV form=linear scale=10000000.0 offset=1.0"))


def test_a_root_target_on_a_linear_value_is_refused(drilling):
    d = linear_amv(drilling)
    assert d.nodes["AMV"].payload.form == "linear"
    rules = ParameterUncertainty({("value_root", "AMV"): UniformRule(2.5, 3.5)})
    with pytest.raises(ValueError, match=r"\('value_root', 'AMV'\): scalar targets need a "
                                         r"value form with a root"):
        forecast_attack(d, default_beliefs(), rules, draws=10, seed=1)
    # its scale is a parameter of the linear form, so it is still sampled
    rules = ParameterUncertainty({("value_scale", "AMV"): UniformRule(8e6, 1.2e7)})
    assert forecast_attack(d, default_beliefs(), rules, draws=10, seed=1).draws == 10


# -- refusals -----------------------------------------------------------------

def forecast_with(target, rule=PointRule(), draws=1):
    """A forecast of the shipped model on its default beliefs under one rule."""
    return lambda d: forecast_attack(d, default_beliefs(), ParameterUncertainty({target: rule}),
                                     draws=draws, seed=0)


def shipped_view(d):
    return attacker_view(d, default_beliefs(), observed={"DP", "DF"})


def constant_fc(d, **changes):
    fc = AttackForecast.constant(d, "AP", {"perpetrate": 0.35, "no_perpetrate": 0.65})
    return replace(fc, **changes)


@pytest.mark.parametrize("call, message", [
    (lambda d: attacker_view(parse_model(chain_model(2)), {}, set()),
     r"diagram needs exactly one attacker agent, found \[\]"),
    (lambda d: attacker_view(d, {"UC": {"riskier": 0.5, "normal": 0.5}}, set()),
     "belief target 'UC' is not a decision node"),
    (lambda d: attacker_view(d, {"AP": {"perpetrate": 0.5, "no_perpetrate": 0.5}}, set()),
     "belief target 'AP' is the attacker's own decision, not an opponent's"),
    (lambda d: attacker_view(d, {"DT": {"avoid": 1.0}}, set()),
     "belief for 'DT' must cover exactly its alternatives"),
    (lambda d: best_response(d, "defender", {}),
     r"expected exactly one free decision for 'defender', found \['DF', 'DP', 'DT', 'DR'\]"),
    (lambda d: best_response(shipped_view(d), "attacker", {"DP": "additional"}),
     r"context must pin decision\(s\) \['DF'\]"),
    (lambda d: best_response(shipped_view(d), "attacker",
                             {"DP": "additional", "DF": "forensic", "AMV": "junk"}),
     "evidence keys must be chance/deterministic nodes, got 'AMV'"),
    (lambda d: best_response(shipped_view(d), "attacker",
                             {"DP": "additional", "DF": "forensic", "UC": "bogus"}),
     "evidence label 'bogus' not in domain of 'UC'"),
    (lambda d: best_response(shipped_view(d), "attacker",
                             {"DP": "additional", "DF": "forensic", "AP": "junk"}),
     "'junk' is not an alternative of 'AP'"),
    (forecast_with(("belief", "URH")),
     "belief targets must be parentless chance nodes in the attacker view"),
    (forecast_with(("cpt_row", "URH", ("casualties", "nope"))), "no such CPT row"),
    (forecast_with(("weights", "AMV")), "weights target must be a utility node"),
    (forecast_with(("weights", "DU"), DirichletRule((1.0, 1.0))),
     "only the attacker's utility weights can be sampled"),
    (forecast_with(("value_scale", "DHV")),
     "scalar targets need a value form with a scale"),
    (forecast_with(("value_scale", "AMV"), DirichletRule((1.0,))),
     "scalar targets take uniform/point rules"),
    (forecast_with(("spread", "AMV")), "unknown uncertainty target kind 'spread'"),
    (forecast_with(("belief", "DT"), draws=0), "draws must be >= 1"),
    (lambda d: forecast_attack(parse_model(chain_model(2) + "agent att kind=attacker\n"),
                               {}, ParameterUncertainty(), draws=1, seed=0),
     r"attacker must have exactly one decision, found \[\]"),
    (forecast_with(("belief", "DT"), draws=2**62),
     f"draws must be <= {np.iinfo(np.int64).max // 2} to tally 2 alternatives exactly"),
    (lambda d: apply_forecast(d, constant_fc(d, context_nodes=("DP",))),
     r"forecast contexts \('DP',\) do not match the information set \('DP', 'DF', 'UC'\)"),
    (lambda d: apply_forecast(d, constant_fc(d, alternatives=("no_perpetrate", "perpetrate"))),
     "forecast alternatives do not match the decision's domain"),
], ids=["one_attacker", "belief_not_decision", "belief_own_decision", "belief_alternatives",
        "one_free_decision", "pin_decisions", "context_value_node", "context_label",
        "context_own_label", "belief_parentless", "cpt_row", "weights_utility",
        "attacker_weights", "scalar_analytic", "scalar_rule", "target_kind", "draws_positive",
        "one_attacker_decision", "draws_int64", "forecast_contexts", "forecast_alternatives"])
def test_each_setup_view_target_and_forecast_refusal_names_its_cause(drilling, call, message):
    with pytest.raises(ValueError, match=message):
        call(drilling)


def test_a_best_response_leaves_its_own_decision_free_when_the_context_names_it(drilling):
    view = shipped_view(drilling)
    context = {"DP": "additional", "DF": "forensic"}
    pinned = best_response(view, "attacker", {**context, "AP": "no_perpetrate"})
    assert pinned == best_response(view, "attacker", context)
    assert set(pinned.expected) == {"perpetrate", "no_perpetrate"}
