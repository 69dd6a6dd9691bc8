#!/usr/bin/env python3
"""Regenerate the benchmark's pinned references in bench/ref/.

    PYTHONPATH=src python3 bench/make_refs.py

Writes:
  ref/solve_default.json  200,000-draw forecast under the shipped default
                          uncertainty, and the defender policy pinned for it
  ref/solve_wide.json     100,000-draw forecast under the every-rule-kind
                          uncertainty, its optimal policy, and the known
                          answer of the AMV probe (enumeration oracle)
  ref/exact.json          published boldface cells, the attacker table and
                          the point-belief solve, all by the enumeration oracle

ref/T12_published.csv is a copy of the published defender table and is
not regenerated. Takes about three minutes on one core.
"""
from __future__ import annotations

import csv
import itertools
import json
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from araid import ara, drilling, inference, modelfile  # noqa: E402
from araid.diagram import NodeKind, build_diagram  # noqa: E402

import workloads  # noqa: E402

REF_SEED = 20140408
# the defender optimum against the default forecast (gap to the runner-up,
# which differs only in DF, is about 4e-5)
PINNED_POLICY = {"DP": {"": "additional"}, "DF": {"": "no_forensic"}, "DT": {"": "accept"},
                 "DR": {"attack": "stop", "no_attack": "continue"}}


def write(name: str, doc: dict) -> None:
    path = BENCH / "ref" / name
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(BENCH.parent)}")


def high_draw(d, beliefs, uncertainty, draws: int) -> dict:
    forecast = ara.forecast_attack(d, beliefs, uncertainty, draws=draws, seed=REF_SEED)
    solution = ara.solve_defender(d, forecast)
    runner_up = solution.ranking[1].expected_utility
    print(f"  {draws} draws: optimum gap to runner-up "
          f"{solution.optimal.expected_utility - runner_up:.3g}")
    return {"forecast": json.loads(forecast.to_json()),
            "policy": workloads.policy_key(solution.optimal.policy)}


def oracle_forecast(view, decision: str) -> list[dict]:
    """Attacker best response per context by enumeration, ties shared."""
    node = view.nodes[decision]
    out = []
    for ctx in itertools.product(*(view.nodes[n].domain.labels for n in node.parents)):
        assignment = dict(zip(node.parents, ctx))
        pinned = {n: v for n, v in assignment.items()
                  if view.nodes[n].kind == NodeKind.DECISION}
        evidence = {n: v for n, v in assignment.items() if n not in pinned}
        eus = {alt: inference.enumerate_expected_utility(
                   view, node.owner, inference.constant_policy(view, {**pinned, decision: alt}),
                   evidence)
               for alt in node.domain.labels}
        top = max(eus.values())
        winners = [a for a in node.domain.labels if eus[a] >= top - ara.TIE_TOL]
        out.append({"context": assignment,
                    "probabilities": {a: (1 / len(winners) if a in winners else 0.0)
                                      for a in node.domain.labels}})
    return out


def as_forecast(d, decision: str, contexts: list[dict]) -> ara.AttackForecast:
    node = d.nodes[decision]
    probs = {tuple(c["context"][n] for n in node.parents):
             tuple(c["probabilities"][a] for a in node.domain.labels) for c in contexts}
    return ara.AttackForecast(decision=decision, context_nodes=node.parents,
                              alternatives=node.domain.labels, probabilities=probs,
                              draws=1, seed=0)


def oracle_defender(d, forecast) -> tuple[list[dict], float]:
    """Best defender policies (ties within 1e-9) by enumerating every rule combination."""
    solved = ara.apply_forecast(d, forecast)
    decisions = sorted(n.id for n in solved.decisions_of("defender"))
    options = []
    for dec in decisions:
        keys = list(inference.parent_tuples_of(solved, dec))
        labels = solved.nodes[dec].domain.labels
        options.append([dict(zip(keys, combo))
                        for combo in itertools.product(labels, repeat=len(keys))])
    ranked = sorted(((inference.enumerate_expected_utility(
                        solved, "defender", dict(zip(decisions, rules))),
                      dict(zip(decisions, rules)))
                     for rules in itertools.product(*options)),
                    key=lambda r: -r[0])
    best_eu = ranked[0][0]
    return [workloads.policy_key(p) for eu, p in ranked if eu >= best_eu - 1e-9], best_eu


def solve_refs(d) -> None:
    beliefs = drilling.default_beliefs()
    print("solve-default reference")
    doc = high_draw(d, beliefs, drilling.default_uncertainty(), 200_000)
    if doc["policy"] != PINNED_POLICY:
        raise SystemExit(f"default optimum moved: {doc['policy']}")
    write("solve_default.json", doc)

    print("solve-wide reference")
    doc = high_draw(d, beliefs, workloads.wide_uncertainty(d), 100_000)
    view = ara.attacker_view(d, beliefs, {"DP", "DF"})
    amv = view.nodes["AMV"]
    nodes = dict(view.nodes)
    nodes["AMV"] = replace(amv, payload=replace(amv.payload, scale=1e6, root=2.0))
    rebuilt = build_diagram(view.agents, nodes.values(), view.decision_order)
    doc["known_answer"] = {"contexts": oracle_forecast(rebuilt, "AP")}
    write("solve_wide.json", doc)


def exact_ref(d) -> None:
    print("exact reference")
    axes = workloads.DEFENDER_AXES.split(",")
    with (BENCH / "ref" / "T12_published.csv").open(encoding="utf-8") as fh:
        published = {tuple(r[a] for a in axes): float(r["eu"]) for r in csv.DictReader(fh)}
    bold = []
    for group, cells in itertools.groupby(sorted(published, key=lambda k: k[4:]),
                                          key=lambda k: k[4:]):
        cells = list(cells)
        top = max(published[k] for k in cells)
        winners = [k for k in cells if published[k] == top]
        if len(winners) != 1:
            raise SystemExit(f"published column {group} has tied maxima")
        bold.append(list(winners[0]))

    table_axes = ["AP", "UC", "DP", "DF"]
    rows = []
    for key in itertools.product(*(d.nodes[a].domain.labels for a in table_axes)):
        ap, uc, dp, df = key
        policy = inference.constant_policy(d, {"AP": ap, "DP": dp, "DF": df,
                                               "DT": "accept", "DR": "continue"})
        rows.append({"key": list(key), "eu": inference.enumerate_expected_utility(
            d, "attacker", policy, {"UC": uc})})
    for row in rows:   # the attacker's own axis is AP; groups are (UC, DP, DF)
        group = [r["eu"] for r in rows if r["key"][1:] == row["key"][1:]]
        row["is_max"] = row["eu"] >= max(group) - 1e-12

    point = modelfile.parse_distribution_rows(workloads.POINT_BELIEFS.read_bytes())
    contexts = oracle_forecast(ara.attacker_view(d, point, {"DP", "DF"}), "AP")
    policies, eu = oracle_defender(d, as_forecast(d, "AP", contexts))
    write("exact.json", {
        "defender_boldface": sorted(bold),
        "attacker_table": {"axes": table_axes, "rows": rows},
        "point_solve": {"forecast": {"contexts": contexts}, "optimal_policies": policies,
                        "expected_utility": eu},
    })


def main() -> None:
    d = workloads.load_model()
    solve_refs(d)
    exact_ref(d)


if __name__ == "__main__":
    main()
