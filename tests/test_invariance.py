"""One decision problem written two ways gets one answer.

Expected utility's argmax is unchanged by a positive scale of the utility,
so scaling one agent's value tables by a power of two, which is exact in
binary floating point, must leave every decision, tie and forecast as it
was. A model's statements may come in any order, but the draws follow the
declared parent order, so moving a sampled node's parents moves the
forecast and nothing else; a shuffle that keeps every parent order, or a
chance node that nothing reads, changes no output at all.
"""
import contextlib
import io
import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from araid import cli
from araid.ara import ParameterUncertainty, best_response, forecast_attack, solve_defender
from araid.diagram import NodeKind
from araid.drilling import default_beliefs
from araid.inference import decision_table, expected_utility
from araid.modelfile import try_parse_model
from araid.resources import data_path

from conftest import random_diagram, random_policy

SCALES = (0, 10, 20, 30, 40)


def indifferent_model(k: int, through_defender: bool = False) -> str:
    """The attacker A observes the defender's D and is exactly indifferent:
    under U ~ (0.1, 0.2, 0.7), a1 scores (1, 2, 3) and a2 2.6 in every
    state, both times 2**k, so both expected utilities are 2.6 * 2**k in
    exact arithmetic (not in floats). The defender scores 1 when D=x meets
    a1 or D=y meets a2. With `through_defender`, a1 scores (0, 6, 2) times
    2**k after D=y, so the attacker's utility of a1 is 2.6 * 2**k after
    either D in exact arithmetic, but each D rounds it its own way."""
    lines = ["agent def kind=defender", "agent att kind=attacker",
             "node D kind=decision agent=def domain=x,y",
             "node U kind=chance domain=u1,u2,u3", "cpt U | : u1=0.1,u2=0.2,u3=0.7",
             "node A kind=decision agent=att domain=a1,a2", "arc D -> A",
             "node AV kind=value agent=att", "arc A -> AV", "arc U -> AV"]
    if through_defender:
        lines.append("arc D -> AV")
    for d in "xy" if through_defender else "-":
        for a in ("a1", "a2"):
            scores = {("a1", "y"): (0.0, 6.0, 2.0), ("a2", d): (2.6, 2.6, 2.6)}.get(
                (a, d), (1.0, 2.0, 3.0))
            for u, x in zip(("u1", "u2", "u3"), scores):
                cond = f"A={a},U={u}" + (f",D={d}" if through_defender else "")
                lines.append(f"value AV form=table | {cond} : {x * 2.0**k!r}")
    lines += ["node DV kind=value agent=def", "arc D -> DV", "arc A -> DV"]
    for d, a in (("x", "a1"), ("x", "a2"), ("y", "a1"), ("y", "a2")):
        lines.append(f"value DV form=table | D={d},A={a} : "
                     f"{1.0 if (d, a) in (('x', 'a1'), ('y', 'a2')) else 0.0}")
    lines += ["node UA kind=utility agent=att", "arc AV -> UA", "utility UA weights AV=1",
              "node UD kind=utility agent=def", "arc DV -> UD", "utility UD weights DV=1",
              "order def D", "order att A"]
    return "\n".join(lines) + "\n"


def parsed(text: str):
    d, diags = try_parse_model(text)
    assert diags == []
    return d


def answers(k: int):
    """The forecast, the defender's optimum, ties and ranking, the attacker's
    table and best responses of the indifferent model at scale 2**k."""
    d = parsed(indifferent_model(k))
    forecast = forecast_attack(d, {}, ParameterUncertainty(), draws=4, seed=1)
    solution = solve_defender(d, forecast)
    table = decision_table(d, "att", ["D", "A"])
    responses = [best_response(d, "att", {"D": x}).optimal for x in "xy"]
    return {"forecast": forecast.to_json(), "optimal": solution.optimal.policy,
            "ties": len(solution.ties),
            "ranking": [(r.policy, r.expected_utility) for r in solution.ranking],
            "argmax": table.argmax, "responses": responses}, table.cells


@pytest.mark.parametrize("k", SCALES)
def test_scaling_the_attackers_values_by_a_power_of_two_keeps_every_answer(k):
    # the tie holds at every scale: the forecast splits it, the defender's
    # optimum is D=x (tied with D=y), and the table marks both alternatives
    want, cells = answers(0)
    got, scaled = answers(k)
    assert got == want
    assert json.loads(want["forecast"])["contexts"][0]["probabilities"] == {"a1": 0.5, "a2": 0.5}
    assert want["optimal"] == {"D": {(): "x"}} and want["ties"] == 2
    assert want["responses"] == [("a1", "a2")] * 2 and len(want["argmax"]) == 4
    # the scale is exact, so every cell is the unscaled one times 2**k
    assert scaled == {key: eu * 2.0**k for key, eu in cells.items()}


@pytest.mark.parametrize("k", SCALES)
def test_a_table_cell_that_two_fillings_round_apart_agrees_at_every_scale(k):
    # over the unfixed D, a1's cell has two fillings that round apart by
    # about 4e-16 * 2**k; they must agree within the scaled tolerance
    d = parsed(indifferent_model(k, through_defender=True))
    table = decision_table(d, "att", ["A"])
    unscaled = decision_table(parsed(indifferent_model(0, through_defender=True)), "att", ["A"])
    assert table.cells == {key: eu * 2.0**k for key, eu in unscaled.cells.items()}
    assert table.argmax == unscaled.argmax == {("a1",), ("a2",)}


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_the_draws_follow_the_declared_parent_order(tmp_path):
    # swapping the order of AU's two parents moves the sampled weights'
    # positions, so the forecast moves; the policy and the tables do not
    shipped = data_path("drilling.maid").read_text()
    assert shipped.count("arc AMV -> AU\narc ACV -> AU\n") == 1
    swapped = tmp_path / "swapped.maid"
    swapped.write_text(shipped.replace("arc AMV -> AU\narc ACV -> AU\n",
                                       "arc ACV -> AU\narc AMV -> AU\n"))
    assert parsed(swapped.read_text()).nodes["AU"].parents[:2] == ("ACV", "AMV")
    outputs = {}
    for name, path in (("shipped", str(data_path("drilling.maid"))), ("swapped", str(swapped))):
        solved = json.loads(run(["solve", path, "--seed", "1", "--out", "json"]))
        outputs[name] = (solved["forecast"], solved["solution"]["optimal"]["policy"], [
            run(["tables", path, "--agent", "defender", "--axes", "DP,DF,DT,DR,UC,UA"]),
            run(["tables", path, "--agent", "attacker", "--axes", "AP,UC,DP,DF",
                 "--fix", "DT=accept", "DR=continue"])])
    (forecast, policy, tables), (moved, same_policy, same_tables) = outputs.values()
    assert moved != forecast and np.allclose(
        [list(c["probabilities"].values()) for c in moved["contexts"]],
        [list(c["probabilities"].values()) for c in forecast["contexts"]], atol=0.05)
    assert same_policy == policy and same_tables == tables


def test_scaling_a_random_diagrams_values_by_a_power_of_two_scales_every_answer():
    # every score of the player's value tables times 2**k: each expected
    # utility is the unscaled one times 2**k, bit for bit, and every
    # decision table marks the same cells
    rng = np.random.default_rng(2323)
    for _ in range(40):
        d = random_diagram(rng)
        decisions = [n.id for n in d.nodes.values() if n.kind == NodeKind.DECISION]
        policy = random_policy(rng, d)
        eu, table = expected_utility(d, "player", policy), decision_table(d, "player", decisions)
        for k in SCALES:
            scaled = d.replace_nodes(
                replace(n, payload=replace(n.payload, rows={key: x * 2.0**k for key, x
                                                            in n.payload.rows.items()}))
                for n in d.nodes.values() if n.kind == NodeKind.VALUE)
            assert expected_utility(scaled, "player", policy) == eu * 2.0**k
            assert decision_table(scaled, "player", decisions).argmax == table.argmax


POLICY = ["--policy", "DP=no_additional", "DF=no_forensic", "DT=accept", "DR=continue",
          "AP=perpetrate"]
BELIEFS = "".join(f"cpt {nid} | : " + ",".join(f"{label}={p!r}" for label, p in row.items())
                  + "\n" for nid, row in default_beliefs().items())


def outputs(path: str, *solve_args: str) -> list[str]:
    """Stdout of validate, both tables, evaluate with evidence, and solve in
    text and csv."""
    return [run(argv) for argv in (
        ["validate", path],
        ["tables", path, "--agent", "defender", "--axes", "DP,DF,DT,DR,UC,UA"],
        ["tables", path, "--agent", "attacker", "--axes", "AP,UC,DP,DF",
         "--fix", "DT=accept", "DR=continue"],
        ["evaluate", path, "--agent", "defender", *POLICY, "--evidence", "UC=normal"],
        ["solve", path, "--seed", "1", *solve_args],
        ["solve", path, "--seed", "1", "--out", "csv", *solve_args])]


def test_a_shuffle_that_keeps_every_parent_order_changes_no_output(tmp_path):
    # agents first and nodes second, every group shuffled; the arcs into
    # each node keep their relative order, so every parent order holds
    lines = data_path("drilling.maid").read_text().splitlines()
    want = outputs(str(data_path("drilling.maid")))
    rng = np.random.default_rng(23)
    for i in range(3):
        groups = [[line for line in lines if line.split()[0] == "agent"],
                  [line for line in lines if line.split()[0] == "node"],
                  [line for line in lines if line.split()[0] not in ("agent", "node")]]
        groups = [[group[j] for j in rng.permutation(len(group))] for group in groups]
        # put each node's arcs back in their declared order, in the places
        # the shuffle gave that node's arcs
        rest, into = groups[2], {}
        for line in lines:
            if line.startswith("arc "):
                into.setdefault(line.split()[-1], []).append(line)
        rest[:] = [into[line.split()[-1]].pop(0) if line.startswith("arc ") else line
                   for line in rest]
        assert sum(groups, []) != lines
        path = tmp_path / f"shuffled{i}.maid"
        path.write_text("\n".join(sum(groups, [])) + "\n")
        assert outputs(str(path)) == want


def test_a_chance_node_that_nothing_reads_changes_no_output(tmp_path):
    # its row sums to 1 - 2**-53 in floats, in any order, so a contraction
    # that read it would move the bits; the node roster differs from the
    # shipped one, so both models solve on the same belief file
    beliefs = tmp_path / "beliefs"
    beliefs.write_text(BELIEFS)
    shipped = data_path("drilling.maid").read_text()
    agents = shipped.index("node ")
    extra = tmp_path / "extra.maid"
    extra.write_text(shipped[:agents] + "node ZX kind=chance domain=a,b,c\n"
                     "cpt ZX | : a=0.086,b=0.344,c=0.57\n" + shipped[agents:])
    assert {sum(row) for row in itertools.permutations((0.086, 0.344, 0.57))} == {1 - 2**-53}
    assert "ZX" in parsed(extra.read_text()).nodes
    assert outputs(str(extra), "--beliefs", str(beliefs)) == outputs(
        str(data_path("drilling.maid")), "--beliefs", str(beliefs))
