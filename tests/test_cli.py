import contextlib
import hashlib
import csv
import io
import json
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from araid.resources import data_path, read_table

from conftest import (CHAIN_PRIOR, CHAIN_STEP, attacker_only_model, chain_model, grid_model,
                      wide_observer_model)

DRILLING = str(data_path("drilling.maid"))


def run_cli(*args, env=None):
    import os
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "araid.cli", *args],
                          capture_output=True, text=True, env=full_env)


# -- validate ---------------------------------------------------------------

def test_validate_shipped_model_ok():
    proc = run_cli("validate", DRILLING)
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines()[-1] == "OK"


def test_validate_broken_model(tmp_path):
    bad = tmp_path / "broken.maid"
    bad.write_text("node UC kind=chance domain=riskier,normal\n"
                   "cpt UC | : riskier=0.3,normal=0.6\n")
    proc = run_cli("validate", str(bad))
    assert proc.returncode == 1
    lines = [l for l in proc.stdout.splitlines() if ": error: " in l]
    assert len(lines) == 1
    assert lines[0].startswith(f"{bad}:2:")
    assert "row sums to 0.9" in lines[0]


def test_a_value_that_overflows_is_refused_by_every_command(tmp_path):
    # validate once accepted it, and the other commands failed with a traceback
    bad = tmp_path / "overflow.maid"
    bad.write_text(data_path("drilling.maid").read_text().replace(
        "value AMV form=power_root scale=10000000.0 root=3.0",
        "value AMV form=power_root scale=1.0 root=0.001"))
    diagnostic = (f"{bad}:16:1: error: value node 'AMV' scores parent label '10000' "
                  f"(tag 10000.0) as inf, not a finite real number")
    proc = run_cli("validate", str(bad))
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, diagnostic + "\n", "")
    for argv in (["evaluate", "--agent", "attacker", "--policy", "DP=additional",
                  "DF=forensic", "DT=accept", "DR=continue", "AP=perpetrate"],
                 ["tables", "--agent", "attacker", "--axes", "AP"]):
        proc = run_cli(argv[0], str(bad), *argv[1:])
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.splitlines() == [diagnostic, f"error: {bad} is not a valid model"]


def test_validate_missing_file_is_io_error(tmp_path):
    proc = run_cli("validate", str(tmp_path / "missing.maid"))
    assert proc.returncode == 2


def test_evaluate_contracts_a_chain_wider_than_the_einsum_alphabet(tmp_path):
    # 60 chance nodes on one tape, which reuses einsum letters
    path = tmp_path / "chain.maid"
    path.write_text(chain_model(60))
    proc = run_cli("evaluate", str(path), "--agent", "def")
    assert proc.returncode == 0, proc.stderr
    exact = (np.array(CHAIN_PRIOR) @ np.linalg.matrix_power(np.array(CHAIN_STEP), 59))[1]
    assert proc.stdout == f"{exact:.6f}\n"


def capped_address_space():
    """Run in a child before it starts: cap its address space at 1.5 GiB, so
    that a contraction the plan fails to refuse fails the test instead of
    taking the host's memory."""
    import resource
    cap = 3 * 2**29
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


@pytest.mark.parametrize("argv", [["evaluate", "--agent", "def"],
                                  ["tables", "--agent", "def", "--axes", "g0_0"]],
                         ids=["evaluate", "tables"])
def test_a_contraction_over_the_cell_budget_exits_1_with_one_error_line(tmp_path, argv):
    path = tmp_path / "grid.maid"
    path.write_text(grid_model(20))
    assert run_cli("validate", str(path)).returncode == 0
    proc = subprocess.run([sys.executable, "-m", "araid.cli", argv[0], str(path), *argv[1:]],
                          capture_output=True, text=True, preexec_fn=capped_address_space,
                          timeout=30)
    assert (proc.returncode, proc.stdout) == (1, "")
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: a contraction step over ")
    assert line.endswith(" cells, more than MAX_STEP_CELLS = 4,194,304")


BROKEN_MODEL = ("node UC kind=chance domain=riskier,normal\n"
                "cpt UC | : riskier=0.3,normal=0.6\n")
COMMAND_ARGS = {
    "validate": [],
    "tables": ["--agent", "defender", "--axes", "DP"],
    "solve": ["--draws", "1"],
    "evaluate": ["--agent", "defender", "--policy", "DP=no_additional"],
}


def assert_no_run_report(stderr: str) -> None:
    assert not [line for line in stderr.splitlines() if line.startswith("{")]


@pytest.mark.parametrize("command", list(COMMAND_ARGS))
def test_each_command_keeps_the_failure_contract(tmp_path, command):
    bad = tmp_path / "broken.maid"
    bad.write_text(BROKEN_MODEL)
    proc = run_cli(command, str(bad), *COMMAND_ARGS[command])
    assert proc.returncode == 1
    diagnostic = f"{bad}:2:1: error: non-stochastic row"
    if command == "validate":   # the diagnostics are validate's output
        assert proc.stdout.startswith(diagnostic)
        assert proc.stderr == ""
    else:
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert lines[0].startswith(diagnostic)
        assert lines[-1] == f"error: {bad} is not a valid model"
        assert_no_run_report(proc.stderr)

    proc = run_cli(command, str(tmp_path / "missing.maid"), *COMMAND_ARGS[command])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: cannot read ")
    assert_no_run_report(proc.stderr)

    # a usage error is a failure like any other: exit 1 and one `error:` line;
    # asking for help is none
    proc = run_cli(command, DRILLING, *COMMAND_ARGS[command], "--bogus")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines() == ["error: unrecognized arguments: --bogus"]
    proc = run_cli(command, "--help")
    assert (proc.returncode, proc.stderr) == (0, "") and proc.stdout.startswith("usage: ")

    if command == "solve":  # a belief file that does not parse reads as a model's does
        beliefs = tmp_path / "beliefs"
        beliefs.write_text("cpt DT | : avoid=nan,share=0.5,accept=0.5\n")
        proc = run_cli(command, DRILLING, *COMMAND_ARGS[command], "--beliefs", str(beliefs))
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.splitlines() == [f"{beliefs}:1:18: error: malformed number 'nan'",
                                            f"error: {beliefs} is not a valid belief file"]
        # one that parses but is no distribution: the view's violation, then `error:`
        beliefs.write_text("cpt DT | : avoid=-1,share=1,accept=1\ncpt DR | : continue=1,stop=0\n")
        proc = run_cli(command, DRILLING, *COMMAND_ARGS[command], "--beliefs", str(beliefs))
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.splitlines() == [
            "  - non-stochastic row: node 'DT' row (): probability outside [0, 1]",
            "error: invalid diagram (1 violation(s))"]


# -- tables -----------------------------------------------------------------

@pytest.fixture(scope="module")
def defender_csv():
    proc = run_cli("tables", DRILLING, "--agent", "defender",
                   "--axes", "DP,DF,DT,DR,UC,UA", "--out", "csv")
    assert proc.returncode == 0, proc.stderr
    return list(csv.DictReader(io.StringIO(proc.stdout)))


def test_tables_csv_reproduces_published_values(defender_csv):
    assert len(defender_csv) == 96
    published = {(r["DP"], r["DF"], r["DT"], r["DR"], r["UC"], r["UA"]): float(r["eu"])
                 for r in read_table("T12_expected.csv")}
    for row in defender_csv:
        key = (row["DP"], row["DF"], row["DT"], row["DR"], row["UC"], row["UA"])
        assert float(row["eu"]) == pytest.approx(published[key], abs=1e-4)


def test_tables_json_agrees_with_csv(defender_csv):
    proc = run_cli("tables", DRILLING, "--agent", "defender",
                   "--axes", "DP,DF,DT,DR,UC,UA", "--out", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["schema_version"] == 1
    by_key = {tuple(r[a] for a in doc["axes"]): r for r in doc["rows"]}
    for row in defender_csv:
        key = tuple(row[a] for a in doc["axes"])
        assert abs(by_key[key]["eu"] - float(row["eu"])) <= 1e-12
        assert by_key[key]["is_max_in_group"] == (row["is_max_in_group"] == "true")


def test_tables_marks_published_boldface(defender_csv):
    maxima = {(r["UC"], r["UA"]): (r["DP"], r["DF"], r["DT"], r["DR"])
              for r in defender_csv if r["is_max_in_group"] == "true"}
    assert maxima[("riskier", "attack")] == ("no_additional", "no_forensic", "share", "stop")
    assert maxima[("normal", "attack")] == ("no_additional", "no_forensic", "share", "stop")
    assert maxima[("riskier", "no_attack")] == (
        "no_additional", "no_forensic", "accept", "continue")
    assert maxima[("normal", "no_attack")] == (
        "no_additional", "no_forensic", "accept", "continue")


def test_tables_attacker_with_fix_and_unknown_axis():
    proc = run_cli("tables", DRILLING, "--agent", "attacker",
                   "--axes", "DP,DF,DT,UC,DR,AP", "--out", "csv")
    assert proc.returncode == 0
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert len(rows) == 96

    proc = run_cli("tables", DRILLING, "--agent", "defender", "--axes", "DP,NOPE")
    assert proc.returncode == 1
    assert "NOPE" in proc.stderr


@pytest.mark.parametrize("pin, node", [("UC=riskier", "'UC'"), ("ZZ=x", "'ZZ'")])
def test_tables_fix_rejects_a_non_decision(pin, node):
    proc = run_cli("tables", DRILLING, "--agent", "defender",
                   "--axes", "DP,DF,DT,DR,UC,UA", "--fix", pin)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert f"{node} is not a decision node" in proc.stderr


def test_tables_rejects_a_repeated_axis():
    proc = run_cli("tables", DRILLING, "--agent", "defender",
                   "--axes", "DP,DP,DF,DT,DR,UC,UA")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "axis 'DP' given twice" in proc.stderr


# -- evaluate -----------------------------------------------------------------

def test_evaluate_published_cells():
    base = ["evaluate", DRILLING, "--agent", "defender", "--policy",
            "DP=no_additional", "DF=no_forensic", "DT=accept", "DR=continue"]
    proc = run_cli(*base, "AP=no_perpetrate", "--evidence", "UC=normal", "UA=no_attack")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.998950"

    proc = run_cli(*base, "AP=perpetrate", "--evidence", "UC=riskier", "UA=attack")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.951075"


def test_evaluate_impossible_evidence():
    proc = run_cli("evaluate", DRILLING, "--agent", "defender", "--policy",
                   "DP=no_additional", "DF=no_forensic", "DT=accept", "DR=continue",
                   "AP=no_perpetrate", "--evidence", "UA=attack")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: impossible evidence: {'UA': 'attack'")
    assert_no_run_report(proc.stderr)


def test_evaluate_policy_rejects_a_non_decision():
    proc = run_cli("evaluate", DRILLING, "--agent", "defender", "--policy",
                   "DP=additional", "DF=forensic", "DT=accept", "DR=continue",
                   "AP=perpetrate", "UC=riskier")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "'UC' is not a decision node" in proc.stderr


def test_evaluate_requires_total_policy():
    proc = run_cli("evaluate", DRILLING, "--agent", "defender",
                   "--policy", "DP=no_additional")
    assert proc.returncode == 1
    assert "missing" in proc.stderr


# -- solve ---------------------------------------------------------------------

def test_solve_refuses_an_intractable_policy_search(tmp_path):
    model = tmp_path / "wide.maid"
    model.write_text(wide_observer_model())
    beliefs = tmp_path / "beliefs.txt"
    beliefs.write_text("cpt D | : x=0.3,y=0.3,z=0.4\n")
    proc = run_cli("solve", str(model), "--beliefs", str(beliefs), "--draws", "10")
    assert proc.returncode == 1
    assert "3**243 policies" in proc.stderr and proc.stdout == ""


def test_solve_ranks_the_one_empty_policy_when_the_defender_owns_no_decision(tmp_path):
    from araid import cli
    from araid.ara import ParameterUncertainty, apply_forecast, forecast_attack
    from araid.inference import enumerate_expected_utility
    from araid.modelfile import parse_model

    model = tmp_path / "attacker_only.maid"
    model.write_text(attacker_only_model())
    beliefs = tmp_path / "beliefs.txt"
    beliefs.write_text("")  # the attacker observes every defender decision: there is none
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["solve", str(model), "--beliefs", str(beliefs), "--draws", "10",
                         "--seed", "3", "--out", "json"]) == 0
    (ranked,) = json.loads(out.getvalue())["solution"]["ranking"]
    d = parse_model(attacker_only_model())
    forecast = forecast_attack(d, {}, ParameterUncertainty(), draws=10, seed=3)
    assert ranked["policy"] == {}
    assert ranked["expected_utility"] == enumerate_expected_utility(
        apply_forecast(d, forecast), "def", {})


def test_solve_point_beliefs_accept_continue(tmp_path):
    beliefs = tmp_path / "point_accept_continue.maid"
    beliefs.write_text("cpt DT | : avoid=0.0,share=0.0,accept=1.0\n"
                       "cpt DR | : continue=1.0,stop=0.0\n")
    proc = run_cli("solve", DRILLING, "--draws", "1", "--seed", "7",
                   "--beliefs", str(beliefs), "--out", "json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    for ctx in doc["forecast"]["contexts"]:
        assert ctx["probabilities"]["perpetrate"] == 1.0


def test_solve_point_beliefs_share_stop(tmp_path):
    beliefs = tmp_path / "point_share_stop.maid"
    beliefs.write_text("cpt DT | : avoid=0.0,share=1.0,accept=0.0\n"
                       "cpt DR | : continue=0.0,stop=1.0\n")
    proc = run_cli("solve", DRILLING, "--draws", "1", "--seed", "7",
                   "--beliefs", str(beliefs), "--out", "json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    for ctx in doc["forecast"]["contexts"]:
        assert ctx["probabilities"]["perpetrate"] == 0.0
    assert doc["solution"]["optimal"]["policy"]["DT"][""] == "accept"


def test_solve_deterministic_output_bytes():
    a = run_cli("solve", DRILLING, "--draws", "600", "--seed", "1", "--out", "json")
    b = run_cli("solve", DRILLING, "--draws", "600", "--seed", "1", "--out", "json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout  # byte-identical payload (report on stderr varies)


def test_solve_thread_hint_is_correctness_neutral(monkeypatch):
    monkeypatch.delenv("ARA_MAID_THREADS", raising=False)
    a = run_cli("solve", DRILLING, "--draws", "120", "--seed", "4", "--out", "json")
    assert a.returncode == 0, a.stderr
    for hint in ("4", "abc"):
        b = run_cli("solve", DRILLING, "--draws", "120", "--seed", "4", "--out", "json",
                    env={"ARA_MAID_THREADS": hint})
        assert b.returncode == 0, b.stderr
        assert a.stdout == b.stdout


@pytest.mark.parametrize("draws", ["0", "-3"])
def test_solve_rejects_nonpositive_draws(draws):
    proc = run_cli("solve", DRILLING, "--draws", draws, "--seed", "1")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "draws must be >= 1" in proc.stderr


def test_solve_refuses_a_negative_seed_by_name_before_any_work(capsys):
    from araid import ara, cli
    with mock.patch.object(ara, "attacker_view", side_effect=AssertionError("work began")):
        assert cli.main(["solve", DRILLING, "--seed", "-1", "--draws", "10"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1] == "error: seed must be >= 0, got -1"
    assert "0 or more" in " ".join(run_cli("solve", "--help").stdout.split())


def test_solve_refuses_draws_over_its_ceiling_before_sampling(capsys):
    from araid import ara, cli
    # a draw sampled fails the test at once, instead of running for an hour
    with mock.patch.object(ara, "_draw_rng", side_effect=AssertionError("a block was sampled")):
        assert cli.main(["solve", DRILLING, "--draws", "4294967296"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --draws must be <= 100,000,000, got 4,294,967,296\n"
    # the ceiling itself is accepted: the forecast is reached
    reached = mock.Mock(side_effect=ValueError("reached the forecast"))
    with mock.patch.object(cli, "forecast_attack", reached):
        assert cli.main(["solve", DRILLING, "--draws", str(cli.MAX_DRAWS)]) == 1
    assert reached.call_args.kwargs["draws"] == 10**8
    assert capsys.readouterr().err == "error: reached the forecast\n"
    assert "1 to 100,000,000" in " ".join(run_cli("solve", "--help").stdout.split())


def test_solve_csv_and_json_numbers_agree():
    a = run_cli("solve", DRILLING, "--draws", "80", "--seed", "2", "--out", "csv")
    b = run_cli("solve", DRILLING, "--draws", "80", "--seed", "2", "--out", "json")
    assert a.returncode == b.returncode == 0
    doc = json.loads(b.stdout)
    blocks = a.stdout.split("\n\n")
    forecast_rows = list(csv.DictReader(io.StringIO(blocks[0])))
    ctx_nodes = doc["forecast"]["context_nodes"]
    json_forecast = {tuple(c["context"][n] for n in ctx_nodes): c["probabilities"]
                     for c in doc["forecast"]["contexts"]}
    for row in forecast_rows:
        key = tuple(row[n] for n in ctx_nodes)
        for alt in doc["forecast"]["alternatives"]:
            assert abs(float(row[f"p_{alt}"]) - json_forecast[key][alt]) <= 1e-12
    ranking_rows = list(csv.DictReader(io.StringIO(blocks[1])))
    assert len(ranking_rows) == len(doc["solution"]["ranking"]) == 48
    for row, ranked in zip(ranking_rows, doc["solution"]["ranking"]):
        assert abs(float(row["eu"]) - ranked["expected_utility"]) <= 1e-12


def test_solve_text_output_and_default_seed():
    proc = run_cli("solve", DRILLING, "--draws", "40")
    assert proc.returncode == 0
    assert "forecast over AP" in proc.stdout
    assert "optimal policy:" in proc.stdout
    assert "expected utility:" in proc.stdout


def test_solve_without_beliefs_needs_known_model(tmp_path):
    other = tmp_path / "other.maid"
    other.write_text(
        "agent foe kind=attacker\n"
        "node move kind=decision agent=foe domain=l,r\n"
        "node coin kind=chance domain=h,t\n"
        "cpt coin | : h=0.5,t=0.5\n"
        "node score kind=value agent=foe\n"
        "arc coin -> score\n"
        "value score form=table | coin=h : 0.25\n"
        "value score form=table | coin=t : 0.75\n"
        "node payoff kind=utility agent=foe\n"
        "arc score -> payoff\n"
        "utility payoff weights score=1.0\n"
        "order foe move\n")
    proc = run_cli("solve", str(other), "--draws", "1")
    assert proc.returncode == 1
    assert "no --beliefs" in proc.stderr


def test_solve_without_beliefs_on_a_valid_model_that_is_not_drilling_exits_1(tmp_path, capsys):
    from araid import cli
    model = tmp_path / "attacker_only.maid"
    model.write_text(attacker_only_model())
    assert cli.main(["validate", str(model)]) == 0
    capsys.readouterr()
    assert cli.main(["solve", str(model), "--draws", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == (
        "error: no --beliefs file given and the model has no built-in defaults")


@pytest.mark.parametrize("rows, diagnostic", [
    ("cpt DR | : continue=0.7,continue=0.5,stop=0.5\n",
     "2:25: error: outcome repeats label 'continue'"),
    ("cpt DR | : continue=1.0,stop=0.0\ncpt DR | : continue=0.0,stop=1.0\n",
     "3:5: error: duplicate row for node 'DR'"),
], ids=["repeated-label", "repeated-row"])
def test_solve_rejects_repeats_in_a_belief_file(tmp_path, rows, diagnostic):
    beliefs = tmp_path / "repeats.maid"
    beliefs.write_text("cpt DT | : avoid=0.0,share=0.0,accept=1.0\n" + rows)
    proc = run_cli("solve", DRILLING, "--draws", "1", "--beliefs", str(beliefs))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert diagnostic in proc.stderr


@pytest.mark.parametrize("rows, message", [
    ("", "no belief given for unobserved decision(s) ['DR']"),
    ("cpt DR | : continue=0.6,stop=0.4\ncpt DP | : additional=1.0,no_additional=0.0\n",
     "a decision cannot be both observed and belief-distributed"),
    ("cpt DR | : continue=0.6,stop=0.4\ncpt AP | : perpetrate=0.5,no_perpetrate=0.5\n",
     "belief target 'AP' is the attacker's own decision"),
], ids=["omits-unobserved", "on-observed", "on-own-decision"])
def test_solve_names_what_a_belief_file_gets_wrong(tmp_path, rows, message):
    beliefs = tmp_path / "beliefs.maid"
    beliefs.write_text("cpt DT | : avoid=0.2,share=0.3,accept=0.5\n" + rows)
    proc = run_cli("solve", DRILLING, "--draws", "1", "--beliefs", str(beliefs))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: {message}")
    assert_no_run_report(proc.stderr)


def count_validations(argv: list[str]) -> int:
    """Calls of validate_diagram, under every name an araid module holds it by,
    and of Diagram.replace_nodes, which checks what its swap can break."""
    from araid import cli, diagram
    original, swap = diagram.validate_diagram, diagram.Diagram.replace_nodes
    calls = []

    def spy(d):
        calls.append(d)
        return original(d)

    def spy_swap(d, new_nodes):
        calls.append(d)
        return swap(d, new_nodes)

    holders = [m for name, m in sys.modules.items()
               if name.startswith("araid") and getattr(m, "validate_diagram", None) is original]
    with contextlib.ExitStack() as stack:
        for module in holders:
            stack.enter_context(mock.patch.object(module, "validate_diagram", spy))
        stack.enter_context(mock.patch.object(diagram.Diagram, "replace_nodes", spy_swap))
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        assert cli.main(argv) == 0
    return len(calls)


@pytest.mark.parametrize("argv, validations", [
    (["validate", DRILLING], 1),
    (["tables", DRILLING, "--agent", "defender", "--axes", "DP,DF,DT,DR,UC,UA"], 1),
    (["evaluate", DRILLING, "--agent", "defender", "--policy", "DP=no_additional",
      "DF=no_forensic", "DT=accept", "DR=continue", "AP=no_perpetrate"], 1),
    # the parse, and the swaps that make the attacker view and the
    # forecast-applied diagram
    (["solve", DRILLING, "--draws", "300"], 3),
], ids=["validate", "tables", "evaluate", "solve"])
def test_each_diagram_is_validated_once(argv, validations):
    assert count_validations(argv) == validations


POLICY = ["--policy", "DP=no_additional", "DF=no_forensic", "DT=accept", "DR=continue",
          "AP=perpetrate"]
# every command, each outcome (exit 0, 1 and 2), and an option's default
# read right after a call that gave the option
SESSION = [
    ["validate", DRILLING],
    ["tables", DRILLING, "--agent", "attacker", "--axes", "AP,UC,DP,DF",
     "--fix", "DT=accept", "DR=continue"],
    ["tables", DRILLING, "--agent", "attacker", "--axes", "AP,UC,DP,DF"],   # ambiguous: exit 1
    ["evaluate", DRILLING, "--agent", "defender", *POLICY, "--evidence", "UC=riskier"],
    ["evaluate", DRILLING, "--agent", "defender", *POLICY],
    ["tables", DRILLING, "--agent", "defender", "--axes", "DP,DF,DT,DR,UC,UA", "--out", "json"],
    ["solve", DRILLING, "--draws", "300", "--seed", "3", "--out", "csv"],
    ["tables", DRILLING, "--agent", "defender"],                  # no --axes: a usage error, exit 1
    ["validate", "missing.maid"],                                 # exit 2
]


def main_in_process(argv):
    """(exit code, stdout, stderr lines) of one `cli.main` call, with the
    clock readings of its run report (its duration and phase timings) left out."""
    from araid import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    lines = err.getvalue().splitlines()
    if code == 0:
        report = json.loads(lines.pop())
        del report["duration_seconds"]
        report.get("timings_s", {}).clear()
        lines.append(report)
    return code, out.getvalue(), lines


def test_repeated_calls_in_one_process_repeat_their_output():
    from araid import cli
    fresh = []
    for argv in SESSION:   # each on a parser built for it alone
        cli.build_parser.cache_clear()
        fresh.append(main_in_process(argv))
    assert [code for code, _, _ in fresh] == [0, 0, 1, 0, 0, 0, 0, 1, 2]
    assert fresh[3][1] != fresh[4][1]   # the evidence mattered
    for _ in range(2):   # then twice through, on one parser
        assert [main_in_process(argv) for argv in SESSION] == fresh
    assert cli.build_parser.cache_info().misses == 1


def test_run_report_on_stderr():
    proc = run_cli("validate", DRILLING)
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    assert report["schema_version"] == 1
    assert report["command"] == "validate"
    assert len(report["input"]["sha256"]) == 64
    assert report["duration_seconds"] >= 0


def test_solve_run_report_has_phase_timings_and_blocks():
    from araid import cli

    def solve(report):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(cli, "_report", report), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli.main(["solve", DRILLING, "--draws", "300", "--seed", "3",
                             "--out", "json"]) == 0
        return out.getvalue(), err.getvalue()

    stdout, stderr = solve(cli._report)
    report = json.loads(stderr.strip().splitlines()[-1])
    assert set(report["timings_s"]) == {"load", "forecast", "solve"}
    assert all(t >= 0 for t in report["timings_s"].values())
    assert sum(report["timings_s"].values()) <= report["duration_seconds"] + 3e-6
    assert report["forecast_blocks"] == 1   # ceil(300 / 1024)
    assert report["forecast_chunks"] == 1   # the block's 300 draws fit one 512-draw chunk
    # the report goes to stderr only: stdout is the same without it
    assert solve(lambda *args, **kwargs: None) == (stdout, "")


SPY_ON_NUMPY_RANDOM = """
import sys
from araid import cli
print("on import", "numpy.random" in sys.modules)
forecast = cli.forecast_attack
def spy(*args, **kwargs):
    print("on forecast", "numpy.random" in sys.modules)
    return forecast(*args, **kwargs)
cli.forecast_attack = spy
cli.main(sys.argv[1:])
print("on exit", "numpy.random" in sys.modules)
"""


@pytest.mark.parametrize("argv, loads", [(["validate", DRILLING], False),
                                         (["solve", DRILLING, "--draws", "1"], True)])
def test_solve_imports_numpy_random_as_part_of_loading(argv, loads):
    # its import takes about 15 ms: no command but `solve` pays for it, and
    # `solve` pays before the forecast, inside the run report's `load` time
    proc = subprocess.run([sys.executable, "-c", SPY_ON_NUMPY_RANDOM, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line.startswith("on ")]
    expected = ["on import False"] + (["on forecast True"] if loads else [])
    assert lines == expected + [f"on exit {loads}"]


@pytest.mark.parametrize("argv, flag, node", [
    (["tables", DRILLING, "--agent", "attacker", "--axes", "AP", "--fix", "DT=accept",
      "DR=continue", "DT=share"], "--fix", "DT"),
    (["evaluate", DRILLING, "--agent", "defender", "--policy", "DP=additional", "DF=forensic",
      "DT=accept", "DR=continue", "AP=perpetrate", "DP=no_additional"], "--policy", "DP"),
    (["evaluate", DRILLING, "--agent", "defender", "--policy", "DP=additional", "DF=forensic",
      "DT=accept", "DR=continue", "AP=perpetrate", "--evidence", "UC=riskier", "UC=normal"],
     "--evidence", "UC"),
], ids=["fix", "policy", "evidence"])
def test_a_node_named_twice_in_an_assignment_flag_is_refused(argv, flag, node):
    # the last value used to win silently
    assert main_in_process(argv) == (1, "", [f"error: {flag} names '{node}' twice"])


def test_solve_ranks_a_defender_decision_that_reaches_no_value(tmp_path):
    # D has no children, so no contraction reads its rule tables: the policy
    # search's one row of result stands for both of its policies
    model = tmp_path / "unread.maid"
    model.write_text(attacker_only_model().replace(
        "node A kind=", "node D kind=decision agent=def domain=x,y\nnode A kind=")
        + "order def D\n")
    beliefs = tmp_path / "beliefs.txt"
    beliefs.write_text("cpt D | : x=0.5,y=0.5\n")
    code, out, _ = main_in_process(["solve", str(model), "--beliefs", str(beliefs),
                                    "--draws", "10"])
    assert code == 0
    assert "optimal policy:\n  D: x\nexpected utility: 0.300000\n" in out


def test_a_model_file_that_opens_with_a_byte_order_mark_is_read(tmp_path):
    raw = b"\xef\xbb\xbf" + data_path("drilling.maid").read_bytes()
    path = tmp_path / "bom.maid"
    path.write_bytes(raw)
    code, out, (report,) = main_in_process(["validate", str(path)])
    assert (code, out) == (0, "OK\n")
    # the run report hashes the bytes as read, mark and all
    assert report["input"]["sha256"] == hashlib.sha256(raw).hexdigest()
