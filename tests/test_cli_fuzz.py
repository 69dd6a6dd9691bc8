"""The CLI's failure contract under seeded fuzz.

Every `cli.main` call on a mutated model file, a mutated belief file or
fuzzed option values must return 0, 1 or 2 with no exception escaping,
and every failure but `validate`'s diagnostics must end stderr with an
`error: <message>` line. The fuzzed argv include usage errors: values
that argparse refuses, unknown flags and dropped arguments. Each call
runs under a time alarm. The reader alone is fuzzed in `test_format.py`.
"""
import contextlib
import io
import re
import signal

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from araid import cli
from araid.resources import data_path, drilling_maid_text

DRILLING = str(data_path("drilling.maid"))
MODEL_LINES = drilling_maid_text().splitlines()
BELIEF_LINES = ["cpt DT | : avoid=0.2,share=0.3,accept=0.5", "cpt DR | : continue=0.6,stop=0.4"]
DELIMITERS = re.compile(r"([\s=,|:]+)")
TOKENS = sorted({t for line in MODEL_LINES for t in DELIMITERS.split(line)
                 if t and not DELIMITERS.fullmatch(t)}
                | {"nan", "inf", "-1", "0", "1e999", "1.5", "#", "->", "AP", "ZZ"})
DOMAINS = {line.split()[1]: re.search(r"domain=(\S*)", line + " domain=zz").group(1).split(",")
           for line in MODEL_LINES if line.startswith("node ")}
NODES = sorted(DOMAINS)
LABELS = sorted({label for labels in DOMAINS.values() for label in labels})
ALARM_S = 5
FUZZ = settings(max_examples=100, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

# a run per command on a model file
MODEL_RUNS = [
    ["validate"],
    ["tables", "--agent", "defender", "--axes", "DP,DF,DT,DR,UC,UA"],
    ["tables", "--agent", "attacker", "--axes", "AP,UC,DP,DF", "--fix", "DT=accept",
     "DR=continue"],
    ["evaluate", "--agent", "defender", "--policy", "DP=no_additional", "DF=no_forensic",
     "DT=accept", "DR=continue", "AP=no_perpetrate", "--evidence", "UC=normal"],
    ["solve", "--draws", "50", "--seed", "3"],
]


class RanTooLong(Exception):
    pass


def alarm(signum, frame):
    raise RanTooLong(f"a run took more than {ALARM_S} s")


def check_contract(argv: list[str]) -> None:
    """Run `cli.main(argv)` under the alarm and check the failure contract."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, alarm)
    signal.alarm(ALARM_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2), (argv, code)
    if code == 0 or (argv[0] == "validate" and out.getvalue() and not err.getvalue()):
        return  # a success, or validate's diagnostics on stdout
    lines = err.getvalue().splitlines()
    assert lines and lines[-1].startswith("error: "), (argv, code, lines[-3:])


@st.composite
def mutated(draw, lines: list[str]) -> str:
    """`lines` with 1-3 lines deleted, duplicated or given a swapped token."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(["delete", "duplicate", "swap"]))
        if how == "delete":
            del lines[i]
        elif how == "duplicate":
            lines.insert(i, lines[i])
        else:
            parts = DELIMITERS.split(lines[i])
            words = [j for j, part in enumerate(parts) if part and not DELIMITERS.fullmatch(part)]
            if words:
                parts[draw(st.sampled_from(words))] = draw(st.sampled_from(TOKENS))
                lines[i] = "".join(parts)
    return "\n".join(lines) + "\n"


@FUZZ
@given(text=mutated(MODEL_LINES), run=st.sampled_from(MODEL_RUNS))
def test_a_mutated_model_file_keeps_the_failure_contract(tmp_path_factory, text, run):
    path = tmp_path_factory.mktemp("model") / "model.maid"
    path.write_text(text)
    check_contract([run[0], str(path), *run[1:]])


@FUZZ
@given(text=mutated(BELIEF_LINES), seed=st.integers(0, 2**32))
def test_a_mutated_belief_file_keeps_the_failure_contract(tmp_path_factory, text, seed):
    path = tmp_path_factory.mktemp("beliefs") / "beliefs"
    path.write_text(text)
    check_contract(["solve", DRILLING, "--beliefs", str(path), "--draws", "20",
                    "--seed", str(seed)])


words = st.sampled_from(NODES + LABELS + TOKENS + ["", "defender", "attacker", "--bogus"])
# node=label pairs, mostly of a label in the node's domain
pairs = st.lists(st.one_of(
    st.sampled_from(NODES).flatmap(lambda n: st.sampled_from(DOMAINS[n]).map(f"{n}={{}}".format)),
    st.builds("{}={}".format, st.sampled_from(NODES + ["ZZ"]), st.sampled_from(LABELS)),
    words), max_size=6)
agents = st.sampled_from(["defender", "attacker", "nobody", ""])
ARGV = st.one_of(
    st.tuples(st.just(["validate"]), st.sampled_from([[DRILLING], ["missing.maid"]])).map(
        lambda t: t[0] + t[1]),
    st.builds(lambda agent, axes, fix, out: ["tables", DRILLING, "--agent", agent, "--axes",
                                             ",".join(axes), "--fix", *fix, "--out", out],
              agents, st.lists(st.one_of(st.sampled_from(NODES), words), max_size=7), pairs,
              st.sampled_from(["csv", "json", "text"])),
    st.builds(lambda agent, policy, evidence: ["evaluate", DRILLING, "--agent", agent,
                                               "--policy", *policy, "--evidence", *evidence],
              agents, pairs, pairs),
    st.builds(lambda draws, seed, out: ["solve", DRILLING, "--draws", str(draws),
                                        "--seed", str(seed), "--out", out],
              st.one_of(st.integers(-2, 200), st.sampled_from([cli.MAX_DRAWS + 1, 2**63,
                                                                "abc", "1.5", ""])),
              st.one_of(st.integers(-5, 2**40), st.sampled_from([-(2**70), 2**70, "0x1"])),
              st.sampled_from(["text", "csv", "json", "xml"])),
)


@st.composite
def slipped(draw, argv: list[str]) -> list[str]:
    """`argv` as given, or with one argument dropped or one flag put in."""
    i = draw(st.integers(0, len(argv)))
    how = draw(st.sampled_from(["keep"] * 5 + ["drop", "--bogus", "--draws", "-x"]))
    if how == "keep" or (how == "drop" and i == len(argv)):
        return argv
    return argv[:i] + argv[i + 1:] if how == "drop" else argv[:i] + [how] + argv[i:]


@FUZZ
@given(argv=ARGV.flatmap(slipped))
def test_fuzzed_option_values_keep_the_failure_contract(argv):
    check_contract(argv)
