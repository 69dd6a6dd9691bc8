"""The benchmark's workloads: inputs from a seed, one op, and its checks.

Each workload is a closed loop with one client. Constructing a workload
is its set-up (the model, beliefs and uncertainty it needs); references
for the checks load on first use, outside set-up. `op_input`
makes the next op's inputs outside the timed region, `op` is the timed
call, and `check` judges its output once the op has returned, untimed.
Checks compare numbers within stated tolerances, never bit patterns, so
a change of random stream cannot fail them; only outputs of one run that
share a seed are required to be byte-identical.

CLI ops call `araid.cli.main(argv)` in process with stdout and stderr
captured in memory. Library ops go through module attributes
(`ara.forecast_attack`), so that trace wrappers see them.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from araid import ara, cli, drilling, inference, modelfile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MODEL = ROOT / "src" / "araid" / "data" / "drilling.maid"
POINT_BELIEFS = BENCH / "inputs" / "point_beliefs.txt"
REF = BENCH / "ref"

SE_LIMIT = 5.0          # forecast probabilities must lie within this many SEs
EU_TOL = 1e-9           # engine vs enumeration oracle
PUBLISHED_TOL = 1e-4    # engine vs the published defender table
SEED_POOL = 3           # distinct op seeds per run; each repeats within a run


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def run_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse rejects bad argv this way
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


def read_ref(name: str):
    return json.loads((REF / name).read_text(encoding="utf-8"))


def load_model():
    return modelfile.parse_model(MODEL.read_bytes())


def op_seeds(workload: str, seed: int) -> list[int]:
    rnd = random.Random(f"{workload}/{seed}")
    return [rnd.randrange(2**31) for _ in range(SEED_POOL)]


def forecast_table(contexts: list[dict]) -> dict[tuple, dict[str, float]]:
    """`AttackForecast.to_json` contexts keyed by their sorted assignment."""
    return {tuple(sorted(c["context"].items())): c["probabilities"] for c in contexts}


def forecast_misfit(contexts: list[dict], ref: dict, draws: int) -> str | None:
    """First context whose probabilities lie more than SE_LIMIT SEs off the reference.

    `contexts` and `ref["contexts"]` use `AttackForecast.to_json` layout.
    The SE combines the op's and the reference's binomial errors; p(1-p)
    is floored at 1/n so a reference probability of 0 or 1 still allows
    one draw's worth of slack.
    """
    want = forecast_table(ref["contexts"])
    got = forecast_table(contexts)
    if set(got) != set(want):
        return f"forecast contexts {sorted(got)} differ from the reference's"
    for k, probs in want.items():
        for alt, p_ref in probs.items():
            p = got[k].get(alt)
            if p is None:
                return f"alternative {alt} missing in context {dict(k)}"
            var = (max(p_ref * (1 - p_ref), 1 / draws) / draws
                   + max(p_ref * (1 - p_ref), 1 / ref["draws"]) / ref["draws"])
            if abs(p - p_ref) > SE_LIMIT * math.sqrt(var):
                return (f"P({alt} | {dict(k)}) = {p} is {abs(p - p_ref) / math.sqrt(var):.1f} "
                        f"SE from the reference {p_ref}")
    return None


def policy_key(policy) -> dict:
    """A library policy in the CLI's JSON layout."""
    return {dec: {",".join(key): alt for key, alt in rule.items()}
            for dec, rule in policy.items()}


class SolveDefault:
    """`araid solve --draws 10000` with the shipped default uncertainty."""

    name = "solve-default"
    draws = 10_000

    def __init__(self, seed: int):
        self.diagram = load_model()
        if not drilling.is_drilling_model(self.diagram):   # the CLI's defaults need it
            raise ValueError(f"{MODEL} is not the drilling model")
        self.seeds = op_seeds(self.name, seed)
        self.first_out: dict[int, str] = {}

    @functools.cached_property
    def ref(self) -> dict:
        return read_ref("solve_default.json")

    def argv(self, s: int, draws: int) -> list[str]:
        return ["solve", str(MODEL), "--draws", str(draws), "--seed", str(s), "--out", "json"]

    def warmup(self) -> None:
        result = run_cli(self.argv(self.seeds[0], 100))
        if result.code != 0:
            raise RuntimeError(f"warm-up solve failed: {result.err}")

    def op_input(self, i: int) -> list[str]:
        return self.argv(self.seeds[i % SEED_POOL], self.draws)

    def op(self, argv: list[str]) -> CliResult:
        return run_cli(argv)

    @staticmethod
    def stdout_bytes(result: CliResult) -> int:
        return len(result.out.encode())

    def check(self, argv: list[str], result: CliResult) -> str | None:
        if result.code != 0:
            return f"exit {result.code}: {result.err.strip()}"
        s = int(argv[argv.index("--seed") + 1])
        first = self.first_out.setdefault(s, result.out)
        if result.out != first:
            return f"stdout differs from the earlier op with seed {s}"
        doc = json.loads(result.out)
        policy = doc["solution"]["optimal"]["policy"]
        if policy != self.ref["policy"]:
            return f"optimal policy {policy} is not the pinned {self.ref['policy']}"
        return forecast_misfit(doc["forecast"]["contexts"], self.ref["forecast"], self.draws)


class SolveWide:
    """Library forecast (2,000 draws) plus defender search, every rule kind."""

    name = "solve-wide"
    draws = 2_000

    def __init__(self, seed: int):
        self.diagram = load_model()
        self.beliefs = drilling.default_beliefs()
        self.uncertainty = wide_uncertainty(self.diagram)
        self.seeds = op_seeds(self.name, seed)
        self.first: dict[int, tuple] = {}

    @functools.cached_property
    def ref(self) -> dict:
        return read_ref("solve_wide.json")

    def warmup(self) -> None:
        forecast = ara.forecast_attack(self.diagram, self.beliefs, self.uncertainty,
                                       draws=100, seed=self.seeds[0])
        ara.solve_defender(self.diagram, forecast)

    def op_input(self, i: int) -> int:
        return self.seeds[i % SEED_POOL]

    def op(self, s: int):
        forecast = ara.forecast_attack(self.diagram, self.beliefs, self.uncertainty,
                                       draws=self.draws, seed=s)
        return forecast, ara.solve_defender(self.diagram, forecast)

    @staticmethod
    def stdout_bytes(result) -> int:
        return 0

    def check(self, s: int, result) -> str | None:
        forecast, solution = result
        forecast_json = forecast.to_json()
        fingerprint = (forecast_json, tuple(r.expected_utility for r in solution.ranking))
        if self.first.setdefault(s, fingerprint) != fingerprint:
            return f"results differ from the earlier op with seed {s}"
        misfit = forecast_misfit(json.loads(forecast_json)["contexts"],
                                 self.ref["forecast"], self.draws)
        if misfit:
            return misfit
        best = solution.optimal
        if policy_key(best.policy) != self.ref["policy"]:
            return f"optimal policy {policy_key(best.policy)} is not the pinned one"
        if any(r.expected_utility > best.expected_utility for r in solution.ranking):
            return "a ranked policy beats the reported optimum"
        oracle = inference.enumerate_expected_utility(
            ara.apply_forecast(self.diagram, forecast), "defender", best.policy)
        if abs(oracle - best.expected_utility) > EU_TOL:
            return f"optimum EU {best.expected_utility} vs oracle {oracle}"
        return None

    def known_answer(self) -> str | None:
        """Untimed op with a known answer; fails while the AMV defect stands.

        With value_scale and value_root on AMV pinned to 1e6 and 2 by
        degenerate uniform rules, the attacker should perpetrate in every
        context (enumeration oracle on the rebuilt view, pinned in
        ref/solve_wide.json). `ara._sampled_overrides` builds both value
        overrides from the node's stated spec, so the later value_scale
        override discards the sampled root.
        """
        expected = self.ref["known_answer"]
        forecast = ara.forecast_attack(self.diagram, self.beliefs,
                                       known_answer_uncertainty(), draws=1, seed=0)
        wrong = []
        for ctx in expected["contexts"]:
            key = tuple(ctx["context"][n] for n in forecast.context_nodes)
            got = dict(zip(forecast.alternatives, forecast.probabilities[key]))
            if any(abs(got[a] - p) > 1e-12 for a, p in ctx["probabilities"].items()):
                wrong.append(f"{','.join(key)} -> {got}")
        if wrong:
            return (f"known-answer forecast wrong in {len(wrong)} of "
                    f"{len(expected['contexts'])} contexts: " + "; ".join(wrong))
        return None


def wide_uncertainty(d) -> ara.ParameterUncertainty:
    """Every rule kind: belief, weights, non-root cpt_row, value_scale/root."""
    rules = {
        ("belief", "DT"): ara.DirichletRule((2.0, 2.0, 2.0)),
        ("belief", "DR"): ara.DirichletRule((2.0, 2.0)),
        ("weights", "AU"): ara.DirichletRule((97.0, 3.0)),
        ("cpt_row", "UCA", ("attack", "forensic")): ara.DirichletRule((3.0, 7.0)),
        ("cpt_row", "UCA", ("attack", "no_forensic")): ara.DirichletRule((9.0, 1.0)),
        ("value_scale", "AMV"): ara.UniformRule(8e6, 1.2e7),
        ("value_root", "AMV"): ara.UniformRule(2.5, 3.5),
    }
    for row in d.nodes["UM"].payload.rows:
        rules[("cpt_row", "UM", row)] = ara.PerturbRule(0.02)
    return ara.ParameterUncertainty(rules=rules)


def known_answer_uncertainty() -> ara.ParameterUncertainty:
    return ara.ParameterUncertainty(rules={
        ("value_scale", "AMV"): ara.UniformRule(1e6, 1e6),
        ("value_root", "AMV"): ara.UniformRule(2.0, 2.0),
    })


DEFENDER_AXES = "DP,DF,DT,DR,UC,UA"
ATTACKER_TABLE = ["--agent", "attacker", "--axes", "AP,UC,DP,DF",
                  "--fix", "DT=accept", "DR=continue"]
DECISIONS = ("DP", "DF", "DT", "DR", "AP")
CHANCE = ("UC", "UA", "UM", "UH", "URH", "UCA")


class Exact:
    """One analyst session per op: validate, two tables, evaluate, point solve."""

    name = "exact"

    def __init__(self, seed: int):
        self.diagram = load_model()
        self.seed = seed
        self.verified: set[tuple[int, str]] = set()
        self.oracle: dict[tuple, float | None] = {}

    @functools.cached_property
    def ref(self) -> dict:
        return read_ref("exact.json")

    @functools.cached_property
    def published(self) -> dict[tuple[str, ...], float]:
        with (REF / "T12_published.csv").open(encoding="utf-8") as fh:
            return {tuple(r[a] for a in DEFENDER_AXES.split(",")): float(r["eu"])
                    for r in csv.DictReader(fh)}

    def warmup(self) -> None:
        for result in self.op(self.op_input(-1)):
            if result.code not in (0, 1):
                raise RuntimeError(f"warm-up session failed: {result.err}")

    def op_input(self, i: int) -> list[list[str]]:
        rnd = random.Random(f"{self.name}/{self.seed}/{i}")
        nodes = self.diagram.nodes
        agent = rnd.choice(("defender", "attacker"))
        policy = [f"{n}={rnd.choice(nodes[n].domain.labels)}" for n in DECISIONS]
        evidence = [f"{n}={rnd.choice(nodes[n].domain.labels)}"
                    for n in rnd.sample(CHANCE, rnd.randint(0, 2))]
        evaluate = ["evaluate", str(MODEL), "--agent", agent, "--policy", *policy]
        if evidence:
            evaluate += ["--evidence", *evidence]
        return [
            ["validate", str(MODEL)],
            ["tables", str(MODEL), "--agent", "defender", "--axes", DEFENDER_AXES],
            ["tables", str(MODEL), *ATTACKER_TABLE],
            evaluate,
            ["solve", str(MODEL), "--beliefs", str(POINT_BELIEFS), "--draws", "1",
             "--seed", str(rnd.randrange(2**31)), "--out", "json"],
        ]

    def op(self, session: list[list[str]]) -> list[CliResult]:
        return [run_cli(argv) for argv in session]

    @staticmethod
    def stdout_bytes(results: list[CliResult]) -> int:
        return sum(len(r.out.encode()) for r in results)

    def check(self, session: list[list[str]], results: list[CliResult]) -> str | None:
        checks = (self._validate, self._defender_table, self._attacker_table,
                  self._evaluate, self._solve)
        for step, (argv, result, fn) in enumerate(zip(session, results, checks), 1):
            if (step, result.out) in self.verified and result.code == 0:
                continue
            problem = fn(argv, result)
            if problem:
                return f"step {step} ({argv[0]}): {problem}"
            if step in (1, 2, 3):   # outputs that repeat in every session
                self.verified.add((step, result.out))
        return None

    @staticmethod
    def _validate(argv, result) -> str | None:
        if result.code != 0 or result.out != "OK\n":
            return f"exit {result.code}, stdout {result.out!r}"
        return None

    @staticmethod
    def _table(result, axes: list[str]):
        rows = list(csv.DictReader(io.StringIO(result.out)))
        cells = {tuple(r[a] for a in axes): float(r["eu"]) for r in rows}
        marked = {tuple(r[a] for a in axes) for r in rows if r["is_max_in_group"] == "true"}
        return cells, marked

    def _defender_table(self, argv, result) -> str | None:
        if result.code != 0:
            return f"exit {result.code}: {result.err.strip()}"
        cells, marked = self._table(result, DEFENDER_AXES.split(","))
        if set(cells) != set(self.published):
            return f"{len(cells)} cells, expected the published {len(self.published)}"
        for key, want in self.published.items():
            if abs(cells[key] - want) > PUBLISHED_TOL:
                return f"cell {key} = {cells[key]}, published {want}"
        bold = {tuple(k) for k in self.ref["defender_boldface"]}
        if marked != bold:
            return f"maxima {sorted(marked)} differ from the published boldface {sorted(bold)}"
        return None

    def _attacker_table(self, argv, result) -> str | None:
        if result.code != 0:
            return f"exit {result.code}: {result.err.strip()}"
        ref = self.ref["attacker_table"]
        cells, marked = self._table(result, ref["axes"])
        want = {tuple(r["key"]): r["eu"] for r in ref["rows"]}
        if set(cells) != set(want):
            return f"cells {sorted(cells)} differ from the reference's"
        for key, eu in want.items():
            if abs(cells[key] - eu) > EU_TOL:
                return f"cell {key} = {cells[key]}, oracle {eu}"
        if marked != {tuple(r["key"]) for r in ref["rows"] if r["is_max"]}:
            return "row maxima differ from the oracle's"
        return None

    def _evaluate(self, argv, result) -> str | None:
        agent = argv[argv.index("--agent") + 1]
        policy_at = argv.index("--policy") + 1
        ev_at = argv.index("--evidence") + 1 if "--evidence" in argv else len(argv)
        choices = tuple(tuple(a.split("=", 1)) for a in argv[policy_at:policy_at + len(DECISIONS)])
        evidence = tuple(tuple(a.split("=", 1)) for a in argv[ev_at:])
        key = (agent, choices, evidence)
        if key not in self.oracle:
            try:
                self.oracle[key] = inference.enumerate_expected_utility(
                    self.diagram, agent, inference.constant_policy(self.diagram, dict(choices)),
                    dict(evidence))
            except inference.ImpossibleEvidenceError:
                self.oracle[key] = None
        want = self.oracle[key]
        if want is None:
            if result.code != 1 or result.out or "impossible evidence" not in result.err:
                return (f"impossible evidence should exit 1 cleanly; got exit "
                        f"{result.code}, stdout {result.out!r}, stderr {result.err.strip()!r}")
            return None
        if result.code != 0:
            return f"exit {result.code}: {result.err.strip()}"
        reported = json.loads(result.err.strip().splitlines()[-1])["result"]["expected_utility"]
        # stdout rounds to 6 decimals: half a unit of the last digit plus EU_TOL
        if abs(float(result.out) - want) > 5e-7 + EU_TOL or abs(reported - want) > EU_TOL:
            return f"EU {reported} (stdout {result.out.strip()}), oracle {want}"
        return None

    def _solve(self, argv, result) -> str | None:
        if result.code != 0:
            return f"exit {result.code}: {result.err.strip()}"
        doc = json.loads(result.out)
        ref = self.ref["point_solve"]
        got = forecast_table(doc["forecast"]["contexts"])
        want = forecast_table(ref["forecast"]["contexts"])
        if got.keys() != want.keys() or any(
                abs(got[k][a] - p) > 1e-12 for k in want for a, p in want[k].items()):
            return f"point forecast {got} is not the oracle's"
        best = doc["solution"]["optimal"]
        if best["policy"] not in ref["optimal_policies"]:
            return f"optimal policy {best['policy']} is not among the oracle's optima"
        if abs(best["expected_utility"] - ref["expected_utility"]) > EU_TOL:
            return f"optimal EU {best['expected_utility']}, oracle {ref['expected_utility']}"
        return None


WORKLOADS = {w.name: w for w in (SolveDefault, Exact, SolveWide)}

