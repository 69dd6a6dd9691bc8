"""Command-line front end: validate, tables, solve, evaluate.

Exit codes: 0 success, 1 model/domain error, 2 I/O error. Everything
printed to stdout is deterministic (fixed seed in, identical bytes out);
the run report with wall-clock duration (and, for `solve`, per-phase
timings) goes to stderr as one JSON line.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time

from . import drilling
from .ara import ParameterUncertainty, block_count, forecast_attack, solve_defender
from .diagram import Diagram, NodeKind
from .inference import (
    AmbiguousCellError,
    ImpossibleEvidenceError,
    constant_policy,
    decision_table,
    expected_utility,
)
from .modelfile import ModelFormatError, parse_distribution_rows, try_parse_model

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_MODEL = 1
EXIT_IO = 2


class _CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_MODEL):
        super().__init__(message)
        self.code = code


def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror or exc}", EXIT_IO)


def _load_diagram(path: str) -> tuple[Diagram, str]:
    raw = _read_file(path)
    digest = hashlib.sha256(raw).hexdigest()
    diagram, diags = try_parse_model(raw)
    if diagram is None:
        for d in diags:
            print(f"{path}:{d}", file=sys.stderr)
        raise _CliError(f"{path} is not a valid model", EXIT_MODEL)
    return diagram, digest


def _report(command: str, path: str, digest: str, started: float, **extra) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input": {"path": path, "sha256": digest},
        "duration_seconds": round(time.monotonic() - started, 6),
    }
    payload.update(extra)
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _parse_assignments(pairs: list[str], what: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise _CliError(f"{what} must be node=label, got {pair!r}")
        k, v = pair.split("=", 1)
        out[k] = v
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_validate(args: argparse.Namespace) -> int:
    started = time.monotonic()
    raw = _read_file(args.file)
    digest = hashlib.sha256(raw).hexdigest()
    diagram, diags = try_parse_model(raw)
    for d in diags:
        print(f"{args.file}:{d}")
    if diagram is None:
        return EXIT_MODEL
    print("OK")
    _report("validate", args.file, digest, started, result={"status": "ok"})
    return EXIT_OK


def _table_rows(diagram: Diagram, args: argparse.Namespace):
    axes = [a for a in args.axes.split(",") if a]
    fixed = constant_policy(diagram, _parse_assignments(args.fix, "--fix"))
    table = decision_table(diagram, args.agent, axes, fixed=fixed)
    rows = []
    for key, eu, is_max in table.rows():
        row = dict(zip(table.axes, key))
        row["eu"] = eu
        row["is_max_in_group"] = is_max
        rows.append(row)
    return table, rows


def cmd_tables(args: argparse.Namespace) -> int:
    started = time.monotonic()
    diagram, digest = _load_diagram(args.file)
    try:
        table, rows = _table_rows(diagram, args)
    except (ValueError, KeyError) as exc:
        raise _CliError(str(exc))
    header = list(table.axes) + ["eu", "is_max_in_group"]
    if args.out == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[a] for a in table.axes]
                            + [repr(row["eu"]), str(row["is_max_in_group"]).lower()])
    else:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "tables",
            "input": {"path": args.file, "sha256": digest},
            "agent": args.agent,
            "axes": list(table.axes),
            "rows": rows,
        }
        print(json.dumps(doc, sort_keys=True))
    _report("tables", args.file, digest, started,
            result={"rows": len(rows), "agent": args.agent})
    return EXIT_OK


def _solve_inputs(diagram: Diagram, args: argparse.Namespace):
    if args.beliefs:
        raw = _read_file(args.beliefs)
        try:
            beliefs = parse_distribution_rows(raw)
        except ModelFormatError as exc:
            raise _CliError(f"{args.beliefs}: {exc}")
        uncertainty = ParameterUncertainty()  # point rules at the file's beliefs
    elif drilling.is_drilling_model(diagram):
        beliefs = drilling.default_beliefs()
        uncertainty = drilling.default_uncertainty()
    else:
        raise _CliError("no --beliefs file given and the model has no built-in defaults")
    return beliefs, uncertainty


def _policy_json(policy) -> dict:
    return {dec: {",".join(key): alt for key, alt in sorted(rule.items())}
            for dec, rule in sorted(policy.items())}


def cmd_solve(args: argparse.Namespace) -> int:
    started = time.monotonic()
    diagram, digest = _load_diagram(args.file)
    beliefs, uncertainty = _solve_inputs(diagram, args)
    loaded = time.monotonic()
    try:
        forecast = forecast_attack(diagram, beliefs, uncertainty,
                                   draws=args.draws, seed=args.seed)
        forecasted = time.monotonic()
        solution = solve_defender(diagram, forecast)
        solved = time.monotonic()
    except (ValueError, KeyError) as exc:
        raise _CliError(str(exc))
    attack_alt = forecast.alternatives[0]

    if args.out == "text":
        print(f"forecast over {forecast.decision} (draws={forecast.draws} "
              f"seed={forecast.seed})")
        for ctx in sorted(forecast.probabilities):
            ctx_txt = " ".join(f"{n}={v}" for n, v in zip(forecast.context_nodes, ctx))
            probs = " ".join(f"P({a})={p:.6f}" for a, p in
                             zip(forecast.alternatives, forecast.probabilities[ctx]))
            print(f"  {ctx_txt}: {probs}")
        print("optimal policy:")
        for dec in sorted(solution.optimal.policy):
            rule = solution.optimal.policy[dec]
            if len(rule) == 1:
                print(f"  {dec}: {next(iter(rule.values()))}")
            else:
                arms = " ".join(f"{','.join(k)}->{v}" for k, v in sorted(rule.items()))
                print(f"  {dec}: {arms}")
        print(f"expected utility: {solution.optimal.expected_utility:.6f}")
    elif args.out == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["section"] + list(forecast.context_nodes)
                        + [f"p_{a}" for a in forecast.alternatives])
        for ctx in sorted(forecast.probabilities):
            writer.writerow(["forecast"] + list(ctx)
                            + [repr(p) for p in forecast.probabilities[ctx]])
        writer.writerow([])
        decisions = sorted(solution.optimal.policy)
        rule_cols: list[str] = []
        for dec in decisions:
            for key in sorted(solution.optimal.policy[dec]):
                rule_cols.append(f"{dec}[{','.join(key)}]")
        writer.writerow(["section"] + rule_cols + ["eu"])
        for ranked in solution.ranking:
            cells = []
            for dec in decisions:
                for key in sorted(ranked.policy[dec]):
                    cells.append(ranked.policy[dec][key])
            writer.writerow(["policy"] + cells + [repr(ranked.expected_utility)])
    else:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "solve",
            "input": {"path": args.file, "sha256": digest},
            "seed": args.seed,
            "draws": args.draws,
            "forecast": json.loads(forecast.to_json()),
            "solution": {
                "optimal": {
                    "policy": _policy_json(solution.optimal.policy),
                    "expected_utility": solution.optimal.expected_utility,
                },
                "ranking": [
                    {"policy": _policy_json(r.policy), "expected_utility": r.expected_utility}
                    for r in solution.ranking
                ],
            },
        }
        print(json.dumps(doc, sort_keys=True))
    _report("solve", args.file, digest, started, seed=args.seed, draws=args.draws,
            timings_s={"load": round(loaded - started, 6),
                       "forecast": round(forecasted - loaded, 6),
                       "solve": round(solved - forecasted, 6)},
            forecast_blocks=block_count(forecast.draws), forecast_chunks=forecast.chunks,
            result={"expected_utility": solution.optimal.expected_utility,
                    "p_attack_range": [
                        min(p[0] for p in forecast.probabilities.values()),
                        max(p[0] for p in forecast.probabilities.values())],
                    "attack_alternative": attack_alt})
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    started = time.monotonic()
    diagram, digest = _load_diagram(args.file)
    choices = _parse_assignments(args.policy, "--policy")
    evidence = _parse_assignments(args.evidence, "--evidence")
    decisions = {n.id for n in diagram.nodes.values() if n.kind == NodeKind.DECISION}
    missing = sorted(decisions - set(choices))
    if missing:
        raise _CliError(f"--policy must cover every decision; missing {missing}")
    try:
        policy = constant_policy(diagram, choices)
        eu = expected_utility(diagram, args.agent, policy, evidence)
    except ImpossibleEvidenceError:
        raise _CliError("impossible evidence")
    except (ValueError, KeyError) as exc:
        raise _CliError(str(exc))
    print(f"{eu:.6f}")
    _report("evaluate", args.file, digest, started,
            result={"agent": args.agent, "expected_utility": eu})
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="araid",
        description="Influence-diagram engine with an adversarial risk analysis solver.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a .maid file; print diagnostics")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("tables", help="expected-utility table over chosen axes")
    p.add_argument("file")
    p.add_argument("--agent", required=True)
    p.add_argument("--axes", required=True, help="comma-separated node ids")
    p.add_argument("--fix", nargs="*", default=[], metavar="NODE=LABEL",
                   help="pin opponent decisions")
    p.add_argument("--out", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("solve", help="forecast the attack and optimize the defender")
    p.add_argument("file")
    p.add_argument("--draws", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--beliefs", help=".maid-style cpt rows for the attacker's beliefs "
                                     "(point forecast); defaults exist for the shipped "
                                     "drilling model")
    p.add_argument("--out", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("evaluate", help="expected utility of one policy")
    p.add_argument("file")
    p.add_argument("--agent", required=True)
    p.add_argument("--policy", nargs="*", default=[], metavar="NODE=LABEL")
    p.add_argument("--evidence", nargs="*", default=[], metavar="NODE=LABEL")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ModelFormatError, ImpossibleEvidenceError, AmbiguousCellError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
