"""Command-line front end: validate, tables, solve, evaluate.

Exit codes: 0 success, 1 model/domain or usage error, 2 I/O error.
Everything printed to stdout is deterministic (fixed seed in, identical
bytes out). On success the run report (wall-clock duration and, for
`solve`, per-phase timings) goes to stderr as one JSON line. A failure
prints no report, and its last stderr line is `error: <message>`; a usage
error (an option value argparse refuses, an unknown flag, a missing
argument) is a failure like any other. A model that does not parse is
reported by its diagnostics: `validate` prints them to stdout and no
`error:` line; the other commands print them to stderr, then
`error: <path> is not a valid model`. A belief file that does not parse
is reported the same way, ending with `error: <path> is not a valid
belief file`. An error of several lines (a diagram's violations, which
beliefs that are not a distribution give) prints its detail lines first
and its first line last, as the `error:` line.
"""
from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import sys
import time
from typing import Sequence

from . import drilling
from .ara import ParameterUncertainty, block_count, forecast_attack, solve_defender
from .diagram import Diagram, NodeKind
from .inference import constant_policy, decision_table, expected_utility
from .modelfile import ModelFormatError, parse_distribution_rows, try_parse_model

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_MODEL = 1
EXIT_IO = 2

# The most draws `solve` accepts. A warm draw takes 0.5-1.1 us on a 2-vCPU
# VM, so this many run for about 50-110 s; the library's `forecast_attack`
# is bounded only by its exact tally.
MAX_DRAWS = 10**8


class _CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_MODEL):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors (a bad option value, an
    unknown flag, a missing argument) raise `_CliError`, so they end like
    every other failure; `--help` still exits 0."""

    def error(self, message: str):
        raise _CliError(message)


def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror or exc}", EXIT_IO)


def _report(header: dict, started: float, fields: dict) -> None:
    payload = {**header, "duration_seconds": round(time.monotonic() - started, 6), **fields}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _parse_assignments(pairs: Sequence[str], what: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise _CliError(f"{what} must be node=label, got {pair!r}")
        k, v = pair.split("=", 1)
        if k in out:
            raise _CliError(f"{what} names {k!r} twice")
        out[k] = v
    return out


# ---------------------------------------------------------------------------
# commands: each prints its stdout and returns its run-report fields
# ---------------------------------------------------------------------------

def cmd_validate(args: argparse.Namespace, diagram: Diagram, header: dict,
                 started: float) -> dict:
    print("OK")
    return {"result": {"status": "ok"}}


def cmd_tables(args: argparse.Namespace, diagram: Diagram, header: dict,
               started: float) -> dict:
    axes = [a for a in args.axes.split(",") if a]
    fixed = constant_policy(diagram, _parse_assignments(args.fix, "--fix"))
    table = decision_table(diagram, args.agent, axes, fixed=fixed)
    if args.out == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(list(table.axes) + ["eu", "is_max_in_group"])
        for key, eu, is_max in table.rows():
            writer.writerow(list(key) + [repr(eu), str(is_max).lower()])
    else:
        rows = [dict(zip(table.axes, key), eu=eu, is_max_in_group=is_max)
                for key, eu, is_max in table.rows()]
        print(json.dumps({**header, "agent": args.agent, "axes": list(table.axes),
                          "rows": rows}, sort_keys=True))
    return {"result": {"rows": len(table.cells), "agent": args.agent}}


def _solve_inputs(diagram: Diagram, args: argparse.Namespace):
    if args.beliefs:
        raw = _read_file(args.beliefs)
        try:
            beliefs = parse_distribution_rows(raw)
        except ModelFormatError as exc:
            for d in exc.diagnostics:
                print(f"{args.beliefs}:{d}", file=sys.stderr)
            raise _CliError(f"{args.beliefs} is not a valid belief file")
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


def cmd_solve(args: argparse.Namespace, diagram: Diagram, header: dict,
              started: float) -> dict:
    if args.draws > MAX_DRAWS:
        raise _CliError(f"--draws must be <= {MAX_DRAWS:,}, got {args.draws:,}")
    beliefs, uncertainty = _solve_inputs(diagram, args)
    # numpy loads numpy.random, which the forecast's generators need, on first
    # use (about 15 ms): count it as loading, not forecasting
    import numpy.random  # noqa: F401
    loaded = time.monotonic()
    forecast = forecast_attack(diagram, beliefs, uncertainty,
                               draws=args.draws, seed=args.seed)
    forecasted = time.monotonic()
    solution = solve_defender(diagram, forecast)
    solved = time.monotonic()

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
        # every ranked policy has a rule over the same observed tuples
        cols = [(dec, key) for dec, rule in sorted(solution.optimal.policy.items())
                for key in sorted(rule)]
        writer.writerow(["section"] + [f"{dec}[{','.join(key)}]" for dec, key in cols]
                        + ["eu"])
        for ranked in solution.ranking:
            writer.writerow(["policy"] + [ranked.policy[dec][key] for dec, key in cols]
                            + [repr(ranked.expected_utility)])
    else:
        doc = {
            **header,
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
    p_attack = [p[0] for p in forecast.probabilities.values()]
    return {"seed": args.seed, "draws": args.draws,
            "timings_s": {"load": round(loaded - started, 6),
                          "forecast": round(forecasted - loaded, 6),
                          "solve": round(solved - forecasted, 6)},
            "forecast_blocks": block_count(forecast.draws),
            "forecast_chunks": forecast.chunks,
            "result": {"expected_utility": solution.optimal.expected_utility,
                       "p_attack_range": [min(p_attack), max(p_attack)],
                       "attack_alternative": forecast.alternatives[0]}}


def cmd_evaluate(args: argparse.Namespace, diagram: Diagram, header: dict,
                 started: float) -> dict:
    choices = _parse_assignments(args.policy, "--policy")
    evidence = _parse_assignments(args.evidence, "--evidence")
    decisions = {n.id for n in diagram.nodes.values() if n.kind == NodeKind.DECISION}
    missing = sorted(decisions - set(choices))
    if missing:
        raise _CliError(f"--policy must cover every decision; missing {missing}")
    eu = expected_utility(diagram, args.agent, constant_policy(diagram, choices), evidence)
    print(f"{eu:.6f}")
    return {"result": {"agent": args.agent, "expected_utility": eu}}


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused by
    every `main` call in the process: building it takes about half as long
    as reading the shipped model, and parsing leaves it unchanged."""
    parser = _Parser(
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
    p.add_argument("--fix", nargs="*", default=(), metavar="NODE=LABEL",
                   help="pin opponent decisions")
    p.add_argument("--out", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("solve", help="forecast the attack and optimize the defender")
    p.add_argument("file")
    p.add_argument("--draws", type=int, default=10_000,
                   help=f"Monte Carlo draws, 1 to {MAX_DRAWS:,} (default: %(default)s)")
    p.add_argument("--seed", type=int, default=0, help="0 or more (default: %(default)s)")
    p.add_argument("--beliefs", help=".maid-style cpt rows for the attacker's beliefs "
                                     "(point forecast); defaults exist for the shipped "
                                     "drilling model")
    p.add_argument("--out", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("evaluate", help="expected utility of one policy")
    p.add_argument("file")
    p.add_argument("--agent", required=True)
    p.add_argument("--policy", nargs="*", default=(), metavar="NODE=LABEL")
    p.add_argument("--evidence", nargs="*", default=(), metavar="NODE=LABEL")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    try:
        args = build_parser().parse_args(argv)
        raw = _read_file(args.file)
        diagram, diags = try_parse_model(raw)
        if diagram is None:
            validating = args.func is cmd_validate
            for d in diags:
                print(f"{args.file}:{d}", file=sys.stdout if validating else sys.stderr)
            if validating:
                return EXIT_MODEL
            raise _CliError(f"{args.file} is not a valid model")
        header = {"schema_version": SCHEMA_VERSION, "command": args.command,
                  "input": {"path": args.file, "sha256": hashlib.sha256(raw).hexdigest()}}
        fields = args.func(args, diagram, header, started)
    except (_CliError, ValueError, KeyError) as exc:  # ours, or the library's model errors
        # a message's detail lines (a DiagramError's violations) go first,
        # so the last line is always the `error:` one
        head, *detail = str(exc).split("\n")
        for line in detail:
            print(line, file=sys.stderr)
        print(f"error: {head.removesuffix(':')}", file=sys.stderr)
        return exc.code if isinstance(exc, _CliError) else EXIT_MODEL
    _report(header, started, fields)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
