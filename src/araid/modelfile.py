"""Line-oriented text format for diagrams (`.maid` files).

One statement per line, `#` starts a comment, UTF-8. Statement kinds:

    agent <id> kind=<defender|attacker|nature> [name=<word>]
    node <id> kind=<decision|chance|deterministic|value|utility>
         [agent=<id>] [domain=a,b,c] [money=<f>,<f>,...]
    arc <src> -> <dst>
    cpt <node> | <parent>=<label>,... : <label>=<prob>,...
    det <node> | <parent>=<label>,... : <label>
    value <node> form=linear scale=<f> offset=<f>
    value <node> form=power_root scale=<f> root=<f>  (a value_root target needs it)
    value <node> form=indicator one=<labels> zero=<labels>
    value <node> form=table | <parent>=<label>,... : <score>
    utility <node> weights <value-node>=<w> ...
    order <agent> <decision> ...

Statement order is free except that cpt/det/value-table rows must follow
their node declaration. Parent order (the key order of every table) is the
order arcs are declared in, and the forecast's draws follow it: a sampled
table's draws are laid out in declared parent order, and a row's in
domain order, so reordering the arcs into a sampled node moves a seeded
forecast (though no table and no exact query). The parser reports *all* diagnostics, with
1-based line and column; each is an error. The serializer emits a canonical
form that parses back to an identical diagram.

The text is split into lines once, and one loop yields each statement's
keyword and the rest of its line, for model and belief files alike. A table
row is not split into words: one reader splits the `| conditions : outcome`
of every row once, and one reads the `key=value` lists of attributes,
conditions and outcomes. A model's table rows then take three passes:
reading stores each row's conditions as a dict; assembling keys each
node's rows by parent tuple in declared-parent order, which only the arcs
fix, and any arc may follow the rows; and `build_diagram`'s validator
checks the keyed tables. Reading statements, however malformed, takes time
linear in the text's length; validating the tables they declare does not
(it visits every parent tuple).
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from .diagram import (
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
    Violation,
    build_diagram,
    parent_tuples,
    topological_order,
)

_WORD = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.+-]*$")


@dataclass(frozen=True)
class ParseDiagnostic:
    line: int
    column: int
    message: str
    text: str = ""

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: error: {self.message}"


class ModelFormatError(ValueError):
    def __init__(self, diagnostics: list[ParseDiagnostic]):
        self.diagnostics = diagnostics
        summary = "\n".join(f"  {d}" for d in diagnostics[:20])
        more = "" if len(diagnostics) <= 20 else f"\n  ... {len(diagnostics) - 20} more"
        super().__init__(f"model text has {len(diagnostics)} problem(s):\n{summary}{more}")


@dataclass
class _NodeDraft:
    line: int
    id: str
    kind: NodeKind | None = None
    agent: str | None = None
    domain: tuple[str, ...] | None = None
    money: tuple[float, ...] | None = None
    parents: list[str] = field(default_factory=list)
    # (keyword, line, conditions, outcome) of each cpt/det/value-table row
    rows: list[tuple[str, int, dict[str, str], object]] = field(default_factory=list)
    row_lines: dict[tuple[str, ...], int] = field(default_factory=dict)  # key -> row's line
    value_params: dict[str, str] | None = None
    value_line: int = 0
    weights: dict[str, float] | None = None


class _Parser:
    def __init__(self, text: str | bytes):
        if isinstance(text, bytes):
            text = text.decode("utf-8", errors="replace")
        # one leading UTF-8 byte-order mark is no text
        self.lines = text.removeprefix("\ufeff").split("\n")
        self.diags: list[ParseDiagnostic] = []
        self.agents: dict[str, tuple[int, Agent]] = {}
        self.nodes: dict[str, _NodeDraft] = {}
        self.arcs: list[tuple[int, str, str]] = []
        self.orders: dict[str, tuple[int, tuple[str, ...]]] = {}

    # -- diagnostics helpers -------------------------------------------------

    def error(self, line_no: int, message: str, token: str = "") -> None:
        col = 1
        if token and 1 <= line_no <= len(self.lines):
            pos = self.lines[line_no - 1].find(token)
            col = pos + 1 if pos >= 0 else 1
        self.diags.append(ParseDiagnostic(line_no, col, message, token))

    def _word(self, line_no: int, token: str, what: str) -> str | None:
        if not _WORD.match(token):
            self.error(line_no, f"malformed {what} {token!r}", token)
            return None
        return token

    def _node_id(self, line_no: int, token: str) -> str | None:
        # a declared id was read as a word already
        return token if token in self.nodes else self._word(line_no, token, "node id")

    def _float(self, line_no: int, token: str) -> float | None:
        try:
            value = float(token)
        except ValueError:
            value = float("nan")
        if value != value:  # neither a number nor NaN belongs in a model file
            self.error(line_no, f"malformed number {token!r}", token)
            return None
        return value

    def _pairs(self, line_no: int, parts: list[str], malformed: str, repeated: str,
               convert=None) -> dict | None:
        """Stripped `key=value` parts as a dict, each value passed through
        `convert` before the repeat check; None after reporting the first bad part."""
        out = {}
        for part in parts:
            part = part.strip()
            key, eq, value = part.partition("=")
            if not eq:
                self.error(line_no, f"{malformed}, got {part!r}", part)
                return None
            if convert is not None:
                value = convert(line_no, value)
                if value is None:
                    return None
            if key in out:
                self.error(line_no, f"{repeated} {key!r}", part)
                return None
            out[key] = value
        return out

    def _kv_pairs(self, line_no: int, tokens: list[str]) -> dict[str, str] | None:
        return self._pairs(line_no, tokens, "expected key=value", "duplicate key")

    def _outcome(self, line_no: int, text: str) -> dict[str, float] | None:
        """Parse `label=prob,...`; None after reporting a malformed one."""
        return self._pairs(line_no, text.split(","), "outcome must be label=prob",
                           "outcome repeats label", self._float)

    # -- statement dispatch ----------------------------------------------------

    def statements(self):
        """`(line number, keyword, rest)` of every line with text outside its
        `#` comment: its first word and the text after it."""
        for line_no, raw in enumerate(self.lines, start=1):
            words = raw.partition("#")[0].split(None, 1)
            if words:
                yield line_no, words[0], words[1] if len(words) > 1 else ""

    def parse(self) -> None:
        for line_no, keyword, body in self.statements():
            # a table row is read whole, without splitting it into words
            if keyword in ("cpt", "det") or (keyword == "value" and "|" in body):
                self._row(line_no, keyword, body)
                continue
            handler = getattr(self, f"_stmt_{keyword}", None)
            if handler is None:
                self.error(line_no, f"unknown keyword {keyword!r}", keyword)
                continue
            handler(line_no, body.split())

    def _stmt_agent(self, line_no: int, args: list[str]) -> None:
        if not args:
            return self.error(line_no, "agent statement needs an id")
        aid = self._word(line_no, args[0], "agent id")
        kv = self._kv_pairs(line_no, args[1:])
        if aid is None or kv is None:
            return
        if aid in self.agents:
            return self.error(line_no, f"duplicate agent {aid!r}", aid)
        kind_token = kv.pop("kind", None)
        name = kv.pop("name", "")
        if name and self._word(line_no, name, "display name") is None:
            return
        if kv:
            return self.error(line_no, f"unknown agent attribute(s) {sorted(kv)}")
        try:
            kind = AgentKind(kind_token)
        except ValueError:
            return self.error(line_no, f"agent kind must be defender/attacker/nature, "
                                       f"got {kind_token!r}", kind_token or "")
        self.agents[aid] = (line_no, Agent(aid, kind, name))

    def _stmt_node(self, line_no: int, args: list[str]) -> None:
        if not args:
            return self.error(line_no, "node statement needs an id")
        nid = self._node_id(line_no, args[0])
        kv = self._kv_pairs(line_no, args[1:])
        if nid is None or kv is None:
            return
        if nid in self.nodes:
            return self.error(line_no, f"duplicate node {nid!r}", nid)
        draft = _NodeDraft(line=line_no, id=nid)
        kind_token = kv.pop("kind", None)
        try:
            draft.kind = NodeKind(kind_token)
        except ValueError:
            return self.error(line_no, f"node kind must be one of decision/chance/"
                                       f"deterministic/value/utility, got {kind_token!r}")
        draft.agent = kv.pop("agent", None)
        if "domain" in kv:
            labels = tuple(kv.pop("domain").split(","))
            malformed = [lbl for lbl in labels if not _WORD.match(lbl)]
            if malformed:
                self._word(line_no, malformed[0], "domain label")  # reports the first
                return
            draft.domain = labels
        if "money" in kv:
            tags = []
            for tok in kv.pop("money").split(","):
                val = self._float(line_no, tok)
                if val is None:
                    return
                tags.append(val)
            draft.money = tuple(tags)
            if draft.domain is None or len(draft.money) != len(draft.domain):
                return self.error(line_no, "money= must tag each domain label, in order")
        if kv:
            return self.error(line_no, f"unknown node attribute(s) {sorted(kv)}")
        self.nodes[nid] = draft

    def _stmt_arc(self, line_no: int, args: list[str]) -> None:
        if len(args) != 3 or args[1] != "->":
            return self.error(line_no, "arc statement must be `arc <src> -> <dst>`")
        src = self._node_id(line_no, args[0])
        dst = self._node_id(line_no, args[2])
        if src and dst:
            self.arcs.append((line_no, src, dst))

    def _split_row(self, line_no: int, body: str) -> tuple[str, str, str] | None:
        """Split a row's `<head...> | conds : outcome` into (head, conds, outcome)."""
        head, bar, rest = body.partition("|")
        if not bar:
            self.error(line_no, "row statement needs `| <conditions> : <outcome>`")
            return None
        conds, colon, outcome = rest.partition(":")
        if not colon:
            self.error(line_no, "row statement needs `:` before the outcome")
            return None
        return head.strip(), conds.strip(), outcome.strip()

    def _row_target(self, line_no: int, node: str) -> _NodeDraft | None:
        if node not in self.nodes:
            self.error(line_no, f"row for undeclared node {node!r} "
                                f"(rows must follow their node declaration)", node)
            return None
        return self.nodes[node]

    def _row(self, line_no: int, keyword: str, body: str) -> None:
        """Add the table row `<keyword> <head> | <conditions> : <outcome>` to its
        node's draft, unless it reports why the row is malformed."""
        parts = self._split_row(line_no, body)
        if parts is None:
            return
        head, conds_text, outcome = parts
        # a value row's head is `<node> form=table`
        node = (head.split() or [""])[0] if keyword == "value" else head
        if not self._node_id(line_no, node):
            return
        draft = self._row_target(line_no, node)
        conds = self._pairs(line_no, conds_text.split(",") if conds_text else [],
                            "condition must be parent=label", "condition repeats parent")
        if draft is None or conds is None:
            return
        if keyword == "cpt":
            value = self._outcome(line_no, outcome)
        elif keyword == "det":
            value = self._word(line_no, outcome, "output label")
        else:
            value = self._table_score(line_no, draft, head, outcome)
        if value is not None:
            draft.rows.append((keyword, line_no, conds, value))

    def _table_score(self, line_no: int, draft: _NodeDraft, head: str, text: str
                     ) -> float | None:
        """The score of a `value <node> form=table | ... : <score>` row."""
        head_kv = self._kv_pairs(line_no, head.split()[1:])
        if head_kv is None or head_kv.get("form", "table") != "table":
            return self.error(line_no, "row-style value statements must use form=table")
        score = self._float(line_no, text)
        if score is None:
            return None
        if draft.value_params is None:
            draft.value_params = {"form": "table"}
            draft.value_line = line_no
        elif draft.value_params.get("form") != "table":
            return self.error(line_no, f"conflicting value forms for {draft.id!r}")
        return score

    def _stmt_value(self, line_no: int, args: list[str]) -> None:
        if not args:
            return self.error(line_no, "value statement needs a node id")
        nid = self._node_id(line_no, args[0])
        if nid is None:
            return
        draft = self._row_target(line_no, nid)
        kv = self._kv_pairs(line_no, args[1:])
        if draft is None or kv is None:
            return
        if draft.value_params is not None:
            return self.error(line_no, f"duplicate value statement for {nid!r}", nid)
        if kv.get("form") not in ValueSpec.FORMS:
            return self.error(line_no, f"value form must be one of {ValueSpec.FORMS}")
        draft.value_params = kv
        draft.value_line = line_no

    def _stmt_utility(self, line_no: int, args: list[str]) -> None:
        if len(args) < 2 or args[1] != "weights":
            return self.error(line_no, "utility statement must be "
                                       "`utility <node> weights <value>=<w> ...`")
        nid = self._node_id(line_no, args[0])
        if nid is None:
            return
        draft = self._row_target(line_no, nid)
        kv = self._kv_pairs(line_no, args[2:])
        if draft is None or kv is None:
            return
        if draft.weights is not None:
            return self.error(line_no, f"duplicate utility statement for {nid!r}", nid)
        weights: dict[str, float] = {}
        for k, tok in kv.items():
            w = self._float(line_no, tok)
            if w is None:
                return
            weights[k] = w
        draft.weights = weights

    def _stmt_order(self, line_no: int, args: list[str]) -> None:
        if not args:
            return self.error(line_no, "order statement needs an agent id")
        aid = self._word(line_no, args[0], "agent id")
        if aid is None:
            return
        if aid in self.orders:
            return self.error(line_no, f"duplicate order statement for {aid!r}", aid)
        if all(self._node_id(line_no, tok) for tok in args[1:]):
            self.orders[aid] = (line_no, tuple(args[1:]))

    # -- assembly ---------------------------------------------------------------

    def assemble(self) -> Diagram | None:
        if not self.nodes and not self.diags:
            self.error(1, "no nodes declared")
        for line_no, src, dst in self.arcs:
            if src not in self.nodes:
                self.error(line_no, f"arc references undeclared node {src!r}", src)
            elif dst not in self.nodes:
                self.error(line_no, f"arc references undeclared node {dst!r}", dst)
            elif src in self.nodes[dst].parents:
                self.error(line_no, f"duplicate arc {src} -> {dst}", src)
            else:
                self.nodes[dst].parents.append(src)

        built = [self._assemble_node(draft) for draft in self.nodes.values()]
        agents = tuple(a for _, a in self.agents.values())
        order = {aid: seq for aid, (_, seq) in self.orders.items()}
        try:
            return build_diagram(agents, built, order)
        except DiagramError as exc:
            for violation in exc.violations:
                # the parser leaves a value node without a spec only after
                # reporting why, and always gives a utility node one
                if violation.code != "missing-spec":
                    self.error(self._line_of(violation), str(violation))
            return None

    def _line_of(self, violation: Violation) -> int:
        """The line of the violation's table row, else of its node."""
        draft = self.nodes.get(violation.node)
        if draft is None:
            return 1
        return draft.row_lines.get(violation.key, draft.line)

    def _keyed_rows(self, draft: _NodeDraft, keyword: str) -> dict[tuple[str, ...], object]:
        """The node's `keyword` rows keyed by parent-value tuple, in declared-parent order."""
        out = {}
        parents, row_lines = draft.parents, draft.row_lines
        wanted = set(parents)
        for kw, line_no, conds, value in draft.rows:
            if kw != keyword:
                continue
            if conds.keys() != wanted:
                self.error(line_no, f"row conditions {sorted(conds)} must name exactly the "
                                    f"declared parents {parents} of {draft.id!r}")
                continue
            key = tuple([conds[p] for p in parents])
            if key in out:
                self.error(line_no, f"duplicate row {key} for node {draft.id!r}")
                continue
            out[key] = value
            row_lines[key] = line_no
        return out

    def _assemble_node(self, draft: _NodeDraft) -> Node:
        kind = draft.kind
        domain = None
        if draft.domain is not None:
            domain = Domain(labels=draft.domain, numeric_tags=draft.money)
        payload = None

        if kind == NodeKind.CHANCE:
            rows: dict[tuple[str, ...], tuple[float, ...]] = {}
            labels = set(domain.labels) if domain is not None else None
            for key, probs in self._keyed_rows(draft, "cpt").items():
                if probs.keys() != labels:
                    self.error(draft.row_lines[key], f"row must give one probability per "
                                                     f"domain label of {draft.id!r}")
                    continue
                rows[key] = tuple([probs[lbl] for lbl in domain.labels])
            payload = Cpt(rows)
        elif kind == NodeKind.DETERMINISTIC:
            payload = DetTable(self._keyed_rows(draft, "det"))
        elif kind == NodeKind.VALUE:
            payload = self._assemble_value(draft)
        elif kind == NodeKind.UTILITY:
            payload = UtilitySpec(draft.weights or {})
            if draft.weights is None:
                self.error(draft.line, f"utility node {draft.id!r} has no weights statement")

        # the first line of each statement kind that only one node kind takes
        given = {keyword: line_no for keyword, line_no, _, _ in reversed(draft.rows)}
        given["value"] = draft.value_line
        for keyword, needed, what in (
                ("cpt", NodeKind.CHANCE, "cpt rows given for non-chance"),
                ("det", NodeKind.DETERMINISTIC, "det rows given for non-deterministic"),
                ("value", NodeKind.VALUE, "value statement given for non-value")):
            if given.get(keyword) and kind != needed:
                self.error(given[keyword], f"{what} node {draft.id!r}")
        if draft.weights is not None and kind != NodeKind.UTILITY:
            self.error(draft.line, f"weights given for non-utility node {draft.id!r}")

        return Node(id=draft.id, kind=kind, owner=draft.agent, domain=domain,
                    parents=tuple(draft.parents), payload=payload)

    def _assemble_value(self, draft: _NodeDraft) -> ValueSpec | None:
        if draft.value_params is None:
            self.error(draft.line, f"value node {draft.id!r} has no value statement")
            return None
        params = dict(draft.value_params)
        form = params.pop("form")
        line = draft.value_line
        if form == "table":
            return ValueSpec("table", rows=self._keyed_rows(draft, "value"))
        if form == "indicator":
            one = frozenset(params.pop("one", "").split(",")) - {""}
            zero = frozenset(params.pop("zero", "").split(",")) - {""}
            spec = ValueSpec("indicator", one_labels=one, zero_labels=zero)
        else:  # linear or power_root: the numbers that form takes
            numbers = {}
            for key in ValueSpec.PARAMS[form]:
                numbers[key] = (self._float(line, params.pop(key)) if key in params else
                                self.error(line, f"value node {draft.id!r}: form={form} "
                                                 f"needs {key}="))
            spec = None if None in numbers.values() else ValueSpec(form, **numbers)
        if params:
            self.error(line, f"unknown value attribute(s) {sorted(params)}")
        return spec


def try_parse_model(text: str | bytes) -> tuple[Diagram | None, list[ParseDiagnostic]]:
    """Parse, reporting every diagnostic; never raises on malformed input.
    The diagram is None exactly when there are diagnostics."""
    parser = _Parser(text)
    try:
        parser.parse()
        diagram = parser.assemble()
    except Exception as exc:  # containment: arbitrary input must not abort
        parser.diags.append(ParseDiagnostic(1, 1, f"internal parser error: {exc}"))
        diagram = None
    diags = sorted(parser.diags, key=lambda d: (d.line, d.column, d.message))
    return (None if diags else diagram), diags


def parse_model(text: str | bytes) -> Diagram:
    """Parse or raise ModelFormatError with the full diagnostic list."""
    diagram, diags = try_parse_model(text)
    if diags:
        raise ModelFormatError(diags)
    return diagram


def parse_distribution_rows(text: str | bytes) -> dict[str, dict[str, float]]:
    """Parse bare `cpt <node> | : label=p,...` rows (belief files)."""
    out: dict[str, dict[str, float]] = {}
    parser = _Parser(text)
    for line_no, keyword, body in parser.statements():
        if keyword != "cpt":
            parser.error(line_no, "belief files hold only cpt rows")
            continue
        parts = parser._split_row(line_no, body)
        if parts is None:
            continue
        node, conds, outcome = parts
        if conds:
            parser.error(line_no, "belief rows are unconditional (leave `|  :` empty)")
            continue
        if node in out:
            parser.error(line_no, f"duplicate row for node {node!r}", node)
            continue
        probs = parser._outcome(line_no, outcome)
        if probs is not None:
            out[node] = probs
    if parser.diags:
        raise ModelFormatError(sorted(parser.diags, key=lambda d: (d.line, d.column)))
    return out


# ---------------------------------------------------------------------------
# canonical serializer
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def _check_word(token: str, what: str) -> str:
    if not _WORD.match(token):
        raise ValueError(f"{what} {token!r} cannot be written in model-file syntax")
    return token


def serialize_model(d: Diagram) -> str:
    """Canonical text: agents, nodes (topological), arcs, tables, values,
    utilities, orders. Numbers print in shortest round-trip form, so
    parsing the output reproduces every table bit for bit."""
    lines: list[str] = []
    for a in sorted(d.agents, key=lambda a: a.id):
        line = f"agent {_check_word(a.id, 'agent id')} kind={a.kind.value}"
        if a.display_name:
            line += f" name={_check_word(a.display_name, 'display name')}"
        lines.append(line)

    topo = topological_order(d)
    for nid in topo:
        n = d.nodes[nid]
        line = f"node {_check_word(nid, 'node id')} kind={n.kind.value}"
        if n.owner is not None:
            line += f" agent={_check_word(n.owner, 'agent id')}"
        if n.domain is not None:
            labels = ",".join(_check_word(lbl, "label") for lbl in n.domain.labels)
            line += f" domain={labels}"
            if n.domain.numeric_tags is not None:
                line += " money=" + ",".join(_fmt(t) for t in n.domain.numeric_tags)
        lines.append(line)

    for nid in topo:
        for p in d.nodes[nid].parents:
            lines.append(f"arc {p} -> {nid}")

    def conds(n: Node, key: tuple[str, ...]) -> str:
        return ",".join(f"{p}={v}" for p, v in zip(n.parents, key))

    for nid in topo:
        n = d.nodes[nid]
        if n.kind == NodeKind.CHANCE:
            for key in parent_tuples(d.nodes, n):
                row = n.payload.rows[key]
                outcome = ",".join(f"{lbl}={_fmt(p)}"
                                   for lbl, p in zip(n.domain.labels, row))
                lines.append(f"cpt {nid} | {conds(n, key)} : {outcome}")
        elif n.kind == NodeKind.DETERMINISTIC:
            for key in parent_tuples(d.nodes, n):
                lines.append(f"det {nid} | {conds(n, key)} : {n.payload.rows[key]}")

    for nid in topo:
        n = d.nodes[nid]
        if n.kind != NodeKind.VALUE:
            continue
        spec: ValueSpec = n.payload
        if spec.form == "table":
            for key in parent_tuples(d.nodes, n):
                lines.append(f"value {nid} form=table | {conds(n, key)} : "
                             f"{_fmt(spec.rows[key])}")
        elif spec.form in ValueSpec.PARAMS:
            lines.append(f"value {nid} form={spec.form} " + " ".join(
                f"{key}={_fmt(getattr(spec, key))}" for key in ValueSpec.PARAMS[spec.form]))
        else:
            one = ",".join(sorted(spec.one_labels))
            zero = ",".join(sorted(spec.zero_labels))
            lines.append(f"value {nid} form=indicator one={one} zero={zero}")

    for nid in topo:
        n = d.nodes[nid]
        if n.kind == NodeKind.UTILITY:
            weights = " ".join(f"{p}={_fmt(n.payload.weights[p])}" for p in n.parents)
            lines.append(f"utility {nid} weights {weights}")

    for aid in sorted(d.decision_order):
        seq = d.decision_order[aid]
        if seq:
            lines.append(f"order {aid} " + " ".join(seq))
    return "\n".join(lines) + "\n"
