"""Discrete multi-agent influence diagram data model.

A diagram is a DAG of typed nodes (decision, chance, deterministic, value,
utility) owned by agents with opposed interests. Chance nodes belong to
nature; decision, value and utility nodes belong to a defender or attacker
agent. All tables are total over the Cartesian product of their parents'
domains, and parent order is the key order for every table lookup.

Diagrams are immutable after construction: a diagram is compiled once
(`inference.CompiledModel.compile`), so one must not be mutated after
`build_diagram`. `build_diagram` refuses to hand out anything that fails
validation; `validate_diagram` reports every violation it can find instead
of stopping at the first, and each one once: an information arc that breaks
temporal order gives one `temporal-order` violation, and a repeated agent id
one `duplicate-id`. `Diagram.replace_nodes` runs the same list of checks past
the agents' own on the nodes a swap can break, or, for a swap that can break
only the swapped nodes, their own checks alone.
"""
from __future__ import annotations

import enum
import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Collection, Iterable, Mapping, Sequence

ROW_SUM_TOL = 1e-9
WEIGHT_SUM_TOL = 1e-9


class AgentKind(enum.Enum):
    DEFENDER = "defender"
    ATTACKER = "attacker"
    NATURE = "nature"


class NodeKind(enum.Enum):
    DECISION = "decision"
    CHANCE = "chance"
    DETERMINISTIC = "deterministic"
    VALUE = "value"
    UTILITY = "utility"


@dataclass(frozen=True)
class Agent:
    id: str
    kind: AgentKind
    display_name: str = ""


@dataclass(frozen=True)
class Domain:
    """Ordered finite outcome labels, optionally tagged with numeric values.

    Numeric tags carry the monetary amount (or unitless score) a label
    stands for; value functions of form linear/power_root read them.
    Tags are all-or-none: either every label has one or none does.
    """

    labels: tuple[str, ...]
    numeric_tags: tuple[float, ...] | None = None

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def tag(self, label: str) -> float:
        if self.numeric_tags is None:
            raise ValueError(f"domain has no numeric tags (label {label!r})")
        return self.numeric_tags[self.labels.index(label)]

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class Cpt:
    """Conditional probability table: parent-value tuple -> distribution.

    Each row is a probability vector over the child domain, in domain
    order. Rows must cover exactly the Cartesian product of the parent
    domains and sum to 1 within ROW_SUM_TOL.
    """

    rows: Mapping[tuple[str, ...], tuple[float, ...]]


@dataclass(frozen=True)
class DetTable:
    """Deterministic node: parent-value tuple -> single output label."""

    rows: Mapping[tuple[str, ...], str]


@dataclass(frozen=True)
class ValueSpec:
    """Score function attached to a value node.

    Forms:
      table      -- explicit parent-tuple -> score rows
      linear     -- v = offset - x / scale, x = parent label's numeric tag
      power_root -- v = (x / scale) ** (1 / root); only it takes a value_root target
      indicator  -- labels in `one_labels` score 1, labels in `zero_labels` 0
    """

    form: str
    rows: Mapping[tuple[str, ...], float] | None = None
    scale: float | None = None
    offset: float | None = None
    root: float | None = None
    zero_labels: frozenset[str] = frozenset()
    one_labels: frozenset[str] = frozenset()

    FORMS = ("table", "linear", "power_root", "indicator")
    PARAMS = {"linear": ("scale", "offset"), "power_root": ("scale", "root")}  # analytic forms

    def score(self, parent_values: tuple[str, ...], parent_domains: Sequence[Domain]) -> float:
        if self.form == "table":
            assert self.rows is not None
            return self.rows[parent_values]
        if self.form == "indicator":
            (label,) = parent_values
            return 1.0 if label in self.one_labels else 0.0
        (label,) = parent_values
        x = parent_domains[0].tag(label)
        if self.form == "power_root" and x < 0:
            raise ValueError(f"power_root value function needs x >= 0, got {x}")
        return self.of_tag(x)

    def of_tag(self, x):
        """The linear or power_root form at numeric tag x; works elementwise
        on arrays, with array scale and root too."""
        if self.form == "linear":
            return self.offset - x / self.scale
        if self.form == "power_root":
            return (x / self.scale) ** (1.0 / self.root)
        raise ValueError(f"unknown value form {self.form!r}")


@dataclass(frozen=True)
class UtilitySpec:
    """Additive utility: weights over an agent's value nodes, summing to 1."""

    weights: Mapping[str, float]


Payload = Cpt | DetTable | ValueSpec | UtilitySpec | None


@dataclass(frozen=True)
class Node:
    id: str
    kind: NodeKind
    owner: str | None = None  # agent id; None means nature
    domain: Domain | None = None  # None for value and utility nodes
    parents: tuple[str, ...] = ()
    payload: Payload = None


@dataclass(frozen=True)
class Violation:
    """A single structural-invariant failure, as data."""

    code: str
    message: str
    node: str | None = None
    key: tuple[str, ...] | None = None

    def __str__(self) -> str:
        return self.message


class DiagramError(ValueError):
    """Raised by build_diagram when the assembled definitions are invalid."""

    def __init__(self, violations: Sequence[Violation]):
        self.violations = list(violations)
        lines = "\n".join(f"  - {v}" for v in self.violations)
        super().__init__(f"invalid diagram ({len(self.violations)} violation(s)):\n{lines}")


@dataclass(frozen=True)
class Diagram:
    """Immutable diagram: agents, nodes and per-agent decision order.

    `decision_order[agent_id]` is the temporal sequence in which that
    agent's decisions are taken; a decision's parents are the information
    observed at decision time.

    A diagram is compiled once: the first `inference.CompiledModel.compile`
    of it keeps its sizes, factors, elimination priority and plan memo in
    `_compiled`, which takes no part in `==` or `repr` and holds no
    reference back to the diagram, and every later compile reads them. So a
    diagram must not be mutated after `build_diagram` (or `replace_nodes`)
    gives it out, and repeated `forecast_attack` and `solve_defender` calls
    on one diagram pay the compile once. Their swapped models come from
    `replace_nodes`, which re-checks only the swapped nodes when the swap
    can break nothing else. The diagram and every model derived from it
    share one memo of contraction plans, so those calls also plan each
    contraction once; the memo holds structure only, no table, and lives
    as long as the diagrams do.
    """

    agents: tuple[Agent, ...]
    nodes: Mapping[str, Node]
    decision_order: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    _compiled: object = field(default=None, init=False, repr=False, compare=False)

    def decisions_of(self, agent_id: str) -> list[Node]:
        return [n for n in self.nodes.values()
                if n.kind == NodeKind.DECISION and n.owner == agent_id]

    def utility_node_of(self, agent_id: str) -> Node:
        found = [n for n in self.nodes.values()
                 if n.kind == NodeKind.UTILITY and n.owner == agent_id]
        if len(found) != 1:
            raise ValueError(f"agent {agent_id!r} has {len(found)} utility nodes, expected 1")
        return found[0]

    def replace_nodes(self, new_nodes: Iterable[Node]) -> "Diagram":
        """Copy with some nodes swapped in; checks what the swap can break.

        A replaced decision that is no longer a decision leaves its agent's
        decision order. This diagram must be valid (as `build_diagram`
        makes it) and never mutated, since it is compiled once. The copy is
        a new diagram, which `inference.CompiledModel.with_nodes` compiles
        from this one's factors, so repeated `forecast_attack` and
        `solve_defender` calls on one diagram pay its compile once.

        When every swapped node replaces an existing node, keeps its domain
        and a subset of its parents, and either keeps its kind and owner or
        turns from a decision into a chance node (an attacker's view, an
        applied forecast), only the swapped nodes' own checks run. Such a
        swap breaks nothing else: a child's checks read only a parent's
        domain, kind and owner; a new cycle would need an arc p -> n into a
        decision n turned chance with n upstream of p, which the
        temporal-order check refused; and a decision that stays one keeps
        its owner, so the decision orders hold. Any other swap checks the
        swapped nodes and their children again, with the graph and the
        decision orders in full: the list of checks `validate_diagram` runs
        after the agents'. Raises the DiagramError that `build_diagram`
        raises on the merged nodes.
        """
        swapped = {n.id: n for n in new_nodes}
        merged = {**self.nodes, **swapped}
        order = {a: tuple(x for x in seq if merged[x].kind == NodeKind.DECISION)
                 for a, seq in self.decision_order.items()}
        d = Diagram(agents=tuple(sorted(self.agents, key=lambda a: a.id)), nodes=merged,
                    decision_order={a: seq for a, seq in order.items() if seq})
        local = all(_breaks_only_itself(self.nodes.get(nid), n) for nid, n in swapped.items())
        violations = _checks(d, [n for n in merged.values() if n.id in swapped or (
            not local and not swapped.keys().isdisjoint(n.parents))], graph=not local)
        if violations:
            raise DiagramError(violations)
        return d


def _breaks_only_itself(old: Node | None, new: Node) -> bool:
    """Whether swapping `new` in for `old` in a valid diagram can break only
    `new`'s own checks (see `Diagram.replace_nodes`)."""
    return (old is not None and new.domain == old.domain
            and set(new.parents) <= set(old.parents)
            and ((new.kind, new.owner) == (old.kind, old.owner)
                 or (old.kind, new.kind) == (NodeKind.DECISION, NodeKind.CHANCE)))


def parent_tuples(diagram_nodes: Mapping[str, Node], node: Node) -> Iterable[tuple[str, ...]]:
    """All parent-value tuples of `node`, in parent-domain product order."""
    domains = []
    for pid in node.parents:
        parent = diagram_nodes[pid]
        if parent.domain is None:
            return  # invalid structure; caught elsewhere
        domains.append(parent.domain.labels)
    yield from itertools.product(*domains)


def build_diagram(agents: Iterable[Agent], nodes: Iterable[Node],
                  decision_order: Mapping[str, Sequence[str]] | None = None) -> Diagram:
    """Assemble and validate a diagram.

    Raises DiagramError carrying the full violation list when anything is
    wrong; never returns a partially valid diagram.
    """
    # canonical storage: agents sorted by id, empty decision orders dropped,
    # so that equal diagrams compare equal regardless of assembly order
    agents = tuple(sorted(agents, key=lambda a: a.id))
    node_list = list(nodes)
    node_map: dict[str, Node] = {}
    dup: list[Violation] = []
    for n in node_list:
        if n.id in node_map:
            dup.append(Violation("duplicate-id", f"duplicate node id {n.id!r}", node=n.id))
        node_map[n.id] = n
    order = {a: tuple(seq) for a, seq in (decision_order or {}).items() if len(tuple(seq))}
    d = Diagram(agents=agents, nodes=node_map, decision_order=order)
    violations = dup + validate_diagram(d)
    if violations:
        raise DiagramError(violations)
    return d


def validate_diagram(d: Diagram) -> list[Violation]:
    """Exhaustive structural check; returns every violation found."""
    v: list[Violation] = []
    agent_ids = [a.id for a in d.agents]
    for a_id in dict.fromkeys(a for a in agent_ids if agent_ids.count(a) > 1):
        v.append(Violation("duplicate-id", f"duplicate agent id {a_id!r}"))
    if sum(a.kind == AgentKind.NATURE for a in d.agents) > 1:
        v.append(Violation("multiple-nature", "more than one nature agent declared"))
    return v + _checks(d, d.nodes.values())


def _checks(d: Diagram, nodes: Iterable[Node], graph: bool = True) -> list[Violation]:
    """The shape violations of `nodes`, then, with `graph`, those of the
    graph and of the decision orders: every check of a diagram past its
    agents'."""
    nature_ids = {a.id for a in d.agents if a.kind == AgentKind.NATURE}
    player_ids = {a.id for a in d.agents if a.kind != AgentKind.NATURE}
    v = [x for n in nodes for x in _check_node_shape(d, n, player_ids, nature_ids)]
    return v + _check_graph(d) + _check_decision_orders(d) if graph else v


def _check_node_shape(d: Diagram, n: Node, player_ids: set[str],
                      nature_ids: set[str]) -> list[Violation]:
    v: list[Violation] = []
    for pid in n.parents:
        if pid not in d.nodes:
            v.append(Violation("unknown-parent",
                               f"node {n.id!r} references unknown parent {pid!r}", node=n.id))
    if len(set(n.parents)) != len(n.parents):
        v.append(Violation("duplicate-parent", f"node {n.id!r} lists a parent twice", node=n.id))

    owned_kinds = (NodeKind.DECISION, NodeKind.VALUE, NodeKind.UTILITY)
    if n.kind in owned_kinds and n.owner not in player_ids:
        v.append(Violation("ownership",
                           f"{n.kind.value} node {n.id!r} must be owned by a declared "
                           f"defender/attacker agent", node=n.id))
    if n.kind == NodeKind.CHANCE and n.owner is not None and n.owner not in nature_ids:
        v.append(Violation("ownership",
                           f"chance node {n.id!r} cannot be owned by a defender/attacker",
                           node=n.id))
    if n.kind == NodeKind.DETERMINISTIC and n.owner is not None and n.owner not in (
            player_ids | nature_ids):
        v.append(Violation("ownership",
                           f"deterministic node {n.id!r} has unknown owner {n.owner!r}",
                           node=n.id))

    needs_domain = n.kind in (NodeKind.DECISION, NodeKind.CHANCE, NodeKind.DETERMINISTIC)
    if needs_domain and n.domain is None:
        v.append(Violation("missing-domain", f"node {n.id!r} needs a domain", node=n.id))
    if n.kind in (NodeKind.VALUE, NodeKind.UTILITY) and n.domain is not None:
        v.append(Violation("unexpected-domain",
                           f"{n.kind.value} node {n.id!r} must not declare a domain", node=n.id))
    if n.domain is not None:
        v.extend(_check_domain(n))

    if any(pid not in d.nodes for pid in n.parents):
        return v  # table checks need resolvable parents

    if n.kind in _PAYLOADS:
        payload, code, noun, check = _PAYLOADS[n.kind]
        if not isinstance(n.payload, payload):
            v.append(Violation(code, f"{n.kind.value} node {n.id!r} needs {noun}", node=n.id))
        elif n.domain is not None or not needs_domain:  # a missing domain is reported
            v.extend(check(d, n))
    elif n.kind == NodeKind.DECISION and n.payload is not None:
        v.append(Violation("unexpected-payload",
                           f"decision node {n.id!r} must not carry a table", node=n.id))
    return v


def _check_domain(n: Node) -> list[Violation]:
    v = []
    dom = n.domain
    if len(dom.labels) < 1:
        v.append(Violation("empty-domain", f"node {n.id!r} has an empty domain", node=n.id))
    if len(set(dom.labels)) != len(dom.labels):
        v.append(Violation("duplicate-label", f"node {n.id!r} repeats a domain label", node=n.id))
    if dom.numeric_tags is not None and len(dom.numeric_tags) != len(dom.labels):
        v.append(Violation("tag-arity",
                           f"node {n.id!r}: numeric tags must cover every label or none",
                           node=n.id))
    return v


def _check_rows(d: Diagram, n: Node, rows: Mapping[tuple[str, ...], object],
                what: str = "node") -> tuple[set[tuple[str, ...]], list[Violation]]:
    """The keys of a table that are parent tuples, and its missing and extra
    rows. Missing rows are counted, not listed, so the cost follows the rows
    given: no scan of the parent-tuple product goes past len(rows) + 1."""
    # a parent without a domain is reported elsewhere; here it has no labels
    labels = [dict.fromkeys(() if d.nodes[p].domain is None else d.nodes[p].domain.labels)
              for p in n.parents]
    # a complete table's keys are all among the first len(rows) parent
    # tuples; only a key outside them is checked label by label
    valid = rows.keys() & set(itertools.islice(itertools.product(*labels), len(rows)))
    valid.update(key for key in rows.keys() - valid if isinstance(key, tuple)
                 and len(key) == len(labels) and all(lbl in ls for lbl, ls in zip(key, labels)))
    v = []
    missing = math.prod(map(len, labels)) - len(valid)
    if missing:
        first = next(key for key in itertools.product(*labels) if key not in valid)
        v.append(Violation("incomplete-table", f"incomplete table: {what} {n.id!r} missing "
                           f"{missing} row(s), the first {first}", node=n.id, key=first))
    v += [Violation("extra-row", f"{what} {n.id!r} has a row for unknown parent tuple {key}",
                    node=n.id, key=key) for key in sorted(rows.keys() - valid)]
    return valid, v


def _check_cpt(d: Diagram, n: Node) -> list[Violation]:
    valid, v = _check_rows(d, n, n.payload.rows)
    size = len(n.domain)
    for key, row in n.payload.rows.items():
        if key not in valid:
            continue
        if len(row) != size:
            v.append(Violation("row-arity",
                               f"node {n.id!r} row {key}: {len(row)} entries for "
                               f"{size} labels", node=n.id, key=key))
            continue
        total = sum(row)
        # written so that NaN, which fails every comparison, fails them
        if not all(0.0 <= p <= 1.0 for p in row):
            problem = "probability outside [0, 1]"
        elif not abs(total - 1.0) <= ROW_SUM_TOL:
            problem = f"row sums to {total:.10g}"
        else:
            continue
        v.append(Violation("non-stochastic-row",
                           f"non-stochastic row: node {n.id!r} row {key}: {problem}",
                           node=n.id, key=key))
    return v


def _check_det(d: Diagram, n: Node) -> list[Violation]:
    valid, v = _check_rows(d, n, n.payload.rows)
    labels = set(n.domain.labels)
    for key, label in n.payload.rows.items():
        if key in valid and label not in labels:
            v.append(Violation("unknown-output",
                               f"node {n.id!r} row {key} outputs {label!r}, not in domain",
                               node=n.id, key=key))
    return v


def _check_value(d: Diagram, n: Node) -> list[Violation]:
    v = []
    spec: ValueSpec = n.payload
    if spec.form not in ValueSpec.FORMS:
        return [Violation("bad-form", f"value node {n.id!r}: unknown form {spec.form!r}", node=n.id)]
    if spec.form == "table":
        if spec.rows is None:
            return [Violation("missing-spec", f"value node {n.id!r}: table form without rows",
                              node=n.id)]
        _, v = _check_rows(d, n, spec.rows, what="value node")
        for key, s in spec.rows.items():
            if not math.isfinite(s):
                v.append(Violation("non-finite-score",
                                   f"value node {n.id!r} row {key} is not finite",
                                   node=n.id, key=key))
        return v
    # single-parent analytic forms
    if len(n.parents) != 1:
        return [Violation("value-parents",
                          f"value node {n.id!r}: form {spec.form!r} needs exactly one parent",
                          node=n.id)]
    parent = d.nodes[n.parents[0]]
    if spec.form == "indicator":
        labels = set(parent.domain.labels) if parent.domain else set()
        if (spec.zero_labels | spec.one_labels) != labels or (spec.zero_labels & spec.one_labels):
            v.append(Violation("indicator-labels",
                               f"value node {n.id!r}: zero/one label sets must partition the "
                               f"parent domain", node=n.id))
        return v
    if parent.domain is None or parent.domain.numeric_tags is None:
        v.append(Violation("missing-tags",
                           f"value node {n.id!r}: parent {parent.id!r} needs numeric tags",
                           node=n.id))
        return v
    # each parameter check is written so that NaN fails it; inf passes, as
    # the parser reads it
    if not abs(spec.scale or 0.0) > 0.0:
        v.append(Violation("bad-parameter",
                           f"value node {n.id!r}: scale must be nonzero", node=n.id))
    if spec.form == "linear":
        if spec.offset is None:
            v.append(Violation("bad-parameter",
                               f"value node {n.id!r}: linear form needs an offset", node=n.id))
        elif not -math.inf <= spec.offset <= math.inf:
            v.append(Violation("bad-parameter",
                               f"value node {n.id!r}: offset must be a number", node=n.id))
        if not all(-math.inf <= t <= math.inf for t in parent.domain.numeric_tags):
            v.append(Violation("nan-tag", f"value node {n.id!r}: a numeric tag of parent "
                                          f"{parent.id!r} is not a number", node=n.id))
    if spec.form == "power_root":
        if not abs(spec.root or 0.0) > 0.0:
            v.append(Violation("bad-parameter",
                               f"value node {n.id!r}: power_root form needs a nonzero root",
                               node=n.id))
        if not all(t >= 0 for t in parent.domain.numeric_tags):
            v.append(Violation("negative-tag",
                               f"value node {n.id!r}: power_root needs nonnegative tags",
                               node=n.id))
    if v:
        return v
    # score each tag as the compiled factor does: parameters that pass the
    # checks above can still overflow, or give a complex power
    for label, x in zip(parent.domain.labels, parent.domain.numeric_tags):
        try:
            s = spec.of_tag(x)
        except OverflowError:
            s = math.inf
        if isinstance(s, complex) or not math.isfinite(s):
            return [Violation("non-finite-score",
                              f"value node {n.id!r} scores parent label {label!r} "
                              f"(tag {x!r}) as {s!r}, not a finite real number",
                              node=n.id, key=(label,))]
    return v


def _check_utility(d: Diagram, n: Node) -> list[Violation]:
    v = []
    spec: UtilitySpec = n.payload
    if set(spec.weights) != set(n.parents):
        v.append(Violation("weight-keys",
                           f"utility node {n.id!r}: weights must cover exactly its parents",
                           node=n.id))
    for pid in n.parents:
        p = d.nodes.get(pid)
        if p is not None and (p.kind != NodeKind.VALUE or p.owner != n.owner):
            v.append(Violation("utility-parents",
                               f"utility node {n.id!r}: parent {pid!r} is not a value node of "
                               f"the same agent", node=n.id))
    if not all(0.0 <= w <= 1.0 for w in spec.weights.values()):
        v.append(Violation("weight-range",
                           f"utility node {n.id!r}: weights must lie in [0, 1]", node=n.id))
    total = sum(spec.weights.values())
    if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
        v.append(Violation("weight-sum",
                           f"utility node {n.id!r}: weights sum to {total:.10g}", node=n.id))
    return v


# each payload-carrying node kind: its payload's type, the code and noun of
# the violation when it has none, and the payload's own check
_PAYLOADS = {
    NodeKind.CHANCE: (Cpt, "missing-table", "a CPT", _check_cpt),
    NodeKind.DETERMINISTIC: (DetTable, "missing-table", "a table", _check_det),
    NodeKind.VALUE: (ValueSpec, "missing-spec", "a value spec", _check_value),
    NodeKind.UTILITY: (UtilitySpec, "missing-spec", "a utility spec", _check_utility),
}


def ancestors(d: Diagram, targets: Iterable[str], stop: Collection[str] = ()) -> set[str]:
    """The targets plus every node they depend on, not expanding past the
    nodes in `stop`; undeclared ids are skipped."""
    seen: set[str] = set()
    stack = list(targets)
    while stack:
        cur = stack.pop()
        node = d.nodes.get(cur)
        if node is None or cur in seen:
            continue
        seen.add(cur)
        if cur not in stop:
            stack.extend(node.parents)
    return seen


def _kahn(d: Diagram, causal: bool) -> tuple[list[str], list[str]]:
    """Parents-before-children order, ties broken by ascending node id, and
    the sorted ids a cycle leaves unordered. Arcs from undeclared nodes are
    skipped; with `causal`, so are arcs into decisions (information arcs)."""
    indeg = {i: 0 for i in d.nodes}
    children: dict[str, list[str]] = {i: [] for i in d.nodes}
    for n in d.nodes.values():
        if causal and n.kind == NodeKind.DECISION:
            continue
        for p in n.parents:
            if p in d.nodes:
                children[p].append(n.id)
                indeg[n.id] += 1
    heap = sorted(i for i in d.nodes if indeg[i] == 0)  # a sorted list is a heap
    out: list[str] = []
    while heap:
        cur = heapq.heappop(heap)
        out.append(cur)
        for c in children[cur]:
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(heap, c)
    return out, sorted(i for i in d.nodes if indeg[i] > 0)


def _check_graph(d: Diagram) -> list[Violation]:
    """Cycle and temporal-order checks.

    Arcs into decision nodes are information arcs, not causal ones. A
    directed cycle that never enters a decision node is a structural cycle;
    a parent of a decision that (transitively) depends on the decision
    itself, or on a later decision of the same agent, is an information arc
    that cannot be resolved in time. Each such arc is reported once.
    """
    v: list[Violation] = []
    _, cyclic = _kahn(d, causal=True)
    if cyclic:
        v.append(Violation("cycle", f"cycle detected among nodes {cyclic}"))

    # information arcs must be resolvable before the decision is taken
    for n in d.nodes.values():
        if n.kind != NodeKind.DECISION:
            continue
        seq = d.decision_order.get(n.owner or "", ())
        later = set(seq[seq.index(n.id) + 1:]) if n.id in seq else set()
        for p in n.parents:
            if p not in d.nodes:
                continue
            upstream = ancestors(d, [p])
            if n.id in upstream:
                v.append(Violation(
                    "temporal-order",
                    f"information arc violates temporal order: {p!r} -> {n.id!r} "
                    f"(observed node depends on the decision itself)", node=n.id))
            elif upstream & later:
                bad = sorted(upstream & later)
                v.append(Violation(
                    "temporal-order",
                    f"information arc violates temporal order: {p!r} -> {n.id!r} "
                    f"(observed node depends on later decision(s) {bad})", node=n.id))
    return v


def _check_decision_orders(d: Diagram) -> list[Violation]:
    """Each player's declared order lists exactly its decisions, once each."""
    v = []
    for a in d.agents:
        if a.kind == AgentKind.NATURE:
            continue
        decisions = {n.id for n in d.decisions_of(a.id)}
        declared = d.decision_order.get(a.id, ())
        if (set(declared) != decisions or len(set(declared)) != len(declared)) and (
                declared or decisions):
            v.append(Violation("order-coverage",
                               f"decision order for agent {a.id!r} must list exactly its "
                               f"decision nodes {sorted(decisions)}, got {list(declared)}"))
    return v


def topological_order(d: Diagram) -> list[str]:
    """Parents-before-children order; ties broken by ascending node id."""
    order, cyclic = _kahn(d, causal=False)
    if cyclic:
        raise ValueError("diagram has a cycle; validate before ordering")
    return order
