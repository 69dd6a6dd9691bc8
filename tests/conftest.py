import itertools
from unittest import mock

import numpy as np
import pytest

from araid import inference
from araid.diagram import (
    Agent,
    AgentKind,
    Cpt,
    DetTable,
    Diagram,
    Domain,
    Node,
    NodeKind,
    UtilitySpec,
    ValueSpec,
    build_diagram,
)
from araid.drilling import build_drilling_model


@pytest.fixture(scope="session")
def drilling() -> Diagram:
    return build_drilling_model()


def random_diagram(rng: np.random.Generator, with_decisions: bool = True,
                   with_money: bool = False) -> Diagram:
    """Small random valid diagram: <= 8 nodes, domains <= 3, one player.

    Decisions observe only earlier chance nodes, so the declared order is
    always temporally consistent by construction.
    """
    labels = ("a", "b", "c")
    n_chance = int(rng.integers(2, 5))
    n_decision = int(rng.integers(1, 3)) if with_decisions else 0
    n_value = int(rng.integers(1, 3))
    use_det = bool(rng.integers(0, 2)) and n_chance >= 2

    nodes: list[Node] = []
    random_order: list[str] = []  # chance/det ids in creation order
    domains: dict[str, Domain] = {}

    def make_domain(nid: str) -> Domain:
        k = int(rng.integers(2, 4))
        tags = tuple(float(x) for x in rng.integers(0, 50, size=k)) if with_money else None
        dom = Domain(labels[:k], numeric_tags=tags)
        domains[nid] = dom
        return dom

    def random_parents(limit: int = 2) -> tuple[str, ...]:
        pool = random_order
        if not pool:
            return ()
        count = int(rng.integers(0, min(limit, len(pool)) + 1))
        picked = rng.choice(len(pool), size=count, replace=False)
        return tuple(pool[i] for i in sorted(picked))

    def random_cpt(nid: str, parents: tuple[str, ...]) -> Cpt:
        size = len(domains[nid])
        rows = {}
        for key in itertools.product(*(domains[p].labels for p in parents)):
            rows[key] = tuple(rng.dirichlet(np.ones(size)))
        return Cpt(rows)

    for i in range(n_chance):
        nid = f"c{i}"
        dom = make_domain(nid)
        parents = random_parents()
        nodes.append(Node(nid, NodeKind.CHANCE, domain=dom, parents=parents,
                          payload=random_cpt(nid, parents)))
        random_order.append(nid)

    if use_det:
        nid = "t0"
        dom = make_domain(nid)
        parents = random_parents(limit=2)
        rows = {}
        for key in itertools.product(*(domains[p].labels for p in parents)):
            rows[key] = dom.labels[int(rng.integers(0, len(dom)))]
        nodes.append(Node(nid, NodeKind.DETERMINISTIC, owner="player", domain=dom,
                          parents=parents, payload=DetTable(rows)))
        random_order.append(nid)

    decision_ids = []
    for i in range(n_decision):
        nid = f"d{i}"
        dom = make_domain(nid)
        parents = random_parents(limit=1)
        nodes.append(Node(nid, NodeKind.DECISION, owner="player", domain=dom,
                          parents=parents))
        decision_ids.append(nid)
        random_order.append(nid)

    value_ids = []
    scorable = [n for n in random_order]
    for i in range(n_value):
        nid = f"v{i}"
        count = int(rng.integers(1, min(2, len(scorable)) + 1))
        picked = rng.choice(len(scorable), size=count, replace=False)
        parents = tuple(scorable[j] for j in sorted(picked))
        rows = {key: float(np.round(rng.uniform(0, 1), 6))
                for key in itertools.product(*(domains[p].labels for p in parents))}
        nodes.append(Node(nid, NodeKind.VALUE, owner="player", parents=parents,
                          payload=ValueSpec("table", rows=rows)))
        value_ids.append(nid)

    weights = rng.dirichlet(np.ones(len(value_ids)))
    nodes.append(Node("u0", NodeKind.UTILITY, owner="player", parents=tuple(value_ids),
                      payload=UtilitySpec(dict(zip(value_ids, map(float, weights))))))

    agents = [Agent("player", AgentKind.DEFENDER, "Player")]
    order = {"player": tuple(decision_ids)} if decision_ids else {}
    return build_diagram(agents, nodes, order)


def random_policy(rng: np.random.Generator, d: Diagram) -> dict:
    from araid.diagram import parent_tuples
    policy = {}
    for n in d.nodes.values():
        if n.kind != NodeKind.DECISION:
            continue
        rule = {}
        for key in parent_tuples(d.nodes, n):
            rule[key] = n.domain.labels[int(rng.integers(0, len(n.domain)))]
        policy[n.id] = rule
    return policy


def wide_observer_model() -> str:
    """A defender decision with 3 alternatives that observes five ternary
    chance nodes: 243 information states and 3**243 policies. The attacker's
    one decision needs a belief about the defender's (`cpt D | : ...`)."""
    lines = ["agent def kind=defender", "agent att kind=attacker"]
    for i in range(1, 6):
        lines += [f"node C{i} kind=chance domain=a,b,c", f"cpt C{i} | : a=0.2,b=0.3,c=0.5",
                  f"arc C{i} -> D"]
    lines += ["node A kind=decision agent=att domain=go,stay",
              "node D kind=decision agent=def domain=x,y,z",
              "node V kind=value agent=def", "arc A -> V",
              "value V form=indicator one=stay zero=go",
              "node W kind=value agent=att", "arc D -> W",
              "value W form=indicator one=x zero=y,z",
              "node UD kind=utility agent=def", "arc V -> UD", "utility UD weights V=1",
              "node UA kind=utility agent=att", "arc W -> UA", "utility UA weights W=1",
              "order def D", "order att A"]
    return "\n".join(lines) + "\n"


def wide_decision_model(alternatives: int) -> str:
    """A parentless defender decision D with `alternatives` alternatives, so
    as many policies: D's money tag i scores 1 - i / alternatives, and the
    defender's other value scores the attacker's one decision A."""
    labels = [f"x{i}" for i in range(alternatives)]
    return "\n".join([
        "agent def kind=defender", "agent att kind=attacker",
        "node A kind=decision agent=att domain=go,stay",
        f"node D kind=decision agent=def domain={','.join(labels)} "
        f"money={','.join(str(i) for i in range(alternatives))}",
        "node V kind=value agent=def", "arc D -> V",
        f"value V form=linear scale={alternatives} offset=1",
        "node S kind=value agent=def", "arc A -> S", "value S form=indicator one=stay zero=go",
        "node W kind=value agent=att", "arc A -> W", "value W form=indicator one=go zero=stay",
        "node UD kind=utility agent=def", "arc V -> UD", "arc S -> UD",
        "utility UD weights V=0.5 S=0.5",
        "node UA kind=utility agent=att", "arc W -> UA", "utility UA weights W=1",
        "order def D", "order att A"]) + "\n"


def attacker_only_model() -> str:
    """Two agents, and only the attacker decides: A -> chance U, scored by
    one value and one utility node per agent."""
    return "\n".join([
        "agent def kind=defender", "agent att kind=attacker",
        "node A kind=decision agent=att domain=go,stay",
        "node U kind=chance domain=hit,miss", "arc A -> U",
        "cpt U | A=go : hit=0.7,miss=0.3", "cpt U | A=stay : hit=0.1,miss=0.9",
        "node V kind=value agent=def", "arc U -> V", "value V form=indicator one=miss zero=hit",
        "node W kind=value agent=att", "arc U -> W", "value W form=indicator one=hit zero=miss",
        "node UD kind=utility agent=def", "arc V -> UD", "utility UD weights V=1",
        "node UA kind=utility agent=att", "arc W -> UA", "utility UA weights W=1",
        "order att A"]) + "\n"


CHAIN_PRIOR = (0.6, 0.4)
CHAIN_STEP = ((0.99, 0.01), (0.02, 0.98))  # row: current label a/b; column: next


def chain_model(n: int) -> str:
    """A chain of `n` binary chance nodes c00 -> c01 -> ... whose last node
    the defender scores 1 on `b`: its expected utility is P(last = b),
    CHAIN_PRIOR times the (n - 1)-th power of CHAIN_STEP."""
    ids = [f"c{i:02d}" for i in range(n)]
    lines = ["agent def kind=defender", f"node {ids[0]} kind=chance domain=a,b",
             f"cpt {ids[0]} | : a={CHAIN_PRIOR[0]},b={CHAIN_PRIOR[1]}"]
    for prev, cur in zip(ids, ids[1:]):
        lines += [f"node {cur} kind=chance domain=a,b", f"arc {prev} -> {cur}"]
        lines += [f"cpt {cur} | {prev}={label} : a={row[0]},b={row[1]}"
                  for label, row in zip("ab", CHAIN_STEP)]
    lines += ["node V kind=value agent=def", f"arc {ids[-1]} -> V",
              "value V form=indicator one=b zero=a",
              "node U kind=utility agent=def", "arc V -> U", "utility U weights V=1"]
    return "\n".join(lines) + "\n"


def grid_model(k: int) -> str:
    """A k x k grid of binary chance nodes g<row>_<column>, each with its
    upper and left neighbours as parents, and one defender value node on
    the last cell. The ids are not zero-padded, so the deepest-first order
    that id ties give does not sweep the grid row by row: its largest
    contraction step holds 2**14 cells at k = 12 and 2**30 at k = 20."""
    ids = [[f"g{r}_{c}" for c in range(k)] for r in range(k)]
    lines = ["agent def kind=defender"]
    for r, c in itertools.product(range(k), repeat=2):
        parents = ([ids[r - 1][c]] if r else []) + ([ids[r][c - 1]] if c else [])
        lines += [f"node {ids[r][c]} kind=chance domain=a,b"]
        lines += [f"arc {p} -> {ids[r][c]}" for p in parents]
        for key in itertools.product("ab", repeat=len(parents)):
            b = (2 + 3 * key.count("b")) / 10  # P(b) rises with the parents at b
            cond = ",".join(f"{p}={label}" for p, label in zip(parents, key))
            lines.append(f"cpt {ids[r][c]} | {cond} : a={1 - b:.1f},b={b:.1f}")
    lines += ["node V kind=value agent=def", f"arc {ids[-1][-1]} -> V",
              "value V form=indicator one=b zero=a",
              "node U kind=utility agent=def", "arc V -> U", "utility U weights V=1"]
    return "\n".join(lines) + "\n"


def executed_expected(query, tables=None, weights=None):
    """`query.expected` the long way: every tape executed, even one the plan
    fixed, the weighted sum divided by the executed normaliser, and the mask
    rebuilt from it."""
    tables = tables or {}

    def run(tape, inputs):
        return tape.execute([tables[nid] for nid in inputs] + tape.constants)

    norm = run(query.norm_tape, query.norm_inputs)
    scaled = [(np.reshape(w, np.shape(w) + (1,) * len(query.keep)),
               run(query.value_tapes[vid], query.value_inputs[vid]))
              for vid, w in (query.weights if weights is None else weights).items()]
    shape = np.broadcast_shapes(query.shape, norm.shape,
                                *(np.shape(a) for pair in scaled for a in pair))
    total = np.zeros(shape)
    for w, num in scaled:
        total += w * num
    with np.errstate(divide="ignore", invalid="ignore"):
        return total / norm, np.broadcast_to(query.possible & (norm > 0.0), shape)


def same_bits(a, b) -> bool:
    """Equal shapes and float64 bit patterns, whatever the memory layout:
    -0.0 differs from 0.0, and NaN equals itself."""
    a, b = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def replayed(tape, tables):
    """`tape.execute(tables)` with every step an einsum on its spec, a step
    that the tape runs as a gather too."""
    slots = list(tables)
    for spec, operands in tape.steps:
        slots.append(np.einsum(spec, *(slots[i] for i in operands)))
    return tape._output(slots)


def deepest_first(run):
    """run(), with every contraction tape eliminating deepest-first."""
    walk = inference._Elimination.__call__

    def along(self, order, greedy=False, below=None):  # no greedy walk gets below
        return None if greedy else walk(self, order)
    with mock.patch.object(inference._Elimination, "__call__", along):
        return run()


def spy_on(owner, name):
    """Patch owner.name with a pass-through that records each call's args."""
    calls, real = [], getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    return calls, mock.patch.object(owner, name, spy)
