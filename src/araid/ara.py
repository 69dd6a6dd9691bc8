"""Adversarial risk analysis over influence diagrams.

The supported agent (the defender) cannot know the intruder's exact
probabilities and preferences. She solves his problem instead: rebuild the
diagram from his point of view (her unobservable decisions become chance
nodes carrying his assumed beliefs), put distributions on the parameters
she is unsure about, and propagate that uncertainty by Monte Carlo. Each
draw yields his optimal action per observable context; the tally over
draws is the attack forecast, which then replaces the attack decision so
her own problem can be solved by plain policy enumeration.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .diagram import (
    AgentKind,
    Cpt,
    Diagram,
    Node,
    NodeKind,
    ValueSpec,
)
from .inference import (
    TIE_TOL,  # noqa: F401  (ara.TIE_TOL names the rule that `ties` applies)
    CompiledModel,
    _checked,
    constant_policy,
    parent_tuples_of,
    ties,
)

# Draws per generator, and so part of the random stream. One SeedSequence
# generator and one call per rule run serve a block: 10 of each per 10,000
# draws, against 79 at 128 draws per block, where sampling took about two
# thirds of a 10,000-draw forecast. 2,048 measured no faster than 1,024.
DRAW_BLOCK = 1024

# The most defender policies `solve_defender` ranks; above it the search is
# refused before any rule is built. The search's memory is bounded by one
# chunk of `UtilityQuery.evaluate_chunks`, so the cap bounds its time: a
# parentless decision with this many alternatives ranks them in 0.05-0.08 s
# on a 2-vCPU VM. The shipped model has 48 policies.
MAX_POLICIES = 2048

AttackerBeliefs = Mapping[str, Mapping[str, float]]


def _agent(d: Diagram, agent: str | None, kind: AgentKind) -> str:
    """`agent`, checked to name an agent of `d`; by default its one `kind` agent."""
    if agent is None:
        found = [a.id for a in d.agents if a.kind == kind]
        if len(found) != 1:
            raise ValueError(f"diagram needs exactly one {kind.value} agent, found {found}")
        return found[0]
    if agent not in {a.id for a in d.agents}:
        raise ValueError(f"unknown {kind.value} {agent!r}: the diagram's agents are "
                         f"{[a.id for a in d.agents]}")
    return agent


def _check_beliefs(d: Diagram, beliefs: AttackerBeliefs, attacker: str) -> None:
    for nid, dist in beliefs.items():
        node = d.nodes.get(nid)
        if node is None or node.kind != NodeKind.DECISION:
            raise ValueError(f"belief target {nid!r} is not a decision node")
        if node.owner == attacker:
            raise ValueError(f"belief target {nid!r} is the attacker's own decision, "
                             f"not an opponent's")
        if set(dist) != set(node.domain.labels):
            raise ValueError(f"belief for {nid!r} must cover exactly its alternatives")


def attacker_view(d: Diagram, beliefs: AttackerBeliefs,
                  observed: set[str] | frozenset[str],
                  attacker: str | None = None) -> Diagram:
    """The diagram as the attacker sees it.

    Defender decisions he cannot observe become parentless chance nodes
    with his assumed distribution; observed ones stay decisions, to be
    pinned per context. Everything else, including the defender's value
    and utility nodes, is retained. The view is derived from `d`'s compiled
    form (`CompiledModel.with_nodes`), so compiling it costs only the
    belief nodes' factors.
    """
    attacker = _agent(d, attacker, AgentKind.ATTACKER)
    _check_beliefs(d, beliefs, attacker)
    opponent_decisions = {n.id for n in d.nodes.values()
                          if n.kind == NodeKind.DECISION and n.owner != attacker}
    observed = set(observed)
    if observed & set(beliefs):
        raise ValueError("a decision cannot be both observed and belief-distributed")
    if observed | set(beliefs) != opponent_decisions:
        missing = opponent_decisions - observed - set(beliefs)
        raise ValueError(f"no belief given for unobserved decision(s) {sorted(missing)}")

    new_nodes = []
    for nid, dist in beliefs.items():
        old = d.nodes[nid]
        row = tuple(float(dist[lbl]) for lbl in old.domain.labels)
        new_nodes.append(Node(nid, NodeKind.CHANCE, owner=None, domain=old.domain,
                              parents=(), payload=Cpt({(): row})))
    return CompiledModel.compile(d).with_nodes(new_nodes).diagram


@dataclass(frozen=True)
class BestResponse:
    decision: str
    expected: Mapping[str, float]  # alternative -> expected utility
    optimal: tuple[str, ...]       # all maximizers, domain order


def best_response(d_view: Diagram, agent: str,
                  context: Mapping[str, str]) -> BestResponse:
    """Exhaustively evaluate the agent's one remaining decision.

    `context` pins the other decisions still present in the view and may
    condition on chance nodes (the information the agent sees when
    moving, e.g. contextual threat state).
    """
    own = d_view.decisions_of(agent)
    if len(own) != 1:
        raise ValueError(f"expected exactly one free decision for {agent!r}, "
                         f"found {[n.id for n in own]}")
    decision = own[0]
    policy_part: dict[str, str] = {}
    evidence: dict[str, str] = {}
    for nid, label in context.items():
        node = d_view.nodes.get(nid)
        if node is None:
            raise ValueError(f"unknown context node {nid!r}")
        if node.kind == NodeKind.DECISION:
            policy_part[nid] = label
        else:
            evidence[nid] = label
    other = [n.id for n in d_view.nodes.values()
             if n.kind == NodeKind.DECISION and n.id != decision.id]
    uncovered = [nid for nid in other if nid not in policy_part]
    if uncovered:
        raise ValueError(f"context must pin decision(s) {uncovered}")

    policy = constant_policy(d_view, policy_part)
    policy.pop(decision.id, None)  # its label is checked; the decision stays the free axis
    _checked(d_view, policy, evidence, every_decision=False)
    query = CompiledModel.compile(d_view).utility_query(agent, policy, evidence, [decision.id])
    eu = query.evaluate()
    expected = dict(zip(decision.domain.labels, map(float, eu)))
    optimal = tuple(lbl for lbl, tie in zip(decision.domain.labels, ties(eu, eu.max())) if tie)
    return BestResponse(decision=decision.id, expected=expected, optimal=optimal)


# ---------------------------------------------------------------------------
# parameter uncertainty
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointRule:
    """Degenerate sampling: keep the model's stated value."""

    def sample(self, base: np.ndarray | float, rng: np.random.Generator,
               n: int) -> np.ndarray:
        return np.broadcast_to(base, (n, *np.shape(base)))


# The drawing rules below also take k stacked bases (a leading axis) and
# return k stacks of n draws: the generator fills the larger array in the
# order that k calls in a row would, so the numbers are the same.

@dataclass(frozen=True)
class DirichletRule:
    """Dirichlet draw over a probability row or weight vector."""

    concentration: tuple[float, ...]

    def sample(self, base: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
        """[n, L] draws for a base of length L; [k, n, L] for stacked [k, L]."""
        if len(self.concentration) != np.shape(base)[-1]:
            raise ValueError("concentration length does not match the target vector")
        return rng.dirichlet(self.concentration, size=np.shape(base)[:-1] + (n,))


@dataclass(frozen=True)
class PerturbRule:
    """Independent uniform jitter of +-half_width, clipped and renormalized."""

    half_width: float

    def sample(self, base: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
        """[n, L] draws for a base of length L; [k, n, L] for stacked [k, L].

        numpy sums fewer than 8 entries of a row left to right, so for such
        rows the arithmetic runs on an [..., L, n] copy, along the draw axis,
        with the sum written out in that order: the same bits as along the
        rows, in far fewer, longer operations. The result is a view in the
        [..., n, L] shape. Longer rows, which numpy sums pairwise, are
        summed along the rows."""
        base = np.asarray(base)
        length = base.shape[-1]
        jittered = rng.uniform(-self.half_width, self.half_width,
                               size=base.shape[:-1] + (n, length))
        # u + base is base + u bit for bit; a mass past the largest float,
        # which a half-width that `_check_rule` takes can give, is refused below
        with np.errstate(over="ignore"):
            if length < 8:
                jittered = np.add(np.moveaxis(jittered, -1, -2), base[..., None], order="C")
                np.maximum(jittered, 0.0, out=jittered)
                total = jittered[..., :1, :].copy()
                for j in range(1, length):
                    total += jittered[..., j:j + 1, :]
            else:
                jittered += base[..., None, :]
                np.maximum(jittered, 0.0, out=jittered)
                total = jittered.sum(axis=-1, keepdims=True)
        if np.any(total <= 0):
            raise ValueError("perturbed vector collapsed to zero mass")
        if np.any(total == np.inf):
            raise ValueError("perturbed vector's mass overflowed")
        jittered /= total
        return np.moveaxis(jittered, -2, -1) if length < 8 else jittered


@dataclass(frozen=True)
class UniformRule:
    """Uniform scalar on [low, high]."""

    low: float
    high: float

    def sample(self, base: float | np.ndarray, rng: np.random.Generator,
               n: int) -> np.ndarray:
        """[n] draws for a scalar base; [k, n] for stacked [k]."""
        return rng.uniform(self.low, self.high, size=np.shape(base) + (n,))


SamplingRule = PointRule | DirichletRule | PerturbRule | UniformRule

# targets: ("belief", node) | ("weights", utility_node)
#        | ("cpt_row", node, parent_tuple) | ("value_scale", node) | ("value_root", node)
Target = tuple


@dataclass(frozen=True)
class ParameterUncertainty:
    """What the defender is unsure about on the attacker's side.

    Maps each uncertain quantity to its sampling rule. Anything absent is
    held at the model's stated value (a point rule).
    """

    rules: Mapping[Target, SamplingRule] = field(default_factory=dict)


def _check_rule(rule: SamplingRule, target: Target, base: np.ndarray) -> None:
    """Refuse a rule that the target, whose stated value is `base` (a scalar
    or a vector), does not take by its type, or whose parameters the
    generator cannot draw from. Each check fails a NaN too."""
    if base.ndim == 0 and not isinstance(rule, (UniformRule, PointRule)):
        raise ValueError(f"{target!r}: scalar targets take uniform/point rules")
    if base.ndim == 1 and not isinstance(rule, (PointRule, DirichletRule, PerturbRule)):
        raise ValueError(f"{target!r}: vector targets take point/dirichlet/perturb rules")
    if isinstance(rule, DirichletRule) and len(rule.concentration) != len(base):
        raise ValueError(f"{target!r}: concentration needs {len(base)} entries")
    if isinstance(rule, DirichletRule) and not all(0 < a < math.inf for a in rule.concentration):
        raise ValueError(f"{target!r}: concentration must be positive and finite")
    # the generator draws uniform(low, high) only where high - low is finite
    if isinstance(rule, PerturbRule) and not 0 <= 2 * rule.half_width < math.inf:
        raise ValueError(f"{target!r}: half_width must be nonnegative, and twice it finite")
    if isinstance(rule, UniformRule) and not rule.low <= rule.high:
        raise ValueError(f"{target!r}: empty interval")
    if isinstance(rule, UniformRule) and not 0 < rule.low <= rule.high < math.inf:
        raise ValueError(f"{target!r}: bounds must stay positive and finite")


def block_count(draws: int) -> int:
    """Blocks of DRAW_BLOCK draws that a forecast of `draws` samples."""
    return -(-draws // DRAW_BLOCK)


def _draw_rng(seed: int, block: int) -> np.random.Generator:
    # one independent substream per block of DRAW_BLOCK draws: draw i is row
    # i % DRAW_BLOCK of block i // DRAW_BLOCK, so it depends on (seed, i) alone
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))


# ---------------------------------------------------------------------------
# forecast
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttackForecast:
    """Per-context distribution of the attacker's optimal action.

    probabilities[context] holds, per alternative (domain order), the
    fraction of draws in which that alternative was optimal; ties within a
    draw are split equally.
    """

    decision: str
    context_nodes: tuple[str, ...]
    alternatives: tuple[str, ...]
    probabilities: Mapping[tuple[str, ...], tuple[float, ...]]
    draws: int
    seed: int
    # contractions the forecast ran; how it was computed, not what it says
    chunks: int = field(default=0, compare=False, repr=False)

    def probability(self, context: tuple[str, ...], alternative: str) -> float:
        return self.probabilities[context][self.alternatives.index(alternative)]

    def to_json(self) -> str:
        import json
        payload = {
            "decision": self.decision,
            "context_nodes": list(self.context_nodes),
            "alternatives": list(self.alternatives),
            "draws": self.draws,
            "seed": self.seed,
            "contexts": [
                {"context": dict(zip(self.context_nodes, ctx)),
                 "probabilities": dict(zip(self.alternatives, probs))}
                for ctx, probs in sorted(self.probabilities.items())
            ],
        }
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def constant(d: Diagram, decision: str, probabilities: Mapping[str, float]) -> "AttackForecast":
        """Same action distribution in every observable context."""
        node = d.nodes.get(decision)
        if node is None or node.kind != NodeKind.DECISION:
            raise ValueError(f"{decision!r} is not a decision node")
        contexts = list(parent_tuples_of(d, decision))
        row = tuple(float(probabilities[lbl]) for lbl in node.domain.labels)
        if not (abs(sum(row) - 1.0) <= 1e-9 and all(p >= 0 for p in row)):
            raise ValueError("forecast probabilities must form a distribution")
        return AttackForecast(decision=decision, context_nodes=node.parents,
                              alternatives=node.domain.labels,
                              probabilities={ctx: row for ctx in contexts},
                              draws=0, seed=0)


def _draw_first(table: np.ndarray, rows: int) -> np.ndarray:
    """`rows` copies of `table`, stored draw axis last, viewed draw axis first."""
    return np.moveaxis(np.repeat(table[..., None], rows, axis=-1), -1, 0)


class _DrawBlock:
    """Arrays with a draw axis that one block of draws is sampled into.

    A sampled probability node gets a [rows, *family] copy of its table, a
    value node with a scalar target a [rows, (scale, root)] array, and the
    attacker's utility weights a [rows, parent] array, all starting at the
    stated values; `rows` is at most DRAW_BLOCK. Each is allocated draw axis
    last and handed out as a `np.moveaxis` view, so the draw axis comes
    first in the shape but sits at stride 1, where the contraction streams
    along it. Each target draws, in a fixed order, a whole block of
    DRAW_BLOCK values and keeps the first `rows` in its own view (`slots`)
    of these arrays, so draw i depends on (seed, i) alone. A run of
    consecutive targets under one drawing rule (`runs`) draws in one call,
    which gives the same numbers; a run that refuses its draws raises
    ValueError naming its targets and the block. The pass that gives each
    target its slot checks it and its rule; `tables` and `scalars` hold the
    batched nodes.
    """

    def __init__(self, view: Diagram, compiled: CompiledModel,
                 uncertainty: ParameterUncertainty, utility: Node, rows: int):
        self.view, self.utility = view, utility
        self.tables: dict[str, np.ndarray] = {}
        self.scalars: dict[str, np.ndarray] = {}
        self.weights: np.ndarray | None = None
        self.targets = sorted(uncertainty.rules, key=lambda t: tuple(map(str, t)))
        self.slots: list[np.ndarray] = []
        for target in self.targets:
            kind, rule = target[0], uncertainty.rules[target]
            node = view.nodes.get(target[1]) if len(target) > 1 else None
            if node is None:
                raise ValueError(f"uncertainty target {target!r}: unknown node")
            if kind == "cpt_row" and len(target) != 3:
                raise ValueError(f"uncertainty target {target!r}: a cpt_row target is "
                                 f"(\"cpt_row\", node, parent tuple)")
            if kind in ("belief", "cpt_row"):
                if kind == "belief" and (node.kind != NodeKind.CHANCE or node.parents):
                    raise ValueError(f"{target!r}: belief targets must be parentless "
                                     f"chance nodes in the attacker view")
                key = () if kind == "belief" else target[2]
                if node.kind != NodeKind.CHANCE or key not in node.payload.rows:
                    raise ValueError(f"{target!r}: no such CPT row")
                if node.id not in self.tables:
                    self.tables[node.id] = _draw_first(compiled.prob_factors[node.id].table, rows)
                self.slots.append(self.tables[node.id][(slice(None),) + tuple(
                    view.nodes[p].domain.index(lbl) for p, lbl in zip(node.parents, key))])
            elif kind == "weights":
                if node.kind != NodeKind.UTILITY:
                    raise ValueError(f"{target!r}: weights target must be a utility node")
                if node.id != utility.id:
                    raise ValueError(f"{target!r}: only the attacker's utility weights "
                                     f"can be sampled")
                self.weights = _draw_first(np.array(
                    [node.payload.weights[p] for p in node.parents]), rows)
                self.slots.append(self.weights)
            elif kind in ("value_scale", "value_root"):
                param = kind.removeprefix("value_")
                if node.kind != NodeKind.VALUE or param not in ValueSpec.PARAMS.get(
                        node.payload.form, ()):
                    raise ValueError(f"{target!r}: scalar targets need a value form with a {param}")
                if node.id not in self.scalars:
                    self.scalars[node.id] = _draw_first(np.array(
                        [node.payload.scale, node.payload.root], dtype=float), rows)
                self.slots.append(self.scalars[node.id][:, 0 if kind == "value_scale" else 1])
            else:
                raise ValueError(f"unknown uncertainty target kind {kind!r}")
            _check_rule(rule, target, self.slots[-1][0])
        # each scalar node's parent tags, as a column over the parent's axis
        self.tags = {vid: np.array(view.nodes[view.nodes[vid].parents[0]].domain.numeric_tags)
                     [:, None] for vid in self.scalars}
        # the stated values, copied before any draw overwrites them
        bases = [slot[0].copy() if slot.ndim > 1 else float(slot[0]) for slot in self.slots]
        # consecutive targets under one drawing rule with bases of one shape
        # draw in one call, on their stacked bases
        runs: list[tuple[SamplingRule, list, list[np.ndarray], list[Target]]] = []
        for target, base, slot in zip(self.targets, bases, self.slots):
            rule = uncertainty.rules[target]
            if (runs and not isinstance(rule, PointRule) and rule == runs[-1][0]
                    and np.shape(base) == np.shape(runs[-1][1][0])):
                runs[-1][1].append(base)
                runs[-1][2].append(slot)
                runs[-1][3].append(target)
            else:
                runs.append((rule, [base], [slot], [target]))
        self.runs = [(rule, run[0] if len(run) == 1 else np.stack(run), slots, targets)
                     for rule, run, slots, targets in runs]

    def sample(self, seed: int, block: int) -> None:
        """Block `block`, draws block*DRAW_BLOCK onwards, into the rows."""
        rng = _draw_rng(seed, block)
        for rule, base, slots, targets in self.runs:
            try:
                drawn = rule.sample(base, rng, DRAW_BLOCK)
            except ValueError as exc:
                raise ValueError(f"sampling {', '.join(map(repr, targets))} in block {block} "
                                 f"(draws from {block * DRAW_BLOCK}): {exc}") from exc
            for slot, values in zip(slots, drawn if len(slots) > 1 else (drawn,)):
                slot[:] = values[:len(slot)]

    def inputs(self, lo: int, hi: int) -> tuple[dict, dict | None]:
        """Tables and weights of rows [lo, hi), for UtilityQuery.evaluate."""
        rows = slice(lo, hi)
        tables = {nid: table[rows] for nid, table in self.tables.items()}
        for vid, pair in self.scalars.items():
            # built [parent, draw] and handed out draw first, like the tables
            spec = replace(self.view.nodes[vid].payload, scale=pair[rows, 0], root=pair[rows, 1])
            # a score that overflows leaves a best that `_tally` refuses by name
            with np.errstate(over="ignore", invalid="ignore"):
                tables[vid] = np.moveaxis(spec.of_tag(self.tags[vid]), -1, 0)
        if self.weights is None:
            return tables, None
        parents = self.utility.parents
        return tables, {vid: self.weights[rows, parents.index(vid)] for vid in parents}


def _tally(eu: np.ndarray, lcm: int, block: int) -> np.ndarray:
    """Integer winner counts over the draw axis of one chunk's [draw, *context,
    alternative] expected utilities: each draw gives lcm to its one winner,
    or lcm/k to each of k alternatives that tie its best (`ties`). A best
    that is not finite raises ValueError naming the chunk's block."""
    top = eu.max(axis=-1, keepdims=True)
    if not np.isfinite(top).all():
        raise ValueError(f"the attacker's expected utility is not finite in block {block} "
                         f"(draws from {block * DRAW_BLOCK}): check the sampled parameters")
    winners = ties(eu, top)
    # a finite best always wins, so as many winners as rows means no tie
    if np.count_nonzero(winners) == top.size:
        return lcm * np.count_nonzero(winners, axis=0)
    return (winners * (lcm // winners.sum(axis=-1, keepdims=True))).sum(axis=0)


def forecast_attack(d: Diagram, beliefs: AttackerBeliefs,
                    uncertainty: ParameterUncertainty,
                    draws: int, seed: int,
                    attacker: str | None = None) -> AttackForecast:
    """Monte Carlo forecast of the attacker's optimal action per context.

    The attacker observes the opponent decisions among the parents of the
    attacker's one decision; `beliefs` must give a distribution for every
    other opponent decision and for none of those (see `attacker_view`).

    Draws are sampled in blocks of DRAW_BLOCK along a leading draw axis,
    block b from its own substream `_draw_rng(seed, b)`; draw i is row
    i % DRAW_BLOCK of block i // DRAW_BLOCK and depends on (seed, i) alone,
    whatever `draws` is. Each block is contracted in chunks
    (`UtilityQuery.evaluate_chunks`): one planned contraction per chunk
    gives the attacker's expected utility in every observable context for
    its draws. Alternatives that tie a draw's best (`ties`) split it. A
    draw whose best expected utility in some context is not finite (NaN or
    infinite, as sampled parameters that overflow give) raises ValueError.
    """
    if draws < 1:
        raise ValueError("draws must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    attacker = _agent(d, attacker, AgentKind.ATTACKER)
    own = d.decisions_of(attacker)
    if len(own) != 1:
        raise ValueError(f"attacker must have exactly one decision, found "
                         f"{[n.id for n in own]}")
    decision = own[0]
    observed = {p for p in decision.parents if d.nodes[p].kind == NodeKind.DECISION}
    view = attacker_view(d, beliefs, observed, attacker=attacker)
    compiled = CompiledModel.compile(view)
    block = _DrawBlock(view, compiled, uncertainty, view.utility_node_of(attacker),
                       min(DRAW_BLOCK, draws))

    context_nodes = decision.parents
    alternatives = decision.domain.labels
    # the query reduces nothing (no evidence, every decision a free axis), so
    # a sampled node's batched table is its whole family table; sampled
    # weights are given per row without batching the utility node
    keep = list(context_nodes) + [decision.id]
    query = compiled.utility_query(attacker, {}, {}, keep,
                                   batched=block.tables.keys() | block.scalars.keys())

    # a draw with k tied winners gives each lcm(1..m)/k, m alternatives: the
    # tally stays exact in integers
    lcm = math.lcm(*range(1, len(alternatives) + 1))
    if draws * lcm > np.iinfo(np.int64).max:
        raise ValueError(f"draws must be <= {np.iinfo(np.int64).max // lcm} to tally "
                         f"{len(alternatives)} alternatives exactly")
    counts = np.zeros(query.shape[-len(keep):], dtype=np.int64)
    chunks = 0
    for b in range(block_count(draws)):
        block.sample(seed, b)
        for eu in query.evaluate_chunks(min(DRAW_BLOCK, draws - b * DRAW_BLOCK), block.inputs):
            counts += _tally(eu, lcm, b)
            chunks += 1

    contexts = itertools.product(*(view.nodes[p].domain.labels for p in context_nodes))
    probabilities = {ctx: tuple(int(c) / (draws * lcm) for c in counts[idx])
                     for ctx, idx in zip(contexts, np.ndindex(counts.shape[:-1]))}
    return AttackForecast(decision=decision.id, context_nodes=context_nodes,
                          alternatives=alternatives, probabilities=probabilities,
                          draws=draws, seed=seed, chunks=chunks)


# ---------------------------------------------------------------------------
# defender optimization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankedPolicy:
    policy: Mapping[str, Mapping[tuple[str, ...], str]]
    expected_utility: float

    def choice(self, decision: str, observed: tuple[str, ...] = ()) -> str:
        return self.policy[decision][observed]


@dataclass(frozen=True)
class DefenderSolution:
    optimal: RankedPolicy
    ranking: tuple[RankedPolicy, ...]

    @property
    def ties(self) -> tuple[RankedPolicy, ...]:
        eu = np.array([r.expected_utility for r in self.ranking])
        return tuple(r for r, tie in zip(self.ranking, ties(eu, eu[0])) if tie)


def apply_forecast(d: Diagram, forecast: AttackForecast) -> Diagram:
    """Replace the forecast decision with a chance node driven by it,
    derived from `d`'s compiled form as `attacker_view` is."""
    node = d.nodes.get(forecast.decision)
    if node is None or node.kind != NodeKind.DECISION:
        raise ValueError(f"{forecast.decision!r} is not a decision node")
    if tuple(forecast.context_nodes) != node.parents:
        raise ValueError(f"forecast contexts {forecast.context_nodes} do not match the "
                         f"information set {node.parents} of {forecast.decision!r}")
    if tuple(forecast.alternatives) != node.domain.labels:
        raise ValueError("forecast alternatives do not match the decision's domain")
    rows = {}
    for key in parent_tuples_of(d, forecast.decision):
        if key not in forecast.probabilities:
            raise ValueError(f"context missing from forecast: {key}")
        rows[key] = tuple(forecast.probabilities[key])
    chance = Node(node.id, NodeKind.CHANCE, owner=None, domain=node.domain,
                  parents=node.parents, payload=Cpt(rows))
    return CompiledModel.compile(d).with_nodes([chance]).diagram


def _all_rules(d: Diagram, decision: str):
    node = d.nodes[decision]
    keys = list(parent_tuples_of(d, decision))
    for combo in itertools.product(node.domain.labels, repeat=len(keys)):
        yield dict(zip(keys, combo))


def _check_policy_count(d: Diagram, decisions: list[str]) -> None:
    """Refuse more than MAX_POLICIES policies without enumerating any: each
    decision has |alternatives| ** |information states| rules."""
    count = 1
    for dec in decisions:
        node = d.nodes[dec]
        alternatives = len(node.domain.labels)
        states = math.prod(len(d.nodes[p].domain.labels) for p in node.parents)
        if alternatives > 1 and states > MAX_POLICIES.bit_length():
            shown = f"{alternatives}**{states}"  # above the cap; too large to build
        else:
            count *= alternatives ** states
            if count <= MAX_POLICIES:
                continue
            shown = str(count)
        raise ValueError(f"the defender's policy search needs at least {shown} policies, "
                         f"more than MAX_POLICIES = {MAX_POLICIES}: decision {dec!r} has "
                         f"{alternatives} alternatives over {states} information states")


def solve_defender(d: Diagram, forecast: AttackForecast,
                   defender: str | None = None) -> DefenderSolution:
    """Best defender policy against a forecast attacker.

    Enumerates every combination of decision rules (a rule maps each
    observed-information tuple to an alternative) and ranks them by
    expected utility; deterministic tie order by policy content. All
    policies are one batch of `UtilityQuery.evaluate_chunks`, one row per
    policy: each chunk gets each decision's 0/1 rule tables for its
    policies, so memory is bounded by a chunk. More than MAX_POLICIES
    policies raise ValueError before any is built.
    """
    defender = _agent(d, defender, AgentKind.DEFENDER)
    solved = apply_forecast(d, forecast)
    decisions = sorted(n.id for n in solved.decisions_of(defender))
    _check_policy_count(solved, decisions)
    m = CompiledModel.compile(solved)
    query = m.utility_query(defender, {}, {}, [], batched=decisions)
    rules = [list(_all_rules(solved, dec)) for dec in decisions]
    policies = [dict(zip(decisions, combo)) for combo in itertools.product(*rules)]
    # policy p's rule of each decision, in itertools.product order
    which = np.indices([len(r) for r in rules]).reshape(len(rules), len(policies))
    picks = {}  # per decision: [policy, *parents] -> the rule's pick, in parent-product order
    for dec, dec_rules, rule_of in zip(decisions, rules, which):
        node = solved.nodes[dec]
        picks[dec] = np.reshape([[node.domain.index(a) for a in rule.values()]
                                 for rule in dec_rules],
                                [len(dec_rules)] + [m.sizes[p] for p in node.parents])[rule_of]

    def inputs(lo: int, hi: int) -> tuple[dict[str, np.ndarray], None]:
        """0/1 rule tables of policies [lo, hi), policy axis first in memory (a
        batch-last layout measured no faster and raised peak RSS): 1 where a
        rule's pick in a parent cell meets its axis."""
        return {dec: (picks[dec][lo:hi, ..., None] == np.arange(m.sizes[dec])).astype(float)
                for dec in decisions}, None

    eus = np.concatenate(list(query.evaluate_chunks(len(policies), inputs)))
    ranked = [RankedPolicy(policy=p, expected_utility=float(eu)) for p, eu in zip(policies, eus)]
    # ties in EU go by policy content: each decision's rule as its sorted
    # items, decisions in sorted order; each rule's items are sorted once
    items = [[tuple(sorted(rule.items())) for rule in dec_rules] for dec_rules in rules]
    picked = which.T.tolist()
    order = sorted(range(len(ranked)), key=lambda p: (
        -ranked[p].expected_utility, [keys[i] for keys, i in zip(items, picked[p])]))
    ranked = [ranked[p] for p in order]
    return DefenderSolution(optimal=ranked[0], ranking=tuple(ranked))
