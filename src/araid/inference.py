"""Exact inference and expected utility over influence diagrams.

Two independent evaluation routes live here on purpose, and each public
query takes one checked path on each:

* a variable-elimination engine on numpy factors (the production path, used
  by tables and the adversarial solver). `expected_utility`,
  `expected_value` and `marginal_distribution` check their evidence, policy
  and target with one helper, then contract factors from `_assemble`; and
* a brute-force enumerator over joint assignments (the reference oracle the
  tests hold the engine against). `enumerate_expected_utility`,
  `enumerate_expected_value` and `enumerate_marginal` run the same checks,
  then one loop that averages a score over every joint assignment that
  agrees with the evidence.

Expected utility is multilinear in every probability, rule and score
table, so one planned contraction (`CompiledModel.utility_query`) serves a
whole decision table, a best response, a batch of parameter draws or every
policy of a search: free decisions and conditioning nodes are kept as
axes, and batched tables get a batch axis that the output keeps. A query
is a normaliser tape, which contracts the factors of the ancestors of the
kept axes and the evidence, and one tape per value node, which adds the
ancestors of that node's parents and its score table. A factor outside a
tape's ancestors is barren there (its table sums out to 1), so the tape
leaves it out; with no evidence the normaliser often has no factor left
(on the shipped model, in the forecast and the policy search) and is
exactly 1. The part of each contraction that no batched table
reaches is a constant, computed once when the query is planned. A tape
that no batched table reaches is planned whole, so it is not executed
per chunk, and a normaliser planned as exactly 1 is not divided by. A
forecast chunk on the shipped model thus runs one tape, the money
value's (`AMV`): its normaliser and the cost value's (`ACV`) are planned.

Each tape is planned by one elimination walk over its factors, which
fixes every step's operands and output and prices what the step adds per
batch row. The walk eliminates deepest-first, except in a batch of sampled
probability or score tables (the forecast): there the steps that read
only fixed tables cost nothing per row, so a second walk, greedy by what
each batch row adds and bounded by the first walk's total, is taken where
it is strictly cheaper. When the forecast samples every rule kind,
`AMV`'s tape falls from 680 to 304 multiply-adds per draw. Unbatched
queries and the policy search, a batch of decision rules, keep
deepest-first, so each policy's expected utility has the bits of
evaluating it alone. No step may hold more than MAX_STEP_CELLS cells (per
batch row); a plan that needs one is refused before any step runs. The
steps on fixed tables alone then run once, each freeing its operands.

A step that eliminates a variable from a batched table and a fixed input
one-hot along it (a deterministic node's table, say) runs as `np.take` of
the batched one at each row's 1, with the einsum's bits; `_Elimination`
gives the rule and its one layout guard. On the shipped plans one step
takes: `AMV`'s sum over the defender's cost `DC` when the forecast
samples `AMV`'s scale or root.
"""
from __future__ import annotations

import itertools
import math
import string
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .diagram import (
    Diagram,
    Node,
    NodeKind,
    ValueSpec,
    ancestors,
    parent_tuples,
    topological_order,
)

# A decision rule maps each observed-parent tuple to a chosen alternative;
# a policy assigns a rule to every decision node it covers.
DecisionRule = Mapping[tuple[str, ...], str]
Policy = Mapping[str, DecisionRule]
Evidence = Mapping[str, str]

# Both tolerances scale with the size of what they compare (`_scaled_tol`):
# utilities scaled by a power of two keep every tie and every cell.
EU_AGREEMENT_TOL = 1e-9  # spread allowed when several opponent fixings define a cell
TIE_TOL = 1e-12  # alternatives within this of the best are all optimal
BATCH = "#batch"  # batch axis of batched tables; '#' opens a .maid comment, so no node has it

# The most memory the largest batched array of one chunk of
# `UtilityQuery.evaluate_chunks` may take. The shipped forecast (32 cells per
# draw) takes 512-draw chunks, the plan that samples every rule kind (72 cells)
# 227-draw ones and the shipped policy search (48 cells per policy) one of 48;
# 1,024-draw chunks raised the wide plan's peak RSS in the benchmark by 2 MB.
CHUNK_BYTES = 128 * 1024

# The most cells any one contraction step may give, per batch row when the
# tape has a batch axis; a plan with a larger step is refused before any
# step runs. On a k x k grid of binary chance nodes (each with its upper and
# left neighbour as parents), k = 16 plans a largest step of 2**22 cells
# (32 MiB) and evaluates with a 48 MiB `tracemalloc` peak in 0.4-0.6 s, since
# each intermediate is freed after its one read; k = 20 would plan one of
# 2**30 cells (8 GiB).
MAX_STEP_CELLS = 2**22


def _scaled_tol(tol: float, size):
    """`tol` relative to the size of what it bounds: tol * max(1, |size|)
    elementwise, so `tol` itself wherever |size| <= 1. An infinite size
    counts as the largest float, so an infinite best still ties itself."""
    size = np.abs(size)
    # sizes within [-1, 1] (every utility of the shipped model) skip the
    # clip, most of what the rule would add to a 512-draw tally
    return tol if size.max() <= 1.0 else tol * np.clip(size, 1.0, np.finfo(float).max)


def ties(values, best):
    """Where `values` tie `best`, the best of them: within
    TIE_TOL * max(1, |best|) below it. Arrays broadcast."""
    return values >= best - _scaled_tol(TIE_TOL, best)


class ImpossibleEvidenceError(ValueError):
    """The conditioning event has probability zero under the given policy."""


class AmbiguousCellError(ValueError):
    """A table cell's value depends on an opponent decision left unfixed."""


def parent_tuples_of(d: Diagram, node_id: str):
    """Parent-value tuples of one node, in parent-domain product order."""
    return parent_tuples(d.nodes, d.nodes[node_id])


def constant_rule(d: Diagram, decision: str, alternative: str) -> dict[tuple[str, ...], str]:
    """Rule choosing `alternative` for every observed-parent tuple."""
    node = d.nodes.get(decision)
    if node is None or node.kind != NodeKind.DECISION:
        raise ValueError(f"{decision!r} is not a decision node")
    if alternative not in node.domain.labels:
        raise ValueError(f"{alternative!r} is not an alternative of {decision!r}")
    return {key: alternative for key in parent_tuples(d.nodes, node)}


def constant_policy(d: Diagram, choices: Mapping[str, str]) -> dict[str, dict[tuple[str, ...], str]]:
    return {dec: constant_rule(d, dec, alt) for dec, alt in choices.items()}


def _checked(d: Diagram, policy: Policy, evidence: Evidence, *, every_decision: bool = True,
             target: str | None = None, scored: bool = False) -> Node | None:
    """Check a query's evidence and policy, and look up its target.

    Every policy key must be a decision node with a complete, in-domain
    rule, and with `every_decision` every decision needs one. The target is
    a value node when `scored`, else a node with an outcome domain.
    """
    for nid, label in evidence.items():
        node = d.nodes.get(nid)
        if node is None:
            raise ValueError(f"evidence on unknown node {nid!r}")
        if node.kind not in (NodeKind.CHANCE, NodeKind.DETERMINISTIC):
            raise ValueError(f"evidence keys must be chance/deterministic nodes, got {nid!r}")
        if label not in node.domain.labels:
            raise ValueError(f"evidence label {label!r} not in domain of {nid!r}")
    for dec in policy:
        node = d.nodes.get(dec)
        if node is None or node.kind != NodeKind.DECISION:
            raise ValueError(f"policy entry {dec!r} is not a decision node")
    for node in (n for n in d.nodes.values() if n.kind == NodeKind.DECISION):
        if node.id not in policy:
            if every_decision:
                raise ValueError(f"policy missing a rule for decision {node.id!r}")
            continue
        rule = policy[node.id]
        for key in parent_tuples(d.nodes, node):
            if key not in rule:
                raise ValueError(f"rule for {node.id!r} missing observed tuple {key}")
            if rule[key] not in node.domain.labels:
                raise ValueError(f"rule for {node.id!r} picks {rule[key]!r}, not in its domain")
    if target is None:
        return None
    node = d.nodes.get(target)
    if node is None:
        raise ValueError(f"unknown target node {target!r}")
    if scored and node.kind != NodeKind.VALUE:
        raise ValueError(f"{target!r} is not a value node")
    if not scored and node.domain is None:
        raise ValueError(f"{target!r} has no outcome domain")
    return node


# ---------------------------------------------------------------------------
# factor algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Factor:
    vars: tuple[str, ...]
    table: np.ndarray | None  # one axis per var, in order; None: given per batch row

    def reduce(self, var: str, index: int) -> "Factor":
        axis = self.vars.index(var)
        return Factor(self.vars[:axis] + self.vars[axis + 1:],
                      None if self.table is None else np.take(self.table, index, axis=axis))


class ContractionTape:
    """Planned sum-product: the elimination schedule, replayable on new tables.

    One elimination walk (`_Elimination`) plans the tape: it eliminates the
    variables outside `keep` in turn, each from the factors that mention it,
    and fixes every step's operands, output variables and price per batch
    row. Its order is deepest-first (reverse topological), ties broken by
    how few factors mention a variable, then by id. With `by_row_cost`, a
    batched tape also walks the order that is greedy by what each batch row
    adds, bounded by the deepest-first walk's total, and takes it if it is
    strictly cheaper: steps that read only fixed tables run once, here, so
    the order that matters is the one that leaves the least per row.
    `CompiledModel.utility_query` asks for it on a batch of sampled
    probability or score tables (the forecast). Unbatched queries (tables,
    evaluate, `best_response`) and a batch of decision rules (the policy
    search) keep deepest-first, so the search ranks each policy by the
    bits that evaluating it alone gives: another order rounds its sums
    differently, by up to 2.2e-16 on the shipped model.
    A variable that is in no elimination order (such as the batch axis) is
    simply one more entry in the var lists: kept, it rides through every
    step that touches a table carrying it, so one execution contracts a
    whole batch of draws or policies. Every elimination step puts BATCH
    last in its output, so with batch-innermost inputs each einsum streams
    along the batch.

    The result views one slot, `out_slot`: the one factor left after
    elimination, or a last step's product, in keep order, of those left.
    `_output` builds it from the filled slots, for `execute` and the
    planned `result` alike: `out_axes` puts the slot's axes in keep order,
    and a kept variable that no factor mentions gets a singleton axis
    (`missing_axes`). With no factor at all it is 1.

    `fixed` gives the tables of the inputs that never change, by position.
    Every step that reads only those and their results runs once, here,
    after every step has been checked; `steps` keeps the rest. `execute`
    then takes the other inputs, in order, followed by `constants`: the
    fixed results that a kept step or the output reads. When every input
    is fixed, no step is left and `result` holds the whole result,
    C-contiguous (None otherwise), so the tape need not be executed at all.
    `gathers` stands beside `steps`, one entry per step: None for an
    einsum, or the take the walk planned for it (`_Elimination` gives the
    rule): (the operand's slot, its axis order, the take axis, and the
    index of each row's 1). `execute` takes only from an operand laid out
    in that order and runs the einsum on any other. `steps` keeps the
    step's (spec, operand slots) pair and the one-hot table stays among
    `constants`, so every step can still be read, or run, as an einsum.
    Einsum letters are reused once their variable is eliminated, so a tape
    may span any number of variables; one that needs more than 52 letters
    at once raises ValueError. So does a step whose output would hold more
    than MAX_STEP_CELLS cells (per batch row when it has the batch axis),
    before any step runs.

    `row_cells` is the cost of one execution per batch row: the largest
    batched operand or output of the kept steps, or the varying input the
    result views, in cells without the batch axis (`sizes` gives each
    variable's extent). Without a batch axis, the whole execution is one
    row and every operand counts. `row_ops` is the walk's price of the
    kept steps per batch row: each einsum step's output cells times the
    extent of the variable it sums out (a last product's output cells),
    and a take one copy of its output cells.
    """

    def __init__(self, var_lists: Sequence[tuple[str, ...]], keep: Sequence[str],
                 elim_priority: Mapping[str, tuple], sizes: Mapping[str, int],
                 fixed: Mapping[int, np.ndarray] | None = None, *, by_row_cost: bool = False):
        fixed = fixed or {}
        keep_set = set(keep)
        elim = sorted({v for vs in var_lists for v in vs if v not in keep_set},
                      key=lambda v: (elim_priority.get(v, (0,)),
                                     sum(v in vs for vs in var_lists), v))
        walk = _Elimination(var_lists, keep, fixed, sizes)
        chosen = walk(elim)
        if by_row_cost and BATCH in keep_set and len(fixed) < len(var_lists):
            chosen = walk(elim, greedy=True, below=chosen[0]) or chosen
        self.row_ops, steps, (out_slot, out_vars) = chosen

        # Each variable holds one einsum letter from the first step that reads
        # it to the step that eliminates it, so a letter names one variable in
        # every step that mentions it, and an eliminated variable's letter is
        # free for reuse. Every step is checked before any runs.
        letters: dict[str, str] = {}
        spare = list(reversed(string.ascii_letters))
        specs = []
        for v, _, ins, out, _, _ in steps:
            for w in itertools.chain(*ins):
                if w not in letters:
                    if not spare:
                        needed = len(letters.keys() | set(itertools.chain(*ins)))
                        raise ValueError(f"a contraction needs {needed} einsum letters at once, "
                                         f"more than the {len(string.ascii_letters)} there are")
                    letters[w] = spare.pop()
            cells = math.prod(sizes[w] for w in out if w != BATCH)
            if cells > MAX_STEP_CELLS:
                held = [w for w in out if w != BATCH]
                raise ValueError(f"a contraction step over {len(held)} variables "
                                 f"({', '.join(held)}) needs {cells:,} cells"
                                 f"{' per batch row' if BATCH in out else ''}, more than "
                                 f"MAX_STEP_CELLS = {MAX_STEP_CELLS:,}")
            spec = ",".join(["".join([letters[w] for w in vs]) for vs in ins])
            specs.append(spec + "->" + "".join([letters[w] for w in out]))
            if v is not None:
                spare.append(letters.pop(v))

        # run the steps that read fixed slots alone; each slot is read by one
        # step (or is the output), so an operand is freed once its step runs
        n_inputs = len(var_lists)
        values = dict(fixed)
        kept = []
        for slot, (spec, (_, operands, ins, out, varying, take)) in enumerate(
                zip(specs, steps), start=n_inputs):
            if varying:
                kept.append((slot, spec, operands, ins, out, take))
            else:
                values[slot] = np.einsum(spec, *[values.pop(i) for i in operands])
        read = sorted(values)  # what a kept step or the output reads
        index = {slot: i for i, slot in enumerate(
            [i for i in range(n_inputs) if i not in fixed] + read)}
        self.steps: list[tuple[str, tuple[int, ...]]] = []
        self.gathers: list[tuple[int, tuple[int, ...], int, np.ndarray] | None] = []
        terms = []
        for slot, spec, operands, ins, out, take in kept:
            self.steps.append((spec, tuple(index[i] for i in operands)))
            self.gathers.append(take and (index[operands[take[0]]], *take[1:]))
            index[slot] = len(index)
            terms += [*ins, out]
        self.out_slot = index.get(out_slot)
        self.out_axes = tuple(out_vars.index(w) for w in keep if w in out_vars)
        self.missing_axes = [i for i, w in enumerate(keep) if w not in out_vars]
        # C-contiguous copies: a hoisted result can come out in any layout,
        # and an einsum reads a contiguous operand faster
        self.constants = [np.array(values.pop(i), order="C") for i in read]
        # every input fixed: the whole result is planned here
        planned = len(fixed) == n_inputs
        self.result = np.asarray(self._output(self.constants), order="C") if planned else None

        batched = BATCH in walk.bit  # with no batch axis, every term counts
        # a result that views a varying input reads it whole
        self.row_cells = max((math.prod(sizes[w] for w in t if w != BATCH)
                              for t in terms + ([] if planned else [out_vars])
                              if BATCH in t or not batched), default=1)

    def execute(self, tables: Sequence[np.ndarray]) -> np.ndarray:
        """Run the steps on the varying inputs followed by `constants`."""
        slots = list(tables)
        for (spec, operands), gather in zip(self.steps, self.gathers):
            if gather is not None:
                operand, axes, axis, index = gather
                other = slots[operand].transpose(axes)
                # taken only as laid out in `axes` order (strides falling, an
                # axis of one entry aside), where it leaves the einsum's layout
                strides = [s for s, n in zip(other.strides, other.shape) if n > 1]
                if all(a > b for a, b in zip(strides, [*strides[1:], 0])):
                    slots.append(np.take(other, index, axis=axis))
                    continue
            slots.append(np.einsum(spec, *(slots[i] for i in operands)))
        return self._output(slots)

    def _output(self, slots: Sequence[np.ndarray]) -> np.ndarray:
        """The result from the filled slots: the output slot viewed in keep
        order, with a singleton axis, along which it is constant, for each
        kept variable that no factor mentions."""
        result = (np.array(1.0) if self.out_slot is None else slots[self.out_slot]
                  ).transpose(self.out_axes)
        return np.expand_dims(result, self.missing_axes) if self.missing_axes else result


def _step_vars(ins: Iterable[tuple[str, ...]], v: str) -> tuple[str, ...]:
    """The output variables of a step that eliminates v from operands over
    `ins`: the others in order of first mention, BATCH last."""
    out = dict.fromkeys(itertools.chain.from_iterable(ins))
    del out[v]
    if BATCH in out:
        del out[BATCH]
        return (*out, BATCH)
    return tuple(out)


class _Elimination:
    """The elimination walk over one tape's factors (`ContractionTape`).

    A walk eliminates each variable, as one step, from the factors that
    mention it, in the order it is given or, greedy, cheapest first, and
    then multiplies the factors left, if more than one, in a last step over
    the kept variables they hold, in keep order. It gives its total price
    per batch row, its steps, and the (slot, variables) of the factor the
    result views, (None, ()) if there is none. Slots number the inputs
    first, then each step's output in step order. A step is (the variable
    it eliminates, None for a last product; its operand slots; their
    variables; its output variables; whether an operand varies; the take
    it runs as, or None). Each factor is an operand of one step only.

    A step costs what one batch row adds: nothing if no operand varies
    (it is hoisted), one copy of its output if it runs as a take, and
    otherwise its output cells times the extent of the variable it
    eliminates; a last product costs its output cells. Variable sets are
    bit masks; BATCH has a bit of extent 1, so masks count cells per row.

    A step that eliminates v runs as a take when it has two operands, each
    over distinct variables: a fixed input, not over BATCH, that is 0/1
    with one 1 along v in each row, and a varying one that has none of the
    fixed input's other variables. `np.take` reads the varying operand in
    its own axis order with BATCH moved last, at each row's 1 along v, so
    the fixed input's other variables come in v's place, in its order; that
    is the step's `out`, so its einsum gives the same order. The walk plans
    the take whole, against fixed inputs only, never a hoisted
    intermediate, as `ContractionTape.gathers` holds it but with the
    varying operand's position in the step for its slot: (that position,
    the axis order, v's place in it, the index of each row's 1). An entry
    times 1 plus zeros is the entry, so each finite cell has the einsum's
    bits; a picked -0.0 (the sum gives +0.0) and an unpicked inf or NaN
    (0 * inf is NaN in the sum) are all that differ. The take comes out
    C-ordered, and later steps sum in an order that follows their operands'
    layout, so `execute` takes only from an operand whose strides fall
    along the axis order, axes of one entry aside: the layout in which the
    einsum's output is C-ordered too. That per-call check is the one layout
    guard; any other layout runs the einsum. The forecast's tables are
    batch-innermost, and there every planned take runs.
    """

    def __init__(self, var_lists: Sequence[tuple[str, ...]], keep: Sequence[str],
                 fixed: Mapping[int, np.ndarray], sizes: Mapping[str, int]):
        self.keep, self.fixed, self.sizes = keep, fixed, sizes
        self.bit = {w: 1 << i for i, w in enumerate(dict.fromkeys(itertools.chain(*var_lists)))}
        self.extent = {b: 1 if w == BATCH else sizes[w] for w, b in self.bit.items()}
        # a factor: (variable mask, vars, varying, slot)
        self.inputs = [(sum(self.bit[w] for w in set(vs)), vs, i not in fixed, i)
                       for i, vs in enumerate(var_lists)]
        # each row's 1 by (fixed input, v); None where the input is not one-hot
        self.one_hot: dict[tuple[int, str], np.ndarray | None] = {}

    def cells(self, mask: int) -> int:
        return math.prod(e for b, e in self.extent.items() if mask & b)

    def __call__(self, order: Sequence[str], greedy: bool = False, below: float = math.inf
                 ) -> tuple[int, list[tuple], tuple[int | None, tuple[str, ...]]] | None:
        """The walk along `order`, or the walk that is greedy by per-row
        cost, ties to the earlier variable of `order`; None once its total
        reaches `below`."""
        n = len(self.inputs)
        live, left, steps, total = list(self.inputs), list(order), [], 0
        while left:
            best = None
            for v in left if greedy else left[:1]:
                b, mask, varying, group = self.bit[v], 0, False, []
                for f in live:
                    if f[0] & b:
                        mask |= f[0]
                        varying |= f[2]
                        group.append(f)
                c, take = 0, None
                if varying:
                    c = self.cells(mask)
                    take = self._take(v, group) if len(group) == 2 else None
                    if take:
                        c //= self.sizes[v]
                if best is None or c < best[0]:
                    best = c, v, group, mask, varying, take
                    if not c:  # none is cheaper, and ties go to the earlier
                        break
            c, v, group, mask, varying, take = best
            total += c
            if total >= below:
                return None
            left.remove(v)
            ins = tuple(f[1] for f in group)
            take, out = take or (None, _step_vars(ins, v))
            steps.append((v, tuple(f[3] for f in group), ins, out, varying, take))
            live = [f for f in live if f not in group]
            live.append((mask & ~self.bit[v], steps[-1][3], varying, n + len(steps) - 1))
        if len(live) > 1:  # every variable left is kept
            out = tuple(w for w in self.keep if any(w in f[1] for f in live))
            mask, varying = sum(self.bit[w] for w in out), any(f[2] for f in live)
            total += self.cells(mask) if varying else 0
            steps.append((None, tuple(f[3] for f in live), tuple(f[1] for f in live), out,
                          varying, None))
            live = [(mask, out, varying, n + len(steps) - 1)]
        if total >= below:
            return None
        return total, steps, (live[0][3], live[0][1]) if live else (None, ())

    def _take(self, v: str, group: list[tuple]) -> tuple | None:
        """The take a step that eliminates v from two operands, one of
        which varies, runs as, and the step's output in the take's order
        (see the class), or None."""
        k = 0 if group[0][3] in self.fixed else 1
        fmask, vs, _, i = group[k]
        if (i not in self.fixed or BATCH in vs or any(len(set(f[1])) < len(f[1]) for f in group)
                or fmask & group[1 - k][0] & ~self.bit[v]):
            return None
        if (i, v) not in self.one_hot:
            # every row sums to 1, so has a nonzero entry, and there are only
            # as many nonzero entries as rows, so each row's is its only one
            table, axis = self.fixed[i], vs.index(v)
            self.one_hot[i, v] = table.argmax(axis=axis) if (
                np.count_nonzero(table) * table.shape[axis] == table.size
                and (table.sum(axis=axis) == 1.0).all()) else None
        index = self.one_hot[i, v]
        if index is None:
            return None
        other = group[1 - k][1]
        order = sorted(other, key=BATCH.__eq__)  # the take's axis order: BATCH last
        axis = order.index(v)
        out = (*order[:axis], *(w for w in vs if w != v), *order[axis + 1:])
        return (1 - k, tuple(map(other.index, order)), axis, index), out


# ---------------------------------------------------------------------------
# compiled model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompiledModel:
    """Diagram lowered to numpy factors, ready for repeated queries.

    `compile` lowers each diagram once: the first call keeps the sizes,
    factors and elimination priority with the diagram (`Diagram._compiled`,
    which holds no reference back to it), and every later call reads them.
    Every CompiledModel of one diagram shares them, and the factor tables
    are read-only. `with_nodes` derives a swapped diagram's compiled form
    from its parent's: it builds the swapped nodes' factors and shares every
    other.
    """

    diagram: Diagram
    sizes: Mapping[str, int]
    prob_factors: Mapping[str, Factor]
    value_factors: Mapping[str, Factor]
    elim_priority: Mapping[str, tuple]

    @classmethod
    def compile(cls, d: Diagram) -> "CompiledModel":
        """`d` lowered to factors on the first call, read back on later ones."""
        if d._compiled is None:
            return cls._lower(d, {})
        return cls(d, *d._compiled)

    def with_nodes(self, nodes: Iterable[Node]) -> "CompiledModel":
        """The compiled form of `self.diagram.replace_nodes(nodes)`, which
        checks the swap, kept with that diagram. The factors of the swapped
        nodes, and of the children of one whose domain changed, are built;
        every other is this model's. The elimination priority comes from
        the swapped diagram's own order."""
        nodes = list(nodes)
        d = self.diagram.replace_nodes(nodes)
        old = self.diagram.nodes
        resized = {n.id for n in nodes if n.id not in old or n.domain != old[n.id].domain}
        built = {n.id for n in nodes} | {n.id for n in d.nodes.values()
                                         if not resized.isdisjoint(n.parents)}
        kept = {nid: f for factors in (self.prob_factors, self.value_factors)
                for nid, f in factors.items() if nid not in built}
        return self._lower(d, kept)

    @classmethod
    def _lower(cls, d: Diagram, kept: Mapping[str, Factor]) -> "CompiledModel":
        """Compile `d`, taking the factors in `kept` as they are, and keep
        what it built with `d`."""
        topo = topological_order(d)
        m = cls(d, {n.id: len(n.domain) for n in d.nodes.values() if n.domain is not None},
                {}, {}, {nid: (-depth,) for depth, nid in enumerate(topo)})
        for n in d.nodes.values():
            factors = m.value_factors if n.kind == NodeKind.VALUE else m.prob_factors
            f = kept.get(n.id)
            if f is None:
                if n.kind == NodeKind.CHANCE:
                    f = m._cpt_factor(n)
                elif n.kind == NodeKind.DETERMINISTIC:
                    f = m.rule_factor(n.id, n.payload.rows)
                elif n.kind == NodeKind.VALUE:
                    f = m._value_factor(n)
                else:
                    continue
                f.table.flags.writeable = False
            factors[n.id] = f
        object.__setattr__(d, "_compiled", (m.sizes, m.prob_factors, m.value_factors,
                                            m.elim_priority))
        return m

    def _family(self, n: Node, cell: Callable[[tuple[str, ...]], object],
                dtype: type = float) -> np.ndarray:
        """`cell(key)` of every parent tuple of `n`, filled in parent-product
        order: an array over n's parents followed by the axes of one cell."""
        cells = np.array([cell(key) for key in parent_tuples(self.diagram.nodes, n)], dtype)
        return cells.reshape([self.sizes[p] for p in n.parents] + list(cells.shape[1:]))

    def _cpt_factor(self, n: Node) -> Factor:
        return Factor(n.parents + (n.id,), self._family(n, n.payload.rows.__getitem__))

    def _value_factor(self, n: Node) -> Factor:
        spec: ValueSpec = n.payload
        if spec.form in ValueSpec.PARAMS:
            # its parent's tags in row order, one by one (an array power can move the last bit)
            tags = self.diagram.nodes[n.parents[0]].domain.numeric_tags
            return Factor(n.parents, np.array([spec.of_tag(x) for x in tags], float))
        domains = [self.diagram.nodes[p].domain for p in n.parents]
        return Factor(n.parents, self._family(n, lambda key: spec.score(key, domains)))

    def rule_factor(self, nid: str, rule: DecisionRule) -> Factor:
        """0/1 table over a node's family: 1 where it takes rule[parent tuple].
        The rule must cover every parent tuple."""
        n = self.diagram.nodes[nid]
        index = {label: i for i, label in enumerate(n.domain.labels)}
        picks = self._family(n, lambda key: index[rule[key]], int)
        return Factor(n.parents + (nid,), np.eye(len(index))[picks])

    # -- query plumbing ----------------------------------------------------

    def _free(self, policy: Policy, batched: set[str]) -> set[str]:
        """Decisions with neither a rule in `policy` nor a batched table."""
        return {n.id for n in self.diagram.nodes.values() if n.kind == NodeKind.DECISION
                and n.id not in policy and n.id not in batched}

    def _assemble(self, policy: Policy, evidence: Evidence, keep: Sequence[str],
                  targets: Iterable[str], batched: set[str] = frozenset()
                  ) -> tuple[list[tuple[str, Factor]], dict[str, str]]:
        """Reduced factors tagged with their node id, plus all reductions.

        A decision with no rule in `policy` is a free axis with no factor and
        must be in `keep`; a batched decision gets a factor with its scope
        and no table, since the caller gives the table per batch row.
        Decisions under a constant rule are bound like evidence (their axis
        is sliced away everywhere) rather than carried as 0/1 factors; that
        keeps algebra that should cancel exactly cancelling exactly.
        """
        free = self._free(policy, batched)
        reductions = dict(evidence)
        raw: list[tuple[str, Factor]] = []
        rules: list[tuple[str, Factor]] = []
        # barren nodes drop out; a free decision has no factor, so its
        # parents are not reached through it
        for nid in sorted(ancestors(self.diagram, targets, stop=free)):
            n = self.diagram.nodes[nid]
            if n.kind in (NodeKind.CHANCE, NodeKind.DETERMINISTIC):
                raw.append((nid, self.prob_factors[nid]))
            elif nid in free:
                if nid not in keep:
                    raise ValueError(f"no rule or axis for decision {nid!r}")
            elif n.kind == NodeKind.DECISION:
                alternatives = set(policy.get(nid, {}).values())
                if nid in batched:
                    rules.append((nid, Factor(n.parents + (nid,), None)))
                elif len(alternatives) == 1:
                    reductions[nid] = next(iter(alternatives))
                else:
                    rules.append((nid, self.rule_factor(nid, policy.get(nid, {}))))
        return [(nid, self._reduce(f, reductions)) for nid, f in raw + rules], reductions

    def _reduce(self, f: Factor, reductions: Mapping[str, str]) -> Factor:
        for nid, label in reductions.items():
            if nid in f.vars:
                f = f.reduce(nid, self.diagram.nodes[nid].domain.index(label))
        return f

    def utility_query(self, agent: str, policy: Policy, evidence: Evidence,
                      keep: Sequence[str], weights: Mapping[str, float] | None = None,
                      batched: Iterable[str] = ()) -> "UtilityQuery":
        """Plan a conditional expected-utility query over `keep`.

        Decisions with no rule in `policy` are free axes and must be kept.
        The tables of the nodes in `batched` (probability, value or decision
        nodes) are planned with a leading BATCH axis, which the result keeps
        in front of `keep`; see UtilityQuery.expected. Each tape contracts
        only the factors of its own targets' ancestors: the normaliser's
        targets are `keep` and the evidence, and value node v adds v's
        parents. Every other factor is barren for that tape and would sum
        out to 1. Every contraction step that reads no batched table runs
        once, here.
        """
        if weights is None:
            weights = self.diagram.utility_node_of(agent).payload.weights
        value_parents: set[str] = set()
        for vid in weights:
            value_parents.update(self.diagram.nodes[vid].parents)
        batched = set(batched)
        tagged, reductions = self._assemble(policy, evidence, keep,
                                            value_parents | set(evidence) | set(keep), batched)
        out = ((BATCH,) if batched else ()) + tuple(keep)

        # an unbatched factor over kept axes alone multiplies the numerator
        # and denominator of each cell identically; leaving it out makes the
        # cancellation exact instead of rounding twice, and where it is zero
        # it marks the cell impossible
        possible = np.ones([self.sizes[v] for v in keep], dtype=bool)
        factors = []
        for nid, f in tagged:
            if nid in batched or not set(f.vars) <= set(keep):
                factors.append((nid, f))
                continue
            in_keep_order = sorted(f.vars, key=keep.index)
            possible &= (np.transpose(f.table, [f.vars.index(v) for v in in_keep_order])
                         > 0.0).reshape([self.sizes[v] if v in f.vars else 1 for v in keep])

        free = self._free(policy, batched)
        targets = set(keep) | set(evidence)
        # a batch of sampled probability or score tables is ordered by its
        # cost per row; a batch of decision rules (the policy search) keeps
        # deepest-first, whose sums give the bits the unbatched queries give
        by_row_cost = bool(batched) and all(
            self.diagram.nodes[nid].kind != NodeKind.DECISION for nid in batched)

        def plan(nodes: set[str], extra: list[tuple[str, Factor]]
                 ) -> tuple[tuple[str, ...], ContractionTape]:
            """The batched inputs and the tape of the factors of `nodes`."""
            picked = [(nid, f) for nid, f in factors if nid in nodes] + extra
            var_lists = [(BATCH,) + f.vars if nid in batched else f.vars for nid, f in picked]
            fixed = {i: f.table for i, (nid, f) in enumerate(picked) if nid not in batched}
            return (tuple(nid for nid, _ in picked if nid in batched),
                    ContractionTape(var_lists, out, self.elim_priority, self.sizes, fixed,
                                    by_row_cost=by_row_cost))

        norm_inputs, norm_tape = plan(ancestors(self.diagram, targets, stop=free), [])
        value_inputs, value_tapes = {}, {}
        for vid in weights:
            nodes = ancestors(self.diagram, targets | set(self.diagram.nodes[vid].parents),
                              stop=free)
            value_inputs[vid], value_tapes[vid] = plan(
                nodes, [(vid, self._reduce(self.value_factors[vid], reductions))])
        # x / 1.0 == x bit for bit: a Z planned as exactly 1 is not divided by
        unit_norm = norm_tape.result is not None and bool((norm_tape.result == 1.0).all())
        return UtilityQuery(
            inputs=tuple(dict.fromkeys(itertools.chain(norm_inputs, *value_inputs.values()))),
            batched=frozenset(batched), weights=dict(weights),
            reductions=reductions, possible=possible, keep=tuple(keep),
            unit_norm=unit_norm, certain=unit_norm and bool(possible.all()),
            shape=tuple(1 if v == BATCH else self.sizes[v] for v in out),
            norm_inputs=norm_inputs, norm_tape=norm_tape,
            value_inputs=value_inputs, value_tapes=value_tapes)


@dataclass(frozen=True)
class UtilityQuery:
    """A planned conditional expected-utility query: sum_v w_v * N_v / Z.

    Z contracts the reduced probability and rule factors of the ancestors
    of `keep` and the evidence down to `keep`; N_v contracts those of the
    ancestors of value node v's parents as well, together with v's score
    factor. Each tape leaves out the factors that its targets do not
    depend on, so with no evidence Z often has no factor left and is
    exactly 1. A cell is possible where Z > 0 and no factor left out over
    kept axes is zero. The tapes hold every part that no batched table
    reaches as constants; a tape that no batched table reaches at all is
    a planned result, read instead of executed. A Z planned as exactly 1
    is not divided by, and when every cell is then possible (`certain`),
    `evaluate` checks no mask.
    """

    inputs: tuple[str, ...]            # batched tables any tape reads
    batched: frozenset[str]            # nodes whose tables each call gives
    weights: dict[str, float]
    reductions: dict[str, str]         # evidence plus constant-rule bindings
    possible: np.ndarray               # over keep: False where a left-out factor is 0
    unit_norm: bool                    # Z is planned as exactly 1 in every cell
    certain: bool                      # unit_norm, and `possible` holds everywhere
    keep: tuple[str, ...]
    shape: tuple[int, ...]             # result shape, 1 on the batch axis
    norm_inputs: tuple[str, ...]       # the batched tables Z reads, in tape input order
    norm_tape: ContractionTape
    value_inputs: dict[str, tuple[str, ...]]  # the same for each N_v
    value_tapes: dict[str, ContractionTape]

    @property
    def row_cells(self) -> int:
        """The largest batched array one call contracts, in cells per batch
        row, over the normaliser and value tapes."""
        return max(t.row_cells for t in (self.norm_tape, *self.value_tapes.values()))

    def chunk_rows(self, n: int) -> int:
        """Rows per chunk of `evaluate_chunks(n, ...)`: as many as fit in
        CHUNK_BYTES, at least 1 and at most n."""
        return max(1, min(n, CHUNK_BYTES // (self.row_cells * np.dtype(float).itemsize)))

    def evaluate_chunks(self, n: int, inputs: Callable[[int, int], tuple[Mapping, Mapping | None]]
                        ) -> Iterator[np.ndarray]:
        """`evaluate` of batch rows [0, n) in chunks of `chunk_rows(n)`, in
        order, on the tables and weights `inputs(lo, hi)` gives rows [lo, hi).
        Each chunk's result has a row per batch row. Where the query reads
        no batched table, its one result stands for every row, with or
        without a batch axis; where it reads one, any other row count raises
        RuntimeError."""
        step = self.chunk_rows(n)
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            eu = self.evaluate(*inputs(lo, hi))
            if not self.inputs:
                eu = np.broadcast_to(eu, (hi - lo,) + eu.shape[eu.ndim - len(self.keep):])
            elif eu.shape[0] != hi - lo:
                raise RuntimeError(f"the contraction of batch rows [{lo}, {hi}) gave "
                                   f"{eu.shape[0]} rows, not {hi - lo}")
            yield eu

    def expected(self, tables: Mapping[str, np.ndarray] | None = None,
                 weights: Mapping[str, float | np.ndarray] | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Expected utility over `keep`, after the batch axis if batched, and
        the mask of possible cells; the utility is meaningless elsewhere.

        `tables` gives each batched node's table over its factor's scope,
        batch axis first in the shape; any strides work, and a batch axis
        at stride 1 (a `np.moveaxis` view of a batch-last array) is the
        fast layout. A batched result comes back batch axis innermost in
        memory too, whatever the inputs' layout. A batched probability or
        rule table must be a conditional distribution (each row over the
        node's own axis sums to 1), since the plan leaves out of each tape
        the factors that its targets do not depend on. A table for a node
        the query did not batch raises ValueError, since its planned
        constants would ignore it. `weights` may give each value node one
        per batch row.
        """
        eu, norm = self._ratio(tables, weights)
        possible = self.possible if norm is None else self.possible & (norm > 0.0)
        return eu, np.broadcast_to(possible, eu.shape)

    def _ratio(self, tables: Mapping[str, np.ndarray] | None,
               weights: Mapping[str, float | np.ndarray] | None
               ) -> tuple[np.ndarray, np.ndarray | None]:
        """sum_v w_v * N_v / Z and the Z it divided by: None when Z is the
        planned 1, which it skips."""
        tables = tables or {}
        stray = sorted(set(tables) - self.batched)
        if stray:
            raise ValueError(f"tables given for node(s) {stray} that the query did not batch")
        missing = sorted(set(self.inputs) - set(tables))
        if missing:
            raise ValueError(f"no table given for batched node(s) {missing}")

        def run(tape: ContractionTape, inputs: tuple[str, ...]) -> np.ndarray:
            if tape.result is not None:
                return tape.result
            return tape.execute([tables[nid] for nid in inputs] + tape.constants)

        norm = None if self.unit_norm else run(self.norm_tape, self.norm_inputs)
        scaled = []
        for vid, w in (self.weights if weights is None else weights).items():
            num = run(self.value_tapes[vid], self.value_inputs[vid])
            scaled.append((np.reshape(w, np.shape(w) + (1,) * len(self.keep)), num))
        shape = np.broadcast_shapes(self.shape, *(() if norm is None else (np.shape(norm),)),
                                    *(np.shape(a) for pair in scaled for a in pair))
        # weigh and sum in batch-innermost arrays: a numerator without a
        # batch axis would otherwise lay its term, and the sum, out batch first
        total = np.moveaxis(np.zeros(shape[1:] + shape[:1]), -1, 0) if self.batched \
            else np.zeros(shape)
        term = np.empty_like(total)
        for w, num in scaled:
            total += np.multiply(w, num, out=term)
        if norm is None:
            return total, None
        with np.errstate(divide="ignore", invalid="ignore"):
            return total / norm, norm

    def evaluate(self, tables: Mapping[str, np.ndarray] | None = None,
                 weights: Mapping[str, float | np.ndarray] | None = None) -> np.ndarray:
        """Expected utility as `expected` gives it, with every cell possible.

        Raises ImpossibleEvidenceError as soon as any cell of the
        conditioning probability table is zero; a silent NaN would hide
        modeling bugs.
        """
        if self.certain:
            return self._ratio(tables, weights)[0]
        eu, possible = self.expected(tables, weights)
        if not possible.all():
            raise ImpossibleEvidenceError(
                f"impossible evidence: {self.reductions!r} has zero probability "
                f"for some combination of {list(self.keep) or 'the query'}")
        return eu


# ---------------------------------------------------------------------------
# public operations (variable-elimination route)
# ---------------------------------------------------------------------------

def marginal_distribution(d: Diagram, policy: Policy, evidence: Evidence,
                          target: str) -> dict[str, float]:
    """Conditional distribution of `target` given evidence, via elimination.

    A target bound by the evidence or by a constant rule keeps a singleton
    axis, so P(evidence) is checked before its point mass is returned.
    """
    node = _checked(d, policy, evidence, target=target)
    m = CompiledModel.compile(d)
    tagged, reductions = m._assemble(policy, evidence, [target], {target, *evidence})
    factors = [f for _, f in tagged]
    table = ContractionTape([f.vars for f in factors], [target], m.elim_priority,
                            m.sizes).execute([f.table for f in factors])
    total = float(table.sum())
    if total <= 0.0:
        raise ImpossibleEvidenceError(f"impossible evidence: {dict(evidence)!r}")
    if target in reductions:
        return {lbl: 1.0 if lbl == reductions[target] else 0.0 for lbl in node.domain.labels}
    return {lbl: float(table[i] / total) for i, lbl in enumerate(node.domain.labels)}


def expected_utility(d: Diagram, agent: str, policy: Policy,
                     evidence: Evidence | None = None) -> float:
    """Agent's conditional expected utility under a full policy."""
    evidence = evidence or {}
    _checked(d, policy, evidence)
    return float(CompiledModel.compile(d).utility_query(agent, policy, evidence, []).evaluate())


def expected_value(d: Diagram, value_node: str, policy: Policy,
                   evidence: Evidence | None = None) -> float:
    """Conditional expectation of a single value node's score."""
    evidence = evidence or {}
    node = _checked(d, policy, evidence, every_decision=False, target=value_node, scored=True)
    return float(CompiledModel.compile(d).utility_query(
        node.owner, policy, evidence, [], weights={value_node: 1.0}).evaluate())


@dataclass(frozen=True)
class EuTable:
    """Expected utilities indexed by axis labels, T11/T12-shaped.

    `argmax` flags, per combination of the non-decision ("context") axes,
    every cell attaining the maximum over the requested agent's own
    decision axes — the paper's boldface marking.
    """

    agent: str
    axes: tuple[str, ...]
    labels: Mapping[str, tuple[str, ...]]
    cells: Mapping[tuple[str, ...], float]
    argmax: frozenset[tuple[str, ...]]

    def rows(self) -> Iterable[tuple[tuple[str, ...], float, bool]]:
        for key in itertools.product(*(self.labels[a] for a in self.axes)):
            yield key, self.cells[key], key in self.argmax


def _cell_values(eu: np.ndarray, possible: np.ndarray, axes: Sequence[str],
                 keys: Sequence[tuple[str, ...]], unfixed: Sequence[str]) -> np.ndarray:
    """Each cell's value from [*cell, filling] utilities and their mask: the
    first possible filling's utility, picked, not computed, so its bits are
    the query's. A cell with no possible filling, or whose possible fillings
    spread by more than EU_AGREEMENT_TOL (`_scaled_tol` by the largest of
    them in size), fails: the first failing one in
    key order (`keys`, labels over `axes`) raises. A NaN spread fails no check."""
    values = np.take_along_axis(eu, possible.argmax(-1)[..., None], -1)[..., 0]
    top, bottom = np.where(possible, eu, -np.inf).max(-1), np.where(possible, eu, np.inf).min(-1)
    impossible = ~possible.any(-1)
    spread_tol = _scaled_tol(EU_AGREEMENT_TOL, np.maximum(np.abs(top), np.abs(bottom)))
    failing = (impossible | (top - bottom > spread_tol)).ravel()
    if failing.any():
        first = int(failing.argmax())
        cell = dict(zip(axes, keys[first]))
        if impossible.ravel()[first]:
            raise ImpossibleEvidenceError(
                f"impossible evidence: table cell {cell!r} has zero "
                f"probability under every completion")
        raise AmbiguousCellError(
            f"cell {cell!r} depends on unfixed opponent decision(s) "
            f"{unfixed}; fix them explicitly")
    return values


def decision_table(d: Diagram, agent: str, axes: Sequence[str],
                   fixed: Policy | None = None) -> EuTable:
    """Expected-utility table over decision/chance axes.

    One query keeps the axes and every opponent decision neither in `axes`
    nor in `fixed`: decision axes are free, chance axes are conditioned on,
    and a cell is an index into the result. Along the unfixed opponent
    axes, every filling that keeps the cell possible must yield the same
    utility (within EU_AGREEMENT_TOL, scaled), otherwise the cell is ambiguous; the
    first possible filling gives the cell's value.
    """
    axis_nodes = []
    for i, a in enumerate(axes):
        if a not in d.nodes:
            raise ValueError(f"unknown axis node {a!r}")
        if a in axes[:i]:
            raise ValueError(f"axis {a!r} given twice")
        n = d.nodes[a]
        if n.kind not in (NodeKind.DECISION, NodeKind.CHANCE, NodeKind.DETERMINISTIC):
            raise ValueError(f"axis {a!r} must be a decision or chance node")
        axis_nodes.append(n)
    _checked(d, fixed or {}, {}, every_decision=False)
    labels = {n.id: n.domain.labels for n in axis_nodes}
    decision_axes = [n.id for n in axis_nodes if n.kind == NodeKind.DECISION]
    policy = {dec: rule for dec, rule in (fixed or {}).items() if dec not in decision_axes}
    unfixed = sorted(n.id for n in d.nodes.values()
                     if n.kind == NodeKind.DECISION and n.id not in decision_axes
                     and n.id not in policy)

    query = CompiledModel.compile(d).utility_query(agent, policy, {}, list(axes) + unfixed)
    eu, possible = query.expected()
    lead = possible.shape[:len(axes)]
    keys = list(itertools.product(*(labels[a] for a in axes)))
    values = _cell_values(eu.reshape(lead + (-1,)), possible.reshape(lead + (-1,)),
                          axes, keys, unfixed)

    own = tuple(i for i, a in enumerate(axes)
                if a in decision_axes and d.nodes[a].owner == agent)
    marked = ties(values, values.max(axis=own, keepdims=True))
    return EuTable(agent=agent, axes=tuple(axes), labels=labels,
                   cells=dict(zip(keys, values.ravel().tolist())),
                   argmax=frozenset(k for k, m in zip(keys, marked.ravel()) if m))


# ---------------------------------------------------------------------------
# brute-force reference oracle
# ---------------------------------------------------------------------------

def _iter_joint(d: Diagram, policy: Policy):
    """Yield (assignment, probability) for every positive-probability joint.

    Walks nodes in topological order; chance nodes branch, decisions and
    deterministic nodes are forced. Purposefully naive — this is the
    oracle the elimination engine is checked against.
    """
    order = [nid for nid in topological_order(d)
             if d.nodes[nid].kind not in (NodeKind.VALUE, NodeKind.UTILITY)]

    def walk(i: int, assignment: dict[str, str], prob: float):
        if i == len(order):
            yield dict(assignment), prob
            return
        n = d.nodes[order[i]]
        key = tuple(assignment[p] for p in n.parents)
        if n.kind == NodeKind.CHANCE:
            row = n.payload.rows[key]
            for label, p in zip(n.domain.labels, row):
                if p > 0.0:
                    assignment[n.id] = label
                    yield from walk(i + 1, assignment, prob * p)
                    del assignment[n.id]
        elif n.kind == NodeKind.DETERMINISTIC:
            assignment[n.id] = n.payload.rows[key]
            yield from walk(i + 1, assignment, prob)
            del assignment[n.id]
        else:
            assignment[n.id] = policy[n.id][key]
            yield from walk(i + 1, assignment, prob)
            del assignment[n.id]

    yield from walk(0, {}, 1.0)


def _enumerate(d: Diagram, policy: Policy, evidence: Evidence,
               score: Callable[[Mapping[str, str]], float]) -> float:
    """E[score(assignment) | evidence] over every joint assignment."""
    num = 0.0
    den = 0.0
    for assignment, prob in _iter_joint(d, policy):
        if all(assignment[k] == v for k, v in evidence.items()):
            den += prob
            num += prob * score(assignment)
    if den <= 0.0:
        raise ImpossibleEvidenceError(f"impossible evidence: {dict(evidence)!r}")
    return num / den


def _scorer(d: Diagram, weights: Mapping[str, float]) -> Callable[[Mapping[str, str]], float]:
    """The weighted sum of the value nodes' scores of one joint assignment."""
    values = [(weight, d.nodes[vid]) for vid, weight in weights.items()]
    return lambda a: sum(weight * v.payload.score(tuple(a[p] for p in v.parents),
                                                  [d.nodes[p].domain for p in v.parents])
                         for weight, v in values)


def enumerate_expected_utility(d: Diagram, agent: str, policy: Policy,
                               evidence: Evidence | None = None) -> float:
    """Reference expected utility by exhaustive enumeration."""
    evidence = evidence or {}
    _checked(d, policy, evidence)
    return _enumerate(d, policy, evidence, _scorer(d, d.utility_node_of(agent).payload.weights))


def enumerate_marginal(d: Diagram, policy: Policy, evidence: Evidence,
                       target: str) -> dict[str, float]:
    """Reference conditional marginal by exhaustive enumeration."""
    evidence = evidence or {}
    node = _checked(d, policy, evidence, target=target)
    return {lbl: _enumerate(d, policy, evidence, lambda a: float(a[target] == lbl))
            for lbl in node.domain.labels}


def enumerate_expected_value(d: Diagram, value_node: str, policy: Policy,
                             evidence: Evidence | None = None) -> float:
    """Reference conditional expectation of one value node's score."""
    evidence = evidence or {}
    # the walk needs every decision's rule, where the engine needs only relevant ones
    _checked(d, policy, evidence, target=value_node, scored=True)
    return _enumerate(d, policy, evidence, _scorer(d, {value_node: 1.0}))
