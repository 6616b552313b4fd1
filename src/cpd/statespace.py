"""Explicit-state exploration of the reachable configuration graph.

``explore`` works on the state-vector form of the root (Groote, Ponse &
Usenko, "Linearization in parallel pCRL", JLAP 2001).  It splits the root
term once into its skeleton, the fixed tree of ``Par`` and ``Encap`` nodes
at the top, and a tuple of components, the maximal subterms below it that
are neither.  Steps never change the skeleton: a step of a ``Par`` rebuilds
the ``Par`` around its parties' residuals, and a step of an ``Encap`` keeps
its blocked set.  So a state is a vector of component terms plus the
variable values.  The split is a ``semantics.Skeleton``, the one
implementation of the ``||`` and ``encap`` rules, and ``explore`` keeps
one per run.  A component whose residual is itself a ``Par`` stays one
component; ``Engine.derive`` steps it through a skeleton of its own.  A
root that is not a ``Par`` or ``Encap`` is a single component.

A state's identity is (tuple of the components' canonical ids, tuple of
variable values), plus the written set under ``rho_in_identity``.  The ids
come from the process-wide hash-consing table in ``terms``; ``Par`` and
``Encap`` keys are neither flattened nor sorted, so over a fixed skeleton
this is the identity of the canonical form of the whole term.  Keying by
the vector is the tree compression of Laarman, van de Pol & Weber,
"Parallel recursive state compression for free" (SPIN 2011).

The skeleton keeps a step table per component position.  Its key is the
component term object plus the values of the variables that position's
initial term reads in guards and update expressions; its entry is whether
the component terminates and, for each step, the action's index, the values
written and the residual with its canonical id.  Residuals come from the table, so the
same objects recur and the table hits for every state whose component and
read values repeat.  The skeleton pass combines the entries bottom up with
the ``||`` and ``encap`` rules.  A step carries the positions it changes,
and ``explore`` applies them once per transition to key the target.

A state is stored as its key's ids and values tuples, its component tuple
and its written set, one list of each in discovery order, and is expanded
by index.  Its components are the raw residuals the first step into it
produced, sharing its source's unchanged components, so printed terms and
numbering do not depend on the ids.  Exploration is breadth first with
transitions ordered by (channel, senders, receivers), so state numbering
is stable across runs.

``StateSpace.values`` is where the stages read valuations.
``StateSpace.states`` builds a state's ``Configuration`` when it is read:
the root term with the components that moved put in by ``Skeleton.fill``,
which shares every other subtree with the root term, its valuation, and as
``env.rho`` the written set of the transition that first reached it (the
root's own at the root), one object per distinct set.  The written set only
mediates synchronization inside a single step and is excluded from identity
by default.

``succ`` is the one stored edge relation: ``succ[s]`` is the tuple of
(action index, target) edges out of state s in that order, an index into
``actions``, the distinct actions in the order the skeleton numbered them;
``parents`` names actions the same way.  ``transitions``, with ``Action``s,
and ``predecessors()`` are derived from ``succ`` on each call, in its order.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence

from .errors import BudgetError
from .printer import term_to_str
from .records import Record
from .semantics import Configuration, Engine, Skeleton
from .terms import Action, Declarations, Environment, Valuation, canonical_id

DEFAULT_BUDGET = 1_000_000


class States(Sequence):
    """An explored space's states as ``Configuration``s, each built when it
    is read from the state's components, values and written set."""

    __slots__ = ("skeleton", "alpha", "components", "values", "written")

    def __init__(self, skeleton: Skeleton, alpha: Valuation, components: list[tuple],
                 values: list[tuple[int, ...]], written: list[frozenset[str]]):
        self.skeleton = skeleton
        # the root's valuation, whose variables every state's valuation names
        self.alpha = alpha
        self.components = components
        self.values = values
        self.written = written

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, state):
        if isinstance(state, slice):
            return [self[s] for s in range(len(self))[state]]
        moved = tuple((position, part) for position, (part, first) in
                      enumerate(zip(self.components[state], self.skeleton.components))
                      if part is not first)
        return Configuration(self.skeleton.fill(moved), Environment(
            self.alpha.with_values(self.values[state]), self.written[state]))


class StateSpace(Record):
    declarations: Declarations
    states: Sequence[Configuration]
    # each state's values tuple, over the declared variables in order
    values: list[tuple[int, ...]]
    initial: int
    marked: set[int]
    # breadth-first tree: parents[s] = (predecessor, action index), None at the root
    parents: list[tuple[int, int] | None]
    succ: list[tuple[tuple[int, int], ...]]
    actions: list[Action]

    def __len__(self) -> int:
        return len(self.values)

    @property
    def transitions(self) -> list[tuple[int, Action, int]]:
        """Every edge as (source, action, target): ``succ`` flattened in
        state order."""
        return [(src, self.actions[a], dst)
                for src, edges in enumerate(self.succ) for a, dst in edges]

    def valuation_text(self, state: int, sep: str = ", ") -> str:
        """The state's valuation as rendered ``name=value`` pairs."""
        render = self.declarations.render_value
        return sep.join(f"{v.name}={render(v.name, value)}"
                        for v, value in zip(self.declarations.variables, self.values[state]))

    def trace_to(self, state: int) -> list[Action]:
        """Shortest action trail from the initial state, along the BFS tree."""
        return [self.actions[a] for a in _trail(self.parents, state)]

    def predecessors(self) -> list[list[int]]:
        """Source states of the transitions into each state."""
        pred: list[list[int]] = [[] for _ in self.values]
        for src, edges in enumerate(self.succ):
            for _, dst in edges:
                pred[dst].append(src)
        return pred


def _trail(parents: list[tuple[int, int] | None], state: int) -> list[int]:
    trail: list[int] = []
    cur = state
    while True:
        parent = parents[cur]
        if parent is None:
            break
        cur, a = parent
        trail.append(a)
    trail.reverse()
    return trail


def explore(
    root: Configuration,
    declarations: Declarations,
    budget: int | None = DEFAULT_BUDGET,
    rho_in_identity: bool = False,
) -> StateSpace:
    """Breadth-first closure of the step relation from the root.

    Raises BudgetError rather than truncating when more than ``budget``
    states are reachable; the error says how far the search got."""
    if budget is not None and budget < 1:
        raise ValueError("budget must be at least 1")
    root_alpha = root.env.alpha
    skeleton = Skeleton(root.term, Engine(declarations), root_alpha)
    keys = skeleton.keys

    def order(step: tuple) -> tuple:
        return keys[step[0]]

    # per state, in discovery order: its key's ids and values, its
    # components and the written set of the step that first reached it
    components: list[tuple] = [tuple(skeleton.components)]
    ids = [tuple(map(canonical_id, components[0]))]
    values = [root_alpha.values_tuple]
    written = [root.env.rho]
    interned = {root.env.rho: root.env.rho}
    root_key = (ids[0], values[0])
    if rho_in_identity:
        root_key += (root.env.rho,)
    index = {root_key: 0}
    marked: set[int] = set()
    parents: list[tuple[int, int] | None] = [None]
    succ: list[tuple[tuple[int, int], ...]] = []

    # components grows as states are found, so this is breadth first
    for src, parts in enumerate(components):
        alpha = root_alpha.with_values(values[src])
        terminates, steps = skeleton.derive(parts, alpha)
        if terminates:
            marked.add(src)
        source_ids = ids[src]
        outgoing: list[tuple[int, int]] = []
        for a, writes, changes in sorted(steps, key=order):
            target_values = alpha.assigned(writes)
            target = list(source_ids)
            for position, _, rid in changes:
                target[position] = rid
            target_ids = tuple(target)
            key = (target_ids, target_values)
            if rho_in_identity:
                key += (frozenset(writes),)
            dst = index.get(key)
            if dst is None:
                dst = len(values)
                if budget is not None and dst >= budget:
                    raise BudgetError(budget, dst, dst - src - 1, len(_trail(parents, src)))
                index[key] = dst
                ids.append(target_ids)
                values.append(target_values)
                rho = frozenset(writes)
                written.append(interned.setdefault(rho, rho))
                parents.append((src, a))
                successor = list(parts)
                for position, residual, _ in changes:
                    successor[position] = residual
                components.append(tuple(successor))
            outgoing.append((a, dst))
        # a repeated (action, target) edge is kept once, where first met
        succ.append(tuple(dict.fromkeys(outgoing)))

    return StateSpace(
        declarations=declarations,
        states=States(skeleton, root_alpha, components, values, written),
        values=values,
        initial=0,
        marked=marked,
        parents=parents,
        succ=succ,
        actions=skeleton.actions,
    )


def backward_closure(pred: list[list[int]], seeds: Iterable[int]) -> set[int]:
    """The seeds plus every state with a path into them, where ``pred[s]``
    lists the states with an edge into s."""
    out = set(seeds)
    stack = list(out)
    while stack:
        state = stack.pop()
        for src in pred[state]:
            if src not in out:
                out.add(src)
                stack.append(src)
    return out


def coreachable(ss: StateSpace) -> set[int]:
    """States from which some marked state is reachable."""
    return backward_closure(ss.predecessors(), ss.marked)


def export(ss: StateSpace, format: str) -> str:
    """Render the space as a graphviz digraph or as JSON."""
    if format == "dot":
        lines = ["digraph statespace {", "  rankdir=LR;", "  node [shape=circle];"]
        for i in range(len(ss)):
            shape = ", peripheries=2" if i in ss.marked else ""
            lines.append(f'  s{i} [label="{i}\\n{ss.valuation_text(i, ",")}"{shape}];')
        lines.append("  init [shape=point];")
        lines.append(f"  init -> s{ss.initial};")
        labels = [f"{a.channel.name}!{a.senders}?{a.receivers}" for a in ss.actions]
        for src, edges in enumerate(ss.succ):
            for a, dst in edges:
                lines.append(f'  s{src} -> s{dst} [label="{labels[a]}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if format == "json":
        labels = [{"channel": a.channel.name, "m": a.senders, "n": a.receivers}
                  for a in ss.actions]
        names = [v.name for v in ss.declarations.variables]
        render = ss.declarations.render_value
        doc = {
            "states": [
                {
                    "id": i,
                    "term": term_to_str(conf.term),
                    "alpha": {name: render(name, value)
                              for name, value in zip(names, ss.values[i])},
                    "marked": i in ss.marked,
                }
                for i, conf in enumerate(ss.states)
            ],
            "transitions": [{"src": src, **labels[a], "dst": dst}
                            for src, edges in enumerate(ss.succ) for a, dst in edges],
            "initial": ss.initial,
        }
        return json.dumps(doc, indent=2) + "\n"
    raise ValueError(f"unknown export format {format!r} (expected dot or json)")
