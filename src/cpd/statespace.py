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
the component terminates and, for each step, the action, the values
written and the residual with its canonical id.  Residuals come from the table, so the
same objects recur and the table hits for every state whose component and
read values repeat.  The skeleton pass combines the entries bottom up with
the ``||`` and ``encap`` rules.  A step carries the positions it changes,
and ``explore`` applies them once per transition to key the target.

A stored state's term is the raw term the first step into it produced, so
printed terms and numbering do not depend on the ids.  It is built when the
state is expanded: the path from the root to each changed component is
rebuilt around the residuals, and every other subtree is shared with the
source state's term.  The written set only mediates synchronization inside
a single step and is excluded from identity by default.  A stored state's
``env.rho`` is the written set of the transition that first reached it.
Exploration is breadth first with transitions ordered by (channel, senders,
receivers), so state numbering is stable across runs.

``succ`` is the one stored edge relation: ``succ[s]`` lists the (action,
target) edges out of state s in that order.  ``transitions`` and
``predecessors()`` are derived from it on each call; ``transitions`` is the
flattening of ``succ`` in state order.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Iterable

from .errors import BudgetError
from .records import Record
from .semantics import Configuration, Engine, Skeleton
from .terms import Action, Declarations, Environment, canonical_id

DEFAULT_BUDGET = 1_000_000


class StateSpace(Record):
    declarations: Declarations
    states: list[Configuration]
    initial: int
    marked: set[int]
    # breadth-first tree: parents[s] = (predecessor, action), None at the root
    parents: list[tuple[int, Action] | None]
    succ: list[list[tuple[Action, int]]]

    def __len__(self) -> int:
        return len(self.states)

    @property
    def transitions(self) -> list[tuple[int, Action, int]]:
        """Every edge as (source, action, target): ``succ`` flattened in
        state order."""
        return [(src, action, dst)
                for src, edges in enumerate(self.succ) for action, dst in edges]

    def valuation_text(self, state: int, sep: str = ", ") -> str:
        """The state's valuation as rendered ``name=value`` pairs."""
        alpha = self.states[state].env.alpha
        return sep.join(f"{n}={self.declarations.render_value(n, v)}" for n, v in alpha.items())

    def trace_to(self, state: int) -> list[Action]:
        """Shortest action trail from the initial state, along the BFS tree."""
        return _trail(self.parents, state)

    def predecessors(self) -> list[list[int]]:
        """Source states of the transitions into each state."""
        pred: list[list[int]] = [[] for _ in self.states]
        for src, edges in enumerate(self.succ):
            for _, dst in edges:
                pred[dst].append(src)
        return pred


def _trail(parents: list[tuple[int, Action] | None], state: int) -> list[Action]:
    trail: list[Action] = []
    cur = state
    while True:
        parent = parents[cur]
        if parent is None:
            break
        cur, action = parent[0], parent[1]
        trail.append(action)
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
    skeleton = Skeleton(root.term, Engine(declarations), root.env.alpha)
    components = tuple(skeleton.components)
    ids = tuple(map(canonical_id, components))
    root_key = (ids, root.env.alpha.values_tuple)
    if rho_in_identity:
        root_key += (root.env.rho,)
    states: list[Configuration | None] = [root]
    index = {root_key: 0}
    marked: set[int] = set()
    parents: list[tuple[int, Action] | None] = [None]
    succ: list[list[tuple[Action, int]]] = []

    # a found state's components and their ids, and, until it is expanded and
    # its term built, the state it was found from, that step's changes and
    # its environment
    queue: deque[tuple] = deque([(0, components, ids, None, None, None)])
    while queue:
        src, components, ids, origin, changes, env = queue.popleft()
        if origin is None:
            conf = root
        else:
            conf = Configuration(skeleton.rebuild(states[origin].term, changes), env)
            states[src] = conf
        alpha = conf.env.alpha
        terminates, steps = skeleton.derive(components, alpha)
        if terminates:
            marked.add(src)
        outgoing: list[tuple[Action, int]] = []
        # equal actions are one object here, so an edge is told by identity
        seen_here: set[tuple[int, int]] = set()
        for action, writes, changes in sorted(steps, key=_action_order):
            values = alpha.assigned(writes)
            target = list(ids)
            for position, _, rid in changes:
                target[position] = rid
            target_ids = tuple(target)
            key = (target_ids, values)
            if rho_in_identity:
                key += (frozenset(writes),)
            dst = index.get(key)
            if dst is None:
                if budget is not None and len(states) >= budget:
                    raise BudgetError(budget, len(states), len(queue),
                                      len(_trail(parents, src)))
                dst = len(states)
                index[key] = dst
                states.append(None)
                parents.append((src, action))
                parts = list(components)
                for position, residual, _ in changes:
                    parts[position] = residual
                env = Environment(alpha.with_values(values), frozenset(writes))
                queue.append((dst, tuple(parts), target_ids, src, changes, env))
            if (id(action), dst) in seen_here:
                continue
            seen_here.add((id(action), dst))
            outgoing.append((action, dst))
        succ.append(outgoing)

    return StateSpace(
        declarations=declarations,
        states=states,
        initial=0,
        marked=marked,
        parents=parents,
        succ=succ,
    )


def _action_order(step: tuple) -> tuple:
    return step[0].sort_key()


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


def _arity_label(action: Action) -> str:
    return f"{action.channel.name}!{action.senders}?{action.receivers}"


def export(ss: StateSpace, format: str) -> str:
    """Render the space as a graphviz digraph or as JSON."""
    if format == "dot":
        lines = ["digraph statespace {", "  rankdir=LR;", "  node [shape=circle];"]
        for i in range(len(ss.states)):
            shape = ", peripheries=2" if i in ss.marked else ""
            lines.append(f'  s{i} [label="{i}\\n{ss.valuation_text(i, ",")}"{shape}];')
        lines.append("  init [shape=point];")
        lines.append(f"  init -> s{ss.initial};")
        for src, action, dst in ss.transitions:
            lines.append(f'  s{src} -> s{dst} [label="{_arity_label(action)}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if format == "json":
        from .printer import term_to_str

        doc = {
            "states": [
                {
                    "id": i,
                    "term": term_to_str(conf.term),
                    "alpha": {
                        name: ss.declarations.render_value(name, value)
                        for name, value in conf.env.alpha.items()
                    },
                    "marked": i in ss.marked,
                }
                for i, conf in enumerate(ss.states)
            ],
            "transitions": [
                {
                    "src": src,
                    "channel": action.channel.name,
                    "m": action.senders,
                    "n": action.receivers,
                    "dst": dst,
                }
                for src, action, dst in ss.transitions
            ],
            "initial": ss.initial,
        }
        return json.dumps(doc, indent=2) + "\n"
    raise ValueError(f"unknown export format {format!r} (expected dot or json)")
