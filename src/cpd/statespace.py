"""Explicit-state exploration of the reachable configuration graph.

A state's identity is the pair (canonical id of its term, tuple of variable
values).  The canonical id comes from the process-wide hash-consing table in
``terms``, which maps a canonical node's type, non-term fields and children's
ids to an integer and builds no canonical term: equal ids mean equal
canonical forms.  The id of a term is cached on the term, and a successor
shares all but its new spine with its source, so keying a successor costs a
few table lookups rather than a walk and a deep hash of the whole term.  The
table lives as long as the process, one CLI call.  The stored states keep
the raw terms the steps produced, so printed terms and numbering do not
depend on the ids.

The written set only mediates synchronization inside a single step and is
excluded from identity by default (``rho_in_identity`` retains it).
Exploration is breadth first with transitions ordered by (channel, senders,
receivers), so state numbering is stable across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from collections import deque
from collections.abc import Iterable

from .errors import BudgetError
from .semantics import Configuration, Engine
from .terms import Action, Declarations, canonical_id, subterms

DEFAULT_BUDGET = 1_000_000


@dataclass
class StateSpace:
    declarations: Declarations
    states: list[Configuration]
    initial: int
    transitions: list[tuple[int, Action, int]]
    marked: set[int]
    # breadth-first tree: parents[s] = (predecessor, action), None at the root
    parents: list[tuple[int, Action] | None]
    succ: list[list[tuple[Action, int]]] = field(repr=False, default_factory=list)

    def __len__(self) -> int:
        return len(self.states)

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
        for src, _, dst in self.transitions:
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
    engine = Engine(declarations)

    def identity(conf: Configuration):
        key = (canonical_id(conf.term), conf.env.alpha.values_tuple)
        return key + (conf.env.rho,) if rho_in_identity else key

    # canonical_id recurses into uncached children: key the root's subterms
    # children first, so that only the new spines that steps build recurse
    for t in reversed(list(subterms(root.term))):
        canonical_id(t)
    states: list[Configuration] = [root]
    index = {identity(root): 0}
    marked: set[int] = set()
    parents: list[tuple[int, Action] | None] = [None]
    succ: list[list[tuple[Action, int]]] = []
    transitions: list[tuple[int, Action, int]] = []

    queue: deque[int] = deque([0])
    while queue:
        src = queue.popleft()
        conf = states[src]
        if engine.terminates(conf):
            marked.add(src)
        outgoing: list[tuple[Action, int]] = []
        seen_here: set[tuple[Action, int]] = set()
        steps = engine.step(conf)
        steps.sort(key=lambda step: step[0].sort_key())
        for action, target in steps:
            key = identity(target)
            dst = index.get(key)
            if dst is None:
                if budget is not None and len(states) >= budget:
                    raise BudgetError(budget, len(states), len(queue),
                                      len(_trail(parents, src)))
                dst = len(states)
                index[key] = dst
                states.append(target)
                parents.append((src, action))
                queue.append(dst)
            edge = (action, dst)
            if edge in seen_here:
                continue
            seen_here.add(edge)
            outgoing.append(edge)
            transitions.append((src, action, dst))
        succ.append(outgoing)

    return StateSpace(
        declarations=declarations,
        states=states,
        initial=0,
        transitions=transitions,
        marked=marked,
        parents=parents,
        succ=succ,
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
