"""Partial bisimulation between explored state spaces.

``partial_bisim(left, right, B)`` decides whether the initial states stand in
the partial bisimulation preorder with bisimulation action set B: termination
must agree on related pairs, every left step must be simulated by the right,
and every right step on a B-action must be simulated back by the left.
B = all actions gives bisimulation equivalence of the two roots; B = none gives
plain simulation.

The greatest fixpoint is computed on the product-reachable pairs only.  Any
witness relation intersected with the product-reachable set is still closed
under all three clauses (matching steps keep pairs product-reachable), so the
verdict equals the all-pairs fixpoint while the pair set stays near-linear in
practice.

Each call numbers the distinct actions it meets, in both spaces, and works
on those indices: a state's table maps an action index to its targets in
edge order, and B is a list of booleans with one predicate call per distinct
action.  A state's table is built the first time the product BFS reaches the
state, so a plant much larger than the supervised space it is compared with
is only read where the product goes.

The BFS numbers each pair in discovery order and stores no predecessor
lists.  It keeps a partner set per left state: the right states already
paired with it.  For a common action, a left target whose partners cover
the right targets adds nothing and is skipped with one ``issuperset`` call;
otherwise the right targets are walked in edge order and only the missing
pairs are added.  Pairs are thus discovered in the order that building and
looking up every (left target, right target) pair would give, but a left
target with nothing new costs one call instead of a look-up per right
target.  When a pair is removed, its parents are found on demand: the
discovered pairs with an edge on a common action into it, sorted by
discovery number.  The reverse tables this reads are built once, from the
forward tables, at the first removal.

The removal order is kept exactly, because the counterexample depends on
it.  Pairs are the ``(left, right)`` tuples, and the worklist starts in the
iteration order of the set of all pairs added in discovery order.  A removed
pair schedules its parents in discovery order, which is the order a BFS that
stored each pair's predecessors would list them in.  The fixpoint stops
when the root is removed: the counterexample is the chain of removal
reasons from the root, each naming a pair removed before it, so later
removals cannot change it, and a failing result carries no witness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import Callable

from .statespace import StateSpace
from .terms import Action

BisimActions = Callable[[Action], bool] | frozenset | set | str


def action_predicate(bisim_actions: BisimActions) -> Callable[[Action], bool]:
    """Normalize an action-set argument: a predicate, a collection of
    actions, or one of the shorthands 'all', 'none', 'uncontrollable'.  A
    collection member that is not an ``Action``, such as a channel name,
    raises ``ValueError``.  ``partial_bisim`` calls the predicate once per
    distinct action of the two spaces' reached states, not once per edge."""
    if callable(bisim_actions):
        return bisim_actions
    if isinstance(bisim_actions, str):
        if bisim_actions == "all":
            return lambda a: True
        if bisim_actions == "none":
            return lambda a: False
        if bisim_actions == "uncontrollable":
            return lambda a: not a.channel.controllable
        raise ValueError(
            f"unknown action set {bisim_actions!r} (expected all, none, or uncontrollable)"
        )
    members = tuple(bisim_actions)
    for member in members:
        if not isinstance(member, Action):
            raise ValueError(f"action set member {member!r} is not an action")
    actions = frozenset(members)
    return lambda a: a in actions


@dataclass(frozen=True)
class PlayStep:
    """One move of a distinguishing play at a pair of states."""

    left: int
    right: int
    clause: int  # 1 termination, 2 forward, 3 backward
    action: Action | None  # None for clause 1


@dataclass
class Counterexample:
    steps: tuple[PlayStep, ...]

    def trail(self) -> list[Action]:
        return [s.action for s in self.steps if s.action is not None]

    def render(self, left: StateSpace, right: StateSpace) -> str:
        lines = []
        last = len(self.steps) - 1
        for i, step in enumerate(self.steps):
            place = f"at pair (left {step.left}, right {step.right})"
            if step.clause == 1:
                lm = "marked" if step.left in left.marked else "unmarked"
                rm = "marked" if step.right in right.marked else "unmarked"
                lines.append(f"{place}: termination differs (left {lm}, right {rm})")
            elif step.clause == 2:
                if i == last:
                    lines.append(
                        f"{place}: left moves {step.action} but the right has no matching move"
                    )
                else:
                    lines.append(
                        f"{place}: left moves {step.action}; every matching right move fails later"
                    )
            else:
                if i == last:
                    lines.append(
                        f"{place}: right moves {step.action} but the left has no matching move back"
                    )
                else:
                    lines.append(
                        f"{place}: right moves {step.action}; every matching left move fails later"
                    )
        return "\n".join(lines)


@dataclass
class RelationResult:
    holds: bool
    witness: frozenset[tuple[int, int]] | None = None
    counterexample: Counterexample | None = None
    # which check produced the counterexample: "forward" for left vs right,
    # "backward" when bisimilar failed on the right-vs-left direction
    direction: str = "forward"


def _tables(ss: StateSpace, action_ids: dict[Action, int]):
    """The per-state tables of ``ss`` built so far, and the function that
    returns a state's ``{action index: [targets]}`` table, building it in
    edge order on first use.  A new action gets the next index in
    ``action_ids``."""
    succ = ss.succ
    built: dict[int, dict[int, list[int]]] = {}

    def table(state: int) -> dict[int, list[int]]:
        out = built.get(state)
        if out is None:
            out = built[state] = {}
            for action, dst in succ[state]:
                a = action_ids.setdefault(action, len(action_ids))
                targets = out.get(a)
                if targets is None:
                    out[a] = [dst]
                else:
                    targets.append(dst)
        return out

    return built, table


def _reverse(built: dict[int, dict[int, list[int]]]) -> dict[int, dict[int, list[int]]]:
    """``{target: {action index: [sources]}}`` over the built tables."""
    rev: dict[int, dict[int, list[int]]] = {}
    for src, table in built.items():
        for a, targets in table.items():
            for dst in targets:
                rev.setdefault(dst, {}).setdefault(a, []).append(src)
    return rev


def partial_bisim(
    left: StateSpace, right: StateSpace, bisim_actions: BisimActions = "all"
) -> RelationResult:
    """Greatest partial bisimulation over product-reachable pairs; holds iff
    the two initial states are related.  The action-set predicate is called
    once per distinct action of the states the product reaches, not once per
    edge."""
    pred = action_predicate(bisim_actions)
    action_ids: dict[Action, int] = {}
    lbuilt, ltable_of = _tables(left, action_ids)
    rbuilt, rtable_of = _tables(right, action_ids)

    # product BFS; a pair's discovery index is its position in order, and
    # reach[li] holds the right states already paired with left state li
    root = (left.initial, right.initial)
    index: dict[tuple[int, int], int] = {root: 0}
    order = [root]
    reach: dict[int, set[int]] = {root[0]: {root[1]}}
    for i, j in order:
        rtable = rtable_of(j)
        for a, ltargets in ltable_of(i).items():
            rtargets = rtable.get(a)
            if rtargets is None:
                continue
            for li in ltargets:
                partners = reach.get(li)
                if partners is None:
                    partners = reach[li] = set()
                elif partners.issuperset(rtargets):
                    continue
                for rj in rtargets:
                    if rj not in partners:
                        partners.add(rj)
                        child = (li, rj)
                        index[child] = len(order)
                        order.append(child)
    del reach  # the fixpoint does not read it; freeing it lowers the peak
    actions = list(action_ids)
    in_b = [pred(action) for action in actions]

    # clause, action, continuation pair (already removed) or None
    reason: dict[tuple[int, int], tuple[int, Action | None, tuple[int, int] | None]] = {}
    removed_at: dict[tuple[int, int], int] = {}
    alive: set[tuple[int, int]] = set()

    def remove(pair, why) -> None:
        reason[pair] = why
        removed_at[pair] = len(removed_at)

    # the worklist starts in this set's iteration order, which the
    # counterexample depends on: set(order) adds the pairs one by one
    for pair in set(order):
        i, j = pair
        if (i in left.marked) != (j in right.marked):
            remove(pair, (1, None, None))
        else:
            alive.add(pair)

    def violation(pair):
        """First violated clause at the pair, or None while it is satisfied."""
        i, j = pair
        ltable = lbuilt[i]
        rtable = rbuilt[j]
        for a, ltargets in ltable.items():
            rtargets = rtable.get(a, ())
            for li in ltargets:
                dead = []
                for rj in rtargets:
                    if (li, rj) in alive:
                        break
                    dead.append((li, rj))
                else:
                    cont = min(dead, key=removed_at.__getitem__) if dead else None
                    return (2, actions[a], cont)
        for a, rtargets in rtable.items():
            if not in_b[a]:
                continue
            ltargets = ltable.get(a, ())
            for rj in rtargets:
                dead = []
                for li in ltargets:
                    if (li, rj) in alive:
                        break
                    dead.append((li, rj))
                else:
                    cont = min(dead, key=removed_at.__getitem__) if dead else None
                    return (3, actions[a], cont)
        return None

    # reverse tables {target: {action index: [sources]}}, left and right,
    # built from the forward tables on the first removal
    reverse: list[dict[int, dict[int, list[int]]]] = []

    def parents(pair) -> list[tuple[int, int]]:
        """Discovered pairs with a common-action edge into the pair, in
        discovery order: the order the BFS met them as parents."""
        if not reverse:
            reverse.extend((_reverse(lbuilt), _reverse(rbuilt)))
        lin = reverse[0].get(pair[0], {})
        rin = reverse[1].get(pair[1], {})
        found: set[tuple[int, int]] = set()
        for a, lsrc in lin.items():
            rsrc = rin.get(a)
            if rsrc is not None:
                found.update(filter(index.__contains__, product(lsrc, rsrc)))
        return sorted(found, key=index.__getitem__)

    # the counterexample is the chain of reasons from the root, each naming a
    # pair removed before it, so the fixpoint can stop once the root is out
    worklist = deque(alive)
    scheduled = set(worklist)
    while root in alive and worklist:
        pair = worklist.popleft()
        scheduled.discard(pair)
        if pair not in alive:
            continue
        why = violation(pair)
        if why is None:
            continue
        alive.discard(pair)
        remove(pair, why)
        for parent in parents(pair):
            if parent in alive and parent not in scheduled:
                worklist.append(parent)
                scheduled.add(parent)

    if root in alive:
        return RelationResult(holds=True, witness=frozenset(alive))

    steps: list[PlayStep] = []
    cursor: tuple[int, int] | None = root
    while cursor is not None:
        clause, action, nxt = reason[cursor]
        steps.append(PlayStep(cursor[0], cursor[1], clause, action))
        cursor = nxt
    return RelationResult(holds=False, counterexample=Counterexample(tuple(steps)))


def simulated_by(left: StateSpace, right: StateSpace) -> RelationResult:
    """Plain simulation: the backward clause ranges over no actions."""
    return partial_bisim(left, right, "none")


def bisimilar(left: StateSpace, right: StateSpace) -> RelationResult:
    """Bisimulation equivalence of the initial states: the full-action-set
    preorder checked in both directions."""
    forward = partial_bisim(left, right, "all")
    if not forward.holds:
        return forward
    backward = partial_bisim(right, left, "all")
    if not backward.holds:
        backward.direction = "backward"
        return backward
    return forward
