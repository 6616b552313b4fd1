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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from .statespace import StateSpace
from .terms import Action

BisimActions = Callable[[Action], bool] | frozenset | set | str


def action_predicate(bisim_actions: BisimActions) -> Callable[[Action], bool]:
    """Normalize an action-set argument: a predicate, a collection of
    actions, or one of the shorthands 'all', 'none', 'uncontrollable'.  A
    collection member that is not an ``Action``, such as a channel name,
    raises ``ValueError``."""
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


def _succ_by_action(ss: StateSpace) -> list[dict[Action, list[int]]]:
    out: list[dict[Action, list[int]]] = []
    for edges in ss.succ:
        table: dict[Action, list[int]] = {}
        for action, dst in edges:
            table.setdefault(action, []).append(dst)
        out.append(table)
    return out


def partial_bisim(
    left: StateSpace, right: StateSpace, bisim_actions: BisimActions = "all"
) -> RelationResult:
    """Greatest partial bisimulation over product-reachable pairs; holds iff
    the two initial states are related."""
    in_b = action_predicate(bisim_actions)
    lsucc = _succ_by_action(left)
    rsucc = _succ_by_action(right)

    root = (left.initial, right.initial)
    pairs: set[tuple[int, int]] = {root}
    preds: dict[tuple[int, int], list[tuple[int, int]]] = {root: []}
    queue = deque([root])
    while queue:
        i, j = queue.popleft()
        ltable = lsucc[i]
        rtable = rsucc[j]
        for action, ltargets in ltable.items():
            rtargets = rtable.get(action)
            if rtargets is None:
                continue
            for li in ltargets:
                for rj in rtargets:
                    child = (li, rj)
                    if child not in pairs:
                        pairs.add(child)
                        preds[child] = []
                        queue.append(child)
                    preds[child].append((i, j))

    # clause, action, continuation pair (already removed) or None
    reason: dict[tuple[int, int], tuple[int, Action | None, tuple[int, int] | None]] = {}
    removed_at: dict[tuple[int, int], int] = {}
    alive: set[tuple[int, int]] = set()
    removal_clock = 0

    def remove(pair, why) -> None:
        nonlocal removal_clock
        reason[pair] = why
        removed_at[pair] = removal_clock
        removal_clock += 1

    for pair in pairs:
        i, j = pair
        if (i in left.marked) != (j in right.marked):
            remove(pair, (1, None, None))
        else:
            alive.add(pair)

    def violation(pair):
        """First violated clause at the pair, or None while it is satisfied."""
        i, j = pair
        ltable = lsucc[i]
        rtable = rsucc[j]
        for action, ltargets in ltable.items():
            rtargets = rtable.get(action, ())
            for li in ltargets:
                dead = []
                for rj in rtargets:
                    if (li, rj) in alive:
                        break
                    dead.append((li, rj))
                else:
                    cont = min(dead, key=removed_at.__getitem__) if dead else None
                    return (2, action, cont)
        for action, rtargets in rtable.items():
            if not in_b(action):
                continue
            ltargets = ltable.get(action, ())
            for rj in rtargets:
                dead = []
                for li in ltargets:
                    if (li, rj) in alive:
                        break
                    dead.append((li, rj))
                else:
                    cont = min(dead, key=removed_at.__getitem__) if dead else None
                    return (3, action, cont)
        return None

    worklist = deque(alive)
    scheduled = set(worklist)
    while worklist:
        pair = worklist.popleft()
        scheduled.discard(pair)
        if pair not in alive:
            continue
        why = violation(pair)
        if why is None:
            continue
        alive.discard(pair)
        remove(pair, why)
        for parent in preds[pair]:
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
