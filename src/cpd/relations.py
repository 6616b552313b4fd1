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
action, made when the action gets its index.  A state's table is built the
first time the product BFS reaches the state, so a plant much larger than
the supervised space it is compared with is only read where the product
goes.  The same edge pass counts the state's B-actions and records whether
its targets include unmarked states, marked states, or both.

The BFS numbers each pair in discovery order and stores no predecessor
lists.  It keeps a partner set per left state: the right states already
paired with it.  For a common action, a left target whose partners cover
the right targets adds nothing and is skipped with one ``issuperset`` call;
otherwise the right targets are walked in edge order and only the missing
pairs are added.  Pairs are thus discovered in the order that building and
looking up every (left target, right target) pair would give, but a left
target with nothing new costs one call instead of a look-up per right
target.  When a pair is removed, its parents are found on demand: the
discovered pairs with an edge on a common action into it.  Only those alive
and not yet scheduled are sorted by discovery number.  The reverse tables
this reads are built once, from the forward tables, at the first removal.

Only a pair whose verdict can change is checked (Henzinger, Henzinger and
Kopke, "Computing simulations on finite and infinite graphs", FOCS 1995).
Expanding pair (i, j), the BFS marks it clean when its first check must
pass: every action of i has targets at j, every B-action of j has targets
at i (i's actions are then a subset of j's, so equal B-action counts
suffice), and the targets of i and of j are all unmarked or all marked, or
i has none.  A pair whose states differ in marking is removed before the
fixpoint starts, so the mark is not part of the rule.  Every child of a
clean pair is discovered while it is expanded and none fails termination,
so each clause finds a live partner until a child is removed.  The fixpoint
skips clean pairs, and a removal takes its parents out of the clean set
before it schedules them.

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


def _tables(ss: StateSpace, action_ids: dict[Action, int], in_b: list[bool],
            pred: Callable[[Action], bool]):
    """The per-state tables of ``ss`` built so far, each built state's facts,
    and the function that returns a state's ``{action index: [targets]}``
    table, building it in edge order on first use.  A new action gets the
    next index in ``action_ids`` and its one predicate call in ``in_b``.  A
    state's facts are one int: four times its number of B-actions plus a
    mask of its targets' marks, 1 for some unmarked target and 2 for some
    marked one."""
    succ = ss.succ
    marked = ss.marked
    built: dict[int, dict[int, list[int]]] = {}
    facts: dict[int, int] = {}
    # an explored space holds one object per distinct action, and hashing an
    # Action runs Python code, so edges look their index up by object id
    by_id: dict[int, int] = {}

    def table(state: int) -> dict[int, list[int]]:
        out = built.get(state)
        if out is None:
            out = built[state] = {}
            mask = 0
            for action, dst in succ[state]:
                a = by_id.get(id(action))
                if a is None:
                    a = action_ids.get(action)
                    if a is None:
                        a = action_ids[action] = len(in_b)
                        in_b.append(pred(action))
                    by_id[id(action)] = a
                targets = out.get(a)
                if targets is None:
                    out[a] = [dst]
                else:
                    targets.append(dst)
                mask |= 2 if dst in marked else 1
            facts[state] = sum(map(in_b.__getitem__, out)) << 2 | mask
        return out

    return built, facts, table


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
    in_b: list[bool] = []
    lbuilt, lfacts, ltable_of = _tables(left, action_ids, in_b, pred)
    rbuilt, rfacts, rtable_of = _tables(right, action_ids, in_b, pred)

    # product BFS; a pair's discovery index is its position in order, and
    # reach[li] holds the right states already paired with left state li.
    # proved lists the pairs whose first check must pass (module docstring)
    root = (left.initial, right.initial)
    index: dict[tuple[int, int], int] = {root: 0}
    order = [root]
    reach: dict[int, set[int]] = {root[0]: {root[1]}}
    proved: list[tuple[int, int]] = []
    for pair in order:
        i, j = pair
        rtable = rtable_of(j)
        covered = True
        for a, ltargets in ltable_of(i).items():
            rtargets = rtable.get(a)
            if rtargets is None:
                covered = False
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
        # all of i's actions are j's, so equal B-action counts make j's
        # B-actions i's; mask 0 (no edges) leaves no child to fail clause 1
        if covered:
            lfact = lfacts[i]
            rfact = rfacts[j]
            if lfact >> 2 == rfact >> 2 and (not lfact & 3 or (lfact | rfact) & 3 != 3):
                proved.append(pair)
    del reach  # the fixpoint does not read it; freeing it lowers the peak
    actions = list(action_ids)

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
    # made once set(order) is freed, the clean set does not raise the peak;
    # made from a dict, its table is half the size adding pairs would give
    clean = set(dict.fromkeys(proved))
    del proved, order  # the fixpoint reads neither

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

    def parents(pair) -> set[tuple[int, int]]:
        """Discovered pairs with a common-action edge into the pair: the
        pairs the BFS met as its parents."""
        if not reverse:
            reverse.extend((_reverse(lbuilt), _reverse(rbuilt)))
        lin = reverse[0].get(pair[0], {})
        rin = reverse[1].get(pair[1], {})
        found: set[tuple[int, int]] = set()
        for a, lsrc in lin.items():
            rsrc = rin.get(a)
            if rsrc is not None:
                found.update(filter(index.__contains__, product(lsrc, rsrc)))
        return found

    # the counterexample is the chain of reasons from the root, each naming a
    # pair removed before it, so the fixpoint can stop once the root is out
    worklist = deque(alive)
    scheduled = set(alive)  # a copy's table is sized like the clean set's
    while root in alive and worklist:
        pair = worklist.popleft()
        scheduled.discard(pair)
        if pair not in alive or pair in clean:
            continue
        why = violation(pair)
        if why is None:
            continue
        alive.discard(pair)
        remove(pair, why)
        found = parents(pair)
        if clean:
            clean -= found
        # the alive ones not yet scheduled, in discovery order, the order the
        # BFS met them in
        fresh = [p for p in found if p in alive and p not in scheduled]
        fresh.sort(key=index.__getitem__)
        worklist.extend(fresh)
        scheduled.update(fresh)

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
