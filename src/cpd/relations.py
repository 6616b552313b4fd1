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
edge order, and B is an int with one bit per action index, set by one
predicate call per distinct action, made when the action gets its index.
A state's table is built the first time the product reaches the state, so
a plant much larger than the supervised space it is compared with is only
read where the product goes.  The same edge pass gives the state its
signature, one int with a bit per action index of the state.

``_fails`` reads only the signatures of a pair's two states and the B bits.
A pair fails its first check whatever is removed when an action of the left
state has no targets at the right, or a B-action of the right state has
none at the left.  Any other pair passes it unless a child differs in
marking.

The call runs in two stages.  The first, ``_settle``, ignores order.  It
grows one partner set per left state, the right states paired with it,
through a FIFO of left states, a batch of new partners at a time: for each
action of the left state, the right targets of the whole batch are one set
union.  It checks the batch's marks against the left state's with one set
operation, and judges the batch's pairs once per distinct right signature.
If no pair differs in marking and none fails its first check, every pair
passes its first check against the full pair set, so the fixpoint removes
nothing and the relation is every reached pair.  That set does not depend on
the order in which pairs were found, and the call returns it as the witness.

Otherwise, as soon as one pair shows a removal, the second stage,
``_ordered``, takes over with the tables built so far.  Its product BFS
numbers each pair in discovery order and stores no predecessor lists.  It
keeps a partner set per left state.  For a common action, a left target
whose partners cover the right targets adds nothing and is skipped with one
``issuperset`` call; otherwise the right targets are walked in edge order
and only the missing pairs are added.  Pairs are thus discovered in the
order that building and looking up every (left target, right target) pair
would give.  When a pair is removed, its parents are found on demand: the
discovered pairs with an edge on a common action into it.  Only those alive
and not yet scheduled are sorted by discovery number.  The reverse tables
this reads are built once, from the forward tables, at the first removal.

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
from collections.abc import Callable
from itertools import chain, product, repeat

from .records import Frozen, Record
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


class PlayStep(Frozen):
    """One move of a distinguishing play at a pair of states."""

    left: int
    right: int
    clause: int  # 1 termination, 2 forward, 3 backward
    action: Action | None  # None for clause 1


class Counterexample(Record):
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


class RelationResult(Record):
    holds: bool
    witness: frozenset[tuple[int, int]] | None = None
    counterexample: Counterexample | None = None
    # which check produced the counterexample: "forward" for left vs right,
    # "backward" when bisimilar failed on the right-vs-left direction
    direction: str = "forward"


class _Actions:
    """The distinct actions one call meets, in both spaces, numbered in the
    order met.  Bit a of ``in_b`` is set when action a is in B; the
    predicate is called once per action, when the action gets its index."""

    def __init__(self, pred: Callable[[Action], bool]) -> None:
        self.pred = pred
        self.ids: dict[Action, int] = {}
        self.in_b = 0

    def index(self, action: Action) -> int:
        a = self.ids.get(action)
        if a is None:
            a = self.ids[action] = len(self.ids)
            if self.pred(action):
                self.in_b |= 1 << a
        return a


def _fails(lsig: int, rsig: int, in_b: int) -> bool:
    """Whether a pair fails its first check whatever is removed, from its
    left and right state's signatures (``_tables``) and the B bits: an
    action of the left state has no targets at the right, or a B-action of
    the right state has none at the left."""
    # with the left's actions among the right's, lsig ^ rsig holds the
    # right's actions the left lacks
    return bool(lsig & ~rsig or (lsig ^ rsig) & in_b)


def _tables(ss: StateSpace, actions: _Actions):
    """The per-state tables of ``ss`` built so far, each built state's
    signature, and the function that returns a state's ``{action index:
    [targets]}`` table, building it in edge order on first use.  A state's
    signature is one int with bit a set for each of its action indices a."""
    succ = ss.succ
    index = actions.index
    built: dict[int, dict[int, list[int]]] = {}
    sig: dict[int, int] = {}
    # the call's index of each of the space's action indices, once read
    local: list[int | None] = [None] * len(ss.actions)

    def table(state: int) -> dict[int, list[int]]:
        out = built.get(state)
        if out is None:
            out = built[state] = {}
            bits = 0
            for own, dst in succ[state]:
                a = local[own]
                if a is None:
                    a = local[own] = index(ss.actions[own])
                targets = out.get(a)
                if targets is None:
                    out[a] = [dst]
                    bits |= 1 << a
                else:
                    targets.append(dst)
            sig[state] = bits
        return out

    return built, sig, table


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
    actions = _Actions(action_predicate(bisim_actions))
    lside = _tables(left, actions)
    rside = _tables(right, actions)
    witness = _settle(left, right, lside, rside, actions)
    if witness is not None:
        return RelationResult(holds=True, witness=witness)
    return _ordered(left, right, lside, rside, actions)


def _settle(left: StateSpace, right: StateSpace, lside, rside,
            actions: _Actions) -> frozenset[tuple[int, int]] | None:
    """The order-free stage: every product-reachable pair when the fixpoint
    would remove none of them, else None as soon as a pair shows that it
    would (module docstring)."""
    _, lsig, ltable_of = lside
    rbuilt, rsig, rtable_of = rside
    lmarked = left.marked
    rmarked = right.marked
    # {action index: {right state: targets}} over the right tables built here
    by_action: dict[int, dict[int, list[int]]] = {}
    # reach[i] holds the right states paired with left state i, and
    # pending[i] those of them not yet expanded; i is queued iff it is pending
    root_left = left.initial
    reach = {root_left: {right.initial}}
    pending = {root_left: {right.initial}}
    queue = deque([root_left])
    while queue:
        i = queue.popleft()
        batch = pending.pop(i)
        if i in lmarked:
            if not batch <= rmarked:
                return None
        elif not batch.isdisjoint(rmarked):
            return None
        for j in batch.difference(rbuilt):
            for a, targets in rtable_of(j).items():
                per_state = by_action.get(a)
                if per_state is None:
                    by_action[a] = {j: targets}
                else:
                    per_state[j] = targets
        ltable = ltable_of(i)
        ls = lsig[i]
        for rs in set(map(rsig.__getitem__, batch)):
            if _fails(ls, rs, actions.in_b):
                return None
        # no pair fails, so every right state of the batch has i's actions
        for a, ltargets in ltable.items():
            targets = set().union(*map(by_action[a].__getitem__, batch))
            for li in ltargets:
                partners = reach.get(li)
                if partners is None:
                    reach[li] = targets.copy()
                    pending[li] = targets.copy()
                    queue.append(li)
                    continue
                new = targets - partners
                if new:
                    partners |= new
                    waiting = pending.get(li)
                    if waiting is None:
                        pending[li] = new
                        queue.append(li)
                    else:
                        waiting |= new
    return frozenset(chain.from_iterable(map(zip, map(repeat, reach), reach.values())))


def _ordered(left: StateSpace, right: StateSpace, lside, rside,
             actions: _Actions) -> RelationResult:
    """The ordered stage: the product BFS numbers the pairs in discovery
    order, and the fixpoint's removal order, and so the counterexample,
    follows it (module docstring)."""
    lbuilt, _, ltable_of = lside
    rbuilt, _, rtable_of = rside

    # product BFS; a pair's discovery index is its position in order, and
    # reach[li] holds the right states already paired with left state li
    root = (left.initial, right.initial)
    index: dict[tuple[int, int], int] = {root: 0}
    order = [root]
    reach: dict[int, set[int]] = {root[0]: {root[1]}}
    for i, j in order:
        # most tables are built by now; the closures build the rest
        rtable = rbuilt.get(j) or rtable_of(j)
        for a, ltargets in (lbuilt.get(i) or ltable_of(i)).items():
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
    # every table is built, so no action gets an index from here on
    named = list(actions.ids)
    in_b = actions.in_b

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
    del order  # the fixpoint does not read it

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
                    return (2, named[a], cont)
        for a, rtargets in rtable.items():
            if not in_b >> a & 1:
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
                    return (3, named[a], cont)
        return None

    # reverse tables {target: {action index: [sources]}}, left and right,
    # built from the forward tables on the first removal
    reverse: list[dict[int, dict[int, list[int]]]] = []

    def parents(pair) -> set[tuple[int, int]]:
        """The alive, unscheduled pairs with a common-action edge into the
        pair: the parents the BFS met that the worklist must revisit.  Every
        alive pair was discovered."""
        if not reverse:
            reverse.extend((_reverse(lbuilt), _reverse(rbuilt)))
        lin = reverse[0].get(pair[0], {})
        rin = reverse[1].get(pair[1], {})
        return {p for a in lin.keys() & rin.keys() for p in product(lin[a], rin[a])
                if p in alive and p not in scheduled}

    # the counterexample is the chain of reasons from the root, each naming a
    # pair removed before it, so the fixpoint can stop once the root is out
    worklist = deque(alive)
    scheduled = set(alive)  # the pairs in the worklist
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
        # the alive parents not yet scheduled, in discovery order, the order
        # the BFS met them in
        fresh = sorted(parents(pair), key=index.__getitem__)
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
