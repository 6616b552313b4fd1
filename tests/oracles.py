"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written in a different style from the
package: plain dictionaries, repeated full scans, no early exits.  Slow is
fine; these run on tiny inputs.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from collections import deque

from cpd.control import (
    GlobalSatisfaction,
    Violation,
    check_nonblocking,
    renamed_plant,
    supervised_plant,
)
from cpd.errors import BudgetError
from cpd.relations import partial_bisim
from cpd.semantics import Engine
from cpd.statespace import DEFAULT_BUDGET, StateSpace, explore
from cpd.synthesis import VerificationReport, integrate_supervisor
from cpd.terms import (
    Alt,
    And,
    BinOp,
    BoolLit,
    Cmp,
    Deadlock,
    Encap,
    EnumConst,
    EventImplies,
    Guard,
    Imp,
    IntLit,
    Invariant,
    Not,
    Or,
    Par,
    Prefix,
    Seq,
    Star,
    TERMINATION,
    Termination,
    VarRef,
    alt,
)


def eval_data_oracle(alpha, expr) -> int:
    """Recursive evaluator written against Python's own arithmetic."""
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, EnumConst):
        return expr.value
    if isinstance(expr, VarRef):
        return alpha[expr.name]
    if isinstance(expr, BinOp):
        left = eval_data_oracle(alpha, expr.left)
        right = eval_data_oracle(alpha, expr.right)
        return {"+": lambda: left + right,
                "-": lambda: left - right,
                "*": lambda: left * right}[expr.op]()
    raise TypeError(expr)


def eval_bool_oracle(alpha, expr) -> bool:
    if isinstance(expr, BoolLit):
        return expr.value
    if isinstance(expr, Cmp):
        left = eval_data_oracle(alpha, expr.left)
        right = eval_data_oracle(alpha, expr.right)
        return {"=": left == right, "!=": left != right,
                "<": left < right, "<=": left <= right,
                ">": left > right, ">=": left >= right}[expr.op]
    if isinstance(expr, Not):
        return not eval_bool_oracle(alpha, expr.body)
    if isinstance(expr, And):
        return eval_bool_oracle(alpha, expr.left) and eval_bool_oracle(alpha, expr.right)
    if isinstance(expr, Or):
        return eval_bool_oracle(alpha, expr.left) or eval_bool_oracle(alpha, expr.right)
    if isinstance(expr, Imp):
        return (not eval_bool_oracle(alpha, expr.left)) or eval_bool_oracle(alpha, expr.right)
    raise TypeError(expr)


def _tables(ss: StateSpace):
    succ = {s: {} for s in range(len(ss.states))}
    for src, action, dst in ss.transitions:
        succ[src].setdefault(action, set()).add(dst)
    return succ


def _pair_ok(pair, relation, lsucc, rsucc, lmarked, rmarked, in_b) -> bool:
    l, r = pair
    if (l in lmarked) != (r in rmarked):
        return False
    for action, ldsts in lsucc[l].items():
        rdsts = rsucc[r].get(action, set())
        for ld in ldsts:
            if not any((ld, rd) in relation for rd in rdsts):
                return False
    for action, rdsts in rsucc[r].items():
        if not in_b(action):
            continue
        ldsts = lsucc[l].get(action, set())
        for rd in rdsts:
            if not any((ld, rd) in relation for ld in ldsts):
                return False
    return True


def _in_b(bisim_actions):
    if bisim_actions == "all":
        return lambda a: True
    if bisim_actions == "none":
        return lambda a: False
    if bisim_actions == "uncontrollable":
        return lambda a: not a.channel.controllable
    return lambda a: a in bisim_actions


def gfp_partial_bisim(left: StateSpace, right: StateSpace, bisim_actions) -> bool:
    """Greatest-fixpoint over the full product, one full rescan per round."""
    lsucc = _tables(left)
    rsucc = _tables(right)
    in_b = _in_b(bisim_actions)
    relation = {(l, r)
                for l in range(len(left.states))
                for r in range(len(right.states))}
    while True:
        keep = {pair for pair in relation
                if _pair_ok(pair, relation, lsucc, rsucc,
                            left.marked, right.marked, in_b)}
        if keep == relation:
            break
        relation = keep
    return (left.initial, right.initial) in relation


def exhaustive_partial_bisim(left: StateSpace, right: StateSpace, bisim_actions) -> bool:
    """Search every subset of the product for a witnessing relation.

    Only usable when |S_L| * |S_R| is small; the caller guards the size.
    """
    lsucc = _tables(left)
    rsucc = _tables(right)
    in_b = _in_b(bisim_actions)
    pairs = [(l, r)
             for l in range(len(left.states))
             for r in range(len(right.states))]
    root = (left.initial, right.initial)
    for bits in range(1 << len(pairs)):
        relation = {pairs[i] for i in range(len(pairs)) if bits >> i & 1}
        if root not in relation:
            continue
        if all(_pair_ok(p, relation, lsucc, rsucc,
                        left.marked, right.marked, in_b) for p in relation):
            return True
    return False


def coreachable_oracle(ss: StateSpace) -> set[int]:
    """Backward closure by repeated full scans."""
    alive = set(ss.marked)
    while True:
        grown = set(alive)
        for src, _action, dst in ss.transitions:
            if dst in alive:
                grown.add(src)
        if grown == alive:
            return alive
        alive = grown


def shortest_trail_oracle(ss: StateSpace, target: int):
    """Breadth-first shortest action trail from the initial state, or None."""
    frontier = [(ss.initial, [])]
    seen = {ss.initial}
    while frontier:
        nxt = []
        for state, trail in frontier:
            if state == target:
                return trail
            for action, dst in ss.succ[state]:
                if dst not in seen:
                    seen.add(dst)
                    nxt.append((dst, trail + [action]))
        frontier = nxt
    return None


def all_cube_formulas(domains):
    """Every cube over the given domains, for tiny exhaustive checks."""
    subsets = []
    for domain in domains:
        subs = []
        for r in range(1, len(domain) + 1):
            subs.extend(itertools.combinations(domain, r))
        subsets.append(subs)
    return itertools.product(*subsets)


def _compare(x, y) -> int:
    """A total order on terms, for sorting summands: the class name, then the
    fields in declaration order, with sets compared sorted.  Independent of
    the ids the package orders summands by."""
    if type(x) is not type(y):
        a, b = type(x).__name__, type(y).__name__
        return (a > b) - (a < b)
    if dataclasses.is_dataclass(x):
        x = [getattr(x, f.name) for f in dataclasses.fields(x)]
        y = [getattr(y, f.name) for f in dataclasses.fields(y)]
    elif isinstance(x, frozenset):
        x, y = sorted(x, key=_ORDER), sorted(y, key=_ORDER)
    elif not isinstance(x, tuple):
        return (x > y) - (x < y)
    for a, b in zip(x, y):
        c = _compare(a, b)
        if c:
            return c
    return (len(x) > len(y)) - (len(x) < len(y))


_ORDER = functools.cmp_to_key(_compare)


def canonical_oracle(t):
    """Recursive normalization without sharing: flatten nested Alt/Seq
    associatively, deduplicate Alt summands and sort them by ``_compare``,
    collapse 1.p to p.  A summand whose own form is an Alt stays one summand:
    it is written X.1, so the fold of the summands cannot absorb it.  Rebuilds
    the whole term on every call."""
    if isinstance(t, (Deadlock, Termination)):
        return t
    if isinstance(t, Prefix):
        return Prefix(t.action, t.update, canonical_oracle(t.cont))
    if isinstance(t, Guard):
        return Guard(t.condition, canonical_oracle(t.body))
    if isinstance(t, Encap):
        return Encap(t.blocked, canonical_oracle(t.body))
    if isinstance(t, Star):
        return Star(canonical_oracle(t.body))
    if isinstance(t, Par):
        return Par(canonical_oracle(t.left), canonical_oracle(t.right))
    if isinstance(t, Alt):
        summands = []
        stack = [t.right, t.left]
        while stack:
            s = stack.pop()
            if isinstance(s, Alt):
                stack.append(s.right)
                stack.append(s.left)
            else:
                summands.append(canonical_oracle(s))
        unique = set(summands)
        if len(unique) == 1:
            return unique.pop()
        marked = [Seq(c, TERMINATION) if isinstance(c, Alt) else c for c in unique]
        return alt(*sorted(marked, key=_ORDER))
    if isinstance(t, Seq):
        parts = []
        stack = [t.right, t.left]
        while stack:
            s = stack.pop()
            if isinstance(s, Seq):
                stack.append(s.right)
                stack.append(s.left)
            else:
                c = canonical_oracle(s)
                if not isinstance(c, Termination):
                    parts.append(c)
        if not parts:
            return TERMINATION
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = Seq(p, out)
        return out
    raise TypeError(f"not a process term: {t!r}")


def explore_oracle(root, declarations, budget=DEFAULT_BUDGET, rho_in_identity=False):
    """Breadth-first exploration keyed by the whole canonical term (deep
    equality and hashing) plus the valuation object."""
    engine = Engine(declarations)

    def identity(conf):
        key = (canonical_oracle(conf.term), conf.env.alpha)
        return key + (conf.env.rho,) if rho_in_identity else key

    states = [root]
    index = {identity(root): 0}
    marked = set()
    parents = [None]
    succ = []
    transitions = []
    queue = deque([0])
    while queue:
        src = queue.popleft()
        conf = states[src]
        if engine.terminates(conf):
            marked.add(src)
        outgoing = []
        seen_here = set()
        steps = engine.step(conf)
        steps.sort(key=lambda step: step[0].sort_key())
        for action, target in steps:
            key = identity(target)
            dst = index.get(key)
            if dst is None:
                if budget is not None and len(states) >= budget:
                    raise BudgetError(budget)
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


def satisfies_globally_oracle(ss, rs):
    """Requirement check with its own evaluation of each requirement form:
    an invariant must hold; an event-implies or state-excludes requirement
    fails where its condition excludes its action and the action is
    enabled."""
    violations = []
    for state in range(len(ss.states)):
        alpha = ss.states[state].env.alpha
        enabled = {a for a, _ in ss.succ[state]}
        for r in rs:
            holds = eval_bool_oracle(alpha, r.condition)
            if isinstance(r, Invariant):
                ok = holds
            elif isinstance(r, EventImplies):
                ok = holds or r.action not in enabled
            else:
                ok = (not holds) or r.action not in enabled
            if not ok:
                violations.append(Violation(state, r))
    if not violations:
        return GlobalSatisfaction(True, [], None)
    first = min(violations, key=lambda v: v.state)
    return GlobalSatisfaction(False, violations, shortest_trail_oracle(ss, first.state))


def check_controllability_oracle(spec, budget=DEFAULT_BUDGET):
    """Controllability explored from scratch: both spaces on every call."""
    left = explore(supervised_plant(spec), spec.declarations, budget)
    right = explore(renamed_plant(spec), spec.declarations, budget)
    return partial_bisim(left, right, "uncontrollable")


def verify_synthesis_oracle(spec, sup, budget=DEFAULT_BUDGET):
    """Verification that explores the supervised plant once for the
    requirement and nonblocking checks, then both spaces again inside
    the controllability check, with requirements checked by the oracle."""
    integrated = integrate_supervisor(spec, sup)
    ss = explore(supervised_plant(integrated), spec.declarations, budget)
    return VerificationReport(
        requirements=satisfies_globally_oracle(ss, list(spec.requirements)),
        controllability=check_controllability_oracle(integrated, budget),
        nonblocking=check_nonblocking(ss),
        supervised_states=len(ss.states),
    )
