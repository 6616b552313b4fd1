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
    requirement_fails,
    supervised_plant,
)
from cpd.errors import BudgetError, ModelError, SynthesisError
from cpd.printer import actionset_to_str, bool_to_str, update_to_str
from cpd.relations import partial_bisim
from cpd.semantics import Engine, xi_action_set
from cpd.statespace import DEFAULT_BUDGET, StateSpace, backward_closure, explore
from cpd.synthesis import VerificationReport, integrate_supervisor
from cpd.terms import (
    Action,
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
    bool_variables,
    expr_variables,
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
        succ.append(outgoing)
    return StateSpace(
        declarations=declarations,
        states=states,
        initial=0,
        marked=marked,
        parents=parents,
        succ=succ,
    )


@dataclasses.dataclass
class SynthesisSpaceOracle:
    """``analyze_oracle``'s verdicts, with a table of the targets of each
    enabled controllable channel per state."""

    space: StateSpace
    bad: frozenset
    forbidden: frozenset
    iterations: int
    # ctrl_targets[s]: targets of each enabled controllable channel of state s
    ctrl_targets: list

    def allowed(self, state, channel):
        if (state, channel) in self.forbidden:
            return False
        targets = self.ctrl_targets[state].get(channel, [])
        return all(t not in self.bad for t in targets)


def analyze_oracle(spec, budget=DEFAULT_BUDGET):
    """The forbidden-state fixpoint with its own requirement loop, a table of
    controllable targets per state, and predecessor lists read off the
    flattened transitions."""
    ss = explore(renamed_plant(spec), spec.declarations, budget)
    n = len(ss.states)

    bad = set()
    forbidden = set()
    for state in range(n):
        alpha = ss.states[state].env.alpha
        enabled = {a for a, _ in ss.succ[state]}
        for r in spec.requirements:
            if not requirement_fails(r, alpha, enabled.__contains__):
                continue
            if isinstance(r, Invariant) or not r.action.channel.controllable:
                bad.add(state)
            else:
                forbidden.add((state, r.action.channel))

    unc_pred = [[] for _ in range(n)]
    for src, action, dst in ss.transitions:
        if not action.channel.controllable:
            unc_pred[dst].append(src)

    ctrl_targets = []
    for state in range(n):
        table = {}
        for action, dst in ss.succ[state]:
            if action.channel.controllable:
                table.setdefault(action.channel, []).append(dst)
        ctrl_targets.append(table)

    iterations = 0
    while True:
        iterations += 1
        bad = backward_closure(unc_pred, bad)
        pred = [[] for _ in range(n)]
        for src in range(n):
            if src in bad:
                continue
            for action, dst in ss.succ[src]:
                if dst in bad:
                    continue
                channel = action.channel
                if channel.controllable:
                    if (src, channel) in forbidden:
                        continue
                    if any(t in bad for t in ctrl_targets[src][channel]):
                        continue
                pred[dst].append(src)
        coreach = backward_closure(pred, (s for s in ss.marked if s not in bad))
        pruned = [s for s in range(n) if s not in bad and s not in coreach]
        if not pruned:
            break
        bad.update(pruned)

    if ss.initial in bad:
        raise SynthesisError(
            "no supervisor exists: the initial state cannot be kept safe "
            f"({len(bad)} of {n} states are unsafe)"
        )
    return SynthesisSpaceOracle(ss, frozenset(bad), frozenset(forbidden), iterations,
                                ctrl_targets)


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


# ---------------------------------------------------------------------------
# the recursive term walkers the package replaced by its iterative traversal


def xi_rename_oracle(t):
    if isinstance(t, (Deadlock, Termination)):
        return t
    if isinstance(t, Prefix):
        a = t.action
        if a.channel.controllable:
            if a.senders != 0:
                raise ModelError(
                    f"completion renaming needs a plant-form term; "
                    f"found controllable send {a}"
                )
            a = Action(a.channel, 1, a.receivers)
        return Prefix(a, t.update, xi_rename_oracle(t.cont))
    if isinstance(t, Guard):
        return Guard(t.condition, xi_rename_oracle(t.body))
    if isinstance(t, Encap):
        return Encap(xi_action_set(t.blocked), xi_rename_oracle(t.body))
    if isinstance(t, Alt):
        return Alt(xi_rename_oracle(t.left), xi_rename_oracle(t.right))
    if isinstance(t, Seq):
        return Seq(xi_rename_oracle(t.left), xi_rename_oracle(t.right))
    if isinstance(t, Star):
        return Star(xi_rename_oracle(t.body))
    if isinstance(t, Par):
        return Par(xi_rename_oracle(t.left), xi_rename_oracle(t.right))
    raise TypeError(f"not a process term: {t!r}")


# term levels, loosest first
_PAR, _ALT, _GUARD, _SEQ, _TATOM = range(5)


def term_to_str_oracle(t, level=_PAR):
    """Top-down printer: each call is told how tightly its context binds."""
    if isinstance(t, Deadlock):
        return "0"
    if isinstance(t, Termination):
        return "1"
    if isinstance(t, Prefix):
        head = t.action.format()
        if len(t.update):
            head += update_to_str(t.update)
        text = f"{head}.{term_to_str_oracle(t.cont, _SEQ)}"
        return f"({text})" if _SEQ < level else text
    if isinstance(t, Guard):
        text = f"{bool_to_str(t.condition)} -> {term_to_str_oracle(t.body, _GUARD)}"
        return f"({text})" if _GUARD < level else text
    if isinstance(t, Encap):
        return f"encap {actionset_to_str(t.blocked)} ({term_to_str_oracle(t.body)})"
    if isinstance(t, Alt):
        text = f"{term_to_str_oracle(t.left, _ALT)} + {term_to_str_oracle(t.right, _ALT + 1)}"
        return f"({text})" if _ALT < level else text
    if isinstance(t, Seq):
        text = f"{term_to_str_oracle(t.left, _TATOM)}.{term_to_str_oracle(t.right, _SEQ)}"
        return f"({text})" if _SEQ < level else text
    if isinstance(t, Star):
        return f"{term_to_str_oracle(t.body, _TATOM + 1)}*"
    if isinstance(t, Par):
        text = f"{term_to_str_oracle(t.left, _PAR)} || {term_to_str_oracle(t.right, _PAR + 1)}"
        return f"({text})" if _PAR < level else text
    raise TypeError(f"not a process term: {t!r}")


def plant_violations_oracle(t):
    out = []

    def walk(s):
        if isinstance(s, Prefix):
            a = s.action
            if a.channel.controllable and a.senders != 0:
                out.append(f"controllable prefix must be a receive: {a}")
            walk(s.cont)
        elif isinstance(s, (Guard, Encap, Star)):
            walk(s.body)
        elif isinstance(s, (Alt, Seq, Par)):
            walk(s.left)
            walk(s.right)

    walk(t)
    return out


def supervisor_violations_oracle(t):
    out = []

    def walk(s):
        if isinstance(s, Termination):
            return
        if isinstance(s, Prefix):
            a = s.action
            if not (a.channel.controllable and a.senders == 1 and a.receivers == 0):
                out.append(f"supervisor prefix must be a controllable send: {a}")
            if len(s.update):
                out.append(f"supervisor prefix must not update variables: {a}")
            walk(s.cont)
            return
        if isinstance(s, (Guard, Star)):
            walk(s.body)
            return
        if isinstance(s, Alt):
            walk(s.left)
            walk(s.right)
            return
        if isinstance(s, Deadlock):
            out.append("supervisor must not contain deadlock")
            return
        if isinstance(s, Encap):
            out.append("supervisor must not contain encapsulation")
            walk(s.body)
            return
        if isinstance(s, Seq):
            out.append("supervisor must not contain sequential composition")
            walk(s.left)
            walk(s.right)
            return
        if isinstance(s, Par):
            out.append("supervisor must not contain parallel composition")
            walk(s.left)
            walk(s.right)
            return
        raise TypeError(f"not a process term: {s!r}")

    walk(t)
    return out


def free_variables_oracle(t):
    if isinstance(t, (Deadlock, Termination)):
        return frozenset()
    if isinstance(t, Prefix):
        out = t.update.domain() | free_variables_oracle(t.cont)
        for _, expr in t.update:
            out |= expr_variables(expr)
        return out
    if isinstance(t, Guard):
        return bool_variables(t.condition) | free_variables_oracle(t.body)
    if isinstance(t, (Encap, Star)):
        return free_variables_oracle(t.body)
    if isinstance(t, (Alt, Seq, Par)):
        return free_variables_oracle(t.left) | free_variables_oracle(t.right)
    raise TypeError(f"not a process term: {t!r}")
