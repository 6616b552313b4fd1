"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written in a different style from the
package: plain dictionaries, repeated full scans, no early exits.  Slow is
fine; these run on tiny inputs.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import re
from collections import deque, namedtuple

from cpd.control import (
    GlobalSatisfaction,
    Violation,
    check_nonblocking,
    renamed_plant,
    supervised_plant,
)
from cpd.errors import BudgetError, Diagnostic, ModelError, SpecError, SynthesisError
from cpd.printer import actionset_to_str, bool_to_str, update_to_str
from cpd.records import Frozen, Record
from cpd.relations import (
    BisimActions,
    Counterexample,
    PlayStep,
    RelationResult,
    action_predicate,
    partial_bisim,
)
from cpd.semantics import Configuration, xi_action_set
from cpd.statespace import DEFAULT_BUDGET, StateSpace, backward_closure, explore
from cpd.synthesis import (
    _CUBE_LIMIT,
    VerificationReport,
    _render_cubes,
    integrate_supervisor,
)
from cpd.terms import (
    Action,
    Alt,
    And,
    BinOp,
    BoolExpr,
    BoolLit,
    Cmp,
    Deadlock,
    Declarations,
    Encap,
    EnumConst,
    Environment,
    EventImplies,
    FALSE,
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
    TRUE,
    Termination,
    Valuation,
    VarRef,
    alt,
    bool_variables,
    canonical_id,
    eval_bool,
    eval_data,
    expr_variables,
    subterms,
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


def action_succ(ss: StateSpace) -> list[list[tuple[Action, int]]]:
    """``ss.succ`` with each action index replaced by its ``Action``."""
    return [[(ss.actions[a], dst) for a, dst in edges] for edges in ss.succ]


def numbered_space(declarations, states, initial, marked, succ) -> StateSpace:
    """A ``StateSpace`` from edges that carry ``Action``s: each distinct
    action gets an index, in the order first met in ``succ``.  A state given
    as None, in a space of edges only, has values None."""
    index = {}
    edges = [[(index.setdefault(a, len(index)), dst) for a, dst in out] for out in succ]
    return StateSpace(declarations=declarations, states=states,
                      values=[None if c is None else c.env.alpha.values_tuple for c in states],
                      initial=initial, marked=marked, succ=edges, actions=list(index))


def tree_trail(parents, state):
    """The actions on the path from the root to ``state`` in a tree given as
    ``parents[s] = (predecessor, action)``, None at the root."""
    trail = []
    while parents[state] is not None:
        state, action = parents[state]
        trail.append(action)
    return trail[::-1]


def bfs_parents_oracle(ss: StateSpace):
    """Each state reachable from the initial one mapped to the (state,
    action) of the first edge into it that a breadth-first search over
    ``action_succ`` meets, the initial state to None."""
    succ = action_succ(ss)
    parents = {ss.initial: None}
    queue = deque([ss.initial])
    while queue:
        src = queue.popleft()
        for action, dst in succ[src]:
            if dst not in parents:
                parents[dst] = (src, action)
                queue.append(dst)
    return parents


def _succ_by_action(ss: StateSpace) -> list[dict[Action, list[int]]]:
    out: list[dict[Action, list[int]]] = []
    for edges in action_succ(ss):
        table: dict[Action, list[int]] = {}
        for action, dst in edges:
            table.setdefault(action, []).append(dst)
        out.append(table)
    return out


def partial_bisim_oracle(
    left: StateSpace, right: StateSpace, bisim_actions: BisimActions = "all"
) -> RelationResult:
    """Reference ``partial_bisim``: an action table for every state built up
    front and a stored ``preds`` list per product pair.  ``partial_bisim``
    must give the same verdict, witness and counterexample steps."""
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


# ---------------------------------------------------------------------------
# guard minimization

def _project(points: set[tuple], keep: list[int]) -> set[tuple]:
    return {tuple(p[i] for i in keep) for p in points}


def eliminate_variables_oracle(
    declarations: Declarations, on: set[tuple], off: set[tuple]
) -> list[int]:
    """Indices of the variables ``minimize_guard`` keeps, by rescanning
    from the first variable after every drop."""
    keep = list(range(len(declarations.variables)))
    changed = True
    while changed:
        changed = False
        for drop in list(keep):
            trial = [i for i in keep if i != drop]
            if not (_project(on, trial) & _project(off, trial)):
                keep = trial
                changed = True
                break
    return keep


def minimize_guard_oracle(
    declarations: Declarations, on: set[Valuation], off: set[Valuation]
) -> BoolExpr:
    """``minimize_guard`` with ``eliminate_variables_oracle`` choosing the
    kept variables, over a bit table of the kept variables' full space and
    by enumerating every cube of it."""
    if not on:
        return FALSE
    on_pts = {v.values_tuple for v in on}
    off_pts = {v.values_tuple for v in off}
    if on_pts & off_pts:
        raise ValueError("on and off sets overlap")
    if not off_pts:
        return TRUE

    keep = eliminate_variables_oracle(declarations, on_pts, off_pts)
    if not keep:
        return TRUE
    variables = [declarations.variables[i] for i in keep]
    on_proj = sorted(_project(on_pts, keep))
    off_proj = sorted(_project(off_pts, keep))

    domains = [list(v.domain.values()) for v in variables]
    cube_count = 1
    for d in domains:
        cube_count *= (1 << len(d)) - 1

    bit, subset_masks, cube_mask = _cube_tables(domains)
    off_mask = 0
    for p in off_proj:
        off_mask |= 1 << bit[p]
    on_bits = [bit[p] for p in on_proj]

    def cube_cost(cube: tuple[tuple[int, ...], ...]) -> int:
        return sum(1 for vi, sub in enumerate(cube) if len(sub) != len(domains[vi]))

    if cube_count <= _CUBE_LIMIT:
        primes = _exact_primes(domains, subset_masks, off_mask, cube_mask)
    else:
        primes = _expanded_primes(domains, on_proj, off_mask, cube_mask)

    chosen = _exact_cover(primes, on_bits, cube_mask, cube_cost)
    return _render_cubes(variables, domains, chosen)


def exact_primes_oracle(domains, off_points) -> list[tuple[tuple[int, ...], ...]]:
    """Every prime cube, as value tuples, of the points of ``domains`` that
    are not in ``off_points``, by enumerating every cube."""
    bit, subset_masks, cube_mask = _cube_tables(domains)
    off_mask = 0
    for p in off_points:
        off_mask |= 1 << bit[p]
    return _exact_primes(domains, subset_masks, off_mask, cube_mask)


def _cube_tables(domains):
    """Bit position per point of the full space, the mask of every value
    subset per variable, and the mask of a cube of value tuples."""
    # bit position per full-space valuation
    space = list(itertools.product(*domains))
    bit = {p: i for i, p in enumerate(space)}

    # per variable: mask of each value subset
    subset_masks: list[dict[tuple[int, ...], int]] = []
    value_masks: list[dict[int, int]] = []
    for vi, domain in enumerate(domains):
        vmask: dict[int, int] = {v: 0 for v in domain}
        for p, i in bit.items():
            vmask[p[vi]] |= 1 << i
        value_masks.append(vmask)
        table: dict[tuple[int, ...], int] = {}
        for sub in _subsets(domain):
            m = 0
            for v in sub:
                m |= vmask[v]
            table[sub] = m
        subset_masks.append(table)

    def cube_mask(cube: tuple[tuple[int, ...], ...]) -> int:
        m = -1
        for vi, sub in enumerate(cube):
            m &= subset_masks[vi][sub]
        return m

    return bit, subset_masks, cube_mask


def _subsets(domain_values: list[int]) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for r in range(1, len(domain_values) + 1):
        out.extend(itertools.combinations(domain_values, r))
    return out


def _exact_primes(domains, subset_masks, off_mask, cube_mask):
    """All maximal cubes avoiding the off-set, by full enumeration."""
    all_subs = [_subsets(d) for d in domains]
    primes = []
    for cube in itertools.product(*all_subs):
        if cube_mask(cube) & off_mask:
            continue
        prime = True
        for vi, sub in enumerate(cube):
            missing = [v for v in domains[vi] if v not in sub]
            for v in missing:
                enlarged = cube[:vi] + (tuple(sorted(sub + (v,))),) + cube[vi + 1 :]
                if not (cube_mask(enlarged) & off_mask):
                    prime = False
                    break
            if not prime:
                break
        if prime:
            primes.append(cube)
    return primes


def _expanded_primes(domains, on_proj, off_mask, cube_mask):
    """One maximal cube per on-point, grown value by value; sound cover
    source when full enumeration would be too large."""
    primes = []
    seen = set()
    for point in on_proj:
        cube = tuple((v,) for v in point)
        for vi, domain in enumerate(domains):
            sub = cube[vi]
            for v in domain:
                if v in sub:
                    continue
                enlarged = cube[:vi] + (tuple(sorted(sub + (v,))),) + cube[vi + 1 :]
                if not (cube_mask(enlarged) & off_mask):
                    cube = enlarged
                    sub = cube[vi]
        if cube not in seen:
            seen.add(cube)
            primes.append(cube)
    return primes


def _exact_cover(primes, on_bits, cube_mask, cube_cost):
    """Minimum cover of the on-set: fewest cubes, then fewest literals, then
    lexicographically least cube list."""
    if not on_bits:
        return []
    primes = sorted(set(primes), key=lambda c: (cube_cost(c), c))
    masks = [cube_mask(c) for c in primes]
    costs = [cube_cost(c) for c in primes]
    on_all = 0
    for b in on_bits:
        on_all |= 1 << b
    # drop primes not touching the on-set
    useful = [i for i in range(len(primes)) if masks[i] & on_all]
    primes = [primes[i] for i in useful]
    masks = [masks[i] for i in useful]
    costs = [costs[i] for i in useful]

    covers_bit: dict[int, list[int]] = {b: [] for b in on_bits}
    for i, m in enumerate(masks):
        for b in on_bits:
            if m >> b & 1:
                covers_bit[b].append(i)
    for b, cands in covers_bit.items():
        if not cands:
            raise ValueError("on-point not coverable")

    no_cover = (len(primes) + 1, 0, ())
    best: list[tuple[int, int, tuple]] = [no_cover]

    def search(uncovered: int, used: tuple[int, ...], literals: int) -> None:
        if not uncovered:
            key = (len(used), literals, used)
            if key < best[0]:
                best[0] = key
            return
        if len(used) + 1 > best[0][0]:
            return
        # branch on the lowest uncovered on-bit
        b = (uncovered & -uncovered).bit_length() - 1
        for i in covers_bit[b]:
            search(uncovered & ~masks[i], used + (i,), literals + costs[i])

    search(on_all, (), 0)
    if best[0] == no_cover:
        raise ValueError("cover search failed")
    return [primes[i] for i in sorted(best[0][2])]


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
    succ = action_succ(ss)
    frontier = [(ss.initial, [])]
    seen = {ss.initial}
    while frontier:
        nxt = []
        for state, trail in frontier:
            if state == target:
                return trail
            for action, dst in succ[state]:
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
    if isinstance(x, (Frozen, Record)):
        x = [getattr(x, name) for name in x._fields]
        y = [getattr(y, name) for name in y._fields]
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


def terminates_oracle(t, env) -> bool:
    """Termination option of a term, by recursion on its structure."""
    if isinstance(t, Termination):
        return True
    if isinstance(t, (Deadlock, Prefix)):
        return False
    if isinstance(t, Guard):
        return eval_bool(env.alpha, t.condition) and terminates_oracle(t.body, env)
    if isinstance(t, Encap):
        return terminates_oracle(t.body, env)
    if isinstance(t, Alt):
        return terminates_oracle(t.left, env) or terminates_oracle(t.right, env)
    if isinstance(t, Seq):
        return terminates_oracle(t.left, env) and terminates_oracle(t.right, env)
    if isinstance(t, Star):
        return True
    if isinstance(t, Par):
        return terminates_oracle(t.left, env) and terminates_oracle(t.right, env)
    raise TypeError(f"not a process term: {t!r}")


def step_oracle(declarations, t, env):
    """Steps of a term as (action, residual, target environment), by
    recursion on its structure.  Each step builds its target environment;
    synchronizing parties are checked through their written sets."""
    if isinstance(t, (Deadlock, Termination)):
        return []
    if isinstance(t, Prefix):
        new_values = {}
        for name, expr in t.update:
            value = eval_data(env.alpha, expr)
            domain = declarations.var_map[name].domain
            if value not in domain:
                raise ModelError(
                    f"update of '{name}' to {value} leaves domain {domain} "
                    f"on action {t.action}"
                )
            new_values[name] = value
        written = frozenset(name for name, _ in t.update)
        return [(t.action, t.cont, Environment(env.alpha.assign(new_values), written))]
    if isinstance(t, Guard):
        if eval_bool(env.alpha, t.condition):
            return step_oracle(declarations, t.body, env)
        return []
    if isinstance(t, Encap):
        return [
            (action, Encap(t.blocked, residual), new_env)
            for action, residual, new_env in step_oracle(declarations, t.body, env)
            if action not in t.blocked
        ]
    if isinstance(t, Alt):
        return step_oracle(declarations, t.left, env) + step_oracle(declarations, t.right, env)
    if isinstance(t, Seq):
        out = [
            (action, Seq(residual, t.right), new_env)
            for action, residual, new_env in step_oracle(declarations, t.left, env)
        ]
        if terminates_oracle(t.left, env):
            out.extend(step_oracle(declarations, t.right, env))
        return out
    if isinstance(t, Star):
        return [
            (action, Seq(residual, t), new_env)
            for action, residual, new_env in step_oracle(declarations, t.body, env)
        ]
    if isinstance(t, Par):
        left_steps = step_oracle(declarations, t.left, env)
        right_steps = step_oracle(declarations, t.right, env)
        out = [
            (action, Par(residual, t.right), new_env)
            for action, residual, new_env in left_steps
        ]
        out.extend(
            (action, Par(t.left, residual), new_env)
            for action, residual, new_env in right_steps
        )
        for la, lt, le in left_steps:
            for ra, rt, re_ in right_steps:
                if la.channel != ra.channel:
                    continue
                shared = le.rho & re_.rho
                if any(le.alpha[x] != re_.alpha[x] for x in shared):
                    continue
                merged = le.alpha.assign({x: re_.alpha[x] for x in re_.rho - le.rho})
                action = Action(
                    la.channel, la.senders + ra.senders, la.receivers + ra.receivers
                )
                out.append((action, Par(lt, rt), Environment(merged, le.rho | re_.rho)))
        return out
    raise TypeError(f"not a process term: {t!r}")


def explore_oracle(root, declarations, budget=DEFAULT_BUDGET, rho_in_identity=False):
    """Breadth-first exploration keyed by the whole canonical term (deep
    equality and hashing) plus the valuation object, stepping with
    ``step_oracle``.  Returns the space and its breadth-first tree, as
    ``parents[s] = (predecessor, action)``, None at the root."""

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
        if terminates_oracle(conf.term, conf.env):
            marked.add(src)
        outgoing = []
        seen_here = set()
        steps = step_oracle(declarations, conf.term, conf.env)
        steps.sort(key=lambda step: step[0].sort_key())
        for action, term, env in steps:
            target = Configuration(term, env)
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
    return numbered_space(declarations, states, 0, marked, succ), parents


def derive_reference(declarations, t, alpha):
    """``Engine.derive`` as it was before the ``||`` and ``encap`` rules
    moved into ``semantics.Skeleton``: one walk for the termination option
    and the steps ``(action, residual, writes)``, which recurses along
    ``Par`` and ``Encap`` nodes as well."""
    if isinstance(t, Par):
        left_ends, left = derive_reference(declarations, t.left, alpha)
        right_ends, right = derive_reference(declarations, t.right, alpha)
        out = [(action, Par(residual, t.right), writes) for action, residual, writes in left]
        out.extend((action, Par(t.left, residual), writes)
                   for action, residual, writes in right)
        for la, lt, lw in left:
            for ra, rt, rw in right:
                # parties synchronize when they agree on the names both write
                if la.channel != ra.channel or any(
                        rw.get(name, value) != value for name, value in lw.items()):
                    continue
                action = Action(
                    la.channel, la.senders + ra.senders, la.receivers + ra.receivers
                )
                out.append((action, Par(lt, rt), {**lw, **rw}))
        return left_ends and right_ends, out
    if isinstance(t, Encap):
        ends, steps = derive_reference(declarations, t.body, alpha)
        return ends, [(action, Encap(t.blocked, residual), writes)
                      for action, residual, writes in steps if action not in t.blocked]
    if isinstance(t, Prefix):
        writes = {}
        for name, expr in t.update:
            value = eval_data(alpha, expr)
            domain = declarations.var_map[name].domain
            if value not in domain:
                raise ModelError(
                    f"update of '{name}' to {value} leaves domain {domain} "
                    f"on action {t.action}"
                )
            writes[name] = value
        return False, [(t.action, t.cont, writes)]
    if isinstance(t, Guard):
        if eval_bool(alpha, t.condition):
            return derive_reference(declarations, t.body, alpha)
        return False, []
    if isinstance(t, Alt):
        ends = False
        out = []
        stack = [t]
        while stack:
            s = stack.pop()
            if isinstance(s, Alt):
                stack.append(s.right)
                stack.append(s.left)
            else:
                summand_ends, steps = derive_reference(declarations, s, alpha)
                ends = ends or summand_ends
                out.extend(steps)
        return ends, out
    if isinstance(t, Seq):
        out = []
        while isinstance(t, Seq):
            left_ends, steps = derive_reference(declarations, t.left, alpha)
            out.extend((action, Seq(residual, t.right), writes)
                       for action, residual, writes in steps)
            if not left_ends:
                return False, out
            t = t.right
        ends, steps = derive_reference(declarations, t, alpha)
        out.extend(steps)
        return ends, out
    if isinstance(t, Star):
        steps = derive_reference(declarations, t.body, alpha)[1]
        return True, [(action, Seq(residual, t), writes) for action, residual, writes in steps]
    if isinstance(t, Termination):
        return True, []
    if isinstance(t, Deadlock):
        return False, []
    raise TypeError(f"not a process term: {t!r}")


def explore_reference(root, declarations, budget=DEFAULT_BUDGET, rho_in_identity=False):
    """The explorer that the component-vector ``explore`` replaced: each
    state's whole term goes through ``derive_reference``, and a successor is
    keyed by the canonical id of its whole rebuilt term plus its values.
    Returns the space and its breadth-first tree, as ``explore_oracle``."""
    if budget is not None and budget < 1:
        raise ValueError("budget must be at least 1")
    for t in reversed(list(subterms(root.term))):
        canonical_id(t)
    root_key = (canonical_id(root.term), root.env.alpha.values_tuple)
    if rho_in_identity:
        root_key += (root.env.rho,)
    states = [root]
    index = {root_key: 0}
    marked = set()
    parents = [None]
    succ = []
    queue = deque([0])
    while queue:
        src = queue.popleft()
        conf = states[src]
        alpha = conf.env.alpha
        terminates, steps = derive_reference(declarations, conf.term, alpha)
        if terminates:
            marked.add(src)
        outgoing = []
        seen_here = set()
        steps.sort(key=lambda step: step[0].sort_key())
        for action, term, writes in steps:
            values = alpha.assign(writes).values_tuple
            key = (canonical_id(term), values)
            if rho_in_identity:
                key += (frozenset(writes),)
            dst = index.get(key)
            if dst is None:
                if budget is not None and len(states) >= budget:
                    trail = 0
                    cur = src
                    while parents[cur] is not None:
                        cur = parents[cur][0]
                        trail += 1
                    raise BudgetError(budget, len(states), len(queue), trail)
                dst = len(states)
                index[key] = dst
                env = Environment(alpha.with_values(values), frozenset(writes))
                states.append(Configuration(term, env))
                parents.append((src, action))
                queue.append(dst)
            edge = (action, dst)
            if edge in seen_here:
                continue
            seen_here.add(edge)
            outgoing.append(edge)
        succ.append(outgoing)
    return numbered_space(declarations, states, 0, marked, succ), parents


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
    """The forbidden-state fixpoint with the oracle's requirement loop, a table of
    controllable targets per state, and predecessor lists read off the
    flattened transitions."""
    ss = explore(renamed_plant(spec), spec.declarations, budget)
    n = len(ss.states)

    bad = set()
    forbidden = set()
    for state, r in requirement_failures_oracle(ss, spec.requirements):
        if isinstance(r, Invariant) or not r.action.channel.controllable:
            bad.add(state)
        else:
            forbidden.add((state, r.action.channel))

    unc_pred = [[] for _ in range(n)]
    for src, action, dst in ss.transitions:
        if not action.channel.controllable:
            unc_pred[dst].append(src)

    succ = action_succ(ss)
    ctrl_targets = []
    for state in range(n):
        table = {}
        for action, dst in succ[state]:
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
            for action, dst in succ[src]:
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


def requirement_failures_oracle(ss, rs):
    """Every (state, requirement) pair where the requirement fails, by state
    and then in requirement order, with its own evaluation of each
    requirement form at every state's full valuation: an invariant must
    hold; an event-implies or state-excludes requirement fails where its
    condition excludes its action and the action is enabled."""
    failures = []
    succ = action_succ(ss)
    for state in range(len(ss.states)):
        alpha = ss.states[state].env.alpha
        enabled = {a for a, _ in succ[state]}
        for r in rs:
            holds = eval_bool_oracle(alpha, r.condition)
            if isinstance(r, Invariant):
                ok = holds
            elif isinstance(r, EventImplies):
                ok = holds or r.action not in enabled
            else:
                ok = (not holds) or r.action not in enabled
            if not ok:
                failures.append((state, r))
    return failures


def satisfies_globally_oracle(ss, rs):
    """Requirement check over ``requirement_failures_oracle``, with the
    first violation's trail found by its own breadth-first search."""
    violations = [Violation(state, r) for state, r in requirement_failures_oracle(ss, rs)]
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
        out = frozenset(name for name, _ in t.update) | free_variables_oracle(t.cont)
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


# ---------------------------------------------------------------------------
# records against the dataclasses they replaced

# what a class gets from its record base rather than defining itself
_RECORD_MADE = ("__dict__", "__weakref__", "__module__", "__qualname__", "__annotations__",
                "_fields", "__match_args__")


def dataclass_twin(cls):
    """The ``dataclasses.dataclass`` standing for a record class: the same
    name, field annotations and defaults, ``frozen`` for a ``Frozen`` record,
    and every attribute the class defines itself, such as ``__post_init__``,
    an own ``__eq__``, properties and other methods."""
    annotations = {}
    for klass in reversed(cls.__mro__):
        annotations.update(vars(klass).get("__annotations__", {}))
    fields = [
        (name, annotations[name], dataclasses.field(default=getattr(cls, name)))
        if hasattr(cls, name) else (name, annotations[name])
        for name in cls._fields
    ]
    namespace = {
        name: value for name, value in vars(cls).items()
        if name not in _RECORD_MADE and name not in cls._fields
        and getattr(value, "__module__", None) != "cpd.records"
    }
    return dataclasses.make_dataclass(cls.__name__, fields, namespace=namespace,
                                      frozen=issubclass(cls, Frozen))


# ---------------------------------------------------------------------------
# the tokenizer that tracked line and column for every token

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r\n]+)
    | (?P<comment>\#[^\n]*)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<int>[0-9]+)
    | (?P<sym>\|\||:=|\.\.|->|=>|/\\|\\/|<=|>=|!=|[;,:=(){}\[\]+\-*.<>!?])
    """,
    re.VERBOSE,
)

_SUB_RE = re.compile(r"_[0-9]+\Z")

Token = namedtuple("Token", "kind text line column")


def tokenize_oracle(text: str, filename: str = "<spec>") -> list[Token]:
    """Tokens with the line and column counted lexeme by lexeme, and a name
    matched a second time to tell a subscript from a name."""
    tokens: list[Token] = []
    pos = 0
    line = 1
    col = 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SpecError([Diagnostic(filename, line, col, f"unexpected character {text[pos]!r}")])
        lexeme = m.group(0)
        kind = m.lastgroup
        if kind == "name":
            if _SUB_RE.match(lexeme):
                tokens.append(Token("sub", lexeme, line, col))
            else:
                tokens.append(Token("name", lexeme, line, col))
        elif kind == "int":
            tokens.append(Token("int", lexeme, line, col))
        elif kind == "sym":
            tokens.append(Token("sym", lexeme, line, col))
        # ws and comments are skipped
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens
