"""Supervisor synthesis: forbidden-state fixpoint plus guard extraction.

The plant is explored under the completion renaming (every controllable
receive closed into a completed communication).  Invariant violations seed
the BAD set, exclusion requirements forbid (state, controllable channel)
pairs, and the fixpoint alternates uncontrollable backward closure with
coreachability pruning inside the remaining GOOD states.  Guards are then
read off per controllable channel as functions of the valuation and
minimized against the off-set, with everything else a don't-care.  A cube
is one int with a bit field per kept variable, and the prime cubes come
from splitting the full cube around each off-point in turn.  The
minimization is exact up to ``_CUBE_LIMIT`` cubes in the kept variables'
space; above it the guard is a sound cover that need not be the smallest.
"""

from __future__ import annotations

import math
from collections.abc import Container

from .errors import ObserverError, SynthesisError
from .parser import SystemSpec
from .printer import bool_to_str
from .records import Record
from .control import (
    GlobalSatisfaction,
    NonblockingResult,
    check_nonblocking,
    check_controllability,
    default_encapsulation,
    satisfies_globally,
    supervised_plant,
    renamed_plant,
)
from .relations import RelationResult
from .statespace import DEFAULT_BUDGET, StateSpace, backward_closure, explore
from .terms import (
    And,
    BoolExpr,
    Channel,
    Cmp,
    Declarations,
    EMPTY_UPDATE,
    EnumConst,
    EnumDomain,
    FALSE,
    Guard,
    IntLit,
    Invariant,
    Or,
    Prefix,
    ProcessTerm,
    Star,
    TERMINATION,
    TRUE,
    Valuation,
    VarRef,
    alt,
    send,
)


class SupervisorSpec(Record):
    """Guard per controllable channel plus the termination guard of the
    canonical supervisor shape (sum of guarded sends under iteration)."""

    guards: dict[Channel, BoolExpr]
    termination_guard: BoolExpr = TRUE


def _disabled(ss: StateSpace, bad: Container[int], forbidden: Container[tuple[int, Channel]],
              state: int, channel: Channel) -> bool:
    """Whether the supervisor disables a controllable channel at a state:
    the pair is forbidden, or some step on that channel leads into BAD."""
    return (state, channel) in forbidden or any(
        dst in bad for action, dst in ss.succ[state] if action.channel == channel)


class SynthesisSpace(Record):
    """The explored renamed plant with the fixpoint verdicts."""

    space: StateSpace
    bad: frozenset[int]
    forbidden: frozenset[tuple[int, Channel]]
    iterations: int

    def allowed(self, state: int, channel: Channel) -> bool:
        """Final per-state verdict for an enabled controllable channel."""
        return not _disabled(self.space, self.bad, self.forbidden, state, channel)


def analyze(spec: SystemSpec, budget: int | None = DEFAULT_BUDGET) -> SynthesisSpace:
    """Run exploration and the forbidden-state fixpoint; raises
    SynthesisError when the initial state ends up unsafe."""
    ss = explore(renamed_plant(spec), spec.declarations, budget)
    n = len(ss.states)

    # a violated invariant or excluded uncontrollable event makes the state
    # bad; an excluded controllable event only forbids that channel there
    bad: set[int] = set()
    forbidden: set[tuple[int, Channel]] = set()
    for violation in satisfies_globally(ss, spec.requirements).violations:
        r = violation.requirement
        if isinstance(r, Invariant) or not r.action.channel.controllable:
            bad.add(violation.state)
        else:
            forbidden.add((violation.state, r.action.channel))

    unc_pred: list[list[int]] = [[] for _ in range(n)]
    for src, edges in enumerate(ss.succ):
        for action, dst in edges:
            if not action.channel.controllable:
                unc_pred[dst].append(src)

    iterations = 0
    while True:
        iterations += 1
        bad = backward_closure(unc_pred, bad)
        # coreachability inside GOOD along the induced (supervised) edges
        pred: list[list[int]] = [[] for _ in range(n)]
        for src in range(n):
            if src in bad:
                continue
            for action, dst in ss.succ[src]:
                if dst in bad:
                    continue
                if action.channel.controllable and _disabled(
                        ss, bad, forbidden, src, action.channel):
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
    return SynthesisSpace(ss, frozenset(bad), frozenset(forbidden), iterations)


# ---------------------------------------------------------------------------
# guard minimization over multi-valued variables
#
# A cube is one int holding one bit field per kept variable, with one bit per
# domain value in domain order; a point sets one bit in each field, and a
# cube holds the point when it has all of the point's bits.  A cube's cost is
# the number of fields it does not fill (literals).  The cover is exact:
# fewest cubes first, fewest literals second, lexicographic cube order third,
# with the off-set as the only obstacle and everything else don't-care.  Its
# candidates are all prime cubes, found by splitting the full cube around one
# off-point at a time.  Where the kept variables span more than _CUBE_LIMIT
# cubes, the candidates are one grown cube per on-point instead, so the guard
# may not be minimal.  The splitting itself needs no such limit: it only
# fixes which guards take the grown-cube path, and so keeps their text.

_CUBE_LIMIT = 300_000


def _eliminate_variables(
    declarations: Declarations, on: set[tuple], off: set[tuple]
) -> tuple[list[int], set[tuple], set[tuple]]:
    """Indices of variables that are needed to separate on from off, and
    the on and off points projected onto them; the other variables never
    distinguish the two sets.  One pass in variable order drops each
    variable whose removal keeps the projected sets apart, and projects the
    already-projected sets.  Projection only merges points, so a variable
    kept once could never be dropped later: the pass keeps the same set as
    rescanning after every drop."""
    keep: list[int] = []
    for var in range(len(declarations.variables)):
        # the points hold the kept variables, then var and those after it
        at = len(keep)
        on_rest = {p[:at] + p[at + 1:] for p in on}
        off_rest = {p[:at] + p[at + 1:] for p in off}
        if on_rest & off_rest:
            keep.append(var)
        else:
            on, off = on_rest, off_rest
    return keep, on, off


def minimize_guard(
    declarations: Declarations, on: set[Valuation], off: set[Valuation]
) -> BoolExpr:
    """Sum-of-cubes formula that is true on ``on`` and false on ``off``; all
    other valuations are free.  Variables that never separate the two sets
    are dropped first.  When the kept variables span at most ``_CUBE_LIMIT``
    cubes, the cover is chosen from all prime cubes and is the smallest such
    formula: fewest cubes, then fewest literals.  Above that it is picked
    from one grown cube per on-point and can have more cubes than needed."""
    if not on:
        return FALSE
    on_pts = {v.values_tuple for v in on}
    off_pts = {v.values_tuple for v in off}
    if on_pts & off_pts:
        raise ValueError("on and off sets overlap")
    if not off_pts:
        return TRUE

    keep, on_kept, off_kept = _eliminate_variables(declarations, on_pts, off_pts)
    if not keep:
        return TRUE
    variables = [declarations.variables[i] for i in keep]
    domains = [list(v.domain.values()) for v in variables]
    # each variable's field, and the bit of each of its values
    fields: list[int] = []
    bits: list[dict[int, int]] = []
    width = 0
    for domain in domains:
        fields.append((1 << len(domain)) - 1 << width)
        bits.append({v: 1 << width + j for j, v in enumerate(domain)})
        width += len(domain)

    def masks(points: set[tuple]) -> list[int]:
        return [sum(b[v] for b, v in zip(bits, p)) for p in sorted(points)]

    def values(cube: int) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(v for v, b in vb.items() if cube & b) for vb in bits)

    on_masks, off_masks = masks(on_kept), masks(off_kept)
    if math.prod((1 << len(d)) - 1 for d in domains) <= _CUBE_LIMIT:
        primes = _primes(fields, off_masks)
    else:
        primes = _expanded_primes(sum(fields), on_masks, off_masks)
    chosen = _exact_cover(primes, on_masks, fields, values)
    return _render_cubes(variables, domains, [values(c) for c in chosen])


def _primes(fields: list[int], off_masks: list[int]) -> list[int]:
    """All maximal cubes that hold no off-point.  Starting from the full
    cube, each off-point splits every cube that holds it into one cube per
    field, each without the point's value there, and a split cube inside a
    cube not split is dropped.  Every cube that avoids the points so far
    lies in one of the cubes kept, and the set stays an antichain: a cube
    not split lies in no other, and a split cube lies in no other split
    cube, as that would put its parent inside the other's parent, which
    holds the point's value too.  So the set is always exactly the primes."""
    cubes = [sum(fields)]
    for p in off_masks:
        kept = [c for c in cubes if c & p != p]
        split = [c & ~(p & f) for c in cubes if c & p == p for f in fields if c & f != p & f]
        cubes = kept + [s for s in split if not any(s & c == s for c in kept)]
    return cubes


def _expanded_primes(full: int, on_masks: list[int], off_masks: list[int]) -> set[int]:
    """One maximal cube per on-point, grown value by value in field order;
    a sound cover source where the exact primes would be too costly."""
    primes = set()
    for cube in on_masks:
        free = full & ~cube
        while free:
            b = free & -free
            free ^= b
            if all((cube | b) & p != p for p in off_masks):
                cube |= b
        primes.add(cube)
    return primes


def _exact_cover(primes, on_masks, fields, values) -> list[int]:
    """Minimum cover of the on-points: fewest cubes, then fewest literals,
    then the least list of prime indices, with the primes ordered by
    (literals, ``values(cube)``)."""
    cost = {c: sum(c & f != f for f in fields) for c in primes}
    primes = sorted(cost, key=lambda c: (cost[c], values(c)))
    # per on-point, the primes holding it; per prime, the on-points it holds
    covers = [[i for i, c in enumerate(primes) if c & p == p] for p in on_masks]
    holds = [sum(1 << k for k, p in enumerate(on_masks) if c & p == p) for c in primes]
    best = (len(primes) + 1, 0, ())

    def search(uncovered: int, used: tuple[int, ...], literals: int) -> None:
        nonlocal best
        if not uncovered:
            best = min(best, (len(used), literals, used))
            return
        if len(used) + 1 > best[0]:
            return
        # branch on the lowest uncovered on-point
        k = (uncovered & -uncovered).bit_length() - 1
        for i in covers[k]:
            search(uncovered & ~holds[i], used + (i,), literals + cost[primes[i]])

    search((1 << len(on_masks)) - 1, (), 0)
    return [primes[i] for i in sorted(best[2])]


def _render_cubes(variables, domains, cubes) -> BoolExpr:
    def literal(var, domain, sub) -> BoolExpr | None:
        if len(sub) == len(domain):
            return None
        is_enum = isinstance(var.domain, EnumDomain)

        def value_expr(v: int):
            return EnumConst(var.domain.names[v - 1], v) if is_enum else IntLit(v)

        if len(sub) == 1:
            return Cmp("=", VarRef(var.name), value_expr(sub[0]))
        if len(sub) == len(domain) - 1:
            missing = next(v for v in domain if v not in sub)
            return Cmp("!=", VarRef(var.name), value_expr(missing))
        parts = [Cmp("=", VarRef(var.name), value_expr(v)) for v in sub]
        out = parts[0]
        for p in parts[1:]:
            out = Or(out, p)
        return out

    def conj(cube) -> BoolExpr:
        parts = []
        for var, domain, sub in zip(variables, domains, cube):
            lit = literal(var, domain, sub)
            if lit is not None:
                parts.append(lit)
        if not parts:
            return TRUE
        out = parts[0]
        for p in parts[1:]:
            out = And(out, p)
        return out

    if not cubes:
        return FALSE
    terms = [conj(c) for c in cubes]
    out = terms[0]
    for t in terms[1:]:
        out = Or(out, t)
    return out


# ---------------------------------------------------------------------------
# synthesis driver

class SynthesisReport(Record):
    guards: dict[str, str]
    termination_guard: str
    bad_states: int
    forbidden_pairs: int
    iterations: int
    explored_states: int

    def to_dict(self) -> dict:
        return {
            "guards": dict(self.guards),
            "termination_guard": self.termination_guard,
            "bad_states": self.bad_states,
            "forbidden_pairs": self.forbidden_pairs,
            "iterations": self.iterations,
            "explored_states": self.explored_states,
        }

    def render(self) -> str:
        lines = [f"explored {self.explored_states} states; "
                 f"{self.bad_states} unsafe, {self.forbidden_pairs} forbidden pairs, "
                 f"{self.iterations} fixpoint rounds"]
        for channel, guard in self.guards.items():
            lines.append(f"  {channel}: {guard}")
        lines.append(f"  termination: {self.termination_guard}")
        return "\n".join(lines)


def guards_from_space(spec: SystemSpec, syn: SynthesisSpace) -> SupervisorSpec:
    """Read one guard per controllable channel off the fixpoint verdicts."""
    ss = syn.space
    channels = [c for c in spec.declarations.channels if c.controllable]
    # per channel: first state of each valuation where it is enabled and
    # allowed (on), or enabled and disabled (off)
    on: dict[Channel, dict[Valuation, int]] = {c: {} for c in channels}
    off: dict[Channel, dict[Valuation, int]] = {c: {} for c in channels}
    for state, edges in enumerate(ss.succ):
        if state in syn.bad:
            continue
        alpha = ss.states[state].env.alpha
        for channel in {a.channel for a, _ in edges if a.channel.controllable}:
            side = on if syn.allowed(state, channel) else off
            side[channel].setdefault(alpha, state)
    guards: dict[Channel, BoolExpr] = {}
    for channel in channels:
        conflicts = set(on[channel]) & set(off[channel])
        if conflicts:
            # the conflict met first in BFS order, whatever the set's order
            alpha = min(conflicts, key=lambda a: min(on[channel][a], off[channel][a]))
            raise ObserverError(
                f"guard for '{channel.name}' is not a function of the variables: "
                f"states {on[channel][alpha]} and {off[channel][alpha]} carry the same "
                f"valuation but only one of them may enable the channel"
            )
        guards[channel] = minimize_guard(spec.declarations, set(on[channel]), set(off[channel]))
    return SupervisorSpec(guards=guards, termination_guard=TRUE)


def synthesize_from_space(
    spec: SystemSpec, syn: SynthesisSpace
) -> tuple[SupervisorSpec, SynthesisReport]:
    """Guards and the synthesis summary from an analyzed space."""
    sup = guards_from_space(spec, syn)
    report = SynthesisReport(
        guards={c.name: bool_to_str(g) for c, g in sup.guards.items()},
        termination_guard=bool_to_str(sup.termination_guard),
        bad_states=len(syn.bad),
        forbidden_pairs=len(syn.forbidden),
        iterations=syn.iterations,
        explored_states=len(syn.space.states),
    )
    return sup, report


def synthesize(spec: SystemSpec, budget: int | None = DEFAULT_BUDGET) -> SupervisorSpec:
    """Most permissive guard assignment keeping the supervised plant safe,
    controllable, and nonblocking."""
    return guards_from_space(spec, analyze(spec, budget))


def emit_supervisor(sup: SupervisorSpec) -> ProcessTerm:
    """The canonical supervisor term: guarded update-free sends plus a
    guarded termination option, under iteration."""
    summands: list[ProcessTerm] = [
        Guard(guard, Prefix(send(channel), EMPTY_UPDATE, TERMINATION))
        for channel, guard in sup.guards.items()
    ]
    summands.append(Guard(sup.termination_guard, TERMINATION))
    return Star(alt(*summands))


def integrate_supervisor(spec: SystemSpec, sup: SupervisorSpec) -> SystemSpec:
    """A copy of the spec with the emitted supervisor installed (and the
    default blocked set made explicit when none was declared)."""
    name = "Supervisor"
    while name in spec.processes:
        name += "_"
    term = emit_supervisor(sup)
    processes = dict(spec.processes)
    processes[name] = term
    return SystemSpec(
        declarations=spec.declarations,
        processes=processes,
        plant_name=spec.plant_name,
        supervisor_name=name,
        encapsulation=spec.encapsulation or default_encapsulation(spec),
        requirements=spec.requirements,
    )


class VerificationReport(Record):
    requirements: GlobalSatisfaction
    controllability: RelationResult
    nonblocking: NonblockingResult
    supervised_states: int

    def ok(self) -> bool:
        return (
            self.requirements.holds
            and self.controllability.holds
            and self.nonblocking.holds
        )

    def verdicts(self) -> dict[str, bool]:
        return {
            "requirements": self.requirements.holds,
            "controllability": self.controllability.holds,
            "nonblocking": self.nonblocking.holds,
        }


def verify_synthesis(
    spec: SystemSpec, sup: SupervisorSpec, plant: StateSpace,
    budget: int | None = DEFAULT_BUDGET,
) -> VerificationReport:
    """Re-check the three closure obligations on the supervised plant built
    from the emitted supervisor, explored once for all three.  ``plant`` is
    the explored renamed plant, e.g. ``analyze``'s ``SynthesisSpace.space``:
    the integrated spec keeps the plant."""
    integrated = integrate_supervisor(spec, sup)
    ss = explore(supervised_plant(integrated), spec.declarations, budget)
    return VerificationReport(
        requirements=satisfies_globally(ss, list(spec.requirements)),
        controllability=check_controllability(ss, plant),
        nonblocking=check_nonblocking(ss),
        supervised_states=len(ss.states),
    )
