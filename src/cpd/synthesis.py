"""Supervisor synthesis: forbidden-state fixpoint plus guard extraction.

The plant is explored under the completion renaming (every controllable
receive closed into a completed communication).  Invariant violations seed
the BAD set, exclusion requirements forbid (state, controllable channel)
pairs, and the fixpoint alternates uncontrollable backward closure with
coreachability pruning inside the remaining GOOD states.  Guards are then
read off per controllable channel as functions of the valuation and
minimized against the off-set, with everything else a don't-care.  The
minimization is exact up to ``_CUBE_LIMIT`` candidate cubes; above it the
guard is a sound cover that need not be the smallest.
"""

from __future__ import annotations

import itertools
from collections.abc import Container
from dataclasses import dataclass

from .errors import ObserverError, SynthesisError
from .parser import SystemSpec
from .printer import bool_to_str
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


@dataclass
class SupervisorSpec:
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


@dataclass
class SynthesisSpace:
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
# A cube constrains each variable to a non-empty subset of its domain; its
# cost is the number of constrained variables (literals).  The cover is
# exact: fewest cubes first, fewest literals second, lexicographic cube order
# third, with the off-set as the only obstacle and everything else don't-care.
# Its candidates are all prime cubes only up to _CUBE_LIMIT cubes; above it
# they are one grown cube per on-point, so the guard may not be minimal.

_CUBE_LIMIT = 300_000


def _project(points: set[tuple], keep: list[int]) -> set[tuple]:
    return {tuple(p[i] for i in keep) for p in points}


def _eliminate_variables(
    declarations: Declarations, on: set[tuple], off: set[tuple]
) -> list[int]:
    """Indices of variables that are needed to separate on from off;
    the others never distinguish the two sets."""
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


def _subsets(domain_values: list[int]) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for r in range(1, len(domain_values) + 1):
        out.extend(itertools.combinations(domain_values, r))
    return out


def minimize_guard(
    declarations: Declarations, on: set[Valuation], off: set[Valuation]
) -> BoolExpr:
    """Sum-of-cubes formula that is true on ``on`` and false on ``off``; all
    other valuations are free.  It is the smallest such formula (fewest
    cubes, then fewest literals) when the kept variables span at most
    ``_CUBE_LIMIT`` cubes.  Above that the cover is picked from one grown
    cube per on-point and can have more cubes than needed."""
    if not on:
        return FALSE
    on_pts = {v.values_tuple for v in on}
    off_pts = {v.values_tuple for v in off}
    if on_pts & off_pts:
        raise ValueError("on and off sets overlap")
    if not off_pts:
        return TRUE

    keep = _eliminate_variables(declarations, on_pts, off_pts)
    if not keep:
        return TRUE
    variables = [declarations.variables[i] for i in keep]
    on_proj = sorted(_project(on_pts, keep))
    off_proj = sorted(_project(off_pts, keep))

    domains = [list(v.domain.values()) for v in variables]
    cube_count = 1
    for d in domains:
        cube_count *= (1 << len(d)) - 1

    # bit position per full-space valuation
    space = list(itertools.product(*domains))
    bit = {p: i for i, p in enumerate(space)}
    off_mask = 0
    for p in off_proj:
        off_mask |= 1 << bit[p]
    on_bits = [bit[p] for p in on_proj]

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

    def cube_cost(cube: tuple[tuple[int, ...], ...]) -> int:
        return sum(1 for vi, sub in enumerate(cube) if len(sub) != len(domains[vi]))

    if cube_count <= _CUBE_LIMIT:
        primes = _exact_primes(domains, subset_masks, off_mask, cube_mask)
    else:
        primes = _expanded_primes(domains, on_proj, off_mask, cube_mask)

    chosen = _exact_cover(primes, on_bits, cube_mask, cube_cost)
    return _render_cubes(variables, domains, chosen)


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

@dataclass
class SynthesisReport:
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
            alpha = next(iter(conflicts))
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


@dataclass
class VerificationReport:
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
