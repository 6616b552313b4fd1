"""Requirement satisfaction, supervised-plant construction, controllability,
and nonblocking verification.

Requirement actions name completed communications as they appear in the
supervised space (``SchOper!?``), so the unsupervised reference view is the
plant under the completion renaming.

``requirement_table`` is the one place that evaluates requirements over an
explored space; ``satisfies_globally`` and ``synthesis.analyze`` both read
it.  A formula reads a few of the variables, so it is evaluated once per
distinct projected key, the values of those variables in declaration
order, and not once per state.  An event requirement then tests
enabledness only at the states its formula excludes, through one list per
action index of the states that enable it.
``requirement_fails`` evaluates a requirement at a single valuation.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from itertools import compress
from operator import itemgetter

from .errors import ModelError
from .parser import SystemSpec
from .printer import requirement_to_str
from .records import Record
from .relations import RelationResult, partial_bisim
from .semantics import Configuration, Engine, xi_rename
from .statespace import StateSpace, coreachable
from .terms import (
    Action,
    ActionSet,
    Channel,
    Declarations,
    Encap,
    EventImplies,
    Invariant,
    Par,
    Prefix,
    ProcessTerm,
    Requirement,
    StateExcludesEvent,
    bool_variables,
    eval_bool,
    subterms,
)


def _excludes(r: Requirement, alpha: Mapping[str, int]) -> bool:
    """Whether an invariant fails at the valuation, or the valuation excludes
    an event requirement's action.  An event-implies form is the exclusion
    form with the negated formula: the named event may only be enabled where
    the formula holds."""
    if isinstance(r, (Invariant, EventImplies)):
        return not eval_bool(alpha, r.condition)
    if isinstance(r, StateExcludesEvent):
        return eval_bool(alpha, r.condition)
    raise TypeError(f"not a requirement: {r!r}")


def requirement_fails(r: Requirement, alpha: Mapping[str, int],
                      enabled: Callable[[Action], bool]) -> bool:
    """Whether the requirement fails at the valuation; ``enabled(a)`` tells
    whether action a is enabled and is asked only when the answer depends on it."""
    return _excludes(r, alpha) and (isinstance(r, Invariant) or enabled(r.action))


def satisfies(c: Configuration, r: Requirement, declarations: Declarations) -> bool:
    """Whether a single configuration meets the requirement."""

    def enabled(action: Action) -> bool:
        steps = Engine(declarations).derive(c.term, c.env.alpha)[1]
        return any(a == action for a, _, _ in steps)

    return not requirement_fails(r, c.env.alpha, enabled)


class Violation(Record):
    state: int
    requirement: Requirement

    def render(self, ss: StateSpace) -> str:
        values = ss.valuation_text(self.state)
        return f"state {self.state} ({values}) violates: {requirement_to_str(self.requirement)}"


class GlobalSatisfaction(Record):
    holds: bool
    violations: list[Violation]
    # shortest trail from the initial state to the first violating state
    trace: list | None

    def render(self, ss: StateSpace, limit: int = 10) -> str:
        if self.holds:
            return "all requirements hold in every reachable state"
        shown = self.violations[:limit]
        lines = [v.render(ss) for v in shown]
        if len(self.violations) > len(shown):
            lines.append(f"... and {len(self.violations) - len(shown)} more violations")
        if self.trace is not None:
            trail = "; ".join(str(a) for a in self.trace) or "(initial state)"
            lines.append(f"shortest trace to first violation: {trail}")
        return "\n".join(lines)


def requirement_table(ss: StateSpace, rs: Sequence[Requirement]) -> list[list[int]]:
    """The states where each requirement fails, in state order, one list per
    requirement (module docstring)."""
    n = len(ss)
    values = ss.values
    position = {v.name: i for i, v in enumerate(ss.declarations.variables)}
    enablers = None
    table = []
    for r in rs:
        read = sorted(bool_variables(r.condition), key=position.__getitem__)
        if read:
            keys = list(map(itemgetter(*map(position.__getitem__, read)), values))
        else:
            keys = [()] * n
        # itemgetter over one position gives the value itself, not a 1-tuple
        excluded = {key: _excludes(r, dict(zip(read, (key,) if len(read) == 1 else key)))
                    for key in dict.fromkeys(keys)}
        states = compress(range(n), map(excluded.__getitem__, keys))
        if not isinstance(r, Invariant):
            if enablers is None:
                enablers = [[] for _ in ss.actions]
                for state, edges in enumerate(ss.succ):
                    for a, _ in edges:
                        enablers[a].append(state)
            # matched by equality: hashing an Action runs Python code
            enabling = set().union(*(on for action, on in zip(ss.actions, enablers)
                                     if action == r.action))
            states = filter(enabling.__contains__, states)
        table.append(list(states))
    return table


def satisfies_globally(ss: StateSpace, rs: Sequence[Requirement]) -> GlobalSatisfaction:
    """Check every requirement in every reachable state of the space; the
    violations are listed by state, then in requirement order."""
    failing = sorted((state, i) for i, states in enumerate(requirement_table(ss, rs))
                     for state in states)
    if not failing:
        return GlobalSatisfaction(True, [], None)
    violations = [Violation(state, rs[i]) for state, i in failing]
    return GlobalSatisfaction(False, violations, ss.trace_to(failing[0][0]))


def default_encapsulation(spec: SystemSpec) -> ActionSet:
    """Blocked set closing every controllable channel of the plant: all
    partial synchronizations below sender plus the plant's receive arity."""
    arities: dict[Channel, set[int]] = {}
    for t in subterms(spec.plant):
        if isinstance(t, Prefix) and t.action.channel.controllable:
            arities.setdefault(t.action.channel, set()).add(t.action.receivers)
    incomplete: set[tuple[Channel, int]] = set()
    for channel in spec.declarations.channels:
        if not channel.controllable:
            continue
        ns = arities.get(channel, {1})
        if len(ns) != 1:
            raise ModelError(
                f"channel '{channel.name}' is received with mixed arities; "
                f"declare the blocked set explicitly with an encap statement"
            )
        incomplete.add((channel, 1 + next(iter(ns))))
    return ActionSet(incomplete=frozenset(incomplete))


def supervised_plant(spec: SystemSpec, encapsulated: bool = True) -> Configuration:
    """Root configuration of the plant-supervisor composition, by default
    under the blocked set that closes the partial synchronizations."""
    supervisor = spec.supervisor
    if supervisor is None:
        raise ModelError("no supervisor declared")
    term: ProcessTerm = Par(spec.plant, supervisor)
    if encapsulated:
        blocked = spec.encapsulation
        if blocked is None:
            blocked = default_encapsulation(spec)
        term = Encap(blocked, term)
    return Configuration(term, spec.declarations.initial_environment())


def renamed_plant(spec: SystemSpec) -> Configuration:
    """Root configuration of the plant under the completion renaming."""
    return Configuration(
        xi_rename(spec.plant), spec.declarations.initial_environment()
    )


def operational_root(spec: SystemSpec, unsupervised: bool = False) -> Configuration:
    """The configuration a spec denotes operationally: the supervised
    composition when a supervisor is declared, else the renamed plant."""
    if spec.supervisor_name is not None and not unsupervised:
        return supervised_plant(spec)
    return renamed_plant(spec)


def check_controllability(supervised: StateSpace, plant: StateSpace) -> RelationResult:
    """The explored supervised composition must be partially bisimulated by
    the explored renamed plant with the uncontrollable actions as
    bisimulation action set."""
    return partial_bisim(supervised, plant, "uncontrollable")


class NonblockingResult(Record):
    holds: bool
    blocking: set[int]
    # shortest trail into a blocking state
    trace: list | None

    def render(self, ss: StateSpace) -> str:
        if self.holds:
            return "nonblocking: every reachable state can reach a marked state"
        first = min(self.blocking)
        trail = "; ".join(str(a) for a in self.trace) or "(initial state)"
        return (
            f"blocking: {len(self.blocking)} state(s) cannot reach a marked state; "
            f"first is state {first}, trace: {trail}"
        )


def check_nonblocking(ss: StateSpace) -> NonblockingResult:
    """Every reachable state must reach some marked state."""
    alive = coreachable(ss)
    blocking = {s for s in range(len(ss)) if s not in alive}
    if not blocking:
        return NonblockingResult(True, set(), None)
    first = min(blocking)
    return NonblockingResult(False, blocking, ss.trace_to(first))
