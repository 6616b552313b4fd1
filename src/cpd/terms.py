"""Abstract syntax of communicating processes with data.

Channels carry a controllability class.  Actions are communications ``c!_m?_n``
over a channel with m sender and n receiver parties.  Process terms follow the
grammar

    T ::= 0 | 1 | a[f].T | phi -> T | encap{H}(T) | T + T | T . T | T* | T || T

where f is a partial variable update and H a set of actions to block.  Data
values are integers; enumerated constants are integers with a printable name.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator, Mapping

from .errors import SpecError
from .records import Frozen


# ---------------------------------------------------------------------------
# channels and actions

class Channel(Frozen):
    name: str
    controllable: bool

    def __str__(self) -> str:
        return self.name


class Action(Frozen):
    """A communication with ``senders`` sender and ``receivers`` receiver parties."""

    channel: Channel
    senders: int
    receivers: int

    def __post_init__(self) -> None:
        if self.senders < 0 or self.receivers < 0 or self.senders + self.receivers < 1:
            raise ValueError(f"action needs at least one party: {self.channel.name}")

    @property
    def controllable(self) -> bool:
        return self.channel.controllable

    def sort_key(self) -> tuple:
        return (self.channel.name, self.senders, self.receivers)

    def format(self) -> str:
        """Shortest spelling: c! for c!_1?_0, c? for c!_0?_1, c!? for c!_1?_1."""
        m, n = self.senders, self.receivers
        out = self.channel.name
        if m > 0:
            out += "!" if m == 1 else f"!_{m}"
        if n > 0:
            out += "?" if n == 1 else f"?_{n}"
        return out

    def __str__(self) -> str:
        return self.format()


def send(channel: Channel, count: int = 1) -> Action:
    return Action(channel, count, 0)


def receive(channel: Channel, count: int = 1) -> Action:
    return Action(channel, 0, count)


def completed(channel: Channel, receivers: int = 1) -> Action:
    """The communication with one sender and the given receivers: c!?_n."""
    return Action(channel, 1, receivers)


# ---------------------------------------------------------------------------
# data expressions

class IntLit(Frozen):
    value: int


class EnumConst(Frozen):
    """A named constant from an enumerated domain; behaves as its ordinal."""

    name: str
    value: int


class VarRef(Frozen):
    name: str


class BinOp(Frozen):
    op: str  # one of + - *
    left: "DataExpr"
    right: "DataExpr"


DataExpr = IntLit | EnumConst | VarRef | BinOp


def eval_data(alpha: Mapping[str, int], e: DataExpr) -> int:
    """Evaluate a data expression under a total valuation.  Pure."""
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, EnumConst):
        return e.value
    if isinstance(e, VarRef):
        try:
            return alpha[e.name]
        except KeyError:
            raise SpecError.single(f"unbound variable '{e.name}'") from None
    if isinstance(e, BinOp):
        left = eval_data(alpha, e.left)
        right = eval_data(alpha, e.right)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        raise SpecError.single(f"unknown arithmetic operator '{e.op}'")
    raise TypeError(f"not a data expression: {e!r}")


def expr_variables(e: DataExpr) -> frozenset[str]:
    if isinstance(e, VarRef):
        return frozenset((e.name,))
    if isinstance(e, BinOp):
        return expr_variables(e.left) | expr_variables(e.right)
    return frozenset()


# ---------------------------------------------------------------------------
# boolean expressions

class BoolLit(Frozen):
    value: bool


class Cmp(Frozen):
    op: str  # one of < <= = != >= >
    left: DataExpr
    right: DataExpr


class Not(Frozen):
    body: "BoolExpr"


class And(Frozen):
    left: "BoolExpr"
    right: "BoolExpr"


class Or(Frozen):
    left: "BoolExpr"
    right: "BoolExpr"


class Imp(Frozen):
    left: "BoolExpr"
    right: "BoolExpr"


BoolExpr = BoolLit | Cmp | Not | And | Or | Imp

TRUE = BoolLit(True)
FALSE = BoolLit(False)

_CMP = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
}


def eval_bool(alpha: Mapping[str, int], phi: BoolExpr) -> bool:
    """Classical two-valued evaluation under a total valuation.  Pure."""
    if isinstance(phi, BoolLit):
        return phi.value
    if isinstance(phi, Cmp):
        return _CMP[phi.op](eval_data(alpha, phi.left), eval_data(alpha, phi.right))
    if isinstance(phi, Not):
        return not eval_bool(alpha, phi.body)
    if isinstance(phi, And):
        return eval_bool(alpha, phi.left) and eval_bool(alpha, phi.right)
    if isinstance(phi, Or):
        return eval_bool(alpha, phi.left) or eval_bool(alpha, phi.right)
    if isinstance(phi, Imp):
        return (not eval_bool(alpha, phi.left)) or eval_bool(alpha, phi.right)
    raise TypeError(f"not a boolean expression: {phi!r}")


def bool_variables(phi: BoolExpr) -> frozenset[str]:
    if isinstance(phi, Cmp):
        return expr_variables(phi.left) | expr_variables(phi.right)
    if isinstance(phi, Not):
        return bool_variables(phi.body)
    if isinstance(phi, (And, Or, Imp)):
        return bool_variables(phi.left) | bool_variables(phi.right)
    return frozenset()


# ---------------------------------------------------------------------------
# variable updates

class UpdateMap(Frozen):
    """Partial map from variable names to data expressions; order is source order."""

    entries: tuple[tuple[str, DataExpr], ...] = ()

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[str, DataExpr]]:
        return iter(self.entries)


EMPTY_UPDATE = UpdateMap()


# ---------------------------------------------------------------------------
# action sets for encapsulation

class ActionSet(Frozen):
    """A set of actions to block under encapsulation.

    Besides explicit actions, the set may contain ``incomplete(c, k)`` patterns
    matching every c-action whose party count m+n differs from 0 and k, and
    ``incomplete(c!, k)`` patterns matching c!_1?_n for n outside {0, k},
    the images of incomplete receive patterns under the completion renaming.
    """

    actions: frozenset[Action] = frozenset()
    incomplete: frozenset[tuple[Channel, int]] = frozenset()
    completed_incomplete: frozenset[tuple[Channel, int]] = frozenset()

    def __contains__(self, action: Action) -> bool:
        if action in self.actions:
            return True
        total = action.senders + action.receivers
        for channel, k in self.incomplete:
            if action.channel == channel and total != 0 and total != k:
                return True
        for channel, k in self.completed_incomplete:
            if action.channel == channel and action.senders == 1 and action.receivers not in (0, k):
                return True
        return False


# ---------------------------------------------------------------------------
# process terms

class Deadlock(Frozen):
    """0: no step and no termination."""

    _cid = None


class Termination(Frozen):
    """1: successful termination, no step."""

    _cid = None


class Prefix(Frozen):
    action: Action
    update: UpdateMap
    cont: "ProcessTerm"

    _cid = None


class Guard(Frozen):
    condition: BoolExpr
    body: "ProcessTerm"

    _cid = None


class Encap(Frozen):
    blocked: ActionSet
    body: "ProcessTerm"

    _cid = None


class Alt(Frozen):
    left: "ProcessTerm"
    right: "ProcessTerm"

    _cid = None


class Seq(Frozen):
    left: "ProcessTerm"
    right: "ProcessTerm"

    _cid = None


class Star(Frozen):
    body: "ProcessTerm"

    _cid = None


class Par(Frozen):
    left: "ProcessTerm"
    right: "ProcessTerm"

    _cid = None


ProcessTerm = Deadlock | Termination | Prefix | Guard | Encap | Alt | Seq | Star | Par

DEADLOCK = Deadlock()
TERMINATION = Termination()


def alt(*terms: ProcessTerm) -> ProcessTerm:
    """Left-folded alternative composition of one or more terms."""
    out = terms[0]
    for t in terms[1:]:
        out = Alt(out, t)
    return out


def par(*terms: ProcessTerm) -> ProcessTerm:
    """Left-folded parallel composition of one or more terms."""
    out = terms[0]
    for t in terms[1:]:
        out = Par(out, t)
    return out


def prefix(action: Action, cont: ProcessTerm, update: UpdateMap = EMPTY_UPDATE) -> Prefix:
    return Prefix(action, update, cont)


# ---------------------------------------------------------------------------
# canonical form for state identity
#
# A state's term is identified up to the structural laws of + and . : nested
# Alt and Seq are flattened associatively, Alt summands are deduplicated, and
# 1.p collapses to p.  The canonical form exists only as an integer id,
# hash-consed (Filliâtre & Conchon, "Type-safe modular hash-consing", ML
# Workshop 2006): one table per process maps the key of a canonical node, a
# string tag for its operator, its non-term fields (action, update, condition,
# blocked set) and the ids of its canonical children, to an id.  Two terms
# have equal canonical forms exactly when their ids are equal, and a state key
# built on an id hashes in constant time instead of walking the term.  The
# keys of Par, Star, Alt, Seq, Deadlock and Termination nodes hold only
# strings and ints, so the cyclic collector untracks them and its full
# passes do not walk them.
#
# An Alt is one entry keyed by the sorted set of its summand ids, not a chain
# of binary nodes: a summand whose own canonical form is an Alt then stays one
# summand whatever the ids' order.  In a chain folded in id order it would
# merge with the flat summands whenever its id sorted first, and identity
# would depend on which terms the process interned earlier.  Ids themselves
# depend on that order, so they mean nothing across processes.  The table
# only grows and lives as long as the process; each CLI call is one process.
# It is not locked, so canonicalize from one thread at a time.
#
# The id of a term's canonical form is cached on the term itself, in the
# attribute ``_cid``, which equality, hashing and repr ignore: a class
# attribute ``None`` until ``object.__setattr__`` sets it on the instance.
# It is never read through the instance ``__dict__``, which would move the
# instance from CPython's compact attribute storage to a slower dict.  A
# successor built by a step shares everything but its spine with its source,
# so only the new spine nodes are normalized.  The cache dies with its term:
# a memo in a dict keyed by the term would keep every throwaway successor of
# an exploration alive.

_ids: dict[tuple, int] = {}


def _intern(key: tuple) -> int:
    return _ids.setdefault(key, len(_ids))


_TERMINATION_ID = _intern(("1",))


def canonical_id(t: ProcessTerm) -> int:
    """Interned id of the canonical form of ``t``: equal exactly for terms
    with equal canonical forms within one process.

    On a cache miss the uncached spine tops below ``t`` are normalized
    children first, so no normalization meets an uncached child and none
    recurses.  An ``Alt`` under an ``Alt`` or a ``Seq`` under a ``Seq`` is
    no top: the top's normalization walks its whole spine, and keying every
    inner node would walk each sub-spine again, quadratic on a long spine."""
    cid = t._cid
    if cid is None:
        tops: list[ProcessTerm] = []
        stack: list[tuple[ProcessTerm, type | None]] = [(t, None)]
        while stack:
            s, above = stack.pop()
            if s._cid is not None:
                continue
            kind = type(s)
            if kind is not above or kind not in (Alt, Seq):
                tops.append(s)
            stack.extend((c, kind) for c in children(s))
        for s in reversed(tops):
            # a shared subterm is a top once per occurrence
            if s._cid is None:
                object.__setattr__(s, "_cid", _normalize(s))
        cid = t._cid
    return cid


def _normalize(t: ProcessTerm) -> int:
    # the spine types a step rebuilds come first
    if isinstance(t, Par):
        return _intern(("||", canonical_id(t.left), canonical_id(t.right)))
    if isinstance(t, Encap):
        return _intern(("encap", t.blocked, canonical_id(t.body)))
    if isinstance(t, Prefix):
        return _intern((".", t.action, t.update, canonical_id(t.cont)))
    if isinstance(t, Guard):
        return _intern(("->", t.condition, canonical_id(t.body)))
    if isinstance(t, Star):
        return _intern(("*", canonical_id(t.body)))
    if isinstance(t, (Deadlock, Termination)):
        return _intern(("1",) if isinstance(t, Termination) else ("0",))
    if isinstance(t, Alt):
        summands: set[int] = set()
        stack = [t.right, t.left]
        while stack:
            s = stack.pop()
            if isinstance(s, Alt):
                stack.append(s.right)
                stack.append(s.left)
            else:
                summands.add(canonical_id(s))
        if len(summands) == 1:
            return summands.pop()
        return _intern(("+", *sorted(summands)))
    if isinstance(t, Seq):
        parts: list[int] = []
        stack = [t.right, t.left]
        while stack:
            s = stack.pop()
            if isinstance(s, Seq):
                stack.append(s.right)
                stack.append(s.left)
            else:
                cid = canonical_id(s)
                if cid != _TERMINATION_ID:
                    parts.append(cid)
        if not parts:
            return _TERMINATION_ID
        out = parts[-1]
        for cid in reversed(parts[:-1]):
            out = _intern((";", cid, out))
        return out
    raise TypeError(f"not a process term: {t!r}")


# ---------------------------------------------------------------------------
# traversal with an explicit stack, so that no recursion limit bounds a term

# where each process-term class keeps its subterms, left to right
_SUBTERMS: dict[type, tuple[str, ...]] = {
    Deadlock: (),
    Termination: (),
    Prefix: ("cont",),
    Guard: ("body",),
    Encap: ("body",),
    Star: ("body",),
    Alt: ("left", "right"),
    Seq: ("left", "right"),
    Par: ("left", "right"),
}


def children(t: ProcessTerm) -> tuple[ProcessTerm, ...]:
    """The direct subterms of ``t``, left to right."""
    try:
        names = _SUBTERMS[type(t)]
    except KeyError:
        raise TypeError(f"not a process term: {t!r}") from None
    return tuple(getattr(t, name) for name in names)


def subterms(t: ProcessTerm) -> Iterator[ProcessTerm]:
    """``t`` and every subterm occurrence in pre-order, left before right."""
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        stack.extend(reversed(children(s)))


def fold(t: ProcessTerm, visit: Callable[[ProcessTerm, list], object]) -> object:
    """Bottom-up fold: ``visit(s, results)`` gets the results for the children
    of s, left to right.  Reversed pre-order reaches every child before its
    parent, right subtree first, so those results top one result stack."""
    results: list = []
    for s in reversed(list(subterms(t))):
        results.append(visit(s, [results.pop() for _ in _SUBTERMS[type(s)]]))
    return results.pop()


# ---------------------------------------------------------------------------
# syntactic classifiers

def plant_violations(t: ProcessTerm) -> list[str]:
    """Subterms breaking the plant class: controllable prefixes must be plain
    receives c?_n[f]; uncontrollable prefixes are unrestricted."""
    return [
        f"controllable prefix must be a receive: {s.action}"
        for s in subterms(t)
        if isinstance(s, Prefix) and s.action.channel.controllable and s.action.senders != 0
    ]


def classify_plant(t: ProcessTerm) -> bool:
    return not plant_violations(t)


_NOT_IN_SUPERVISOR = {
    Deadlock: "deadlock",
    Encap: "encapsulation",
    Seq: "sequential composition",
    Par: "parallel composition",
}


def supervisor_violations(t: ProcessTerm) -> list[str]:
    """Subterms breaking the supervisor class: only 1, guarded terms, sums,
    iteration, and update-free controllable sends c![].S are allowed."""
    out: list[str] = []
    for s in subterms(t):
        if isinstance(s, Prefix):
            a = s.action
            if not (a.channel.controllable and a.senders == 1 and a.receivers == 0):
                out.append(f"supervisor prefix must be a controllable send: {a}")
            if len(s.update):
                out.append(f"supervisor prefix must not update variables: {a}")
        elif type(s) in _NOT_IN_SUPERVISOR:
            out.append(f"supervisor must not contain {_NOT_IN_SUPERVISOR[type(s)]}")
    return out


def classify_supervisor(t: ProcessTerm) -> bool:
    return not supervisor_violations(t)


def read_variables(t: ProcessTerm) -> frozenset[str]:
    """Variables read by guards or by the expressions of updates."""
    out: set[str] = set()
    for s in subterms(t):
        if isinstance(s, Prefix):
            for _, expr in s.update:
                out |= expr_variables(expr)
        elif isinstance(s, Guard):
            out |= bool_variables(s.condition)
    return frozenset(out)


def free_variables(t: ProcessTerm) -> frozenset[str]:
    """Variables read by guards or updates, or written by updates."""
    written = {name for s in subterms(t) if isinstance(s, Prefix) for name, _ in s.update}
    return read_variables(t) | written


# ---------------------------------------------------------------------------
# control requirements

class EventImplies(Frozen):
    """``a => phi``: the event may occur only in states satisfying phi."""

    action: Action
    condition: BoolExpr


class StateExcludesEvent(Frozen):
    """``phi => never a``: in states satisfying phi the event must be disabled."""

    condition: BoolExpr
    action: Action


class Invariant(Frozen):
    """``phi``: every reachable state must satisfy phi."""

    condition: BoolExpr


Requirement = EventImplies | StateExcludesEvent | Invariant


# ---------------------------------------------------------------------------
# variable declarations, valuations, environments

class IntRange(Frozen):
    low: int
    high: int

    def __contains__(self, value: int) -> bool:
        return self.low <= value <= self.high

    def values(self) -> range:
        return range(self.low, self.high + 1)

    def render(self, value: int) -> str:
        return str(value)

    def __str__(self) -> str:
        return f"{self.low}..{self.high}"


class EnumDomain(Frozen):
    """Named constants; ordinals start at 1 in declaration order."""

    names: tuple[str, ...]

    def __contains__(self, value: int) -> bool:
        return 1 <= value <= len(self.names)

    def values(self) -> range:
        return range(1, len(self.names) + 1)

    def render(self, value: int) -> str:
        if value in self:
            return self.names[value - 1]
        return str(value)

    def ordinal(self, name: str) -> int:
        return self.names.index(name) + 1

    def __str__(self) -> str:
        return "{" + ", ".join(self.names) + "}"


VarDomain = IntRange | EnumDomain


class VariableDecl(Frozen):
    name: str
    domain: VarDomain
    initial: int

    def __post_init__(self) -> None:
        if self.initial not in self.domain:
            raise SpecError.single(
                f"initial value {self.initial} outside domain {self.domain} of '{self.name}'"
            )


class Valuation(Mapping):
    """Immutable total valuation over a fixed, ordered variable tuple."""

    __slots__ = ("_names", "_index", "_values")

    def __init__(self, names: tuple[str, ...], index: dict[str, int], values: tuple[int, ...]):
        self._names = names
        self._index = index
        self._values = values

    def __getitem__(self, name: str) -> int:
        try:
            return self._values[self._index[name]]
        except KeyError:
            raise KeyError(name) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def assign(self, updates: Mapping[str, int]) -> "Valuation":
        if not updates:
            return self
        values = list(self._values)
        for name, value in updates.items():
            values[self._index[name]] = value
        return self.with_values(tuple(values))

    def with_values(self, values: tuple[int, ...]) -> "Valuation":
        """A valuation over the same variables holding ``values``."""
        return Valuation(self._names, self._index, values)

    @property
    def values_tuple(self) -> tuple[int, ...]:
        return self._values

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Valuation):
            return NotImplemented
        return self._names == other._names and self._values == other._values

    def __hash__(self) -> int:
        return hash((self._names, self._values))

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={v}" for n, v in zip(self._names, self._values))
        return f"Valuation({inner})"


class Environment(Frozen):
    """Total valuation plus the set of variables the last transition updated."""

    alpha: Valuation
    rho: frozenset[str]


class Declarations:
    """The declared channels and variables of a specification."""

    def __init__(self, variables: tuple[VariableDecl, ...], channels: tuple[Channel, ...]):
        self.variables = variables
        self.channels = channels
        self.var_map = {v.name: v for v in variables}
        self.channel_map = {c.name: c for c in channels}
        self._names = tuple(v.name for v in variables)
        self._index = {name: i for i, name in enumerate(self._names)}
        if len(self.var_map) != len(variables):
            raise SpecError.single("duplicate variable declaration")
        if len(self.channel_map) != len(channels):
            raise SpecError.single("duplicate channel declaration")

    def initial_valuation(self) -> Valuation:
        return Valuation(self._names, self._index, tuple(v.initial for v in self.variables))

    def initial_environment(self) -> Environment:
        return Environment(self.initial_valuation(), frozenset(self._names))

    def render_value(self, name: str, value: int) -> str:
        decl = self.var_map.get(name)
        if decl is None:
            return str(value)
        return decl.domain.render(value)

    def all_valuations(self) -> Iterator[Valuation]:
        """Every total valuation over the declared domains, in lexicographic order."""
        for values in itertools.product(*(v.domain.values() for v in self.variables)):
            yield Valuation(self._names, self._index, values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Declarations):
            return NotImplemented
        return self.variables == other.variables and self.channels == other.channels

    def __hash__(self) -> int:
        return hash((self.variables, self.channels))
