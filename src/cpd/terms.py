"""Abstract syntax of communicating processes with data.

Channels carry a controllability class.  Actions are communications ``c!_m?_n``
over a channel with m sender and n receiver parties.  Process terms follow the
grammar

    T ::= 0 | 1 | a[f].T | phi -> T | encap{H}(T) | T + T | T . T | T* | T || T

where f is a partial variable update and H a set of actions to block.  Data
values are integers; enumerated constants are integers with a printable name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Union

from .errors import SpecError


# ---------------------------------------------------------------------------
# channels and actions

@dataclass(frozen=True)
class Channel:
    name: str
    controllable: bool

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Action:
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

@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class EnumConst:
    """A named constant from an enumerated domain; behaves as its ordinal."""

    name: str
    value: int


@dataclass(frozen=True)
class VarRef:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - *
    left: "DataExpr"
    right: "DataExpr"


DataExpr = Union[IntLit, EnumConst, VarRef, BinOp]


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

@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class Cmp:
    op: str  # one of < <= = != >= >
    left: DataExpr
    right: DataExpr


@dataclass(frozen=True)
class Not:
    body: "BoolExpr"


@dataclass(frozen=True)
class And:
    left: "BoolExpr"
    right: "BoolExpr"


@dataclass(frozen=True)
class Or:
    left: "BoolExpr"
    right: "BoolExpr"


@dataclass(frozen=True)
class Imp:
    left: "BoolExpr"
    right: "BoolExpr"


BoolExpr = Union[BoolLit, Cmp, Not, And, Or, Imp]

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

@dataclass(frozen=True)
class UpdateMap:
    """Partial map from variable names to data expressions; order is source order."""

    entries: tuple[tuple[str, DataExpr], ...] = ()

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[str, DataExpr]]:
        return iter(self.entries)

    def domain(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.entries)


EMPTY_UPDATE = UpdateMap()


# ---------------------------------------------------------------------------
# action sets for encapsulation

@dataclass(frozen=True)
class ActionSet:
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

@dataclass(frozen=True)
class Deadlock:
    """0: no step and no termination."""


@dataclass(frozen=True)
class Termination:
    """1: successful termination, no step."""


@dataclass(frozen=True)
class Prefix:
    action: Action
    update: UpdateMap
    cont: "ProcessTerm"


@dataclass(frozen=True)
class Guard:
    condition: BoolExpr
    body: "ProcessTerm"


@dataclass(frozen=True)
class Encap:
    blocked: ActionSet
    body: "ProcessTerm"


@dataclass(frozen=True)
class Alt:
    left: "ProcessTerm"
    right: "ProcessTerm"


@dataclass(frozen=True)
class Seq:
    left: "ProcessTerm"
    right: "ProcessTerm"


@dataclass(frozen=True)
class Star:
    body: "ProcessTerm"


@dataclass(frozen=True)
class Par:
    left: "ProcessTerm"
    right: "ProcessTerm"


ProcessTerm = Union[Deadlock, Termination, Prefix, Guard, Encap, Alt, Seq, Star, Par]

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
# Workshop 2006): one table per process maps the key of a canonical node, its
# type, its non-term fields (action, update, condition, blocked set) and the
# ids of its canonical children, to an id.  Two terms have equal canonical
# forms exactly when their ids are equal, and a state key built on an id
# hashes in constant time instead of walking the term.
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
# instance attribute ``_cid``, which equality, hashing and repr ignore.  A
# successor built by a step shares everything but its spine with its source,
# so only the new spine nodes are normalized.  The cache dies with its term:
# a memo in a dict keyed by the term would keep every throwaway successor of
# an exploration alive.

_ids: dict[tuple, int] = {}


def _intern(key: tuple) -> int:
    return _ids.setdefault(key, len(_ids))


_TERMINATION_ID = _intern((Termination,))


def canonical_id(t: ProcessTerm) -> int:
    """Interned id of the canonical form of ``t``: equal exactly for terms
    with equal canonical forms within one process."""
    cid = t.__dict__.get("_cid")
    if cid is None:
        cid = _normalize(t)
        object.__setattr__(t, "_cid", cid)
    return cid


def _normalize(t: ProcessTerm) -> int:
    # the spine types a step rebuilds come first
    if isinstance(t, Par):
        return _intern((Par, canonical_id(t.left), canonical_id(t.right)))
    if isinstance(t, Encap):
        return _intern((Encap, t.blocked, canonical_id(t.body)))
    if isinstance(t, Prefix):
        return _intern((Prefix, t.action, t.update, canonical_id(t.cont)))
    if isinstance(t, Guard):
        return _intern((Guard, t.condition, canonical_id(t.body)))
    if isinstance(t, Star):
        return _intern((Star, canonical_id(t.body)))
    if isinstance(t, (Deadlock, Termination)):
        return _intern((type(t),))
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
        return _intern((Alt, *sorted(summands)))
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
            out = _intern((Seq, cid, out))
        return out
    raise TypeError(f"not a process term: {t!r}")


# ---------------------------------------------------------------------------
# syntactic classifiers

def plant_violations(t: ProcessTerm) -> list[str]:
    """Subterms breaking the plant class: controllable prefixes must be plain
    receives c?_n[f]; uncontrollable prefixes are unrestricted."""
    out: list[str] = []

    def walk(s: ProcessTerm) -> None:
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


def classify_plant(t: ProcessTerm) -> bool:
    return not plant_violations(t)


def supervisor_violations(t: ProcessTerm) -> list[str]:
    """Subterms breaking the supervisor class: only 1, guarded terms, sums,
    iteration, and update-free controllable sends c![].S are allowed."""
    out: list[str] = []

    def walk(s: ProcessTerm) -> None:
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
        if isinstance(s, Guard):
            walk(s.body)
            return
        if isinstance(s, Alt):
            walk(s.left)
            walk(s.right)
            return
        if isinstance(s, Star):
            walk(s.body)
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


def classify_supervisor(t: ProcessTerm) -> bool:
    return not supervisor_violations(t)


def free_variables(t: ProcessTerm) -> frozenset[str]:
    """Variables read by guards or updates, or written by updates."""
    if isinstance(t, (Deadlock, Termination)):
        return frozenset()
    if isinstance(t, Prefix):
        out = t.update.domain() | free_variables(t.cont)
        for _, expr in t.update:
            out |= expr_variables(expr)
        return out
    if isinstance(t, Guard):
        return bool_variables(t.condition) | free_variables(t.body)
    if isinstance(t, (Encap, Star)):
        return free_variables(t.body)
    if isinstance(t, (Alt, Seq, Par)):
        return free_variables(t.left) | free_variables(t.right)
    raise TypeError(f"not a process term: {t!r}")


# ---------------------------------------------------------------------------
# control requirements

@dataclass(frozen=True)
class EventImplies:
    """``a => phi``: the event may occur only in states satisfying phi."""

    action: Action
    condition: BoolExpr


@dataclass(frozen=True)
class StateExcludesEvent:
    """``phi => never a``: in states satisfying phi the event must be disabled."""

    condition: BoolExpr
    action: Action


@dataclass(frozen=True)
class Invariant:
    """``phi``: every reachable state must satisfy phi."""

    condition: BoolExpr


Requirement = Union[EventImplies, StateExcludesEvent, Invariant]


# ---------------------------------------------------------------------------
# variable declarations, valuations, environments

@dataclass(frozen=True)
class IntRange:
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


@dataclass(frozen=True)
class EnumDomain:
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


VarDomain = Union[IntRange, EnumDomain]


@dataclass(frozen=True)
class VariableDecl:
    name: str
    domain: VarDomain
    initial: int

    def __post_init__(self) -> None:
        if self.initial not in self.domain:
            raise SpecError.single(
                f"initial value {self.initial} outside domain {self.domain} of '{self.name}'"
            )


class Valuation(Mapping[str, int]):
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
        return Valuation(self._names, self._index, tuple(values))

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


@dataclass(frozen=True)
class Environment:
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

    def valuation(self, values: Mapping[str, int]) -> Valuation:
        return Valuation(self._names, self._index, tuple(values[n] for n in self._names))

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
        def rec(i: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
            if i == len(self.variables):
                yield tuple(acc)
                return
            for v in self.variables[i].domain.values():
                acc.append(v)
                yield from rec(i + 1, acc)
                acc.pop()

        for values in rec(0, []):
            yield Valuation(self._names, self._index, values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Declarations):
            return NotImplemented
        return self.variables == other.variables and self.channels == other.channels

    def __hash__(self) -> int:
        return hash((self.variables, self.channels))
