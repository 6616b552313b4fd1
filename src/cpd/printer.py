"""Rendering of expressions, action sets, and process terms back to source syntax.

Every printer inserts parentheses so that re-parsing its output yields a
structurally identical tree.  Operator binding strength, loosest first:

    data      +/-  <  *  <  atom
    formulas  =>  <  \\/  <  /\\  <  not  <  atom
    terms     ||  <  +  <  ->  <  .  <  atom
"""

from __future__ import annotations

from .terms import (
    Action,
    ActionSet,
    Alt,
    And,
    BinOp,
    BoolExpr,
    BoolLit,
    Cmp,
    DataExpr,
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
    Prefix,
    ProcessTerm,
    Requirement,
    Seq,
    Star,
    StateExcludesEvent,
    Termination,
    UpdateMap,
    VarRef,
    fold,
)

# data expression levels
_ADD = 0
_MUL = 1
_DATOM = 2


def data_to_str(e: DataExpr, level: int = _ADD) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, (VarRef, EnumConst)):
        return e.name
    if isinstance(e, BinOp):
        own = _MUL if e.op == "*" else _ADD
        # left associative: the right operand needs one level more binding
        text = f"{data_to_str(e.left, own)} {e.op} {data_to_str(e.right, own + 1)}"
        return f"({text})" if own < level else text
    raise TypeError(f"not a data expression: {e!r}")


# formula levels
_IMP = 0
_OR = 1
_AND = 2
_NOT = 3
_BATOM = 4


def bool_to_str(phi: BoolExpr, level: int = _IMP) -> str:
    if isinstance(phi, BoolLit):
        return "true" if phi.value else "false"
    if isinstance(phi, Cmp):
        return f"{data_to_str(phi.left)} {phi.op} {data_to_str(phi.right)}"
    if isinstance(phi, Not):
        text = f"not {bool_to_str(phi.body, _NOT)}"
        return f"({text})" if _NOT < level else text
    if isinstance(phi, (And, Or, Imp)):
        if isinstance(phi, Imp):
            own, op = _IMP, "=>"
            # right associative
            text = f"{bool_to_str(phi.left, own + 1)} {op} {bool_to_str(phi.right, own)}"
        else:
            own, op = (_AND, "/\\") if isinstance(phi, And) else (_OR, "\\/")
            text = f"{bool_to_str(phi.left, own)} {op} {bool_to_str(phi.right, own + 1)}"
        return f"({text})" if own < level else text
    raise TypeError(f"not a formula: {phi!r}")


def update_to_str(update: UpdateMap) -> str:
    inner = ", ".join(f"{name} := {data_to_str(expr)}" for name, expr in update.entries)
    return f"[{inner}]"


def actionset_to_str(blocked: ActionSet) -> str:
    parts = [a.format() for a in sorted(blocked.actions, key=Action.sort_key)]
    parts += [
        f"incomplete({ch.name}, {total})"
        for ch, total in sorted(blocked.incomplete, key=lambda p: (p[0].name, p[1]))
    ]
    parts += [
        f"incomplete({ch.name}!, {total})"
        for ch, total in sorted(blocked.completed_incomplete, key=lambda p: (p[0].name, p[1]))
    ]
    return "{" + ", ".join(parts) + "}"


# term levels
_PAR = 0
_ALT = 1
_GUARD = 2
_SEQ = 3
_TATOM = 4


def _wrap(kid: tuple[str, int], level: int) -> str:
    text, own = kid
    return f"({text})" if own < level else text


def _term_node(t: ProcessTerm, kids: list[tuple[str, int]]) -> tuple[str, int]:
    """The text of ``t`` and its binding strength, from its children's."""
    if isinstance(t, Deadlock):
        return "0", _TATOM
    if isinstance(t, Termination):
        return "1", _TATOM
    if isinstance(t, Prefix):
        head = t.action.format()
        if len(t.update):
            head += update_to_str(t.update)
        return f"{head}.{_wrap(kids[0], _SEQ)}", _SEQ
    if isinstance(t, Guard):
        return f"{bool_to_str(t.condition)} -> {_wrap(kids[0], _GUARD)}", _GUARD
    if isinstance(t, Encap):
        return f"encap {actionset_to_str(t.blocked)} ({kids[0][0]})", _TATOM
    if isinstance(t, Alt):
        return f"{_wrap(kids[0], _ALT)} + {_wrap(kids[1], _ALT + 1)}", _ALT
    if isinstance(t, Seq):
        # right associative: keep the left operand atomic
        return f"{_wrap(kids[0], _TATOM)}.{_wrap(kids[1], _SEQ)}", _SEQ
    if isinstance(t, Star):
        return f"{_wrap(kids[0], _TATOM)}*", _TATOM
    return f"{_wrap(kids[0], _PAR)} || {_wrap(kids[1], _PAR + 1)}", _PAR


def term_to_str(t: ProcessTerm) -> str:
    return fold(t, _term_node)[0]


def requirement_to_str(r: Requirement) -> str:
    if isinstance(r, EventImplies):
        return f"{r.action.format()} => {bool_to_str(r.condition)}"
    if isinstance(r, StateExcludesEvent):
        return f"{bool_to_str(r.condition)} => never {r.action.format()}"
    if isinstance(r, Invariant):
        return bool_to_str(r.condition)
    raise TypeError(f"not a requirement: {r!r}")
