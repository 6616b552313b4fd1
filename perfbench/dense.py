"""The data-heavy synthesis workload and the bench's own guard evaluator.

The generated spec has four variables over 1..3 (81 valuations), one
uncontrollable process that sets any variable to any value on the single
channel ``u`` (12 successors per valuation, all 81 valuations reachable),
and one controllable process offering ``g1..g4``.  Command ``gj`` may happen
only where ``f_j`` holds, and ``f_j`` is a union of three random cubes.

The three cubes of one ``f_j`` constrain disjoint variables (two, one and
one of the four), each to one random value.  A union of cubes over disjoint
variables has exactly those cubes as its prime implicants, so the minimal
guard always has 4 literals and the amount of work does not depend on the
seed; the seed only moves which valuations are allowed.

Guards emitted by cpd are checked here with a small parser of the guard
syntax, against the generator's own cube sets, not with cpd's evaluator.
"""

from __future__ import annotations

import itertools
import random
import re

VARIABLES = tuple(f"x{i}" for i in range(1, 5))
DOMAIN = (1, 2, 3)
COMMANDS = tuple(f"g{j}" for j in range(1, 5))

Cube = dict[str, int]


def dense_cubes(seed: int) -> list[list[Cube]]:
    """Per command, three cubes over disjoint variables (sizes 2, 1, 1)."""
    rng = random.Random(seed)
    out = []
    for _ in COMMANDS:
        order = list(VARIABLES)
        rng.shuffle(order)
        supports = (order[0:2], order[2:3], order[3:4])
        out.append([{v: rng.choice(DOMAIN) for v in sorted(s)} for s in supports])
    return out


def _cube_text(cube: Cube) -> str:
    return " /\\ ".join(f"{v} = {k}" for v, k in cube.items())


def dense_text(cubes: list[list[Cube]]) -> str:
    """Source text of the spec for the given per-command cube sets."""
    lines = ["controllable " + ", ".join(COMMANDS) + ";", "uncontrollable u;", ""]
    lines += [f"var {v} : {DOMAIN[0]}..{DOMAIN[-1]} = {DOMAIN[0]};" for v in VARIABLES]
    lines.append("")
    setters = " + ".join(f"u![{v} := {k}].1" for v in VARIABLES for k in DOMAIN)
    lines.append(f"process Env = ({setters} + 1)*;")
    offers = " + ".join(f"{g}?.1" for g in COMMANDS)
    lines.append(f"process Ctl = ({offers} + 1)*;")
    lines.append("process Cell = Env || Ctl;")
    lines.append("plant Cell;")
    lines.append("")
    for g, f in zip(COMMANDS, cubes):
        lines.append(f"requirement {g}!? => " + " \\/ ".join(_cube_text(c) for c in f) + ";")
    return "\n".join(lines) + "\n"


def valuations():
    for values in itertools.product(DOMAIN, repeat=len(VARIABLES)):
        yield dict(zip(VARIABLES, values))


def holds(cubes: list[Cube], valuation: dict[str, int]) -> bool:
    return any(all(valuation[v] == k for v, k in c.items()) for c in cubes)


# ---------------------------------------------------------------------------
# guard text: formula := conj ('\/' conj)*, conj := atom ('/\' atom)*,
# atom := '(' formula ')' | 'not' atom | 'true' | 'false' | NAME op INT

_TOKEN = re.compile(r"\s*(\\/|/\\|!=|<=|>=|[()=<>]|[A-Za-z_][A-Za-z0-9_]*|\d+)")
_CMP = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot read guard at {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_guard(text: str):
    """The guard as a predicate over a valuation dict, and its literal count."""
    toks = _tokens(text)
    pos = 0
    literals = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"guard {text!r}: expected {expected or 'more'}, got {tok!r}")
        pos += 1
        return tok

    def formula():
        parts = [conj()]
        while peek() == "\\/":
            take()
            parts.append(conj())
        return parts[0] if len(parts) == 1 else (lambda v: any(p(v) for p in parts))

    def conj():
        parts = [atom()]
        while peek() == "/\\":
            take()
            parts.append(atom())
        return parts[0] if len(parts) == 1 else (lambda v: all(p(v) for p in parts))

    def atom():
        nonlocal literals
        tok = take()
        if tok == "(":
            inner = formula()
            take(")")
            return inner
        if tok == "not":
            body = atom()
            return lambda v: not body(v)
        if tok in ("true", "false"):
            const = tok == "true"
            return lambda v: const
        op = take()
        if op not in _CMP:
            raise ValueError(f"guard {text!r}: {op!r} is not a comparison")
        value = int(take())
        literals += 1
        cmp = _CMP[op]
        return lambda v: cmp(v[tok], value)

    pred = formula()
    if peek() is not None:
        raise ValueError(f"guard {text!r}: trailing {peek()!r}")
    return pred, literals


def guard_matches(text: str, cubes: list[Cube]) -> bool:
    """True iff the guard text agrees with the cube union on all valuations."""
    pred, _ = parse_guard(text)
    return all(pred(v) == holds(cubes, v) for v in valuations())
