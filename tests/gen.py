"""Seeded random model generators for the property and acceptance suites."""

from __future__ import annotations

import random
import re

from cpd.control import operational_root
from cpd.errors import BudgetError
from cpd.parser import SystemSpec, parse
from cpd.semantics import Configuration
from cpd.statespace import StateSpace, explore
from cpd.terms import (
    Action,
    ActionSet,
    Alt,
    And,
    Channel,
    Cmp,
    DEADLOCK,
    Declarations,
    EMPTY_UPDATE,
    Encap,
    EventImplies,
    Guard,
    IntLit,
    IntRange,
    Invariant,
    Not,
    Or,
    Par,
    Prefix,
    Seq,
    Star,
    StateExcludesEvent,
    TERMINATION,
    UpdateMap,
    VarRef,
    VariableDecl,
    completed,
    par,
    receive,
    send,
)

from oracles import numbered_space


# ---------------------------------------------------------------------------
# closed terms for relation checking

REL_CHANNELS = (
    Channel("c", True),
    Channel("d", True),
    Channel("u", False),
)

REL_DECLS = Declarations(
    variables=(VariableDecl("x", IntRange(1, 2), 1),),
    channels=REL_CHANNELS,
)


def _rel_action(rng: random.Random):
    channel = rng.choice(REL_CHANNELS)
    kind = rng.randrange(3)
    if kind == 0:
        return send(channel)
    if kind == 1:
        return receive(channel)
    return completed(channel)


def random_term(rng: random.Random, depth: int = 3):
    """A closed process term over a tiny fixed alphabet; updates only assign
    in-domain literals so stepping never leaves a domain."""
    if depth <= 0:
        return rng.choice((DEADLOCK, TERMINATION, TERMINATION))
    roll = rng.randrange(10)
    if roll < 4:
        update = EMPTY_UPDATE
        if rng.randrange(4) == 0:
            update = UpdateMap((("x", IntLit(rng.randrange(1, 3))),))
        return Prefix(_rel_action(rng), update, random_term(rng, depth - 1))
    if roll < 6:
        return Alt(random_term(rng, depth - 1), random_term(rng, depth - 1))
    if roll < 7:
        return Seq(random_term(rng, depth - 1), random_term(rng, depth - 1))
    if roll < 8:
        guard = Cmp("=", VarRef("x"), IntLit(rng.randrange(1, 3)))
        return Guard(guard, random_term(rng, depth - 1))
    if roll < 9:
        return Star(random_term(rng, depth - 2))
    return Par(random_term(rng, depth - 1), random_term(rng, depth - 1))


def random_blocked(rng: random.Random) -> ActionSet:
    """A blocked set over the relation alphabet, with incomplete patterns."""
    channels = REL_CHANNELS
    actions = {Action(rng.choice(channels), m, n)
               for m, n in rng.sample([(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (1, 2)],
                                      rng.randrange(4))}
    incomplete = {(rng.choice(channels), rng.randrange(1, 4)) for _ in range(rng.randrange(3))}
    completed_incomplete = {(rng.choice(channels), rng.randrange(1, 4))
                            for _ in range(rng.randrange(3))}
    return ActionSet(frozenset(actions), frozenset(incomplete), frozenset(completed_incomplete))


def random_nested_encap(rng: random.Random, depth: int = 2):
    """An encapsulated ``||`` below a prefix, ``+`` or ``.``, in parallel
    with a term the outer ``||`` may synchronize it with.  ``random_term``
    never builds an ``Encap``."""
    inner = Encap(random_blocked(rng), Par(random_term(rng, depth), random_term(rng, depth)))
    roll = rng.randrange(4)
    if roll == 0:
        inner = Prefix(_rel_action(rng), EMPTY_UPDATE, inner)
    elif roll == 1:
        inner = Alt(random_term(rng, depth), inner)
    elif roll == 2:
        inner = Seq(inner, random_term(rng, depth))
    else:
        inner = Seq(random_term(rng, depth), inner)
    return Par(inner, random_term(rng, depth))


def random_small_space(rng: random.Random, max_states: int = 6):
    """A state space of at most max_states states, resampling until one fits."""
    while True:
        term = random_term(rng)
        root = Configuration(term, REL_DECLS.initial_environment())
        try:
            return explore(root, REL_DECLS, budget=max_states)
        except BudgetError:
            continue


def random_graph_space(rng: random.Random, actions, states: int = 6,
                       sinks: float = 0.0) -> StateSpace:
    """A state space drawn as a graph, not explored from a term, so marks
    fall anywhere: each state is marked with probability 1/2, has no edges
    with probability ``sinks``, and otherwise one to three distinct edges on
    ``actions`` to random states, in the order an explored space keeps."""
    succ = []
    for _ in range(states):
        edges = set()
        if rng.random() >= sinks:
            for _ in range(rng.randint(1, 3)):
                edges.add((rng.choice(actions), rng.randrange(states)))
        succ.append(sorted(edges, key=lambda e: (e[0].sort_key(), e[1])))
    marked = {s for s in range(states) if rng.random() < 0.5}
    return numbered_space(REL_DECLS, [None] * states, 0, marked, succ)


def doubled_pair(rng: random.Random, actions, states: int = 6):
    """A graph space with at most one edge per action at each state, and its
    doubled copy.  State s of the left has the copies s and s + ``states`` on
    the right, both with the mark of s, and each left edge on an action to t
    becomes, at each copy, an edge on that action to t, to t + ``states`` or
    to both.  The product reaches only pairs of a state and one of its
    copies, which are bisimilar, so partial bisimulation removes no pair
    under any action set.  Each state is marked with probability 1/2 and has
    none to all of ``actions``."""
    def order(edges):
        return sorted(edges, key=lambda e: (e[0].sort_key(), e[1]))

    succ = [order((a, rng.randrange(states))
                  for a in rng.sample(actions, rng.randint(0, len(actions))))
            for _ in range(states)]
    marked = {s for s in range(states) if rng.random() < 0.5}
    copies = [order({(a, c) for a, t in edges
                     for c in rng.choice(((t,), (t + states,), (t, t + states)))})
              for edges in succ + succ]
    left = numbered_space(REL_DECLS, [None] * states, 0, marked, succ)
    right = numbered_space(REL_DECLS, [None] * 2 * states, 0,
                           marked | {s + states for s in marked}, copies)
    return left, right


def _chain(actions, copies, end):
    """``actions[0]`` then ... then ``actions[-1]`` then ``end``; each step
    has one summand per value in ``copies``, setting x to that value."""
    term = end
    for action in reversed(actions):
        steps = [Prefix(action, UpdateMap((("x", IntLit(v)),)), term) for v in copies]
        term = steps[0] if len(steps) == 1 else Alt(steps[0], steps[1])
    return term


# how the two chains of deep_failing_pair end: indices into its ends
DEEP_ENDS = {"termination": (0, 1), "last step": (2,),
             "extra on the right": (3,), "extra on the left": (4,)}


def deep_failing_pair(rng: random.Random, depth: int, end: str | None = None):
    """Explored spaces of two closed terms that agree on a chain of
    ``depth`` random steps and differ only after it: in termination, in the
    last step, or by one extra step on either side: ``end``, a key of
    ``DEEP_ENDS``, or at random.  Each side's steps set x to 1, to 2 or
    both, so a product pair on the chain has up to four parents and a
    failure at the end cascades through all of them back to the root: a
    failing play has ``depth + 1`` moves."""
    actions = [_rel_action(rng) for _ in range(depth)]
    last, other = rng.sample([send(c) for c in REL_CHANNELS], 2)
    ends = [
        (TERMINATION, DEADLOCK),
        (DEADLOCK, TERMINATION),
        (Prefix(last, EMPTY_UPDATE, TERMINATION), Prefix(other, EMPTY_UPDATE, TERMINATION)),
        (TERMINATION, Alt(TERMINATION, Prefix(last, EMPTY_UPDATE, TERMINATION))),
        (Alt(TERMINATION, Prefix(last, EMPTY_UPDATE, TERMINATION)), TERMINATION),
    ]
    if end is not None:
        ends = [ends[k] for k in DEEP_ENDS[end]]
    spaces = []
    for tail in rng.choice(ends):
        copies = rng.choice(((1,), (2,), (1, 2), (2, 1)))
        term = _chain(actions, copies, tail)
        root = Configuration(term, REL_DECLS.initial_environment())
        spaces.append(explore(root, REL_DECLS))
    return tuple(spaces)


# ---------------------------------------------------------------------------
# a data-heavy cell: few process terms, many valuations

DENSE_VARIABLES = ("x1", "x2", "x3", "x4")


def _dense_text(commands: str, requirements: tuple[str, ...] = ()) -> str:
    """A cell of four variables over 1..3 (81 valuations), an uncontrollable
    process whose twelve ``u!`` setters set any variable to any value, and a
    process offering ``commands``, the controllable ``g1..g4``."""
    setters = " + ".join(f"u![{v} := {k}].1" for v in DENSE_VARIABLES for k in (1, 2, 3))
    return "\n".join([
        "controllable g1, g2, g3, g4;",
        "uncontrollable u;",
        *(f"var {v} : 1..3 = 1;" for v in DENSE_VARIABLES),
        f"process Env = ({setters} + 1)*;",
        f"process Ctl = ({commands} + 1)*;",
        "process Cell = Env || Ctl;",
        "plant Cell;",
        *requirements,
    ]) + "\n"


def dense_spaces(rng: random.Random):
    """Explored (guarded, unguarded) plants of a data-heavy cell.  In the
    guarded plant each command is guarded by a random cube over one or two
    variables, as a synthesized supervisor would restrict it."""
    cubes = []
    for _ in range(4):
        support = sorted(rng.sample(DENSE_VARIABLES, rng.randint(1, 2)))
        cubes.append(" /\\ ".join(f"{v} = {rng.randint(1, 3)}" for v in support))
    out = []
    for guarded in (True, False):
        commands = " + ".join(
            (f"({cube}) -> " if guarded else "") + f"g{j}?.1"
            for j, cube in enumerate(cubes, 1))
        spec = parse(_dense_text(commands), "dense.cpd")
        out.append(explore(operational_root(spec), spec.declarations))
    return tuple(out)


def dense_spec(rng: random.Random) -> SystemSpec:
    """The data-heavy cell with unguarded commands and one requirement per
    command, ``gj!? => f_j``.  ``f_j`` is a union of cubes over disjoint
    supports that together cover all four variables, one random value per
    variable, so the cubes are its prime implicants and the synthesized
    guard of ``gj`` reads all four variables."""
    requirements = []
    for j in range(1, 5):
        order = list(DENSE_VARIABLES)
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(1, 4), rng.randint(1, 3)))
        supports = [sorted(order[a:b]) for a, b in zip([0, *cuts], [*cuts, 4])]
        formula = " \\/ ".join(
            " /\\ ".join(f"{v} = {rng.randint(1, 3)}" for v in support)
            for support in supports)
        requirements.append(f"requirement g{j}!? => {formula};")
    commands = " + ".join(f"g{j}?.1" for j in range(1, 5))
    return parse(_dense_text(commands, tuple(requirements)), "dense.cpd")


# ---------------------------------------------------------------------------
# random plants for synthesis testing
#
# Each parallel component owns its channels and mirrors its own control
# position in a dedicated variable that every prefix updates, so the variable
# valuation determines the whole term: safety verdicts are then functions of
# the valuation and synthesis cannot hit the observer error.


def random_plant_spec(rng: random.Random, max_components: int = 3) -> SystemSpec:
    n_comp = rng.randrange(1, max_components + 1)
    variables = []
    channels = []
    processes = {}
    component_terms = []
    controllable_by_comp = []

    for ci in range(n_comp):
        pos = f"p{ci}"
        ctrl = []
        unc = []
        for k in range(rng.randrange(1, 3)):
            ch = Channel(f"c{ci}_{k}", True)
            ctrl.append(ch)
            channels.append(ch)
        for k in range(rng.randrange(0, 2)):
            ch = Channel(f"u{ci}_{k}", False)
            unc.append(ch)
            channels.append(ch)
        controllable_by_comp.append(ctrl)

        branches = []
        next_pos = 2
        for _b in range(rng.randrange(1, 3)):
            length = rng.randrange(1, 4)
            cont = TERMINATION
            steps = []
            for si in range(length):
                if unc and rng.randrange(3) == 0:
                    action = send(rng.choice(unc))
                else:
                    action = receive(rng.choice(ctrl))
                steps.append(action)
            # positions: intermediate prefixes get fresh values, the final
            # one returns the component to its star root
            term = cont
            for si in reversed(range(length)):
                target = 1 if si == length - 1 else next_pos + si
                update = UpdateMap(((pos, IntLit(target)),))
                term = Prefix(steps[si], update, term)
            next_pos += max(0, length - 1)
            branches.append(term)
        domain_high = max(2, next_pos - 1)
        variables.append(VariableDecl(pos, IntRange(1, domain_high), 1))
        body = branches[0] if len(branches) == 1 else Alt(branches[0], branches[1])
        component_terms.append(Star(body))

    declarations = Declarations(variables=tuple(variables), channels=tuple(channels))
    plant = par(*component_terms)
    processes["Plant"] = plant

    requirements = []
    all_ctrl = [c for group in controllable_by_comp for c in group]
    all_unc = [c for c in channels if not c.controllable]

    def rand_formula():
        vd = rng.choice(variables)
        v = rng.randrange(1, vd.domain.high + 1)
        atom = Cmp(rng.choice(("=", "!=")), VarRef(vd.name), IntLit(v))
        if rng.randrange(3) == 0:
            vd2 = rng.choice(variables)
            v2 = rng.randrange(1, vd2.domain.high + 1)
            atom2 = Cmp("=", VarRef(vd2.name), IntLit(v2))
            return rng.choice((And, Or))(atom, atom2)
        return atom

    for _ in range(rng.randrange(1, 4)):
        kind = rng.randrange(4)
        if kind == 0:
            # keep the initial valuation safe: violating states need some
            # component away from its root position
            vd = rng.choice(variables)
            if vd.domain.high < 2:
                continue
            v = rng.randrange(2, vd.domain.high + 1)
            requirements.append(Invariant(Not(Cmp("=", VarRef(vd.name), IntLit(v)))))
        elif kind == 1 and all_ctrl:
            requirements.append(EventImplies(completed(rng.choice(all_ctrl)), rand_formula()))
        elif kind == 2 and all_ctrl:
            requirements.append(StateExcludesEvent(rand_formula(), completed(rng.choice(all_ctrl))))
        elif all_unc:
            requirements.append(EventImplies(send(rng.choice(all_unc)), rand_formula()))

    return SystemSpec(
        declarations=declarations,
        processes=processes,
        plant_name="Plant",
        supervisor_name=None,
        encapsulation=None,
        requirements=tuple(requirements),
    )


# ---------------------------------------------------------------------------
# requirement forms the random plants never draw

REQUIREMENT_EDGE_TEXTS = {
    # formulas over no variable, over one and over two; an event requirement
    # on go!?_2 while go!? is enabled, and one on stop!?, which never occurs
    "variables": "\n".join([
        "controllable go, idle, back, stop;",
        "uncontrollable u;",
        "var x : 1..3 = 1;",
        "var y : 1..2 = 1;",
        "process P = (go?[x := 2].back?[x := 1].1 + idle?[x := 3].1"
        " + u![y := 2].1 + u![y := 1].1 + 1)*;",
        "plant P;",
        "requirement true;",
        "requirement go!? => true;",
        "requirement false => never go!?;",
        "requirement not (x = 3);",
        "requirement back!? => y = 1;",
        "requirement go!?_2 => x = 2;",
        "requirement y = 2 => never stop!?;",
        "requirement go!? => x = 1 /\\ y = 1;",
    ]) + "\n",
    # no variables at all, so every projected key is the empty tuple
    "no_variables": "\n".join([
        "controllable go;",
        "uncontrollable u;",
        "process P = (go?.u!.1 + 1)*;",
        "plant P;",
        "requirement true;",
        "requirement go!? => true;",
        "requirement false => never go!?;",
        "requirement go!? => false;",
        "requirement go!?_2 => false;",
    ]) + "\n",
    "no_requirements": "\n".join([
        "controllable go;",
        "var x : 1..2 = 1;",
        "process P = (go?[x := 2].1 + 1)*;",
        "plant P;",
    ]) + "\n",
}


def requirement_edge_spec(name: str) -> SystemSpec:
    return parse(REQUIREMENT_EDGE_TEXTS[name], f"{name}.cpd")


# ---------------------------------------------------------------------------
# labelled valuations for guard minimization


def random_on_off(rng: random.Random, valuations, density: float | None = None,
                  relevant: list[int] | None = None):
    """Split ``valuations`` at random into an on-set and an off-set, each
    valuation drawing on, off or unlabelled with equal odds.  With
    ``density``, a valuation is labelled only with that probability; with
    ``relevant``, valuations that agree on those variable indices share the
    label drawn for the first of them."""
    on, off = set(), set()
    label: dict[tuple, int] = {}
    for v in valuations:
        if density is not None and rng.random() >= density:
            continue
        bucket = rng.randrange(3)
        if relevant is not None:
            bucket = label.setdefault(tuple(v.values_tuple[i] for i in relevant), bucket)
        if bucket < 2:
            (on, off)[bucket].add(v)
    return on, off


# ---------------------------------------------------------------------------
# token mutations of specification texts for the parser corpus

_LEXEME_RE = re.compile(r"\s+|#[^\n]*|\|\||:=|\.\.|->|=>|/\\|\\/|<=|>=|!=|\w+|.")
_MUTATION_TOKENS = ("(", ")", "->", "=>", "+", ".", "||", "*", "not", "never", "=",
                    "/\\", "\\/", ";", "!", "?", "0", "1", "[", "]", ":=", "true")


def mutated_spec_text(rng: random.Random, text: str, edits: int = 3) -> str:
    """``text`` after 1 to ``edits`` random token edits: delete a token,
    duplicate it, swap it with the next one, replace it by or put before it
    a token of the text or of ``_MUTATION_TOKENS``, or wrap a run of tokens
    in one to three pairs of parentheses."""
    for _ in range(rng.randint(1, edits)):
        pieces = _LEXEME_RE.findall(text)
        tokens = [i for i, p in enumerate(pieces) if not (p.isspace() or p.startswith("#"))]
        i = rng.choice(tokens)
        pool = _MUTATION_TOKENS + tuple(pieces[k] for k in rng.sample(tokens, 3))
        op = rng.randrange(6)
        if op == 0:
            pieces[i] = ""
        elif op == 1:
            pieces[i] += " " + pieces[i]
        elif op == 2:
            j = tokens[min(tokens.index(i) + 1, len(tokens) - 1)]
            pieces[i], pieces[j] = pieces[j], pieces[i]
        elif op == 3:
            pieces[i] = rng.choice(pool)
        elif op == 4:
            pieces[i] = rng.choice(pool) + " " + pieces[i]
        else:
            j = tokens[min(tokens.index(i) + rng.randint(0, 8), len(tokens) - 1)]
            depth = rng.randint(1, 3)
            pieces[i] = "(" * depth + " " + pieces[i]
            pieces[j] += " " + ")" * depth
        text = "".join(pieces)
    return text
