"""Tokenizer and parser for process specification files.

A specification file is a sequence of statements, each ended by ``;``:

    controllable NAME, NAME, ... ;
    uncontrollable NAME, ... ;
    var NAME : LOW..HIGH = INIT ;
    var NAME : {CONST, CONST, ...} = CONST ;
    process NAME = TERM ;
    plant NAME ;
    supervisor NAME ;
    encap { ACTIONSET } ;          # blocked set of the supervised composition
    requirement ACTION => FORMULA ;
    requirement FORMULA => never ACTION ;
    requirement FORMULA ;

Comments run from ``#`` to end of line.  Channels, processes, and data names
(variables together with enumeration constants) live in three separate
namespaces; every name must be declared before use.  Subscripted action
arities are written ``c!_2?_3``; a bare ``!`` or ``?`` means arity one.
Names consisting of an underscore followed by digits are reserved for these
subscripts and cannot be declared.  A token keeps only its start offset;
line and column are derived from it for diagnostics alone.
"""

from __future__ import annotations

import re
from bisect import bisect_right

from .errors import Diagnostic, SpecError
from .records import Frozen, Record
from .printer import (
    actionset_to_str,
    requirement_to_str,
    term_to_str,
)
from .terms import (
    Action,
    ActionSet,
    Alt,
    And,
    BinOp,
    BoolExpr,
    BoolLit,
    Channel,
    Cmp,
    DataExpr,
    Declarations,
    DEADLOCK,
    EMPTY_UPDATE,
    Encap,
    EnumConst,
    EnumDomain,
    EventImplies,
    Guard,
    Imp,
    IntLit,
    IntRange,
    Invariant,
    Not,
    Or,
    Par,
    Prefix,
    ProcessTerm,
    Requirement,
    Seq,
    Star,
    StateExcludesEvent,
    TERMINATION,
    UpdateMap,
    VarRef,
    VariableDecl,
    plant_violations,
    supervisor_violations,
)

KEYWORDS = frozenset(
    {
        "controllable",
        "uncontrollable",
        "var",
        "process",
        "plant",
        "supervisor",
        "encap",
        "requirement",
        "incomplete",
        "never",
        "not",
        "true",
        "false",
    }
)

_TOKEN_RE = re.compile(
    r"""
      (?P<skip>[ \t\r\n]+|\#[^\n]*)
    | (?P<sub>_[0-9]+(?![A-Za-z0-9_]))
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<int>[0-9]+)
    | (?P<sym>\|\||:=|\.\.|->|=>|/\\|\\/|<=|>=|!=|[;,:=(){}\[\]+\-*.<>!?])
    """,
    re.VERBOSE,
)


class Token(Frozen):
    """A lexeme and its start offset; a diagnostic derives line and column from it."""

    kind: str  # name, int, sub, sym, eof
    text: str
    offset: int


def _line_starts(text: str) -> list[int]:
    return [0, *(m.end() for m in re.finditer("\n", text))]


def _line_column(line_starts: list[int], offset: int) -> tuple[int, int]:
    """1-based line and column of ``offset``; a tab or ``\\r`` is one column."""
    line = bisect_right(line_starts, offset)
    return line, offset - line_starts[line - 1] + 1


def tokenize(text: str, filename: str = "<spec>") -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            line, column = _line_column(_line_starts(text), pos)
            raise SpecError([Diagnostic(filename, line, column, f"unexpected character {text[pos]!r}")])
        if m.lastgroup != "skip":  # whitespace and comments
            tokens.append(Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(Token("eof", "", pos))
    return tokens


class _ParseFail(Exception):
    """Internal: an uncommitted parse attempt failed; position may be rewound."""


class SystemSpec(Record):
    """A parsed specification: declarations, named processes, and the control problem."""

    declarations: Declarations
    processes: dict[str, ProcessTerm]
    plant_name: str
    supervisor_name: str | None = None
    encapsulation: ActionSet | None = None
    requirements: tuple[Requirement, ...] = ()

    @property
    def plant(self) -> ProcessTerm:
        return self.processes[self.plant_name]

    @property
    def supervisor(self) -> ProcessTerm | None:
        if self.supervisor_name is None:
            return None
        return self.processes[self.supervisor_name]


class Parser:
    def __init__(self, text: str, filename: str):
        self.text = text
        self.tokens = tokenize(text, filename)
        self.filename = filename
        self.line_starts: list[int] = []  # built by the first diagnostic
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []
        self.furthest: tuple[int, str] | None = None
        self.formulas: dict[int, tuple[BoolExpr | None, int, tuple[int, str] | None]] = {}
        self.channels: dict[str, Channel] = {}
        self.variables: list[VariableDecl] = []
        self.constants: dict[str, int] = {}
        self.processes: dict[str, ProcessTerm] = {}
        # channels, processes, and data names (variables plus enumeration
        # constants) live in separate namespaces; the grammar position always
        # picks the right one
        self.data_kinds: dict[str, str] = {}
        self.plant_name: str | None = None
        self.plant_tok: Token | None = None
        self.supervisor_name: str | None = None
        self.supervisor_tok: Token | None = None
        self.encapsulation: ActionSet | None = None
        self.requirements: list[Requirement] = []

    # -- token helpers ------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        # advance never moves past eof, so only a look ahead needs clamping
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1) if ahead else self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at_sym(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == "sym" and tok.text == text

    def at_keyword(self, word: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == "name" and tok.text == word

    def _fail(self, message: str, index: int | None = None) -> None:
        i = self.pos if index is None else index
        if self.furthest is None or i >= self.furthest[0]:
            self.furthest = (i, message)
        raise _ParseFail(message)

    def report(self, tok: Token, message: str) -> None:
        self.line_starts = self.line_starts or _line_starts(self.text)
        line, column = _line_column(self.line_starts, tok.offset)
        self.diagnostics.append(Diagnostic(self.filename, line, column, message))

    def expect_sym(self, text: str) -> Token:
        if not self.at_sym(text):
            self._fail(f"expected '{text}'")
        return self.advance()

    def identifier(self, what: str = "name") -> Token:
        tok = self.peek()
        if tok.kind != "name":
            self._fail(f"expected {what}")
        if tok.text in KEYWORDS:
            self._fail(f"'{tok.text}' is a keyword, expected {what}")
        return self.advance()

    def declare_data(self, tok: Token, kind: str) -> bool:
        prior = self.data_kinds.get(tok.text)
        if prior is not None:
            self.report(tok, f"name '{tok.text}' already declared as a {prior}")
            return False
        self.data_kinds[tok.text] = kind
        return True

    # -- statements ---------------------------------------------------------

    def run(self) -> SystemSpec | None:
        while self.peek().kind != "eof":
            self.furthest = None
            try:
                self.statement()
            except _ParseFail:
                index, message = self.furthest or (self.pos, "parse error")
                self.report(self.tokens[min(index, len(self.tokens) - 1)], message)
                self.synchronize()
        return self.finish()

    def synchronize(self) -> None:
        while self.peek().kind != "eof":
            tok = self.advance()
            if tok.kind == "sym" and tok.text == ";":
                return

    def statement(self) -> None:
        tok = self.peek()
        if self.at_keyword("controllable") or self.at_keyword("uncontrollable"):
            self.channel_statement()
        elif self.at_keyword("var"):
            self.var_statement()
        elif self.at_keyword("process"):
            self.process_statement()
        elif self.at_keyword("plant") or self.at_keyword("supervisor"):
            self.role_statement()
        elif self.at_keyword("encap"):
            self.encap_statement()
        elif self.at_keyword("requirement"):
            self.requirement_statement()
        else:
            self._fail("expected a declaration (controllable, uncontrollable, var, process, plant, supervisor, encap, or requirement)")

    def channel_statement(self) -> None:
        kw = self.advance()
        controllable = kw.text == "controllable"
        while True:
            tok = self.identifier("channel name")
            if tok.text in self.channels:
                self.report(tok, f"channel '{tok.text}' already declared")
            else:
                self.channels[tok.text] = Channel(tok.text, controllable)
            if not self.at_sym(","):
                break
            self.advance()
        self.expect_sym(";")

    def var_statement(self) -> None:
        self.advance()
        name_tok = self.identifier("variable name")
        self.expect_sym(":")
        domain = self.parse_domain()
        self.expect_sym("=")
        initial = self.parse_initial(domain)
        self.expect_sym(";")
        if not self.declare_data(name_tok, "variable"):
            return
        if isinstance(domain, EnumDomain):
            for const in domain.names:
                self.constants[const] = domain.ordinal(const)
        try:
            decl = VariableDecl(name_tok.text, domain, initial)
        except SpecError as err:
            self.report(name_tok, err.diagnostics[0].message)
            # keep the name visible so later references do not cascade
            if isinstance(domain, EnumDomain) and not domain.names:
                domain = EnumDomain(("_invalid",))
            decl = VariableDecl(name_tok.text, domain, next(iter(domain.values())))
        self.variables.append(decl)

    def parse_domain(self) -> IntRange | EnumDomain:
        tok = self.peek()
        if tok.kind == "int":
            low = int(self.advance().text)
            self.expect_sym("..")
            high_tok = self.peek()
            if high_tok.kind != "int":
                self._fail("expected the upper bound of the range")
            high = int(self.advance().text)
            if high < low:
                self.report(high_tok, f"empty range {low}..{high}")
                high = low
            return IntRange(low, high)
        if self.at_sym("{"):
            self.advance()
            names: list[str] = []
            while True:
                const_tok = self.identifier("enumeration constant")
                if self.declare_data(const_tok, "constant"):
                    names.append(const_tok.text)
                if not self.at_sym(","):
                    break
                self.advance()
            self.expect_sym("}")
            return EnumDomain(tuple(names))
        self._fail("expected a range LOW..HIGH or an enumeration {A, B, ...}")
        raise AssertionError  # unreachable

    def parse_initial(self, domain: IntRange | EnumDomain) -> int:
        tok = self.peek()
        if tok.kind == "int":
            return int(self.advance().text)
        if tok.kind == "name" and isinstance(domain, EnumDomain):
            const = self.identifier("initial value")
            if const.text not in domain.names:
                self.report(const, f"'{const.text}' is not a constant of {domain}")
                return 1
            return domain.ordinal(const.text)
        self._fail("expected an initial value")
        raise AssertionError  # unreachable

    def process_statement(self) -> None:
        self.advance()
        name_tok = self.identifier("process name")
        self.expect_sym("=")
        try:
            body = self.parse_term()
        except _ParseFail:
            # keep the name resolvable so later references don't cascade
            if name_tok.text not in self.processes:
                self.processes[name_tok.text] = DEADLOCK
            raise
        self.expect_sym(";")
        if name_tok.text in self.processes:
            self.report(name_tok, f"process '{name_tok.text}' already declared")
        else:
            self.processes[name_tok.text] = body

    def role_statement(self) -> None:
        kw = self.advance()
        name_tok = self.identifier("process name")
        self.expect_sym(";")
        if kw.text == "plant":
            if self.plant_name is not None:
                self.report(kw, "plant already declared")
                return
            self.plant_name = name_tok.text
            self.plant_tok = name_tok
        else:
            if self.supervisor_name is not None:
                self.report(kw, "supervisor already declared")
                return
            self.supervisor_name = name_tok.text
            self.supervisor_tok = name_tok

    def encap_statement(self) -> None:
        kw = self.advance()
        blocked = self.parse_actionset()
        self.expect_sym(";")
        if self.encapsulation is not None:
            self.report(kw, "encap already declared")
            return
        self.encapsulation = blocked

    def requirement_statement(self) -> None:
        self.advance()
        req = self.parse_requirement()
        self.expect_sym(";")
        self.requirements.append(req)

    def parse_requirement(self) -> Requirement:
        start = self.pos
        try:
            action = self.parse_action_literal()
            self.expect_sym("=>")
        except _ParseFail:
            self.pos = start
        else:
            condition = self.parse_formula()
            return EventImplies(action, condition)
        condition = self.parse_formula()
        if self.at_sym("=>"):
            self.advance()
            if not self.at_keyword("never"):
                self._fail("expected 'never'")
            self.advance()
            action = self.parse_action_literal()
            return StateExcludesEvent(condition, action)
        return Invariant(condition)

    # -- actions and action sets --------------------------------------------

    def parse_action_literal(self) -> Action:
        tok = self.peek()
        if tok.kind != "name" or tok.text in KEYWORDS:
            self._fail("expected a channel name")
        channel = self.channels.get(tok.text)
        if channel is None:
            self._fail(f"unknown channel '{tok.text}'")
        self.advance()
        senders = 0
        receivers = 0
        if self.at_sym("!"):
            self.advance()
            senders = 1
            if self.peek().kind == "sub":
                senders = int(self.advance().text[1:])
        if self.at_sym("?"):
            self.advance()
            receivers = 1
            if self.peek().kind == "sub":
                receivers = int(self.advance().text[1:])
        if senders == 0 and receivers == 0:
            self._fail(f"action on '{tok.text}' needs a ! or ? decoration")
        return Action(channel, senders, receivers)

    def parse_actionset(self) -> ActionSet:
        self.expect_sym("{")
        actions: set[Action] = set()
        incomplete: set[tuple[Channel, int]] = set()
        completed_incomplete: set[tuple[Channel, int]] = set()
        if not self.at_sym("}"):
            while True:
                if self.at_keyword("incomplete"):
                    self.advance()
                    self.expect_sym("(")
                    ch_tok = self.identifier("channel name")
                    channel = self.channels.get(ch_tok.text)
                    if channel is None:
                        self._fail(f"unknown channel '{ch_tok.text}'", self.pos - 1)
                    completed = False
                    if self.at_sym("!"):
                        self.advance()
                        completed = True
                    self.expect_sym(",")
                    total_tok = self.peek()
                    if total_tok.kind != "int":
                        self._fail("expected the complete party count")
                    total = int(self.advance().text)
                    if total < 1:
                        self.report(total_tok, "party count must be at least 1")
                    self.expect_sym(")")
                    if completed:
                        completed_incomplete.add((channel, total))
                    else:
                        incomplete.add((channel, total))
                else:
                    actions.add(self.parse_action_literal())
                if not self.at_sym(","):
                    break
                self.advance()
        self.expect_sym("}")
        return ActionSet(
            frozenset(actions), frozenset(incomplete), frozenset(completed_incomplete)
        )

    # -- data expressions -----------------------------------------------------

    def parse_data(self) -> DataExpr:
        left = self.parse_mul()
        while self.at_sym("+") or self.at_sym("-"):
            op = self.advance().text
            left = BinOp(op, left, self.parse_mul())
        return left

    def parse_mul(self) -> DataExpr:
        left = self.parse_datom()
        while self.at_sym("*"):
            self.advance()
            left = BinOp("*", left, self.parse_datom())
        return left

    def parse_datom(self) -> DataExpr:
        tok = self.peek()
        if tok.kind == "int":
            return IntLit(int(self.advance().text))
        if tok.kind == "name" and tok.text not in KEYWORDS:
            if self.data_kinds.get(tok.text) == "variable":
                self.advance()
                return VarRef(tok.text)
            if tok.text in self.constants:
                self.advance()
                return EnumConst(tok.text, self.constants[tok.text])
            self._fail(f"unknown variable or constant '{tok.text}'")
        if self.at_sym("("):
            self.advance()
            inner = self.parse_data()
            self.expect_sym(")")
            return inner
        self._fail("expected a data expression")
        raise AssertionError  # unreachable

    # -- formulas -------------------------------------------------------------

    def parse_formula(self) -> BoolExpr:
        """A formula from the current token, parsed once per start token:
        guards and parenthesised terms try a formula before every term, so
        without the memo nested parentheses are re-parsed cubically.  An
        entry keeps the result (None for a failure), the end position and
        the furthest failure seen inside the call, which a hit replays."""
        start = self.pos
        entry = self.formulas.get(start)
        if entry is None:
            outer, self.furthest = self.furthest, None
            try:
                formula = self.parse_or()
                # a requirement tail 'FORMULA => never ACTION' ends the formula here
                if self.at_sym("=>") and not (
                    self.peek(1).kind == "name" and self.peek(1).text == "never"
                ):
                    self.advance()
                    formula = Imp(formula, self.parse_formula())
            except _ParseFail:
                formula = None
            entry = self.formulas[start] = (formula, self.pos, self.furthest)
            self.furthest = outer
        formula, self.pos, inner = entry
        if inner is not None and (self.furthest is None or inner[0] >= self.furthest[0]):
            self.furthest = inner
        if formula is None:
            raise _ParseFail(inner[1])
        return formula

    def parse_or(self) -> BoolExpr:
        left = self.parse_and()
        while self.at_sym("\\/"):
            self.advance()
            left = Or(left, self.parse_and())
        return left

    def parse_and(self) -> BoolExpr:
        left = self.parse_not()
        while self.at_sym("/\\"):
            self.advance()
            left = And(left, self.parse_not())
        return left

    def parse_not(self) -> BoolExpr:
        if self.at_keyword("not"):
            self.advance()
            return Not(self.parse_not())
        return self.parse_batom()

    _CMP_OPS = ("<=", ">=", "!=", "<", ">", "=")

    def parse_batom(self) -> BoolExpr:
        if self.at_keyword("true"):
            self.advance()
            return BoolLit(True)
        if self.at_keyword("false"):
            self.advance()
            return BoolLit(False)
        start = self.pos
        try:
            left = self.parse_data()
            tok = self.peek()
            if tok.kind != "sym" or tok.text not in self._CMP_OPS:
                self._fail("expected a comparison operator")
            op = self.advance().text
            right = self.parse_data()
            return Cmp(op, left, right)
        except _ParseFail:
            self.pos = start
        if self.at_sym("("):
            self.advance()
            inner = self.parse_formula()
            self.expect_sym(")")
            return inner
        self._fail("expected a formula")
        raise AssertionError  # unreachable

    # -- process terms ----------------------------------------------------------

    def parse_term(self) -> ProcessTerm:
        left = self.parse_alt()
        while self.at_sym("||"):
            self.advance()
            left = Par(left, self.parse_alt())
        return left

    def parse_alt(self) -> ProcessTerm:
        left = self.parse_guarded()
        while self.at_sym("+"):
            self.advance()
            left = Alt(left, self.parse_guarded())
        return left

    def parse_guarded(self) -> ProcessTerm:
        start = self.pos
        try:
            condition = self.parse_formula()
            self.expect_sym("->")
        except _ParseFail:
            self.pos = start
            return self.parse_seq()
        return Guard(condition, self.parse_guarded())

    def parse_seq(self) -> ProcessTerm:
        elements = [self.parse_element()]
        while self.at_sym("."):
            self.advance()
            elements.append(self.parse_element())
        action_part, term_part, tail_index = elements[-1]
        if term_part is None:
            self._fail("an action prefix needs a continuation term", tail_index)
        acc = term_part
        for action_part, term_part, index in reversed(elements[:-1]):
            if term_part is None:
                action, update = action_part
                acc = Prefix(action, update, acc)
            else:
                acc = Seq(term_part, acc)
        return acc

    def parse_element(
        self,
    ) -> tuple[tuple[Action, UpdateMap] | None, ProcessTerm | None, int]:
        index = self.pos
        tok = self.peek()
        nxt = self.peek(1)
        if (
            tok.kind == "name"
            and tok.text not in KEYWORDS
            and nxt.kind == "sym"
            and nxt.text in ("!", "?")
        ):
            action = self.parse_action_literal()
            update = EMPTY_UPDATE
            if self.at_sym("["):
                update = self.parse_update()
            if self.at_sym("*"):
                self._fail("iteration applies to a process term, not an action")
            return ((action, update), None, index)
        term = self.parse_tatom()
        while self.at_sym("*"):
            self.advance()
            term = Star(term)
        return (None, term, index)

    def parse_tatom(self) -> ProcessTerm:
        tok = self.peek()
        if tok.kind == "int":
            if tok.text == "0":
                self.advance()
                return DEADLOCK
            if tok.text == "1":
                self.advance()
                return TERMINATION
            self._fail("expected a process term")
        if self.at_sym("("):
            self.advance()
            inner = self.parse_term()
            self.expect_sym(")")
            return inner
        if self.at_keyword("encap"):
            self.advance()
            blocked = self.parse_actionset()
            self.expect_sym("(")
            body = self.parse_term()
            self.expect_sym(")")
            return Encap(blocked, body)
        if tok.kind == "name" and tok.text not in KEYWORDS:
            body = self.processes.get(tok.text)
            if body is None:
                self._fail(f"unknown process '{tok.text}'")
            self.advance()
            return body
        self._fail("expected a process term")
        raise AssertionError  # unreachable

    def parse_update(self) -> UpdateMap:
        self.expect_sym("[")
        entries: list[tuple[str, DataExpr]] = []
        seen: set[str] = set()
        if not self.at_sym("]"):
            while True:
                name_tok = self.identifier("variable name")
                if self.data_kinds.get(name_tok.text) != "variable":
                    self._fail(f"unknown variable '{name_tok.text}'", self.pos - 1)
                if name_tok.text in seen:
                    self.report(name_tok, f"variable '{name_tok.text}' assigned twice")
                seen.add(name_tok.text)
                self.expect_sym(":=")
                entries.append((name_tok.text, self.parse_data()))
                if not self.at_sym(","):
                    break
                self.advance()
        self.expect_sym("]")
        return UpdateMap(tuple(entries))

    # -- final assembly -----------------------------------------------------

    def finish(self) -> SystemSpec | None:
        eof = self.tokens[-1]
        if self.plant_name is None:
            self.report(eof, "no plant declared")
        elif self.plant_name not in self.processes:
            assert self.plant_tok is not None
            self.report(self.plant_tok, f"unknown process '{self.plant_name}'")
            self.plant_name = None
        if self.supervisor_name is not None and self.supervisor_name not in self.processes:
            assert self.supervisor_tok is not None
            self.report(self.supervisor_tok, f"unknown process '{self.supervisor_name}'")
            self.supervisor_name = None
        if self.plant_name is not None:
            for message in plant_violations(self.processes[self.plant_name]):
                assert self.plant_tok is not None
                self.report(self.plant_tok, f"plant '{self.plant_name}': {message}")
        if self.supervisor_name is not None:
            for message in supervisor_violations(self.processes[self.supervisor_name]):
                assert self.supervisor_tok is not None
                self.report(self.supervisor_tok, f"supervisor '{self.supervisor_name}': {message}")
        if self.diagnostics:
            return None
        try:
            decls = Declarations(tuple(self.variables), tuple(self.channels.values()))
        except SpecError as err:
            self.diagnostics.extend(err.diagnostics)
            return None
        assert self.plant_name is not None
        return SystemSpec(
            declarations=decls,
            processes=self.processes,
            plant_name=self.plant_name,
            supervisor_name=self.supervisor_name,
            encapsulation=self.encapsulation,
            requirements=tuple(self.requirements),
        )


def parse(text: str, filename: str = "<spec>") -> SystemSpec:
    """Parse a specification; raises SpecError carrying diagnostics on failure."""
    parser = Parser(text, filename)
    spec = parser.run()
    if spec is None or parser.diagnostics:
        if not parser.diagnostics:
            parser.diagnostics.append(Diagnostic(filename, 1, 1, "empty specification"))
        raise SpecError(sorted(parser.diagnostics, key=lambda d: (d.line, d.column)))
    return spec


def print_spec(spec: SystemSpec) -> str:
    """Render a specification back to source syntax; parsing the output yields
    an equal SystemSpec (process bodies appear fully expanded)."""
    lines: list[str] = []
    for channel in spec.declarations.channels:
        kind = "controllable" if channel.controllable else "uncontrollable"
        lines.append(f"{kind} {channel.name};")
    for decl in spec.declarations.variables:
        initial = decl.domain.render(decl.initial)
        lines.append(f"var {decl.name} : {decl.domain} = {initial};")
    for name, body in spec.processes.items():
        lines.append(f"process {name} = {term_to_str(body)};")
    lines.append(f"plant {spec.plant_name};")
    if spec.supervisor_name is not None:
        lines.append(f"supervisor {spec.supervisor_name};")
    if spec.encapsulation is not None:
        lines.append(f"encap {actionset_to_str(spec.encapsulation)};")
    for req in spec.requirements:
        lines.append(f"requirement {requirement_to_str(req)};")
    return "\n".join(lines) + "\n"
