"""Exception types shared across the toolkit."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class Diagnostic:
    """A positioned message about a specification source file."""

    file: str
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}: {self.message}"


class CpdError(Exception):
    """Base class for all toolkit errors."""


class SpecError(CpdError):
    """A specification is malformed: syntax, unresolved names, class violations."""

    def __init__(self, diagnostics: Iterable[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics))

    @classmethod
    def single(cls, message: str, file: str = "<spec>", line: int = 0, column: int = 0) -> "SpecError":
        return cls([Diagnostic(file, line, column, message)])


class ModelError(CpdError):
    """A model misbehaved at run time, e.g. an update left a variable's domain."""


class BudgetError(CpdError):
    """State exploration exhausted its budget; results would be incomplete.
    The explorer adds how far it got: the states reached, the frontier (found
    but not yet expanded) and the breadth-first depth of the state expanded."""

    def __init__(self, budget: int, states: int | None = None,
                 frontier: int | None = None, depth: int | None = None):
        self.budget = budget
        self.states = states
        self.frontier = frontier
        self.depth = depth
        message = f"state budget exceeded: more than {budget} states reachable"
        if states is not None:
            message += f" (reached {states} states, frontier {frontier}, depth {depth})"
        super().__init__(message)


class SynthesisError(CpdError):
    """No supervisor exists for the given plant and requirements."""


class ObserverError(CpdError):
    """Safety verdicts are not a function of the variable valuation alone."""
