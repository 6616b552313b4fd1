"""Operational semantics: termination, transitions, and the completion renaming.

A configuration pairs a process term with an environment (valuation, written
set).  ``Engine.derive`` walks a term once under a valuation for both its
termination option and its steps.  A step carries its action, its residual
and its writes, a dict from each updated variable to its new value.  Guards
and updates read the source valuation and no step reads the source's written
set, so the walk builds no environment.  Synchronization on a shared channel
merges the two parties' writes when they agree on the names both write, and
adds up sender and receiver counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ModelError
from .terms import (
    Action,
    ActionSet,
    Alt,
    Channel,
    Deadlock,
    Declarations,
    Encap,
    Environment,
    Guard,
    Par,
    Prefix,
    ProcessTerm,
    Seq,
    Star,
    Termination,
    Valuation,
    eval_bool,
    eval_data,
    fold,
    subterms,
)


@dataclass(frozen=True)
class Configuration:
    term: ProcessTerm
    env: Environment


# a derived transition: action, residual term, values its updates write
Step = tuple[Action, ProcessTerm, dict[str, int]]


class Engine:
    """Derives transitions of configurations over the declared variables."""

    def __init__(self, declarations: Declarations):
        self.declarations = declarations

    def initial(self, term: ProcessTerm) -> Configuration:
        return Configuration(term, self.declarations.initial_environment())

    def terminates(self, conf: Configuration) -> bool:
        return self.derive(conf.term, conf.env.alpha)[0]

    def step(self, conf: Configuration) -> list[tuple[Action, Configuration]]:
        alpha = conf.env.alpha
        return [(action, Configuration(term, Environment(alpha.assign(writes), frozenset(writes))))
                for action, term, writes in self.derive(conf.term, alpha)[1]]

    def derive(self, t: ProcessTerm, alpha: Valuation) -> tuple[bool, list[Step]]:
        """The termination option and the steps of ``t`` under ``alpha``, in
        one walk that loops over ``+`` spines and the right spine of ``.``."""
        if isinstance(t, Par):
            left_ends, left = self.derive(t.left, alpha)
            right_ends, right = self.derive(t.right, alpha)
            out = [(action, Par(residual, t.right), writes) for action, residual, writes in left]
            out.extend((action, Par(t.left, residual), writes)
                       for action, residual, writes in right)
            for la, lt, lw in left:
                for ra, rt, rw in right:
                    # parties synchronize when they agree on the names both write
                    if la.channel != ra.channel or any(
                            rw.get(name, value) != value for name, value in lw.items()):
                        continue
                    action = Action(
                        la.channel, la.senders + ra.senders, la.receivers + ra.receivers
                    )
                    out.append((action, Par(lt, rt), {**lw, **rw}))
            return left_ends and right_ends, out
        if isinstance(t, Encap):
            ends, steps = self.derive(t.body, alpha)
            return ends, [(action, Encap(t.blocked, residual), writes)
                          for action, residual, writes in steps if action not in t.blocked]
        if isinstance(t, Prefix):
            writes: dict[str, int] = {}
            for name, expr in t.update:
                value = eval_data(alpha, expr)
                domain = self.declarations.var_map[name].domain
                if value not in domain:
                    raise ModelError(
                        f"update of '{name}' to {value} leaves domain {domain} "
                        f"on action {t.action}"
                    )
                writes[name] = value
            return False, [(t.action, t.cont, writes)]
        if isinstance(t, Guard):
            if eval_bool(alpha, t.condition):
                return self.derive(t.body, alpha)
            return False, []
        if isinstance(t, Alt):
            ends = False
            out = []
            stack = [t]
            while stack:
                s = stack.pop()
                if isinstance(s, Alt):
                    stack.append(s.right)
                    stack.append(s.left)
                else:
                    summand_ends, steps = self.derive(s, alpha)
                    ends = ends or summand_ends
                    out.extend(steps)
            return ends, out
        if isinstance(t, Seq):
            out = []
            while isinstance(t, Seq):
                left_ends, steps = self.derive(t.left, alpha)
                out.extend((action, Seq(residual, t.right), writes)
                           for action, residual, writes in steps)
                if not left_ends:
                    return False, out
                t = t.right
            ends, steps = self.derive(t, alpha)
            out.extend(steps)
            return ends, out
        if isinstance(t, Star):
            steps = self.derive(t.body, alpha)[1]
            return True, [(action, Seq(residual, t), writes) for action, residual, writes in steps]
        if isinstance(t, Termination):
            return True, []
        if isinstance(t, Deadlock):
            return False, []
        raise TypeError(f"not a process term: {t!r}")


# ---------------------------------------------------------------------------
# completion renaming: close controllable receives so that the supervised and
# the unsupervised behaviours carry comparable labels

def xi_action_set(blocked: ActionSet) -> ActionSet:
    actions: set[Action] = set()
    for a in blocked.actions:
        if not a.channel.controllable:
            actions.add(a)
        elif a.senders == 0:
            actions.add(Action(a.channel, 1, a.receivers))
        # controllable entries with senders cannot label any plant transition
        # and must not block completed receives: dropped
    incomplete: set[tuple[Channel, int]] = set()
    completed_incomplete: set[tuple[Channel, int]] = set()
    for channel, total in blocked.incomplete:
        if channel.controllable:
            completed_incomplete.add((channel, total))
        else:
            incomplete.add((channel, total))
    for channel, total in blocked.completed_incomplete:
        if not channel.controllable:
            completed_incomplete.add((channel, total))
    return ActionSet(
        frozenset(actions), frozenset(incomplete), frozenset(completed_incomplete)
    )


def _xi_node(t: ProcessTerm, kids: list[ProcessTerm]) -> ProcessTerm:
    if isinstance(t, Prefix):
        a = t.action
        if a.channel.controllable:
            a = Action(a.channel, 1, a.receivers)
        return Prefix(a, t.update, *kids)
    if isinstance(t, Guard):
        return Guard(t.condition, *kids)
    if isinstance(t, Encap):
        return Encap(xi_action_set(t.blocked), *kids)
    return type(t)(*kids) if kids else t


def xi_rename(t: ProcessTerm) -> ProcessTerm:
    """Rename every controllable receive c?_n into the completed c!?_n.

    Defined on plant-form terms: controllable prefixes must be receives."""
    for s in subterms(t):
        if isinstance(s, Prefix) and s.action.channel.controllable and s.action.senders != 0:
            raise ModelError(
                f"completion renaming needs a plant-form term; "
                f"found controllable send {s.action}"
            )
    return fold(t, _xi_node)
