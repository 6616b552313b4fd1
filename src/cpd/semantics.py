"""Operational semantics: termination, transitions, and the completion renaming.

A configuration pairs a process term with an environment (valuation, written
set).  ``Engine.step`` derives the outgoing transitions of a configuration;
``Engine.terminates`` decides its termination option.  Synchronization on a
shared channel merges the two parties' writes when they agree on the overlap,
and adds up sender and receiver counts.
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
    eval_bool,
    eval_data,
    fold,
    subterms,
)


@dataclass(frozen=True)
class Configuration:
    term: ProcessTerm
    env: Environment


# a derived transition before packaging: action, residual term, new environment
_Step = tuple[Action, ProcessTerm, Environment]


class Engine:
    """Derives transitions of configurations over the declared variables."""

    def __init__(self, declarations: Declarations):
        self.declarations = declarations

    def initial(self, term: ProcessTerm) -> Configuration:
        return Configuration(term, self.declarations.initial_environment())

    def terminates(self, conf: Configuration) -> bool:
        return self._terminates(conf.term, conf.env)

    def _terminates(self, t: ProcessTerm, env: Environment) -> bool:
        if isinstance(t, Termination):
            return True
        if isinstance(t, (Deadlock, Prefix)):
            return False
        if isinstance(t, Guard):
            return eval_bool(env.alpha, t.condition) and self._terminates(t.body, env)
        if isinstance(t, Encap):
            return self._terminates(t.body, env)
        if isinstance(t, Alt):
            return self._terminates(t.left, env) or self._terminates(t.right, env)
        if isinstance(t, Seq):
            return self._terminates(t.left, env) and self._terminates(t.right, env)
        if isinstance(t, Star):
            return True
        if isinstance(t, Par):
            return self._terminates(t.left, env) and self._terminates(t.right, env)
        raise TypeError(f"not a process term: {t!r}")

    def step(self, conf: Configuration) -> list[tuple[Action, Configuration]]:
        return [
            (action, Configuration(term, env))
            for action, term, env in self._step(conf.term, conf.env)
        ]

    def _step(self, t: ProcessTerm, env: Environment) -> list[_Step]:
        if isinstance(t, (Deadlock, Termination)):
            return []
        if isinstance(t, Prefix):
            new_values: dict[str, int] = {}
            for name, expr in t.update:
                value = eval_data(env.alpha, expr)
                domain = self.declarations.var_map[name].domain
                if value not in domain:
                    raise ModelError(
                        f"update of '{name}' to {value} leaves domain {domain} "
                        f"on action {t.action}"
                    )
                new_values[name] = value
            new_env = Environment(env.alpha.assign(new_values), t.update.domain())
            return [(t.action, t.cont, new_env)]
        if isinstance(t, Guard):
            if eval_bool(env.alpha, t.condition):
                return self._step(t.body, env)
            return []
        if isinstance(t, Encap):
            return [
                (action, Encap(t.blocked, residual), new_env)
                for action, residual, new_env in self._step(t.body, env)
                if action not in t.blocked
            ]
        if isinstance(t, Alt):
            return self._step(t.left, env) + self._step(t.right, env)
        if isinstance(t, Seq):
            out: list[_Step] = [
                (action, Seq(residual, t.right), new_env)
                for action, residual, new_env in self._step(t.left, env)
            ]
            if self._terminates(t.left, env):
                out.extend(self._step(t.right, env))
            return out
        if isinstance(t, Star):
            return [
                (action, Seq(residual, t), new_env)
                for action, residual, new_env in self._step(t.body, env)
            ]
        if isinstance(t, Par):
            left_steps = self._step(t.left, env)
            right_steps = self._step(t.right, env)
            out = [
                (action, Par(residual, t.right), new_env)
                for action, residual, new_env in left_steps
            ]
            out.extend(
                (action, Par(t.left, residual), new_env)
                for action, residual, new_env in right_steps
            )
            for la, lt, le in left_steps:
                for ra, rt, re_ in right_steps:
                    if la.channel != ra.channel:
                        continue
                    shared = le.rho & re_.rho
                    if any(le.alpha[x] != re_.alpha[x] for x in shared):
                        continue
                    merged = le.alpha.assign({x: re_.alpha[x] for x in re_.rho - le.rho})
                    action = Action(
                        la.channel, la.senders + ra.senders, la.receivers + ra.receivers
                    )
                    out.append((action, Par(lt, rt), Environment(merged, le.rho | re_.rho)))
            return out
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
