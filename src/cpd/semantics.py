"""Operational semantics: termination, transitions, and the completion renaming.

A configuration pairs a process term with an environment (valuation, written
set).  ``Engine.derive`` walks a term once under a valuation for both its
termination option and its steps.  A step carries its action, its residual
and its writes, a dict from each updated variable to its new value.  Guards
and updates read the source valuation and no step reads the source's written
set, so the walk builds no environment.

The ``||`` and ``encap`` rules have one implementation, ``Skeleton``.  It
splits a term into its skeleton, the tree of ``Par`` and ``Encap`` nodes at
the top, and its components, the maximal subterms below the skeleton that
are neither.  Steps never change the skeleton: a step of a ``Par`` rebuilds
the ``Par`` around its parties' residuals, and a step of an ``Encap`` keeps
its blocked set.  ``Skeleton.derive`` steps each component with
``Engine.derive`` and combines the steps bottom up.  A ``Par`` gives its
left steps, then its right steps, then the synchronizations of left and
right steps on one channel, in (left, right) order, where the parties agree
on the values of the names both write; a synchronization merges their
writes and adds up sender and receiver counts.  An ``Encap`` drops the
steps its blocked set holds.  ``explore`` keeps one skeleton for the root of
a run; ``Engine.derive`` builds one for each ``Par`` or ``Encap`` it meets
below a prefix, ``+``, ``.``, guard or star, and rebuilds each step's
residual around the skeleton.

No spine is walked by recursion: ``Engine.derive`` loops over ``+`` spines,
the right spine of ``.`` and, through the skeleton, ``Par`` spines.  It
recurses into a guard's or star's body, each summand of a ``+``, each left
part of a ``.`` and each component of a skeleton, so its depth is the
nesting depth of alternating operators.
"""

from __future__ import annotations

from operator import itemgetter

from .errors import ModelError
from .records import Frozen
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
    canonical_id,
    eval_bool,
    eval_data,
    fold,
    read_variables,
    subterms,
)


class Configuration(Frozen):
    term: ProcessTerm
    env: Environment


# a derived transition: action, residual term, values its updates write
Step = tuple[Action, ProcessTerm, dict[str, int]]


class Engine:
    """Derives transitions of configurations over the declared variables.

    The residual of a ``.`` or ``*`` step is a ``Seq`` of the part's residual
    and the rest, and the engine builds one ``Seq`` object per pair of
    argument objects.  A starred component that moves then has the same
    residual object at every state, so a step table keyed by the component
    object hits for it: on a cell whose process ``(u![x1 := 1].1 + ... +
    1)*`` reads no variables, that position's table holds 2 entries over the
    cell's 81 states.  The raw terms are the same, so printed output does
    not change."""

    def __init__(self, declarations: Declarations):
        self.declarations = declarations
        # the Seq(residual, right) built for a pair of objects; an entry
        # holds both, so their ids are not reused while it lives
        self.seqs: dict[tuple[int, int], Seq] = {}

    def seq(self, left: ProcessTerm, right: ProcessTerm) -> Seq:
        """``Seq(left, right)``, one object per pair of argument objects."""
        out = self.seqs.get((id(left), id(right)))
        if out is None:
            out = self.seqs[id(left), id(right)] = Seq(left, right)
        return out

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
        one walk that loops over ``+`` spines and the right spine of ``.``;
        a ``Par`` or ``Encap`` is stepped through its ``Skeleton``."""
        if isinstance(t, (Par, Encap)):
            skeleton = Skeleton(t, self, alpha)
            ends, steps = skeleton.derive(skeleton.components, alpha)
            return ends, [(skeleton.actions[a], skeleton.rebuild(t, changes), writes)
                          for a, writes, changes in steps]
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
                out.extend((action, self.seq(residual, t.right), writes)
                           for action, residual, writes in steps)
                if not left_ends:
                    return False, out
                t = t.right
            ends, steps = self.derive(t, alpha)
            out.extend(steps)
            return ends, out
        if isinstance(t, Star):
            steps = self.derive(t.body, alpha)[1]
            return True, [(action, self.seq(residual, t), writes)
                          for action, residual, writes in steps]
        if isinstance(t, Termination):
            return True, []
        if isinstance(t, Deadlock):
            return False, []
        raise TypeError(f"not a process term: {t!r}")


# a step of the skeleton pass: its action's index, the values it writes, and
# the (position, residual, residual id) of each component it changes
VectorStep = tuple[int, dict[str, int], tuple[tuple[int, ProcessTerm, int], ...]]


class Skeleton:
    """The ``Par``/``Encap`` tree above a term's components, their step
    tables, and the pass that combines table entries into the steps of the
    whole term: the ``||`` and ``encap`` rules.

    Nodes are numbered in pre-order, so a node's number is below its
    children's.  ``nodes[k]`` is ``(Par, left, right, shared channels, memo
    of synchronized actions)``, ``(Encap, body, blocked, memo of blocked
    actions)`` or ``(None,)`` at a component.

    A step carries its action as an index into ``actions``, the distinct
    actions in the order the skeleton first meets them, and channels are
    numbered likewise.  The memos, the shared channel sets and ``explore``'s
    edges read ints; only a new table entry or synchronization hashes one."""

    def __init__(self, term: ProcessTerm, engine: Engine, alpha: Valuation):
        self.engine = engine
        self.nodes: list[tuple] = [()]
        self.components: list[ProcessTerm] = []
        # each position's node
        self.leaves: list[int] = []
        # each position's route from the root: the field taken at each node
        self.routes: list[tuple[str, ...]] = []
        stack: list[tuple[ProcessTerm, int, tuple[str, ...]]] = [(term, 0, ())]
        while stack:
            t, k, route = stack.pop()
            first = len(self.nodes)
            if isinstance(t, Par):
                self.nodes[k] = (Par, first, first + 1)
                self.nodes += [(), ()]
                stack.append((t.right, first + 1, route + ("right",)))
                stack.append((t.left, first, route + ("left",)))
            elif isinstance(t, Encap):
                self.nodes[k] = (Encap, first, t.blocked, {})
                self.nodes.append(())
                stack.append((t.body, first, route + ("body",)))
            else:
                self.nodes[k] = (None,)
                self.components.append(t)
                self.leaves.append(k)
                self.routes.append(route)

        # the numbers of the channels a subtree can ever step on: residuals
        # are built from subterms of the initial components, so a Par
        # synchronizes only on channels both sides have
        self.channels: dict[Channel, int] = {}
        channels: list[set[int]] = [set() for _ in self.nodes]
        for position, k in enumerate(self.leaves):
            channels[k] = {self.channels.setdefault(s.action.channel, len(self.channels))
                           for s in subterms(self.components[position])
                           if isinstance(s, Prefix)}
        for k in reversed(range(len(self.nodes))):
            node = self.nodes[k]
            if node[0] is Par:
                channels[k] = channels[node[1]] | channels[node[2]]
                self.nodes[k] = node + (channels[node[1]] & channels[node[2]], {})
            elif node[0] is Encap:
                channels[k] = channels[node[1]]
        self.internal = [k for k in reversed(range(len(self.nodes)))
                         if self.nodes[k][0] is not None]

        # a step table per position, keyed by the component term object and
        # the values of the variables the position's initial term reads;
        # an entry keeps its term alive so that its id is not reused
        order = {name: i for i, name in enumerate(alpha)}
        self.reads = []
        for component in self.components:
            at = sorted(order[name] for name in read_variables(component) if name in order)
            self.reads.append(itemgetter(*at) if at else _no_values)
        self.tables: list[dict[tuple, tuple]] = [{} for _ in self.components]
        # the distinct actions met, their indices, and each index's channel
        # number and sort key
        self.actions: list[Action] = []
        self.index: dict[Action, int] = {}
        self.channel_of: list[int] = []
        self.keys: list[tuple] = []

    def derive(self, components: tuple[ProcessTerm, ...],
               alpha: Valuation) -> tuple[bool, list[VectorStep]]:
        """The termination option and the steps of the term with these
        components under ``alpha``."""
        ends: list = [None] * len(self.nodes)
        steps: list = [None] * len(self.nodes)
        values = alpha.values_tuple
        for position, component in enumerate(components):
            key = (id(component), self.reads[position](values))
            table = self.tables[position]
            entry = table.get(key)
            if entry is None:
                entry = table[key] = self._entry(position, component, alpha)
            k = self.leaves[position]
            ends[k] = entry[1]
            steps[k] = entry[2]
        for k in self.internal:
            node = self.nodes[k]
            if node[0] is Par:
                _, l, r, shared, synced = node
                left, right = steps[l], steps[r]
                ends[k] = ends[l] and ends[r]
                out = left + right
                if shared and left and right:
                    self._synchronize(left, right, shared, synced, out)
                steps[k] = out
            else:
                _, body, blocked, memo = node
                ends[k] = ends[body]
                out = []
                for step in steps[body]:
                    hit = memo.get(step[0])
                    if hit is None:
                        hit = memo[step[0]] = self.actions[step[0]] in blocked
                    if not hit:
                        out.append(step)
                steps[k] = out
        return ends[0], steps[0]

    def _synchronize(self, left: list[VectorStep], right: list[VectorStep],
                     shared: set[int], synced: dict[tuple[int, int], int],
                     out: list[VectorStep]) -> None:
        """Append the synchronizations of left and right steps on a shared
        channel, in (left, right) order, where the parties agree on the
        values of the names both write."""
        channel_of = self.channel_of
        partners: dict[int, list[VectorStep]] = {}
        for step in right:
            channel = channel_of[step[0]]
            if channel in shared:
                partners.setdefault(channel, []).append(step)
        if not partners:
            return
        for la, lw, lc in left:
            for ra, rw, rc in partners.get(channel_of[la], ()):
                if any(rw.get(name, value) != value for name, value in lw.items()):
                    continue
                a = synced.get((la, ra))
                if a is None:
                    x, y = self.actions[la], self.actions[ra]
                    a = synced[la, ra] = self._number(Action(
                        x.channel, x.senders + y.senders, x.receivers + y.receivers))
                out.append((a, {**lw, **rw}, lc + rc))

    def _entry(self, position: int, component: ProcessTerm, alpha: Valuation) -> tuple:
        ends, steps = self.engine.derive(component, alpha)
        return component, ends, [
            (self._number(action), writes, ((position, residual, canonical_id(residual)),))
            for action, residual, writes in steps]

    def _number(self, action: Action) -> int:
        """The index of ``action``, numbering it if it is new."""
        a = self.index.get(action)
        if a is None:
            a = self.index[action] = len(self.actions)
            self.actions.append(action)
            self.channel_of.append(self.channels[action.channel])
            self.keys.append(action.sort_key())
        return a

    def fill(self, components: tuple[ProcessTerm, ...]) -> ProcessTerm:
        """The term with these components in the skeleton, built bottom up."""
        built: list = [None] * len(self.nodes)
        for k, component in zip(self.leaves, components):
            built[k] = component
        for k in self.internal:
            node = self.nodes[k]
            if node[0] is Par:
                built[k] = Par(built[node[1]], built[node[2]])
            else:
                built[k] = Encap(node[2], built[node[1]])
        return built[0]

    def rebuild(self, term: ProcessTerm,
                changes: tuple[tuple[int, ProcessTerm, int], ...]) -> ProcessTerm:
        """``term`` with the changed components replaced: the nodes on the
        paths from the root to them are new, every other subtree is shared."""
        for position, residual, _ in changes:
            above = []
            for name in self.routes[position]:
                above.append(term)
                term = getattr(term, name)
            term = residual
            for name, t in zip(reversed(self.routes[position]), reversed(above)):
                if name == "body":
                    term = Encap(t.blocked, term)
                elif name == "left":
                    term = Par(term, t.right)
                else:
                    term = Par(t.left, term)
        return term


def _no_values(values: tuple[int, ...]) -> tuple[()]:
    return ()


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
