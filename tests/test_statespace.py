"""Reachability graph construction, budgets, coreachability, exports."""

import gc
import json
import random

import pytest

from cpd.control import renamed_plant
from cpd.errors import BudgetError
from cpd.models import load
from cpd.parser import parse
from cpd.ppf import instantiate_ppf
from cpd.semantics import Configuration, Engine
from cpd.statespace import DEFAULT_BUDGET, StateSpace, coreachable, explore, export
from cpd.terms import (
    DEADLOCK,
    TERMINATION,
    Declarations,
    Environment,
    Valuation,
    receive,
    send,
)

from gen import REL_CHANNELS, REL_DECLS, random_graph_space, random_small_space
from oracles import (
    action_succ,
    bfs_parents_oracle,
    coreachable_oracle,
    numbered_space,
    shortest_trail_oracle,
    tree_trail,
)

EMPTY = Declarations(variables=(), channels=())


def bare(term, decls=EMPTY, **kw):
    return explore(Engine(decls).initial(term), decls, **kw)


class TestExplore:
    def test_deadlock_is_one_unmarked_state(self):
        ss = bare(DEADLOCK)
        assert len(ss) == 1
        assert ss.transitions == []
        assert ss.marked == set()

    def test_termination_is_one_marked_state(self):
        ss = bare(TERMINATION)
        assert len(ss) == 1
        assert ss.marked == {0}

    def test_initial_is_zero(self):
        assert bare(TERMINATION).initial == 0

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            bare(TERMINATION, budget=0)

    def test_budget_exceeded_raises(self):
        spec = instantiate_ppf(1, [1])
        eng = Engine(spec.declarations)
        with pytest.raises(BudgetError) as exc:
            explore(eng.initial(spec.plant), spec.declarations, budget=1)
        assert exc.value.budget == 1
        assert "state budget exceeded" in str(exc.value)

    def test_unlimited_budget_allowed(self):
        spec = instantiate_ppf(1, [1])
        eng = Engine(spec.declarations)
        ss = explore(eng.initial(spec.plant), spec.declarations, budget=None)
        assert len(ss) == 144

    def test_deterministic_numbering(self):
        rng = random.Random(7)
        for _ in range(20):
            ss = random_small_space(rng)
            again = explore(ss.states[ss.initial], ss.declarations)
            assert len(again) == len(ss)
            assert again.transitions == ss.transitions
            assert again.marked == ss.marked
            # each distinct action is numbered once, in the same order
            assert again.actions == ss.actions
            assert len(set(ss.actions)) == len(ss.actions)

    def test_no_per_state_configuration_is_kept(self):
        # a state's Configuration, Environment and Valuation are built when
        # it is read, so an explored space keeps none of them alive
        def alive():
            gc.collect()
            return sum(isinstance(o, (Configuration, Environment, Valuation))
                       for o in gc.get_objects())

        spec = load("ppf_1_1")
        root = renamed_plant(spec)
        before = alive()
        ss = explore(root, spec.declarations)
        assert len(ss) > 100
        assert alive() == before
        assert ss.states[len(ss) - 1].env.alpha.values_tuple == ss.values[-1]

    def test_outgoing_edges_sorted_by_action(self):
        rng = random.Random(11)
        for _ in range(20):
            ss = random_small_space(rng)
            for edges in ss.succ:
                keys = [ss.actions[a].sort_key() for a, _ in edges]
                assert keys == sorted(keys)

    def test_succ_agrees_with_transitions(self):
        rng = random.Random(13)
        ss = random_small_space(rng)
        flat = [(src, ss.actions[a], dst) for src, edges in enumerate(ss.succ)
                for a, dst in edges]
        assert flat == ss.transitions

    def test_written_set_identity_flag(self):
        sp = parse(
            "controllable a, b;\nvar x : 1..2 = 1;\n"
            "process P = a?[x := 1].1 + b?.1;\nplant P;", "t.cpd")
        eng = Engine(sp.declarations)
        merged = explore(eng.initial(sp.plant), sp.declarations)
        split = explore(eng.initial(sp.plant), sp.declarations, rho_in_identity=True)
        assert len(merged) == 2
        assert len(split) == 3


class TestTraces:
    def test_trace_to_initial_is_empty(self):
        assert bare(TERMINATION).trace_to(0) == []

    def test_trace_lengths_are_shortest(self):
        rng = random.Random(21)
        for _ in range(30):
            ss = random_small_space(rng)
            for s in range(len(ss)):
                shortest = shortest_trail_oracle(ss, s)
                assert shortest is not None
                assert len(ss.trace_to(s)) == len(shortest)

    def test_trace_follows_real_transitions(self):
        rng = random.Random(23)
        for _ in range(10):
            ss = random_small_space(rng)
            edges = set(ss.transitions)
            parents = bfs_parents_oracle(ss)
            for s in range(len(ss)):
                cur = s
                while parents[cur] is not None:
                    src, action = parents[cur]
                    assert (src, action, cur) in edges
                    cur = src
                assert cur == ss.initial
                assert ss.trace_to(s) == tree_trail(parents, s)

    def test_hand_built_graphs_rooted_anywhere(self):
        # graphs not numbered in discovery order, with any initial state: a
        # trail is spelled by a walk along real edges, is a shortest one, and
        # a state the initial one does not reach has none
        rng = random.Random(29)
        actions = [send(c) for c in REL_CHANNELS] + [receive(c) for c in REL_CHANNELS]
        for _ in range(200):
            drawn = random_graph_space(rng, actions, rng.randint(1, 8), sinks=0.2)
            ss = numbered_space(REL_DECLS, drawn.states, rng.randrange(len(drawn)),
                                drawn.marked, action_succ(drawn))
            succ = action_succ(ss)
            for s in range(len(ss)):
                shortest = shortest_trail_oracle(ss, s)
                if shortest is None:
                    with pytest.raises(ValueError):
                        ss.trace_to(s)
                    continue
                trail = ss.trace_to(s)
                assert len(trail) == len(shortest)
                ends = {ss.initial}
                for action in trail:
                    ends = {dst for state in ends for a, dst in succ[state] if a == action}
                assert s in ends

    def test_trails_in_any_order_from_one_tree_per_space(self):
        # the first trail derives the space's tree and later ones walk it:
        # every state's trail, asked in a shuffled order with repeats, is the
        # oracle tree's; an unreachable or out-of-range state raises with the
        # tree in place; a copy with another initial state gets its own tree
        rng = random.Random(37)
        actions = [send(c) for c in REL_CHANNELS] + [receive(c) for c in REL_CHANNELS]

        def assert_trails(ss):
            parents = bfs_parents_oracle(ss)
            order = [*range(len(ss)), *range(len(ss)), -1, len(ss)]
            rng.shuffle(order)
            for s in order:
                if s in parents:
                    assert ss.trace_to(s) == tree_trail(parents, s)
                else:
                    with pytest.raises(ValueError):
                        ss.trace_to(s)

        for _ in range(200):
            drawn = random_graph_space(rng, actions, rng.randint(1, 8), sinks=0.2)
            ss = numbered_space(REL_DECLS, drawn.states, rng.randrange(len(drawn)),
                                drawn.marked, action_succ(drawn))
            assert "_tree" not in ss.__dict__
            assert_trails(ss)
            moved = StateSpace(**{**{name: getattr(ss, name) for name in ss._fields},
                                  "initial": rng.randrange(len(ss))})
            assert "_tree" not in moved.__dict__
            assert_trails(moved)
            assert_trails(ss)


class TestCoreachable:
    def test_matches_oracle(self):
        rng = random.Random(31)
        for _ in range(40):
            ss = random_small_space(rng)
            assert coreachable(ss) == coreachable_oracle(ss)

    def test_marked_always_coreachable(self):
        rng = random.Random(33)
        ss = random_small_space(rng)
        assert ss.marked <= coreachable(ss)


class TestExport:
    def space(self):
        sp = parse(
            "controllable a;\nuncontrollable u;\nvar m : {off, on} = off;\n"
            "process P = a?[m := on].u!.1;\nplant P;", "t.cpd")
        eng = Engine(sp.declarations)
        return explore(eng.initial(sp.plant), sp.declarations)

    def test_dot_counts(self):
        ss = self.space()
        dot = export(ss, "dot")
        assert dot.count("->") == len(ss.transitions) + 1  # init arrow
        assert dot.count("peripheries=2") == len(ss.marked)
        assert "m=on" in dot

    def test_json_schema(self):
        ss = self.space()
        doc = json.loads(export(ss, "json"))
        assert set(doc) == {"states", "transitions", "initial"}
        assert doc["initial"] == 0
        assert len(doc["states"]) == len(ss)
        assert [s["id"] for s in doc["states"]] == list(range(len(ss)))
        assert doc["states"][0]["alpha"] == {"m": "off"}
        assert doc["states"][1]["alpha"] == {"m": "on"}
        marked = [s["id"] for s in doc["states"] if s["marked"]]
        assert set(marked) == ss.marked
        for t, (src, action, dst) in zip(doc["transitions"], ss.transitions):
            assert (t["src"], t["channel"], t["m"], t["n"], t["dst"]) == (
                src, action.channel.name, action.senders, action.receivers, dst)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            export(self.space(), "svg")


class TestBudgetDefault:
    def test_default_is_a_million(self):
        assert DEFAULT_BUDGET == 1_000_000
