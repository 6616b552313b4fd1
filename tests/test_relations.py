"""Partial bisimulation: examples, random agreement with oracles, preorder laws."""

import random
from itertools import product
from pathlib import Path

import pytest

from cpd import relations
from cpd.control import renamed_plant, supervised_plant
from cpd.errors import SynthesisError
from cpd.ppf import instantiate_ppf
from cpd.models import load
from cpd.parser import parse
from cpd.relations import action_predicate, bisimilar, partial_bisim, simulated_by
from cpd.semantics import Engine
from cpd.statespace import StateSpace, explore
from cpd.synthesis import analyze, guards_from_space, integrate_supervisor
from cpd.terms import (
    Alt,
    DEADLOCK,
    EMPTY_UPDATE,
    Par,
    Prefix,
    TERMINATION,
    bool_variables,
    completed,
    send,
)

from gen import (
    DENSE_VARIABLES,
    REL_CHANNELS,
    REL_DECLS,
    deep_failing_pair,
    dense_spaces,
    dense_spec,
    doubled_pair,
    random_graph_space,
    random_plant_spec,
    random_small_space,
    random_term,
)
from oracles import (
    _in_b,
    _pair_ok,
    _tables,
    exhaustive_partial_bisim,
    gfp_partial_bisim,
    partial_bisim_oracle,
)

C, D, U = REL_CHANNELS
PERFBENCH_INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"


def space(t):
    return explore(Engine(REL_DECLS).initial(t), REL_DECLS)


def p(action, cont=TERMINATION):
    return Prefix(action, EMPTY_UPDATE, cont)


class TestExamples:
    def setup_method(self):
        self.one = space(p(send(C)))
        self.both = space(Alt(p(send(C)), Prefix(send(C), EMPTY_UPDATE, DEADLOCK)))

    def test_deterministic_into_branching_simulates(self):
        assert partial_bisim(self.one, self.both, "none").holds

    def test_branching_into_deterministic_fails(self):
        r = partial_bisim(self.both, self.one, "none")
        assert not r.holds
        assert r.counterexample.render(self.both, self.one) == (
            "at pair (left 0, right 0): left moves c!; "
            "every matching right move fails later\n"
            "at pair (left 2, right 1): termination differs "
            "(left unmarked, right marked)"
        )

    def test_backward_clause_sees_the_dropped_branch(self):
        r = partial_bisim(self.one, self.both, "all")
        assert not r.holds
        assert [(s.clause, s.action and s.action.format())
                for s in r.counterexample.steps] == [(3, "c!"), (1, None)]
        assert [a.format() for a in r.counterexample.trail()] == ["c!"]

    def test_equal_terms_fully_bisimilar(self):
        r = bisimilar(self.one, space(p(send(C))))
        assert r.holds and r.witness is not None

    def test_bisimilar_reports_failing_direction(self):
        sup = space(Alt(p(send(C)), p(send(D))))
        r = bisimilar(self.one, sup)
        assert not r.holds
        assert r.direction == "forward"
        r2 = bisimilar(sup, self.one)
        assert not r2.holds

    def test_simulated_by_is_the_empty_backward_set(self):
        a = space(p(send(C)))
        b = space(Alt(p(send(C)), p(send(D))))
        assert simulated_by(a, b).holds
        assert not simulated_by(b, a).holds


class TestActionPredicate:
    def test_strings(self):
        assert action_predicate("all")(send(C))
        assert not action_predicate("none")(send(C))
        unc = action_predicate("uncontrollable")
        assert unc(send(U)) and not unc(send(C))

    def test_explicit_collection_and_callable(self):
        only_c = action_predicate({send(C)})
        assert only_c(send(C)) and not only_c(send(D))
        assert action_predicate(lambda a: a.receivers > 0)(completed(C))

    def test_unknown_string_rejected(self):
        with pytest.raises(ValueError):
            action_predicate("some")

    def test_channel_names_rejected(self):
        # on the tampered cell a set of channel names used to match no
        # action and pass where "uncontrollable" fails
        spec = load("ppf_1_1_tampered")
        sup_ss = explore(supervised_plant(spec), spec.declarations)
        plant_ss = explore(renamed_plant(spec), spec.declarations)
        assert not partial_bisim(sup_ss, plant_ss, "uncontrollable").holds
        names = sorted(c.name for c in spec.declarations.channels if not c.controllable)
        with pytest.raises(ValueError, match=repr(names[0])):
            partial_bisim(sup_ss, plant_ss, names)
        actions = {a for _, a, _ in plant_ss.transitions if not a.controllable}
        assert not partial_bisim(sup_ss, plant_ss, actions).holds


class TestWitness:
    def check_is_partial_bisim(self, rel, left, right, b):
        lsucc, rsucc = _tables(left), _tables(right)
        in_b = _in_b(b)
        assert (left.initial, right.initial) in rel
        for pair in rel:
            assert _pair_ok(pair, rel, lsucc, rsucc,
                            left.marked, right.marked, in_b)

    def test_witness_is_a_real_relation(self):
        rng = random.Random(41)
        found = 0
        while found < 25:
            left = random_small_space(rng)
            right = random_small_space(rng)
            for b in ("none", "uncontrollable", "all"):
                r = partial_bisim(left, right, b)
                if r.holds:
                    found += 1
                    self.check_is_partial_bisim(r.witness, left, right, b)


class TestOracleAgreement:
    def test_matches_full_product_gfp(self):
        rng = random.Random(43)
        outcomes = {True: 0, False: 0}
        for _ in range(120):
            left = random_small_space(rng)
            right = random_small_space(rng)
            for b in ("none", "uncontrollable", "all"):
                got = partial_bisim(left, right, b).holds
                assert got == gfp_partial_bisim(left, right, b)
                outcomes[got] += 1
        assert outcomes[True] > 0 and outcomes[False] > 0

    def test_matches_exhaustive_subset_search(self):
        rng = random.Random(47)
        checked = 0
        while checked < 40:
            left = random_small_space(rng, max_states=3)
            right = random_small_space(rng, max_states=3)
            if len(left) * len(right) > 12:
                continue
            checked += 1
            for b in ("none", "all"):
                got = partial_bisim(left, right, b).holds
                assert got == exhaustive_partial_bisim(left, right, b)


BISIM_ACTIONS = ("none", "uncontrollable", "all")


def play_length(left, right, b):
    """Moves of the counterexample (0 when the relation holds), after
    checking verdict, witness and counterexample steps against the oracle."""
    got = partial_bisim(left, right, b)
    want = partial_bisim_oracle(left, right, b)
    assert (got.holds, got.witness) == (want.holds, want.witness)
    if got.holds:
        return 0
    assert got.counterexample.steps == want.counterexample.steps
    return len(got.counterexample.steps)


def supervised_and_plant(spec):
    syn = analyze(spec)
    sup = guards_from_space(spec, syn)
    supervised = explore(supervised_plant(integrate_supervisor(spec, sup)), spec.declarations)
    return supervised, syn.space


class TestMatchesStoredPredecessorOracle:
    def test_random_spaces(self):
        rng = random.Random(73)
        lengths = set()
        for _ in range(300):
            left = random_small_space(rng, max_states=30)
            right = random_small_space(rng, max_states=30)
            for b in BISIM_ACTIONS:
                lengths.add(play_length(left, right, b))
        assert 0 in lengths and 2 in lengths

    def test_deep_failing_plays(self):
        rng = random.Random(79)
        lengths = set()
        for _ in range(60):
            left, right = deep_failing_pair(rng, rng.randint(5, 8))
            for b in BISIM_ACTIONS:
                lengths.add(play_length(left, right, b))
        assert {6, 7, 8, 9} <= lengths

    def test_bundled_models(self):
        spaces = []
        for name in ("agv", "ppf_1_1", "ppf_1_1_tampered"):
            spec = load(name)
            spaces.append(explore(supervised_plant(spec), spec.declarations))
            spaces.append(explore(renamed_plant(spec), spec.declarations))
        lengths = {play_length(left, right, b)
                   for left in spaces for right in spaces for b in BISIM_ACTIONS}
        assert 0 in lengths and max(lengths) >= 5

    def test_synthesized_supervisors(self):
        specs = [parse(f.read_text(), f.name) for f in sorted(PERFBENCH_INPUTS.glob("*.cpd"))]
        rng = random.Random(97)
        while len(specs) < 17:
            spec = random_plant_spec(rng)
            try:
                analyze(spec)
            except SynthesisError:
                continue
            specs.append(spec)
        for spec in specs:
            supervised, plant = supervised_and_plant(spec)
            for b in BISIM_ACTIONS:
                assert play_length(supervised, plant, b) == 0 or b == "all"
                play_length(plant, supervised, b)

    def test_ppf_2_21(self):
        supervised, plant = supervised_and_plant(instantiate_ppf(2, [2, 1]))
        lengths = [play_length(supervised, plant, b) for b in BISIM_ACTIONS]
        assert lengths[:2] == [0, 0] and lengths[2] > 0
        assert all(play_length(plant, supervised, b) for b in BISIM_ACTIONS)

    def test_dense_cell(self):
        guarded, unguarded = dense_spaces(random.Random(83))
        lengths = [play_length(guarded, unguarded, b) for b in BISIM_ACTIONS]
        assert lengths[:2] == [0, 0] and lengths[2] > 0
        assert all(play_length(unguarded, guarded, b) for b in BISIM_ACTIONS)

    def test_synthesized_dense_cells(self):
        # each state has twelve u edges to nine distinct targets (a setter
        # that writes a variable's own value loops), so a left state meets
        # the same right targets from many partners
        rng = random.Random(101)
        for _ in range(3):
            spec = dense_spec(rng)
            syn = analyze(spec)
            sup = guards_from_space(spec, syn)
            for guard in sup.guards.values():
                assert bool_variables(guard) == set(DENSE_VARIABLES)
            supervised = explore(supervised_plant(integrate_supervisor(spec, sup)),
                                 spec.declarations)
            lengths = [play_length(supervised, syn.space, b) for b in BISIM_ACTIONS]
            assert lengths[:2] == [0, 0] and lengths[2] > 0
            assert all(play_length(syn.space, supervised, b) for b in BISIM_ACTIONS)


class TestCleanPairEdges:
    """The product search proves some pairs satisfied and the fixpoint skips
    them until a child is removed.  These spaces sit at the edges of that
    proof; the deep plays of ``test_deep_failing_plays`` cover the reopening
    of proved pairs by a removal far below them."""

    def plays(self, rng, lefts, rights, **kw):
        lengths = set()
        for _ in range(300):
            left = random_graph_space(rng, lefts, **kw)
            right = random_graph_space(rng, rights, **kw)
            for b in BISIM_ACTIONS:
                lengths.add(play_length(left, right, b))
        return lengths

    def test_targets_of_both_marks(self):
        lengths = self.plays(random.Random(103), (send(C), send(U)), (send(C), send(U)))
        assert {0, 1, 2, 3} <= lengths

    def test_states_without_edges(self):
        lengths = self.plays(random.Random(107), (send(C), send(U)), (send(C), send(U)),
                             sinks=0.5)
        assert {0, 1, 2, 3} <= lengths

    def test_b_actions_only_on_the_right(self):
        lengths = self.plays(random.Random(109), (send(C),), (send(C), send(U)))
        assert {0, 1, 2, 3} <= lengths


class Handover(Exception):
    """The ordered stage ran where the order-free one should decide."""


def order_free(monkeypatch):
    """Make the ordered stage raise ``Handover``."""
    def ordered(*args):
        raise Handover
    monkeypatch.setattr(relations, "_ordered", ordered)


def ordered_calls(monkeypatch) -> list:
    """One entry per run of the ordered stage from now on."""
    calls = []
    ordered = relations._ordered
    monkeypatch.setattr(relations, "_ordered", lambda *a: calls.append(a) or ordered(*a))
    return calls


def removes_nothing(left, right, want) -> bool:
    """Whether the oracle's result ``want`` keeps every product-reachable
    pair."""
    return want.holds and want.witness == reached_pairs(left, right)


def settles(left, right, b) -> bool:
    """Whether the order-free stage decides alone, with ``order_free`` in
    effect; it must decide exactly when the oracle removes no pair, and then
    give the oracle's verdict and witness."""
    want = partial_bisim_oracle(left, right, b)
    try:
        got = partial_bisim(left, right, b)
    except Handover:
        assert not removes_nothing(left, right, want)
        return False
    assert removes_nothing(left, right, want)
    assert (got.holds, got.witness, got.counterexample) == (True, want.witness, None)
    return True


def mixed_targets(ss, state) -> bool:
    """Whether the state has both marked and unmarked targets: a pair with
    it on the left is not clean, and passes its first check only while no
    child differs in marking."""
    return {dst in ss.marked for _, dst in ss.succ[state]} == {True, False}


class TestOrderFreeStage:
    """When the fixpoint would remove no pair, the order-free stage returns
    every reached pair without the ordered product search."""

    def test_synthesized_dense_cells(self, monkeypatch):
        order_free(monkeypatch)
        rng = random.Random(101)
        for _ in range(3):
            supervised, plant = supervised_and_plant(dense_spec(rng))
            for b in ("uncontrollable", "none"):
                assert settles(supervised, plant, b)

    def test_a_space_against_itself(self, monkeypatch):
        order_free(monkeypatch)
        spaces = list(supervised_and_plant(dense_spec(random.Random(101))))
        for name in ("agv", "ppf_1_1"):
            spec = load(name)
            spaces.append(explore(supervised_plant(spec), spec.declarations))
            spaces.append(explore(renamed_plant(spec), spec.declarations))
        rng = random.Random(113)
        spaces += [random_small_space(rng, max_states=30) for _ in range(40)]
        settled = [[settles(ss, ss, b) for b in BISIM_ACTIONS] for ss in spaces]
        # the u steps pair every state of a dense cell with every other: the
        # plant's states all allow the same commands, the supervised ones do
        # not, and those pairs are removed
        assert settled[0] == [False] * 3 and settled[1] == [True] * 3

    def test_doubled_spaces(self, monkeypatch):
        order_free(monkeypatch)
        rng = random.Random(127)
        unclean = 0
        for _ in range(200):
            left, right = doubled_pair(rng, (send(C), send(D), send(U)))
            for b in BISIM_ACTIONS:
                assert settles(left, right, b)
            unclean += any(mixed_targets(left, i) for i, _ in reached_pairs(left, right))
        assert unclean >= 50


class TestHandover:
    """A pair the fixpoint removes sends the call to the ordered stage,
    whose verdict, witness and counterexample the oracle fixes."""

    def check(self, calls, left, right, b) -> int:
        before = len(calls)
        length = play_length(left, right, b)
        want = partial_bisim_oracle(left, right, b)
        assert len(calls) - before == (not removes_nothing(left, right, want))
        return length

    def test_marking_differs_deep(self, monkeypatch):
        calls = ordered_calls(monkeypatch)
        rng = random.Random(131)
        for _ in range(20):
            depth = rng.randint(5, 8)
            left, right = deep_failing_pair(rng, depth, "termination")
            for b in BISIM_ACTIONS:
                assert self.check(calls, left, right, b) == depth + 1

    def test_unclean_pair_fails_its_first_check(self, monkeypatch):
        calls = ordered_calls(monkeypatch)
        rng = random.Random(137)
        lengths = set()
        for end in ("last step", "extra on the right", "extra on the left"):
            for _ in range(10):
                left, right = deep_failing_pair(rng, rng.randint(5, 8), end)
                for b in BISIM_ACTIONS:
                    lengths.add(self.check(calls, left, right, b))
        assert 0 in lengths and {6, 7, 8, 9} <= lengths

    def test_one_copy_differs(self, monkeypatch):
        # a copy that differs in marking or has lost its edges is removed,
        # and the relation can still hold through the other copy
        calls = ordered_calls(monkeypatch)
        rng = random.Random(139)
        outcomes = set()
        for _ in range(200):
            left, right = doubled_pair(rng, (send(C), send(D), send(U)))
            state = rng.choice(sorted({j for _, j in reached_pairs(left, right)}))
            if rng.randrange(2):
                right = replace(right, marked=right.marked ^ {state})
            else:
                right = replace(right, succ=[[] if s == state else edges
                                             for s, edges in enumerate(right.succ)])
            for b in BISIM_ACTIONS:
                before = len(calls)
                outcomes.add((self.check(calls, left, right, b) > 0, len(calls) > before))
        assert outcomes == {(False, False), (False, True), (True, True)}


def replace(ss, **changes):
    """A copy of the state space ``ss`` with the given fields changed."""
    return StateSpace(**{name: changes.get(name, getattr(ss, name)) for name in ss._fields})


def reached_pairs(left, right):
    """The product-reachable pairs."""
    lsucc, rsucc = _tables(left), _tables(right)
    root = (left.initial, right.initial)
    seen, stack = {root}, [root]
    while stack:
        i, j = stack.pop()
        for action, ltargets in lsucc[i].items():
            for child in product(ltargets, rsucc[j].get(action, ())):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
    return seen


def reached_states(left, right):
    """Left and right states of the product-reachable pairs."""
    seen = reached_pairs(left, right)
    return {i for i, _ in seen}, {j for _, j in seen}


def test_predicate_called_once_per_distinct_reached_action():
    spec = load("ppf_1_1")
    cases = [dense_spaces(random.Random(83)),
             (explore(supervised_plant(spec), spec.declarations),
              explore(renamed_plant(spec), spec.declarations)),
             (space(p(send(C))), space(Alt(p(send(C)), p(send(D), p(send(U))))))]
    unread = set()
    for left, right in cases:
        lstates, rstates = reached_states(left, right)
        actions = ({a for s in lstates for a, _ in left.succ[s]}
                   | {a for s in rstates for a, _ in right.succ[s]})
        calls = []
        partial_bisim(left, right, lambda a: calls.append(a) or not a.controllable)
        assert len(calls) == len(actions) and set(calls) == actions
        unread |= {a for ss in (left, right) for edges in ss.succ for a, _ in edges} - actions
    assert unread == {send(U)}  # only after d!, which no left state offers


class TestPreorderLaws:
    def test_reflexive(self):
        rng = random.Random(53)
        for _ in range(50):
            ss = random_small_space(rng)
            b = rng.choice(("none", "uncontrollable", "all"))
            assert partial_bisim(ss, ss, b).holds

    def test_transitive_along_growth_chains(self):
        # added alternatives start with a prefix so the root's termination
        # option is untouched; otherwise clause 1 already separates the terms
        rng = random.Random(59)
        for _ in range(50):
            t = random_term(rng)
            q = p(send(D), random_term(rng))
            r = p(send(U), random_term(rng))
            small, mid, big = space(t), space(Alt(t, q)), space(Alt(Alt(t, q), r))
            assert partial_bisim(small, mid, "none").holds
            assert partial_bisim(mid, big, "none").holds
            assert partial_bisim(small, big, "none").holds

    def test_transitive_in_general(self):
        rng = random.Random(61)
        seen = 0
        while seen < 30:
            a = random_small_space(rng)
            b = random_small_space(rng)
            c = random_small_space(rng)
            for bs in ("none", "uncontrollable", "all"):
                if (partial_bisim(a, b, bs).holds
                        and partial_bisim(b, c, bs).holds):
                    assert partial_bisim(a, c, bs).holds
                    seen += 1

    def test_larger_backward_sets_refine(self):
        rng = random.Random(67)
        for _ in range(80):
            left = random_small_space(rng)
            right = random_small_space(rng)
            if partial_bisim(left, right, "all").holds:
                assert partial_bisim(left, right, "uncontrollable").holds
            if partial_bisim(left, right, "uncontrollable").holds:
                assert partial_bisim(left, right, "none").holds


class TestParallelCommutes:
    def test_swapped_compositions_bisimilar(self):
        rng = random.Random(71)
        for _ in range(40):
            t = random_term(rng, depth=2)
            q = random_term(rng, depth=2)
            assert bisimilar(space(Par(t, q)), space(Par(q, t))).holds
