"""Partial bisimulation: examples, random agreement with oracles, preorder laws."""

import random

import pytest

from cpd.control import renamed_plant, supervised_plant
from cpd.models import load
from cpd.relations import action_predicate, bisimilar, partial_bisim, simulated_by
from cpd.semantics import Engine
from cpd.statespace import explore
from cpd.terms import (
    Alt,
    DEADLOCK,
    EMPTY_UPDATE,
    Par,
    Prefix,
    TERMINATION,
    completed,
    send,
)

from gen import REL_CHANNELS, REL_DECLS, random_small_space, random_term
from oracles import exhaustive_partial_bisim, gfp_partial_bisim, _in_b, _pair_ok, _tables

C, D, U = REL_CHANNELS


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
