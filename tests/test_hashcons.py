"""Hash-consed canonical forms and the explorer keyed by their ids, checked
against the recursive normalization and the deep-keyed explorer in
``oracles``."""

import gc
import random
import tracemalloc

import pytest

import gen
from cpd import terms
from cpd.control import renamed_plant, supervised_plant
from cpd.errors import BudgetError
from cpd.models import load
from cpd.ppf import instantiate_ppf
from cpd.printer import term_to_str
from cpd.semantics import Configuration
from cpd.statespace import explore
from cpd.synthesis import analyze
from cpd.terms import (
    ActionSet,
    Alt,
    Channel,
    DEADLOCK,
    EMPTY_UPDATE,
    Encap,
    Guard,
    Par,
    Prefix,
    Seq,
    Star,
    TERMINATION,
    TRUE,
    canonical_id,
    send,
)

from oracles import canonical_oracle, explore_oracle, tree_trail

A = Prefix(send(Channel("a", True)), EMPTY_UPDATE, TERMINATION)
B = Prefix(send(Channel("b", True)), EMPTY_UPDATE, TERMINATION)


def assert_ids_match_oracle(terms):
    """Ids coincide exactly when the oracle's canonical forms do."""
    id_of_form = {}
    form_of_id = {}
    for t in terms:
        form = canonical_oracle(t)
        cid = canonical_id(t)
        assert id_of_form.setdefault(form, cid) == cid
        assert form_of_id.setdefault(cid, form) == form


class TestCanonicalIds:
    def test_random_terms(self):
        rng = random.Random(2006)
        terms = [gen.random_term(rng, depth) for depth in (2, 3, 4, 5) for _ in range(1500)]
        assert_ids_match_oracle(terms)

    def test_alt_summand_that_is_an_alt_stays_nested(self):
        # (1 . (a + b)) + 0 keeps a + b as one summand; (a + b) + 0 has three
        nested = Alt(Seq(TERMINATION, Alt(A, B)), DEADLOCK)
        flat = Alt(Alt(A, B), DEADLOCK)
        assert canonical_oracle(nested) != canonical_oracle(flat)
        assert canonical_id(nested) != canonical_id(flat)
        assert_ids_match_oracle([nested, flat])

    def test_seq_part_that_is_a_seq_stays_nested(self):
        # ((a.b) + (a.b)) . a keeps a.b as one part; a . (b . a) has three
        nested = Seq(Alt(Seq(A, B), Seq(A, B)), A)
        flat = Seq(A, Seq(B, A))
        assert canonical_oracle(nested) != canonical_oracle(flat)
        assert canonical_id(nested) != canonical_id(flat)
        assert_ids_match_oracle([nested, flat])

    def test_nesting_does_not_depend_on_interning_order(self):
        # ids order the summands; whether a summand that is an Alt stays one
        # summand must not depend on which ids were handed out first
        for first in ("pair", "single"):
            a, b, c = (Prefix(send(Channel(f"{first}_{n}", True)), EMPTY_UPDATE, TERMINATION)
                       for n in "abc")
            if first == "pair":
                canonical_id(Alt(a, b))
            canonical_id(c)
            nested = Alt(Seq(TERMINATION, Alt(a, b)), c)
            flat = Alt(Alt(a, b), c)
            assert canonical_id(nested) != canonical_id(flat)
            assert_ids_match_oracle([nested, flat])

    def test_deep_unkeyed_chain_is_keyed_without_recursion(self):
        # 5,000 nodes cycling through Par, Encap, Guard and Star, none keyed
        def chain():
            t = A
            for i in range(5000):
                kind = i % 4
                if kind == 0:
                    t = Par(t, B)
                elif kind == 1:
                    t = Encap(ActionSet(actions=(send(Channel("a", True)),)), t)
                elif kind == 2:
                    t = Guard(TRUE, t)
                else:
                    t = Star(t)
            return t

        first, second = chain(), chain()
        assert "_cid" not in first.__dict__
        assert canonical_id(first) == canonical_id(second)
        assert canonical_id(first) != canonical_id(first.body)

    def test_cache_is_invisible_to_equality_and_repr(self):
        t = Alt(B, A)
        before = repr(t)
        canonical_id(t)
        assert repr(t) == before
        assert t == Alt(B, A)
        assert hash(t) == hash(Alt(B, A))

    def test_par_keys_are_untracked_by_the_collector(self):
        # a key holds a string tag and child ids, no class object, so the
        # collector stops tracking it and its full passes skip the table
        t = Par(Par(A, B), Star(Alt(A, B)))
        cid = canonical_id(t)
        gc.collect()
        key, = (key for key, value in terms._ids.items() if value == cid)
        assert not gc.is_tracked(key)


def assert_same_space(new, old, tree):
    assert [c.env.alpha for c in new.states] == [c.env.alpha for c in old.states]
    assert [term_to_str(c.term) for c in new.states] == [
        term_to_str(c.term) for c in old.states
    ]
    assert list(new.states) == list(old.states)
    assert new.transitions == old.transitions
    assert new.marked == old.marked
    assert [new.trace_to(s) for s in range(len(new))] == [
        tree_trail(tree, s) for s in range(len(new))]


def assert_explores_like_oracle(root, declarations, rho_in_identity, budget=None):
    try:
        old, tree = explore_oracle(root, declarations, budget, rho_in_identity)
    except BudgetError:
        with pytest.raises(BudgetError):
            explore(root, declarations, budget, rho_in_identity)
        return
    assert_same_space(explore(root, declarations, budget, rho_in_identity), old, tree)


RHO = pytest.mark.parametrize("rho", [False, True])


class TestExploreMatchesOracle:
    @RHO
    def test_random_plants(self, rho):
        for seed in range(200):
            spec = gen.random_plant_spec(random.Random(seed))
            assert_explores_like_oracle(renamed_plant(spec), spec.declarations, rho)

    @RHO
    def test_random_terms(self, rho):
        rng = random.Random(1434)
        for depth in (3, 4, 5):
            for _ in range(100):
                root = Configuration(gen.random_term(rng, depth),
                                     gen.REL_DECLS.initial_environment())
                assert_explores_like_oracle(root, gen.REL_DECLS, rho, budget=300)

    @RHO
    @pytest.mark.parametrize("name", ["agv", "ppf_1_1", "ppf_1_1_tampered"])
    def test_bundled_models(self, name, rho):
        spec = load(name)
        for root in (renamed_plant(spec), supervised_plant(spec)):
            assert_explores_like_oracle(root, spec.declarations, rho)

    @RHO
    @pytest.mark.parametrize("shape", [(1, [1]), (1, [2]), (1, [3]), (2, [1, 1])])
    def test_ppf(self, shape, rho):
        spec = instantiate_ppf(*shape)
        assert_explores_like_oracle(renamed_plant(spec), spec.declarations, rho)


def test_explore_peak_memory():
    # 4.28 MiB is the peak of the deep-keyed explorer on this space under
    # Python 3.11; a memo that keeps every successor term alive peaks at
    # about 21 MiB
    spec = instantiate_ppf(1, [3])
    root = renamed_plant(spec)
    tracemalloc.start()
    try:
        space = explore(root, spec.declarations)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(space) == 576
    assert peak <= 4.28 * 2**20


def test_analyzed_space_retained_memory():
    # under Python 3.11 the analyzed space retains about 1.6 MiB; storing the
    # edges again as triples and as a table of controllable targets per
    # state, beside succ, retained 2.2 MiB
    spec = instantiate_ppf(1, [3])
    gc.collect()
    tracemalloc.start()
    try:
        syn = analyze(spec)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(syn.space) == 576
    assert retained <= 1.8 * 2**20
