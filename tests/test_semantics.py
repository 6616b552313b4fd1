"""Transition derivation, termination, synchronization, completion renaming."""

import random

import pytest

import gen
from cpd.control import operational_root, renamed_plant
from cpd.errors import ModelError
from cpd.models import load, model_names
from cpd.printer import actionset_to_str, term_to_str
from cpd.semantics import Configuration, Engine, xi_action_set, xi_rename
from cpd.terms import (
    Action,
    ActionSet,
    Alt,
    Channel,
    Cmp,
    DEADLOCK,
    Declarations,
    EMPTY_UPDATE,
    Encap,
    Environment,
    Guard,
    IntLit,
    IntRange,
    Par,
    Prefix,
    Seq,
    Star,
    TERMINATION,
    TRUE,
    UpdateMap,
    VarRef,
    VariableDecl,
    completed,
    receive,
    send,
    subterms,
)
from cpd.statespace import explore

from oracles import step_oracle, terminates_oracle

C = Channel("c", True)
D = Channel("d", True)
U = Channel("u", False)

DECLS = Declarations(
    variables=(VariableDecl("x", IntRange(1, 3), 1),
               VariableDecl("y", IntRange(1, 3), 1)),
    channels=(C, D, U),
)


def engine():
    return Engine(DECLS)


def pfx(action, cont=TERMINATION, **updates):
    um = UpdateMap(tuple((k, IntLit(v)) for k, v in updates.items()))
    return Prefix(action, um, cont)


def labels(steps):
    return sorted(a.format() for a, _ in steps)


class TestTermination:
    def t(self, term):
        e = engine()
        return e.terminates(e.initial(term))

    def test_units(self):
        assert self.t(TERMINATION)
        assert not self.t(DEADLOCK)
        assert not self.t(pfx(send(U)))

    def test_guard_gates_termination(self):
        holds = Cmp("=", VarRef("x"), IntLit(1))
        fails = Cmp("=", VarRef("x"), IntLit(2))
        assert self.t(Guard(holds, TERMINATION))
        assert not self.t(Guard(fails, TERMINATION))
        assert not self.t(Guard(holds, DEADLOCK))

    def test_alt_either(self):
        assert self.t(Alt(DEADLOCK, TERMINATION))
        assert not self.t(Alt(DEADLOCK, pfx(send(U))))

    def test_seq_and_par_need_both(self):
        assert self.t(Seq(TERMINATION, TERMINATION))
        assert not self.t(Seq(TERMINATION, DEADLOCK))
        assert self.t(Par(TERMINATION, TERMINATION))
        assert not self.t(Par(TERMINATION, pfx(send(U))))

    def test_star_always(self):
        assert self.t(Star(pfx(send(U))))
        assert self.t(Star(DEADLOCK))

    def test_encap_transparent(self):
        assert self.t(Encap(ActionSet(actions=(send(U),)), TERMINATION))


class TestStep:
    def test_units_are_stuck(self):
        e = engine()
        assert e.step(e.initial(DEADLOCK)) == []
        assert e.step(e.initial(TERMINATION)) == []

    def test_prefix_applies_update_and_written_set(self):
        e = engine()
        steps = e.step(e.initial(pfx(receive(C), x=2)))
        assert len(steps) == 1
        action, conf = steps[0]
        assert action == receive(C)
        assert conf.env.alpha["x"] == 2 and conf.env.alpha["y"] == 1
        assert conf.env.rho == frozenset({"x"})
        assert conf.term == TERMINATION

    def test_initial_written_set_is_everything(self):
        e = engine()
        assert e.initial(TERMINATION).env.rho == frozenset({"x", "y"})

    def test_plain_prefix_writes_nothing(self):
        e = engine()
        (_, conf), = e.step(e.initial(pfx(send(U))))
        assert conf.env.rho == frozenset()

    def test_update_outside_domain(self):
        e = engine()
        bad = Prefix(receive(C), UpdateMap((("x", IntLit(9)),)), TERMINATION)
        with pytest.raises(ModelError) as exc:
            e.step(e.initial(bad))
        assert str(exc.value) == "update of 'x' to 9 leaves domain 1..3 on action c?"

    def test_update_reads_source_state(self):
        e = engine()
        t = Prefix(receive(C), UpdateMap((("y", VarRef("x")), ("x", IntLit(3)))),
                   TERMINATION)
        (_, conf), = e.step(e.initial(t))
        assert conf.env.alpha["y"] == 1 and conf.env.alpha["x"] == 3

    def test_guard_gates_steps(self):
        e = engine()
        holds = Cmp("=", VarRef("x"), IntLit(1))
        fails = Cmp("!=", VarRef("x"), IntLit(1))
        assert labels(e.step(e.initial(Guard(holds, pfx(send(U)))))) == ["u!"]
        assert e.step(e.initial(Guard(fails, pfx(send(U))))) == []

    def test_alt_unions(self):
        e = engine()
        t = Alt(pfx(receive(C)), pfx(send(U)))
        assert labels(e.step(e.initial(t))) == ["c?", "u!"]

    def test_seq_left_first_then_terminating_left_exposes_right(self):
        e = engine()
        blocked_left = Seq(pfx(receive(C)), pfx(send(U)))
        assert labels(e.step(e.initial(blocked_left))) == ["c?"]
        open_left = Seq(Alt(TERMINATION, pfx(receive(C))), pfx(send(U)))
        assert labels(e.step(e.initial(open_left))) == ["c?", "u!"]

    def test_star_unfolds(self):
        e = engine()
        t = Star(pfx(receive(C)))
        (_, conf), = e.step(e.initial(t))
        assert conf.term == Seq(TERMINATION, t)

    def test_encap_blocks_only_listed(self):
        e = engine()
        t = Encap(ActionSet(actions=(send(U),)),
                  Alt(pfx(send(U)), pfx(receive(C))))
        assert labels(e.step(e.initial(t))) == ["c?"]

    def test_encap_incomplete_blocks_partial_arities(self):
        e = engine()
        body = Alt(pfx(receive(C)), Par(pfx(send(C)), pfx(receive(C))))
        t = Encap(ActionSet(incomplete=((C, 2),)), body)
        assert labels(e.step(e.initial(t))) == ["c!?"]

    def test_encap_does_not_suppress_update_errors(self):
        e = engine()
        bad = Prefix(receive(C), UpdateMap((("x", IntLit(9)),)), TERMINATION)
        t = Encap(ActionSet(actions=(receive(C),)), bad)
        with pytest.raises(ModelError):
            e.step(e.initial(t))

    def test_encap_wraps_residual(self):
        e = engine()
        blocked = ActionSet(actions=(send(U),))
        t = Encap(blocked, pfx(receive(C), pfx(send(U))))
        (_, conf), = e.step(e.initial(t))
        assert conf.term == Encap(blocked, pfx(send(U)))


class TestSynchronization:
    def test_send_meets_receive(self):
        e = engine()
        t = Par(pfx(send(C), x=2), pfx(receive(C), x=2))
        steps = e.step(e.initial(t))
        assert labels(steps) == ["c!", "c?", "c!?"] or labels(steps) == sorted(["c!", "c?", "c!?"])
        merged = [conf for a, conf in steps if a.format() == "c!?"]
        assert len(merged) == 1
        assert merged[0].env.alpha["x"] == 2
        assert merged[0].env.rho == frozenset({"x"})

    def test_disagreeing_writes_block_only_the_merge(self):
        e = engine()
        t = Par(pfx(send(C), x=2), pfx(receive(C), x=3))
        assert labels(e.step(e.initial(t))) == ["c!", "c?"]

    def test_disjoint_writes_union(self):
        e = engine()
        t = Par(pfx(send(C), x=2), pfx(receive(C), y=3))
        merged = [conf for a, conf in e.step(e.initial(t)) if a.format() == "c!?"]
        assert merged[0].env.alpha["x"] == 2 and merged[0].env.alpha["y"] == 3
        assert merged[0].env.rho == frozenset({"x", "y"})

    def test_arities_add(self):
        e = engine()
        two_senders = Par(pfx(send(C)), pfx(send(C)))
        assert labels(e.step(e.initial(two_senders))) == ["c!", "c!", "c!_2"]
        full = Par(Par(pfx(send(C)), pfx(receive(C))), pfx(receive(C)))
        assert "c!?_2" in labels(e.step(e.initial(full)))

    def test_different_channels_never_sync(self):
        e = engine()
        t = Par(pfx(send(C)), pfx(receive(D)))
        assert labels(e.step(e.initial(t))) == ["c!", "d?"]

    def test_interleaving_keeps_other_side(self):
        e = engine()
        t = Par(pfx(send(U)), pfx(receive(C)))
        residuals = {a.format(): conf.term for a, conf in e.step(e.initial(t))}
        assert residuals["u!"] == Par(TERMINATION, pfx(receive(C)))
        assert residuals["c?"] == Par(pfx(send(U)), TERMINATION)

    def test_residual_builds_only_the_paths_to_the_changed_components(self):
        # (c!.1 || u!.1) || encap {d!} (c?.1 || d!.u!.1): the synchronization
        # changes the first and third components, u! only the second
        left = Par(pfx(send(C)), pfx(send(U)))
        right = Encap(ActionSet(actions=(send(D),)),
                      Par(pfx(receive(C)), pfx(send(D), pfx(send(U)))))
        t = Par(left, right)
        residuals = {a.format(): r
                     for a, r, _ in engine().derive(t, DECLS.initial_environment().alpha)[1]}
        old = {id(s) for s in subterms(t)}

        def new_nodes(r):
            return [id(s) for s in subterms(r) if id(s) not in old]

        synced = residuals["c!?"]
        assert synced == Par(Par(TERMINATION, pfx(send(U))),
                             Encap(right.blocked, Par(TERMINATION, right.body.right)))
        assert new_nodes(synced) == list(map(id, [synced, synced.left, synced.right,
                                                  synced.right.body]))
        assert synced.left.right is left.right
        assert synced.right.body.right is right.body.right
        assert synced.right.blocked is right.blocked
        moved = residuals["u!"]
        assert new_nodes(moved) == [id(moved), id(moved.left)]
        assert moved.left.left is left.left and moved.right is right


class TestCompletionRenaming:
    def test_controllable_receive_completed(self):
        t = pfx(receive(C), pfx(Action(C, 0, 2)))
        r = xi_rename(t)
        assert term_to_str(r) == "c!?.c!?_2.1"

    def test_uncontrollable_untouched(self):
        t = Alt(pfx(send(U)), pfx(receive(U)))
        assert xi_rename(t) == t

    def test_controllable_send_rejected(self):
        with pytest.raises(ModelError) as exc:
            xi_rename(pfx(send(C)))
        assert "controllable send" in str(exc.value)

    def test_structure_preserved(self):
        t = Star(Seq(Guard(TRUE, pfx(receive(C))), Par(pfx(send(U)), TERMINATION)))
        r = xi_rename(t)
        assert term_to_str(r) == "((true -> c!?.1).(u!.1 || 1))*"

    def test_action_set_rewrite(self):
        s = xi_action_set(ActionSet(actions=(receive(C), send(U), Action(C, 2, 0)),
                                    incomplete=((C, 2), (U, 3))))
        assert actionset_to_str(s) == "{c!?, u!, incomplete(u, 3), incomplete(c!, 2)}"

    def test_rename_rewrites_nested_encapsulation(self):
        inner = Encap(ActionSet(incomplete=((C, 2),)), pfx(receive(C)))
        r = xi_rename(inner)
        assert isinstance(r, Encap)
        assert actionset_to_str(r.blocked) == "{incomplete(c!, 2)}"


def assert_engine_matches_oracle(declarations, term, env):
    """Engine.step and Engine.terminates agree with the recursive oracles:
    same actions, printed residuals, valuations and written sets, in the
    same order."""
    conf = Configuration(term, env)
    e = Engine(declarations)
    assert e.terminates(conf) == terminates_oracle(term, env)
    got = [(a, term_to_str(c.term), c.env.alpha, c.env.rho) for a, c in e.step(conf)]
    want = [(a, term_to_str(t), new_env.alpha, new_env.rho)
            for a, t, new_env in step_oracle(declarations, term, env)]
    assert got == want


class TestEngineMatchesOracle:
    def test_random_terms_under_every_valuation(self):
        rng = random.Random(8128)
        decls = gen.REL_DECLS
        rho = decls.initial_environment().rho
        for _ in range(2000):
            term = gen.random_term(rng, rng.choice((3, 4)))
            encapsulated = Encap(gen.random_blocked(rng), term)
            for alpha in decls.all_valuations():
                env = Environment(alpha, rho)
                assert_engine_matches_oracle(decls, term, env)
                assert_engine_matches_oracle(decls, encapsulated, env)

    def test_encapsulation_below_prefix_sum_and_sequence(self):
        # the term and the residuals of its first three steps, so that each
        # encapsulated || is also stepped once its prefix or . is gone
        rng = random.Random(4099)
        decls = gen.REL_DECLS
        rho = decls.initial_environment().rho
        for _ in range(300):
            frontier = [gen.random_nested_encap(rng, rng.choice((1, 2)))]
            for _ in range(3):
                residuals = []
                for term in frontier:
                    for alpha in decls.all_valuations():
                        env = Environment(alpha, rho)
                        assert_engine_matches_oracle(decls, term, env)
                        residuals += [t for _, t, _ in step_oracle(decls, term, env)]
                frontier = residuals[:20]

    def test_inner_encapsulation_removes_an_outer_synchronization(self):
        # u!.encap {c?} (c?.1 || d!.1) || c!.1: after u!, the outer || would
        # synchronize c! with c?, but the inner blocked set removed c?
        inner = Encap(ActionSet(actions=(receive(C),)), Par(pfx(receive(C)), pfx(send(D))))
        env = DECLS.initial_environment()
        for term in (Par(pfx(send(U), inner), pfx(send(C))),
                     Par(inner, pfx(send(C))),
                     Alt(inner, pfx(send(U))),
                     Seq(inner, pfx(send(U)))):
            assert_engine_matches_oracle(DECLS, term, env)
        e = engine()
        assert labels(e.step(Configuration(Par(inner, pfx(send(C))), env))) == ["c!", "d!"]
        assert labels(e.step(Configuration(Par(inner.body, pfx(send(C))), env))) == [
            "c!", "c!?", "c?", "d!"]

    @pytest.mark.parametrize("name", model_names())
    def test_bundled_models(self, name):
        spec = load(name)
        for root in (operational_root(spec), renamed_plant(spec)):
            ss = explore(root, spec.declarations)
            for conf in ss.states:
                assert_engine_matches_oracle(spec.declarations, conf.term, conf.env)

    @pytest.mark.parametrize("left, right, survives", [
        ({"x": 2}, {"y": 3}, True),
        ({"x": 2, "y": 1}, {"x": 2}, True),
        ({"x": 2}, {"y": 1, "x": 3}, False),
        ({}, {"x": 3}, True),
        ({"x": 3}, {}, True),
    ], ids=["disjoint", "overlapping-equal", "overlapping-different", "left-writes-nothing",
            "right-writes-nothing"])
    def test_write_agreement_decides_which_synchronizations_survive(self, left, right,
                                                                    survives):
        # c! and c? in small || terms, alone, beside an interleaving u!,
        # inside encap and with an encap party: the c!? merge exists exactly
        # when the parties agree on every name both write
        sender, receiver = pfx(send(C), **left), pfx(receive(C), **right)
        blocked = ActionSet(actions=(send(C), receive(C)))
        terms = [Par(sender, receiver),
                 Par(Par(sender, pfx(send(U))), receiver),
                 Encap(blocked, Par(sender, receiver)),
                 Par(Encap(ActionSet(actions=(send(U),)), sender), receiver)]
        for term in terms:
            for alpha in DECLS.all_valuations():
                env = Environment(alpha, frozenset())
                assert_engine_matches_oracle(DECLS, term, env)
                steps = engine().step(Configuration(term, env))
                assert ("c!?" in labels(steps)) == survives

    @pytest.mark.parametrize("term", [
        pfx(receive(C), x=4),
        Alt(pfx(send(U), y=2), Par(pfx(send(C), x=1), pfx(receive(C), x=0))),
        Seq(pfx(completed(D), y=9), pfx(send(U), x=5)),
    ], ids=["prefix", "sync", "seq"])
    def test_out_of_domain_update_reports_the_same_error(self, term):
        env = DECLS.initial_environment()
        with pytest.raises(ModelError) as want:
            step_oracle(DECLS, term, env)
        with pytest.raises(ModelError) as got:
            engine().step(Configuration(term, env))
        assert str(got.value) == str(want.value)
