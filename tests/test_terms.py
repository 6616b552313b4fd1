"""Action algebra, expression evaluation, canonical forms, declarations."""

import random

import pytest

from cpd.errors import SpecError
from cpd.printer import actionset_to_str
from cpd.terms import (
    Action,
    ActionSet,
    Alt,
    And,
    BinOp,
    Channel,
    Cmp,
    DEADLOCK,
    Declarations,
    EMPTY_UPDATE,
    EnumDomain,
    FALSE,
    Guard,
    Imp,
    IntLit,
    IntRange,
    Not,
    Or,
    Par,
    Prefix,
    Seq,
    Star,
    TERMINATION,
    TRUE,
    UpdateMap,
    VarRef,
    VariableDecl,
    canonical_id,
    classify_plant,
    classify_supervisor,
    completed,
    eval_bool,
    eval_data,
    free_variables,
    plant_violations,
    receive,
    send,
    supervisor_violations,
)

from oracles import canonical_oracle, eval_bool_oracle, eval_data_oracle

C = Channel("c", True)
D = Channel("d", True)
U = Channel("u", False)


def act(ch, s, r):
    return Action(ch, s, r)


class TestAction:
    def test_at_least_one_party(self):
        with pytest.raises(ValueError):
            Action(C, 0, 0)

    def test_format_shorthands(self):
        assert act(C, 1, 0).format() == "c!"
        assert act(C, 0, 1).format() == "c?"
        assert act(C, 1, 1).format() == "c!?"

    def test_format_subscripts(self):
        assert act(C, 2, 0).format() == "c!_2"
        assert act(C, 0, 3).format() == "c?_3"
        assert act(C, 1, 2).format() == "c!?_2"
        assert act(C, 2, 1).format() == "c!_2?"
        assert act(C, 2, 2).format() == "c!_2?_2"

    def test_controllability_follows_channel(self):
        assert act(C, 1, 1).controllable
        assert not act(U, 1, 1).controllable

    def test_sort_key_orders_by_name_then_arity(self):
        actions = [act(D, 1, 0), act(C, 2, 0), act(C, 1, 1), act(C, 1, 0)]
        ordered = sorted(actions, key=lambda a: a.sort_key())
        assert [a.format() for a in ordered] == ["c!", "c!?", "c!_2", "d!"]

    def test_helpers(self):
        assert send(C) == act(C, 1, 0)
        assert receive(C) == act(C, 0, 1)
        assert completed(C) == act(C, 1, 1)
        assert completed(C, 3) == act(C, 1, 3)


class TestActionSet:
    def test_explicit_membership(self):
        s = ActionSet(actions=(send(C),))
        assert send(C) in s
        assert receive(C) not in s
        assert send(D) not in s

    def test_incomplete_blocks_everything_but_none_or_k_parties(self):
        s = ActionSet(incomplete=((C, 3),))
        assert send(C) in s          # total 1
        assert completed(C) in s     # total 2
        assert act(C, 1, 3) in s     # total 4
        assert act(C, 0, 3) not in s # total 3 = k
        assert act(C, 2, 1) not in s # total 3 = k
        assert send(D) not in s

    def test_completed_incomplete_tracks_renamed_receives(self):
        s = ActionSet(completed_incomplete=((C, 3),))
        # images of receives under completion: one sender, receivers != 0, k
        assert act(C, 1, 1) in s
        assert act(C, 1, 2) in s
        assert act(C, 1, 3) not in s
        assert act(C, 1, 0) not in s   # a bare send is no receive image
        assert act(C, 2, 1) not in s

    def test_render(self):
        s = ActionSet(actions=(send(C),), incomplete=((C, 3),),
                      completed_incomplete=((D, 2),))
        assert actionset_to_str(s) == "{c!, incomplete(c, 3), incomplete(d!, 2)}"


class TestCanonical:
    def test_alt_flattens_sorts_dedupes(self):
        a = Prefix(send(C), EMPTY_UPDATE, TERMINATION)
        t = Alt(Alt(a, DEADLOCK), a)
        assert canonical_id(t) == canonical_id(Alt(DEADLOCK, a))
        assert canonical_id(t) != canonical_id(a)

    def test_seq_drops_termination_units(self):
        a = Prefix(send(C), EMPTY_UPDATE, TERMINATION)
        t = Seq(Seq(TERMINATION, a), TERMINATION)
        assert canonical_id(t) == canonical_id(a)

    def test_seq_right_associates(self):
        a = Prefix(send(C), EMPTY_UPDATE, TERMINATION)
        b = Prefix(send(D), EMPTY_UPDATE, TERMINATION)
        u = Prefix(send(U), EMPTY_UPDATE, TERMINATION)
        left = Seq(Seq(a, b), u)
        right = Seq(a, Seq(b, u))
        assert canonical_id(left) == canonical_id(right)

    def test_par_is_left_alone(self):
        a = Prefix(send(C), EMPTY_UPDATE, TERMINATION)
        b = Prefix(send(D), EMPTY_UPDATE, TERMINATION)
        assert canonical_id(Par(a, b)) != canonical_id(Par(b, a))

    def test_idempotent(self):
        rng = random.Random(5)
        import gen
        for _ in range(100):
            t = gen.random_term(rng)
            assert canonical_id(canonical_oracle(t)) == canonical_id(t)


class TestClassification:
    def test_plant_receives_only(self):
        good = Star(Prefix(receive(C), EMPTY_UPDATE,
                           Prefix(send(U), EMPTY_UPDATE, TERMINATION)))
        assert classify_plant(good)
        assert plant_violations(good) == []

    def test_plant_rejects_controllable_send(self):
        bad = Prefix(send(C), EMPTY_UPDATE, TERMINATION)
        assert not classify_plant(bad)
        assert len(plant_violations(bad)) == 1

    def test_supervisor_shape(self):
        body = Alt(
            Guard(TRUE, Prefix(send(C), EMPTY_UPDATE, TERMINATION)),
            Guard(TRUE, TERMINATION),
        )
        assert classify_supervisor(Star(body))

    def test_supervisor_rejects_receives_and_updates(self):
        assert not classify_supervisor(Prefix(receive(C), EMPTY_UPDATE, TERMINATION))
        upd = UpdateMap((("x", IntLit(1)),))
        assert not classify_supervisor(Prefix(send(C), upd, TERMINATION))
        assert supervisor_violations(Prefix(receive(C), EMPTY_UPDATE, TERMINATION))


class TestDeclarations:
    def decls(self):
        return Declarations(
            variables=(
                VariableDecl("x", IntRange(1, 3), 2),
                VariableDecl("m", EnumDomain(("off", "on")), 1),
            ),
            channels=(C, U),
        )

    def test_bad_initial_rejected(self):
        with pytest.raises(SpecError):
            VariableDecl("x", IntRange(1, 3), 5)

    def test_enum_ordinals_start_at_one(self):
        dom = EnumDomain(("off", "on"))
        assert dom.ordinal("off") == 1
        assert dom.ordinal("on") == 2
        assert dom.render(2) == "on"

    def test_initial_environment(self):
        env = self.decls().initial_environment()
        assert dict(env.alpha) == {"x": 2, "m": 1}
        assert env.rho == frozenset({"x", "m"})

    def test_all_valuations_cover_product(self):
        vals = list(self.decls().all_valuations())
        assert len(vals) == 6
        assert len(set(v.values_tuple for v in vals)) == 6

    def test_all_valuations_order_is_lexicographic(self):
        vals = [v.values_tuple for v in self.decls().all_valuations()]
        assert vals == [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]

    def test_no_variables_give_one_empty_valuation(self):
        vals = list(Declarations(variables=(), channels=()).all_valuations())
        assert [dict(v) for v in vals] == [{}]

    def test_render_value(self):
        d = self.decls()
        assert d.render_value("m", 2) == "on"
        assert d.render_value("x", 3) == "3"


class TestValuation:
    def test_assign_makes_new(self):
        decls = Declarations(
            variables=(VariableDecl("x", IntRange(1, 3), 1),), channels=())
        v = decls.initial_valuation()
        w = v.assign({"x": 3})
        assert v["x"] == 1 and w["x"] == 3
        assert v != w and hash(v) != hash(w)


class TestEval:
    def random_data(self, rng, depth):
        if depth == 0:
            return rng.choice((IntLit(rng.randrange(0, 5)), VarRef("x"), VarRef("y")))
        op = rng.choice(("+", "-", "*"))
        return BinOp(op, self.random_data(rng, depth - 1),
                     self.random_data(rng, depth - 1))

    def random_bool(self, rng, depth):
        if depth == 0:
            return Cmp(rng.choice(("=", "!=", "<", "<=", ">", ">=")),
                       self.random_data(rng, 1), self.random_data(rng, 1))
        kind = rng.randrange(4)
        if kind == 0:
            return Not(self.random_bool(rng, depth - 1))
        cls = (And, Or, Imp)[kind - 1]
        return cls(self.random_bool(rng, depth - 1), self.random_bool(rng, depth - 1))

    def test_against_oracle(self):
        rng = random.Random(99)
        decls = Declarations(
            variables=(VariableDecl("x", IntRange(0, 4), 0),
                       VariableDecl("y", IntRange(0, 4), 0)),
            channels=())
        for _ in range(300):
            alpha = decls.initial_valuation().assign(
                {"x": rng.randrange(5), "y": rng.randrange(5)})
            e = self.random_data(rng, rng.randrange(3))
            assert eval_data(alpha, e) == eval_data_oracle(alpha, e)
            b = self.random_bool(rng, rng.randrange(3))
            assert eval_bool(alpha, b) == eval_bool_oracle(alpha, b)

    def test_literals(self):
        decls = Declarations(variables=(), channels=())
        alpha = decls.initial_valuation()
        assert eval_bool(alpha, TRUE) is True
        assert eval_bool(alpha, FALSE) is False


class TestFreeVariables:
    def test_collects_guards_updates_expressions(self):
        t = Guard(Cmp("=", VarRef("a"), IntLit(1)),
                  Prefix(send(C), UpdateMap((("b", VarRef("z")),)), TERMINATION))
        assert free_variables(t) == {"a", "b", "z"}
