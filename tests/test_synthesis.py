"""Guard synthesis: fixpoint analysis, minimization, emission, verification."""

import itertools
import random
from pathlib import Path

import pytest

from cpd.errors import ObserverError, SynthesisError
from cpd.models import load
from cpd.parser import parse, print_spec
from cpd.ppf import instantiate_ppf
from cpd.printer import bool_to_str, term_to_str
from cpd.semantics import Engine
from cpd.statespace import explore
from cpd.synthesis import (
    SupervisorSpec,
    analyze,
    emit_supervisor,
    guards_from_space,
    integrate_supervisor,
    minimize_guard,
    synthesize,
    synthesize_from_space,
    verify_synthesis,
)
from cpd.terms import (
    And,
    Cmp,
    Declarations,
    EnumDomain,
    FALSE,
    IntRange,
    Or,
    TRUE,
    VariableDecl,
    classify_supervisor,
    eval_bool,
)

from gen import random_plant_spec
from oracles import all_cube_formulas, analyze_oracle

PERFBENCH_INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"


def table(decls):
    return {v.values_tuple: v for v in decls.all_valuations()}


class TestMinimizeGuard:
    def setup_method(self):
        self.decls = Declarations(
            variables=(VariableDecl("x", IntRange(1, 2), 1),
                       VariableDecl("y", IntRange(1, 3), 1)),
            channels=())
        self.v = table(self.decls)

    def test_degenerate_sets(self):
        one = Declarations(variables=(VariableDecl("x", IntRange(1, 3), 1),),
                           channels=())
        vals = {v["x"]: v for v in one.all_valuations()}
        assert minimize_guard(one, set(), {vals[2]}) == FALSE
        assert minimize_guard(one, {vals[1]}, set()) == TRUE
        assert minimize_guard(one, set(), set()) == FALSE

    def test_dont_cares_widen_the_literal(self):
        one = Declarations(variables=(VariableDecl("x", IntRange(1, 3), 1),),
                           channels=())
        vals = {v["x"]: v for v in one.all_valuations()}
        g = minimize_guard(one, {vals[1]}, {vals[2]})
        assert bool_to_str(g) == "x != 2"

    def test_irrelevant_variable_dropped(self):
        on = {self.v[(1, k)] for k in (1, 2, 3)}
        off = {self.v[(2, k)] for k in (1, 2, 3)}
        assert bool_to_str(minimize_guard(self.decls, on, off)) == "x = 1"

    def test_two_cube_cover_exploits_dont_cares(self):
        on = {self.v[(1, 1)], self.v[(2, 2)]}
        off = {self.v[(1, 2)], self.v[(2, 1)]}
        g = minimize_guard(self.decls, on, off)
        assert bool_to_str(g) == "x = 1 /\\ y != 2 \\/ x = 2 /\\ y != 1"
        for val in self.decls.all_valuations():
            if val in on:
                assert eval_bool(val, g)
            if val in off:
                assert not eval_bool(val, g)

    def test_enum_literals_render_constants(self):
        d = Declarations(
            variables=(VariableDecl("m", EnumDomain(("off", "on", "halt")), 1),),
            channels=())
        w = {v["m"]: v for v in d.all_valuations()}
        assert bool_to_str(minimize_guard(d, {w[2]}, {w[1], w[3]})) == "m = on"
        assert bool_to_str(minimize_guard(d, {w[1], w[3]}, {w[2]})) == "m != on"
        assert bool_to_str(minimize_guard(d, {w[1], w[2]}, {w[3]})) == "m != halt"

    def test_deterministic(self):
        on = {self.v[(1, 1)], self.v[(2, 2)]}
        off = {self.v[(1, 2)], self.v[(2, 1)]}
        a = bool_to_str(minimize_guard(self.decls, on, off))
        b = bool_to_str(minimize_guard(self.decls, set(on), set(off)))
        assert a == b

    def test_random_partitions_pointwise(self):
        rng = random.Random(83)
        decls = Declarations(
            variables=(VariableDecl("x", IntRange(1, 3), 1),
                       VariableDecl("y", IntRange(1, 3), 1),
                       VariableDecl("z", IntRange(1, 2), 1)),
            channels=())
        vals = list(decls.all_valuations())
        for _ in range(100):
            on, off = set(), set()
            for v in vals:
                bucket = rng.randrange(3)
                if bucket == 0:
                    on.add(v)
                elif bucket == 1:
                    off.add(v)
            g = minimize_guard(decls, on, off)
            for v in vals:
                if v in on:
                    assert eval_bool(v, g)
                elif v in off:
                    assert not eval_bool(v, g)

    def test_exactly_minimal_against_exhaustive_search(self):
        # on domains of at most 3 values every literal is one comparison, so
        # the formula's disjuncts are its cubes and its comparisons its literals
        rng = random.Random(137)
        for _ in range(300):
            sizes = [rng.choice((2, 3)) for _ in range(rng.randint(1, 3))]
            decls = Declarations(
                variables=tuple(VariableDecl(f"v{i}", IntRange(1, n), 1)
                                for i, n in enumerate(sizes)),
                channels=())
            on, off = set(), set()
            for v in decls.all_valuations():
                [on, off, set()][rng.randrange(3)].add(v)
            g = minimize_guard(decls, on, off)
            assert all(eval_bool(v, g) for v in on)
            assert not any(eval_bool(v, g) for v in off)
            assert formula_cost(g) == exhaustive_min_cost(decls, on, off)


def formula_cost(g):
    """(cubes, literals) of a rendered sum of cubes."""
    if g == FALSE:
        return (0, 0)
    disjuncts, literals, stack = 0, 0, [g]
    while stack:
        e = stack.pop()
        if isinstance(e, Or):
            stack += (e.left, e.right)
            continue
        disjuncts += 1
        conj = [e]
        while conj:
            c = conj.pop()
            if isinstance(c, And):
                conj += (c.left, c.right)
            elif isinstance(c, Cmp):
                literals += 1
    return (disjuncts, literals)


def exhaustive_min_cost(decls, on, off):
    """Fewest cubes, then fewest literals, over every cover of ``on`` by
    cubes that miss ``off``: the cheapest union of k cubes for k = 1, 2, ..."""
    if not on:
        return (0, 0)
    domains = [tuple(v.domain.values()) for v in decls.variables]
    bit = {v.values_tuple: 1 << i for i, v in enumerate(on)}
    off_pts = {v.values_tuple for v in off}
    # cubes covering the same on-points are interchangeable: keep the cheapest
    cheapest = {}
    for cube in all_cube_formulas(domains):
        points = set(itertools.product(*cube))
        covered = sum(bit.get(p, 0) for p in points)
        if covered and not points & off_pts:
            literals = sum(len(sub) < len(d) for sub, d in zip(cube, domains))
            cheapest[covered] = min(literals, cheapest.get(covered, literals))
    full = (1 << len(on)) - 1
    unions = {0: 0}  # on-points covered by k cubes -> fewest literals
    for k in range(1, len(on) + 1):
        grown = {}
        for covered, cost in unions.items():
            for mask, literals in cheapest.items():
                u, c = covered | mask, cost + literals
                if c < grown.get(u, c + 1):
                    grown[u] = c
        if full in grown:
            return (k, grown[full])
        unions = grown
    raise AssertionError("on-set not coverable")


class TestAnalyze:
    def test_vehicle_model_numbers(self):
        sp = load("agv")
        syn = analyze(sp)
        assert len(syn.space) == 6
        assert syn.bad == frozenset()
        assert sorted((s, c.name) for s, c in syn.forbidden) == [
            (0, "gotoA"), (3, "gotoB")]
        assert {s for s in range(len(syn.space)) if s not in syn.bad} == set(range(6))
        assert syn.iterations == 1

    def test_allowed_tracks_forbidden_pairs(self):
        sp = load("agv")
        syn = analyze(sp)
        goto_a = sp.declarations.channel_map["gotoA"]
        goto_b = sp.declarations.channel_map["gotoB"]
        assert not syn.allowed(0, goto_a)
        assert syn.allowed(0, goto_b)
        assert not syn.allowed(3, goto_b)

    def test_controllable_targets_lists_enabled_channels(self):
        sp = load("agv")
        syn = analyze(sp)
        targets = {}
        for action, dst in syn.space.succ[0]:
            if action.channel.controllable:
                targets.setdefault(action.channel, []).append(dst)
        assert sorted(c.name for c in targets) == ["gotoA", "gotoB"]
        for dsts in targets.values():
            assert all(0 <= d < len(syn.space) for d in dsts)


def assert_analyzes_like_oracle(spec):
    """Same verdicts as the oracle, or the same SynthesisError text; returns
    whether a supervisor exists."""
    try:
        old = analyze_oracle(spec)
    except SynthesisError as exc:
        with pytest.raises(SynthesisError) as new_exc:
            analyze(spec)
        assert str(new_exc.value) == str(exc)
        return False
    new = analyze(spec)
    assert new.bad == old.bad
    assert new.forbidden == old.forbidden
    assert new.iterations == old.iterations
    for state, enabled in enumerate(old.ctrl_targets):
        for channel in enabled:
            assert new.allowed(state, channel) == old.allowed(state, channel)
    return True


class TestAnalyzeMatchesOracle:
    @pytest.mark.parametrize("name", ["agv", "ppf_1_1", "ppf_1_1_tampered"])
    def test_bundled_models(self, name):
        assert assert_analyzes_like_oracle(load(name))

    @pytest.mark.parametrize("name", ["ppf_1_2.cpd", "ppf_1_3.cpd"])
    def test_benchmark_inputs(self, name):
        path = PERFBENCH_INPUTS / name
        assert assert_analyzes_like_oracle(parse(path.read_text(encoding="utf-8"), str(path)))

    def test_wider_cell(self):
        assert assert_analyzes_like_oracle(instantiate_ppf(2, [1, 1]))

    def test_random_plants(self):
        outcomes = {assert_analyzes_like_oracle(random_plant_spec(random.Random(seed)))
                    for seed in range(200)}
        # both the fixpoint verdicts and the error text are compared
        assert outcomes == {True, False}


class TestErrors:
    def test_state_identity_must_determine_guards(self):
        sp = parse(
            "controllable a, c;\nvar x : 1..2 = 1;\n"
            "process P = c?[x := 2].1 + a?.c?.1;\nplant P;\n"
            "requirement not (x = 2);\n", "t.cpd")
        with pytest.raises(ObserverError) as exc:
            synthesize(sp)
        assert str(exc.value) == (
            "guard for 'c' is not a function of the variables: states 1 and 0 "
            "carry the same valuation but only one of them may enable the channel")

    def test_unsafe_initial_state(self):
        sp = parse(
            "uncontrollable u;\nvar x : 1..2 = 1;\n"
            "process P = u![x := 2].1;\nplant P;\n"
            "requirement not (x = 2);\n", "t.cpd")
        with pytest.raises(SynthesisError) as exc:
            synthesize(sp)
        assert str(exc.value) == ("no supervisor exists: the initial state cannot "
                                  "be kept safe (2 of 2 states are unsafe)")

    def test_uncontrollable_reach_into_bad(self):
        # u fires one step after the controllable one: its source must fall too
        sp = parse(
            "controllable a;\nuncontrollable u;\nvar x : 1..3 = 1;\n"
            "process P = (a?.u![x := 3].1 + a?[x := 2].1)*;\nplant P;\n"
            "requirement not (x = 3);\n", "t.cpd")
        syn = analyze(sp)
        sup = guards_from_space(sp, syn)
        # the branch through u can never be opened
        ver = verify_synthesis(sp, sup, syn.space)
        assert ver.ok()


class TestEmission:
    def test_emitted_term_is_supervisor_shaped(self):
        sp = load("agv")
        sup = synthesize(sp)
        term = emit_supervisor(sup)
        assert classify_supervisor(term)
        assert term_to_str(term) == (
            "(L = B -> gotoA!.1 + L = A -> gotoB!.1 + true -> 1)*")

    def test_false_guards_still_emit(self):
        decls = load("agv").declarations
        sup = SupervisorSpec(guards={decls.channel_map["gotoA"]: FALSE,
                                     decls.channel_map["gotoB"]: TRUE})
        term = emit_supervisor(sup)
        assert classify_supervisor(term)
        assert "false -> gotoA!.1" in term_to_str(term)

    def test_integrated_spec_round_trips(self):
        sp = load("agv")
        sup = synthesize(sp)
        merged = integrate_supervisor(sp, sup)
        assert merged.supervisor_name is not None
        text = print_spec(merged)
        again = parse(text, "merged.cpd")
        assert again == merged

    def test_integration_avoids_name_collisions(self):
        sp = parse(
            "controllable a;\nprocess Supervisor = a?.1;\nplant Supervisor;\n",
            "t.cpd")
        sup = SupervisorSpec(guards={sp.declarations.channel_map["a"]: TRUE})
        merged = integrate_supervisor(sp, sup)
        assert merged.supervisor_name == "Supervisor_"
        assert merged.plant_name == "Supervisor"

    def test_integration_fills_default_encapsulation(self):
        sp = parse("controllable a;\nprocess P = a?.1;\nplant P;\n", "t.cpd")
        sup = SupervisorSpec(guards={sp.declarations.channel_map["a"]: TRUE})
        merged = integrate_supervisor(sp, sup)
        assert merged.encapsulation is not None


class TestGuardsMatchStates:
    def agreement(self, spec):
        syn = analyze(spec)
        sup = guards_from_space(spec, syn)
        for state in range(len(syn.space)):
            if state in syn.bad:
                continue
            alpha = syn.space.states[state].env.alpha
            for channel in {a.channel for a, _ in syn.space.succ[state]
                            if a.channel.controllable}:
                want = syn.allowed(state, channel)
                assert eval_bool(alpha, sup.guards[channel]) == want

    def test_vehicle(self):
        self.agreement(load("agv"))

    def test_production_cell(self):
        self.agreement(instantiate_ppf(1, [1]))

    def test_random_plants(self):
        rng = random.Random(89)
        done = 0
        while done < 12:
            spec = random_plant_spec(rng)
            try:
                self.agreement(spec)
            except SynthesisError:
                continue
            done += 1


class TestIdempotence:
    def guards_text(self, sup):
        return {ch.name: bool_to_str(g) for ch, g in sup.guards.items()}

    def test_resynthesis_fixes_nothing_new(self):
        rng = random.Random(97)
        done = 0
        specs = [load("agv"), instantiate_ppf(1, [1])]
        while done < 8:
            spec = random_plant_spec(rng)
            try:
                synthesize(spec)
            except SynthesisError:
                continue
            specs.append(spec)
            done += 1
        for spec in specs:
            sup = synthesize(spec)
            merged = integrate_supervisor(spec, sup)
            again = synthesize(merged)
            assert self.guards_text(again) == self.guards_text(sup)


class TestVerification:
    def test_vehicle_report(self):
        sp = load("agv")
        syn = analyze(sp)
        sup, rep = synthesize_from_space(sp, syn)
        assert rep.to_dict() == {
            "guards": {"gotoA": "L = B", "gotoB": "L = A"},
            "termination_guard": "true",
            "bad_states": 0,
            "forbidden_pairs": 2,
            "iterations": 1,
            "explored_states": 6,
        }
        lines = rep.render().splitlines()
        assert lines[0] == "explored 6 states; 0 unsafe, 2 forbidden pairs, 1 fixpoint rounds"
        assert "  gotoA: L = B" in lines
        ver = verify_synthesis(sp, sup, syn.space)
        assert ver.ok()
        assert ver.verdicts() == {"requirements": True, "controllability": True,
                                  "nonblocking": True}
        assert ver.supervised_states == 4

    def test_random_plants_verify(self):
        rng = random.Random(101)
        done = 0
        while done < 12:
            spec = random_plant_spec(rng)
            try:
                syn = analyze(spec)
            except SynthesisError:
                continue
            done += 1
            sup = guards_from_space(spec, syn)
            assert verify_synthesis(spec, sup, syn.space).ok()
