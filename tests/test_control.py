"""Requirements over spaces, encapsulation defaults, controllability, nonblocking."""

import random
from pathlib import Path

import pytest

from cpd import control
from cpd.control import (
    GlobalSatisfaction,
    check_controllability,
    check_nonblocking,
    default_encapsulation,
    operational_root,
    renamed_plant,
    requirement_table,
    satisfies,
    satisfies_globally,
    supervised_plant,
)
from cpd.errors import ModelError, SynthesisError
from cpd.models import load
from cpd.parser import parse
from cpd.ppf import instantiate_ppf
from cpd.printer import actionset_to_str, requirement_to_str
from cpd.semantics import Engine
from cpd.statespace import explore
from cpd.synthesis import analyze, guards_from_space, integrate_supervisor
from cpd.terms import Encap, EventImplies, Par, bool_variables, completed

from gen import (
    REQUIREMENT_EDGE_TEXTS,
    dense_spec,
    random_plant_spec,
    random_small_space,
    requirement_edge_spec,
)
from oracles import (
    coreachable_oracle,
    requirement_failures_oracle,
    satisfies_globally_oracle,
)

PERFBENCH_INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"


def small(text):
    return parse(text, "t.cpd")


class TestSatisfies:
    def setup_method(self):
        self.sp = small(
            "controllable a;\nuncontrollable u;\nvar x : 1..3 = 1;\n"
            "process P = a?[x := 2].u!.1;\nplant P;\n"
            "requirement not (x = 3);\n"
            "requirement a!? => x = 1;\n"
            "requirement x = 2 => never u!;\n")
        self.eng = Engine(self.sp.declarations)
        from cpd.semantics import xi_rename
        self.ss = explore(
            self.eng.initial(xi_rename(self.sp.plant)), self.sp.declarations)
        self.inv, self.ei, self.see = self.sp.requirements

    def test_invariant_reads_the_valuation(self):
        assert satisfies(self.ss.states[0], self.inv, self.sp.declarations)
        assert all(satisfies(c, self.inv, self.sp.declarations)
                   for c in self.ss.states)

    def test_event_implies_checks_enabledness(self):
        # initial state: x = 1, a!? enabled, condition holds
        assert satisfies(self.ss.states[0], self.ei, self.sp.declarations)
        # after the receive: x = 2, but a!? is no longer enabled
        assert satisfies(self.ss.states[1], self.ei, self.sp.declarations)

    def test_state_excludes_event(self):
        # state 1 has x = 2 and u! enabled: excluded
        assert not satisfies(self.ss.states[1], self.see, self.sp.declarations)
        assert satisfies(self.ss.states[0], self.see, self.sp.declarations)

    def test_rejects_non_requirement(self):
        with pytest.raises(TypeError):
            satisfies(self.ss.states[0], "nope", self.sp.declarations)


class TestSatisfiesGlobally:
    def test_clean_space(self):
        sp = small("controllable a;\nvar x : 1..2 = 1;\n"
                   "process P = a?.1;\nplant P;\nrequirement not (x = 2);\n")
        ss = explore(Engine(sp.declarations).initial(sp.plant), sp.declarations)
        g = satisfies_globally(ss, list(sp.requirements))
        assert g.holds and g.violations == [] and g.trace is None
        assert g.render(ss) == "all requirements hold in every reachable state"

    def test_violation_carries_shortest_trace(self):
        sp = small("controllable a;\nuncontrollable u;\nvar x : 1..3 = 1;\n"
                   "process P = a?[x := 2].u![x := 3].1;\nplant P;\n"
                   "requirement not (x = 3);\n")
        ss = explore(Engine(sp.declarations).initial(sp.plant), sp.declarations)
        g = satisfies_globally(ss, list(sp.requirements))
        assert not g.holds
        assert len(g.violations) == 1
        v = g.violations[0]
        assert v.state == 2
        assert [a.format() for a in g.trace] == ["a?", "u!"]
        assert "violates: not x = 3" in v.render(ss)

    def test_render_caps_long_lists(self):
        spec = instantiate_ppf(1, [1])
        ss = explore(renamed_plant(spec), spec.declarations)
        g = satisfies_globally(ss, list(spec.requirements))
        assert not g.holds
        assert len(g.violations) > 12
        out = g.render(ss)
        assert f"... and {len(g.violations) - 10} more violations" in out
        assert "shortest trace to first violation:" in out
        tighter = g.render(ss, limit=2)
        assert f"... and {len(g.violations) - 2} more violations" in tighter


def explored_spaces(spec):
    """The spec's renamed plant and its supervised plant, explored: the
    declared supervisor, else the synthesized one when a supervisor exists."""
    plant = explore(renamed_plant(spec), spec.declarations)
    if spec.supervisor is None:
        try:
            sup = guards_from_space(spec, analyze(spec))
        except SynthesisError:
            return [plant]
        spec = integrate_supervisor(spec, sup)
    return [plant, explore(supervised_plant(spec), spec.declarations)]


def assert_requirements_like_oracle(spec):
    """On each explored space, the table lists the states the oracle finds
    failing per requirement, and ``satisfies_globally`` equals the oracle's
    result, rendered text included.  Returns the spaces."""
    rs = list(spec.requirements)
    spaces = explored_spaces(spec)
    for ss in spaces:
        assert requirement_table(ss, rs) == [
            [state for state, _ in requirement_failures_oracle(ss, [r])] for r in rs]
        new, old = satisfies_globally(ss, rs), satisfies_globally_oracle(ss, rs)
        assert new == old
        assert new.render(ss) == old.render(ss)
    return spaces


class TestRequirementTable:
    """The one evaluator of requirements over a space against the oracle,
    which evaluates every requirement at every state's full valuation."""

    @pytest.mark.parametrize("name", ["agv", "ppf_1_1", "ppf_1_1_tampered"])
    def test_bundled_models(self, name):
        assert len(assert_requirements_like_oracle(load(name))) == 2

    @pytest.mark.parametrize("name", ["ppf_1_2.cpd", "ppf_1_3.cpd"])
    def test_benchmark_inputs(self, name):
        path = PERFBENCH_INPUTS / name
        spec = parse(path.read_text(encoding="utf-8"), str(path))
        assert len(assert_requirements_like_oracle(spec)) == 2

    def test_dense_specs(self):
        for seed in range(3):
            assert len(assert_requirements_like_oracle(dense_spec(random.Random(seed)))) == 2

    def test_random_plants(self):
        counts = [len(assert_requirements_like_oracle(random_plant_spec(random.Random(seed))))
                  for seed in range(200)]
        # the supervised space is compared wherever a supervisor exists
        assert set(counts) == {1, 2}

    @pytest.mark.parametrize("name", sorted(REQUIREMENT_EDGE_TEXTS))
    def test_edge_cases(self, name):
        assert len(assert_requirements_like_oracle(requirement_edge_spec(name))) == 2

    def test_edge_case_verdicts(self):
        """The edge cases are not vacuous: a formula over no variable fails
        everywhere or nowhere, and an event requirement holds when its
        action differs in arity from an enabled one or never occurs."""
        spec = requirement_edge_spec("no_variables")
        plant = explore(renamed_plant(spec), spec.declarations)
        go = [s for s, edges in enumerate(plant.succ)
              if any(plant.actions[a].format() == "go!?" for a, _ in edges)]
        assert 0 < len(go) < len(plant.states)
        assert requirement_table(plant, spec.requirements) == [[], [], [], go, []]

        spec = requirement_edge_spec("variables")
        plant = explore(renamed_plant(spec), spec.declarations)
        table = dict(zip(map(requirement_to_str, spec.requirements),
                         requirement_table(plant, spec.requirements)))
        # go!? is enabled at some x = 1 state, which go!?_2 => x = 2 excludes
        assert any(plant.states[s].env.alpha["x"] == 1 and
                   any(plant.actions[a].format() == "go!?" for a, _ in edges)
                   for s, edges in enumerate(plant.succ))
        assert table["go!?_2 => x = 2"] == table["y = 2 => never stop!?"] == []
        assert table["not x = 3"] and table["back!? => y = 1"]

    def test_empty_requirement_list(self):
        spec = load("agv")
        for ss in explored_spaces(spec):
            assert requirement_table(ss, []) == []
            assert satisfies_globally(ss, []) == GlobalSatisfaction(True, [], None)

    def test_one_evaluation_per_projected_key(self, monkeypatch):
        spec = load("ppf_1_1")
        ss = explore(renamed_plant(spec), spec.declarations)
        rs = list(spec.requirements)
        real = control.eval_bool
        calls = []

        def counting(alpha, phi):
            calls.append(phi)
            return real(alpha, phi)

        monkeypatch.setattr(control, "eval_bool", counting)
        requirement_table(ss, rs)
        keys = sum(len({tuple(c.env.alpha[v] for v in sorted(bool_variables(r.condition)))
                        for c in ss.states}) for r in rs)
        assert len(calls) == keys
        assert keys < len(ss.states) * len(rs)


class TestDefaultEncapsulation:
    def test_uniform_receive_arity(self):
        sp = small("controllable a;\nuncontrollable u;\n"
                   "process P = a?.u!.1;\nplant P;")
        blocked = default_encapsulation(sp)
        assert actionset_to_str(blocked) == "{incomplete(a, 2)}"

    def test_never_received_defaults_to_pairwise(self):
        sp = small("controllable a, b;\nprocess P = a?.1;\nplant P;")
        blocked = default_encapsulation(sp)
        assert actionset_to_str(blocked) == "{incomplete(a, 2), incomplete(b, 2)}"

    def test_wider_arity_counted(self):
        sp = small("controllable a;\nprocess P = a?.1 || a?.1;\nplant P;")
        # both receives have arity 1: a sender plus one receiver closes at 2
        assert actionset_to_str(default_encapsulation(sp)) == "{incomplete(a, 2)}"

    def test_mixed_arities_rejected(self):
        sp = small("controllable a;\nprocess P = a?.1 + a?_2.1;\nplant P;")
        with pytest.raises(ModelError) as exc:
            default_encapsulation(sp)
        assert "mixed arities" in str(exc.value)
        assert "'a'" in str(exc.value)

    def test_uncontrollable_channels_left_open(self):
        sp = small("uncontrollable u;\nprocess P = u?.1;\nplant P;")
        assert actionset_to_str(default_encapsulation(sp)) == "{}"


class TestRoots:
    def setup_method(self):
        self.sp = small(
            "controllable a;\nprocess P = a?.1;\n"
            "process S = (true -> a!.1 + true -> 1)*;\n"
            "plant P;\nsupervisor S;")

    def test_supervised_is_encapsulated_composition(self):
        root = supervised_plant(self.sp)
        assert isinstance(root.term, Encap)
        assert isinstance(root.term.body, Par)

    def test_bare_composition_on_request(self):
        root = supervised_plant(self.sp, encapsulated=False)
        assert isinstance(root.term, Par)

    def test_missing_supervisor_rejected(self):
        sp = small("controllable a;\nprocess P = a?.1;\nplant P;")
        with pytest.raises(ModelError) as exc:
            supervised_plant(sp)
        assert str(exc.value) == "no supervisor declared"

    def test_operational_root_prefers_supervision(self):
        assert operational_root(self.sp) == supervised_plant(self.sp)
        assert operational_root(self.sp, unsupervised=True) == renamed_plant(self.sp)
        bare = small("controllable a;\nprocess P = a?.1;\nplant P;")
        assert operational_root(bare) == renamed_plant(bare)

    def test_renamed_plant_completes_receives(self):
        ss = explore(renamed_plant(self.sp), self.sp.declarations)
        acts = {a for _, a, _ in ss.transitions}
        assert acts == {completed(self.sp.declarations.channel_map["a"])}


def controllability(sp):
    return check_controllability(explore(supervised_plant(sp), sp.declarations),
                                 explore(renamed_plant(sp), sp.declarations))


class TestControllability:
    def test_supervisor_restricting_controllables_is_fine(self):
        sp = small("controllable a;\nuncontrollable u;\n"
                   "process P = a?.u!.1;\n"
                   "process S = (true -> a!.1 + true -> 1)*;\n"
                   "plant P;\nsupervisor S;\nencap {incomplete(a, 2)};")
        assert controllability(sp).holds

    def test_blocking_an_uncontrollable_action_is_not(self):
        sp = small("controllable a;\nuncontrollable u;\n"
                   "process P = a?.u!.1;\n"
                   "process S = (true -> a!.1 + true -> 1)*;\n"
                   "plant P;\nsupervisor S;\nencap {incomplete(a, 2), u!};")
        left = explore(supervised_plant(sp), sp.declarations)
        right = explore(renamed_plant(sp), sp.declarations)
        r = check_controllability(left, right)
        assert not r.holds
        text = r.counterexample.render(left, right)
        assert "right moves u! but the left has no matching move back" in text
        assert [a.format() for a in r.counterexample.trail()] == ["a!?", "u!"]

    def test_bundled_vehicle_model(self):
        sp = load("agv")
        assert controllability(sp).holds


class TestNonblocking:
    def test_holds_on_marked_loop(self):
        sp = small("controllable a;\nprocess P = (a?.1)*;\nplant P;")
        ss = explore(Engine(sp.declarations).initial(sp.plant), sp.declarations)
        r = check_nonblocking(ss)
        assert r.holds and r.blocking == set() and r.trace is None
        assert r.render(ss).startswith("nonblocking:")

    def test_reports_blocking_states_with_trace(self):
        sp = small("controllable a, b;\nprocess P = a?.1 + b?.0;\nplant P;")
        ss = explore(Engine(sp.declarations).initial(sp.plant), sp.declarations)
        r = check_nonblocking(ss)
        assert not r.holds
        assert len(r.blocking) == 1
        state = next(iter(r.blocking))
        assert [a.format() for a in r.trace] == ["b?"]
        assert f"first is state {state}" in r.render(ss)

    def test_blocking_complements_coreachable(self):
        rng = random.Random(77)
        for _ in range(40):
            ss = random_small_space(rng)
            r = check_nonblocking(ss)
            assert r.blocking == set(range(len(ss))) - coreachable_oracle(ss)
            assert r.holds == (not r.blocking)
