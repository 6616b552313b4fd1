"""Each state space is explored once per run: verification and the CLI reuse
the spaces they already built, and agree with the re-exploring path kept
in ``oracles``."""

import inspect
import random
import sys

import pytest

import gen
from cpd import statespace
from cpd.cli import main
from cpd.control import (
    check_controllability,
    renamed_plant,
    requirement_fails,
    satisfies,
    satisfies_globally,
    supervised_plant,
)
from cpd.errors import SynthesisError
from cpd.models import load, model_text
from cpd.ppf import instantiate_ppf
from cpd.printer import term_to_str
from cpd.statespace import explore
from cpd.synthesis import (
    SupervisorSpec,
    analyze,
    guards_from_space,
    verify_synthesis,
)
from cpd.terms import FALSE, TRUE

from oracles import (
    check_controllability_oracle,
    satisfies_globally_oracle,
    verify_synthesis_oracle,
)

NAMED = {
    "agv": lambda: load("agv"),
    "ppf_1_1": lambda: load("ppf_1_1"),
    "ppf_1_1_tampered": lambda: load("ppf_1_1_tampered"),
    "ppf_1_2": lambda: instantiate_ppf(1, [2]),
    "ppf_2_11": lambda: instantiate_ppf(2, [1, 1]),
}


def synthesizable_random_specs(count: int):
    rng = random.Random(303)
    specs = []
    while len(specs) < count:
        spec = gen.random_plant_spec(rng)
        try:
            analyze(spec)
        except SynthesisError:
            continue
        specs.append(spec)
    return specs


RANDOM = synthesizable_random_specs(50)


def assert_same_relation(new, old):
    assert new.holds == old.holds
    assert new.witness == old.witness
    assert (new.counterexample is None) == (old.counterexample is None)
    if new.counterexample is not None:
        assert new.counterexample.steps == old.counterexample.steps
    assert new == old


def assert_same_verification(new, old):
    assert new.verdicts() == old.verdicts()
    assert new.supervised_states == old.supervised_states
    assert new.requirements == old.requirements
    assert new.nonblocking == old.nonblocking
    assert_same_relation(new.controllability, old.controllability)


def check_verification_against_oracle(spec):
    """The synthesized supervisor plus two that fail other obligations:
    every guard true (requirements may fail) and every guard false
    (blocking may follow)."""
    syn = analyze(spec)
    synthesized = guards_from_space(spec, syn)
    channels = list(synthesized.guards)
    for sup in (
        synthesized,
        SupervisorSpec({c: TRUE for c in channels}),
        SupervisorSpec({c: FALSE for c in channels}),
    ):
        old = verify_synthesis_oracle(spec, sup)
        assert_same_verification(verify_synthesis(spec, sup, syn.space), old)


@pytest.mark.parametrize("name", sorted(NAMED))
def test_verification_matches_oracle_on_models(name):
    check_verification_against_oracle(NAMED[name]())


def test_verification_matches_oracle_on_random_plants():
    for spec in RANDOM:
        check_verification_against_oracle(spec)


@pytest.mark.parametrize("name", ["agv", "ppf_1_1", "ppf_1_1_tampered"])
def test_controllability_matches_oracle(name):
    spec = load(name)
    old = check_controllability_oracle(spec)
    sup_ss = explore(supervised_plant(spec), spec.declarations)
    plant_ss = explore(renamed_plant(spec), spec.declarations)
    new = check_controllability(sup_ss, plant_ss)
    assert_same_relation(new, old)
    if old.holds:
        return
    # the old path rendered from two freshly explored spaces
    fresh_sup = explore(supervised_plant(spec), spec.declarations)
    fresh_plant = explore(renamed_plant(spec), spec.declarations)
    assert new.counterexample.render(sup_ss, plant_ss) == \
        old.counterexample.render(fresh_sup, fresh_plant)


def test_tampered_counterexample_text_matches_oracle(tmp_path, capsys):
    f = tmp_path / "bad.cpd"
    f.write_text(model_text("ppf_1_1_tampered"))
    spec = load("ppf_1_1_tampered")
    old = check_controllability_oracle(spec)
    rendered = old.counterexample.render(
        explore(supervised_plant(spec), spec.declarations),
        explore(renamed_plant(spec), spec.declarations))
    for which in ("controllability", "all"):
        assert main(["check", str(f), which]) == 1
        out = capsys.readouterr().out
        assert f"controllability: FAIL\n{rendered}\n" in out


def test_one_requirement_evaluator_for_configurations_and_spaces():
    """satisfies on a single configuration, satisfies_globally on a space
    and requirement_fails agree with the oracle state by state."""
    for spec in RANDOM[:20]:
        ss = explore(renamed_plant(spec), spec.declarations)
        rs = list(spec.requirements)
        old = satisfies_globally_oracle(ss, rs)
        assert satisfies_globally(ss, rs) == old
        violations = {(v.state, v.requirement) for v in old.violations}
        for state, conf in enumerate(ss.states):
            enabled = {ss.actions[a] for a, _ in ss.succ[state]}
            for r in rs:
                fails = (state, r) in violations
                assert satisfies(conf, r, spec.declarations) == (not fails)
                assert requirement_fails(r, conf.env.alpha,
                                         enabled.__contains__) == fails


@pytest.fixture
def explored_roots(monkeypatch):
    """Printed root of every explore call, through every binding of
    ``explore`` in a loaded cpd module."""
    real = statespace.explore
    roots = []

    def counting(root, *args, **kwargs):
        roots.append(term_to_str(root.term))
        return real(root, *args, **kwargs)

    patched = set()
    for name, module in list(sys.modules.items()):
        if name != "cpd" and not name.startswith("cpd."):
            continue
        if getattr(module, "explore", None) is real:
            monkeypatch.setattr(module, "explore", counting)
            patched.add(name)
    assert {"cpd.cli", "cpd.synthesis", "cpd.statespace"} <= patched
    assert not hasattr(sys.modules["cpd.control"], "explore")
    return roots


@pytest.mark.parametrize("argv, code, spaces", [
    (["synth", "ppf_1_1"], 0, 2),
    (["check", "ppf_1_1_tampered", "all"], 1, 2),
    (["check", "ppf_1_1_tampered", "controllability"], 1, 2),
    (["check", "agv", "nonblocking", "--no-encap-nonblocking"], 0, 1),
])
def test_each_space_explored_once(argv, code, spaces, tmp_path, capsys,
                                  explored_roots):
    f = tmp_path / f"{argv[1]}.cpd"
    f.write_text(model_text(argv[1]))
    assert main([argv[0], str(f)] + argv[2:]) == code
    capsys.readouterr()
    assert len(explored_roots) == spaces
    assert len(set(explored_roots)) == spaces


def test_library_route_explores_each_space_once(explored_roots):
    """analyze, guards_from_space and verify_synthesis explore the renamed
    and the supervised plant once each; check_controllability explores
    nothing and takes both spaces, required."""
    spec = load("ppf_1_1")
    syn = analyze(spec)
    sup = guards_from_space(spec, syn)
    assert verify_synthesis(spec, sup, syn.space).ok()
    assert len(explored_roots) == 2
    assert len(set(explored_roots)) == 2

    sup_ss = explore(supervised_plant(spec), spec.declarations)
    plant_ss = explore(renamed_plant(spec), spec.declarations)
    assert check_controllability(sup_ss, plant_ss).holds
    assert len(explored_roots) == 2

    params = inspect.signature(check_controllability).parameters.values()
    assert [(p.name, p.default) for p in params] == [
        ("supervised", inspect.Parameter.empty), ("plant", inspect.Parameter.empty)]
    plant = inspect.signature(verify_synthesis).parameters["plant"]
    assert plant.default is inspect.Parameter.empty
