"""The iterative term walkers agree with the recursive ones kept in
``oracles``, diagnostics in the same order, and do not recurse."""

import random

import pytest

import gen
from cpd.control import default_encapsulation
from cpd.errors import ModelError
from cpd.models import load, model_names
from cpd.parser import SystemSpec
from cpd.ppf import instantiate_ppf
from cpd.printer import term_to_str
from cpd.semantics import xi_rename
from cpd.terms import (
    ActionSet,
    Alt,
    Encap,
    Guard,
    Prefix,
    Seq,
    Star,
    TERMINATION,
    TRUE,
    EMPTY_UPDATE,
    UpdateMap,
    VarRef,
    children,
    fold,
    free_variables,
    plant_violations,
    receive,
    send,
    subterms,
    supervisor_violations,
)

from oracles import (
    free_variables_oracle,
    plant_violations_oracle,
    supervisor_violations_oracle,
    term_to_str_oracle,
    xi_rename_oracle,
)

C, D, U = gen.REL_CHANNELS
BLOCKED = ActionSet(
    actions=frozenset({send(C), receive(U)}),
    incomplete=frozenset({(C, 2), (U, 2)}),
    completed_incomplete=frozenset({(D, 3)}),
)


def assert_walkers_agree(t):
    assert term_to_str(t) == term_to_str_oracle(t)
    assert plant_violations(t) == plant_violations_oracle(t)
    assert supervisor_violations(t) == supervisor_violations_oracle(t)
    assert free_variables(t) == free_variables_oracle(t)
    try:
        expected = xi_rename_oracle(t)
    except ModelError as exc:
        with pytest.raises(ModelError) as got:
            xi_rename(t)
        assert str(got.value) == str(exc)
    else:
        assert xi_rename(t) == expected


def spec_terms(spec: SystemSpec):
    return list(spec.processes.values())


def test_random_terms():
    for seed in range(3000):
        rng = random.Random(seed)
        t = gen.random_term(rng, depth=3 + seed % 4)
        assert_walkers_agree(t)
        assert_walkers_agree(Encap(BLOCKED, t))


def test_random_plants():
    for seed in range(300):
        for t in spec_terms(gen.random_plant_spec(random.Random(seed))):
            assert_walkers_agree(t)


@pytest.mark.parametrize("name", model_names())
def test_bundled_models(name):
    for t in spec_terms(load(name)):
        assert_walkers_agree(t)


def test_ppf_2_11():
    for t in spec_terms(instantiate_ppf(2, [1, 1])):
        assert_walkers_agree(t)


def test_traversal_order():
    a, b, c = (Prefix(send(x), EMPTY_UPDATE, TERMINATION) for x in (C, D, U))
    t = Alt(Seq(a, b), Star(c))
    assert children(t) == (Seq(a, b), Star(c))
    assert list(subterms(t)) == [t, Seq(a, b), a, TERMINATION, b, TERMINATION,
                                 Star(c), c, TERMINATION]
    order = []
    fold(t, lambda s, kids: order.append(s))
    assert order == list(reversed(list(subterms(t))))


def test_non_terms_rejected():
    with pytest.raises(TypeError):
        children("nope")
    with pytest.raises(TypeError):
        term_to_str(Alt(TERMINATION, "nope"))


def test_deep_terms_do_not_recurse():
    """Far past the recursion limit, mixing every class with a subterm."""
    n = 5000
    x = VarRef("x")
    t = TERMINATION
    for i in range(n):
        kind = i % 5
        if kind == 0:
            t = Prefix(receive(C), UpdateMap((("x", x),)), t)
        elif kind == 1:
            t = Guard(TRUE, t)
        elif kind == 2:
            t = Seq(Prefix(send(U), EMPTY_UPDATE, TERMINATION), t)
        elif kind == 3:
            t = Alt(t, TERMINATION)
        else:
            t = Encap(BLOCKED, Star(t))
    assert sum(1 for _ in subterms(t)) == 1 + n + n // 5 * 4
    assert plant_violations(t) == []
    assert len(supervisor_violations(t)) == n
    assert free_variables(t) == {"x"}
    assert term_to_str(xi_rename(t)).count("c!?[x := x].") == n // 5
    spec = SystemSpec(declarations=gen.REL_DECLS, processes={"P": t},
                      plant_name="P")
    assert default_encapsulation(spec) == ActionSet(
        incomplete=frozenset({(C, 2), (D, 2)}))
