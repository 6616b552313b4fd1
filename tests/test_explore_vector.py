"""The component-vector explorer against ``oracles.explore_reference``, the
explorer that stepped and keyed each state's whole term, and the cost of
keying long ``+`` and ``.`` spines."""

import functools
import random
from pathlib import Path

import pytest

import gen
from cpd import semantics, statespace, terms
from cpd.control import renamed_plant, supervised_plant
from cpd.errors import BudgetError, ModelError
from cpd.models import load
from cpd.parser import parse
from cpd.ppf import instantiate_ppf
from cpd.printer import term_to_str
from cpd.semantics import Configuration
from cpd.statespace import explore
from cpd.terms import subterms

from oracles import bfs_parents_oracle, explore_reference, tree_trail

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"
RHO = pytest.mark.parametrize("rho", [False, True])


def assert_explores_like_reference(root, declarations, rho, budget=None):
    """Same states, printed terms, valuations, written sets, marked states
    and edges, and every state's trace along the reference's own tree; or
    the same error with the same text."""
    try:
        old, tree = explore_reference(root, declarations, budget, rho)
    except (BudgetError, ModelError) as exc:
        with pytest.raises(type(exc)) as caught:
            explore(root, declarations, budget, rho)
        assert str(caught.value) == str(exc)
        return
    new = explore(root, declarations, budget, rho)
    assert [term_to_str(c.term) for c in new.states] == [
        term_to_str(c.term) for c in old.states]
    assert [c.env.alpha for c in new.states] == [c.env.alpha for c in old.states]
    assert [c.env.rho for c in new.states] == [c.env.rho for c in old.states]
    assert list(new.states) == list(old.states)
    assert new.values == old.values
    assert new.marked == old.marked
    assert new.transitions == old.transitions
    assert [new.trace_to(s) for s in range(len(new))] == [
        tree_trail(tree, s) for s in range(len(new))]


@RHO
@pytest.mark.parametrize("name", ["agv", "ppf_1_1", "ppf_1_1_tampered"])
def test_bundled_models(name, rho):
    spec = load(name)
    for root in (renamed_plant(spec), supervised_plant(spec),
                 supervised_plant(spec, encapsulated=False)):
        assert_explores_like_reference(root, spec.declarations, rho)


@RHO
@pytest.mark.parametrize("name", ["ppf_1_2", "ppf_1_3"])
def test_benchmark_inputs(name, rho):
    spec = parse((INPUTS / f"{name}.cpd").read_text(), name)
    assert_explores_like_reference(renamed_plant(spec), spec.declarations, rho)


@RHO
def test_random_plants(rho):
    for seed in range(300):
        spec = gen.random_plant_spec(random.Random(seed))
        assert_explores_like_reference(renamed_plant(spec), spec.declarations, rho)


@RHO
def test_random_terms(rho):
    # Par under prefixes, inside . and +: components that derive as a whole
    rng = random.Random(2001)
    for depth in (3, 4, 5, 6):
        for _ in range(100):
            root = Configuration(gen.random_term(rng, depth),
                                 gen.REL_DECLS.initial_environment())
            assert_explores_like_reference(root, gen.REL_DECLS, rho, budget=300)


@pytest.mark.parametrize("shape, rho", [
    ((1, [1]), False), ((1, [2]), False), ((2, [1, 1]), False), ((2, [2, 1]), False),
    # written sets multiply the states; the reference takes 20 s on (2, [1, 1])
    ((1, [1]), True), ((1, [2]), True),
])
def test_ppf(shape, rho):
    spec = instantiate_ppf(*shape)
    assert_explores_like_reference(renamed_plant(spec), spec.declarations, rho)


SHARED = """uncontrollable u, v, c;
var x : 1..3 = 1;
var y : 1..3 = 1;
process P = ((x < 3) -> u![x := x + 1].1 + c?[y := 2].1)*;
process Q = (u?[x := 3].1 + v![y := x].1)*;
process R = (c!?_2.1 + u?.1)*;
process S = encap {u!, u?, c?} (P || Q || P) || R;
plant S;
"""


@RHO
def test_repeated_components_and_multiparty_syncs(rho):
    # one component object at two positions, three-party synchronization,
    # synchronizations whose parties disagree on a written value, and an
    # encapsulation below a Par
    spec = parse(SHARED)
    assert_explores_like_reference(renamed_plant(spec), spec.declarations, rho)


@RHO
def test_random_nested_encapsulation(rho):
    # an encapsulated || below a prefix, + or ., in parallel with a term it
    # may synchronize with: a component that Engine.derive steps through a
    # skeleton of its own
    rng = random.Random(4099)
    for depth in (1, 2, 3):
        for _ in range(60):
            root = Configuration(gen.random_nested_encap(rng, depth),
                                 gen.REL_DECLS.initial_environment())
            assert_explores_like_reference(root, gen.REL_DECLS, rho, budget=300)


NESTED = """uncontrollable u, v, c;
var x : 1..3 = 1;
process P = u![x := 2].encap {c?} (c?[x := 3].1 || v!.1) + (encap {c?} (c?.1)).v!.1;
process Q = c!.1;
process R = P || Q;
plant R;
"""


@RHO
def test_nested_encapsulation_blocks_an_outer_synchronization(rho):
    # Q's c! would synchronize with the c? below u!, but the inner blocked
    # set removes it; the c? below + and . is blocked the same way
    spec = parse(NESTED)
    root = renamed_plant(spec)
    assert_explores_like_reference(root, spec.declarations, rho)
    space = explore(root, spec.declarations)
    assert {action.format() for _, action, _ in space.transitions} == {"u!", "v!", "c!"}


DOMAIN_ERROR = """uncontrollable u, v;
var x : 1..2 = 2;
var y : 1..2 = 2;
process P = u![x := x + 1].1;
process Q = v![y := y + 1].1;
process R = P || Q;
plant R;
"""


def test_domain_error_names_the_leftmost_component():
    # both components leave a domain from the initial state: the error is
    # the left one's, as when the whole term is derived
    spec = parse(DOMAIN_ERROR)
    assert_explores_like_reference(renamed_plant(spec), spec.declarations, False)
    with pytest.raises(ModelError, match="'x'"):
        explore(renamed_plant(spec), spec.declarations)


@pytest.mark.parametrize("budget", [1, 7, 100, 400])
def test_budget_error_text(budget):
    spec = instantiate_ppf(1, [2])
    assert_explores_like_reference(renamed_plant(spec), spec.declarations, False, budget)


def test_successor_shares_unchanged_subtrees_with_its_source():
    # (a.b.1 || c.1) || d.d.1 on distinct channels: each step changes one
    # component, and the successor's component tuple reuses the source's
    # other component objects
    a, b, c, d = (terms.Prefix(terms.send(terms.Channel(n, False)), terms.EMPTY_UPDATE,
                               terms.TERMINATION) for n in "abcd")
    term = terms.Par(terms.Par(terms.Prefix(a.action, a.update, b), c),
                     terms.Prefix(d.action, d.update, d))
    space = explore(Configuration(term, gen.REL_DECLS.initial_environment()), gen.REL_DECLS)
    assert len(space) == 3 * 2 * 3
    components = space.states.components
    parents = bfs_parents_oracle(space)
    assert [len(parts) for parts in components] == [3] * len(space)
    for state in range(1, len(space)):
        new, old = components[state], components[parents[state][0]]
        assert [n is o for n, o in zip(new, old)].count(True) == 2


def test_stored_states_share_the_root_subtrees_whose_components_did_not_move():
    # encap {} ((a.b.1 || c.1) || d.d.1): a state's term is the root itself
    # at the root, and elsewhere a new node exactly where a component below
    # it moved
    a, b, c, d = (terms.Prefix(terms.send(terms.Channel(n, False)), terms.EMPTY_UPDATE,
                               terms.TERMINATION) for n in "abcd")
    root = terms.Encap(terms.ActionSet(), terms.Par(
        terms.Par(terms.Prefix(a.action, a.update, b), c),
        terms.Prefix(d.action, d.update, d)))
    space = explore(Configuration(root, gen.REL_DECLS.initial_environment()), gen.REL_DECLS)
    assert len(space) == 3 * 2 * 3
    assert space.states[0].term is root

    def unmoved(old, new):
        if isinstance(old, terms.Par):
            same = unmoved(old.left, new.left) & unmoved(old.right, new.right)
        elif isinstance(old, terms.Encap):
            same = unmoved(old.body, new.body)
        else:
            return old is new
        assert (old is new) == same
        return same

    assert [unmoved(root, conf.term) for conf in space.states].count(True) == 1


def count_keying_calls(monkeypatch, root):
    """``_normalize`` and ``canonical_id`` calls made by exploring ``root``."""
    calls = {"normalize": 0, "canonical_id": 0}
    normalize, canonical_id = terms._normalize, terms.canonical_id

    def counting_normalize(t):
        calls["normalize"] += 1
        return normalize(t)

    def counting_canonical_id(t):
        calls["canonical_id"] += 1
        return canonical_id(t)

    monkeypatch.setattr(terms, "_normalize", counting_normalize)
    monkeypatch.setattr(terms, "canonical_id", counting_canonical_id)
    monkeypatch.setattr(statespace, "canonical_id", counting_canonical_id)
    monkeypatch.setattr(semantics, "canonical_id", counting_canonical_id)
    assert len(explore(root, gen.REL_DECLS)) == 2
    return calls


U = terms.Prefix(terms.send(gen.REL_CHANNELS[2]), terms.EMPTY_UPDATE, terms.TERMINATION)


@pytest.mark.parametrize("term", [
    terms.alt(*(terms.Prefix(U.action, U.update, U.cont) for _ in range(2000))),
    functools.reduce(lambda rest, _: terms.Seq(terms.TERMINATION, rest), range(2000), U),
], ids=["wide-sum", "long-seq-chain"])
def test_long_spines_are_keyed_once(term, monkeypatch):
    # keying each inner node of a spine on its own walked every sub-spine
    # again: 4,000 normalizations and about two million canonical_id calls
    # on the 2,000-summand sum
    size = len(list(subterms(term)))
    root = Configuration(term, gen.REL_DECLS.initial_environment())
    calls = count_keying_calls(monkeypatch, root)
    assert calls["normalize"] <= size
    assert calls["canonical_id"] <= 2 * size


def test_a_moving_starred_component_hits_its_step_table(monkeypatch):
    # the Env position, (u![x1 := 1].1 + ... + 1)*, reads no variables; every
    # step of it is Seq(1, star), one object per engine, so its table holds
    # about two entries, not one per valuation reached
    skeletons = []

    class Recording(semantics.Skeleton):
        def __init__(self, *args):
            super().__init__(*args)
            skeletons.append(self)

    monkeypatch.setattr(statespace, "Skeleton", Recording)
    for space in gen.dense_spaces(random.Random(83)):
        assert len(space) == 81
    assert len(skeletons) == 2
    for skeleton in skeletons:
        assert term_to_str(skeleton.components[0]).startswith("(u![x1 := 1].1")
        assert len(skeleton.tables[0]) <= 3


MULTI_WRITE = """uncontrollable u, c;
var x : 1..3 = 1;
var y : 1..3 = 1;
var z : 1..3 = 1;
process P = (c![x := 2, y := x].1 + u![z := y, x := 3].1)*;
process Q = (c?[y := 1, z := 2].1 + c?[x := 2].1)*;
process S = P || Q;
plant S;
"""


def delta_roots():
    """The bundled models' three roots, and the renamed plant of both
    benchmark inputs, SHARED, MULTI_WRITE and 50 generated plants."""
    for name in ("agv", "ppf_1_1", "ppf_1_1_tampered"):
        spec = load(name)
        for root in (renamed_plant(spec), supervised_plant(spec),
                     supervised_plant(spec, encapsulated=False)):
            yield root, spec.declarations
    specs = [parse((INPUTS / f"{name}.cpd").read_text(), name)
             for name in ("ppf_1_2", "ppf_1_3")]
    specs += [parse(SHARED), parse(MULTI_WRITE)]
    specs += [gen.random_plant_spec(random.Random(seed)) for seed in range(50)]
    for spec in specs:
        yield renamed_plant(spec), spec.declarations


def test_slot_deltas_key_each_step_target():
    # the delta must write exactly what the step's writes dict and residual
    # say: applied to the source's flat key it gives the target's component
    # ids followed by the target's values
    for root, declarations in delta_roots():
        space = explore(root, declarations)
        skeleton = space.states.skeleton
        components = space.states.components
        state_of = {tuple(map(terms.canonical_id, parts)) + values: state
                    for state, (parts, values) in enumerate(zip(components, space.values))}
        assert len(state_of) == len(space)
        for src, parts in enumerate(components):
            alpha = root.env.alpha.with_values(space.values[src])
            source = tuple(map(terms.canonical_id, parts)) + space.values[src]
            for a, writes, changes, delta in skeleton.derive(parts, alpha)[1]:
                target = list(source)
                for slot, value in delta:
                    target[slot] = value
                successor = list(parts)
                for position, residual in changes:
                    successor[position] = residual
                dst = state_of[tuple(map(terms.canonical_id, successor))
                               + alpha.assign(writes).values_tuple]
                want = tuple(map(terms.canonical_id, components[dst])) + space.values[dst]
                assert tuple(target) == want
                assert (a, dst) in space.succ[src]
        for position, table in enumerate(skeleton.tables):
            for _, _, steps in table.values():
                for _, writes, changes, delta in steps:
                    (at, residual), = changes
                    assert at == position
                    assert delta == ((position, terms.canonical_id(residual)),) + tuple(
                        (skeleton.slots[name], value) for name, value in writes.items())
