"""cpd's records against the dataclasses they replaced.

Every record class in cpd is checked against its ``dataclass_twin``: the
dataclass with the same fields, defaults and ``frozen``.  The instances come
from ``tests/gen.py``, from the bundled models and what the library computes
on them, and from one small spec that uses the syntax the others leave out.
"""

import random

import pytest

from cpd.control import check_controllability, renamed_plant, satisfies_globally, supervised_plant
from cpd.errors import SpecError, SynthesisError
from cpd.models import model_names, model_text
from cpd.parser import parse, tokenize
from cpd.records import Frozen, Record
from cpd.relations import partial_bisim
from cpd.statespace import States, explore
from cpd.synthesis import analyze, synthesize_from_space, verify_synthesis
from cpd.terms import Channel, Declarations, IntRange, Valuation

from gen import (
    REL_DECLS,
    random_blocked,
    random_nested_encap,
    random_plant_spec,
    random_small_space,
    random_term,
)
from oracles import dataclass_twin

# the syntax the bundled models and the generators do not use: arithmetic,
# implication, false, negation and an exclusion requirement
EXTRA = """
controllable a;
uncontrollable u;
var x : 0..3 = 0;
process P = (x < 3 -> a?[x := x + 2 * 1 - 1].1 + (x = 1 => x >= 1) -> u!.0 + false -> 1)*;
plant P;
requirement not (x = 3);
requirement x = 2 \\/ x = 1 => never a!?;
"""

# invalid arguments for each class with a __post_init__
BAD_ARGUMENTS = {
    "Action": [(Channel("c", True), 0, 0), (Channel("c", True), -1, 2)],
    "VariableDecl": [("x", IntRange(1, 2), 3)],
}

PER_CLASS = 12


def record_classes():
    out, stack = [], [Record, Frozen]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if cls not in (Record, Frozen) and cls.__module__.startswith("cpd."):
            out.append(cls)
    return sorted(out, key=lambda c: (c.__module__, c.__name__))


def roots():
    rng = random.Random(16)
    yield [random_term(rng, 4) for _ in range(40)]
    yield [random_nested_encap(rng) for _ in range(10)]
    yield [random_blocked(rng) for _ in range(10)]
    yield [random_small_space(rng) for _ in range(5)]
    yield REL_DECLS
    for _ in range(5):
        spec = random_plant_spec(rng)
        yield spec
        yield explore(renamed_plant(spec), spec.declarations)
    for text, name in [(model_text(n), n) for n in model_names()] + [(EXTRA, "extra.cpd")]:
        yield tokenize(text, name)
        spec = parse(text, name)
        yield spec
        plant = explore(renamed_plant(spec), spec.declarations)
        yield satisfies_globally(plant, spec.requirements)
        if spec.supervisor is not None:
            supervised = explore(supervised_plant(spec), spec.declarations)
            yield check_controllability(supervised, plant)
            yield partial_bisim(plant, supervised, "all")
        try:
            syn = analyze(spec)
        except SynthesisError:
            continue
        sup, report = synthesize_from_space(spec, syn)
        yield syn, sup, report, verify_synthesis(spec, sup, syn.space)
    with pytest.raises(SpecError) as caught:
        parse("process P = a?.1;\nplant Q;", "bad.cpd")
    yield caught.value.diagnostics


def collect():
    """Up to ``PER_CLASS`` instances of each record class, reached from the
    roots through fields, containers, declarations and state views."""
    pools, seen, stack = {}, set(), list(roots())
    # configurations a state view built on read, kept alive so that no id
    # in seen is reused
    built = []
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, (Record, Frozen)):
            pool = pools.setdefault(type(x), [])
            if len(pool) < PER_CLASS:
                pool.append(x)
            stack.extend(getattr(x, name) for name in x._fields)
        elif isinstance(x, (list, tuple, set, frozenset)):
            stack.extend(x)
        elif isinstance(x, dict):
            stack.extend(x.items())
        elif isinstance(x, Declarations):
            stack.extend(x.variables + x.channels)
        elif isinstance(x, States):
            built.append(list(x))
            stack.extend(built[-1])
        elif not isinstance(x, (str, int, bool, type(None), Valuation)):
            raise AssertionError(f"no walk into {type(x).__name__}")
    return pools, (seen, built)


CLASSES = record_classes()
POOLS, _KEEP = collect()


def values(x):
    return tuple(getattr(x, name) for name in x._fields)


def test_every_record_class_is_covered():
    assert len(CLASSES) == 45
    assert {cls.__name__ for cls in CLASSES if "__post_init__" in vars(cls)} == set(BAD_ARGUMENTS)
    assert [cls.__name__ for cls in CLASSES if len(POOLS.get(cls, ())) < 1] == []


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_record_matches_dataclass_twin(cls):
    twin = dataclass_twin(cls)
    assert cls._fields == tuple(f.name for f in twin.__dataclass_fields__.values())
    pool = POOLS[cls]
    twins = [twin(*values(x)) for x in pool]
    for x, tx in zip(pool, twins):
        assert repr(x) == repr(tx)
        if issubclass(cls, Frozen):
            assert hash(x) == hash(tx) == hash(values(x))
        else:
            for obj in (x, tx):
                with pytest.raises(TypeError):
                    hash(obj)
        # a copy built from the fields, by position and by keyword
        keywords = dict(zip(cls._fields, values(x)))
        for copy in (cls(*values(x)), cls(**keywords)):
            assert copy is not x and copy == x and not copy != x
            assert repr(copy) == repr(x)
        assert (x == object()) is (tx == object()) is False
    for x, tx in zip(pool, twins):
        for y, ty in zip(pool, twins):
            assert (x == y) is (tx == ty)
            assert (x != y) is (tx != ty)


def outcome(make, *args, **kwargs):
    """The repr of what ``make`` builds, or the type and text of its error."""
    try:
        return repr(make(*args, **kwargs))
    except Exception as error:  # the twin's errors are compared, whatever they are
        return f"{type(error).__name__}: {error}"


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_construction_matches_dataclass_twin(cls):
    twin = dataclass_twin(cls)
    x = POOLS[cls][0]
    required = {name: getattr(x, name) for name in cls._fields if not hasattr(cls, name)}
    calls = [
        ((), required),  # the defaults
        ((), {}),
        (values(x) + (None,), {}),
        (values(x), {"nonesuch": 1}),
        (values(x)[:1], dict(zip(cls._fields[:1], values(x)))),
    ]
    for args, kwargs in calls:
        assert outcome(cls, *args, **kwargs) == outcome(twin, *args, **kwargs)


@pytest.mark.parametrize("name", sorted(BAD_ARGUMENTS))
def test_post_init_errors_match_dataclass_twin(name):
    cls = next(cls for cls in CLASSES if cls.__name__ == name)
    twin = dataclass_twin(cls)
    for args in BAD_ARGUMENTS[name]:
        ours = outcome(cls, *args)
        assert ours == outcome(twin, *args) and "Error" in ours


@pytest.mark.parametrize("cls", [cls for cls in CLASSES if issubclass(cls, Frozen)],
                         ids=lambda cls: cls.__name__)
def test_frozen_records_refuse_assignment(cls):
    twin = dataclass_twin(cls)
    for x in POOLS[cls][:3]:
        tx = twin(*values(x))
        before = repr(x)
        for obj in (x, tx):
            for name in cls._fields + ("nonesuch",):
                with pytest.raises(AttributeError):
                    setattr(obj, name, None)
                with pytest.raises(AttributeError):
                    delattr(obj, name)
        assert repr(x) == before


@pytest.mark.parametrize("cls", [cls for cls in CLASSES if issubclass(cls, Record)],
                         ids=lambda cls: cls.__name__)
def test_mutable_records_take_assignment(cls):
    x = POOLS[cls][0]
    copy = cls(*values(x))
    for name in cls._fields:
        setattr(copy, name, None)
    assert values(copy) == (None,) * len(cls._fields)
    assert repr(copy) == repr(dataclass_twin(cls)(*values(copy)))


@pytest.mark.parametrize("base", [Frozen, Record], ids=lambda base: base.__name__)
@pytest.mark.parametrize("count", range(13))
def test_every_field_count(base, count):
    # cpd has no record of some counts and kinds, such as a hashable record
    # of six fields or any record of seven, so each count is checked on a
    # class made here
    names = tuple(f"v{i}" for i in range(count))
    built = []
    cls = type(f"R{count}", (base,), {"__annotations__": dict.fromkeys(names, "int"),
                                       "__post_init__": lambda self: built.append(
                                           tuple(getattr(self, name) for name in names))})
    twin = dataclass_twin(cls)
    assert cls._fields == names
    first = tuple(range(count))
    rows = [first, tuple(range(1, count + 1)), first[:-1] + (9,)[:count]]
    pairs = [(cls(*row), twin(*row)) for row in rows]
    assert built == [row for row in rows for _ in "xy"]
    for x, tx in pairs:
        assert repr(x) == repr(tx).replace("test_every_field_count.<locals>.", "")
        assert outcome(hash, x) == outcome(hash, tx)
        for y, ty in pairs:
            assert (x == y) is (tx == ty)
    # argument errors: a missing, an extra, an unknown and a repeated argument
    for args, kwargs in [(first[:-1], {}), (first + (0,), {}), (first, {"nonesuch": 0}),
                         (first, dict(zip(names[:1], first)))]:
        assert outcome(cls, *args, **kwargs) == outcome(twin, *args, **kwargs)


def test_malformed_record_classes_are_refused():
    for annotations, namespace in [
        ({"a": "int", "b": "int"}, {"a": 1}),  # no default after a default
        ({"post": "int"}, {}),  # a name the methods use
        ({"self": "int"}, {}),
        ({**dict.fromkeys("abcdefgh", "int"), "f8": "int"}, {}),  # the ninth field's name
    ]:
        with pytest.raises(TypeError):
            type("Bad", (Frozen,), {"__annotations__": annotations, **namespace})


def test_a_record_extends_the_record_it_subclasses():
    base = type("Base", (Frozen,), {"__annotations__": {"a": "int", "b": "int"}, "b": 2})
    sub = type("Sub", (base,), {"__annotations__": {"c": "int"}, "c": 3})
    assert sub._fields == ("a", "b", "c")
    assert outcome(sub, 1) == outcome(dataclass_twin(sub), 1) == "Sub(a=1, b=2, c=3)"
    assert sub(1) != base(1, 2) and hash(sub(1)) == hash((1, 2, 3))
