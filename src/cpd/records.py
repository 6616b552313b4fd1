"""Record classes: fields from class annotations, methods from closures.

A subclass of ``Record`` (mutable) or ``Frozen`` (immutable and hashable)
lists its fields as class annotations, in order, after those of a record it
extends; a class attribute named like a field is that field's default.  A
record may have any number of fields.  When the class is created, its base
gives it

- ``__init__`` taking the fields, by position or keyword, then calling the
  class's ``__post_init__`` if it has one;
- ``__eq__``: for a record of the same class, true when it is the same
  object or each field is, or equals, the other's, compared in order until
  one differs (the equality of the tuples of the fields, without building
  them);
- ``__hash__``: for ``Frozen``, ``hash`` of the tuple of the fields (a
  ``Record`` is unhashable);
- ``__repr__``: ``Name(field=value, ...)``;
- ``_fields`` and ``__match_args__``: the field names in order.

A method the class defines itself is kept.  Assigning or deleting an
attribute of a ``Frozen`` record raises ``AttributeError``.

The methods are closures made from one template per field count, whose
source is written from the count alone and compiled the first time a record
of that many fields is made; field names never enter it.  The template's
parameter and attribute names ``_0``, ``_1``, ... are renamed to the fields
in a copy of each code object, so the methods run the same instructions as
hand-written ones: keywords, defaults and argument errors behave as usual,
and attribute loads stay specialized.
``__init__`` stores through ``object.__setattr__``, which keeps CPython's
compact per-instance attribute storage; reading an instance's ``__dict__``
would give it up.
"""

from __future__ import annotations

_set = object.__setattr__
_TEMPLATES = {}  # field count -> the template, see _template


def _template(n):
    """The method template for records of ``n`` fields, compiled once.

    It is a function of the ``__post_init__`` hook and the ``n`` field names
    that returns ``__init__``, ``__eq__`` and ``__hash__``, whose fields are
    named ``_0``, ``_1``, ...  Its source is written from ``n`` alone, with
    one line per compared field as a hand-written template would have: on
    some interpreters, line breaks inside ``__eq__`` change the jumps it
    compiles to.
    """
    make = _TEMPLATES.get(n)
    if make is None:
        fields = [f"_{i}" for i in range(n)]
        same = "\n        and ".join(f"(self.{a} is other.{a} or self.{a} == other.{a})"
                                    for a in fields)
        source = "\n".join([
            f"def make(post{''.join(f', f{i}' for i in range(n))}):",
            f"    def __init__(self{''.join(f', {a}' for a in fields)}):",
            *(f"        _set(self, f{i}, {a})" for i, a in enumerate(fields)),
            "        if post is not None:",
            "            post(self)",
            "    def __eq__(self, other):",
            "        if other.__class__ is self.__class__:",
            f"            return {f'self is other or ({same})' if n else 'True'}",
            "        return NotImplemented",
            "    def __hash__(self):",
            f"        return hash(({''.join(f'self.{a}, ' for a in fields)}))",
            "    return __init__, __eq__, __hash__",
        ])
        namespace = {}
        exec(compile(source, f"<record template of {n} fields>", "exec"), globals(), namespace)
        make = _TEMPLATES[n] = namespace["make"]
    return make


def _repr(self):
    inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
    return f"{self.__class__.__qualname__}({inner})"


def _renamed(method, rename, cls, defaults=None):
    """A copy of ``method`` with its names ``_0``, ``_1``, ... renamed, as a
    method of ``cls``."""
    code = method.__code__
    code = code.replace(co_varnames=tuple(rename.get(n, n) for n in code.co_varnames),
                        co_names=tuple(rename.get(n, n) for n in code.co_names))
    out = type(method)(code, method.__globals__, method.__name__, defaults, method.__closure__)
    out.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
    return out


def _build(cls, frozen):
    inherited = cls.__base__._fields
    names = inherited + tuple(n for n in cls.__annotations__ if n not in inherited)
    defaults = tuple(getattr(cls, n) for n in names if hasattr(cls, n))
    if any(hasattr(cls, n) for n in names[:len(names) - len(defaults)]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    init, eq, hash_ = _template(len(names))(getattr(cls, "__post_init__", None), *names)
    clash = {"self", *init.__code__.co_freevars}.intersection(names)
    if clash:
        raise TypeError(f"{cls.__name__}: field name {min(clash)!r} is reserved")
    rename = {f"_{i}": n for i, n in enumerate(names)}
    methods = {"__init__": _renamed(init, rename, cls, defaults or None),
               "__eq__": _renamed(eq, rename, cls)}
    if frozen:
        methods["__hash__"] = _renamed(hash_, rename, cls)
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    cls._fields = cls.__match_args__ = names


class Record:
    """Base of mutable records; see the module docstring."""

    _fields = ()
    __hash__ = None
    __repr__ = _repr

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        _build(cls, False)


class Frozen:
    """Base of immutable, hashable records; see the module docstring."""

    _fields = ()
    __repr__ = _repr

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        _build(cls, True)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
