"""Record classes: fields from class annotations, methods from closures.

A subclass of ``Record`` (mutable) or ``Frozen`` (immutable and hashable)
lists its fields as class annotations, in order, after those of a record it
extends; a class attribute named like a field is that field's default.  When
the class is created, its base gives it

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

Nothing is compiled.  The methods are closures made from one template per
field count, whose parameter and attribute names ``_0``, ``_1``, ... are
renamed to the fields in a copy of each code object.  They therefore run
the same instructions as hand-written methods: keywords, defaults and
argument errors behave as usual, and attribute loads stay specialized.
``__init__`` stores through ``object.__setattr__``, which keeps CPython's
compact per-instance attribute storage; reading an instance's ``__dict__``
would give it up.
"""

from __future__ import annotations

_set = object.__setattr__


def _arity0(f, post):
    def __init__(self):
        if post is not None:
            post(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return True
        return NotImplemented

    def __hash__(self):
        return hash(())

    return __init__, __eq__, __hash__


def _arity1(f, post):
    f0, = f

    def __init__(self, _0):
        _set(self, f0, _0)
        if post is not None:
            post(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or self._0 is other._0 or self._0 == other._0
        return NotImplemented

    def __hash__(self):
        return hash((self._0,))

    return __init__, __eq__, __hash__


def _arity2(f, post):
    f0, f1 = f

    def __init__(self, _0, _1):
        _set(self, f0, _0)
        _set(self, f1, _1)
        if post is not None:
            post(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or ((self._0 is other._0 or self._0 == other._0)
                                     and (self._1 is other._1 or self._1 == other._1))
        return NotImplemented

    def __hash__(self):
        return hash((self._0, self._1))

    return __init__, __eq__, __hash__


def _arity3(f, post):
    f0, f1, f2 = f

    def __init__(self, _0, _1, _2):
        _set(self, f0, _0)
        _set(self, f1, _1)
        _set(self, f2, _2)
        if post is not None:
            post(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or ((self._0 is other._0 or self._0 == other._0)
                                     and (self._1 is other._1 or self._1 == other._1)
                                     and (self._2 is other._2 or self._2 == other._2))
        return NotImplemented

    def __hash__(self):
        return hash((self._0, self._1, self._2))

    return __init__, __eq__, __hash__


def _arity4(f, post):
    f0, f1, f2, f3 = f

    def __init__(self, _0, _1, _2, _3):
        _set(self, f0, _0)
        _set(self, f1, _1)
        _set(self, f2, _2)
        _set(self, f3, _3)
        if post is not None:
            post(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or ((self._0 is other._0 or self._0 == other._0)
                                     and (self._1 is other._1 or self._1 == other._1)
                                     and (self._2 is other._2 or self._2 == other._2)
                                     and (self._3 is other._3 or self._3 == other._3))
        return NotImplemented

    def __hash__(self):
        return hash((self._0, self._1, self._2, self._3))

    return __init__, __eq__, __hash__


def _arity5(f, post):
    f0, f1, f2, f3, f4 = f

    def __init__(self, _0, _1, _2, _3, _4):
        _set(self, f0, _0)
        _set(self, f1, _1)
        _set(self, f2, _2)
        _set(self, f3, _3)
        _set(self, f4, _4)
        if post is not None:
            post(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or ((self._0 is other._0 or self._0 == other._0)
                                     and (self._1 is other._1 or self._1 == other._1)
                                     and (self._2 is other._2 or self._2 == other._2)
                                     and (self._3 is other._3 or self._3 == other._3)
                                     and (self._4 is other._4 or self._4 == other._4))
        return NotImplemented

    def __hash__(self):
        return hash((self._0, self._1, self._2, self._3, self._4))

    return __init__, __eq__, __hash__


def _arity6(f, post):
    f0, f1, f2, f3, f4, f5 = f

    def __init__(self, _0, _1, _2, _3, _4, _5):
        _set(self, f0, _0)
        _set(self, f1, _1)
        _set(self, f2, _2)
        _set(self, f3, _3)
        _set(self, f4, _4)
        _set(self, f5, _5)
        if post is not None:
            post(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or ((self._0 is other._0 or self._0 == other._0)
                                     and (self._1 is other._1 or self._1 == other._1)
                                     and (self._2 is other._2 or self._2 == other._2)
                                     and (self._3 is other._3 or self._3 == other._3)
                                     and (self._4 is other._4 or self._4 == other._4)
                                     and (self._5 is other._5 or self._5 == other._5))
        return NotImplemented

    def __hash__(self):
        return hash((self._0, self._1, self._2, self._3, self._4, self._5))

    return __init__, __eq__, __hash__


def _repr(self):
    inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
    return f"{self.__class__.__qualname__}({inner})"


_ARITIES = (_arity0, _arity1, _arity2, _arity3, _arity4, _arity5, _arity6)


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
    if len(names) >= len(_ARITIES):
        raise TypeError(f"{cls.__name__}: a record has at most 6 fields")
    defaults = tuple(getattr(cls, n) for n in names if hasattr(cls, n))
    if any(hasattr(cls, n) for n in names[:len(names) - len(defaults)]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    init, eq, hash_ = _ARITIES[len(names)](names, getattr(cls, "__post_init__", None))
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
