"""Immutable value classes, built without per-class code generation.

`record` turns a class body of annotated fields into an immutable
`__slots__` class, as a frozen dataclass would, but it compiles no code
for the class: every method but `__init__` is one function shared by all
records, and reads what it needs of the class from two class attributes,
`_fields` (every field, in order) and `_key` (an `attrgetter` of the
fields that equality and hashing compare).  `__init__` is a closure over
the fields' slot setters, made by one factory per field count and given
the class's field names as its parameter names, so it takes the same
positional, keyword and default arguments as the dataclass's would.

What a record keeps of the frozen dataclass it replaces:

- `==` holds only between two records of one class with equal compared
  fields, and `hash` follows the compared fields;
- `repr` is the dataclass's, `Name(field=value, ...)`, over every field;
- assigning or deleting an attribute raises AttributeError;
- `copy`, `deepcopy` and `pickle` go through `__getstate__` and
  `__setstate__`;
- `__match_args__` names the positional fields, and `_replace(**changes)`
  is `dataclasses.replace`.

A record made with `aside=(name, default)` has one more field, last and
keyword-only, that `repr` shows and `==` and `hash` ignore: a statement's
span in its script.

Mutable defaults are not copied: a default is shared by every record that
takes it, so a record's default must not be changed in place.
"""

from __future__ import annotations

from functools import cache
from operator import attrgetter


@cache
def _factory(n):
    """The factory of `__init__` closures over n slot setters, compiled
    once and shared by every record of n fields."""
    setters = ", ".join(f"s{i}" for i in range(n))
    values = ", ".join(f"v{i}" for i in range(n))
    sets = "; ".join(f"s{i}(self, v{i})" for i in range(n))
    scope = {}
    exec(compile(f"def make({setters}):\n"
                 f"    def __init__(self, {values}):\n"
                 f"        {sets}\n"
                 f"    return __init__\n", "<record>", "exec"), scope)
    return scope["make"]


def _eq(self, other):
    if other.__class__ is self.__class__:
        key = self._key
        return key(self) == key(other)
    return NotImplemented


def _hash(self):
    return hash(self._key(self))


def _repr(self):
    return (f"{self.__class__.__qualname__}("
            + ", ".join([f"{name}={getattr(self, name)!r}"
                         for name in self._fields]) + ")")


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _getstate(self):
    return [getattr(self, name) for name in self._fields]


def _setstate(self, state):
    for name, value in zip(self._fields, state):
        object.__setattr__(self, name, value)


def _replace(self, **changes):
    """A copy of this record with the fields in `changes` replaced."""
    values = {name: getattr(self, name) for name in self._fields}
    values.update(changes)
    return self.__class__(**values)


_SHARED = {"__eq__": _eq, "__hash__": _hash, "__repr__": _repr,
           "__setattr__": _setattr, "__delattr__": _delattr,
           "__getstate__": _getstate, "__setstate__": _setstate,
           "_replace": _replace}


def make_record(name, fields, defaults=(), *, aside=None, bases=(),
                namespace=None):
    """The record class `name` of `fields`, in order; `defaults` are the
    defaults of the last fields.  `aside` is (name, default) of a
    keyword-only field after them that `==` and `hash` ignore.
    `namespace` holds the class's other attributes (methods, `__doc__`,
    `__module__`)."""
    fields = tuple(fields)
    every = fields + (aside[0],) if aside else fields
    ns = dict(namespace or {})
    ns.update(_SHARED, __slots__=every, __match_args__=fields,
              _fields=every, _key=attrgetter(*fields))
    cls = type(name, bases, ns)
    init = _factory(len(every))(
        *[cls.__dict__[field].__set__ for field in every])
    # the closure's parameters take the field names, the aside keyword-only
    init.__code__ = init.__code__.replace(
        co_varnames=("self", *every), co_argcount=len(fields) + 1,
        co_kwonlyargcount=len(every) - len(fields))
    init.__defaults__ = tuple(defaults) or None
    init.__kwdefaults__ = {aside[0]: aside[1]} if aside else None
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


def record(cls):
    """Class decorator: the record of `cls`'s annotated fields, in order;
    a field's class attribute, if any, is its default."""
    ns = {key: value for key, value in cls.__dict__.items()
          if key not in ("__dict__", "__weakref__", "__annotations__")}
    ns["__qualname__"] = cls.__qualname__
    fields = tuple(cls.__dict__.get("__annotations__", {}))
    has_default = [field in ns for field in fields]
    if has_default != sorted(has_default):
        raise TypeError(f"{cls.__name__}: a field without a default follows "
                        "one with a default")
    defaults = [ns.pop(field) for field in fields if field in ns]
    return make_record(cls.__name__, fields, defaults, bases=cls.__bases__,
                       namespace=ns)
