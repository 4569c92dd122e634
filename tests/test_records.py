"""Every record class behaves as the frozen dataclass it replaced: equality
and hashing within one class, the dataclass repr, refused assignment and
deletion, copies equal to the original, and a statement's span kept out
of equality and hashing."""

import copy
import dataclasses
import functools
import importlib
import pickle
import sys

import pytest

import dworklab
from dworklab import terms as T


def _record_classes():
    for name in sorted(dworklab._SUBMODULES):
        importlib.import_module(f"dworklab.{name}")
    found = {}
    for modname, module in sorted(sys.modules.items()):
        if not modname.startswith("dworklab"):
            continue
        for cls in vars(module).values():
            if (isinstance(cls, type) and cls.__module__ == modname
                    and "_key" in vars(cls)):
                found[f"{modname}.{cls.__qualname__}"] = cls
    return dict(sorted(found.items()))


RECORDS = _record_classes()


def test_every_value_class_is_a_record():
    # 10 terms, 13 geometry values, ProofStep, Closure and Lemma, the four
    # syntax-only leaves, ScriptDocument and the 16 statement classes
    assert len(RECORDS) == 47
    by_module = {}
    for name in RECORDS:
        module = name.rsplit(".", 1)[0]
        by_module[module] = by_module.get(module, 0) + 1
    assert by_module == {"dworklab.terms": 10, "dworklab.geometry": 13,
                         "dworklab.certificates": 3, "dworklab.dsl": 21}


def _keyword_only(cls):
    return cls._fields[len(cls.__match_args__):]


def _value(i, salt=""):
    # a nested term, distinct for each field and salt
    leaf = T.Var(f"M{i}{salt}", f"X{i}")
    return T.Shift(T.Tensor(T.Struct(f"X{i}"), leaf), i)


def _build(cls, salt="", span=(1, 2)):
    values = [_value(i, salt) for i in range(len(cls.__match_args__))]
    extra = {name: span for name in _keyword_only(cls)}
    return cls(*values, **extra)


@functools.cache
def _mirror(cls):
    """A frozen dataclass of `cls`'s name and fields."""
    spec = [(name, object) for name in cls.__match_args__]
    spec += [(name, object, dataclasses.field(default=None, kw_only=True,
                                              compare=False))
             for name in _keyword_only(cls)]
    return dataclasses.make_dataclass(cls.__qualname__, spec, frozen=True)


def _as_dataclass(x):
    """`x` with every record in it replaced by its `_mirror` dataclass."""
    cls = type(x)
    if cls in RECORDS.values():
        return _mirror(cls)(
            *[_as_dataclass(getattr(x, name)) for name in cls.__match_args__],
            **{name: _as_dataclass(getattr(x, name))
               for name in _keyword_only(cls)})
    if cls is tuple:
        return tuple(map(_as_dataclass, x))
    return x


@pytest.mark.parametrize("cls", RECORDS.values(), ids=list(RECORDS))
def test_record_semantics(cls):
    x = _build(cls)
    # equal and equally hashed to an equal record built anew
    y = _build(cls)
    assert x == y and not x != y and hash(x) == hash(y)
    # each field counts in == and in hash
    for i, name in enumerate(cls.__match_args__):
        z = x._replace(**{name: _value(i, "other")})
        assert z != x, name
        assert hash(z) != hash(x), name
    # equality holds only within one class
    assert x != tuple(getattr(x, n) for n in cls.__match_args__)
    for other in RECORDS.values():
        if other is not cls and other.__match_args__ == cls.__match_args__:
            assert x != _build(other), other
    # the repr of the dataclass, on nested terms
    assert repr(x) == repr(_as_dataclass(x))
    # assignment and deletion are refused
    for name in cls._fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == y
    # copies are equal, with every field, the span too
    for twin in (copy.copy(x), copy.deepcopy(x),
                 pickle.loads(pickle.dumps(x))):
        assert type(twin) is cls and twin == x and repr(twin) == repr(x)
    assert copy.deepcopy(x) is not x
    # a span is kept out of == and hash
    for name in _keyword_only(cls):
        moved = _build(cls, span=(3, 4))
        assert getattr(moved, name) == (3, 4)
        assert moved == x and hash(moved) == hash(x)
        assert repr(moved) != repr(x)


def test_tensors_and_names_of_two_kinds_differ():
    a, b = T.Struct("X"), T.Var("M", "X")
    assert T.Tensor(a, b) != T.ETensor(a, b)
    assert dworklab.SubName("X") != dworklab.FuncName("X")
