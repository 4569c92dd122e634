"""Term construction, typing, serialization, and comparison normal forms."""

import pytest

from dworklab.errors import TermError
from dworklab.geometry import FuncName, FuncPull, SubName, SubPre
from dworklab.terms import (
    ETensor,
    Exp,
    Fourier,
    Oim,
    Opb,
    RGamma,
    Shift,
    Struct,
    Tensor,
    Var,
    core_key,
    equal_normal,
    keyed_subterms,
    navigate,
    normalize,
    replace,
    serialize,
    shifted_key,
    split_shift,
    variety_of,
)

from oracles import subterms


def _section_side(ctx):
    return Opb(ctx.composite("iotacheck"), Oim(ctx.composite("s"), Struct("X")))


def test_variety_of_basic(dwork):
    assert variety_of(dwork, Struct("X")) == "X"
    assert variety_of(dwork, Exp("V", FuncName("F"))) == "V"
    assert variety_of(dwork, _section_side(dwork)) == "X"
    assert variety_of(dwork, Shift(RGamma(SubName("S"), Struct("X")), 1)) == "X"
    assert variety_of(dwork, Var("M", "X")) == "X"


def test_variety_of_rejects_mismatches(dwork):
    with pytest.raises(TermError):
        variety_of(dwork, Opb(dwork.composite("s"), Struct("X")))  # wants Adual
    with pytest.raises(TermError):
        variety_of(dwork, Tensor(Struct("X"), Struct("V")))
    with pytest.raises(TermError):
        variety_of(dwork, RGamma(SubName("iotaS"), Struct("X")))
    with pytest.raises(TermError):
        variety_of(dwork, Exp("X", FuncName("F")))  # F lives on V
    with pytest.raises(TermError):
        variety_of(dwork, Struct("nope"))


@pytest.mark.parametrize("build,message", [
    (lambda s: Tensor(Struct("X"), Var("M", "nope")),
     "at /1: unknown variety 'nope'"),
    (lambda s: Oim(s, Var("N", "X")), "at /0: undeclared object 'N'"),
    (lambda s: Shift(Var("M", "V"), 1),
     "at /0: object 'M' lives on X, not V"),
    # a geometry refusal below a term is wrapped, with the term's path
    (lambda s: Tensor(Struct("V"), Exp("V", FuncName("nope"))),
     "at /1: unknown function 'nope'"),
    (lambda s: Oim(s, RGamma(SubName("nope"), Struct("X"))),
     "at /0: unknown subvariety 'nope'"),
    (lambda s: Fourier("Adual", Fourier("X", Struct("X"))),
     "at /0: bundle 'X' has no declared pairing"),
    (lambda s: Tensor(Struct("Adual"), Fourier("V", Struct("X"))),
     "at /1: transform of a term on X, expected V"),
    (lambda s: Tensor(Struct("X"), Shift(Struct("X"), 1.5)),
     "at /1: shift by non-integer 1.5"),
    (lambda s: Tensor(Struct("X"), "junk"), "at /1: not a term: 'junk'"),
], ids=["var-variety", "undeclared", "other-variety", "exp-function",
        "rgamma-support", "unpaired-bundle", "wrong-bundle", "shift",
        "non-term"])
def test_each_refusal_names_its_path(dwork, build, message):
    with pytest.raises(TermError) as exc:
        variety_of(dwork, build(dwork.composite("s")))
    assert str(exc.value) == message


def test_variety_of_lets_a_caller_bug_through(dwork):
    # a map that is not a Morphism is a bug of the caller, not an
    # ill-formed term
    with pytest.raises(AttributeError):
        variety_of(dwork, Exp("V", FuncPull(FuncName("F"), "pi")))
    with pytest.raises(AttributeError):
        variety_of(dwork, RGamma(SubPre("s", SubName("S")), Struct("X")))


def test_serialize_is_stable_and_injective_enough(dwork):
    t = _section_side(dwork)
    s1, s2 = serialize(t), serialize(t)
    assert s1 == s2
    assert serialize(Shift(t, 1)) != s1
    assert serialize(Oim(dwork.composite("s"), Struct("X"))) != s1


def test_navigate_and_replace(dwork):
    t = _section_side(dwork)
    assert navigate(t, ()) is t
    assert navigate(t, (0,)) is t.arg
    assert navigate(t, (0, 0)) == Struct("X")
    swapped = replace(t, (0, 0), Struct("X"))
    assert equal_normal(dwork, swapped, t)
    with pytest.raises(TermError):
        navigate(t, (1,))
    with pytest.raises(TermError):
        navigate(t, (0, 0, 0))


def test_replace_goes_through_a_shift_and_refuses_a_missing_child(dwork):
    s = dwork.composite("s")
    m = Var("M", "X")
    assert replace(Shift(Oim(s, Struct("X")), 2), (0, 0), m) == Shift(
        Oim(s, m), 2)
    with pytest.raises(TermError) as exc:
        replace(Oim(s, Struct("X")), (1,), m)
    assert str(exc.value) == "no child 1 in Oim[s](O[X])"


def test_subterm_paths_and_size(dwork):
    t = _section_side(dwork)
    paths = [path for path, _sub in subterms(t)]
    assert ((), (0,), (0, 0)) == tuple(paths)
    assert all(sub is navigate(t, path) for path, sub in subterms(t))
    assert [n for *_rest, n in keyed_subterms(t)] == [3, 2, 1]


def test_keyed_subterms_serialize_each_subterm_in_place(dwork):
    # every node kind, a shift below the root and both sides of a tensor
    m = Var("M", "X")
    t = Shift(Tensor(
        Opb(dwork.composite("iotacheck"), Oim(dwork.composite("s"), m)),
        RGamma(SubName("S"), Shift(ETensor(Exp("V", FuncName("F")),
                                           Fourier("V", Struct("V"))), -3))),
        2)
    walk = keyed_subterms(t)
    whole = serialize(t)
    # the text format itself, pinned apart from the walk that spells it
    assert whole == (
        "(Tensor(Opb[iotacheck](Oim[s](M@X)),RGamma[n:S]((ETensor("
        "Exp[V](n:F),Fourier[V](O[V])))[-3])))[2]")
    assert [(path, sub) for path, sub, *_rest in walk] == list(subterms(t))
    assert walk[0][2:] == (whole, 0, 11)
    for _path, sub, key, start, n in walk:
        assert key == serialize(sub)
        assert whole[start:start + len(key)] == key
        assert n == len(list(subterms(sub)))


def test_shifted_keys_wrap_and_unwrap_as_shift_nodes_spell(dwork):
    core = Oim(dwork.composite("s"), Shift(Struct("X"), 2))
    key = serialize(core)
    assert shifted_key(key, 0) == key
    for k in (1, -3):
        wrapped = shifted_key(key, k)
        assert wrapped == serialize(Shift(core, k))
        assert core_key(wrapped) == key
    assert core_key(key) == key


def test_serialize_refuses_what_is_not_a_term():
    with pytest.raises(TermError, match="not a term: 'X'"):
        serialize(Tensor(Struct("X"), "X"))


def test_shift_canonicalization(dwork):
    t = Shift(Oim(dwork.composite("s"), Shift(Struct("X"), 2)), -1)
    core, k = split_shift(normalize(dwork, t))
    assert k == 1
    assert serialize(core) == serialize(Oim(dwork.composite("s"), Struct("X")))
    assert equal_normal(dwork, t, Shift(Oim(dwork.composite("s"), Struct("X")), 1))
    # shift by zero is dropped entirely
    assert serialize(normalize(dwork, Shift(Struct("X"), 0))) == \
        serialize(normalize(dwork, Struct("X")))


def test_normalize_drops_identity_images(dwork):
    i = dwork.identity("X")
    t = Oim(i, Opb(i, Struct("X")))
    assert equal_normal(dwork, t, Struct("X"))
    # declared-identity composites count as identities too
    m = dwork.composite("p1", "stilde")
    assert equal_normal(dwork, Opb(m, Struct("V")), Struct("V"))


def test_normalize_collapses_structure_pullbacks(dwork):
    t = Opb(dwork.composite("pi"), Struct("X"))
    assert equal_normal(dwork, t, Struct("V"))
    phi = FuncPull(FuncName("t"), dwork.composite("gammaV"))
    e = Opb(dwork.composite("stilde"), Exp("VA", phi))
    assert equal_normal(dwork, e, Exp("V", FuncName("F")))


def test_normalize_tensor_unit_and_order(dwork):
    M = Var("M", "X")
    t = Tensor(M, Struct("X"))
    assert equal_normal(dwork, t, M)
    a = Tensor(M, Oim(dwork.composite("j"), Struct("S")))
    b = Tensor(Oim(dwork.composite("j"), Struct("S")), M)
    assert equal_normal(dwork, a, b)


def test_equal_normal_distinguishes(dwork):
    assert not equal_normal(dwork, Struct("X"), Struct("V"))
    assert not equal_normal(dwork, Shift(Struct("X"), 1), Struct("X"))
    lhs = Oim(dwork.composite("pi"), Exp("V", FuncName("F")))
    rhs = Shift(RGamma(SubName("S"), Struct("X")), 1)
    assert not equal_normal(dwork, lhs, rhs)  # needs the proof, not just nf
