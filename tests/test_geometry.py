"""Declaration registry, morphism normal forms, and subvariety algebra."""

import copy

import pytest

from dworklab.errors import GeometryError
from dworklab.geometry import (
    FourierData,
    GeometryContext,
    Morphism,
    SubCap,
    SubName,
    SubPre,
    SubRed,
)


def test_duplicate_declarations_rejected(dwork):
    with pytest.raises(GeometryError):
        dwork.variety("X", 2)
    with pytest.raises(GeometryError):
        dwork.morphism("s", "X", "Adual")
    with pytest.raises(GeometryError):
        dwork.subvariety("S", "X")


def test_unknown_lookups_raise(dwork):
    with pytest.raises(GeometryError):
        dwork.need_variety("nope")
    with pytest.raises(GeometryError):
        dwork.composite("nope")
    with pytest.raises(GeometryError):
        dwork.need_subvariety("nope")


def test_bundle_dimension_bookkeeping():
    ctx = GeometryContext()
    ctx.variety("X", 2)
    ctx.bundle("V", "X", 1, proj="pi", sect="iota")
    ctx.bundle("W", "X", 3, proj="q", sect="iw")
    assert ctx.varieties["V"].dim == 3
    assert ctx.varieties["W"].dim == 5
    # pairing a rank-r bundle with its dual puts the product at dim n + 2r
    ctx.bundle("Vd", "X", 1, proj="pid", sect="iotad")
    ctx.fourier_pair("V", "Vd", "VVd", "p1", "p2", "gam", "L", "t")
    assert ctx.varieties["VVd"].dim == 2 + 2 * 1


def test_composition_is_concatenation(dwork):
    m = dwork.composite("p1", "stilde")
    assert m.atoms == ("p1", "stilde")
    assert (m.source, m.target) == ("V", "V")
    gf = dwork.compose(dwork.composite("pi"), dwork.composite("iota"))
    assert gf.atoms == ("pi", "iota")
    with pytest.raises(GeometryError):
        dwork.compose(dwork.composite("pi"), dwork.composite("pi"))


def test_declared_identity_cancels(dwork):
    m = dwork.composite("p1", "stilde")
    assert dwork.is_identity(m)
    assert dwork.normalize_morphism(m).atoms == ()
    # the cancellation fires inside longer words, after which the declared
    # square relation p2.stilde = s.pi gets its turn
    long = dwork.composite("p2", "stilde", "p1", "stilde")
    nf = dwork.normalize_morphism(long)
    assert nf.atoms == ("s", "pi")


def test_negation_pairs_cancel(transform_ctx):
    ctx = transform_ctx
    nn = ctx.composite("negV", "negV")
    assert ctx.is_identity(nn)
    assert ctx.normalize_morphism(nn).atoms == ()
    assert not ctx.is_identity(ctx.composite("negV"))


def test_morphisms_equal_uses_declared_relations(transform_ctx):
    ctx = transform_ctx
    a = ctx.composite("gammaV", "alpha")
    b = ctx.composite("gammaW", "beta")
    assert ctx.morphisms_equal(a, b)
    assert not ctx.morphisms_equal(a, ctx.composite("gammaW"))


def _two_maps():
    ctx = GeometryContext()
    ctx.variety("X", 1)
    ctx.variety("Y", 1)
    ctx.morphism("f", "X", "Y")
    ctx.morphism("g", "Y", "X")
    return ctx


def test_a_declared_identity_renormalizes_maps_seen_before():
    ctx = _two_maps()
    gf = ctx.composite("g", "f")
    fgf = ctx.composite("f", "g", "f")
    assert ctx.normalize_morphism(gf).atoms == ("g", "f")
    assert ctx.normalize_morphism(fgf).atoms == ("f", "g", "f")
    assert not ctx.is_identity(gf)
    ctx.declare_identity(("g", "f"), ())
    assert ctx.normalize_morphism(gf).atoms == ()
    assert ctx.normalize_morphism(fgf).atoms == ("f",)
    assert ctx.is_identity(gf)


def test_a_declared_negation_renormalizes_maps_seen_before():
    # `n` is named twice, apart, in a map normalized before `n` is
    # declared; once it is a negation and g.f an identity, the two meet
    # and cancel
    ctx = _two_maps()
    word = Morphism(("n", "g", "f", "n"), "X", "X")
    assert ctx.normalize_morphism(word).atoms == word.atoms
    ctx.morphism("n", "X", "X", kind="negation")
    assert ctx.normalize_morphism(word).atoms == word.atoms
    ctx.declare_identity(("g", "f"), ())
    assert ctx.normalize_morphism(word).atoms == ()
    assert ctx.is_identity(ctx.composite("n", "g", "f", "n"))


def _endomaps(*names):
    ctx = GeometryContext()
    ctx.variety("X", 1)
    for name in names:
        ctx.morphism(name, "X", "X")
    return ctx


def test_a_negation_pair_cancels_before_an_identity():
    # g.n = h matches at the left end, but n.n cancels first
    ctx = _endomaps("g", "h")
    ctx.morphism("n", "X", "X", kind="negation")
    ctx.declare_identity(("g", "n"), ("h",))
    word = ctx.composite("g", "n", "n")
    assert ctx.normalize_morphism(word).atoms == ("g",)


def test_an_earlier_identity_wins_over_a_later_one_further_left():
    ctx = _endomaps("a", "b", "c", "d", "e")
    ctx.declare_identity(("b", "c"), ("d",))
    ctx.declare_identity(("a", "b"), ("e",))
    word = ctx.composite("a", "b", "c")
    assert ctx.normalize_morphism(word).atoms == ("a", "d")


def test_looping_identities_stop_at_the_budget():
    # a = b, then b = a: from a.a the word goes b.a, b.b, then alternates
    # a.b, b.b; the budget of 64 * (2 + 1) rewrites, an even count, ends
    # on b.b
    ctx = _endomaps("a", "b")
    ctx.declare_identity(("a",), ("b",))
    ctx.declare_identity(("b",), ("a",))
    word = ctx.composite("a", "a")
    assert ctx.normalize_morphism(word).atoms == ("b", "b")


def test_the_first_pair_in_key_order_merges_first():
    # B and C meet in E, A and B in D: of the pairs (A, B), (A, C),
    # (B, C), in sub_key order, (A, B) is the first with a cap fact
    ctx = GeometryContext()
    ctx.variety("X", 2)
    for name in "ABC":
        ctx.subvariety(name, "X", codim=1)
    ctx.subvariety("E", "X", codim=1, caps=[("B", "C")])
    ctx.subvariety("D", "X", codim=1, caps=[("A", "B")])
    cap = SubCap((SubName("C"), SubName("B"), SubName("A")))
    assert ctx.normalize_sub(cap) == SubCap((SubName("C"), SubName("D")))


def test_a_refused_negation_declares_nothing():
    ctx = _two_maps()
    before = dict(ctx.atoms)
    with pytest.raises(GeometryError, match="must be an endomap"):
        ctx.morphism("n", "X", "Y", kind="negation")
    assert ctx.atoms == before
    ctx.morphism("n", "X", "X", kind="negation")
    assert ctx.negations == {"X": "n"}


def _registries(ctx):
    return {k: copy.deepcopy(v) for k, v in vars(ctx).items()
            if not k.startswith("_")}


def _declared():
    ctx = GeometryContext()
    ctx.variety("X", 2)
    ctx.variety("Y", 1)
    ctx.morphism("taken", "X", "Y")
    ctx.bundle("V", "X", 1, proj="pv", sect="iv")
    ctx.bundle("Vd", "X", 1, proj="pvd", sect="ivd")
    ctx.subvariety("A", "X", codim=1)
    ctx.subvariety("B", "X", codim=1)
    ctx.morphism("j", "Y", "X", kind="closed")
    ctx.subvariety("J", "X", image="j")
    ctx.product("YY", "Y", "Y", "r1", "r2")
    ctx.function("u", "X")
    ctx.morphism("tw", "Y", "Y", transpose="w")
    return ctx


# (refused declaration, its reason, the same names declared as accepted):
# each refusal comes after the declaration's first write used to
REFUSED = {
    "morphism": (
        lambda ctx: ctx.morphism("h", "X", "X", kind="negation",
                                 transpose="ht",
                                 identities=((("h", "h"), ()),
                                             (("nosuch",), ()))),
        "unknown morphism 'nosuch'",
        lambda ctx: ctx.morphism("h", "X", "X", kind="negation",
                                 transpose="ht",
                                 identities=((("h", "h"), ()),))),
    "bundle": (
        lambda ctx: ctx.bundle("E", "X", 1, proj="taken", sect="zE"),
        "morphism 'taken' already declared",
        lambda ctx: ctx.bundle("E", "X", 1, proj="pE", sect="zE")),
    "product": (
        lambda ctx: ctx.product("P", "X", "Y", "q1", "taken"),
        "morphism 'taken' already declared",
        lambda ctx: ctx.product("P", "X", "Y", "q1", "q2")),
    "fourier_pair": (
        lambda ctx: ctx.fourier_pair("V", "Vd", "VVd", "p1", "p2", "taken",
                                     "L", "t"),
        "morphism 'taken' already declared",
        lambda ctx: ctx.fourier_pair("V", "Vd", "VVd", "p1", "p2", "gam",
                                     "L", "t")),
    "subvariety": (
        lambda ctx: ctx.subvariety("C", "X", codim=1,
                                   caps=(("A", "B"), ("A", "nosuch"))),
        "unknown subvariety 'nosuch'",
        lambda ctx: ctx.subvariety("C", "X", codim=1, caps=(("A", "B"),))),
    # an index keeps its first entry: no second image of one embedding,
    # no second projection of one factor, no coordinate over a function,
    # no second plain product of two factors
    "second image": (
        lambda ctx: ctx.subvariety("C", "X", image="j"),
        "j already has the image 'J'",
        lambda ctx: ctx.subvariety("C", "X", codim=1)),
    "second projection": (
        lambda ctx: ctx.morphism("q", "YY", "Y", kind="projection", factor=2),
        "morphism 'q': YY already has projection 2, 'r2'",
        lambda ctx: ctx.morphism("q", "YY", "Y")),
    "second product": (
        lambda ctx: ctx.product("P", "Y", "Y", "q1", "q2"),
        "Y x Y already has the product 'YY'",
        lambda ctx: ctx.product("P", "X", "Y", "q1", "q2")),
    # a transpose pairs two maps for good, whichever is declared first
    "second transpose": (
        lambda ctx: ctx.morphism("w", "Y", "Y", transpose="h"),
        "w already has the transpose 'tw'",
        lambda ctx: ctx.morphism("w", "Y", "Y", transpose="tw")),
    "transpose taken": (
        lambda ctx: ctx.morphism("h", "Y", "Y", transpose="w"),
        "w already has the transpose 'tw'",
        lambda ctx: ctx.morphism("h", "Y", "Y")),
    "coordinate": (
        lambda ctx: ctx.fourier_pair("V", "Vd", "VVd", "p1", "p2", "gam",
                                     "L", "u"),
        "function 'u' already declared",
        lambda ctx: ctx.fourier_pair("V", "Vd", "VVd", "p1", "p2", "gam",
                                     "L", "t")),
}


@pytest.mark.parametrize("kind", REFUSED)
def test_a_refused_declaration_writes_nothing(kind):
    refused, reason, accepted = REFUSED[kind]
    ctx = _declared()
    before = _registries(ctx)
    with pytest.raises(GeometryError) as exc:
        refused(ctx)
    assert str(exc.value) == reason
    assert _registries(ctx) == before
    accepted(ctx)
    assert _registries(ctx) != before


def test_a_fourier_pair_is_a_fiber_product_and_a_pairing():
    paired, parts = _declared(), _declared()
    paired.fourier_pair("V", "Vd", "VVd", "p1", "p2", "gam", "L", "t")
    parts.product("VVd", "V", "Vd", "p1", "p2", base="X")
    parts.variety("L", 3)
    parts.function("t", "L")
    parts.morphism("gam", "VVd", "L", kind="pairing")
    assert _registries(paired) == dict(_registries(parts),
                                       fourier=paired.fourier)
    assert paired.fourier == {
        "V": FourierData("V", "Vd", "VVd", "p1", "p2", "gam", "L", "t"),
        "Vd": FourierData("Vd", "V", "VVd", "p2", "p1", "gam", "L", "t")}


def test_identity_morphism(dwork):
    i = dwork.identity("X")
    assert i.atoms == () and i.source == i.target == "X"
    assert dwork.is_identity(i)


def test_embedding_recognition(dwork):
    assert dwork.is_embedding(dwork.composite("iota"))
    assert dwork.is_embedding(dwork.composite("s"))
    assert dwork.is_embedding(dwork.composite("j"))
    assert not dwork.is_embedding(dwork.composite("pi"))


def test_transpose_lookup(transform_ctx):
    ctx = transform_ctx
    t = ctx.transpose_morphism(ctx.composite("f"))
    assert t.atoms == ("tf",)
    back = ctx.transpose_morphism(t)
    assert back.atoms == ("f",)


def test_transpose_lookup_in_either_declaration_order():
    for first_f in (True, False):
        ctx = GeometryContext()
        for name in ("X", "V", "W"):
            ctx.variety(name, 1)
        maps = [("f", "V", "W", ""), ("tf", "W", "V", "f")]
        for name, source, target, transpose in (maps if first_f
                                                else maps[::-1]):
            ctx.morphism(name, source, target, kind="bundle-map",
                         transpose=transpose)
        assert ctx.transpose_morphism(ctx.composite("f")).atoms == ("tf",)
        assert ctx.transpose_morphism(ctx.composite("tf")).atoms == ("f",)


def test_subvariety_facts_are_typed(dwork):
    dwork.subvariety("T", "Adual", codim=2, caps=[("sX", "iotaX")],
                     preimages=[("s", "S")])
    assert dwork.cap_facts[frozenset(("sX", "iotaX"))] == "T"
    assert dwork.pre_facts[(("s",), "T")] == "S"
    caps, pres = dict(dwork.cap_facts), dict(dwork.pre_facts)
    for match, facts in (("ambients", {"caps": [("S", "sX")]}),
                         ("does not land", {"preimages": [("j", "S")]}),
                         ("source", {"preimages": [("s", "iotaS")]})):
        with pytest.raises(GeometryError, match=match):
            dwork.subvariety("U", "Adual", codim=2, **facts)
        assert "U" not in dwork.subvarieties
        assert (dwork.cap_facts, dwork.pre_facts) == (caps, pres)


def test_find_pmap(graph_ctx):
    ctx = graph_ctx
    assert ctx.find_pmap("id", "f", "XX", "XY") == "fpp"
    assert ctx.find_pmap("f", "f", "XX", "XY") is None


def test_subvariety_normal_forms(dwork):
    cap = SubCap((SubName("iotaX"), SubName("sX")))
    assert dwork.subs_equal(cap, SubName("iotaS"))
    # intersection is commutative at the normal-form level
    swapped = SubCap((SubName("sX"), SubName("iotaX")))
    assert dwork.subs_equal(swapped, SubName("iotaS"))
    pre = SubPre(dwork.composite("iotacheck"), SubName("iotaS"))
    assert dwork.subs_equal(pre, SubName("S"))
    assert not dwork.subs_equal(SubName("S"), SubName("iotaS"))


def test_reduction_is_idempotent(dwork):
    r = SubRed(SubRed(SubName("S")))
    assert dwork.normalize_sub(r) == dwork.normalize_sub(SubRed(SubName("S")))


def test_sub_ambient_and_smoothness(dwork):
    assert dwork.sub_ambient(SubName("S")) == "X"
    assert dwork.sub_ambient(SubName("iotaS")) == "Adual"


def test_function_normal_form(dwork):
    from dworklab.geometry import FuncName, FuncPull

    defn = dwork.functions["F"][1]
    assert dwork.funcs_equal(FuncName("F"), defn)
    # pulling back along a declared-identity composite changes nothing
    pulled = FuncPull(FuncName("F"), dwork.composite("p1", "stilde"))
    assert dwork.funcs_equal(pulled, FuncName("F"))
    assert dwork.func_variety(FuncName("F")) == "V"
    assert dwork.func_variety(FuncName("t")) == "A1X"


def test_square_registers_commutation(dwork):
    # the two ways around a declared square are the same morphism
    a = dwork.composite("p2", "stilde")
    b = dwork.composite("s", "pi")
    assert dwork.morphisms_equal(a, b)
