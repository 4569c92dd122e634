"""One applicability example per rewrite rule, plus driver-level behavior."""

import math

import pytest

from dworklab import dsl
from dworklab.certificates import ProofCertificate, ProofStep, check_certificate
from dworklab.errors import RuleError
from dworklab.geometry import (
    FuncName,
    FuncPull,
    Morphism,
    SubCap,
    SubName,
    SubPre,
    SubRed,
)
from dworklab.cli import main
from dworklab.rules import (RULES, _ATOM_PAIR_CAP, Moves, apply_step,
                            step_stratum)
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
    canonical_shift,
    equal_normal,
    navigate,
    serialize,
    split_shift,
)


def _step(ctx, term, rule, direction, path=(), b=None, **kw):
    return apply_step(ctx, term, rule, direction, path, b or {}, **kw)


def _roundtrips(ctx, term, rule, fwd_b=None, bwd_b=None, path=(), **kw):
    out, d1 = _step(ctx, term, rule, "fwd", path, fwd_b, **kw)
    back, d2 = _step(ctx, out, rule, "bwd", path, bwd_b, **kw)
    assert equal_normal(ctx, back, term)
    assert d1 + d2 == 0
    return out


# --- composition and base change ---------------------------------------------


def test_r1_merges_and_splits_pullbacks(dwork):
    q = Struct("Adual")
    term = Opb(dwork.composite("pi"), Opb(dwork.composite("s"), q))
    out, delta = _step(dwork, term, "R1", "fwd")
    assert delta == 0
    assert serialize(out) == serialize(Opb(dwork.composite("s", "pi"), q))
    back, _ = _step(dwork, out, "R1", "bwd",
                    b={"f": dwork.composite("pi"), "g": dwork.composite("s")})
    assert serialize(back) == serialize(term)


def test_r2_merges_and_splits_pushforwards(dwork):
    term = Oim(dwork.composite("picheck"), Oim(dwork.composite("s"), Struct("X")))
    out, _ = _step(dwork, term, "R2", "fwd")
    assert serialize(out) == serialize(
        Oim(dwork.composite("picheck", "s"), Struct("X")))
    back, _ = _step(dwork, out, "R2", "bwd",
                    b={"g": dwork.composite("picheck"),
                       "f": dwork.composite("s")})
    assert serialize(back) == serialize(term)


def test_r2_bwd_splits_off_declared_identities(dwork):
    # p1 . stilde = id, so a pushforward may sprout that pair from nothing
    term = Oim(dwork.composite("p1"), Oim(dwork.composite("stilde"), Struct("V")))
    merged, _ = _step(dwork, term, "R2", "fwd")
    assert equal_normal(dwork, merged, Struct("V"))
    again, _ = _step(dwork, merged, "R2", "bwd",
                     b={"g": dwork.composite("p1"),
                        "f": dwork.composite("stilde")})
    assert equal_normal(dwork, again, term)


def test_r3_pullback_distributes_over_tensor(dwork):
    m = Var("M", "X")
    term = Opb(dwork.composite("pi"), Tensor(Struct("X"), m))
    out = _roundtrips(dwork, term, "R3")
    assert serialize(out) == serialize(
        Tensor(Opb(dwork.composite("pi"), Struct("X")),
               Opb(dwork.composite("pi"), m)))


def test_r4_projection_formula(dwork):
    m = Var("M", "X")
    term = Oim(dwork.composite("pi"),
               Tensor(Opb(dwork.composite("pi"), m), Struct("V")))
    out = _roundtrips(dwork, term, "R4")
    assert serialize(out) == serialize(
        Tensor(m, Oim(dwork.composite("pi"), Struct("V"))))


def test_r4_is_gated_by_stratum(dwork):
    m = Var("M", "X")
    term = Oim(dwork.composite("pi"),
               Tensor(Opb(dwork.composite("pi"), m), Struct("V")))
    with pytest.raises(RuleError, match="stratum"):
        _step(dwork, term, "R4", "fwd", allowed_strata=0)


def test_r5_base_change_over_declared_square(dwork):
    m = Var("M", "X")
    term = Oim(dwork.composite("stilde"), Opb(dwork.composite("pi"), m))
    out, delta = _step(dwork, term, "R5", "fwd", b={"square": "sq1"})
    assert serialize(out) == serialize(
        Opb(dwork.composite("p2"), Oim(dwork.composite("s"), m)))
    # dims: (VA - Adual) - (V - X) = (3-2) - (2-1) = 0
    assert delta == 0
    back, _ = _step(dwork, out, "R5", "bwd", b={"square": "sq1"})
    assert serialize(back) == serialize(term)


def test_r5_strict_mode_wants_smooth_corners(dwork):
    term = Oim(dwork.composite("j"), Opb(dwork.composite("j"), Struct("X")))
    with pytest.raises(RuleError, match="smooth"):
        _step(dwork, term, "R5", "fwd", b={"square": "sq2"})
    out, delta = _step(dwork, term, "R5", "fwd", b={"square": "sq2"},
                       mode="allow-singular")
    assert serialize(out) == serialize(
        Opb(dwork.composite("iotacheck"), Oim(dwork.composite("s"), Struct("X"))))
    assert delta == 0  # (dim X - dim Adual) - (dim S - dim X) = -1 + 1


def test_r5_needs_stratum_1_unless_the_transverse_leg_is_an_embedding(dwork):
    # sq1's transverse leg is the projection pi, sq2's the section iotacheck
    assert step_stratum(dwork, "R5", {"square": "sq1"}) == 1
    assert step_stratum(dwork, "R5", {"square": "sq2"}) == 0
    assert step_stratum(dwork, "R4", {}) == 1
    assert step_stratum(dwork, "R1", {}) == 0
    m = Var("M", "X")
    term = Oim(dwork.composite("stilde"), Opb(dwork.composite("pi"), m))
    with pytest.raises(RuleError, match="stratum-1 rule, only 0 allowed"):
        _step(dwork, term, "R5", "fwd", b={"square": "sq1"}, allowed_strata=0)
    term = Oim(dwork.composite("j"), Opb(dwork.composite("j"), Struct("X")))
    _step(dwork, term, "R5", "fwd", b={"square": "sq2"}, allowed_strata=0,
          mode="allow-singular")


# --- local sections -------------------------------------------------------------


def test_r6_supports_split_off_structure_sheaf(dwork):
    m = Var("M", "X")
    term = RGamma(SubName("S"), m)
    out = _roundtrips(dwork, term, "R6")
    assert serialize(out) == serialize(
        Tensor(m, RGamma(SubName("S"), Struct("X"))))


def test_r7_supports_merge_and_rebracket(dwork):
    term = RGamma(SubName("iotaX"), RGamma(SubName("sX"), Struct("Adual")))
    merged, _ = _step(dwork, term, "R7", "fwd")
    assert equal_normal(dwork, merged, RGamma(SubName("iotaS"), Struct("Adual")))
    split, _ = _step(dwork, merged, "R7", "bwd",
                     b={"left": SubName("iotaS"), "right": SubName("iotaX")})
    assert serialize(split) == serialize(
        RGamma(SubName("iotaS"), RGamma(SubName("iotaX"), Struct("Adual"))))
    # rebracketing both supports in one move
    reb, _ = _step(dwork, term, "R7", "fwd",
                   b={"left": SubName("iotaS"), "right": SubName("iotaX")})
    assert serialize(reb) == serialize(split)
    with pytest.raises(RuleError, match="intersect"):
        _step(dwork, term, "R7", "fwd",
              b={"left": SubName("sX"), "right": SubName("sX")})


def test_r8_supports_cross_pushforwards(dwork):
    inner = RGamma(SubName("S"), Struct("X"))
    term = Oim(dwork.composite("iotacheck"), inner)
    out, _ = _step(dwork, term, "R8", "fwd", b={"sub": SubName("iotaS")})
    assert serialize(out) == serialize(
        RGamma(SubName("iotaS"), Oim(dwork.composite("iotacheck"), Struct("X"))))
    back, _ = _step(dwork, out, "R8", "bwd", b={"sub": SubName("S")})
    assert serialize(back) == serialize(term)
    with pytest.raises(RuleError, match="preimage"):
        _step(dwork, term, "R8", "fwd", b={"sub": SubName("sX")})


def test_r10_kashiwara_towers(dwork):
    term = RGamma(SubName("iotaX"), Struct("Adual"))
    out, delta = _step(dwork, term, "R10", "fwd")
    ic = dwork.composite("iotacheck")
    assert serialize(out) == serialize(Shift(Oim(ic, Opb(ic, Struct("Adual"))), -1))
    assert delta == -1
    back, delta2 = _step(dwork, out, "R10", "bwd")
    assert equal_normal(dwork, back, term)
    assert delta2 == 1


def test_r10_two_layers_at_once(dwork):
    term = RGamma(SubName("iotaX"), RGamma(SubName("sX"), Struct("Adual")))
    out, delta = _step(dwork, term, "R10", "fwd", b={"layers": 2})
    assert delta == -2
    back, delta2 = _step(dwork, out, "R10", "bwd", b={"layers": 2})
    assert delta2 == 2
    assert equal_normal(dwork, back, term)


def test_r10_needs_a_declared_image(dwork):
    term = RGamma(SubName("iotaS"), Struct("Adual"))
    with pytest.raises(RuleError, match="image"):
        _step(dwork, term, "R10", "fwd")


def test_r18_reduction_of_supports(dwork):
    term = RGamma(SubName("S"), Struct("X"))
    out, _ = _step(dwork, term, "R18", "fwd")
    assert serialize(out) == serialize(RGamma(SubRed(SubName("S")), Struct("X")))
    back, _ = _step(dwork, out, "R18", "bwd", b={"sub": SubName("S")})
    assert serialize(back) == serialize(term)


# --- exponentials and transforms -----------------------------------------------


def test_r11_exponential_pullback(dwork):
    phi = FuncPull(FuncName("t"), dwork.composite("gammaV"))
    term = Opb(dwork.composite("stilde"), Exp("VA", phi))
    out, _ = _step(dwork, term, "R11", "fwd")
    assert equal_normal(dwork, out, Exp("V", FuncName("F")))
    back, _ = _step(dwork, Exp("V", FuncName("F")), "R11", "bwd",
                    b={"f": dwork.composite("stilde"), "psi": phi})
    assert serialize(back) == serialize(term)
    with pytest.raises(RuleError, match="pullback"):
        _step(dwork, Exp("V", FuncName("F")), "R11", "bwd",
              b={"f": dwork.composite("stilde"), "psi": FuncName("t")})


def test_r12_transform_unfolds_to_kernel(dwork):
    n = Oim(dwork.composite("s"), Struct("X"))
    term = Fourier("Adual", n)
    out, _ = _step(dwork, term, "R12", "fwd", b={"bundle": "Adual"})
    kernel = Opb(dwork.composite("gammaV"), Exp("A1X", FuncName("t")))
    assert serialize(out) == serialize(
        Oim(dwork.composite("p1"), Tensor(Opb(dwork.composite("p2"), n), kernel)))
    back, _ = _step(dwork, out, "R12", "bwd", b={"bundle": "Adual"})
    assert serialize(back) == serialize(term)


def test_r13_double_transform_is_negated_pullback(transform_ctx):
    ctx = transform_ctx
    n = Var("N", "Vb")
    term = Fourier("Vd", Fourier("Vb", n))
    out, _ = _step(ctx, term, "R13", "fwd", b={"bundle": "Vb"})
    assert serialize(out) == serialize(Opb(ctx.composite("negV"), n))
    back, _ = _step(ctx, out, "R13", "bwd", b={"bundle": "Vb"})
    assert serialize(back) == serialize(term)


def test_r14_transform_of_pushforward_transposes(transform_ctx):
    ctx = transform_ctx
    n = Var("N", "Vb")
    term = Fourier("Wb", Oim(ctx.composite("f"), n))
    out, _ = _step(ctx, term, "R14", "fwd")
    assert serialize(out) == serialize(
        Opb(ctx.composite("tf"), Fourier("Vb", n)))
    back, _ = _step(ctx, out, "R14", "bwd")
    assert serialize(back) == serialize(term)


def test_r15_transform_of_pullback_transposes(transform_ctx):
    ctx = transform_ctx
    p = Var("P", "Wb")
    term = Fourier("Vb", Opb(ctx.composite("f"), p))
    out, _ = _step(ctx, term, "R15", "bwd")
    assert serialize(out) == serialize(
        Oim(ctx.composite("tf"), Fourier("Wb", p)))
    back, _ = _step(ctx, out, "R15", "fwd")
    assert serialize(back) == serialize(term)


def test_r16_zero_section_pushforward(dwork):
    term = Oim(dwork.composite("iotacheck"), Struct("X"))
    out, _ = _step(dwork, term, "R16", "fwd", b={"bundle": "V"})
    assert serialize(out) == serialize(
        Fourier("V", Opb(dwork.composite("pi"), Struct("X"))))
    back, _ = _step(dwork, out, "R16", "bwd", b={"bundle": "V"})
    assert serialize(back) == serialize(term)


def test_r17_zero_section_pullback(dwork):
    q = Oim(dwork.composite("s"), Struct("X"))
    term = Opb(dwork.composite("iotacheck"), q)
    out, _ = _step(dwork, term, "R17", "fwd", b={"bundle": "V"})
    assert serialize(out) == serialize(Oim(dwork.composite("pi"), Fourier("Adual", q)))
    back, _ = _step(dwork, out, "R17", "bwd", b={"bundle": "V"})
    assert serialize(back) == serialize(term)


def test_r14_r15_are_stratum_one(transform_ctx):
    ctx = transform_ctx
    n = Var("N", "Vb")
    term = Fourier("Wb", Oim(ctx.composite("f"), n))
    with pytest.raises(RuleError, match="stratum"):
        _step(ctx, term, "R14", "fwd", allowed_strata=0)


# --- unit and exterior-tensor laws ----------------------------------------------


def test_r19_identity_laws(dwork):
    m = Var("M", "X")
    i = dwork.identity("X")
    for law, node in (("opb_id", Opb), ("oim_id", Oim)):
        term = node(i, m)
        out, _ = _step(dwork, term, "R19", "fwd", b={"law": law})
        assert serialize(out) == serialize(m)
        back, _ = _step(dwork, out, "R19", "bwd", b={"law": law, "f": i})
        assert serialize(back) == serialize(term)


def test_r19_tensor_unit(dwork):
    m = Var("M", "X")
    out, _ = _step(dwork, Tensor(m, Struct("X")), "R19", "fwd",
                   b={"law": "tensor_unit"})
    assert serialize(out) == serialize(m)
    back, _ = _step(dwork, m, "R19", "bwd", b={"law": "tensor_unit"})
    assert serialize(back) == serialize(Tensor(m, Struct("X")))


def test_r19_struct_pullback(dwork):
    term = Opb(dwork.composite("pi"), Struct("X"))
    out, _ = _step(dwork, term, "R19", "fwd", b={"law": "struct_pullback"})
    assert serialize(out) == serialize(Struct("V"))
    back, _ = _step(dwork, out, "R19", "bwd",
                    b={"law": "struct_pullback", "f": dwork.composite("pi")})
    assert serialize(back) == serialize(term)


def test_r20_proj2_law(product_ctx):
    ctx = product_ctx
    m = Var("M", "Xv")
    term = Opb(ctx.composite("q2x"), m)
    out, _ = _step(ctx, term, "R20", "fwd", b={"law": "etens_opb_proj2"})
    assert serialize(out) == serialize(ETensor(Struct("Yp"), m))
    back, _ = _step(ctx, out, "R20", "bwd", b={"law": "etens_opb_proj2"})
    assert serialize(back) == serialize(term)


def test_r20_idmap_law(product_ctx):
    ctx = product_ctx
    m = Var("M", "Xv")
    term = Oim(ctx.composite("idf"), ETensor(Struct("Yp"), m))
    out, _ = _step(ctx, term, "R20", "fwd", b={"law": "etens_oim_idmap"})
    assert serialize(out) == serialize(
        ETensor(Struct("Yp"), Oim(ctx.composite("f"), m)))
    back, _ = _step(ctx, out, "R20", "bwd", b={"law": "etens_oim_idmap"})
    assert serialize(back) == serialize(term)


def test_r20_diagonal_law(graph_ctx):
    ctx = graph_ctx
    m, n = Var("M", "X"), Var("N", "Y")
    term = Opb(ctx.composite("dY"), ETensor(n, n))
    out, _ = _step(ctx, term, "R20", "fwd", b={"law": "etens_opb_diag"})
    assert serialize(out) == serialize(Tensor(n, n))
    back, _ = _step(ctx, Tensor(m, m), "R20", "bwd", b={"law": "etens_opb_diag"})
    assert serialize(back) == serialize(Opb(ctx.composite("dX"), ETensor(m, m)))


# --- driver behavior ------------------------------------------------------------


def test_root_shift_is_transparent(dwork):
    m = Var("M", "X")
    term = Shift(Tensor(m, Struct("X")), 3)
    out, delta = _step(dwork, term, "R19", "fwd", b={"law": "tensor_unit"})
    assert delta == 0
    assert serialize(out) == serialize(Shift(m, 3))


def test_rule_delta_folds_into_root_shift(dwork):
    term = Shift(RGamma(SubName("iotaX"), Struct("Adual")), 2)
    out, delta = _step(dwork, term, "R10", "fwd")
    assert delta == -1
    ic = dwork.composite("iotacheck")
    assert serialize(out) == serialize(Shift(Oim(ic, Opb(ic, Struct("Adual"))), 1))


def test_unknown_rule_and_bad_path(dwork):
    with pytest.raises(RuleError, match="unknown rule"):
        _step(dwork, Struct("X"), "R99", "fwd")
    with pytest.raises(RuleError):
        _step(dwork, Struct("X"), "R1", "fwd", path=(0,))
    with pytest.raises(RuleError, match="direction"):
        _step(dwork, Struct("X"), "R1", "sideways")


def test_a_refusal_below_the_root_names_the_step_path(dwork):
    # one step refused by its rule at /0, one at a path past a leaf; the
    # RuleError and the checker's reason both name the step's own path
    pi = dwork.composite("pi")
    core = Oim(pi, Opb(pi, Var("M", "X")))
    cases = [((0,), "R6 at /0: need a supported term"),
             ((0, 0, 0), "R6 at /0/0/0: no child 0 at /0/0 in M@X")]
    for term in (core, Shift(core, 2)):
        for path, message in cases:
            with pytest.raises(RuleError) as exc:
                _step(dwork, term, "R6", "fwd", path=path)
            assert exc.value.path == path
            assert str(exc.value) == message
            cert = ProofCertificate(name="below", goal_lhs=term,
                                    goal_rhs=term,
                                    steps=(ProofStep("R6", "fwd", path),))
            rep = check_certificate(dwork, cert)
            assert rep.status == "invalid"
            assert rep.reason == f"step 1 failed: {message}"
            assert rep.steps[0].path == path


def test_excluded_rules_are_rejected(dwork):
    term = RGamma(SubName("S"), Var("M", "X"))
    with pytest.raises(RuleError, match="excluded"):
        _step(dwork, term, "R6", "fwd", excluded=frozenset({"R6"}))


def test_lemma_steps_transfer_shifts(dwork):
    lem = {"flip": (Shift(RGamma(SubName("S"), Struct("X")), 1),
                    Oim(dwork.composite("pi"), Exp("V", FuncName("F"))))}
    term = RGamma(SubName("S"), Struct("X"))
    out, delta = _step(dwork, term, "lemma:flip", "fwd", b=None, lemmas=lem)
    assert delta == -1
    assert equal_normal(dwork, out,
                        Shift(Oim(dwork.composite("pi"), Exp("V", FuncName("F"))), -1))
    with pytest.raises(RuleError, match="lemma"):
        _step(dwork, term, "lemma:none", "fwd", b=None, lemmas=lem)


def test_results_are_well_formed_or_rejected(dwork):
    # R7 bwd citing supports in the wrong ambient must not slip through
    term = RGamma(SubName("iotaS"), Struct("Adual"))
    with pytest.raises(RuleError):
        _step(dwork, term, "R7", "bwd",
              b={"left": SubName("S"), "right": SubName("S")})


def test_cited_maps_off_the_subterms_variety_are_refused(dwork):
    # R1, R11 and R19 backward cite maps whose endpoints their appliers do
    # not check; rewrite refuses a replacement that is ill-formed or lives
    # on another variety than the subterm
    pi, iota = dwork.composite("pi"), dwork.composite("iota")
    misplaced = Morphism(("stilde",), "X", "VA")  # stilde starts at V
    psi = FuncPull(FuncName("t"), dwork.composite("gammaV"))
    cases = [
        (Struct("V"), "R1", {"f": iota, "g": pi}, "result ill-formed"),
        (Exp("V", FuncName("F")), "R11", {"f": misplaced, "psi": psi},
         "lives on X, not on V"),
        (Struct("X"), "R19", {"law": "opb_id", "f": dwork.identity("V")},
         "result ill-formed"),
        (Struct("X"), "R19", {"law": "struct_pullback", "f": pi},
         "lives on V, not on X"),
    ]
    for term, rule, b, why in cases:
        with pytest.raises(RuleError, match=why):
            _step(dwork, term, rule, "bwd", b=b)


# --- shape refusals ---------------------------------------------------------

# (context fixture, rule, direction, bindings, reason): each guard on the shape of
# the node a rule is applied at, with valid bindings; "f" and "g" name maps
S, SX = SubName("S"), SubName("sX")
SHAPE_REFUSALS = [
    ("dwork", "R1", "fwd", {}, "need nested Opb to merge"),
    ("dwork", "R1", "fwd", {"f": "s", "g": "picheck"},
     "need nested Opb to rebracket"),
    ("dwork", "R2", "fwd", {}, "need nested Oim to merge"),
    ("dwork", "R2", "fwd", {"f": "s", "g": "picheck"},
     "need nested Oim to rebracket"),
    ("dwork", "R3", "fwd", {}, "need a pullback of a tensor"),
    ("dwork", "R3", "bwd", {}, "need a tensor of two pullbacks"),
    ("dwork", "R4", "fwd", {}, "need a pushforward of a tensor"),
    ("dwork", "R4", "bwd", {}, "need a tensor"),
    ("dwork", "R5", "fwd", {"square": "sq1"},
     "need a pushforward of a pullback"),
    ("dwork", "R5", "bwd", {"square": "sq1"},
     "need a pullback of a pushforward"),
    ("dwork", "R6", "fwd", {}, "need a supported term"),
    ("dwork", "R6", "bwd", {}, "need a tensor"),
    ("dwork", "R7", "fwd", {}, "need nested supports to merge"),
    ("dwork", "R7", "fwd", {"left": S, "right": SX},
     "need nested supports to rebracket"),
    ("dwork", "R7", "bwd", {"left": S, "right": SX}, "need a supported term"),
    ("dwork", "R8", "fwd", {"sub": S},
     "need a pushforward of a supported term"),
    ("dwork", "R8", "bwd", {"sub": S}, "need a supported pushforward"),
    ("dwork", "R10", "fwd", {"layers": 2}, "need 2 nested supports"),
    ("dwork", "R10", "bwd", {"layers": 2}, "need 2 nested push-pull pairs"),
    ("dwork", "R18", "fwd", {}, "need a supported term"),
    ("dwork", "R18", "bwd", {"sub": S}, "need a supported term"),
    ("dwork", "R11", "fwd", {}, "need a pullback of an exponential"),
    ("dwork", "R11", "bwd", {"f": "gammaV", "psi": FuncName("t")},
     "need an exponential"),
    ("transform_ctx", "R12", "fwd", {"bundle": "Vb"}, "need a transform along Vb"),
    ("transform_ctx", "R12", "bwd", {"bundle": "Vb"},
     "need a pushforward of a tensor"),
    ("transform_ctx", "R13", "fwd", {"bundle": "Vb"},
     "need a double transform through Vb"),
    ("transform_ctx", "R13", "bwd", {"bundle": "Vb"},
     "need a pullback along the negation"),
    ("transform_ctx", "R14", "fwd", {}, "need a transform of a pushforward"),
    ("transform_ctx", "R14", "bwd", {}, "need a pullback of a transform"),
    ("transform_ctx", "R15", "fwd", {}, "need a pushforward of a transform"),
    ("transform_ctx", "R15", "bwd", {}, "need a transform of a pullback"),
    ("transform_ctx", "R16", "fwd", {"bundle": "Vb"}, "need a pushforward"),
    ("transform_ctx", "R16", "bwd", {"bundle": "Vb"},
     "need a transform along Vb of a pullback"),
    ("transform_ctx", "R17", "fwd", {"bundle": "Vb"}, "need a pullback"),
    ("transform_ctx", "R17", "bwd", {"bundle": "Vb"},
     "need a pushforward of a transform along Vd"),
    ("dwork", "R19", "fwd", {"law": "opb_id"}, "need Opb along an identity"),
    ("dwork", "R19", "fwd", {"law": "oim_id"}, "need Oim along an identity"),
    ("dwork", "R19", "fwd", {"law": "tensor_unit"}, "need a tensor"),
    ("dwork", "R19", "fwd", {"law": "struct_pullback"},
     "need a pulled-back structure sheaf"),
    ("dwork", "R19", "bwd", {"law": "struct_pullback", "f": "s"},
     "need a structure sheaf"),
    ("product_ctx", "R20", "fwd", {"law": "etens_opb_proj2"}, "need a pullback"),
    ("product_ctx", "R20", "bwd", {"law": "etens_opb_proj2"},
     "need an exterior tensor with a structure-sheaf first factor"),
    ("product_ctx", "R20", "fwd", {"law": "etens_oim_idmap"},
     "need Oim of an exterior tensor"),
    ("product_ctx", "R20", "bwd", {"law": "etens_oim_idmap"},
     "need an exterior tensor with Oim second factor"),
    ("product_ctx", "R20", "fwd", {"law": "etens_opb_sndmap"},
     "need Opb of an exterior tensor"),
    ("product_ctx", "R20", "bwd", {"law": "etens_opb_sndmap"},
     "need an exterior tensor with Opb second factor"),
    ("product_ctx", "R20", "fwd", {"law": "etens_oim_fstmap"},
     "need a pushforward of an exterior tensor"),
    ("product_ctx", "R20", "bwd", {"law": "etens_oim_fstmap"},
     "need an exterior tensor with a pushed first factor"),
    ("graph_ctx", "R20", "fwd", {"law": "etens_opb_diag"},
     "need a pullback of an exterior tensor"),
    ("graph_ctx", "R20", "bwd", {"law": "etens_opb_diag"}, "need a tensor"),
]


@pytest.mark.parametrize("context, rule, direction, b, reason",
                         SHAPE_REFUSALS)
def test_every_shape_guard_refuses_a_node_of_the_wrong_shape(
        context, rule, direction, b, reason, request):
    ctx = request.getfixturevalue(context)
    b = {k: ctx.composite(v) if k in ("f", "g") else v for k, v in b.items()}
    # a structure sheaf has the shape of no guard but one, which a tensor
    # of two structure sheaves lacks
    node = Struct(next(iter(ctx.varieties)))
    if reason == "need a structure sheaf":
        node = Tensor(node, node)
    with pytest.raises(RuleError) as exc:
        _step(ctx, node, rule, direction, b=b)
    assert exc.value.reason == reason
    # the checker reports the same refusal as an invalid first step
    cert = ProofCertificate(name="shape", goal_lhs=node, goal_rhs=node,
                            steps=(ProofStep(rule, direction, (), b),))
    rep = check_certificate(ctx, cert)
    assert rep.status == "invalid"
    assert rep.reason == f"step 1 failed: {rule} at /: {reason}"


# --- refusals of bindings, citations and declared facts ----------------------

# (context fixture, rule, direction, term, bindings, reason): one refusal each
# that no rule example above reaches.  A term is a function of the context;
# a binding under "f", "g" or "map" names an atom, or a tuple of atoms for
# their composite
REFUSALS = [
    ("dwork", "R5", "fwd", lambda c: Struct("X"), {},
     "missing binding 'square' (a declared square name)"),
    ("dwork", "R5", "fwd", lambda c: Struct("X"), {"square": 3},
     "binding 'square' should be a declared square name, got int"),
    ("dwork", "R5", "fwd", lambda c: Struct("X"), {"square": "nosuch"},
     "unknown square 'nosuch'"),
    # pi ends at X, where pi does not start
    ("dwork", "R1", "bwd", lambda c: Struct("X"), {"f": "pi", "g": "pi"},
     "cited maps do not compose"),
    # pi . iota is not the written s . pi
    ("dwork", "R1", "fwd",
     lambda c: Opb(c.composite("pi"), Opb(c.composite("s"), Struct("Adual"))),
     {"f": "iota", "g": "pi"}, "cited factors do not compose to the same map"),
    ("dwork", "R1", "bwd", lambda c: Struct("X"), {"f": "j", "g": "iota"},
     "cited factors are not an identity"),
    ("dwork", "R10", "fwd", lambda c: RGamma(SubName("S"), Struct("X")),
     {"layers": 0}, "layers must be a positive integer"),
    ("dwork", "R10", "bwd",
     lambda c: Oim(c.composite("s", "j"), Opb(c.composite("s", "j"),
                                              Struct("Adual"))),
     {}, "embedding must normalize to a declared atom"),
    ("dwork", "R10", "fwd", lambda c: RGamma(SubName("S"), Struct("X")), {},
     "center S is not smooth"),
    ("dwork", "R10", "bwd",
     lambda c: Oim(c.composite("j"), Opb(c.composite("j"), Struct("X"))), {},
     "center S is not smooth"),
    # F is t pulled back along gammaV . stilde, not along iota . pi
    ("dwork", "R11", "bwd", lambda c: Exp("V", FuncName("F")),
     {"f": ("iota", "pi"), "psi": FuncName("F")},
     "twist is not the pullback of the cited function"),
    ("transform_ctx", "R14", "fwd",
     lambda c: Fourier("Vb", Oim(c.composite("f"), Var("N", "Vb"))), {},
     "pushforward does not land in the transformed bundle"),
    ("transform_ctx", "R14", "fwd",
     lambda c: Fourier("Wb", Oim(c.composite("f"), Var("N", "Vb"))),
     {"map": "negW"}, "cited map differs from the written one"),
    ("transform_ctx", "R14", "bwd",
     lambda c: Opb(c.composite("tf"), Fourier("Wb", Var("P", "Wb"))), {},
     "transform bundle is not the source of the transposed map"),
    ("transform_ctx", "R15", "fwd",
     lambda c: Oim(c.composite("tf"), Fourier("Vb", Var("N", "Vb"))), {},
     "transform bundle is not the target of the transposed map"),
    ("transform_ctx", "R15", "bwd",
     lambda c: Fourier("Wb", Opb(c.composite("f"), Var("P", "Wb"))), {},
     "pullback does not start at the transformed bundle"),
    ("dwork", "R19", "fwd", lambda c: Struct("X"), {"law": "nosuch"},
     "unknown law 'nosuch'"),
    ("product_ctx", "R20", "fwd", lambda c: Struct("Xv"), {"law": "nosuch"},
     "unknown law 'nosuch'"),
    ("product_ctx", "R20", "bwd",
     lambda c: ETensor(Struct("Xv"), Var("M", "Xv")),
     {"law": "etens_opb_proj2"}, "no declared product of Xv and Xv"),
    # Xv x Yp is not declared, only Yp x Xv
    ("product_ctx", "R20", "bwd",
     lambda c: ETensor(Oim(c.composite("f"), Var("M", "Xv")), Struct("Yp")),
     {"law": "etens_oim_fstmap"}, "no declared product map f x id"),
]


@pytest.mark.parametrize("context, rule, direction, term, b, reason",
                         REFUSALS)
def test_every_citation_guard_refuses_with_its_reason(
        context, rule, direction, term, b, reason, request):
    ctx = request.getfixturevalue(context)
    b = {k: ctx.composite(*((v,) if isinstance(v, str) else v))
         if k in ("f", "g", "map") else v for k, v in b.items()}
    with pytest.raises(RuleError) as exc:
        _step(ctx, term(ctx), rule, direction, b=b)
    assert exc.value.reason == reason


def test_a_lemma_refuses_a_subterm_it_does_not_match(dwork):
    lemmas = {"L": (Struct("X"), Struct("X"))}
    with pytest.raises(RuleError) as exc:
        _step(dwork, Struct("V"), "lemma:L", "fwd", lemmas=lemmas)
    assert exc.value.reason == "subterm does not match lemma L"


# --- moves offered to the search ----------------------------------------------


def test_rules_offer_every_certificate_step(suite):
    # (certificate, 1-based step) the rules do not offer yet: an exponential
    # rewritten as a pullback (C2 1), identity and unit insertions (C2 2-3,
    # C9 1) and rebracketing with cited factors (C8 4, C9 6)
    not_offered = {("C2", 1), ("C2", 2), ("C2", 3), ("C8", 4), ("C9", 1),
                   ("C9", 6)}
    contexts, pairs = suite
    missed = set()
    for key, cert in pairs:
        ctx = contexts[key]
        gates = {"mode": cert.mode, "allowed_strata": cert.allowed_strata,
                 "excluded": cert.excluded_rules}
        moves = Moves(ctx, **gates)
        lemmas = {lem.name: (lem.lhs, lem.rhs) for lem in cert.lemmas}
        term = cert.goal_lhs
        if cert.closure is not None:
            term = Oim(ctx.composite(cert.closure.morphism), term)
        term = canonical_shift(term)
        for i, st in enumerate(cert.steps, 1):
            nxt, _d = _step(ctx, term, st.rule, st.direction, st.path,
                            st.bindings, lemmas=lemmas, **gates)
            if not st.rule.startswith("lemma:"):
                # an offered move counts when it lands on the same raw term,
                # so defaulted bindings (R10 layers) match their spelled form
                landed = set()
                core, _k = split_shift(term)
                for rule, d, b, *_ in moves(navigate(core, st.path)):
                    if (rule, d) == (st.rule, st.direction):
                        out, _d = _step(ctx, term, rule, d, st.path, b,
                                        **gates)
                        landed.add(serialize(out))
                if serialize(nxt) not in landed:
                    missed.add((cert.name, i))
            term = nxt
    assert missed == not_offered


@pytest.mark.parametrize("rule, node, written", [
    ("R1", Opb, "pi"),
    ("R2", Oim, "iota"),
])
def test_a_written_map_is_read_only_as_written(dwork, rule, node, written):
    # p1 . stilde = id: cited at a term with no map in the rule's slot,
    # the factors split off an identity; cited at a map in that slot,
    # they must compose to it, and no identity is read in front of it
    f, g = dwork.composite("stilde"), dwork.composite("p1")
    at_map = node(dwork.composite(written), Var("M", "X"))
    with pytest.raises(RuleError,
                       match="cited factors do not compose to the written map"):
        _step(dwork, at_map, rule, "bwd", b={"f": f, "g": g})
    exp = Exp("V", FuncName("F"))
    out, delta = _step(dwork, exp, rule, "bwd", b={"f": f, "g": g})
    assert delta == 0
    split = Opb(f, Opb(g, exp)) if node is Opb else Oim(g, Oim(f, exp))
    assert serialize(out) == serialize(split)


def _compose_splits(fillers):
    """The R1 splits `Moves` offers at a pullback along b . a, in a context
    of a : X -> Y, b : Y -> Z and `fillers` more atoms on X."""
    ctx = dsl.load_script(
        "variety X dim 1;\nvariety Y dim 1;\nvariety Z dim 1;\n"
        "morphism a : X -> Y;\nmorphism b : Y -> Z;\nobject M on Z;\n"
        + "".join(f"morphism h{i} : X -> X;\n" for i in range(fillers))).ctx
    term = Opb(ctx.composite("b", "a"), Var("M", "Z"))
    return len(ctx.atoms), [
        (b["f"].atoms, b["g"].atoms)
        for rule, d, b, *_ in Moves(ctx)(term) if (rule, d) == ("R1", "bwd")]


def test_no_compose_split_is_offered_past_the_atom_pair_cap():
    # 50 atoms make 2 500 pairs, the most the search indexes
    cap = math.isqrt(_ATOM_PAIR_CAP)
    assert _compose_splits(cap - 2) == (cap, [(("a",), ("b",))])
    assert _compose_splits(cap - 1) == (cap + 1, [])


# --- every law at every kind of atom ------------------------------------------

# one atom of each morphism kind a script can declare, none of them from a
# `product` statement, so no product is declared over its source
ATOM_KINDS = """variety A dim 2;
variety B dim 1;
morphism g : B -> B;
morphism plain : A -> B;
morphism cl : B -> A closed codim 1;
morphism op : A -> A open;
morphism sec : B -> A section;
morphism zs : B -> A zerosection;
morphism neg : A -> A negation;
morphism dg : B -> A diagonal;
morphism bm : A -> A bundlemap;
morphism gr : B -> A graph g;
morphism pid : A -> A pmap id g;
morphism pgi : A -> A pmap g id;
morphism pr1 : A -> B projection 1;
morphism pr2 : A -> B projection 2;
object M on A;
object N on B;
"""
ATOMS = ("plain", "cl", "op", "sec", "zs", "neg", "dg", "bm", "gr", "pid",
         "pgi", "pr1", "pr2")
LAWS = [(rule, law) for rule in ("R19", "R20")
        for law in sorted({law for _d, law in RULES[rule][2]})]


def test_the_atom_sweep_declares_every_script_kind():
    ctx = dsl.load_script(ATOM_KINDS).ctx
    kinds = {ctx.atoms[a].kind for a in ATOMS}
    assert kinds == {"plain"} | {k for k, *_ in dsl._MORPHISM_KINDS.values()}


@pytest.mark.parametrize("direction", ["fwd", "bwd"])
@pytest.mark.parametrize("rule, law", LAWS)
@pytest.mark.parametrize("atom", ATOMS)
def test_no_law_crashes_at_any_kind_of_atom(atom, rule, law, direction):
    # each law, at a pullback and a pushforward along the bare atom and
    # citing it, either applies or is refused
    ctx = dsl.load_script(ATOM_KINDS).ctx
    f = ctx.composite(atom)
    obj = {"A": Var("M", "A"), "B": Var("N", "B")}
    for term in (Opb(f, obj[f.target]), Oim(f, obj[f.source])):
        try:
            _step(ctx, term, rule, direction, b={"law": law, "f": f})
        except RuleError:
            pass


_BARE_PROJECTION = """variety A dim 2;
variety B dim 1;
morphism q : A -> B projection 2;
object M on B;
object N on A;
"""


def test_a_projection_from_no_declared_product_is_refused(tmp_path, capsys):
    ctx = dsl.load_script(_BARE_PROJECTION).ctx
    with pytest.raises(RuleError, match="A is not a declared product"):
        _step(ctx, Opb(ctx.composite("q"), Var("M", "B")), "R20", "fwd",
              b={"law": "etens_opb_proj2"})
    script = tmp_path / "bare.dwk"
    script.write_text(_BARE_PROJECTION
                      + "goal g : Opb[q](M) ~ Opb[q](M);\n"
                      "step R20 fwd at / with law=etens_opb_proj2;\n",
                      encoding="utf-8")
    assert main(["prove", str(script)]) == 1
    assert ("step 1 failed: R20 at /: A is not a declared product"
            in capsys.readouterr().out)
    script.write_text(_BARE_PROJECTION + "goal g : Opb[q](M) ~ N;\n",
                      encoding="utf-8")
    assert main(["prove", str(script), "--search", "3"]) == 3
