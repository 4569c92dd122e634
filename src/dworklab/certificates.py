"""Proof certificates: recorded rewrite chains and their replay checker.

A certificate stores a goal pair, an ordered step list, and the policy it
was recorded under (mode, strata budget, excluded rules).  Replay either
verifies the chain step by step, falsifies it (all steps apply but the
endpoint differs), or reports it invalid (a step refuses to apply or the
input is ill-formed).  Replay never raises on bad input.

Certificates may cite lemmas by name.  Within one certificate a lemma is
taken on faith during replay; `verify_paper` then discharges every cited
lemma against the goals of certificates verified earlier in the suite
order, so nothing is circular.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import GeometryError, TermError, RuleError
from .geometry import (
    CLOSED_EMBEDDING_KINDS,
    FuncName,
    FuncPull,
    GeometryContext,
    SubName,
)
from .rules import RULES, apply_step, step_stratum
from .terms import (
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
    equation_variety,
    normalize,
    serialize,
    split_shift,
)


@dataclass(frozen=True, slots=True)
class ProofStep:
    rule: str
    direction: str = "fwd"
    path: tuple = ()
    bindings: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Closure:
    """Finish the goal inside a fully faithful pushforward.

    Both goal sides get wrapped in Oim along the named closed embedding
    before replay; full faithfulness lets the unwrapped equivalence follow.
    """

    kind: str
    morphism: str


@dataclass(frozen=True)
class Lemma:
    name: str
    lhs: object
    rhs: object


@dataclass(frozen=True)
class ProofCertificate:
    name: str
    title: str
    goal_lhs: object
    goal_rhs: object
    steps: tuple
    mode: str = "strict-smooth"
    allowed_strata: int = 1
    closure: Closure | None = None
    lemmas: tuple = ()
    excluded_rules: frozenset = frozenset()


@dataclass
class StepRecord:
    index: int
    rule: str
    direction: str
    path: tuple
    ok: bool
    delta: int = 0
    term: str = ""
    error: str = ""


@dataclass
class ValidationReport:
    certificate: str
    status: str = "invalid"          # verified | falsified | invalid
    reason: str = ""
    mode: str = ""
    steps: list = field(default_factory=list)
    ledger: list = field(default_factory=list)
    ledger_total: int = 0
    expected_shift: int = 0
    rules_used: dict = field(default_factory=dict)

    @property
    def ok(self):
        return self.status == "verified"


def _wrap_closure(ctx, closure, term):
    atom = ctx.atoms.get(closure.morphism)
    if atom is None:
        raise GeometryError(f"unknown map {closure.morphism!r}")
    if atom.kind not in CLOSED_EMBEDDING_KINDS:
        raise GeometryError(f"{closure.morphism} is not a closed embedding")
    if closure.kind != "kashiwara":
        raise GeometryError(f"unknown closure kind {closure.kind!r}")
    return Oim(ctx.composite(closure.morphism), term)


def check_certificate(ctx, cert, mode=None, allowed_strata=None):
    """Replay a certificate; returns a ValidationReport, never raises."""
    eff_mode = mode or cert.mode
    strata = cert.allowed_strata if allowed_strata is None else allowed_strata
    rep = ValidationReport(certificate=cert.name, mode=eff_mode)
    lemmas = {l.name: (l.lhs, l.rhs) for l in cert.lemmas}

    try:
        lhs, rhs = cert.goal_lhs, cert.goal_rhs
        if cert.closure is not None:
            lhs = _wrap_closure(ctx, cert.closure, lhs)
            rhs = _wrap_closure(ctx, cert.closure, rhs)
        equation_variety(ctx, lhs, rhs)
        for ll, lr in lemmas.values():
            equation_variety(ctx, ll, lr)
    except (TermError, GeometryError) as e:
        rep.reason = f"goal ill-formed: {e}"
        return rep

    _lc, lk = split_shift(normalize(ctx, lhs))
    _rc, rk = split_shift(normalize(ctx, rhs))
    rep.expected_shift = rk - lk

    term = canonical_shift(lhs)
    for i, st in enumerate(cert.steps):
        rec = StepRecord(index=i, rule=st.rule, direction=st.direction,
                         path=tuple(st.path), ok=False)
        try:
            term, delta = apply_step(
                ctx, term, st.rule, st.direction, st.path, st.bindings,
                mode=eff_mode, allowed_strata=strata,
                excluded=cert.excluded_rules, lemmas=lemmas)
        except RuleError as e:
            rec.error = str(e)
            rep.steps.append(rec)
            rep.reason = f"step {i + 1} failed: {e}"
            return rep
        rec.ok = True
        rec.delta = delta
        rec.term = serialize(term)
        rep.steps.append(rec)
        rep.ledger.append(delta)
        if not st.rule.startswith("lemma:"):
            rep.rules_used[st.rule] = rep.rules_used.get(st.rule, 0) + 1

    rep.ledger_total = sum(rep.ledger)
    if equal_normal(ctx, term, rhs):
        rep.status = "verified"
    else:
        rep.status = "falsified"
        rep.reason = (f"endpoint mismatch: got {serialize(normalize(ctx, term))}, "
                      f"goal {serialize(normalize(ctx, rhs))}")
    return rep


# --- builtin geometry ---------------------------------------------------------


def build_dwork_context():
    """Line bundle with a section over a curve, its dual, and the zero locus."""
    ctx = GeometryContext()
    ctx.variety("X", 1)
    ctx.bundle("V", "X", 1, proj="pi", sect="iota")
    ctx.bundle("Adual", "X", 1, proj="picheck", sect="iotacheck")
    ctx.fourier_pair("V", "Adual", "VA", "p1", "p2", "gammaV", "A1X", "t")
    ctx.morphism("s", "X", "Adual", kind="section")
    ctx.morphism("stilde", "V", "VA")
    ctx.declare_identity(("p1", "stilde"), ())
    ctx.variety("S", 0, smooth=False)
    ctx.morphism("j", "S", "X", kind="closed", codim=1)
    ctx.subvariety("S", "X", codim=1, smooth=False, image="j")
    ctx.subvariety("sX", "Adual", image="s")
    ctx.subvariety("iotaX", "Adual", image="iotacheck")
    ctx.subvariety("iotaS", "Adual", codim=2, smooth=False)
    ctx.cap_fact("iotaX", "sX", "iotaS")
    ctx.cap_fact("iotaS", "iotaX", "iotaS")
    ctx.pre_fact("iotacheck", "iotaS", "S")
    ctx.pre_fact("s", "iotaX", "S")
    ctx.function("F", "V",
                 definition=FuncPull(FuncName("t"), ctx.composite("gammaV", "stilde")))
    ctx.square("sq1", "s", "p2", "stilde", "pi")
    ctx.square("sq2", "s", "iotacheck", "j", "j")
    ctx.object_("M", "X")
    return ctx


def build_product_context():
    ctx = GeometryContext()
    for v in ("Yp", "Xv", "Yv"):
        ctx.variety(v, 1)
    ctx.morphism("f", "Xv", "Yv")
    ctx.product("YpX", "Yp", "Xv", "q1x", "q2x")
    ctx.product("YpY", "Yp", "Yv", "q1y", "q2y")
    ctx.morphism("idf", "YpX", "YpY", kind="pmap", parts=("id", "f"))
    ctx.object_("M", "Xv")
    return ctx


def build_graph_context():
    ctx = GeometryContext()
    ctx.variety("X", 1)
    ctx.variety("Y", 1)
    ctx.morphism("f", "X", "Y")
    ctx.product("XX", "X", "X", "a1", "a2")
    ctx.product("XY", "X", "Y", "b1", "b2")
    ctx.product("YY", "Y", "Y", "c1", "c2")
    ctx.morphism("dX", "X", "XX", kind="diagonal")
    ctx.morphism("dY", "Y", "YY", kind="diagonal")
    ctx.morphism("gf", "X", "XY", kind="graph", parts=("f",))
    ctx.morphism("fpp", "XX", "XY", kind="pmap", parts=("id", "f"))
    ctx.declare_identity(("fpp", "dX"), ("gf",))
    ctx.morphism("fp", "XY", "YY", kind="pmap", parts=("f", "id"))
    ctx.square("sqg", "fp", "dY", "f", "gf")
    ctx.object_("M", "X")
    ctx.object_("N", "Y")
    return ctx


def build_transform_context():
    ctx = GeometryContext()
    ctx.variety("X", 1)
    ctx.bundle("Vb", "X", 1, proj="pv", sect="iv")
    ctx.bundle("Vd", "X", 1, proj="pvd", sect="ivd")
    ctx.bundle("Wb", "X", 1, proj="qw", sect="iw")
    ctx.bundle("Wd", "X", 1, proj="qwd", sect="iwd")
    ctx.fourier_pair("Vb", "Vd", "VVd", "pv1", "pv2", "gammaV", "A1X", "t")
    ctx.fourier_pair("Wb", "Wd", "WWd", "qw1", "qw2", "gammaW", "A1X", "t")
    ctx.morphism("f", "Vb", "Wb", kind="bundle-map")
    ctx.morphism("tf", "Wd", "Vd", kind="bundle-map", transpose="f")
    ctx.product("VWd", "Vb", "Wd", "r1", "r2", base="X")
    ctx.morphism("alpha", "VWd", "VVd", kind="pmap", parts=("id", "tf"))
    ctx.morphism("beta", "VWd", "WWd", kind="pmap", parts=("f", "id"))
    ctx.declare_identity(("pv1", "alpha"), ("r1",))
    ctx.declare_identity(("qw2", "beta"), ("r2",))
    ctx.declare_identity(("gammaV", "alpha"), ("gammaW", "beta"))
    ctx.morphism("negV", "Vb", "Vb", kind="negation")
    ctx.morphism("negVd", "Vd", "Vd", kind="negation")
    ctx.morphism("negW", "Wb", "Wb", kind="negation")
    ctx.declare_identity(("negW", "f"), ("f", "negV"))
    ctx.square("sqL", "pv2", "tf", "r2", "alpha")
    ctx.square("sqR", "f", "qw1", "beta", "r1")
    ctx.object_("N", "Vb")
    ctx.object_("P", "Wb")
    return ctx


CONTEXT_BUILDERS = {
    "dwork": build_dwork_context,
    "product": build_product_context,
    "graph": build_graph_context,
    "transform": build_transform_context,
}


# --- the certificate suite ----------------------------------------------------


def _dwork_terms(ctx):
    s = ctx.composite("s")
    return {
        "exp": Exp("V", FuncName("F")),
        "transform": Fourier("Adual", Oim(s, Struct("X"))),
        "push": Oim(ctx.composite("pi"), Exp("V", FuncName("F"))),
        "section_side": Opb(ctx.composite("iotacheck"), Oim(s, Struct("X"))),
        "supported": Shift(RGamma(SubName("S"), Struct("X")), 1),
    }


def builtin_suite():
    """All bundled certificates, in dependency (discharge) order.

    Returns (contexts, certs) where certs is a list of (context key,
    ProofCertificate).
    """
    contexts = {k: b() for k, b in CONTEXT_BUILDERS.items()}
    dw = contexts["dwork"]
    tt = _dwork_terms(dw)
    stilde = dw.composite("stilde")
    pi = dw.composite("pi")
    phi = FuncPull(FuncName("t"), dw.composite("gammaV"))
    Mx = Var("M", "X")

    tr = contexts["transform"]
    Nv = Var("N", "Vb")
    Pw = Var("P", "Wb")
    kernel_v = Opb(tr.composite("gammaV"), Exp("A1X", FuncName("t")))

    gr = contexts["graph"]
    Mg, Ng = Var("M", "X"), Var("N", "Y")
    fg = gr.composite("f")

    pr = contexts["product"]
    Mp = Var("M", "Xv")

    certs = [
        ("dwork", ProofCertificate(
            name="C2", title="exponential module as a transform",
            goal_lhs=tt["exp"], goal_rhs=tt["transform"],
            steps=(
                ProofStep("R11", "bwd", (), {"f": stilde, "psi": phi}),
                ProofStep("R19", "bwd", (), {"law": "tensor_unit"}),
                ProofStep("R2", "bwd", (), {"g": dw.composite("p1"), "f": stilde}),
                ProofStep("R4", "fwd", (0,)),
                ProofStep("R19", "bwd", (0, 1, 0),
                          {"law": "struct_pullback", "f": pi}),
                ProofStep("R5", "fwd", (0, 1), {"square": "sq1"}),
                ProofStep("R12", "bwd", (), {"bundle": "Adual"}),
            ))),
        ("dwork", ProofCertificate(
            name="C3", title="pushforward of the exponential, dual side",
            goal_lhs=tt["push"], goal_rhs=tt["section_side"],
            lemmas=(Lemma("transform", tt["exp"], tt["transform"]),),
            steps=(
                ProofStep("lemma:transform", "fwd", (0,)),
                ProofStep("R17", "bwd", (), {"bundle": "V"}),
            ))),
        ("dwork", ProofCertificate(
            name="C4", title="section side carries the zero-locus cohomology",
            goal_lhs=tt["section_side"], goal_rhs=tt["supported"],
            closure=Closure("kashiwara", "iotacheck"),
            steps=(
                ProofStep("R19", "bwd", (0, 0, 0),
                          {"law": "struct_pullback", "f": dw.composite("s")}),
                ProofStep("R10", "bwd", (), {"layers": 2}),
                ProofStep("R7", "fwd", (),
                          {"left": SubName("iotaS"), "right": SubName("iotaX")}),
                ProofStep("R10", "fwd", (0,)),
                ProofStep("R8", "bwd", (), {"sub": SubName("S")}),
            ))),
        ("dwork", ProofCertificate(
            name="C5", title="section side, direct route through the zero locus",
            goal_lhs=tt["section_side"], goal_rhs=tt["supported"],
            mode="allow-singular",
            steps=(
                ProofStep("R5", "bwd", (), {"square": "sq2"}),
                ProofStep("R10", "bwd", ()),
            ))),
        ("product", ProofCertificate(
            name="C6", title="pushforward along id x f commutes with the projection",
            goal_lhs=Oim(pr.composite("idf"), Opb(pr.composite("q2x"), Mp)),
            goal_rhs=Opb(pr.composite("q2y"), Oim(pr.composite("f"), Mp)),
            allowed_strata=0,
            steps=(
                ProofStep("R20", "fwd", (0,), {"law": "etens_opb_proj2"}),
                ProofStep("R20", "fwd", (), {"law": "etens_oim_idmap"}),
                ProofStep("R20", "bwd", (), {"law": "etens_opb_proj2"}),
            ))),
        ("graph", ProofCertificate(
            name="C7", title="projection formula through the graph embedding",
            goal_lhs=Oim(fg, Tensor(Mg, Opb(fg, Ng))),
            goal_rhs=Tensor(Oim(fg, Mg), Ng),
            allowed_strata=0,
            steps=(
                ProofStep("R20", "bwd", (0,), {"law": "etens_opb_diag"}),
                ProofStep("R20", "bwd", (0, 0), {"law": "etens_opb_sndmap"}),
                ProofStep("R1", "fwd", (0,)),
                ProofStep("R5", "fwd", (), {"square": "sqg"}),
                ProofStep("R20", "fwd", (0,), {"law": "etens_oim_fstmap"}),
                ProofStep("R20", "fwd", (), {"law": "etens_opb_diag"}),
            ))),
        ("transform", ProofCertificate(
            name="C8", title="transform of a pushforward, unfolded proof",
            goal_lhs=Opb(tr.composite("tf"),
                         Oim(tr.composite("pv2"),
                             Tensor(Opb(tr.composite("pv1"), Nv), kernel_v))),
            goal_rhs=Fourier("Wb", Oim(tr.composite("f"), Nv)),
            excluded_rules=frozenset({"R14", "R15"}),
            steps=(
                ProofStep("R5", "bwd", (), {"square": "sqL"}),
                ProofStep("R3", "fwd", (0,)),
                ProofStep("R1", "fwd", (0, 0)),
                ProofStep("R1", "fwd", (0, 1),
                          {"f": tr.composite("beta"), "g": tr.composite("gammaW")}),
                ProofStep("R2", "bwd", (),
                          {"g": tr.composite("qw2"), "f": tr.composite("beta")}),
                ProofStep("R4", "fwd", (0,)),
                ProofStep("R5", "fwd", (0, 1), {"square": "sqR"}),
                ProofStep("R12", "bwd", (), {"bundle": "Wb"}),
            ))),
        ("transform", ProofCertificate(
            name="C9", title="transform exchanges transpose pushforward and pullback",
            goal_lhs=Oim(tr.composite("tf"), Fourier("Wb", Pw)),
            goal_rhs=Fourier("Vb", Opb(tr.composite("f"), Pw)),
            excluded_rules=frozenset({"R15"}),
            steps=(
                ProofStep("R19", "bwd", (),
                          {"law": "opb_id", "f": tr.composite("negVd", "negVd")}),
                ProofStep("R1", "bwd", (),
                          {"f": tr.composite("negVd"), "g": tr.composite("negVd")}),
                ProofStep("R13", "bwd", (0,), {"bundle": "Vd"}),
                ProofStep("R14", "fwd", (0, 0)),
                ProofStep("R13", "fwd", (0, 0, 0), {"bundle": "Wb"}),
                ProofStep("R1", "fwd", (0, 0),
                          {"f": tr.composite("negV"), "g": tr.composite("f")}),
                ProofStep("R13", "bwd", (0, 0), {"bundle": "Vb"}),
                ProofStep("R13", "fwd", (0,), {"bundle": "Vd"}),
                ProofStep("R1", "fwd", ()),
            ))),
        ("dwork", ProofCertificate(
            name="C1", title="twisted pushforward computes supported cohomology",
            goal_lhs=Shift(RGamma(SubName("S"), Mx), 1),
            goal_rhs=Oim(pi, Tensor(Opb(pi, Mx), Exp("V", FuncName("F")))),
            lemmas=(Lemma("dwork", tt["supported"], tt["push"]),),
            steps=(
                ProofStep("R6", "fwd", ()),
                ProofStep("lemma:dwork", "fwd", (1,)),
                ProofStep("R4", "bwd", ()),
            ))),
    ]
    return contexts, certs


def get_certificate(name):
    """Look up one bundled certificate; returns (ctx, cert) or None."""
    contexts, certs = builtin_suite()
    for key, cert in certs:
        if cert.name == name:
            return contexts[key], cert
    return None


@dataclass
class LemmaNote:
    certificate: str
    lemma: str
    discharged: bool
    via: list = field(default_factory=list)


@dataclass
class PaperReport:
    ok: bool
    reports: list
    lemma_notes: list
    mode: str = ""
    # certificate -> sorted rules above the strata bound; None: no bound
    stratum_needs: dict | None = None


def _nf_key(ctx, term):
    return serialize(normalize(ctx, term))


def _discharge(ctx, pair, proven):
    """Reach pair's rhs from its lhs through already-proven goal pairs."""
    start = _nf_key(ctx, pair[0])
    goal = _nf_key(ctx, pair[1])
    seen = {start}
    frontier = [(start, [])]
    while frontier:
        nxt = []
        for key, via in frontier:
            if key == goal:
                return via
            for a, b, name in proven:
                for src, dst in ((a, b), (b, a)):
                    if src == key and dst not in seen:
                        seen.add(dst)
                        nxt.append((dst, via + [name]))
        frontier = nxt
    return None


def verify_paper(mode=None, allowed_strata=None):
    """Replay the whole bundled suite and discharge every cited lemma.

    With a strata bound, `stratum_needs` maps each certificate with steps
    that need more than the bound (`step_stratum`) to those steps' rules,
    sorted ({} when none do)."""
    contexts, certs = builtin_suite()
    reports = []
    notes = []
    needs = None if allowed_strata is None else {}
    proven = []  # (nf key lhs, nf key rhs, cert name), verified certs only
    ok = True
    for key, cert in certs:
        ctx = contexts[key]
        rep = check_certificate(ctx, cert, mode=mode, allowed_strata=allowed_strata)
        reports.append(rep)
        if not rep.ok:
            ok = False
        if needs is not None:
            over = sorted({s.rule for s in cert.steps if s.rule in RULES and
                           step_stratum(ctx, s.rule, s.bindings) > allowed_strata})
            if over:
                needs[cert.name] = over
        for lem in cert.lemmas:
            via = _discharge(ctx, (lem.lhs, lem.rhs),
                             [p[:3] for p in proven if p[3] is ctx])
            note = LemmaNote(certificate=cert.name, lemma=lem.name,
                             discharged=via is not None, via=via or [])
            notes.append(note)
            if via is None:
                ok = False
        if rep.ok:
            proven.append((_nf_key(ctx, cert.goal_lhs),
                           _nf_key(ctx, cert.goal_rhs), cert.name, ctx))
    return PaperReport(ok=ok, reports=reports, lemma_notes=notes,
                       mode=mode or "per-certificate", stratum_needs=needs)
