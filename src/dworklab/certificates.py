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

The bundled suite is scripts in `data/`: four contexts (`dwork.dwk`,
`product.dwk`, `graph.dwk`, `transform.dwk`) of declarations only, and
nine certificates (`C1.dwk` ... `C9.dwk`) of certificate statements only,
each bound onto its context.  `SUITE` names them in discharge order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

from .errors import GeometryError, TermError, RuleError
from .geometry import CLOSED_EMBEDDING_KINDS
from .rules import RULES, apply_step, step_stratum
from .terms import (
    Oim,
    canonical_shift,
    equal_normal,
    equation_variety,
    normal_key,
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
        rep.reason = (f"endpoint mismatch: got {normal_key(ctx, term)}, "
                      f"goal {normal_key(ctx, rhs)}")
    return rep


# --- the certificate suite ----------------------------------------------------

# (context, certificate) in discharge order: each names a script in `data/`
SUITE = (
    ("dwork", "C2"), ("dwork", "C3"), ("dwork", "C4"), ("dwork", "C5"),
    ("product", "C6"), ("graph", "C7"), ("transform", "C8"),
    ("transform", "C9"), ("dwork", "C1"),
)
DATA = Path(__file__).with_name("data")


@cache
def _document(name):
    """The parsed script `data/<name>.dwk`; documents are frozen, so one
    parse serves every call."""
    # `dsl` imports this module, so it is imported on first use
    from .dsl import parse_script
    return parse_script((DATA / f"{name}.dwk").read_text(encoding="utf-8"))


def builtin_suite():
    """All bundled certificates, in dependency (discharge) order.

    Returns (contexts, certs) where certs is a list of (context key,
    ProofCertificate).  Each call binds fresh contexts, one per key, and
    binds each certificate onto its context's object, so certificates of
    one context share it (`verify_paper` discharges lemmas among them).
    """
    from .dsl import bind_script  # late, as in `_document`
    contexts = {key: bind_script(_document(key)).ctx
                for key in dict.fromkeys(key for key, _name in SUITE)}
    certs = [(key, bind_script(_document(name), contexts[key]).certificate)
             for key, name in SUITE]
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


def _discharge(ctx, pair, proven):
    """Reach pair's rhs from its lhs through already-proven goal pairs."""
    start = normal_key(ctx, pair[0])
    goal = normal_key(ctx, pair[1])
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
            proven.append((normal_key(ctx, cert.goal_lhs),
                           normal_key(ctx, cert.goal_rhs), cert.name, ctx))
    return PaperReport(ok=ok, reports=reports, lemma_notes=notes,
                       mode=mode or "per-certificate", stratum_needs=needs)
