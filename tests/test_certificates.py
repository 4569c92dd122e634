"""Certificate replay: the nine built-in chains, mutations, and discharge."""

import dataclasses

import pytest

from dworklab import dsl
from dworklab.certificates import (
    DATA,
    SUITE,
    Closure,
    Lemma,
    ProofCertificate,
    ProofStep,
    builtin_suite,
    check_certificate,
    get_certificate,
    verify_paper,
)
from dworklab.geometry import SubName
from dworklab.terms import Oim, RGamma, Shift, Struct

EXPECTED_RULES = {
    "C1": {"R4": 1, "R6": 1},
    "C2": {"R11": 1, "R12": 1, "R19": 2, "R2": 1, "R4": 1, "R5": 1},
    "C3": {"R17": 1},
    "C4": {"R10": 2, "R19": 1, "R7": 1, "R8": 1},
    "C5": {"R10": 1, "R5": 1},
    "C6": {"R20": 3},
    "C7": {"R1": 1, "R20": 4, "R5": 1},
    "C8": {"R1": 2, "R12": 1, "R2": 1, "R3": 1, "R4": 1, "R5": 2},
    "C9": {"R1": 3, "R13": 4, "R14": 1, "R19": 1},
}

EXPECTED_STEPS = {"C1": 3, "C2": 7, "C3": 2, "C4": 5, "C5": 2,
                  "C6": 3, "C7": 6, "C8": 8, "C9": 9}


def _reports(suite):
    contexts, certs = suite
    out = {}
    for key, cert in certs:
        out[cert.name] = check_certificate(contexts[key], cert)
    return out


def test_every_builtin_certificate_verifies(suite):
    contexts, certs = suite
    for key, cert in certs:
        rep = check_certificate(contexts[key], cert)
        assert rep.status == "verified", (cert.name, rep.reason)


def test_rule_multisets_match_the_catalogue(suite):
    contexts, certs = suite
    for key, cert in certs:
        rep = check_certificate(contexts[key], cert)
        assert rep.rules_used == EXPECTED_RULES[cert.name], cert.name
        assert len(cert.steps) == EXPECTED_STEPS[cert.name], cert.name


def test_ledger_totals_equal_goal_shift(suite):
    contexts, certs = suite
    for key, cert in certs:
        rep = check_certificate(contexts[key], cert)
        assert rep.ledger_total == rep.expected_shift, cert.name


def test_c4_intermediate_ledger(suite):
    contexts, certs = suite
    cert = dict((c.name, c) for _k, c in certs)["C4"]
    rep = check_certificate(contexts["dwork"], cert)
    assert rep.ledger == [0, 2, 0, -1, 0]
    assert rep.expected_shift == 1


def test_c5_mode_split(suite):
    contexts, certs = suite
    cert = dict((c.name, c) for _k, c in certs)["C5"]
    ok = check_certificate(contexts["dwork"], cert)
    assert ok.status == "verified" and ok.mode == "allow-singular"
    strict = check_certificate(contexts["dwork"], cert, mode="strict-smooth")
    assert strict.status == "invalid"
    assert "smooth" in strict.reason
    assert "S" in strict.reason


def test_get_certificate(suite):
    ctx, cert = get_certificate("C4")
    assert cert.name == "C4" and len(cert.steps) == 5
    assert check_certificate(ctx, cert).status == "verified"
    assert get_certificate("C99") is None


def _mutations(cert):
    """Single-step perturbations: flipped direction, shifted path, dropped step."""
    for i, st in enumerate(cert.steps):
        flipped = st._replace(
            direction="bwd" if st.direction == "fwd" else "fwd")
        yield dataclasses.replace(
            cert, steps=cert.steps[:i] + (flipped,) + cert.steps[i + 1:])
        bumped = st._replace(path=st.path + (0,))
        yield dataclasses.replace(
            cert, steps=cert.steps[:i] + (bumped,) + cert.steps[i + 1:])
        yield dataclasses.replace(
            cert, steps=cert.steps[:i] + cert.steps[i + 1:])


def test_c4_mutation_sweep_all_rejected(suite):
    contexts, certs = suite
    cert = dict((c.name, c) for _k, c in certs)["C4"]
    ctx = contexts["dwork"]
    for mutant in _mutations(cert):
        rep = check_certificate(ctx, mutant)
        assert rep.status != "verified", mutant.steps


def test_steps_that_replay_but_miss_the_goal_are_falsified(dwork):
    cert = ProofCertificate(
        name="wrong",
        goal_lhs=Oim(dwork.composite("s"), Struct("X")),
        goal_rhs=Struct("Adual"),
        steps=())
    rep = check_certificate(dwork, cert)
    assert rep.status == "falsified"


def test_ill_formed_goals_are_invalid(dwork):
    cert = ProofCertificate(
        name="bad",
        goal_lhs=Oim(dwork.composite("s"), Struct("Adual")),
        goal_rhs=Struct("Adual"),
        steps=())
    rep = check_certificate(dwork, cert)
    assert rep.status == "invalid"


def test_a_lemma_across_two_varieties_proves_nothing(dwork):
    # each side is well-formed, but citing the lemma would swap O[X] for
    # O[V], a replacement on another variety; the goal's sides are refused
    # first, for the same reason
    cert = ProofCertificate(
        name="bad", goal_lhs=Struct("X"), goal_rhs=Struct("V"),
        steps=(ProofStep("lemma:across"),),
        lemmas=(Lemma("across", Struct("X"), Struct("V")),))
    rep = check_certificate(dwork, cert)
    assert rep.status == "invalid"
    assert rep.reason == "goal ill-formed: sides live on X and V"


def test_sides_on_two_varieties_are_ill_formed(dwork):
    # a goal, or a lemma it carries, whose sides live on two varieties is
    # refused before any step replays, even one that cites nothing
    goal = ProofCertificate(name="g", goal_lhs=Struct("X"),
                            goal_rhs=Struct("V"), steps=())
    uncited = dataclasses.replace(
        goal, goal_rhs=Struct("X"),
        lemmas=(Lemma("across", Struct("V"), Struct("X")),))
    for cert, sides in ((goal, "X and V"), (uncited, "V and X")):
        rep = check_certificate(dwork, cert)
        assert rep.status == "invalid" and rep.steps == []
        assert rep.reason == f"goal ill-formed: sides live on {sides}"


def test_closure_must_be_a_closed_wrapping(dwork):
    lhs = Struct("X")
    rhs = Struct("X")
    base = ProofCertificate(name="c", goal_lhs=lhs, goal_rhs=rhs, steps=())
    ok = check_certificate(
        dwork,
        dataclasses.replace(base, closure=Closure("kashiwara", "iotacheck")))
    assert ok.status == "verified"
    bad_kind = check_certificate(
        dwork,
        dataclasses.replace(base, closure=Closure("descent", "iotacheck")))
    assert bad_kind.status == "invalid"
    not_closed = check_certificate(
        dwork, dataclasses.replace(base, closure=Closure("kashiwara", "pi")))
    assert not_closed.status == "invalid"
    wrong_source = check_certificate(
        dwork, dataclasses.replace(base, closure=Closure("kashiwara", "j")))
    assert wrong_source.status == "invalid"
    unknown = check_certificate(
        dwork, dataclasses.replace(base, closure=Closure("kashiwara", "no")))
    assert unknown.status == "invalid"
    assert unknown.reason == "goal ill-formed: unknown map 'no'"


def test_failing_step_reports_index_and_reason(dwork):
    cert = ProofCertificate(
        name="c",
        goal_lhs=RGamma(SubName("S"), Struct("X")),
        goal_rhs=Shift(RGamma(SubName("S"), Struct("X")), 0),
        steps=(ProofStep("R10", "fwd", ()),))
    rep = check_certificate(dwork, cert)
    assert rep.status == "invalid"
    assert "step 1" in rep.reason
    assert not rep.steps[0].ok
    assert rep.steps[0].error


def test_lemma_discharge_order():
    rep = verify_paper()
    assert rep.ok
    notes = {(n.certificate, n.lemma): n for n in rep.lemma_notes}
    t = notes[("C3", "transform")]
    assert t.discharged and t.via == ["C2"]
    d = notes[("C1", "dwork")]
    assert d.discharged and set(d.via) == {"C4", "C3"}


def test_verify_paper_strict_only_breaks_c5():
    rep = verify_paper(mode="strict-smooth")
    assert not rep.ok
    by_name = {r.certificate: r for r in rep.reports}
    assert by_name["C5"].status == "invalid"
    for name, r in by_name.items():
        if name != "C5":
            assert r.status == "verified", name
    assert rep.stratum_needs is None  # no strata bound given


def test_verify_paper_names_the_rules_above_a_strata_bound():
    # C2 and C8 also base-change over squares whose transverse leg (pi,
    # tf) is not an embedding, and such an R5 step needs stratum 1
    rep = verify_paper(allowed_strata=0)
    assert rep.stratum_needs == {"C1": ["R4"], "C2": ["R4", "R5"],
                                 "C8": ["R4", "R5"], "C9": ["R14"]}
    by_name = {r.certificate: r for r in rep.reports}
    assert "step 1 failed: R5" in by_name["C8"].reason
    assert verify_paper(allowed_strata=1).stratum_needs == {}


def test_builtin_suite_is_fresh_each_call():
    a = builtin_suite()
    b = builtin_suite()
    assert a[0]["dwork"] is not b[0]["dwork"]


def test_the_suite_is_its_scripts(suite):
    _contexts, certs = suite
    assert [cert.name for _key, cert in certs] == [
        "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C1"]
    named = {f"{name}.dwk" for pair in SUITE for name in pair}
    assert {p.name for p in DATA.glob("*.dwk")} == named | {"dwork_theorem.dwk"}
    # a certificate bound onto its shared context equals the one its own
    # script, the context's declarations and then its statements, binds to
    for key, cert in certs:
        text = "".join((DATA / f"{name}.dwk").read_text(encoding="utf-8")
                       for name in (key, cert.name))
        assert dsl.load_script(text).certificate == cert, cert.name
