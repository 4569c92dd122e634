"""Report rendering: canonical machine JSON and the text forms."""

import json

import pytest

from dworklab import (
    DworkComparison,
    builtin_suite,
    check_certificate,
    dwork_compare,
    load_script,
    machine_report,
    prove,
    render_report,
    verify_paper,
)
from dworklab.cli import main
from dworklab.geometry import FuncName, FuncPull, SubCap, SubName, SubPre, SubRed
from dworklab.reports import binding_str, text_report
from dworklab.weyl import CohomologyReport, parse_poly


def _first_report(suite):
    contexts, pairs = suite
    key, cert = pairs[0]
    return check_certificate(contexts[key], cert)


def test_machine_json_is_canonical(suite):
    blob = machine_report(_first_report(suite))
    assert blob.endswith("\n") and not blob.rstrip("\n").endswith("\n")
    data = json.loads(blob)
    assert data["schema_version"] == 1
    assert data["kind"] == "validation"
    # canonical form: sorted keys, no spaces after separators
    assert blob == json.dumps(data, sort_keys=True,
                              separators=(",", ":")) + "\n"


def test_machine_json_byte_stable_across_runs():
    a = machine_report(verify_paper())
    b = machine_report(verify_paper())
    assert a.encode() == b.encode()


def test_validation_machine_fields(suite):
    data = json.loads(machine_report(_first_report(suite)))
    assert data["status"] == "verified"
    assert data["ledger_total"] == data["expected_shift"]
    assert len(data["steps"]) == len(data["ledger"])
    step = data["steps"][0]
    assert set(step) == {"index", "rule", "direction", "path", "ok",
                         "delta", "term", "error"}


VALIDATION_KEYS = {"certificate", "status", "reason", "mode",
                   "expected_shift", "ledger", "ledger_total", "rules_used",
                   "steps", "kind", "schema_version"}


def test_validation_document_keys(suite):
    # a validation document's fields are the report's own, plus its frame
    data = json.loads(machine_report(_first_report(suite)))
    assert set(data) == VALIDATION_KEYS


@pytest.mark.parametrize("argv, code, extra", [
    ([], 0, set()),
    (["--strata", "0"], 1, {"stratum_needs"}),
])
def test_paper_document_keys(argv, code, extra, capsys):
    # `stratum_needs` appears only under a strata bound
    assert main(["verify-paper", "--output", "machine", *argv]) == code
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"ok", "mode", "certificates", "lemmas", "kind",
                         "schema_version"} | extra
    assert {frozenset(c) for c in data["certificates"]} == {
        frozenset(VALIDATION_KEYS - {"kind", "schema_version"})}
    assert data["lemmas"]
    assert all(set(n) == {"certificate", "lemma", "discharged", "via"}
               for n in data["lemmas"])


def test_search_document_keys(collapse_text, tmp_path, capsys):
    """A search document, its closure and each of its steps, as `prove
    --search` embeds it in the replay's validation document."""
    script = tmp_path / "collapse.dwk"
    script.write_text(collapse_text, encoding="utf-8")
    assert main(["prove", str(script), "--search", "6",
                 "--output", "machine"]) == 0
    search = json.loads(capsys.readouterr().out)["search"]
    assert set(search) == {"found", "depth", "expanded", "closure", "steps"}
    assert set(search["closure"]) == {"kind", "morphism"}
    assert search["steps"]
    assert all(set(s) == {"rule", "direction", "path", "bindings"}
               for s in search["steps"])


COHOMOLOGY_KEYS = {"kind", "dims", "rungs", "note", "stabilized"}


def test_cohomology_and_comparison_document_keys():
    cmp = dwork_compare([parse_poly("x", ("x",))])
    data = json.loads(machine_report(cmp.twisted))
    assert set(data) == COHOMOLOGY_KEYS | {"schema_version"}
    assert data["stabilized"] is True
    data = json.loads(machine_report(cmp))
    assert set(data) == {"match", "inconclusive", "twisted", "supports",
                         "kind", "schema_version"}
    assert set(data["twisted"]) == set(data["supports"]) == COHOMOLOGY_KEYS


def test_suite_machine_fields():
    data = json.loads(machine_report(verify_paper()))
    assert data["kind"] == "paper"
    assert data["ok"] is True
    assert len(data["certificates"]) == 9
    assert all(c["status"] == "verified" for c in data["certificates"])
    assert {l["discharged"] for l in data["lemmas"]} == {True}


def test_machine_extra_merges(suite):
    blob = machine_report(_first_report(suite), extra={"marker": 7})
    assert json.loads(blob)["marker"] == 7


def test_search_report_forms(dwork):
    from dworklab import terms as T

    lhs = T.Opb(dwork.identity("X"), T.Struct("X"))
    rhs = T.Struct("X")
    res = prove(dwork, lhs, rhs, max_depth=2)
    data = json.loads(machine_report(res))
    assert data["kind"] == "search"
    assert data["found"] is True
    assert data["steps"][0]["rule"] == "R19"
    assert "proof found" in text_report(res)


def test_comparison_report_forms():
    cmp = dwork_compare([parse_poly("x", ("x",))])
    blob = machine_report(cmp)
    data = json.loads(blob)
    assert data["kind"] == "comparison"
    assert data["match"] is True
    assert data["twisted"]["dims"] == {"0": 0, "1": 0, "2": 1}
    assert data["supports"]["dims"] == {"2": 1}
    # rung entries keep their cutoffs
    assert all(isinstance(cut, int) for cut, _dims in data["twisted"]["rungs"])
    text = text_report(cmp)
    assert "result: match" in text


def test_inconclusive_comparison_text():
    # a cap at the first cutoff (deg F + 1 = 3) runs a single rung
    cmp = dwork_compare([parse_poly("x", ("x",))], d_max=3)
    assert cmp.inconclusive
    assert "inconclusive" in text_report(cmp)
    data = json.loads(machine_report(cmp))
    assert data["twisted"]["dims"] is None
    assert data["twisted"]["stabilized"] is False


def test_a_stabilized_empty_table_reads_as_braces():
    # the supported table of x, y, x+1, y+1 is empty; none stabilized
    # reads differently
    empty = CohomologyReport("supports", {}, [(0, {}), (1, {}), (2, {})])
    assert text_report(empty) == ("supports: {}\n  rung 0: {}\n"
                                  "  rung 1: {}\n  rung 2: {}\n")
    assert text_report(CohomologyReport("supports", None, [(0, {})])) == (
        "supports: (not stabilized)\n  rung 0: {}\n")


def test_binding_str_forms(dwork):
    m = dwork.composite("pi")
    assert binding_str(m) == "pi"
    comp = dwork.composite("gammaV", "stilde")
    assert binding_str(comp) == "gammaV.stilde"
    ident = dwork.identity("X")
    assert binding_str(ident) == "id(X)"
    assert binding_str(FuncName("F")) == "F"
    assert binding_str(FuncPull(FuncName("t"), m)) == "pull(t, pi)"
    assert binding_str(SubCap((SubName("iotaX"), SubName("sX")))) \
        == "cap(iotaX, sX)"
    assert binding_str(SubPre(m, SubName("S"))) == "pre(pi, S)"
    assert binding_str(SubRed(SubName("S"))) == "red(S)"
    assert binding_str(3) == "3"


def test_search_bindings_are_script_syntax(collapse_text):
    """Each step of a found chain, written as a `step` statement with its
    bindings spelled by `binding_str`, replays as a script."""
    bound = load_script(collapse_text)
    cert = bound.certificate
    res = prove(bound.ctx, cert.goal_lhs, cert.goal_rhs, max_depth=6,
                mode=cert.mode, allowed_strata=cert.allowed_strata,
                excluded=cert.excluded_rules)
    assert res.found and res.closure is not None
    lines = [collapse_text]
    for step in res.steps:
        path = "/" + "/".join(str(i) for i in step.path)
        bindings = ", ".join(f"{k}={binding_str(v)}"
                             for k, v in step.bindings.items())
        lines.append(f"step {step.rule} {step.direction} at {path}"
                     + (f" with {bindings}" if bindings else "") + ";\n")
    lines.append(f"closure {res.closure.kind} {res.closure.morphism};\n")
    replay = load_script("".join(lines))
    assert len(replay.certificate.steps) == len(res.steps)
    rep = check_certificate(replay.ctx, replay.certificate)
    assert rep.status == "verified", rep.reason


def test_text_report_shapes(suite):
    rep = _first_report(suite)
    text = render_report(rep, output="text")
    assert text.splitlines()[0].startswith(f"{rep.certificate}: verified")
    assert "shift ledger" in text
    summary = render_report(verify_paper(), output="text")
    assert "verified 9/9 certificates" in summary


def test_unknown_object_rejected():
    with pytest.raises(TypeError):
        machine_report(object())
    with pytest.raises(TypeError):
        text_report(object())
