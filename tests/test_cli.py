"""Command line behavior: exit codes, output channels, canonical output."""

import json
import time

import pytest

from dworklab import cli
from dworklab.cli import main
from dworklab.dsl import GoalDecl, StepDecl, parse_script, render_statement
from dworklab.weyl import cech, twisted
from dworklab.weyl.compare import dwork_compare
from dworklab.weyl.ladder import CohomologyReport
from dworklab.weyl.poly import parse_poly

from conftest import BUNDLED, DATA

GOAL_ONLY = ("goal pushpull : Opb[iotacheck](Oim[s](O[X])) ~ "
             "RGamma[S](O[X])[1];\n")


def _declarations(text):
    doc = parse_script(text)
    keep = [st for st in doc.statements
            if not isinstance(st, (GoalDecl, StepDecl))
            and type(st).__name__ not in ("ClosureDecl",)]
    return "".join(render_statement(st) + "\n" for st in keep)


@pytest.fixture(scope="module")
def bundled():
    return str(BUNDLED)


def test_verify_paper_ok(capsys):
    assert main(["verify-paper"]) == 0
    out = capsys.readouterr().out
    assert "verified 9/9 certificates" in out


def test_verify_paper_strict_mode(capsys):
    assert main(["verify-paper", "--mode", "strict"]) == 1
    out = capsys.readouterr().out
    assert "verified 8/9 certificates" in out
    assert "smooth" in out


def test_verify_paper_machine_byte_stable(capsys):
    assert main(["verify-paper", "--output", "machine"]) == 0
    first = capsys.readouterr().out
    assert main(["verify-paper", "--output", "machine"]) == 0
    second = capsys.readouterr().out
    assert first == second
    data = json.loads(first)
    assert data["kind"] == "paper"
    assert data["schema_version"] == 1
    assert first == json.dumps(data, sort_keys=True,
                               separators=(",", ":")) + "\n"


def test_verify_paper_strata_notes(capsys):
    assert main(["verify-paper", "--strata", "0"]) == 1
    out = capsys.readouterr().out
    assert "needs stratum rules above the bound" in out
    assert "R4" in out
    assert main(["verify-paper", "--strata", "0", "--output", "machine"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["stratum_needs"]["C9"] == ["R14"]
    assert data["stratum_needs"]["C2"] == ["R4", "R5"]
    assert data["stratum_needs"]["C8"] == ["R4", "R5"]


def test_prove_bundled_script(bundled, capsys):
    assert main(["prove", bundled]) == 0
    out = capsys.readouterr().out
    assert "verified" in out


def test_prove_machine_output(bundled, capsys):
    assert main(["prove", bundled, "--output", "machine"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "validation"
    assert data["status"] == "verified"
    assert data["ledger_total"] == data["expected_shift"] == 1


def test_prove_corrupted_step(bundled, tmp_path, capsys):
    doc = parse_script(BUNDLED.read_text(encoding="utf-8"))
    statements = list(doc.statements)
    flipped = False
    for i in range(len(statements) - 1, -1, -1):
        st = statements[i]
        if isinstance(st, StepDecl) and st.direction == "bwd":
            statements[i] = st._replace(direction="fwd")
            flipped = True
            break
    assert flipped
    bad = tmp_path / "bad.dwk"
    bad.write_text("".join(render_statement(st) + "\n" for st in statements),
                   encoding="utf-8")
    assert main(["prove", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "invalid" in out
    assert "step" in out


def test_prove_parse_error_span(tmp_path, capsys):
    src = "variety X dim 1;\nmorphism ] nope;\n"
    bad = tmp_path / "broken.dwk"
    bad.write_text(src, encoding="utf-8")
    assert main(["prove", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:2:" in err


TRANSFORM = """\
variety X dim 1;
bundle Vb on X rank 1 proj pv sect iv;
bundle Vd on X rank 1 proj pvd sect ivd;
bundle Wb on X rank 1 proj qw sect iw;
bundle Wd on X rank 1 proj qwd sect iwd;
fourierpair Vb Vd product VVd proj pv1 pv2 pairing gammaV line A1X coord t;
fourierpair Wb Wd product WWd proj qw1 qw2 pairing gammaW line A1X coord t;
{maps}
object N on Vb;
goal exchange : Fourier[Wb](Oim[f](N)) ~ Opb[tf](Fourier[Vb](N));
step R14 fwd at /;
"""
MAP_F = "morphism f : Vb -> Wb bundlemap;"
MAP_TF = "morphism tf : Wd -> Vd bundlemap transpose f;"


@pytest.mark.parametrize("maps", [[MAP_F, MAP_TF], [MAP_TF, MAP_F]],
                         ids=["f first", "tf first"])
def test_a_transpose_declared_in_either_order_pairs_both_maps(
        maps, tmp_path, capsys):
    script = tmp_path / "transform.dwk"
    script.write_text(TRANSFORM.format(maps="\n".join(maps)),
                      encoding="utf-8")
    assert main(["prove", str(script)]) == 0
    assert "verified" in capsys.readouterr().out


@pytest.mark.parametrize("fact", ["cap A B", "preimage f A", "preimage g B"])
def test_ill_typed_subvariety_facts_are_input_errors(fact, tmp_path, capsys):
    # A lies in X, B and C in Y; the cap spans two ambients, f lands in X
    # while C lies in Y, and g lands in Y but B does not lie in its source X
    src = ("variety X dim 1;\nvariety Y dim 1;\n"
           "morphism f : Y -> X;\nmorphism g : X -> Y;\n"
           "subvariety A in X codim 1;\nsubvariety B in Y codim 1;\n"
           f"subvariety C in Y codim 1 {fact};\n")
    bad = tmp_path / "facts.dwk"
    bad.write_text(src, encoding="utf-8")
    assert main(["prove", str(bad)]) == 2
    assert f"{bad}:7:1: " in capsys.readouterr().err


# j = k, declared with k: a fact declared of j is read through the
# normal form of the map written, k
ALIASED = ("variety X dim 1;\nvariety P dim 2;\n"
           "morphism j : X -> P closed codim 1;\n"
           "morphism k : X -> P closed codim 1 with j = k;\n")
ALIASED_FACTS = {
    "preimage": ALIASED + "subvariety T in X codim 1;\n"
    "subvariety S in P codim 1 preimage j T;\n"
    "goal g : RGamma[pre(j, S)](O[X]) ~ RGamma[T](O[X]);\n"
    "step R19 bwd at / with law=tensor_unit;\n",
    "image": ALIASED + "subvariety Z in P image j;\nobject M on P;\n"
    "goal g : Oim[j](Opb[j](M)) ~ RGamma[Z](M)[1];\n"
    "step R10 bwd at / with layers=1;\n",
}


@pytest.mark.parametrize("fact", sorted(ALIASED_FACTS))
def test_a_fact_about_a_map_is_found_through_its_normal_form(
        fact, tmp_path, capsys):
    # one harmless identity must not hide the preimage fact, or the
    # image, declared of j
    script = tmp_path / f"{fact}.dwk"
    script.write_text(ALIASED_FACTS[fact], encoding="utf-8")
    assert main(["prove", str(script)]) == 0
    assert "g: verified" in capsys.readouterr().out


# h = f, declared after the product map idf = id x f: each R20 law that
# looks a product map up by its parts finds it through their normal forms
ALIASED_PARTS = {
    "etens_oim_idmap": "object N on Xv;\n"
    "goal g : ETensor(O[Yp], Oim[f](N)) ~ Oim[idf](ETensor(O[Yp], N));\n",
    "etens_opb_sndmap": "object N on Yv;\n"
    "goal g : ETensor(O[Yp], Opb[f](N)) ~ Opb[idf](ETensor(O[Yp], N));\n",
    "etens_oim_fstmap": "product XvYp = Xv x Yp proj a1 a2;\n"
    "product YvYp = Yv x Yp proj b1 b2;\n"
    "morphism fid : XvYp -> YvYp pmap f id;\n"
    "goal g : ETensor(Oim[f](M), O[Yp]) ~ Oim[fid](ETensor(M, O[Yp]));\n",
}


@pytest.mark.parametrize("law", sorted(ALIASED_PARTS))
def test_a_product_map_is_found_through_its_parts_normal_forms(
        law, tmp_path, capsys):
    script = tmp_path / f"{law}.dwk"
    script.write_text(
        (DATA / "product.dwk").read_text(encoding="utf-8")
        + "morphism h : Xv -> Yv with f = h;\n" + ALIASED_PARTS[law]
        + f"step R20 bwd at / with law={law};\n", encoding="utf-8")
    assert main(["prove", str(script)]) == 0
    assert "g: verified" in capsys.readouterr().out


# e = id, declared: each forward R20 law that needs an identity part of
# its product map reads the part's normal form, not its name
IDENTITY_PARTS = {
    "etens_oim_idmap": "morphism ef : YpX -> YpY pmap e f;\n"
    "goal g : Oim[ef](ETensor(O[Yp], M)) ~ ETensor(O[Yp], Oim[f](M));\n",
    "etens_opb_sndmap": "morphism ef : YpX -> YpY pmap e f;\n"
    "object N on Yv;\n"
    "goal g : Opb[ef](ETensor(O[Yp], N)) ~ ETensor(O[Yp], Opb[f](N));\n",
    "etens_oim_fstmap": "product XvYp = Xv x Yp proj a1 a2;\n"
    "product YvYp = Yv x Yp proj b1 b2;\n"
    "morphism fe : XvYp -> YvYp pmap f e;\n"
    "goal g : Oim[fe](ETensor(M, O[Yp])) ~ ETensor(Oim[f](M), O[Yp]);\n",
}


@pytest.mark.parametrize("law", sorted(IDENTITY_PARTS))
def test_a_part_declared_the_identity_is_the_identity(law, tmp_path,
                                                      capsys):
    script = tmp_path / f"{law}.dwk"
    script.write_text(
        (DATA / "product.dwk").read_text(encoding="utf-8")
        + "morphism e : Yp -> Yp with e = id;\n" + IDENTITY_PARTS[law]
        + f"step R20 fwd at / with law={law};\n", encoding="utf-8")
    assert main(["prove", str(script)]) == 0
    assert "g: verified" in capsys.readouterr().out


def test_prove_missing_file(tmp_path, capsys):
    assert main(["prove", str(tmp_path / "absent.dwk")]) == 2
    assert "error:" in capsys.readouterr().err


def test_a_script_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    # a UTF-16 file starts with the bytes ff fe, which UTF-8 cannot decode
    script = tmp_path / "utf16.dwk"
    script.write_bytes(b"\xff\xfe" + GOAL_ONLY.encode("utf-16-le"))
    assert main(["prove", str(script)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {script}: ")
    assert "UnicodeDecodeError" not in captured.err


def test_prove_no_goal(tmp_path, capsys):
    script = tmp_path / "nogoal.dwk"
    script.write_text("variety X dim 1;\n", encoding="utf-8")
    assert main(["prove", str(script)]) == 2
    assert "no goal" in capsys.readouterr().err


def test_prove_goal_only_inconclusive(bundled, tmp_path, capsys):
    script = tmp_path / "goal_only.dwk"
    script.write_text(_declarations(BUNDLED.read_text(encoding="utf-8"))
                      + GOAL_ONLY, encoding="utf-8")
    assert main(["prove", str(script)]) == 3
    out = capsys.readouterr().out
    assert "--search" in out
    assert main(["prove", str(script), "--output", "machine"]) == 3
    data = json.loads(capsys.readouterr().out)
    assert data == {"kind": "prove", "schema_version": 1,
                    "status": "inconclusive"}


def test_prove_search_finds_and_replays(bundled, tmp_path, capsys):
    script = tmp_path / "goal_only.dwk"
    script.write_text(_declarations(BUNDLED.read_text(encoding="utf-8"))
                      + GOAL_ONLY, encoding="utf-8")
    assert main(["prove", str(script), "--search", "6"]) == 0
    out = capsys.readouterr().out
    assert "proof found" in out
    assert "verified" in out
    assert main(["prove", str(script), "--search", "6",
                 "--output", "machine"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "verified"
    assert data["search"]["found"] is True
    assert data["search"]["steps"]


def test_prove_search_gives_up(bundled, tmp_path, capsys):
    script = tmp_path / "goal_only.dwk"
    script.write_text(_declarations(BUNDLED.read_text(encoding="utf-8"))
                      + GOAL_ONLY, encoding="utf-8")
    assert main(["prove", str(script), "--search", "1"]) == 3
    assert "no proof found" in capsys.readouterr().out


def test_dwork_check_match(capsys):
    assert main(["dwork-check", "--f", "x^2-1"]) == 0
    out = capsys.readouterr().out
    assert "result: match" in out


def test_dwork_check_pair_inferred(capsys):
    assert main(["dwork-check", "--f", "x", "--f", "y"]) == 0
    out = capsys.readouterr().out
    assert "result: match" in out


def test_dwork_check_machine_byte_stable(capsys):
    argv = ["dwork-check", "--f", "x", "--output", "machine"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert first == capsys.readouterr().out
    data = json.loads(first)
    assert data["kind"] == "comparison"
    assert data["match"] is True
    assert data["f"] == ["x"]
    assert data["n"] == 1


def test_dwork_check_input_errors(capsys):
    assert main(["dwork-check"]) == 2
    assert main(["dwork-check", "--f", "3"]) == 2
    assert main(["dwork-check", "--f", "x + @"]) == 2
    assert main(["dwork-check", "--f", "w^2"]) == 2  # uninferrable names
    assert main(["dwork-check", "--f", "y", "--n", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 5


def test_dwork_check_inconclusive(capsys):
    # one rung (cutoff 4) cannot show three agreeing tables
    assert main(["dwork-check", "--f", "x^2-1", "--d-max", "4"]) == 3
    assert "inconclusive" in capsys.readouterr().out


def test_dwork_check_window_flag(capsys):
    assert main(["dwork-check", "--f", "x", "--window", "5"]) == 0
    data_argv = ["dwork-check", "--f", "x", "--window", "5",
                 "--output", "machine"]
    assert main(data_argv) == 0
    data = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert data["twisted"]["rungs"][0][0] == 5


def test_a_small_window_is_not_a_false_mismatch(capsys):
    """From cutoff 2 the twisted side of x^9+y^8 reads zeros at 2, 4 and
    6, though its class shows at 8: the first tables differ, so both
    ladders go on to their caps, where they agree."""
    assert main(["dwork-check", "--f", "x^9+y^8", "--window", "2"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("result: match\n")
    assert "  rung 30: {0: 0, 1: 0, 2: 1, 3: 0}\n" in out
    assert out.count("the first tables differed in grades [2]") == 2


def test_a_cap_that_keeps_a_class_out_is_inconclusive(capsys):
    """With `--d-max 6` the twisted side of x^9+y^8 never reaches cutoff 8,
    where its class shows: its zeros agree up to the cap, and the run is
    inconclusive, not a mismatch."""
    argv = ["dwork-check", "--f", "x^9+y^8", "--window", "2", "--d-max", "6"]
    assert main(argv) == 3
    out = capsys.readouterr().out
    assert out.endswith("result: inconclusive (raise the caps)\n")
    assert "  rung 6: {0: 0, 1: 0, 2: 0, 3: 0}\n" in out


@pytest.mark.parametrize("argv", [
    ["dwork-check", "--f", "x", "--window", "-5"],
    ["dwork-check", "--f", "x", "--window", "1000"],
    ["dwork-check", "--f", "x^2-1", "--d-max", "2"],
    ["dwork-check", "--f", "x", "--window", "8", "--d-max", "6"],
    ["dwork-check", "--f", "x", "--d-max", "-1"],
    ["dwork-check", "--f", "x", "--pole-max", "0"],
    ["dwork-check", "--f", "x", "--n", "-1"],
    ["prove", str(BUNDLED), "--search", "-1"],
    ["verify-paper", "--strata", "-4"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_impossible_flag_values_are_input_errors(argv, capsys):
    """Values that leave nothing to compute exit 2, not 1 or 3."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_a_pole_cap_above_max_pole_is_an_input_error(capsys):
    """Past `cech.MAX_POLE` the run ends with exit 2 naming the cap, long
    before the weight keys of a million poles could be built."""
    start = time.perf_counter()
    assert main(["dwork-check", "--f", "x*y", "--pole-max", "1000000"]) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: largest pole order 1000000 is above the "
                            f"cap of {cech.MAX_POLE}\n")


def test_a_pole_cap_at_max_pole_runs(capsys):
    # x*y stabilizes at rung 2, so the cap changes nothing in its document
    argv = ["dwork-check", "--f", "x*y", "--output", "machine"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main(argv + ["--pole-max", str(cech.MAX_POLE)]) == 0
    assert capsys.readouterr().out == default


@pytest.mark.parametrize("texts", [["x*y"], ["x*y", "x-y"]],
                         ids=["3 variables", "4 variables"])
def test_dwork_check_runs_the_library_caps(texts, monkeypatch):
    """`dwork-check` and a plain `dwork_compare` hand both ladders the same
    cutoffs."""
    seen = []

    def recording(kind, _rung, cutoffs):
        seen.append((kind, list(cutoffs)))
        return CohomologyReport(kind=kind, dims=None)  # no rung is run

    monkeypatch.setattr(twisted, "ladder", recording)
    monkeypatch.setattr(cech, "ladder", recording)
    dwork_compare([parse_poly(t, ("x", "y")) for t in texts])
    library, seen[:] = seen[:], []
    argv = ["dwork-check"] + [a for t in texts for a in ("--f", t)]
    assert main(argv) == 3
    assert [kind for kind, _cuts in library] == ["twisted", "complement"]
    assert seen == library


def test_unknown_flags_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["verify-paper", "--nope"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# --- bounded nesting and internal errors ----------------------------------------


@pytest.mark.parametrize("goal", [
    "RGamma[S](" * 400 + "O[X]" + ")" * 400,
    "O[X]" + "[1]" * 400,
], ids=["forms", "shifts"])
def test_deep_script_nesting_is_an_input_error(goal, tmp_path, capsys):
    decls = _declarations(BUNDLED.read_text(encoding="utf-8"))
    script = tmp_path / "deep.dwk"
    script.write_text(decls + f"goal deep : {goal} ~ O[X];\n",
                      encoding="utf-8")
    t0 = time.perf_counter()
    assert main(["prove", str(script), "--search", "1"]) == 2
    assert time.perf_counter() - t0 < 1.0
    line = decls.count("\n") + 1
    assert capsys.readouterr().err == (
        f"error: {script}:{line}:1: expression nests deeper than 200 "
        "levels\n")


def test_script_nesting_at_the_cap_binds(tmp_path, capsys):
    # 100 supports, each shifted: 200 levels below the goal side
    script = tmp_path / "deep.dwk"
    script.write_text(_declarations(BUNDLED.read_text(encoding="utf-8"))
                      + "goal deep : " + "RGamma[S](" * 100 + "O[X]"
                      + ")[1]" * 100 + " ~ O[X];\n", encoding="utf-8")
    assert main(["prove", str(script)]) == 3
    assert "--search" in capsys.readouterr().out


@pytest.mark.parametrize("depth", [101, 3000])
def test_deep_polynomial_parentheses_are_an_input_error(depth, capsys):
    text = "(" * depth + "x" + ")" * depth + "^2-1"
    t0 = time.perf_counter()
    assert main(["dwork-check", "--f", text]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == (
        "error: parentheses nest deeper than 100 levels in polynomial\n")


@pytest.mark.parametrize("text, degree", [
    ("(x+y+1)^120", 120),
    ("(x+y+z+1)^150", 150),
    ("(x+1)^40*(y+1)^40", 80),
])
def test_an_oversized_power_is_refused_before_it_expands(text, degree,
                                                         capsys):
    t0 = time.perf_counter()
    assert main(["dwork-check", "--f", text]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == (
        f"error: polynomial degree {degree} is above the cap of 64\n")


@pytest.mark.parametrize("argv, message", [
    (["--f", "0"], "zero polynomial '0' cuts out all of affine 1-space"),
    (["--f", "x-x", "--f", "y"],
     "zero polynomial 'x-x' cuts out all of affine 2-space"),
    (["--f", "2"], "constant polynomial '2' cuts out nothing"),
], ids=["0", "x-x", "2"])
def test_a_constant_polynomial_is_an_input_error(argv, message, capsys):
    """The zero polynomial vanishes everywhere and a nonzero constant
    nowhere; neither leaves a locus to compare."""
    assert main(["dwork-check", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("(x+y+z+1)^64", "polynomial of up to 47905 terms is above the cap of "
                     "1000"),
    ("2^64^64^64^64*x", "power with coefficients of 262144 bits is above "
                        "the cap of 4096"),
])
def test_a_power_too_large_to_expand_is_refused(text, message, capsys):
    t0 = time.perf_counter()
    assert main(["dwork-check", "--f", text]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == f"error: {message}\n"


def test_more_sections_than_the_cap_are_refused_before_any_ladder(
        monkeypatch, capsys):
    def unbuilt(*_args, **_kwargs):
        raise AssertionError("a complex was built")

    monkeypatch.setattr(twisted, "TwistedComplex", unbuilt)
    monkeypatch.setattr(cech, "CechDeRham", unbuilt)
    argv = ["dwork-check"]
    for f in ("x", "y", "x+1", "y+1", "x+y"):
        argv += ["--f", f]
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == (
        "error: 5 sections are above the cap of 4\n")


def test_four_sections_are_at_the_cap(capsys):
    assert main(["dwork-check", "--f", "x", "--f", "y", "--f", "z",
                 "--f", "x+y", "--output", "machine"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["match"] is True
    assert data["supports"]["dims"] == {"6": 1}


def test_a_power_at_the_degree_cap_parses(capsys):
    # x^64 parses; its first twisted cutoff is then above the cap of 30
    assert main(["dwork-check", "--f", "x^64"]) == 2
    assert capsys.readouterr().err == (
        "error: largest window cutoff 30 is below the first cutoff 66\n")


def test_a_run_of_unary_signs_gives_the_verdict_of_its_sign(capsys):
    def verdict(text):
        assert main(["dwork-check", "--f", text, "--output", "machine"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data.pop("f") == [text]
        return data

    t0 = time.perf_counter()
    assert verdict("x^2+" + "-" * 5000 + "1") == verdict("x^2+1")
    assert time.perf_counter() - t0 < 1.0


def test_an_unmapped_exception_is_an_internal_error(monkeypatch, capsys):
    def crash(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "cmd_dwork_check", crash)
    assert main(["dwork-check", "--f", "x"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal error: RecursionError: maximum "
                            "recursion depth exceeded\n")

    # an interrupt or an exit request is no crash: it passes through
    for stop in (KeyboardInterrupt, SystemExit):
        def stopping(args, stop=stop):
            raise stop

        monkeypatch.setattr(cli, "cmd_dwork_check", stopping)
        with pytest.raises(stop):
            main(["dwork-check", "--f", "x"])


def test_one_parser_serves_many_calls(bundled, capsys):
    """`main` reuses one parser: each call sees only its own flags."""
    def machine(argv):
        assert main(argv + ["--output", "machine"]) == 0
        return json.loads(capsys.readouterr().out)

    assert cli.build_parser() is cli.build_parser()
    first = machine(["dwork-check", "--f", "x", "--f", "y"])
    assert (first["f"], first["n"]) == (["x", "y"], 2)
    assert main(["prove", bundled]) == 0
    capsys.readouterr()
    second = machine(["dwork-check", "--f", "x^2-1"])
    assert (second["f"], second["n"]) == (["x^2-1"], 1)
    assert machine(["dwork-check", "--f", "x", "--f", "y"]) == first
    assert main(["dwork-check"]) == 2
    assert capsys.readouterr().err == ("error: pass at least one --f "
                                       "polynomial\n")


def test_a_usage_error_exits_2_on_every_call(capsys):
    """The shared parser reports a usage error as a fresh one does."""
    argv = ["dwork-check", "--f", "x", "--bogus"]
    errors = []
    for parse in (main, main, cli.build_parser.__wrapped__().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == errors[2]
    assert "unrecognized arguments: --bogus" in errors[0]
