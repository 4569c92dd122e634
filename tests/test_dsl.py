"""Script language: parsing, rendering, spans, and binding."""

import dataclasses
import pathlib
import random

import pytest

from dworklab import dsl
from dworklab import terms as T
from dworklab.certificates import check_certificate
from dworklab.cli import main
from dworklab.errors import ParseError

import docgen
from docgen import random_document

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_bundled_script_shape(bundled_text):
    doc = dsl.parse_script(bundled_text)
    decls = [s for s in doc.statements
             if not isinstance(s, (dsl.GoalDecl, dsl.StepDecl,
                                   dsl.ClosureDecl, dsl.LemmaDecl,
                                   dsl.ModeDecl, dsl.StrataDecl,
                                   dsl.ExcludeDecl))]
    goals = [s for s in doc.statements if isinstance(s, dsl.GoalDecl)]
    steps = [s for s in doc.statements if isinstance(s, dsl.StepDecl)]
    closures = [s for s in doc.statements if isinstance(s, dsl.ClosureDecl)]
    assert len(decls) == 12
    assert len(goals) == 1
    assert len(steps) == 13
    assert len(closures) == 1


def test_bundled_script_verifies(bundled_text):
    bound = dsl.load_script(bundled_text)
    rep = check_certificate(bound.ctx, bound.certificate)
    assert rep.status == "verified", rep.reason
    assert rep.ledger_total == rep.expected_shift == 1


def test_bundled_round_trip(bundled_text):
    doc = dsl.parse_script(bundled_text)
    canon = dsl.render_script(doc)
    doc2 = dsl.parse_script(canon)
    assert doc2 == doc
    assert dsl.render_script(doc2) == canon


def test_generated_round_trips():
    rng = random.Random(0x5eed)
    for _ in range(200):
        doc = random_document(rng)
        text = dsl.render_script(doc)
        assert dsl.parse_script(text) == doc, text


def test_statement_spans_cover_statements(bundled_text):
    doc = dsl.parse_script(bundled_text)
    for st in doc.statements:
        lo, hi = st.span
        snippet = bundled_text[lo:hi]
        assert snippet.endswith(";")
        assert dsl.render_statement(st).split()[0] in snippet


def test_parse_error_spans_excise_cleanly(bundled_text):
    # damage each of a handful of statements; the reported span must be
    # wide enough that cutting it out leaves a parseable script
    for needle in ("bundle V on X", "morphism s :", "goal dwork",
                   "step R4 fwd", "closure kashiwara"):
        broken = bundled_text.replace(needle, needle.split()[0] + " ] ", 1)
        with pytest.raises(ParseError) as exc:
            dsl.parse_script(broken)
        span = exc.value.span
        assert span is not None
        repaired = broken[:span[0]] + broken[span[1]:]
        dsl.parse_script(repaired)  # must not raise


def test_parse_error_on_stray_character():
    with pytest.raises(ParseError):
        dsl.parse_script("variety X dim 1 ?;")
    with pytest.raises(ParseError, match="unknown statement"):
        dsl.parse_script("varieti X dim 1;")
    with pytest.raises(ParseError, match="expected"):
        dsl.parse_script("variety X dim;")


def test_binder_rejects_duplicates_with_spans():
    text = "variety X dim 1;\nvariety X dim 2;\n"
    with pytest.raises(ParseError) as exc:
        dsl.load_script(text)
    lo, hi = exc.value.span
    assert text[lo:hi] == "variety X dim 2;"


def test_binder_rejects_unknown_references():
    with pytest.raises(ParseError, match="unknown"):
        dsl.load_script("variety X dim 1;\ngoal g : O[X] ~ O[Y];\n")
    with pytest.raises(ParseError, match="goal"):
        dsl.load_script("variety X dim 1;\nstep R1 fwd at /;\n")


@pytest.mark.parametrize("bad", [
    "variety Z dim -1;",
    "subvariety S in X codim 4;",
    "subvariety S in X codim -1;",
    "morphism q : P -> X projection 5;",
    "morphism q : P -> X projection 0;",
    "morphism j : P -> X closed codim -2;",
    "morphism j : X -> P closed codim 3;",
])
def test_binder_rejects_out_of_range_declarations(bad, tmp_path, capsys):
    text = ("variety X dim 1;\nvariety P dim 2;\n" + bad + "\n"
            "goal g : O[X] ~ O[X];\n")
    with pytest.raises(ParseError) as exc:
        dsl.load_script(text)
    lo, hi = exc.value.span
    assert text[lo:hi] == bad
    script = tmp_path / "bad.dwk"
    script.write_text(text, encoding="utf-8")
    assert main(["prove", str(script), "--search", "0"]) == 2
    assert f"{script}:3:" in capsys.readouterr().err


def test_binder_single_goal_only():
    text = ("variety X dim 1;\n"
            "goal a : O[X] ~ O[X];\n"
            "goal b : O[X] ~ O[X];\n")
    with pytest.raises(ParseError, match="single goal"):
        dsl.load_script(text)


def test_policy_statements_shape_the_certificate():
    text = ("variety X dim 1;\n"
            "variety Y dim 1;\n"
            "morphism f : X -> Y;\n"
            "mode allow-singular;\n"
            "strata 0;\n"
            "exclude R14 R15;\n"
            "goal g : Oim[f](O[X]) ~ Oim[f](O[X]);\n")
    cert = dsl.load_script(text).certificate
    assert cert.mode == "allow-singular"
    assert cert.allowed_strata == 0
    assert cert.excluded_rules == frozenset({"R14", "R15"})


def test_negative_shift_round_trip():
    text = "variety X dim 1;\ngoal g : O[X][-2] ~ O[X][3];\n"
    doc = dsl.parse_script(text)
    goal = doc.statements[-1]
    assert goal.lhs == T.Shift(T.Struct("X"), -2)
    assert dsl.parse_script(dsl.render_script(doc)) == doc


def test_comments_and_whitespace_are_ignored():
    text = ("# leading comment\n"
            "variety X dim 1;  # trailing\n"
            "\n\n   goal g : O[X] ~ O[X] ;\n")
    doc = dsl.parse_script(text)
    assert len(doc.statements) == 2


def test_readme_script_example_loads():
    section = README.read_text(encoding="utf-8").split("### Scripts\n", 1)[1]
    example = section.split("```\n", 2)[1]
    bound = dsl.load_script(example)
    assert bound.certificate.name == "collapse"
    assert len(bound.certificate.steps) == 1


# every expression form, bound: goal and lemma sides, and step bindings
EVERY_FORM = """object M on X;
product XX = X x X proj q1 q2;
lemma forms : Fourier[V](Exp[V](F)) ~ Tensor(O[X], M[-1]);
lemma external : ETensor(O[X], M) ~ Opb[id(XX)](O[XX]);
step R1 fwd at / with f=id(X), g=gammaV.stilde, map=pi,
  psi=pull(pull(t, gammaV), stilde), sub=red(pre(iotacheck, S)),
  left=cap(iotaX, sX), right=iotaS, layers=2, square=sq1, bundle=V,
  law=tensor_unit;
"""


def _node_classes(node):
    yield type(node)
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if dataclasses.is_dataclass(value):
            yield from _node_classes(value)


def test_bound_expressions_spell_as_their_syntax(collapse_text):
    doc = dsl.parse_script(collapse_text + EVERY_FORM)
    ctx = dsl.bind_script(doc).ctx
    nodes = []
    for st in doc.statements:
        if isinstance(st, (dsl.GoalDecl, dsl.LemmaDecl)):
            nodes += [st.lhs, st.rhs]
        elif isinstance(st, dsl.StepDecl):
            nodes += [value for _key, value in st.bindings]
    seen = {cls for node in nodes if dataclasses.is_dataclass(node)
            for cls in _node_classes(node)}
    assert {row[0] for forms in dsl.FORMS.values()
            for row in forms.values()} <= seen
    for node in nodes:
        assert dsl.render_expr(dsl.bind_expr(ctx, node)) \
            == dsl.render_expr(node)


def test_docgen_never_draws_a_keyword_as_a_name():
    # random documents must not use a keyword as a plain name, or their
    # rendered text would not parse back
    stmts = {name[len("_stmt_"):] for name in vars(dsl._Parser)
             if name.startswith("_stmt_")}
    forms = {kw for rows in dsl.FORMS.values() for kw in rows}
    keywords = stmts | forms | set(dsl._BINDING_SORTS)
    assert stmts and forms
    assert keywords <= docgen._KEYWORDS, sorted(keywords - docgen._KEYWORDS)


def _reparsed(text, key=None):
    """The expression `text` spells, read as a term side or, given a step
    binding key, as that binding's value."""
    parser = dsl._Parser(text)
    out = parser.expr("D") if key is None else parser._binding_value(key)
    assert parser.peek().kind == "eof", text
    return out


def test_bound_expressions_round_trip_through_text(suite):
    # bound -> text -> bound: each goal side, lemma side and step binding
    # of every built-in certificate binds back to itself
    contexts, certs = suite
    sides = bindings = 0
    for key, cert in certs:
        ctx = contexts[key]
        for x in [cert.goal_lhs, cert.goal_rhs,
                  *[side for lem in cert.lemmas for side in (lem.lhs, lem.rhs)]]:
            assert dsl.bind_expr(ctx, _reparsed(dsl.render_expr(x))) == x, \
                dsl.render_expr(x)
            sides += 1
        for st in cert.steps:
            for k, v in st.bindings.items():
                assert dsl.bind_expr(ctx, _reparsed(dsl.render_expr(v), k)) \
                    == v, (k, dsl.render_expr(v))
                bindings += 1
    # lemma sides and step bindings are both exercised
    assert sides > 2 * len(certs) and bindings


def test_every_bound_form_round_trips_through_text(collapse_text):
    # the built-in certificates bind no cap, preimage, reduction or
    # exterior tensor; EVERY_FORM binds each of them
    doc = dsl.parse_script(collapse_text + EVERY_FORM)
    ctx = dsl.bind_script(doc).ctx
    for st in doc.statements:
        if isinstance(st, dsl.LemmaDecl):
            for side in (st.lhs, st.rhs):
                x = dsl.bind_expr(ctx, side)
                assert dsl.bind_expr(ctx, _reparsed(dsl.render_expr(x))) == x
        elif isinstance(st, dsl.StepDecl):
            for k, v in st.bindings:
                x = dsl.bind_expr(ctx, v)
                assert dsl.bind_expr(ctx, _reparsed(dsl.render_expr(x), k)) \
                    == x, k
