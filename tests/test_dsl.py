"""Script language: parsing, rendering, spans, and binding."""

import dataclasses
import pathlib
import random
import re

import pytest

from dworklab import dsl
from dworklab import terms as T
from dworklab.certificates import DATA, check_certificate
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


@pytest.mark.parametrize("path", sorted(DATA.glob("*.dwk")),
                         ids=lambda path: path.name)
def test_bundled_round_trip(path):
    doc = dsl.parse_script(path.read_text(encoding="utf-8"))
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


def test_tokens_keep_their_kinds_and_spans():
    text = "m : X -> Y; # a -> b\nstep R1 fwd at /0-1;"
    toks, ends = dsl.lex(text)
    got = [(tok, end - len(tok), end) for tok, end in zip(toks, ends)]
    assert got == [
        ("m", 0, 1), (":", 2, 3), ("X", 4, 5), ("->", 6, 8), ("Y", 9, 10),
        (";", 10, 11), ("step", 21, 25), ("R1", 26, 28), ("fwd", 29, 32),
        ("at", 33, 35), ("/", 36, 37), ("0", 37, 38), ("-", 38, 39),
        ("1", 39, 40), (";", 40, 41), ("", 41, 41),
    ]
    # a token's kind is its first character's
    assert [tok for tok in toks if tok.isidentifier()] == [
        "m", "X", "Y", "step", "R1", "fwd", "at"]
    assert [tok for tok in toks if tok.isdecimal()] == ["0", "1"]
    with pytest.raises(ParseError) as exc:
        dsl.lex(text + " ?")
    assert exc.value.message == "stray character '?'"
    assert exc.value.span == (42, 43)


@pytest.mark.parametrize("statement,message", [
    ("step R1 fwd at /0/x;", "expected a path index"),
    ("step R1 fwd at /0 with nope=X;", "unknown binding key 'nope'"),
])
def test_a_bad_path_index_or_binding_key_spans_its_statement(statement,
                                                             message):
    text = f"variety X dim 1;\n{statement}\nvariety Y dim 1;\n"
    with pytest.raises(ParseError) as exc:
        dsl.parse_script(text)
    assert exc.value.message == message
    lo, hi = exc.value.span
    assert text[lo:hi] == statement


def test_render_statement_refuses_what_is_not_a_statement():
    with pytest.raises(TypeError, match="^cannot render int$"):
        dsl.render_statement(3)


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


@pytest.mark.parametrize("old, new, why", [
    ("coord t;", "coord u;", "unknown function 't'"),
    ("pull(t, gammaV.stilde)", "pull(t, stilde)",
     "pullback of a function on A1X along a map into VA"),
])
def test_a_definition_that_pulls_back_no_function_is_an_input_error(
        old, new, why, bundled_text, tmp_path, capsys):
    # the definition binds at its statement; it used to bind, and the
    # replay then crashed on it (exit 4)
    script = tmp_path / "definition.dwk"
    script.write_text(bundled_text.replace(old, new), encoding="utf-8")
    assert main(["prove", str(script)]) == 2
    assert capsys.readouterr().err == f"error: {script}:10:1: {why}\n"


@pytest.mark.parametrize("bad", [
    "product P = X x Y over B proj a b;",
    "fiberproduct P = X x Y proj a b;",
])
def test_product_keyword_decides_the_base(bad):
    # a plain product takes no base and a fiber product needs one
    text = "variety X dim 1;\nvariety Y dim 1;\nvariety B dim 0;\n" + bad
    with pytest.raises(ParseError) as exc:
        dsl.parse_script(text)
    lo, hi = exc.value.span
    assert text[lo:hi] == bad


def test_fiberproduct_binds_over_its_base():
    text = ("variety X dim 2;\nvariety Y dim 3;\nvariety B dim 1;\n"
            "morphism pa : X -> B;\nmorphism pb : Y -> B;\n"
            "fiberproduct P = X x Y over B proj a b;\n")
    doc = dsl.parse_script(text)
    assert dsl.render_script(doc) == text
    ctx = dsl.bind_script(doc).ctx
    assert ctx.product_factors["P"] == ("X", "Y")
    assert "P" not in ctx.products.values()
    assert ctx.varieties["P"].dim == 2 + 3 - 1


@pytest.mark.parametrize("dims, maps, why", [
    ((2, 3, 1), "",
     "fiber product 'P': no declared map takes X to the base B"),
    ((2, 3, 1), "morphism pa : X -> B;\n",
     "fiber product 'P': no declared map takes Y to the base B"),
    ((0, 0, 1), "morphism pa : X -> B;\nmorphism pb : Y -> B;\n",
     "fiber product 'P': negative dimension -1 (dim X + dim Y - dim B)"),
])
def test_fiberproduct_needs_maps_to_its_base(dims, maps, why):
    bad = "fiberproduct P = X x Y over B proj a b;"
    text = ("variety X dim {};\nvariety Y dim {};\nvariety B dim {};\n"
            .format(*dims) + maps + bad + "\n")
    with pytest.raises(ParseError) as exc:
        dsl.load_script(text)
    lo, hi = exc.value.span
    assert text[lo:hi] == bad
    assert exc.value.message == why


def test_a_fiberproduct_over_one_of_its_factors_needs_one_map():
    text = ("variety X dim 1;\nvariety Y dim 2;\nmorphism p : Y -> X;\n"
            "fiberproduct P = X x Y over X proj a b;\n")
    assert dsl.load_script(text).ctx.varieties["P"].dim == 2


# every declaration refusal that script input reaches, each at its
# statement; the bad statement is on the line after this preamble
_REFUSAL_PREAMBLE = """variety X dim 1;
variety Y dim 1;
variety P dim 2;
morphism f : X -> Y;
morphism e : X -> X;
morphism j : X -> P closed codim 1;
bundle V on X rank 1 proj pv sect iv;
bundle W on X rank 1 proj pw sect iw;
bundle V2 on X rank 1 proj pv2 sect iv2;
bundle W2 on X rank 1 proj pw2 sect iw2;
bundle U on Y rank 1 proj pu sect iu;
bundle R on X rank 2 proj pr sect ir;
fourierpair V W product VW proj a1 a2 pairing gamma line L coord t;
cartesian sq = (f, f, e, e);
function g on X;
object M on X;
subvariety Z0 in P image j;
morphism tf : Y -> X bundlemap transpose f;
product YY = Y x Y proj r1 r2;
"""


@pytest.mark.parametrize("bad, why", [
    ("morphism n : X -> Y negation;", "negation 'n' must be an endomap"),
    ("morphism h : X -> Y with h.h = h;",
     "cannot compose h . h: h lands in Y, h starts at X"),
    ("morphism h : X -> Y with h = j;",
     "identity endpoints differ: ('h',) vs ('j',)"),
    ("morphism h : X -> Y with h = id;",
     "('h',) cannot equal an identity map"),
    ("bundle B on X rank 0 proj pb sect ib;",
     "bundle 'B' needs positive rank"),
    ("bundle V on X rank 1 proj pv3 sect iv3;", "bundle 'V' already declared"),
    ("fourierpair V2 U product VU proj b1 b2 pairing g2 line L coord t;",
     "V2 and U live over different bases"),
    ("fourierpair V2 R product VR proj b1 b2 pairing g2 line L coord t;",
     "V2 and R have different ranks"),
    ("fourierpair V V2 product VV proj b1 b2 pairing g2 line L coord t;",
     "bundle already paired"),
    ("fourierpair V2 W2 product VW2 proj b1 b2 pairing g2 line L coord g;",
     "line 'L' exists but 'g' is not its coordinate"),
    ("fourierpair V2 W2 product VW2 proj b1 b2 pairing g2 line L2 coord g;",
     "function 'g' already declared"),
    ("cartesian sq = (f, f, e, e);", "square 'sq' already declared"),
    ("cartesian sq2 = (f, j, e, e);",
     "square 'sq2': f and j have different targets"),
    ("cartesian sq2 = (f, f, e, pv);",
     "square 'sq2': e and pv have different corners"),
    ("cartesian sq2 = (f, f, e, f);", "square 'sq2': legs do not line up"),
    ("subvariety Z in Y image j;", "j does not land in Y"),
    ("subvariety Z in Y image f;", "f is not an embedding"),
    ("subvariety Z in X;", "subvariety 'Z' needs a codimension"),
    ("subvariety Z in P image j;", "j already has the image 'Z0'"),
    ("morphism q : VW -> W projection 2;",
     "morphism 'q': VW already has projection 2, 'a2'"),
    ("morphism h : Y -> X bundlemap transpose f;",
     "f already has the transpose 'tf'"),
    ("product Q = Y x Y proj c1 c2;", "Y x Y already has the product 'YY'"),
    ("function g on X;", "function 'g' already declared"),
    ("function k on Y = pull(g, e);",
     "function 'k' declared on Y but its definition lives on X"),
    ("object M on X;", "object 'M' already declared"),
])
def test_every_declaration_refusal_is_an_input_error_at_its_statement(
        bad, why, tmp_path, capsys):
    text = _REFUSAL_PREAMBLE + bad + "\n"
    with pytest.raises(ParseError) as exc:
        dsl.load_script(text)
    lo, hi = exc.value.span
    assert text[lo:hi] == bad
    assert exc.value.message == why
    script = tmp_path / "refused.dwk"
    script.write_text(text, encoding="utf-8")
    assert main(["prove", str(script)]) == 2
    line = _REFUSAL_PREAMBLE.count("\n") + 1
    assert capsys.readouterr().err == f"error: {script}:{line}:1: {why}\n"


def test_closed_codim_0_takes_the_dimension_difference():
    text = ("variety S dim 0;\nvariety X dim 2;\n"
            "morphism j : S -> X closed codim 0;\n")
    assert dsl.load_script(text).ctx.atoms["j"].codim == 2


def test_negative_strata_is_an_input_error(tmp_path, capsys):
    text = "variety X dim 1;\nstrata -1;\ngoal g : O[X] ~ O[X];\n"
    with pytest.raises(ParseError) as exc:
        dsl.load_script(text)
    lo, hi = exc.value.span
    assert text[lo:hi] == "strata -1;"
    script = tmp_path / "strata.dwk"
    script.write_text(text, encoding="utf-8")
    assert main(["prove", str(script)]) == 2
    assert capsys.readouterr().err == (
        f"error: {script}:2:1: strata must be at least 0, got -1\n")


@pytest.mark.parametrize("bad", [
    "goal g : O[X] ~ O[Y];",
    "lemma l : O[X] ~ Opb[f](O[X]);",
])
def test_sides_on_two_varieties_are_input_errors(bad, tmp_path, capsys):
    # each side is well-formed on its own, but no chain of steps, each on
    # one variety, joins a term on X to a term on Y
    text = ("variety X dim 1;\nvariety Y dim 1;\nmorphism f : Y -> X;\n"
            + bad + "\ngoal h : O[Y] ~ O[Y];\n")
    with pytest.raises(ParseError, match="sides live on X and Y") as exc:
        dsl.load_script(text)
    lo, hi = exc.value.span
    assert text[lo:hi] == bad
    script = tmp_path / "sides.dwk"
    script.write_text(text, encoding="utf-8")
    assert main(["prove", str(script)]) == 2
    assert capsys.readouterr().err == (
        f"error: {script}:4:1: sides live on X and Y\n")


@pytest.mark.parametrize("first", [True, False])
def test_a_transpose_naming_no_declared_map_is_an_input_error(
        first, tmp_path, capsys):
    # refused at the declaring statement whether the statement comes
    # before or after the other declarations
    bad = "morphism tf : Y -> X bundlemap transpose nosuch;"
    rest = ["variety X dim 1;", "variety Y dim 1;",
            "morphism f : X -> Y bundlemap transpose tf;"]
    lines = rest[:2] + ([bad] + rest[2:] if first else rest[2:] + [bad])
    text = "\n".join(lines + ["goal g : O[X] ~ O[X];", ""])
    with pytest.raises(ParseError, match="transpose 'nosuch'") as exc:
        dsl.load_script(text)
    lo, hi = exc.value.span
    assert text[lo:hi] == bad
    script = tmp_path / "transpose.dwk"
    script.write_text(text, encoding="utf-8")
    assert main(["prove", str(script)]) == 2
    line = 3 if first else 4
    assert capsys.readouterr().err == (f"error: {script}:{line}:1: "
                                       "transpose 'nosuch' is not a declared "
                                       "map\n")


def test_binder_single_goal_only():
    text = ("variety X dim 1;\n"
            "goal a : O[X] ~ O[X];\n"
            "goal b : O[X] ~ O[X];\n")
    with pytest.raises(ParseError, match="single goal"):
        dsl.load_script(text)


def test_a_second_goal_binds_its_sides_first(tmp_path, capsys):
    # a statement's fields bind before its method runs, so a second goal
    # naming no declared object is refused for the object
    text = ("variety X dim 1;\n"
            "goal a : O[X] ~ O[X];\n"
            "goal b : O[X] ~ M;\n")
    with pytest.raises(ParseError) as exc:
        dsl.load_script(text)
    lo, hi = exc.value.span
    assert text[lo:hi] == "goal b : O[X] ~ M;"
    assert exc.value.message == "unknown object 'M'"
    script = tmp_path / "goals.dwk"
    script.write_text(text, encoding="utf-8")
    assert main(["prove", str(script)]) == 2
    assert capsys.readouterr().err == (
        f"error: {script}:3:1: unknown object 'M'\n")


# one statement of each keyword the parser reads by a case of its own
_OWN_CASES = {
    "morphism": "morphism f : X -> Y;",
    "product": "product P = X x Y proj a b;",
    "fiberproduct": "fiberproduct P = X x Y over B proj a b;",
    "step": "step R1 fwd at /;",
    "mode": "mode allow-singular;",
    "exclude": "exclude R1;",
}


def test_every_parsed_statement_binds_through_its_method():
    own = {name[len("_stmt_"):] for name in vars(dsl._Parser)
           if name.startswith("_stmt_")}
    assert own == set(_OWN_CASES)
    built = {row[0] for row in dsl.STATEMENTS.values()} | {
        type(st) for st in dsl.parse_script(
            "\n".join(_OWN_CASES.values())).statements}
    assert built == set(dsl._DECLARE)
    for cls in built:
        assert cls.__module__ == "dworklab.dsl"


@pytest.mark.parametrize("cls, want", [
    (dsl.GoalDecl, ["name", "lhs", "rhs"]),
    (dsl.LemmaDecl, ["name", "lhs", "rhs"]),
    (dsl.StepDecl, ["rule", "direction", "path", ("bindings", ())]),
    (dsl.ClosureDecl, ["kind", "morphism"]),
    (dsl.ModeDecl, ["mode"]),
    (dsl.StrataDecl, ["strata"]),
    (dsl.ExcludeDecl, ["rules"]),
])
def test_certificate_statement_fields(cls, want):
    # positional fields in order, each with its default if it has one
    got = [f.name if f.default is dataclasses.MISSING else (f.name, f.default)
           for f in dataclasses.fields(cls) if not f.kw_only]
    assert got == want


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
lemma forms : Opb[s](Fourier[V](Exp[V](F))) ~ Tensor(O[X], M[-1]);
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
             if name.startswith("_stmt_")} | set(dsl.STATEMENTS)
    forms = {kw for rows in dsl.FORMS.values() for kw in rows}
    rows = [row for table in [dsl.STATEMENTS, *dsl.FORMS.values()]
            for row in table.values()]
    # a row's layout, each option's keyword and layout, each morphism
    # kind's keyword and layout, and the fixed parts read by hand
    texts = [row[1] for row in rows] + [
        f"{kw} {layout}" for row in rows if len(row) > 2
        for kw, (_field, layout, _value) in row[3].items()] + [
        f"{kw} {layout}" for kw, (_kind, layout, _field, _optional)
        in dsl._MORPHISM_KINDS.items()] + [
        " ".join(head) for head in dsl._HEADS.values()]
    words = {word for text in texts for word in re.findall("[a-z]+", text)}
    keywords = stmts | forms | words | set(dsl._BINDING_SLOTS)
    assert {"variety", "goal", "strata"} <= stmts
    assert forms
    assert {"on", "rank", "proj", "sect", "product", "pairing", "line",
            "coord", "dim", "in"} <= words
    assert {"singular", "smooth", "codim", "nonreduced", "image", "cap",
            "preimage"} <= words
    assert {"zerosection", "bundlemap", "transpose", "over", "x"} <= words
    assert keywords <= docgen._KEYWORDS, sorted(keywords - docgen._KEYWORDS)


def _reparsed(text, key=None):
    """The expression `text` spells, read as a term side or, given a step
    binding key, as that binding's value."""
    parser = dsl._Parser(text)
    out = parser.expr("D") if key is None else parser._binding_value(key)
    assert parser.peek() == "", text
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


# --- statements with options -------------------------------------------------


def test_an_explicit_smooth_flag_is_the_default():
    doc = dsl.parse_script("variety X dim 1 smooth;")
    assert doc.statements == (dsl.VarietyDecl("X", 1, smooth=True),)
    assert dsl.render_script(doc) == "variety X dim 1;\n"


@pytest.mark.parametrize("bad, found", [
    ("variety Y dim 1 singular smooth;", "smooth"),
    ("function F on X = t = t;", "="),
])
def test_a_statement_takes_at_most_its_options(bad, found, tmp_path, capsys):
    text = "variety X dim 1;\n" + bad + "\n"
    with pytest.raises(ParseError) as exc:
        dsl.parse_script(text)
    assert exc.value.message == f"expected ';', found {found!r}"
    lo, hi = exc.value.span
    assert text[lo:hi] == bad
    script = tmp_path / "options.dwk"
    script.write_text(text, encoding="utf-8")
    assert main(["prove", str(script)]) == 2
    assert f"{script}:2:" in capsys.readouterr().err


def test_subvariety_options_come_in_any_order():
    text = ("subvariety Z in X cap A B codim 1 preimage f C nonreduced "
            "cap D E codim 2 singular preimage g F smooth image j;")
    st, = dsl.parse_script(text).statements
    assert st == dsl.SubvarietyDecl(
        "Z", "X", codim=2, smooth=True, reduced=False, image="j",
        caps=(("A", "B"), ("D", "E")), preimages=(("f", "C"), ("g", "F")))
    assert dsl.render_statement(st) == (
        "subvariety Z in X codim 2 smooth nonreduced image j cap A B "
        "cap D E preimage f C preimage g F;")


_SAMPLES = {"I": "3", "F": "pull(t, m)"}


def _filled(layout):
    """A layout with each slot filled: a name, an integer or a function."""
    return " ".join(_SAMPLES.get(word, f"n{i}") if word.isupper() else word
                    for i, word in enumerate(layout.split()))


def test_every_option_round_trips():
    # each option of each row alone, then all of them where a statement
    # takes any number
    rows = 0
    for kw, row in dsl.STATEMENTS.items():
        if len(row) == 2:
            continue
        _cls, layout, most, options = row
        tails = [f"{okw} {_filled(olayout)}".rstrip()
                 for okw, (_field, olayout, _value) in options.items()]
        if most is None:
            tails.append(" ".join(tails))
        for tail in tails:
            doc = dsl.parse_script(f"{kw} {_filled(layout)} {tail};")
            assert dsl.parse_script(dsl.render_script(doc)) == doc, tail
        rows += 1
    assert rows == 3


@pytest.mark.parametrize("decl, kind, extra", [
    ("morphism u : X -> P open;", "open", {}),
    ("morphism z : X -> P zerosection;", "zero-section", {}),
    ("morphism q : P -> X projection 2;", "projection", {"factor": 2}),
])
def test_a_morphism_kind_binds_as_its_context_call(decl, kind, extra):
    head = "variety X dim 1;\nvariety P dim 2;\n"
    got = dsl.load_script(head + decl).ctx
    want = dsl.load_script(head).ctx
    st, = dsl.parse_script(decl).statements
    want.morphism(st.name, st.source, st.target, kind=kind, **extra)
    assert got.atoms[st.name] == want.atoms[st.name]
    assert vars(got) == vars(want)
