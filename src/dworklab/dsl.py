"""Script language for geometry declarations, goals, and proof scripts.

A script is a list of `;`-terminated statements with `#` comments.  The
parser builds a plain document (so scripts can be re-rendered
canonically and round-tripped); `bind_script` turns a document into a
geometry context plus a proof certificate.  Parse and bind errors carry
the byte span of the offending statement.

Statements are parsed, rendered and bound by hand, one case each.
Expressions come in four sorts: M maps, F functions, S subvarieties and
D terms.  Each keyword-led form is one row of `FORMS`: its keyword, its
class and its layout, for example `"Opb": (terms.Opb, "[M](D)")`.  The
parser builds the term and geometry classes themselves, so a parsed
expression is already its bound value except at four syntax-only
leaves: a dotted map chain `MName`, an identity map `MId`, a binary
`SCap` (a bound `SubCap` holds a tuple) and an object name `DRef`, whose
variety the context supplies.  One parser (`_Parser.expr`), one renderer
(`render_expr`) and one binder (`bind_expr`) read the rows; a form binds
by rebuilding itself from its bound fields.  `render_expr` spells parsed
and bound expressions alike, so the reports spell a search's step
bindings in script syntax.  Step binding keys map to the sort of their
value in `_BINDING_SORTS`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from operator import attrgetter

from .certificates import Closure, Lemma, ProofCertificate, ProofStep
from .errors import GeometryError, ParseError, TermError
from .geometry import (
    FuncName,
    FuncPull,
    GeometryContext,
    Morphism,
    SubCap,
    SubName,
    SubPre,
    SubRed,
)
from . import terms as T


# --- lexer ---------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+|#[^\n]*)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<int>\d+)"
    r"|(?P<arrow>->)"
    r"|(?P<sym>[;:,()\[\]/=~.\-])"
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    start: int
    end: int


def tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"stray character {text[pos]!r}",
                             span=(pos, pos + 1))
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        out.append(Token(m.lastgroup, m.group(), m.start(), m.end()))
    out.append(Token("eof", "", len(text), len(text)))
    return out


# --- syntax-only expression leaves ---------------------------------------------
# Every other expression node is the term or geometry value it binds to.


@dataclass(frozen=True)
class MName:
    parts: tuple


@dataclass(frozen=True)
class MId:
    variety: str


@dataclass(frozen=True)
class SCap:
    left: object
    right: object


@dataclass(frozen=True)
class DRef:
    name: str


# The names the parsed expression classes had while they were separate
# syntax classes.  The benchmark's document generator (`bench/docs.py`)
# still builds documents under them, so they stay until it moves to the
# real classes.
FName, FPull, SName, SPre, SRed = FuncName, FuncPull, SubName, SubPre, SubRed
DStruct, DExp, DTensor, DETensor = T.Struct, T.Exp, T.Tensor, T.ETensor
DOpb, DOim, DRGamma, DFourier = T.Opb, T.Oim, T.RGamma, T.Fourier
DShift = T.Shift


@dataclass(frozen=True)
class VarietyDecl:
    name: str
    dim: int
    smooth: bool = True
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class BundleDecl:
    name: str
    base: str
    rank: int
    proj: str
    sect: str
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class FourierDecl:
    b1: str
    b2: str
    product: str
    p1: str
    p2: str
    pairing: str
    line: str
    coord: str
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class MorphismDecl:
    name: str
    source: str
    target: str
    kind: str = "plain"
    codim: int = 0
    factor: int = 0
    parts: tuple = ()
    transpose: str = ""
    identities: tuple = ()  # ((lhs parts), (rhs parts or () for id)) pairs
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class ProductDecl:
    name: str
    x: str
    y: str
    q1: str
    q2: str
    base: str = ""  # nonempty = fiber product
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class FunctionDecl:
    name: str
    variety: str
    definition: object = None
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class SubvarietyDecl:
    name: str
    ambient: str
    codim: int | None = None
    smooth: bool | None = None
    reduced: bool = True
    image: str = ""
    caps: tuple = ()       # (left, right) pairs intersecting to this
    preimages: tuple = ()  # (morphism name, result) pairs: pullback of this
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class CartesianDecl:
    name: str
    f: str
    h: str
    f_prime: str
    h_prime: str
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class ObjectDecl:
    name: str
    variety: str
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class GoalDecl:
    name: str
    lhs: object
    rhs: object
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class LemmaDecl:
    name: str
    lhs: object
    rhs: object
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class StepDecl:
    rule: str
    direction: str
    path: tuple
    bindings: tuple = ()  # (key, value node) pairs
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class ClosureDecl:
    kind: str
    morphism: str
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class ModeDecl:
    mode: str
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class StrataDecl:
    strata: int
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class ExcludeDecl:
    rules: tuple
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class ScriptDocument:
    statements: tuple


# --- expression forms -------------------------------------------------------------

# Every keyword-led expression form, once, by sort: M maps, F functions,
# S subvarieties, D terms.  A row is keyword -> (class, layout); the
# parser builds the class itself.  An upper-case letter in a layout is a
# slot, filled in the class's field order: M, F, S or D an expression of
# that sort, V a variety name, B a bundle name.  Every other character is
# spelled as is; the parser skips the spaces.  `MId` and `SCap` are
# syntax-only: they bind by hand (see `_BIND`).
FORMS = {
    "M": {"id": (MId, "(V)")},
    "F": {"pull": (FuncPull, "(F, M)")},
    "S": {"cap": (SCap, "(S, S)"),
          "pre": (SubPre, "(M, S)"),
          "red": (SubRed, "(S)")},
    "D": {"O": (T.Struct, "[V]"),
          "Exp": (T.Exp, "[V](F)"),
          "Tensor": (T.Tensor, "(D, D)"),
          "ETensor": (T.ETensor, "(D, D)"),
          "Opb": (T.Opb, "[M](D)"),
          "Oim": (T.Oim, "[M](D)"),
          "RGamma": (T.RGamma, "[S](D)"),
          "Fourier": (T.Fourier, "[B](D)")},
}
_NAME_SLOTS = {"V": "a variety", "B": "a bundle"}
# the bare-name leaf of each sort but M (a dotted chain of map names)
_LEAVES = {"F": (FuncName, "a function name"),
           "S": (SubName, "a subvariety name"),
           "D": (DRef, "a term")}

# step binding key -> the sort of its value, or int / str for plain values
_BINDING_SORTS = {"f": "M", "g": "M", "map": "M", "psi": "F",
                  "sub": "S", "left": "S", "right": "S",
                  "layers": int, "square": str, "bundle": str, "law": str}


def render_expr(x):
    """Script spelling of an expression, parsed or bound; plain values
    (names, layer counts) go through `str`."""
    spell = _SPELL.get(x.__class__)
    return str(x) if spell is None else spell(x)


def bind_expr(ctx, x):
    """The geometry value or term an expression denotes; bound and plain
    values bind to themselves."""
    bind = _BIND.get(x.__class__)
    return x if bind is None else bind(ctx, x)


def _bind_ref(ctx, d):
    variety = ctx.objects.get(d.name)
    if variety is None:
        raise GeometryError(f"unknown object {d.name!r}")
    return T.Var(d.name, variety)


def _rebind(cls):
    names = [f.name for f in fields(cls)]
    return lambda ctx, x: cls(*[bind_expr(ctx, getattr(x, f)) for f in names])


_by_name = attrgetter("name")
_SPELL = {
    MName: lambda m: ".".join(m.parts),
    FuncName: _by_name, SubName: _by_name, DRef: _by_name, T.Var: _by_name,
    T.Shift: lambda x: f"{render_expr(x.arg)}[{x.k}]",
    # the two bound values whose fields differ from their syntax are
    # spelled as that syntax
    Morphism: lambda m: render_expr(MName(m.atoms) if m.atoms
                                    else MId(m.source)),
    SubCap: lambda s: render_expr(SCap(*s.args)),
}
_BIND = {
    MName: lambda ctx, m: ctx.composite(*m.parts),
    MId: lambda ctx, m: ctx.identity(m.variety),
    SCap: lambda ctx, s: SubCap((bind_expr(ctx, s.left),
                                 bind_expr(ctx, s.right))),
    DRef: _bind_ref,
    T.Shift: _rebind(T.Shift),
}


def _speller(fmt, cls):
    # every form has one or two slots; spelling each out keeps this fast
    gets = [attrgetter(f.name) for f in fields(cls)]
    if len(gets) == 1:
        get, = gets
        return lambda x: fmt.format(render_expr(get(x)))
    left, right = gets
    return lambda x: fmt.format(render_expr(left(x)), render_expr(right(x)))


for _forms in FORMS.values():
    for _kw, (_cls, _layout) in _forms.items():
        _SPELL[_cls] = _speller(_kw + re.sub("[A-Z]", "{}", _layout), _cls)
        _BIND.setdefault(_cls, _rebind(_cls))


# --- parser ----------------------------------------------------------------------


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = tokenize(text)
        self.i = 0
        self.stmt_start = 0

    def peek(self):
        return self.toks[self.i]

    def take(self):
        tok = self.toks[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def _err(self, msg, tok=None):
        tok = tok or self.peek()
        end = tok.end
        # widen to the end of the statement for excision-friendly spans
        j = self.i
        while self.toks[j].kind != "eof" and self.toks[j].text != ";":
            j += 1
        if self.toks[j].text == ";":
            end = self.toks[j].end
        raise ParseError(msg, span=(self.stmt_start, end))

    def expect(self, text):
        tok = self.take()
        if tok.text != text:
            self._err(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                      tok)
        return tok

    def name(self, what="a name"):
        tok = self.take()
        if tok.kind != "name":
            self._err(f"expected {what}, found {tok.text or 'end of input'!r}",
                      tok)
        return tok.text

    def integer(self, what="an integer"):
        neg = False
        if self.peek().text == "-":
            self.take()
            neg = True
        tok = self.take()
        if tok.kind != "int":
            self._err(f"expected {what}, found {tok.text or 'end of input'!r}",
                      tok)
        return -int(tok.text) if neg else int(tok.text)

    def expr(self, sort):
        """One expression of `sort`; a D term may carry shifts `[k]`."""
        row = FORMS[sort].get(self.peek().text)
        if row is not None:
            self.take()
            cls, layout = row
            args = []
            for ch in layout:
                if ch in FORMS:
                    args.append(self.expr(ch))
                elif ch in _NAME_SLOTS:
                    args.append(self.name(_NAME_SLOTS[ch]))
                elif ch != " ":
                    self.expect(ch)
            out = cls(*args)
        elif sort == "M":
            out = MName(self._atom_chain())
        else:
            leaf, what = _LEAVES[sort]
            out = leaf(self.name(what))
        while sort == "D" and self.peek().text == "[":
            self.take()
            k = self.integer("a shift")
            self.expect("]")
            out = T.Shift(out, k)
        return out

    def path(self):
        self.expect("/")
        out = []
        if self.peek().kind == "int":
            out.append(int(self.take().text))
            while self.peek().text == "/":
                self.take()
                tok = self.take()
                if tok.kind != "int":
                    self._err("expected a path index", tok)
                out.append(int(tok.text))
        return tuple(out)

    def dashed_name(self):
        parts = [self.name()]
        while self.peek().text == "-":
            self.take()
            parts.append(self.name())
        return "-".join(parts)

    def statement(self):
        self.stmt_start = self.peek().start
        kw = self.name("a statement keyword")
        fn = getattr(self, f"_stmt_{kw}", None)
        if fn is None:
            self._err(f"unknown statement {kw!r}")
        node = fn()
        end = self.expect(";").end
        return node, (self.stmt_start, end)

    def _stmt_variety(self):
        name = self.name("a variety name")
        self.expect("dim")
        dim = self.integer("a dimension")
        smooth = True
        if self.peek().text == "singular":
            self.take()
            smooth = False
        elif self.peek().text == "smooth":
            self.take()
        return VarietyDecl(name, dim, smooth)

    def _stmt_bundle(self):
        name = self.name("a bundle name")
        self.expect("on")
        base = self.name("the base variety")
        self.expect("rank")
        rank = self.integer("a rank")
        self.expect("proj")
        proj = self.name("the projection name")
        self.expect("sect")
        sect = self.name("the zero-section name")
        return BundleDecl(name, base, rank, proj, sect)

    def _stmt_fourierpair(self):
        b1 = self.name("a bundle")
        b2 = self.name("the paired bundle")
        self.expect("product")
        product = self.name("the product total space")
        self.expect("proj")
        p1 = self.name("first projection")
        p2 = self.name("second projection")
        self.expect("pairing")
        pairing = self.name("the pairing map")
        self.expect("line")
        line = self.name("the line total space")
        self.expect("coord")
        coord = self.name("the fiber coordinate")
        return FourierDecl(b1, b2, product, p1, p2, pairing, line, coord)

    def _stmt_morphism(self):
        name = self.name("a map name")
        self.expect(":")
        source = self.name("the source variety")
        self.expect("->")
        target = self.name("the target variety")
        kind, codim, factor, parts, transpose = "plain", 0, 0, (), ""
        tok = self.peek().text
        if tok == "closed":
            self.take()
            kind = "closed"
            self.expect("codim")
            codim = self.integer("a codimension")
        elif tok in ("open", "section", "negation", "diagonal"):
            kind = self.take().text
        elif tok == "zerosection":
            self.take()
            kind = "zero-section"
        elif tok == "bundlemap":
            self.take()
            kind = "bundle-map"
            if self.peek().text == "transpose":
                self.take()
                transpose = self.name("the transposed map")
        elif tok == "graph":
            self.take()
            kind = "graph"
            parts = (self.name("the graphed map"),)
        elif tok == "pmap":
            self.take()
            kind = "pmap"
            parts = (self.name("the first component"),
                     self.name("the second component"))
        elif tok == "projection":
            self.take()
            kind = "projection"
            factor = self.integer("a factor index")
        identities = []
        if self.peek().text == "with":
            self.take()
            while True:
                lhs = self._atom_chain()
                self.expect("=")
                if self.peek().text == "id":
                    self.take()
                    rhs = ()
                else:
                    rhs = self._atom_chain()
                identities.append((lhs, rhs))
                if self.peek().text != ",":
                    break
                self.take()
        return MorphismDecl(name, source, target, kind, codim, factor,
                            parts, transpose, tuple(identities))

    def _atom_chain(self):
        parts = [self.name("a map name")]
        while self.peek().text == ".":
            self.take()
            parts.append(self.name("a map name"))
        return tuple(parts)

    def _stmt_product(self):
        name = self.name("a product name")
        self.expect("=")
        x = self.name("the first factor")
        self.expect("x")
        y = self.name("the second factor")
        base = ""
        if self.peek().text == "over":
            self.take()
            base = self.name("the base")
        self.expect("proj")
        q1 = self.name("first projection")
        q2 = self.name("second projection")
        return ProductDecl(name, x, y, q1, q2, base)

    _stmt_fiberproduct = _stmt_product

    def _stmt_function(self):
        name = self.name("a function name")
        self.expect("on")
        variety = self.name("a variety")
        definition = None
        if self.peek().text == "=":
            self.take()
            definition = self.expr("F")
        return FunctionDecl(name, variety, definition)

    def _stmt_subvariety(self):
        name = self.name("a subvariety name")
        self.expect("in")
        ambient = self.name("the ambient variety")
        codim = None
        smooth = None
        reduced = True
        image = ""
        caps = []
        pres = []
        while True:
            tok = self.peek().text
            if tok == "codim":
                self.take()
                codim = self.integer("a codimension")
            elif tok == "singular":
                self.take()
                smooth = False
            elif tok == "smooth":
                self.take()
                smooth = True
            elif tok == "nonreduced":
                self.take()
                reduced = False
            elif tok == "image":
                self.take()
                image = self.name("an embedding name")
            elif tok == "cap":
                self.take()
                caps.append((self.name("a subvariety"),
                             self.name("a subvariety")))
            elif tok == "preimage":
                self.take()
                pres.append((self.name("a map"), self.name("a subvariety")))
            else:
                break
        return SubvarietyDecl(name, ambient, codim, smooth, reduced, image,
                              tuple(caps), tuple(pres))

    def _stmt_cartesian(self):
        name = self.name("a square name")
        self.expect("=")
        self.expect("(")
        f = self.name("the base map")
        self.expect(",")
        h = self.name("the transverse map")
        self.expect(",")
        fp = self.name("the pulled base map")
        self.expect(",")
        hp = self.name("the pulled transverse map")
        self.expect(")")
        return CartesianDecl(name, f, h, fp, hp)

    def _stmt_object(self):
        name = self.name("an object name")
        self.expect("on")
        variety = self.name("a variety")
        return ObjectDecl(name, variety)

    def _stmt_goal(self):
        name = self.name("a goal name")
        self.expect(":")
        lhs = self.expr("D")
        self.expect("~")
        rhs = self.expr("D")
        return GoalDecl(name, lhs, rhs)

    def _stmt_lemma(self):
        name = self.name("a lemma name")
        self.expect(":")
        lhs = self.expr("D")
        self.expect("~")
        rhs = self.expr("D")
        return LemmaDecl(name, lhs, rhs)

    def _stmt_step(self):
        rule = self.name("a rule name")
        if rule == "lemma" and self.peek().text == ":":
            self.take()
            rule = f"lemma:{self.name('a lemma name')}"
        direction = self.name("fwd or bwd")
        if direction not in ("fwd", "bwd"):
            self._err(f"direction must be fwd or bwd, found {direction!r}")
        self.expect("at")
        path = self.path()
        bindings = []
        if self.peek().text == "with":
            self.take()
            while True:
                key = self.name("a binding name")
                self.expect("=")
                bindings.append((key, self._binding_value(key)))
                if self.peek().text != ",":
                    break
                self.take()
        return StepDecl(rule, direction, path, tuple(bindings))

    def _binding_value(self, key):
        sort = _BINDING_SORTS.get(key)
        if sort is None:
            self._err(f"unknown binding key {key!r}")
        if sort is int:
            return self.integer("a layer count")
        if sort is str:
            return self.name(f"a {key}")
        return self.expr(sort)

    def _stmt_closure(self):
        kind = self.name("a closure kind")
        morphism = self.name("an embedding")
        return ClosureDecl(kind, morphism)

    def _stmt_mode(self):
        return ModeDecl(self.dashed_name())

    def _stmt_strata(self):
        return StrataDecl(self.integer("a stratum bound"))

    def _stmt_exclude(self):
        rules = [self.name("a rule name")]
        while self.peek().kind == "name":
            rules.append(self.take().text)
        return ExcludeDecl(tuple(rules))

    def document(self):
        stmts = []
        while self.peek().kind != "eof":
            node, span = self.statement()
            stmts.append(_with_span(node, span))
        return ScriptDocument(tuple(stmts))


def _with_span(node, span):
    object.__setattr__(node, "span", span)
    return node


def parse_script(text):
    return _Parser(text).document()


# --- renderer ---------------------------------------------------------------------


def render_statement(st):
    if isinstance(st, VarietyDecl):
        tail = "" if st.smooth else " singular"
        return f"variety {st.name} dim {st.dim}{tail};"
    if isinstance(st, BundleDecl):
        return (f"bundle {st.name} on {st.base} rank {st.rank} "
                f"proj {st.proj} sect {st.sect};")
    if isinstance(st, FourierDecl):
        return (f"fourierpair {st.b1} {st.b2} product {st.product} "
                f"proj {st.p1} {st.p2} pairing {st.pairing} "
                f"line {st.line} coord {st.coord};")
    if isinstance(st, MorphismDecl):
        bits = [f"morphism {st.name} : {st.source} -> {st.target}"]
        if st.kind == "closed":
            bits.append(f"closed codim {st.codim}")
        elif st.kind == "zero-section":
            bits.append("zerosection")
        elif st.kind == "bundle-map":
            bits.append("bundlemap")
            if st.transpose:
                bits.append(f"transpose {st.transpose}")
        elif st.kind == "graph":
            bits.append(f"graph {st.parts[0]}")
        elif st.kind == "pmap":
            bits.append(f"pmap {st.parts[0]} {st.parts[1]}")
        elif st.kind == "projection":
            bits.append(f"projection {st.factor}")
        elif st.kind != "plain":
            bits.append(st.kind)
        if st.identities:
            eqs = ", ".join(
                f"{'.'.join(lhs)} = {'.'.join(rhs) if rhs else 'id'}"
                for lhs, rhs in st.identities)
            bits.append(f"with {eqs}")
        return " ".join(bits) + ";"
    if isinstance(st, ProductDecl):
        kw = "fiberproduct" if st.base else "product"
        over = f" over {st.base}" if st.base else ""
        return (f"{kw} {st.name} = {st.x} x {st.y}{over} "
                f"proj {st.q1} {st.q2};")
    if isinstance(st, FunctionDecl):
        tail = f" = {render_expr(st.definition)}" if st.definition is not None else ""
        return f"function {st.name} on {st.variety}{tail};"
    if isinstance(st, SubvarietyDecl):
        bits = [f"subvariety {st.name} in {st.ambient}"]
        if st.codim is not None:
            bits.append(f"codim {st.codim}")
        if st.smooth is True:
            bits.append("smooth")
        elif st.smooth is False:
            bits.append("singular")
        if not st.reduced:
            bits.append("nonreduced")
        if st.image:
            bits.append(f"image {st.image}")
        for a, b in st.caps:
            bits.append(f"cap {a} {b}")
        for m, z in st.preimages:
            bits.append(f"preimage {m} {z}")
        return " ".join(bits) + ";"
    if isinstance(st, CartesianDecl):
        return (f"cartesian {st.name} = ({st.f}, {st.h}, "
                f"{st.f_prime}, {st.h_prime});")
    if isinstance(st, ObjectDecl):
        return f"object {st.name} on {st.variety};"
    if isinstance(st, GoalDecl):
        return f"goal {st.name} : {render_expr(st.lhs)} ~ {render_expr(st.rhs)};"
    if isinstance(st, LemmaDecl):
        return f"lemma {st.name} : {render_expr(st.lhs)} ~ {render_expr(st.rhs)};"
    if isinstance(st, StepDecl):
        path = "/" + "/".join(str(i) for i in st.path)
        out = f"step {st.rule} {st.direction} at {path}"
        if st.bindings:
            out += " with " + ", ".join(
                f"{k}={render_expr(v)}" for k, v in st.bindings)
        return out + ";"
    if isinstance(st, ClosureDecl):
        return f"closure {st.kind} {st.morphism};"
    if isinstance(st, ModeDecl):
        return f"mode {st.mode};"
    if isinstance(st, StrataDecl):
        return f"strata {st.strata};"
    if isinstance(st, ExcludeDecl):
        return f"exclude {' '.join(st.rules)};"
    raise TypeError(f"cannot render {type(st).__name__}")


def render_script(doc):
    return "\n".join(render_statement(s) for s in doc.statements) + "\n"


# --- binder -----------------------------------------------------------------------


@dataclass
class BoundScript:
    ctx: GeometryContext
    certificate: ProofCertificate | None
    document: ScriptDocument


def bind_script(doc):
    """Build the geometry context and certificate from a parsed document."""
    ctx = GeometryContext()
    goal = None
    steps = []
    lemmas = []
    closure = None
    mode = "strict-smooth"
    strata = 1
    excluded = frozenset()
    for st in doc.statements:
        try:
            if isinstance(st, VarietyDecl):
                ctx.variety(st.name, st.dim, smooth=st.smooth)
            elif isinstance(st, BundleDecl):
                ctx.bundle(st.name, st.base, st.rank, proj=st.proj,
                           sect=st.sect)
            elif isinstance(st, FourierDecl):
                ctx.fourier_pair(st.b1, st.b2, st.product, st.p1, st.p2,
                                 st.pairing, st.line, st.coord)
            elif isinstance(st, MorphismDecl):
                ctx.morphism(st.name, st.source, st.target, kind=st.kind,
                             codim=st.codim, factor=st.factor,
                             parts=st.parts, transpose=st.transpose)
                for lhs, rhs in st.identities:
                    ctx.declare_identity(lhs, rhs)
            elif isinstance(st, ProductDecl):
                if st.base:
                    ctx.fiber_product(st.name, st.x, st.y, st.base,
                                      st.q1, st.q2)
                else:
                    ctx.product(st.name, st.x, st.y, st.q1, st.q2)
            elif isinstance(st, FunctionDecl):
                defn = (None if st.definition is None
                        else bind_expr(ctx, st.definition))
                ctx.function(st.name, st.variety, definition=defn)
            elif isinstance(st, SubvarietyDecl):
                ctx.subvariety(st.name, st.ambient, codim=st.codim,
                               smooth=st.smooth, reduced=st.reduced,
                               image_of=st.image)
                for a, b in st.caps:
                    ctx.cap_fact(a, b, st.name)
                for m, z in st.preimages:
                    ctx.pre_fact(m, st.name, z)
            elif isinstance(st, CartesianDecl):
                ctx.square(st.name, st.f, st.h, st.f_prime, st.h_prime)
            elif isinstance(st, ObjectDecl):
                ctx.object_(st.name, st.variety)
            elif isinstance(st, GoalDecl):
                if goal is not None:
                    raise GeometryError("a script carries a single goal")
                goal = (st.name, bind_expr(ctx, st.lhs), bind_expr(ctx, st.rhs))
                T.variety_of(ctx, goal[1])
                T.variety_of(ctx, goal[2])
            elif isinstance(st, LemmaDecl):
                lem = Lemma(st.name, bind_expr(ctx, st.lhs),
                            bind_expr(ctx, st.rhs))
                T.variety_of(ctx, lem.lhs)
                T.variety_of(ctx, lem.rhs)
                lemmas.append(lem)
            elif isinstance(st, StepDecl):
                b = {k: bind_expr(ctx, v) for k, v in st.bindings}
                steps.append(ProofStep(st.rule, st.direction, st.path, b))
            elif isinstance(st, ClosureDecl):
                closure = Closure(st.kind, st.morphism)
            elif isinstance(st, ModeDecl):
                if st.mode not in ("strict-smooth", "allow-singular"):
                    raise GeometryError(f"unknown mode {st.mode!r}")
                mode = st.mode
            elif isinstance(st, StrataDecl):
                strata = st.strata
            elif isinstance(st, ExcludeDecl):
                excluded = frozenset(st.rules)
        except (GeometryError, TermError) as e:
            raise ParseError(str(e), span=st.span) from None
    cert = None
    if goal is not None:
        cert = ProofCertificate(
            name=goal[0], title=goal[0], goal_lhs=goal[1], goal_rhs=goal[2],
            steps=tuple(steps), mode=mode, allowed_strata=strata,
            closure=closure, lemmas=tuple(lemmas), excluded_rules=excluded)
    elif steps or lemmas or closure is not None:
        raise ParseError("script has steps but no goal",
                         span=doc.statements[-1].span if doc.statements
                         else (0, 0))
    return BoundScript(ctx=ctx, certificate=cert, document=doc)


def load_script(text):
    return bind_script(parse_script(text))
