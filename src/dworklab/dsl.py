"""Script language for geometry declarations, goals, and proof scripts.

A script is a list of `;`-terminated statements with `#` comments.  The
parser builds a plain document (so scripts can be re-rendered
canonically and round-tripped); `bind_script` turns a document into a
geometry context plus a proof certificate.  Parse and bind errors carry
the span (character offsets) of the offending statement.

The lexer (`lex`) builds no object per token.  One match finds the first
stray character outside comments before anything is parsed; one
capturing `re.split` then gives the token texts, the running sum of the
parts' lengths their end offsets, and comments are dropped only when the
text holds a `#`.  The parser reads the token texts as plain strings,
ending with `""` for end of input, and takes a token's kind from its
first character: a name (`str.isidentifier`), an integer
(`str.isdecimal`) or a symbol.  Every span comes from the end offsets.

Expressions come in four sorts: M maps, F functions, S subvarieties and
D terms.  Each keyword-led form is one row of `FORMS`: its keyword, its
class and its layout, for example `"Opb": (terms.Opb, "[M](D)")`.  Each
statement with a fixed head is a row of `STATEMENTS`, shaped the same
way, for example `"object": (ObjectDecl, "N on V")`; a row may go on with
how many options one statement takes and its options, each a keyword
that sets one field, such as `singular` or `codim I` after
`subvariety S in X`.  One walker (`_Parser.fill`) parses the layouts of
both tables, `_Parser.options` reads the options, and one speller
(`_speller`) spells the layouts.  The parser builds the term and
geometry classes themselves, so a parsed expression is already its bound
value except at four syntax-only leaves: a dotted map chain `MName`, an
identity map `MId`, a binary `SCap` (a bound `SubCap` holds a tuple) and
an object name `DRef`, whose variety the context supplies.  `bind_expr`
binds a form by rebuilding it from its bound fields, and `render_expr`
spells parsed and bound expressions alike, so the reports spell a
search's step bindings in script syntax.  Step binding keys map to the
slot of their value in `_BINDING_SLOTS`.  The class of each statement
is made from the method that declares it (`_declaration`), so its fields
are that method's parameters: a `GeometryContext` method for a geometry
declaration, a `_CertificateBuilder` method for a certificate statement
(`goal`, `lemma`, `step`, `closure`, `mode`, `strata`, `exclude`).  Every
statement binds through `_DECLARE`, which calls its method on its
fields, each bound by `bind_expr`; the builder holds the context and
hands out the certificate at the end.  Six statements have a case of
their own in the parser and the renderer, which still reads their fixed
parts with `fill`: `morphism`, whose kind keywords and their arguments
come from `_MORPHISM_KINDS`; `product` and `fiberproduct`, whose keyword
picks the spelling of one class; `step`, whose bindings have separators;
`mode`, a dashed word; and `exclude`, a list of names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, make_dataclass, replace
from inspect import signature
from itertools import accumulate, compress
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

# the longest start of a text that holds no stray character: runs of
# characters that only ever lex as whitespace, names, integers or symbols,
# runs of `-` that may end in the `>` of an arrow, and comments
_CLEAN_RE = re.compile(r"(?:[\sA-Za-z_0-9\d;:,()\[\]/=~.]+|-+>?|#[^\n]*)*")
# one token, or a comment, per match; `split` leaves the whitespace
# between them
_TOKEN_RE = re.compile(
    r"(#[^\n]*|[A-Za-z_][A-Za-z_0-9]*|\d+|->|[;:,()\[\]/=~.\-])")


def lex(text):
    """The token texts of `text` and their end offsets, each list ending
    with the end of input: the text `""` at `len(text)`."""
    clean = _CLEAN_RE.match(text).end()
    if clean < len(text):
        raise ParseError(f"stray character {text[clean]!r}",
                         span=(clean, clean + 1))
    parts = _TOKEN_RE.split(text)
    toks = parts[1::2]
    ends = list(accumulate(map(len, parts)))[1::2]
    if "#" in text:
        keep = [tok[0] != "#" for tok in toks]
        toks = list(compress(toks, keep))
        ends = list(compress(ends, keep))
    toks.append("")
    ends.append(len(text))
    return toks, ends


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
class _Statement:
    # the byte span of the statement in its script; equality ignores it
    span: tuple = field(default=(0, 0), compare=False, kw_only=True)


class _CertificateBuilder:
    """The context a script declares and the certificate its certificate
    statements build, one method per statement; `certificate` hands out
    the certificate once every statement is bound."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.equation = None  # the goal's (name, lhs, rhs)
        self.steps = []
        self.lemmas = []
        # the `ProofCertificate` fields closure, mode, strata and exclude set
        self.policy = {}

    def goal(self, name, lhs, rhs):
        if self.equation is not None:
            raise GeometryError("a script carries a single goal")
        T.equation_variety(self.ctx, lhs, rhs)
        self.equation = name, lhs, rhs

    def lemma(self, name, lhs, rhs):
        T.equation_variety(self.ctx, lhs, rhs)
        self.lemmas.append(Lemma(name, lhs, rhs))

    def step(self, rule, direction, path, bindings=()):
        """`bindings` are (key, value expression) pairs."""
        self.steps.append(ProofStep(
            rule, direction, path,
            {k: bind_expr(self.ctx, v) for k, v in bindings}))

    def closure(self, kind, morphism):
        self.policy["closure"] = Closure(kind, morphism)

    def mode(self, mode):
        if mode not in ("strict-smooth", "allow-singular"):
            raise GeometryError(f"unknown mode {mode!r}")
        self.policy["mode"] = mode

    def strata(self, strata):
        if strata < 0:
            raise GeometryError(f"strata must be at least 0, got {strata}")
        self.policy["allowed_strata"] = strata

    def exclude(self, rules):
        self.policy["excluded_rules"] = frozenset(rules)

    def certificate(self):
        """The certificate, or None for a script of no goal."""
        if self.equation is None:
            if self.steps or self.lemmas or "closure" in self.policy:
                raise GeometryError("script has steps but no goal")
            return None
        name, lhs, rhs = self.equation
        return ProofCertificate(name=name, goal_lhs=lhs, goal_rhs=rhs,
                                steps=tuple(self.steps),
                                lemmas=tuple(self.lemmas), **self.policy)


# statement class -> (a getter of the object its method is called on, from
# the certificate builder; the method; a getter of the sequence of the
# method's arguments), filled by `_declaration`
_DECLARE = {}
_CONTEXT = attrgetter("ctx")


def _builder(builder):
    return builder


def _declaration(name, method, receiver=_CONTEXT):
    """The class of the statement that `method` declares: its fields are
    the method's parameters after `self`, in order and with their
    defaults.  The method is called on `receiver(builder)`: the context
    for a geometry declaration, the builder for a certificate statement."""
    params = list(signature(method).parameters.values())[1:]
    cls = make_dataclass(
        name, [(p.name, object) if p.default is p.empty
               else (p.name, object, p.default) for p in params],
        bases=(_Statement,), frozen=True)
    cls.__module__ = __name__
    get = attrgetter(*[p.name for p in params])
    _DECLARE[cls] = (receiver, method,
                     get if len(params) > 1 else lambda st: (get(st),))
    return cls


VarietyDecl = _declaration("VarietyDecl", GeometryContext.variety)
BundleDecl = _declaration("BundleDecl", GeometryContext.bundle)
FourierDecl = _declaration("FourierDecl", GeometryContext.fourier_pair)
MorphismDecl = _declaration("MorphismDecl", GeometryContext.morphism)
ProductDecl = _declaration("ProductDecl", GeometryContext.product)
FunctionDecl = _declaration("FunctionDecl", GeometryContext.function)
SubvarietyDecl = _declaration("SubvarietyDecl", GeometryContext.subvariety)
CartesianDecl = _declaration("CartesianDecl", GeometryContext.square)
ObjectDecl = _declaration("ObjectDecl", GeometryContext.object_)
GoalDecl = _declaration("GoalDecl", _CertificateBuilder.goal, _builder)
LemmaDecl = _declaration("LemmaDecl", _CertificateBuilder.lemma, _builder)
StepDecl = _declaration("StepDecl", _CertificateBuilder.step, _builder)
ClosureDecl = _declaration("ClosureDecl", _CertificateBuilder.closure,
                           _builder)
ModeDecl = _declaration("ModeDecl", _CertificateBuilder.mode, _builder)
StrataDecl = _declaration("StrataDecl", _CertificateBuilder.strata, _builder)
ExcludeDecl = _declaration("ExcludeDecl", _CertificateBuilder.exclude,
                           _builder)


@dataclass(frozen=True)
class ScriptDocument:
    statements: tuple


# --- forms and statements ------------------------------------------------------

# Every keyword-led expression form, once, by sort: M maps, F functions,
# S subvarieties, D terms.  A row is keyword -> (class, layout); the
# parser builds the class itself.  An upper-case letter in a layout is a
# slot, filled in the class's field order: M, F, S or D an expression of
# that sort, N a name, V a variety name, B a bundle name, I an integer.
# Every other token is spelled as is.  `MId` and `SCap` are syntax-only:
# they bind by hand (see `_BIND`).
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
# Every statement but six, as the rows of `FORMS`; a statement is
# spelled `keyword layout;`.  A row may go on with how many options one
# statement takes (None: any number, in any order) and its options, each
# keyword -> (field, layout, value): a flag (empty layout) sets its field
# to its value, a one-slot option to its slot, and a multi-slot option
# appends the tuple of its slots.  The speller writes the head, then, in
# table order, each option whose field is not its default.  The six others
# (`morphism`, `product`, `fiberproduct`, `step`, `mode`, `exclude`; the
# module docstring says why) are parsed by `_Parser._stmt_<keyword>`.
STATEMENTS = {
    "variety": (VarietyDecl, "N dim I", 1,
                {"singular": ("smooth", "", False),
                 "smooth": ("smooth", "", True)}),
    "bundle": (BundleDecl, "N on V rank I proj N sect N"),
    "fourierpair": (FourierDecl,
                    "N N product N proj N N pairing N line N coord N"),
    "function": (FunctionDecl, "N on V", 1,
                 {"=": ("definition", "F", None)}),
    "subvariety": (SubvarietyDecl, "N in V", None,
                   {"codim": ("codim", "I", None),
                    "singular": ("smooth", "", False),
                    "smooth": ("smooth", "", True),
                    "nonreduced": ("reduced", "", False),
                    "image": ("image", "N", None),
                    "cap": ("caps", "N N", None),
                    "preimage": ("preimages", "N N", None)}),
    "cartesian": (CartesianDecl, "N = (N, N, N, N)"),
    "object": (ObjectDecl, "N on V"),
    "goal": (GoalDecl, "N : D ~ D"),
    "lemma": (LemmaDecl, "N : D ~ D"),
    "closure": (ClosureDecl, "N N"),
    "strata": (StrataDecl, "I"),
}
# Every kind keyword of `morphism`, once: keyword -> (kind, the layout of
# its arguments, the field they fill, whether they may be left out).  The
# kind and its arguments follow the head `N : V -> V`; a field whose
# default is a tuple takes the tuple of the slots, any other the one slot.
_MORPHISM_KINDS = {
    "closed": ("closed", "codim I", "codim", False),
    "open": ("open", "", "", False),
    "section": ("section", "", "", False),
    "zerosection": ("zero-section", "", "", False),
    "negation": ("negation", "", "", False),
    "diagonal": ("diagonal", "", "", False),
    "bundlemap": ("bundle-map", "transpose N", "transpose", True),
    "graph": ("graph", "N", "parts", False),
    "pmap": ("pmap", "N N", "parts", False),
    "projection": ("projection", "I", "factor", False),
}
_NAME_SLOTS = {"N": "a name", "V": "a variety", "B": "a bundle"}
# the bare-name leaf of each sort but M (a dotted chain of map names)
_LEAVES = {"F": (FuncName, "a function name"),
           "S": (SubName, "a subvariety name"),
           "D": (DRef, "a term")}

# the most forms and shift suffixes one expression may nest: binding and
# walking a term recurse once per level, so deeper input is refused
MAX_NESTING = 200

# step binding key -> the slot its value fills
_BINDING_SLOTS = {"f": "M", "g": "M", "map": "M", "psi": "F",
                  "sub": "S", "left": "S", "right": "S",
                  "layers": "I", "square": "N", "bundle": "B", "law": "N"}


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


def render_path(path):
    """A term path as a script spells it: `/`, or `/0/1` from the root."""
    return "/" + "/".join(str(i) for i in path)


def _bind_ref(ctx, d):
    variety = ctx.objects.get(d.name)
    if variety is None:
        raise GeometryError(f"unknown object {d.name!r}")
    return T.Var(d.name, variety)


def _positional(cls):
    return [f.name for f in fields(cls) if not f.kw_only]


def _rebind(cls):
    names = _positional(cls)
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


def _speller(fmt, cls, slots):
    # a name or an integer is spelled by `str` (or by `format` itself), an
    # expression by `render_expr`; reading a statement's names with one
    # `attrgetter` and spelling out a form's one or two slots keep this fast
    names = _positional(cls)[:len(slots)]
    if len(names) > 1 and not FORMS.keys() & slots:
        get = attrgetter(*names)
        return lambda x: fmt.format(*get(x))
    parts = [(attrgetter(name), render_expr if slot in FORMS else str)
             for name, slot in zip(names, slots)]
    if len(parts) == 1:
        (get, spell), = parts
        return lambda x: fmt.format(spell(get(x)))
    if len(parts) == 2:
        (left, lspell), (right, rspell) = parts
        return lambda x: fmt.format(lspell(left(x)), rspell(right(x)))
    return lambda x: fmt.format(*[spell(get(x)) for get, spell in parts])


def _option_speller(head, tail, cls, options):
    # spells the head, then the options as `STATEMENTS` says
    field_default = {f.name: f.default for f in fields(cls)}
    spells = [(attrgetter(name), field_default[name],
               re.sub("[A-Z]", "{}", f" {kw} {layout}".rstrip()),
               len(re.findall("[A-Z]", layout)), value)
              for kw, (name, layout, value) in options.items()]

    def spell(x):
        out = head(x)
        for get, default, opt, slots, value in spells:
            v = get(x)
            if v == default:
                continue
            if slots == 1:
                out += opt.format(render_expr(v))
            elif slots:
                out += "".join([opt.format(*map(render_expr, t)) for t in v])
            elif v == value:
                out += opt
        return out + tail
    return spell


def _tokens(layout):
    return tuple(lex(layout)[0][:-1])


def _compile(rows, head, tail):
    """Tokenize each row's layout and options and register its class's
    speller; each row compiles to (class, layout, most, options)."""
    out = {}
    for kw, (cls, layout, *more) in rows.items():
        most, options = more or (0, {})
        fmt = kw + head + re.sub("[A-Z]", "{}", layout)
        slots = re.findall("[A-Z]", layout)
        _SPELL[cls] = (_option_speller(_speller(fmt, cls, slots), tail, cls,
                                       options) if options
                       else _speller(fmt + tail, cls, slots))
        out[kw] = cls, _tokens(layout), most, {
            okw: (name, _tokens(olayout), value)
            for okw, (name, olayout, value) in options.items()}
    return out


_FORM_ROWS = {sort: _compile(rows, "", "") for sort, rows in FORMS.items()}
_STATEMENT_ROWS = _compile(STATEMENTS, " ", ";")
# the fixed parts of `morphism`, `product` and `fiberproduct`
_HEADS = {kw: _tokens(layout) for kw, layout in (
    ("morphism", "N : V -> V"), ("product", "N = V x V"),
    ("over", "over V"), ("proj", "proj N N"))}
# kind keyword -> (kind, layout, field, whether the field takes a tuple,
# whether the arguments may be left out), for the parser
_KIND_ROWS = {kw: (kind, _tokens(layout), name,
                   isinstance(getattr(MorphismDecl, name, None), tuple),
                   optional)
              for kw, (kind, layout, name, optional) in _MORPHISM_KINDS.items()}
# kind -> (keyword, format of the arguments, field, whether they may be
# left out), for the renderer; a kind of no keyword is spelled as itself
_KIND_SPELL = {kind: (f" {kw}", re.sub("[A-Z]", "{}", f" {layout}".rstrip()),
                      name, optional)
               for kw, (kind, layout, name, optional) in _MORPHISM_KINDS.items()}
_KIND_SPELL["plain"] = ("", "", "", False)
for _forms in FORMS.values():
    for _cls, _layout in _forms.values():
        _BIND.setdefault(_cls, _rebind(_cls))


# --- parser ----------------------------------------------------------------------


class _Parser:
    def __init__(self, text):
        self.toks, self.ends = lex(text)
        self.i = 0
        self.stmt_start = 0
        self.depth = 0  # forms enclosing the expression being read
        self.height = 0  # levels nested below the last expression read

    def peek(self):
        return self.toks[self.i]

    def take(self):
        tok = self.toks[self.i]
        if tok:
            self.i += 1
        return tok

    def _err(self, msg, tok=None):
        # `tok`, the token just taken, ends at `self.ends[self.i - 1]`; the
        # end of input, which `take` does not pass, and the next token at
        # `self.ends[self.i]`
        end = self.ends[self.i - 1 if tok else self.i]
        # widen to the end of the statement for excision-friendly spans
        j = self.i
        while self.toks[j] and self.toks[j] != ";":
            j += 1
        if self.toks[j] == ";":
            end = self.ends[j]
        raise ParseError(msg, span=(self.stmt_start, end))

    def expect(self, text):
        tok = self.take()
        if tok != text:
            self._err(f"expected {text!r}, found {tok or 'end of input'!r}",
                      tok)
        return tok

    def name(self, what="a name"):
        tok = self.take()
        if not tok.isidentifier():
            self._err(f"expected {what}, found {tok or 'end of input'!r}",
                      tok)
        return tok

    def integer(self, what="an integer"):
        neg = False
        if self.peek() == "-":
            self.take()
            neg = True
        tok = self.take()
        if not tok.isdecimal():
            self._err(f"expected {what}, found {tok or 'end of input'!r}",
                      tok)
        return -int(tok) if neg else int(tok)

    def expr(self, sort):
        """One expression of `sort`; a D term may carry shifts `[k]`.
        Forms and shifts may nest `MAX_NESTING` levels below it."""
        if self.depth > MAX_NESTING:
            self._err(f"expression nests deeper than {MAX_NESTING} levels")
        self.height = 0
        row = _FORM_ROWS[sort].get(self.peek())
        if row is not None:
            self.take()
            cls, layout, _most, _options = row
            self.depth += 1
            out = cls(*self.fill(layout))
            self.depth -= 1
        elif sort == "M":
            out = MName(self._joined(".", "a map name"))
        else:
            leaf, what = _LEAVES[sort]
            out = leaf(self.name(what))
        while sort == "D" and self.peek() == "[":
            self.take()
            k = self.integer("a shift")
            self.expect("]")
            out = T.Shift(out, k)
            self.height += 1
        if self.depth + self.height > MAX_NESTING:
            self._err(f"expression nests deeper than {MAX_NESTING} levels")
        return out

    def fill(self, layout):
        """The values of the slots of a tokenized layout, in order."""
        args = []
        height = 0
        for item in layout:
            if item in FORMS:
                args.append(self.expr(item))
                height = max(height, self.height + 1)
            elif item in _NAME_SLOTS:
                args.append(self.name(_NAME_SLOTS[item]))
            elif item == "I":
                args.append(self.integer())
            else:
                self.expect(item)
        self.height = height
        return args

    def options(self, most, options):
        """The fields set by up to `most` options (None: any number), read
        as `STATEMENTS` says."""
        out = {}
        n = 0
        while n != most and self.peek() in options:
            name, layout, value = options[self.take()]
            args = self.fill(layout)
            if len(args) > 1:
                out[name] = out.get(name, ()) + (tuple(args),)
            else:
                out[name] = args[0] if args else value
            n += 1
        return out

    def path(self):
        self.expect("/")
        out = []
        if self.peek().isdecimal():
            out.append(int(self.take()))
            while self.peek() == "/":
                self.take()
                tok = self.take()
                if not tok.isdecimal():
                    self._err("expected a path index", tok)
                out.append(int(tok))
        return tuple(out)

    def statement(self):
        self.stmt_start = self.ends[self.i] - len(self.peek())
        kw = self.name("a statement keyword")
        row = _STATEMENT_ROWS.get(kw)
        if row is not None:
            cls, layout, most, options = row
            node = cls(*self.fill(layout), **self.options(most, options))
        else:
            fn = getattr(self, f"_stmt_{kw}", None)
            if fn is None:
                self._err(f"unknown statement {kw!r}")
            node = fn()
        self.expect(";")
        end = self.ends[self.i - 1]
        object.__setattr__(node, "span", (self.stmt_start, end))
        return node

    def _stmt_morphism(self):
        head = self.fill(_HEADS["morphism"])
        args = {}
        row = _KIND_ROWS.get(self.peek())
        if row is not None:
            self.take()
            args["kind"], layout, name, several, optional = row
            if layout and not (optional and self.peek() != layout[0]):
                slots = self.fill(layout)
                args[name] = tuple(slots) if several else slots[0]
        identities = []
        if self.peek() == "with":
            self.take()
            while True:
                lhs = self._joined(".", "a map name")
                self.expect("=")
                if self.peek() == "id":
                    self.take()
                    rhs = ()
                else:
                    rhs = self._joined(".", "a map name")
                identities.append((lhs, rhs))
                if self.peek() != ",":
                    break
                self.take()
        return MorphismDecl(*head, **args, identities=tuple(identities))

    def _joined(self, sep, what="a name"):
        """Names joined by `sep`, such as a chain of map names `g.f` or a
        dashed mode name, as a tuple."""
        parts = [self.name(what)]
        while self.peek() == sep:
            self.take()
            parts.append(self.name(what))
        return tuple(parts)

    def _stmt_product(self, over=False):
        name, x, y = self.fill(_HEADS["product"])
        base = self.fill(_HEADS["over"])[0] if over else ""
        return ProductDecl(name, x, y, *self.fill(_HEADS["proj"]), base)

    def _stmt_fiberproduct(self):
        return self._stmt_product(over=True)

    def _stmt_step(self):
        rule = self.name("a rule name")
        if rule == "lemma" and self.peek() == ":":
            self.take()
            rule = f"lemma:{self.name('a lemma name')}"
        direction = self.name("fwd or bwd")
        if direction not in ("fwd", "bwd"):
            self._err(f"direction must be fwd or bwd, found {direction!r}")
        self.expect("at")
        path = self.path()
        bindings = []
        if self.peek() == "with":
            self.take()
            while True:
                key = self.name("a binding name")
                self.expect("=")
                bindings.append((key, self._binding_value(key)))
                if self.peek() != ",":
                    break
                self.take()
        return StepDecl(rule, direction, path, tuple(bindings))

    def _binding_value(self, key):
        slot = _BINDING_SLOTS.get(key)
        if slot is None:
            self._err(f"unknown binding key {key!r}")
        return self.fill((slot,))[0]

    def _stmt_mode(self):
        return ModeDecl("-".join(self._joined("-")))

    def _stmt_exclude(self):
        rules = [self.name("a rule name")]
        while self.peek().isidentifier():
            rules.append(self.take())
        return ExcludeDecl(tuple(rules))

    def document(self):
        stmts = []
        while self.peek():
            stmts.append(self.statement())
        return ScriptDocument(tuple(stmts))


def parse_script(text):
    return _Parser(text).document()


# --- renderer ---------------------------------------------------------------------


def render_statement(st):
    spell = _SPELL.get(st.__class__)
    if spell is not None:
        return spell(st)
    if isinstance(st, MorphismDecl):
        kw, fmt, name, optional = (_KIND_SPELL.get(st.kind)
                                   or (f" {st.kind}", "", "", False))
        out = f"morphism {st.name} : {st.source} -> {st.target}{kw}"
        if fmt:
            value = getattr(st, name)
            if value or not optional:
                out += (fmt.format(*value) if isinstance(value, tuple)
                        else fmt.format(value))
        if st.identities:
            out += " with " + ", ".join(
                f"{'.'.join(lhs)} = {'.'.join(rhs) if rhs else 'id'}"
                for lhs, rhs in st.identities)
        return out + ";"
    if isinstance(st, ProductDecl):
        kw = "fiberproduct" if st.base else "product"
        over = f" over {st.base}" if st.base else ""
        return (f"{kw} {st.name} = {st.x} x {st.y}{over} "
                f"proj {st.q1} {st.q2};")
    if isinstance(st, StepDecl):
        out = f"step {st.rule} {st.direction} at {render_path(st.path)}"
        if st.bindings:
            out += " with " + ", ".join(
                f"{k}={render_expr(v)}" for k, v in st.bindings)
        return out + ";"
    if isinstance(st, ModeDecl):
        return f"mode {st.mode};"
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


def bind_script(doc, ctx=None):
    """Build the geometry context and certificate from a parsed document:
    each statement calls the method that declares it on its bound fields.
    With `ctx` the statements declare into that context, which the result
    holds, so several documents (declarations, then certificates) can
    share one; without it they declare into a new one."""
    if ctx is None:
        ctx = GeometryContext()
    builder = _CertificateBuilder(ctx)
    paired = []
    for st in doc.statements:
        receiver, method, args = _DECLARE[st.__class__]
        if isinstance(st, MorphismDecl) and st.transpose:
            # a map is paired with its transpose once both are declared
            paired.append(st)
            st = replace(st, transpose="")
        try:
            method(receiver(builder), *[bind_expr(ctx, a) for a in args(st)])
        except (GeometryError, TermError) as e:
            raise ParseError(str(e), span=st.span) from None
    for st in paired:
        if st.transpose not in ctx.atoms:
            raise ParseError(
                f"transpose {st.transpose!r} is not a declared map",
                span=st.span)
        try:
            ctx.pair_transposes(st.name, st.transpose)
        except GeometryError as e:
            raise ParseError(str(e), span=st.span) from None
    try:
        cert = builder.certificate()
    except GeometryError as e:
        # only a script of statements can have steps
        raise ParseError(str(e), span=doc.statements[-1].span) from None
    return BoundScript(ctx=ctx, certificate=cert, document=doc)


def load_script(text):
    return bind_script(parse_script(text))
