"""The rewrite rules and the single-step driver.

Raw terms between steps stay shift-canonical (one Shift at most, at the
root); rule patterns are shift-free and paths address the shift-stripped
core.  Each applier returns a shift-free replacement plus an integer delta.
`rewrite` applies one rule at a subterm and is the one place that checks
a step beyond its rule's matching: the exclusions, the step's strata need
(`step_stratum`), and that the replacement is well-formed on the
subterm's own variety.  Every rule is an isomorphism on one variety, and
a node's variety depends only on its children's, so a step that passes
keeps a well-formed term well-formed.  A refusal is the one `Fail`,
`GeometryError` or `TermError` raised.  `apply_step` is `rewrite` on a
whole term: it navigates to the path, splices the replacement in and
folds the delta into the root shift (the caller ledgers it).  It is the
one place that turns a refusal, of the path or of the rule, into a
`RuleError` at the step's path.

Matching tolerances, applied deterministically:

* the root shift is transparent (driver);
* compose rules run backward may see a subterm with no map in their slot
  as pulled back / pushed forward along an identity, provided the cited
  factors compose to one; a map written in that slot is read only as
  written, and the cited factors must compose to it;
* tensor patterns try the written factor order, then the swapped one;
* closed subpatterns (transform kernels, lemma sides) compare by normal
  form, with any shift difference transferred to the ledger;
* metavariables bind raw subterms exactly.

Each applier also names the step undoing it, read off the subterm it
rewrote.  Each rule's `RULES` row says where a search tries it: per
direction (and law), a node shape and candidate bindings, either read
off the written subterm (`pick`) or listed with the declared maps they
run along (`along`).  `Moves` tries each candidate once through
`rewrite`, so a refused candidate costs one exception, and keeps the
accepted moves per subterm for one search.  An undo may land on a raw
form other than the original; `Moves` checks, once per move.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, NamedTuple

from .errors import GeometryError, RuleError, TermError
from .geometry import (
    CLOSED_EMBEDDING_KINDS,
    FuncName,
    FuncPull,
    Morphism,
    SubCap,
    SubName,
    SubPre,
    SubRed,
)
from .terms import (
    ETensor,
    Exp,
    Fourier,
    Oim,
    Opb,
    RGamma,
    Struct,
    Tensor,
    hoist_shifts,
    navigate,
    normal_key,
    normalize,
    replace,
    serialize,
    split_shift,
    variety_of,
    with_shift,
)


# above this many atom pairs, compose splits are not offered to the search
_ATOM_PAIR_CAP = 2500


class Offer(NamedTuple):
    """Where a rule is offered one way: at an `outer` node whose argument
    is an `inner` node (None: any), once per candidate.  A candidate binds
    `key` to a value or, with no key, is the bindings itself.  The
    candidates are the values `along(ctx)` pairs with the written node's
    declared maps, its own and then its argument's, in normal form
    (``(maps, value)`` pairs, which `Moves` indexes once per search); or
    else the values `pick(moves, sub)` reads off the written subterm; or
    else each declared name of `key` (`Moves.names`), or no bindings at
    all."""

    outer: type
    inner: type | None = None
    key: str | None = None
    pick: Callable | None = None
    along: Callable | None = None


class Fail(Exception):
    """A rule's refusal; its message is the reason."""


def _get(b, key, cls, what):
    v = b.get(key)
    if v is None:
        raise Fail(f"missing binding {key!r} ({what})")
    if cls is not None and not isinstance(v, cls):
        raise Fail(f"binding {key!r} should be {what}, got {type(v).__name__}")
    return v


def _orderings(t):
    """Tensor factors as written, then swapped."""
    return ((t.left, t.right), (t.right, t.left))


def _other_way(apply):
    """An applier whose step the same rule undoes the other way, with the
    same bindings."""
    def applier(ctx, sub, direction, b, mode):
        new, delta = apply(ctx, sub, direction, b, mode)
        return new, delta, ("bwd" if direction == "fwd" else "fwd", b)
    return applier


def _single_atom(ctx, m):
    n = ctx.normalize_morphism(m)
    if len(n.atoms) != 1:
        raise Fail(f"map {'.'.join(m.atoms) or 'id'} is not a declared atom")
    return ctx.atoms[n.atoms[0]]


# --- compose -----------------------------------------------------------------


def _factors(sub, node):
    """The cited factors f, g of a written nesting of two `node`s."""
    outer, inner = sub.morphism, sub.arg.morphism
    f, g = (outer, inner) if node is Opb else (inner, outer)
    return {"f": f, "g": g}


def _compose_apply(ctx, sub, direction, b, node):
    if direction == "fwd" and not b:
        if not (isinstance(sub, node) and isinstance(sub.arg, node)):
            raise Fail(f"need nested {node.__name__} to merge")
        outer, inner = sub.morphism, sub.arg.morphism
        if node is Opb:
            merged = ctx.compose(inner, outer)  # (g.f)-dagger = f-dagger g-dagger
        else:
            merged = ctx.compose(outer, inner)
        return node(merged, sub.arg.arg), 0, ("bwd", _factors(sub, node))

    f = _get(b, "f", Morphism, "a map")
    g = _get(b, "g", Morphism, "a map")
    if f.target != g.source:
        raise Fail("cited maps do not compose")
    gf = ctx.compose(g, f)

    if direction == "fwd":
        # rebracket: rewrite the nesting to the cited factors
        if not (isinstance(sub, node) and isinstance(sub.arg, node)):
            raise Fail(f"need nested {node.__name__} to rebracket")
        outer, inner = sub.morphism, sub.arg.morphism
        old = ctx.compose(inner, outer) if node is Opb else ctx.compose(outer, inner)
        if not ctx.morphisms_equal(gf, old):
            raise Fail("cited factors do not compose to the same map")
    elif isinstance(sub, node):
        if not ctx.morphisms_equal(gf, sub.morphism):
            raise Fail("cited factors do not compose to the written map")
        sub = sub.arg
    elif not ctx.is_identity(gf):
        raise Fail("cited factors are not an identity")
    if direction == "bwd":
        core, undo = sub, ("fwd", {})
    else:
        core, undo = sub.arg.arg, ("fwd", _factors(sub, node))
    if node is Opb:
        return Opb(f, Opb(g, core)), 0, undo
    return Oim(g, Oim(f, core)), 0, undo


def _r1(ctx, sub, direction, b, mode):
    return _compose_apply(ctx, sub, direction, b, Opb)


def _r2(ctx, sub, direction, b, mode):
    return _compose_apply(ctx, sub, direction, b, Oim)


# --- tensor interchange ------------------------------------------------------


@_other_way
def _r3(ctx, sub, direction, b, mode):
    if direction == "fwd":
        if not (isinstance(sub, Opb) and isinstance(sub.arg, Tensor)):
            raise Fail("need a pullback of a tensor")
        m, t = sub.morphism, sub.arg
        return Tensor(Opb(m, t.left), Opb(m, t.right)), 0
    if not (isinstance(sub, Tensor) and isinstance(sub.left, Opb)
            and isinstance(sub.right, Opb)):
        raise Fail("need a tensor of two pullbacks")
    if not ctx.morphisms_equal(sub.left.morphism, sub.right.morphism):
        raise Fail("pullbacks are along different maps")
    return Opb(sub.left.morphism, Tensor(sub.left.arg, sub.right.arg)), 0


@_other_way
def _r4(ctx, sub, direction, b, mode):
    if direction == "fwd":
        if not (isinstance(sub, Oim) and isinstance(sub.arg, Tensor)):
            raise Fail("need a pushforward of a tensor")
        p = sub.morphism
        for first, second in _orderings(sub.arg):
            if isinstance(first, Opb) and ctx.morphisms_equal(first.morphism, p):
                return Tensor(first.arg, Oim(p, second)), 0
        raise Fail("no factor is pulled back along the pushforward map")
    if not isinstance(sub, Tensor):
        raise Fail("need a tensor")
    for first, second in _orderings(sub):
        if isinstance(second, Oim):
            p = second.morphism
            return Oim(p, Tensor(Opb(p, first), second.arg)), 0
    raise Fail("no pushed-forward factor")


# --- base change -------------------------------------------------------------


@_other_way
def _r5(ctx, sub, direction, b, mode):
    name = _get(b, "square", str, "a declared square name")
    sq = ctx.squares.get(name)
    if sq is None:
        raise Fail(f"unknown square {name!r}")
    af, ah = ctx.atoms[sq.f], ctx.atoms[sq.h]
    afp = ctx.atoms[sq.f_prime]
    if mode == "strict-smooth":
        for v in (af.source, af.target, ah.source, afp.source):
            if not ctx.varieties[v].smooth:
                raise Fail(f"square corner {v} is not smooth")
    dims = {v: ctx.varieties[v].dim
            for v in (af.source, af.target, ah.source, afp.source)}
    delta_fwd = (dims[ah.source] - dims[af.target]) \
        - (dims[afp.source] - dims[af.source])
    mf, mh = ctx.composite(sq.f), ctx.composite(sq.h)
    mfp, mhp = ctx.composite(sq.f_prime), ctx.composite(sq.h_prime)
    if direction == "fwd":
        if not (isinstance(sub, Oim) and isinstance(sub.arg, Opb)):
            raise Fail("need a pushforward of a pullback")
        if not (ctx.morphisms_equal(sub.morphism, mfp)
                and ctx.morphisms_equal(sub.arg.morphism, mhp)):
            raise Fail(f"maps do not match square {name}")
        return Opb(mh, Oim(mf, sub.arg.arg)), delta_fwd
    if not (isinstance(sub, Opb) and isinstance(sub.arg, Oim)):
        raise Fail("need a pullback of a pushforward")
    if not (ctx.morphisms_equal(sub.morphism, mh)
            and ctx.morphisms_equal(sub.arg.morphism, mf)):
        raise Fail(f"maps do not match square {name}")
    return Oim(mfp, Opb(mhp, sub.arg.arg)), -delta_fwd


def _r5_stratum(ctx, b):
    """Base change over a square needs stratum 1 unless its transverse leg
    is an embedding."""
    sq = ctx.squares.get(b.get("square"))
    return int(sq is not None and not ctx.is_embedding(ctx.composite(sq.h)))


# --- supports ----------------------------------------------------------------


@_other_way
def _r6(ctx, sub, direction, b, mode):
    if direction == "fwd":
        if not isinstance(sub, RGamma):
            raise Fail("need a supported term")
        amb = ctx.sub_ambient(sub.sub)
        return Tensor(sub.arg, RGamma(sub.sub, Struct(amb))), 0
    if not isinstance(sub, Tensor):
        raise Fail("need a tensor")
    for first, second in _orderings(sub):
        if isinstance(second, RGamma) and isinstance(second.arg, Struct):
            return RGamma(second.sub, first), 0
    raise Fail("no supported structure-sheaf factor")


def _r7(ctx, sub, direction, b, mode):
    if direction == "fwd" and not b:
        if not (isinstance(sub, RGamma) and isinstance(sub.arg, RGamma)):
            raise Fail("need nested supports to merge")
        undo = ("bwd", {"left": sub.sub, "right": sub.arg.sub})
        return RGamma(SubCap((sub.sub, sub.arg.sub)), sub.arg.arg), 0, undo
    left = _get(b, "left", None, "a subvariety")
    right = _get(b, "right", None, "a subvariety")
    if direction == "fwd":
        # rebracket nested supports without changing the intersection
        if not (isinstance(sub, RGamma) and isinstance(sub.arg, RGamma)):
            raise Fail("need nested supports to rebracket")
        old = SubCap((sub.sub, sub.arg.sub))
        core = sub.arg.arg
        undo = ("fwd", {"left": sub.sub, "right": sub.arg.sub})
    else:
        if not isinstance(sub, RGamma):
            raise Fail("need a supported term")
        old = sub.sub
        core = sub.arg
        undo = ("fwd", {})
    if not ctx.subs_equal(SubCap((left, right)), old):
        raise Fail("cited supports do not intersect to the written one")
    return RGamma(left, RGamma(right, core)), 0, undo


def _r8(ctx, sub, direction, b, mode):
    target = _get(b, "sub", None, "a subvariety")
    if direction == "fwd":
        if not (isinstance(sub, Oim) and isinstance(sub.arg, RGamma)):
            raise Fail("need a pushforward of a supported term")
        m = sub.morphism
        if not ctx.subs_equal(sub.arg.sub, SubPre(m, target)):
            raise Fail("written support is not the preimage of the cited one")
        return RGamma(target, Oim(m, sub.arg.arg)), 0, \
            ("bwd", {"sub": sub.arg.sub})
    if not (isinstance(sub, RGamma) and isinstance(sub.arg, Oim)):
        raise Fail("need a supported pushforward")
    m = sub.arg.morphism
    if not ctx.subs_equal(target, SubPre(m, sub.sub)):
        raise Fail("cited support is not the preimage of the written one")
    return Oim(m, RGamma(target, sub.arg.arg)), 0, ("fwd", {"sub": sub.sub})


def _r10_center(ctx, mode, m):
    n = ctx.normalize_morphism(m)
    if len(n.atoms) != 1:
        raise Fail("embedding must normalize to a declared atom")
    j = n.atoms[0]
    atom = ctx.atoms[j]
    if atom.kind not in CLOSED_EMBEDDING_KINDS:
        raise Fail(f"{j} is not a closed embedding")
    # an image is declared of a map as written: compare normal forms
    name = next((z for a, z in ctx.images.items()
                 if ctx.morphisms_equal(ctx.composite(a), n)), None)
    if name is None:
        raise Fail(f"{j} has no declared image")
    sv = ctx.subvarieties[name]
    if mode == "strict-smooth" and not sv.smooth:
        raise Fail(f"center {name} is not smooth")
    return name, sv.codim


@_other_way
def _r10(ctx, sub, direction, b, mode):
    layers = b.get("layers", 1)
    if not isinstance(layers, int) or layers < 1:
        raise Fail("layers must be a positive integer")
    if direction == "fwd":
        centers = []
        cur = sub
        for _ in range(layers):
            if not isinstance(cur, RGamma):
                raise Fail(f"need {layers} nested supports")
            z = ctx.normalize_sub(cur.sub)
            if not isinstance(z, SubName):
                raise Fail("support does not normalize to a declared subvariety")
            sv = ctx.subvarieties[z.name]
            if not sv.image_of:
                raise Fail(f"{z.name} is not the image of a declared embedding")
            if mode == "strict-smooth" and not sv.smooth:
                raise Fail(f"center {z.name} is not smooth")
            centers.append((ctx.composite(sv.image_of), sv.codim))
            cur = cur.arg
        out = cur
        for j, _d in reversed(centers):
            out = Oim(j, Opb(j, out))
        return out, -sum(d for _j, d in centers)
    centers = []
    cur = sub
    for _ in range(layers):
        if not (isinstance(cur, Oim) and isinstance(cur.arg, Opb)):
            raise Fail(f"need {layers} nested push-pull pairs")
        if not ctx.morphisms_equal(cur.morphism, cur.arg.morphism):
            raise Fail("pushforward and pullback maps differ")
        centers.append(_r10_center(ctx, mode, cur.morphism))
        cur = cur.arg.arg
    out = cur
    for name, _d in reversed(centers):
        out = RGamma(SubName(name), out)
    return out, sum(d for _n, d in centers)


def _r18(ctx, sub, direction, b, mode):
    if not isinstance(sub, RGamma):
        raise Fail("need a supported term")
    if direction == "fwd":
        return RGamma(SubRed(sub.sub), sub.arg), 0, ("bwd", {"sub": sub.sub})
    z = _get(b, "sub", None, "a subvariety")
    if not ctx.subs_equal(SubRed(z), sub.sub):
        raise Fail("cited subvariety does not reduce to the written support")
    return RGamma(z, sub.arg), 0, ("fwd", {})


# --- exponentials and transforms ---------------------------------------------


def _r11(ctx, sub, direction, b, mode):
    if direction == "fwd":
        if not (isinstance(sub, Opb) and isinstance(sub.arg, Exp)):
            raise Fail("need a pullback of an exponential")
        m = sub.morphism
        return Exp(m.source, FuncPull(sub.arg.func, m)), 0, \
            ("bwd", {"f": m, "psi": sub.arg.func})
    if not isinstance(sub, Exp):
        raise Fail("need an exponential")
    f = _get(b, "f", Morphism, "a map")
    psi = _get(b, "psi", None, "a function")
    if not ctx.funcs_equal(sub.func, FuncPull(psi, f)):
        raise Fail("twist is not the pullback of the cited function")
    return Opb(f, Exp(f.target, psi)), 0, ("fwd", {})


@_other_way
def _r12(ctx, sub, direction, b, mode):
    bundle = _get(b, "bundle", str, "a bundle name")
    data = ctx.pairing(bundle)
    kernel = Opb(ctx.composite(data.pairing), Exp(data.line, FuncName(data.coord)))
    p_self = ctx.composite(data.proj_self)
    p_dual = ctx.composite(data.proj_dual)
    if direction == "fwd":
        if not (isinstance(sub, Fourier) and sub.bundle == bundle):
            raise Fail(f"need a transform along {bundle}")
        return Oim(p_dual, Tensor(Opb(p_self, sub.arg), kernel)), 0
    if not (isinstance(sub, Oim) and isinstance(sub.arg, Tensor)):
        raise Fail("need a pushforward of a tensor")
    if not ctx.morphisms_equal(sub.morphism, p_dual):
        raise Fail("pushforward is not along the dual projection")
    want = normal_key(ctx, kernel)
    for first, second in _orderings(sub.arg):
        if (isinstance(first, Opb)
                and ctx.morphisms_equal(first.morphism, p_self)
                and normal_key(ctx, second) == want):
            return Fourier(bundle, first.arg), 0
    raise Fail("factors do not match the transform kernel shape")


@_other_way
def _r13(ctx, sub, direction, b, mode):
    bundle = _get(b, "bundle", str, "a bundle name")
    data = ctx.pairing(bundle)
    neg = ctx.negations.get(bundle)
    if neg is None:
        raise Fail(f"no negation declared on {bundle}")
    if direction == "fwd":
        if not (isinstance(sub, Fourier) and sub.bundle == data.dual
                and isinstance(sub.arg, Fourier) and sub.arg.bundle == bundle):
            raise Fail(f"need a double transform through {bundle}")
        return Opb(ctx.composite(neg), sub.arg.arg), 0
    if not isinstance(sub, Opb):
        raise Fail("need a pullback along the negation")
    if not ctx.morphisms_equal(sub.morphism, ctx.composite(neg)):
        raise Fail(f"map is not the negation of {bundle}")
    return Fourier(data.dual, Fourier(bundle, sub.arg)), 0


@_other_way
def _r14(ctx, sub, direction, b, mode):
    if direction == "fwd":
        if not (isinstance(sub, Fourier) and isinstance(sub.arg, Oim)):
            raise Fail("need a transform of a pushforward")
        u = sub.arg.morphism
        if sub.bundle != u.target:
            raise Fail("pushforward does not land in the transformed bundle")
        want = b.get("map")
        if want is not None and not ctx.morphisms_equal(want, u):
            raise Fail("cited map differs from the written one")
        ctx.pairing(u.source)
        return Opb(ctx.transpose_morphism(u), Fourier(u.source, sub.arg.arg)), 0
    if not (isinstance(sub, Opb) and isinstance(sub.arg, Fourier)):
        raise Fail("need a pullback of a transform")
    u = ctx.transpose_morphism(sub.morphism)
    if sub.arg.bundle != u.source:
        raise Fail("transform bundle is not the source of the transposed map")
    ctx.pairing(u.target)
    return Fourier(u.target, Oim(u, sub.arg.arg)), 0


@_other_way
def _r15(ctx, sub, direction, b, mode):
    if direction == "fwd":
        if not (isinstance(sub, Oim) and isinstance(sub.arg, Fourier)):
            raise Fail("need a pushforward of a transform")
        u = ctx.transpose_morphism(sub.morphism)
        if sub.arg.bundle != u.target:
            raise Fail("transform bundle is not the target of the transposed map")
        ctx.pairing(u.source)
        return Fourier(u.source, Opb(u, sub.arg.arg)), 0
    if not (isinstance(sub, Fourier) and isinstance(sub.arg, Opb)):
        raise Fail("need a transform of a pullback")
    u = sub.arg.morphism
    if sub.bundle != u.source:
        raise Fail("pullback does not start at the transformed bundle")
    ctx.pairing(u.target)
    return Oim(ctx.transpose_morphism(u), Fourier(u.target, sub.arg.arg)), 0


def _zero_section(ctx, b):
    """R16's and R17's data: the cited bundle, its dual, the dual's zero
    section and the bundle's projection."""
    bundle = _get(b, "bundle", str, "a bundle name")
    dual = ctx.pairing(bundle).dual
    return (bundle, dual, ctx.composite(ctx.bundles[dual].sect),
            ctx.composite(ctx.bundles[bundle].proj))


@_other_way
def _r16(ctx, sub, direction, b, mode):
    bundle, _dual, sect, proj = _zero_section(ctx, b)
    if direction == "fwd":
        if not isinstance(sub, Oim):
            raise Fail("need a pushforward")
        if not ctx.morphisms_equal(sub.morphism, sect):
            raise Fail("map is not the dual zero section")
        return Fourier(bundle, Opb(proj, sub.arg)), 0
    if not (isinstance(sub, Fourier) and sub.bundle == bundle
            and isinstance(sub.arg, Opb)):
        raise Fail(f"need a transform along {bundle} of a pullback")
    if not ctx.morphisms_equal(sub.arg.morphism, proj):
        raise Fail("pullback is not along the bundle projection")
    return Oim(sect, sub.arg.arg), 0


@_other_way
def _r17(ctx, sub, direction, b, mode):
    bundle, dual, sect, proj = _zero_section(ctx, b)
    if direction == "fwd":
        if not isinstance(sub, Opb):
            raise Fail("need a pullback")
        if not ctx.morphisms_equal(sub.morphism, sect):
            raise Fail("map is not the dual zero section")
        return Oim(proj, Fourier(dual, sub.arg)), 0
    if not (isinstance(sub, Oim) and isinstance(sub.arg, Fourier)
            and sub.arg.bundle == dual):
        raise Fail(f"need a pushforward of a transform along {dual}")
    if not ctx.morphisms_equal(sub.morphism, proj):
        raise Fail("pushforward is not along the bundle projection")
    return Opb(sect, sub.arg.arg), 0


# --- unit laws (R19) and exterior-tensor laws (R20) --------------------------


def _r19(ctx, sub, direction, b, mode):
    law = _get(b, "law", str, "one of opb_id/oim_id/tensor_unit/struct_pullback")
    if law == "opb_id" or law == "oim_id":
        node = Opb if law == "opb_id" else Oim
        if direction == "fwd":
            if not (isinstance(sub, node) and ctx.is_identity(sub.morphism)):
                raise Fail(f"need {node.__name__} along an identity")
            return sub.arg, 0, ("bwd", {"law": law, "f": sub.morphism})
        f = _get(b, "f", Morphism, "a map")
        if not ctx.is_identity(f):
            raise Fail("cited map is not an identity")
        return node(f, sub), 0, ("fwd", {"law": law})
    if law == "tensor_unit":
        if direction == "fwd":
            if not isinstance(sub, Tensor):
                raise Fail("need a tensor")
            for first, second in _orderings(sub):
                if isinstance(second, Struct):
                    return first, 0, ("bwd", b)
            raise Fail("no unit factor")
        return Tensor(sub, Struct(variety_of(ctx, sub))), 0, ("fwd", b)
    if law == "struct_pullback":
        if direction == "fwd":
            if not (isinstance(sub, Opb) and isinstance(sub.arg, Struct)):
                raise Fail("need a pulled-back structure sheaf")
            return Struct(sub.morphism.source), 0, \
                ("bwd", {"law": law, "f": sub.morphism})
        if not isinstance(sub, Struct):
            raise Fail("need a structure sheaf")
        f = _get(b, "f", Morphism, "a map")
        return Opb(f, Struct(f.target)), 0, ("fwd", {"law": law})
    raise Fail(f"unknown law {law!r}")


@_other_way
def _r20(ctx, sub, direction, b, mode):
    law = _get(b, "law", str, "an exterior-tensor law name")
    if law == "etens_opb_proj2":
        if direction == "fwd":
            if not isinstance(sub, Opb):
                raise Fail("need a pullback")
            atom = _single_atom(ctx, sub.morphism)
            if atom.kind != "projection" or atom.factor != 2:
                raise Fail("map is not a second-factor projection")
            factors = ctx.product_factors.get(atom.source)
            if factors is None:
                raise Fail(f"{atom.source} is not a declared product")
            return ETensor(Struct(factors[0]), sub.arg), 0
        if not (isinstance(sub, ETensor) and isinstance(sub.left, Struct)):
            raise Fail("need an exterior tensor with a structure-sheaf first factor")
        x = sub.left.variety
        y = variety_of(ctx, sub.right)
        prod = ctx.products.get((x, y))
        if prod is None:
            raise Fail(f"no declared product of {x} and {y}")
        q2 = ctx.projections[(prod, 2)]
        return Opb(ctx.composite(q2), sub.right), 0
    if law in ("etens_oim_idmap", "etens_opb_sndmap"):
        node = Oim if law == "etens_oim_idmap" else Opb
        if direction == "fwd":
            if not (isinstance(sub, node) and isinstance(sub.arg, ETensor)):
                raise Fail(f"need {node.__name__} of an exterior tensor")
            atom = _single_atom(ctx, sub.morphism)
            if atom.kind != "pmap" or ctx.part_form(atom.parts[0]):
                raise Fail("map is not id x g")
            g = ctx.composite(atom.parts[1])
            return ETensor(sub.arg.left, node(g, sub.arg.right)), 0
        if not (isinstance(sub, ETensor) and isinstance(sub.right, node)):
            raise Fail(f"need an exterior tensor with {node.__name__} second factor")
        g = _single_atom(ctx, sub.right.morphism)
        va = variety_of(ctx, sub.left)
        src = ctx.products.get((va, g.source))
        dst = ctx.products.get((va, g.target))
        pm = ctx.find_pmap("id", g.name, src or "", dst or "")
        if pm is None:
            raise Fail(f"no declared product map id x {g.name}")
        return node(ctx.composite(pm), ETensor(sub.left, sub.right.arg)), 0
    if law == "etens_oim_fstmap":
        if direction == "fwd":
            if not (isinstance(sub, Oim) and isinstance(sub.arg, ETensor)):
                raise Fail("need a pushforward of an exterior tensor")
            atom = _single_atom(ctx, sub.morphism)
            if atom.kind != "pmap" or ctx.part_form(atom.parts[1]):
                raise Fail("map is not g x id")
            g = ctx.composite(atom.parts[0])
            return ETensor(Oim(g, sub.arg.left), sub.arg.right), 0
        if not (isinstance(sub, ETensor) and isinstance(sub.left, Oim)):
            raise Fail("need an exterior tensor with a pushed first factor")
        g = _single_atom(ctx, sub.left.morphism)
        vb = variety_of(ctx, sub.right)
        src = ctx.products.get((g.source, vb))
        dst = ctx.products.get((g.target, vb))
        pm = ctx.find_pmap(g.name, "id", src or "", dst or "")
        if pm is None:
            raise Fail(f"no declared product map {g.name} x id")
        return Oim(ctx.composite(pm), ETensor(sub.left.arg, sub.right)), 0
    if law == "etens_opb_diag":
        if direction == "fwd":
            if not (isinstance(sub, Opb) and isinstance(sub.arg, ETensor)):
                raise Fail("need a pullback of an exterior tensor")
            atom = _single_atom(ctx, sub.morphism)
            if atom.kind != "diagonal":
                raise Fail("map is not a diagonal")
            return Tensor(sub.arg.left, sub.arg.right), 0
        if not isinstance(sub, Tensor):
            raise Fail("need a tensor")
        va = variety_of(ctx, sub.left)
        d = ctx.diagonals.get(va)
        if d is None:
            raise Fail(f"no diagonal declared on {va}")
        return Opb(ctx.composite(d), ETensor(sub.left, sub.right)), 0
    raise Fail(f"unknown law {law!r}")


# --- lemmas -------------------------------------------------------------------


def _lemma(ctx, sub, direction, name, lemmas):
    pair = lemmas.get(name)
    if pair is None:
        raise Fail(f"no lemma named {name!r}")
    lhs, rhs = pair
    src, dst = (lhs, rhs) if direction == "fwd" else (rhs, lhs)
    s_core, s_k = split_shift(normalize(ctx, src))
    d_core, d_k = split_shift(normalize(ctx, dst))
    if normal_key(ctx, sub) != serialize(s_core):
        raise Fail(f"subterm does not match lemma {name}")
    raw_core, _raw_k = hoist_shifts(dst)
    return raw_core, d_k - s_k, ("bwd" if direction == "fwd" else "fwd", {})


# --- where each rule is offered ----------------------------------------------
# A pick reads its candidates off the written subterm.  An `along` function
# lists every candidate with the declared maps it runs along; `Moves`
# indexes those once per search.


def _preimages(moves, sub):
    """The written support's preimage, then each declared subvariety."""
    return ({"sub": z} for z in (SubPre(sub.arg.morphism, sub.sub),
                                 *moves.names["sub"]))


def _tower(moves, sub):
    """1 up to the depth of the written tower of supports or of push-pull
    pairs."""
    k = 0
    if isinstance(sub, RGamma):
        while isinstance(sub, RGamma):
            k, sub = k + 1, sub.arg
    else:
        while isinstance(sub, Oim) and isinstance(sub.arg, Opb):
            k, sub = k + 1, sub.arg.arg
    return range(1, k + 1)


def _paired_with(moves, sub):
    """The bundle paired with the one the written transform is along: a
    bundle is paired at most once."""
    data = moves.ctx.fourier.get(sub.arg.bundle)
    return (data.dual,) if data else ()


def _along_identity(moves, sub):
    """No bindings, once, where the written map is an identity."""
    return ({},) if moves.ctx.is_identity(sub.morphism) else ()


def _with_unit_factor(moves, sub):
    """No bindings, once, where a factor of the written tensor is a
    structure sheaf."""
    return ({},) if (isinstance(sub.left, Struct)
                     or isinstance(sub.right, Struct)) else ()


def _composable(ctx):
    """Each composable pair of atoms f, g, along g.f; none at all past
    the atom pair cap."""
    maps = [ctx.composite(name) for name in ctx.atoms]
    if len(maps) ** 2 > _ATOM_PAIR_CAP:
        maps = []
    return [((ctx.compose(g, f),), {"f": f, "g": g})
            for f, g in product(maps, maps) if f.target == g.source]


def _squares(legs):
    """Each square, in name order, along the outer and inner maps `legs`
    gives of it: the legs R5 rewrites one way."""
    return lambda ctx: [(tuple(map(ctx.composite, legs(ctx.squares[name]))),
                         name) for name in sorted(ctx.squares)]


def _dual_projections(ctx):
    """Each paired bundle, in name order, along its dual projection."""
    return [((ctx.composite(ctx.fourier[b].proj_dual),), b)
            for b in sorted(ctx.fourier)]


def _dual_sections(ctx):
    """Each paired bundle, in name order, along its dual's zero section."""
    return [((ctx.composite(ctx.bundles[ctx.fourier[b].dual].sect),), b)
            for b in sorted(ctx.fourier)]


def _negated(ctx):
    """Each paired bundle, in name order, with a declared negation, along
    that negation."""
    return [((ctx.composite(ctx.negations[b]),), b)
            for b in sorted(ctx.fourier) if b in ctx.negations]


def _second_projections(ctx):
    """No bindings, along the second projection of each plain product:
    the exterior tensor of a fiber product's factors lives elsewhere."""
    plain = set(ctx.products.values())
    return [((ctx.composite(a.name),), {}) for a in ctx.atoms.values()
            if a.kind == "projection" and a.factor == 2 and a.source in plain]


def _cap_orders(ctx):
    """The two members of each declared intersection, in both orders
    (once if they are one), by their sorted names."""
    for members in sorted(ctx.cap_facts, key=sorted):
        a, b = SubName(min(members)), SubName(max(members))
        for left, right in dict.fromkeys([(a, b), (b, a)]):
            yield (), {"left": left, "right": right}


# name -> (least strata budget, applier, where it is offered: each direction,
# or (direction, law), the search tries it -> its Offer)
RULES = {
    "R1": (0, _r1, {"fwd": Offer(Opb, Opb),
                    "bwd": Offer(Opb, along=_composable)}),
    "R2": (0, _r2, {"fwd": Offer(Oim, Oim),
                    "bwd": Offer(Oim, along=_composable)}),
    "R3": (0, _r3, {"fwd": Offer(Opb, Tensor), "bwd": Offer(Tensor)}),
    "R4": (1, _r4, {"fwd": Offer(Oim, Tensor), "bwd": Offer(Tensor)}),
    "R5": (0, _r5, {
        "fwd": Offer(Oim, Opb, "square",
                     along=_squares(lambda sq: (sq.f_prime, sq.h_prime))),
        "bwd": Offer(Opb, Oim, "square",
                     along=_squares(lambda sq: (sq.h, sq.f)))}),
    "R6": (0, _r6, {"fwd": Offer(RGamma), "bwd": Offer(Tensor)}),
    # merge nested supports, or rebracket them along a declared intersection
    "R7": (0, _r7, {"fwd": Offer(RGamma, RGamma, along=lambda ctx: [
                        ((), {}), *_cap_orders(ctx)]),
                    "bwd": Offer(RGamma, along=_cap_orders)}),
    "R8": (0, _r8, {"fwd": Offer(Oim, RGamma, "sub"),
                    "bwd": Offer(RGamma, Oim, pick=_preimages)}),
    "R10": (0, _r10, {"fwd": Offer(RGamma, None, "layers", _tower),
                      "bwd": Offer(Oim, Opb, "layers", _tower)}),
    "R11": (0, _r11, {"fwd": Offer(Opb, Exp)}),
    "R12": (0, _r12, {"fwd": Offer(Fourier, None, "bundle",
                                   lambda m, s: (s.bundle,)),
                      "bwd": Offer(Oim, Tensor, "bundle",
                                   along=_dual_projections)}),
    "R13": (0, _r13, {"fwd": Offer(Fourier, Fourier, "bundle",
                                   lambda m, s: (s.arg.bundle,)),
                      "bwd": Offer(Opb, None, "bundle", along=_negated)}),
    "R14": (1, _r14, {"fwd": Offer(Fourier, Oim), "bwd": Offer(Opb, Fourier)}),
    "R15": (1, _r15, {"fwd": Offer(Oim, Fourier), "bwd": Offer(Fourier, Opb)}),
    "R16": (0, _r16, {"fwd": Offer(Oim, None, "bundle",
                                   along=_dual_sections),
                      "bwd": Offer(Fourier, Opb, "bundle",
                                   lambda m, s: (s.bundle,))}),
    "R17": (0, _r17, {"fwd": Offer(Opb, None, "bundle",
                                   along=_dual_sections),
                      "bwd": Offer(Oim, Fourier, "bundle", _paired_with)}),
    "R18": (0, _r18, {"fwd": Offer(RGamma), "bwd": Offer(RGamma, None, "sub")}),
    "R19": (0, _r19, {
        ("fwd", "opb_id"): Offer(Opb, pick=_along_identity),
        ("fwd", "oim_id"): Offer(Oim, pick=_along_identity),
        ("fwd", "struct_pullback"): Offer(Opb, Struct),
        ("fwd", "tensor_unit"): Offer(Tensor, pick=_with_unit_factor),
        ("bwd", "struct_pullback"): Offer(Struct, None, "f", lambda m, s: [
            m.ctx.composite(a.name) for a in m.ctx.atoms.values()
            if a.source == s.variety]),
    }),
    "R20": (0, _r20, {
        ("fwd", "etens_opb_sndmap"): Offer(Opb, ETensor),
        ("fwd", "etens_opb_diag"): Offer(Opb, ETensor),
        ("fwd", "etens_opb_proj2"): Offer(Opb, along=_second_projections),
        ("fwd", "etens_oim_idmap"): Offer(Oim, ETensor),
        ("fwd", "etens_oim_fstmap"): Offer(Oim, ETensor),
        ("bwd", "etens_opb_diag"): Offer(Tensor),
        ("bwd", "etens_opb_proj2"): Offer(ETensor),
        ("bwd", "etens_oim_idmap"): Offer(ETensor),
        ("bwd", "etens_opb_sndmap"): Offer(ETensor),
        ("bwd", "etens_oim_fstmap"): Offer(ETensor),
    }),
}


class Moves:
    """One search's move table: the moves the rules offer at each subterm
    it meets, each with the step undoing it.

    Called on a subterm, tries every candidate of each `RULES` row offered
    at its node, in rule order, once through `rewrite` under the search's
    gates, and yields those accepted as ``(rule, direction, bindings, undo
    direction, undo bindings, replacement, delta)``; a move and its undo
    are always the same rule.  `rows` keeps them per serialized subterm,
    each with the replacement's serialization, and `undoes` decides once
    per row whether its undo is exact.  Built once per search, so each
    offer's `along` function is indexed once, by the normal forms of its
    maps, and looked up at the written ones: the table holds nothing
    that knows a rule.  Rules that the strata budget or the exclusions
    refuse are left out."""

    def __init__(self, ctx, mode="strict-smooth", allowed_strata=1,
                 excluded=frozenset()):
        self.ctx = ctx
        self.gates = {"mode": mode, "allowed_strata": allowed_strata,
                      "excluded": excluded}
        # node class -> (rule, direction, law, Offer) offered there
        self.at = {}
        # each offered `along` function -> the number of maps it runs
        # along, and its values by the normal forms of those maps
        self.along = {}
        norm = ctx.normalize_morphism
        for name, (stratum, _fn, where) in RULES.items():
            if stratum <= allowed_strata and name not in excluded:
                for way, offer in where.items():
                    direction, law = (way, None) if isinstance(way, str) else way
                    self.at.setdefault(offer.outer, []).append(
                        (name, direction, law, offer))
                    if offer.along and offer.along not in self.along:
                        n, index = 0, {}
                        for maps, value in offer.along(ctx):
                            n, key = len(maps), tuple(map(norm, maps))
                            index.setdefault(key, []).append(value)
                        self.along[offer.along] = n, index
        # the declared names each binding key can take
        self.names = {"bundle": sorted(ctx.fourier),
                      "square": sorted(ctx.squares),
                      "sub": [SubName(n) for n in sorted(ctx.subvarieties)]}
        self._rows = {}
        self._undoes = {}

    def __call__(self, sub):
        norm = self.ctx.normalize_morphism
        for name, direction, law, (_o, inner, key, pick, along) in self.at.get(
                type(sub), ()):
            if inner is not None and not isinstance(sub.arg, inner):
                continue
            if along:
                n, index = self.along[along]
                found = index.get(
                    tuple(norm(x.morphism) for x in (sub, sub.arg)[:n]), ())
            else:
                found = (pick(self, sub) if pick
                         else self.names[key] if key else ({},))
            for v in found:
                b = {key: v} if key else v
                b = {"law": law, **b} if law else dict(b)
                try:
                    new, delta, (ud, ub) = rewrite(
                        self.ctx, sub, name, direction, b, **self.gates)
                except _REFUSALS:
                    continue
                yield name, direction, b, ud, ub, new, delta

    def rows(self, sub, key):
        """The moves at `sub`, serialized as `key` by the search's keyed
        walk, matched on first sight: each row is ``(rule, direction,
        bindings, undo direction, undo bindings, replacement, delta,
        serialized replacement)``.  A subterm where no move applies gets
        the empty tuple."""
        rows = self._rows.get(key)
        if rows is None:
            rows = self._rows[key] = tuple(
                (*row, serialize(row[5])) for row in self(sub))
        return rows

    def undoes(self, key, i):
        """Whether row `i` at `key` is undone exactly: its undo turns the
        replacement back into a subterm serialized as `key`, with the
        opposite delta."""
        verdict = self._undoes.get((key, i))
        if verdict is None:
            rule, _d, _b, ud, ub, new, delta, *_ = self._rows[key][i]
            try:
                back, back_delta, _undo = rewrite(self.ctx, new, rule, ud, ub,
                                                  **self.gates)
            except _REFUSALS:
                verdict = False
            else:
                verdict = back_delta == -delta and serialize(back) == key
            self._undoes[(key, i)] = verdict
        return verdict


def step_stratum(ctx, rule, bindings):
    """The strata budget one step of a rule in RULES needs: the rule's
    least stratum, or R5's need over the cited square."""
    if rule == "R5":
        return _r5_stratum(ctx, bindings)
    return RULES[rule][0]


# what `rewrite` raises when it refuses a step
_REFUSALS = (Fail, GeometryError, TermError)


def rewrite(ctx, sub, rule, direction, bindings=None, *,
            mode="strict-smooth", allowed_strata=1, excluded=frozenset(),
            lemmas=None):
    """Apply one rewrite to a well-formed subterm, in place: (replacement,
    delta, undo), the undo a (direction, bindings) of the same rule.

    Checks the gates (exclusions, the step's strata need), the rule itself
    and that the replacement is well-formed on the subterm's own variety;
    a refusal is the one `Fail`, `GeometryError` or `TermError` raised."""
    if direction not in ("fwd", "bwd"):
        raise Fail(f"bad direction {direction!r}")
    # a copy: an applier may hand its bindings back as its undo's, which
    # must not be the caller's dict
    b = dict(bindings or {})
    if rule.startswith("lemma:"):
        new, delta, undo = _lemma(ctx, sub, direction, rule[len("lemma:"):],
                                  lemmas or {})
    else:
        entry = RULES.get(rule)
        if entry is None:
            raise Fail(f"unknown rule {rule!r}")
        if rule in excluded:
            raise Fail("rule excluded by this certificate")
        need = step_stratum(ctx, rule, b)
        if need > allowed_strata:
            raise Fail(f"stratum-{need} rule, only {allowed_strata} allowed")
        new, delta, undo = entry[1](ctx, sub, direction, b, mode)
    try:
        there = variety_of(ctx, new)
    except TermError as e:
        raise Fail(f"result ill-formed: {e}") from None
    here = variety_of(ctx, sub)
    if there != here:
        raise Fail(f"result lives on {there}, not on {here}")
    return new, delta, undo


def apply_step(ctx, term, rule, direction, path, bindings=None, *,
               mode="strict-smooth", allowed_strata=1,
               excluded=frozenset(), lemmas=None):
    """Apply one rewrite to a well-formed, shift-canonical term (as
    `certificates.check_certificate` establishes); returns (term, delta).
    A path that names no subterm, or a refusal of the rule, is a
    RuleError at `path`."""
    path = tuple(path)
    core, root_k = split_shift(term)
    try:
        new_sub, delta, _undo = rewrite(
            ctx, navigate(core, path), rule, direction, bindings, mode=mode,
            allowed_strata=allowed_strata, excluded=excluded, lemmas=lemmas)
    except _REFUSALS as e:
        raise RuleError(rule, path, str(e)) from None
    return with_shift(replace(core, path, new_sub), root_k + delta), delta
