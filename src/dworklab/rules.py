"""The rewrite rules and the single-step driver.

Raw terms between steps stay shift-canonical (one Shift at most, at the
root); rule patterns are shift-free and paths address the shift-stripped
core.  Each applier returns a shift-free replacement plus an integer delta.
`rewrite` applies one rule at a subterm: it checks the gates (strata
budget, exclusions) and turns a refusal into a `RuleError`.  `apply_step`
is `rewrite` on a whole term: it navigates to the path, splices the
replacement in, folds the delta into the root shift (the caller ledgers
it) and checks that the result is well-formed.

Matching tolerances, applied deterministically:

* the root shift is transparent (driver);
* compose rules run backward may see any subterm as pulled back / pushed
  forward along an identity, provided the cited factors compose to one —
  but when the subterm already has a map in that slot, the as-written
  reading is tried first;
* tensor patterns try the written factor order, then the swapped one;
* closed subpatterns (transform kernels, lemma sides) compare by normal
  form, with any shift difference transferred to the ledger;
* metavariables bind raw subterms exactly.

Next to each applier sits its enumerator: the moves the rule offers a
search at one subterm, each with the step undoing it, read off the same
subterm.  `rewrite` may still refuse a move, and an undo may land on a
raw form other than the original; the search checks both.
"""

from __future__ import annotations

from .errors import GeometryError, RuleError, TermError
from .geometry import (
    EMBEDDING_KINDS,
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
    navigate,
    normalize,
    replace,
    serialize,
    split_shift,
    variety_of,
    with_shift,
)


# above this many atom pairs, compose splits are not offered to the search
_ATOM_PAIR_CAP = 2500


class Fail(Exception):
    def __init__(self, reason):
        self.reason = reason
        super().__init__(reason)


def _get(b, key, cls, what):
    v = b.get(key)
    if v is None:
        raise Fail(f"missing binding {key!r} ({what})")
    if cls is not None and not isinstance(v, cls):
        raise Fail(f"binding {key!r} should be {what}, got {type(v).__name__}")
    return v


def _orderings(t):
    """Tensor factors as written, then swapped."""
    return ((t.left, t.right, False), (t.right, t.left, True))


def _both_ways(direction, bindings):
    """A move whose undo is the same rule the other way, same bindings
    (one dict: steps never change their bindings)."""
    undo = "bwd" if direction == "fwd" else "fwd"
    return (direction, bindings), (undo, bindings)


def _by_shape(fwd, bwd, key=None):
    """Enumerator of a rule that runs forward at the (outer, inner) node
    classes `fwd` and backward at `bwd` (inner None: any argument), each
    undone the other way; with a binding `key`, once per declared name."""
    def enumerate_moves(moves, sub):
        for direction, (outer, inner) in (("fwd", fwd), ("bwd", bwd)):
            if isinstance(sub, outer) and (
                    inner is None or isinstance(sub.arg, inner)):
                for name in moves.names[key] if key else (None,):
                    yield _both_ways(direction, {key: name} if key else {})
    return enumerate_moves


def _single_atom(ctx, m):
    n = ctx.normalize_morphism(m)
    if len(n.atoms) != 1:
        raise Fail(f"map {'.'.join(m.atoms) or 'id'} is not a declared atom")
    return ctx.atoms[n.atoms[0]]


# --- compose -----------------------------------------------------------------


def _compose_apply(ctx, sub, direction, b, node):
    if direction == "fwd" and not b:
        if not (isinstance(sub, node) and isinstance(sub.arg, node)):
            raise Fail(f"need nested {node.__name__} to merge")
        outer, inner = sub.morphism, sub.arg.morphism
        if node is Opb:
            merged = ctx.compose(inner, outer)  # (g.f)-dagger = f-dagger g-dagger
        else:
            merged = ctx.compose(outer, inner)
        return node(merged, sub.arg.arg), 0

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
    else:
        v = variety_of(ctx, sub)
        if not (gf.source == v and ctx.is_identity(gf)):
            raise Fail("cited factors are not an identity on this term")
    if node is Opb:
        return Opb(f, Opb(g, sub if direction == "bwd" else sub.arg.arg)), 0
    return Oim(g, Oim(f, sub if direction == "bwd" else sub.arg.arg)), 0


def _r1(ctx, sub, direction, b, mode, allowed):
    return _compose_apply(ctx, sub, direction, b, Opb)


def _r2(ctx, sub, direction, b, mode, allowed):
    return _compose_apply(ctx, sub, direction, b, Oim)


def _compose_moves(moves, sub, node):
    """Merge a nested pair (undo: split at the written maps), or split the
    map into declared atoms (undo: merge)."""
    if not isinstance(sub, node):
        return
    if isinstance(sub.arg, node):
        outer, inner = sub.morphism, sub.arg.morphism
        f, g = (outer, inner) if node is Opb else (inner, outer)
        yield ("fwd", {}), ("bwd", {"f": f, "g": g})
    if moves.pairs:
        m = moves.ctx.normalize_morphism(sub.morphism)
        for f, g, gf in moves.pairs:
            if gf == m:
                yield ("bwd", {"f": f, "g": g}), ("fwd", {})


def _r1_moves(moves, sub):
    return _compose_moves(moves, sub, Opb)


def _r2_moves(moves, sub):
    return _compose_moves(moves, sub, Oim)


# --- tensor interchange ------------------------------------------------------


def _r3(ctx, sub, direction, b, mode, allowed):
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


_r3_moves = _by_shape((Opb, Tensor), (Tensor, None))


def _r4(ctx, sub, direction, b, mode, allowed):
    if direction == "fwd":
        if not (isinstance(sub, Oim) and isinstance(sub.arg, Tensor)):
            raise Fail("need a pushforward of a tensor")
        p = sub.morphism
        for first, second, _sw in _orderings(sub.arg):
            if isinstance(first, Opb) and ctx.morphisms_equal(first.morphism, p):
                return Tensor(first.arg, Oim(p, second)), 0
        raise Fail("no factor is pulled back along the pushforward map")
    if not isinstance(sub, Tensor):
        raise Fail("need a tensor")
    for first, second, _sw in _orderings(sub):
        if isinstance(second, Oim):
            p = second.morphism
            return Oim(p, Tensor(Opb(p, first), second.arg)), 0
    raise Fail("no pushed-forward factor")


_r4_moves = _by_shape((Oim, Tensor), (Tensor, None))


# --- base change -------------------------------------------------------------


def _r5(ctx, sub, direction, b, mode, allowed):
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
    if allowed < 1 and not ctx.is_embedding(ctx.composite(sq.h)):
        raise Fail("needs stratum 1 unless the transverse leg is an embedding")
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


_r5_moves = _by_shape((Oim, Opb), (Opb, Oim), "square")


# --- supports ----------------------------------------------------------------


def _r6(ctx, sub, direction, b, mode, allowed):
    if direction == "fwd":
        if not isinstance(sub, RGamma):
            raise Fail("need a supported term")
        amb = ctx.sub_ambient(sub.sub)
        return Tensor(sub.arg, RGamma(sub.sub, Struct(amb))), 0
    if not isinstance(sub, Tensor):
        raise Fail("need a tensor")
    for first, second, _sw in _orderings(sub):
        if isinstance(second, RGamma) and isinstance(second.arg, Struct):
            return RGamma(second.sub, first), 0
    raise Fail("no supported structure-sheaf factor")


_r6_moves = _by_shape((RGamma, None), (Tensor, None))


def _r7(ctx, sub, direction, b, mode, allowed):
    if direction == "fwd" and not b:
        if not (isinstance(sub, RGamma) and isinstance(sub.arg, RGamma)):
            raise Fail("need nested supports to merge")
        return RGamma(SubCap((sub.sub, sub.arg.sub)), sub.arg.arg), 0
    left = _get(b, "left", None, "a subvariety")
    right = _get(b, "right", None, "a subvariety")
    if direction == "fwd":
        # rebracket nested supports without changing the intersection
        if not (isinstance(sub, RGamma) and isinstance(sub.arg, RGamma)):
            raise Fail("need nested supports to rebracket")
        old = SubCap((sub.sub, sub.arg.sub))
        core = sub.arg.arg
    else:
        if not isinstance(sub, RGamma):
            raise Fail("need a supported term")
        old = sub.sub
        core = sub.arg
    if not ctx.subs_equal(SubCap((left, right)), old):
        raise Fail("cited supports do not intersect to the written one")
    return RGamma(left, RGamma(right, core)), 0


def _r7_moves(moves, sub):
    """Merge nested supports, rebracket them, or split one along a declared
    intersection."""
    if not isinstance(sub, RGamma):
        return
    nested = isinstance(sub.arg, RGamma)
    if nested:
        yield ("fwd", {}), ("bwd", {"left": sub.sub, "right": sub.arg.sub})
    for left, right in moves.cap_orders:
        if nested:
            yield (("fwd", {"left": left, "right": right}),
                   ("fwd", {"left": sub.sub, "right": sub.arg.sub}))
        yield ("bwd", {"left": left, "right": right}), ("fwd", {})


def _r8(ctx, sub, direction, b, mode, allowed):
    target = _get(b, "sub", None, "a subvariety")
    if direction == "fwd":
        if not (isinstance(sub, Oim) and isinstance(sub.arg, RGamma)):
            raise Fail("need a pushforward of a supported term")
        m = sub.morphism
        if not ctx.subs_equal(sub.arg.sub, SubPre(m, target)):
            raise Fail("written support is not the preimage of the cited one")
        return RGamma(target, Oim(m, sub.arg.arg)), 0
    if not (isinstance(sub, RGamma) and isinstance(sub.arg, Oim)):
        raise Fail("need a supported pushforward")
    m = sub.arg.morphism
    if not ctx.subs_equal(target, SubPre(m, sub.sub)):
        raise Fail("cited support is not the preimage of the written one")
    return Oim(m, RGamma(target, sub.arg.arg)), 0


def _r8_moves(moves, sub):
    if isinstance(sub, Oim) and isinstance(sub.arg, RGamma):
        for z in moves.names["sub"]:
            yield ("fwd", {"sub": z}), ("bwd", {"sub": sub.arg.sub})
    elif isinstance(sub, RGamma) and isinstance(sub.arg, Oim):
        for z in (SubPre(sub.arg.morphism, sub.sub), *moves.names["sub"]):
            yield ("bwd", {"sub": z}), ("fwd", {"sub": sub.sub})


def _r10_center(ctx, mode, m):
    n = ctx.normalize_morphism(m)
    if len(n.atoms) != 1:
        raise Fail("embedding must normalize to a declared atom")
    j = n.atoms[0]
    atom = ctx.atoms[j]
    if atom.kind not in EMBEDDING_KINDS or atom.kind == "open":
        raise Fail(f"{j} is not a closed embedding")
    name = ctx.images.get(j)
    if name is None:
        raise Fail(f"{j} has no declared image")
    sv = ctx.subvarieties[name]
    if mode == "strict-smooth" and not sv.smooth:
        raise Fail(f"center {name} is not smooth")
    return name, sv.codim


def _r10(ctx, sub, direction, b, mode, allowed):
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


def _r10_moves(moves, sub):
    """Unfold the top k of the nested supports, or fold the top k push-pull
    pairs, for every k the tower allows."""
    layers, cur = 0, sub
    if isinstance(sub, RGamma):
        direction = "fwd"
        while isinstance(cur, RGamma):
            layers, cur = layers + 1, cur.arg
    else:
        direction = "bwd"
        while isinstance(cur, Oim) and isinstance(cur.arg, Opb):
            layers, cur = layers + 1, cur.arg.arg
    for k in range(1, layers + 1):
        yield _both_ways(direction, {"layers": k})


def _r18(ctx, sub, direction, b, mode, allowed):
    if not isinstance(sub, RGamma):
        raise Fail("need a supported term")
    if direction == "fwd":
        return RGamma(SubRed(sub.sub), sub.arg), 0
    z = _get(b, "sub", None, "a subvariety")
    if not ctx.subs_equal(SubRed(z), sub.sub):
        raise Fail("cited subvariety does not reduce to the written support")
    return RGamma(z, sub.arg), 0


def _r18_moves(moves, sub):
    if isinstance(sub, RGamma):
        yield ("fwd", {}), ("bwd", {"sub": sub.sub})
        for z in moves.names["sub"]:
            yield ("bwd", {"sub": z}), ("fwd", {})


# --- exponentials and transforms ---------------------------------------------


def _r11(ctx, sub, direction, b, mode, allowed):
    if direction == "fwd":
        if not (isinstance(sub, Opb) and isinstance(sub.arg, Exp)):
            raise Fail("need a pullback of an exponential")
        m = sub.morphism
        return Exp(m.source, FuncPull(sub.arg.func, m)), 0
    if not isinstance(sub, Exp):
        raise Fail("need an exponential")
    f = _get(b, "f", Morphism, "a map")
    psi = _get(b, "psi", None, "a function")
    if f.source != sub.variety:
        raise Fail("cited map does not start at the exponential's variety")
    if not ctx.funcs_equal(sub.func, FuncPull(psi, f)):
        raise Fail("twist is not the pullback of the cited function")
    return Opb(f, Exp(f.target, psi)), 0


def _r11_moves(moves, sub):
    if isinstance(sub, Opb) and isinstance(sub.arg, Exp):
        yield ("fwd", {}), ("bwd", {"f": sub.morphism, "psi": sub.arg.func})


def _r12(ctx, sub, direction, b, mode, allowed):
    bundle = _get(b, "bundle", str, "a bundle name")
    data = ctx.fourier.get(bundle)
    if data is None:
        raise Fail(f"bundle {bundle!r} has no declared pairing")
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
    want = serialize(normalize(ctx, kernel))
    for first, second, _sw in _orderings(sub.arg):
        if (isinstance(first, Opb)
                and ctx.morphisms_equal(first.morphism, p_self)
                and serialize(normalize(ctx, second)) == want):
            return Fourier(bundle, first.arg), 0
    raise Fail("factors do not match the transform kernel shape")


def _r12_moves(moves, sub):
    if isinstance(sub, Fourier):
        yield _both_ways("fwd", {"bundle": sub.bundle})
    elif isinstance(sub, Oim) and isinstance(sub.arg, Tensor):
        for bundle in moves.names["bundle"]:
            yield _both_ways("bwd", {"bundle": bundle})


def _r13(ctx, sub, direction, b, mode, allowed):
    bundle = _get(b, "bundle", str, "a bundle name")
    data = ctx.fourier.get(bundle)
    if data is None:
        raise Fail(f"bundle {bundle!r} has no declared pairing")
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


def _r13_moves(moves, sub):
    if isinstance(sub, Fourier) and isinstance(sub.arg, Fourier):
        yield _both_ways("fwd", {"bundle": sub.arg.bundle})
    elif isinstance(sub, Opb):
        for bundle in moves.negated:
            yield _both_ways("bwd", {"bundle": bundle})


def _transposable(ctx, m):
    try:
        return ctx.transpose_morphism(m)
    except GeometryError as e:
        raise Fail(str(e)) from None


def _r14(ctx, sub, direction, b, mode, allowed):
    if direction == "fwd":
        if not (isinstance(sub, Fourier) and isinstance(sub.arg, Oim)):
            raise Fail("need a transform of a pushforward")
        u = sub.arg.morphism
        if sub.bundle != u.target:
            raise Fail("pushforward does not land in the transformed bundle")
        want = b.get("map")
        if want is not None and not ctx.morphisms_equal(want, u):
            raise Fail("cited map differs from the written one")
        if u.source not in ctx.fourier:
            raise Fail(f"bundle {u.source!r} has no declared pairing")
        return Opb(_transposable(ctx, u), Fourier(u.source, sub.arg.arg)), 0
    if not (isinstance(sub, Opb) and isinstance(sub.arg, Fourier)):
        raise Fail("need a pullback of a transform")
    u = _transposable(ctx, sub.morphism)
    if sub.arg.bundle != u.source:
        raise Fail("transform bundle is not the source of the transposed map")
    if u.target not in ctx.fourier:
        raise Fail(f"bundle {u.target!r} has no declared pairing")
    return Fourier(u.target, Oim(u, sub.arg.arg)), 0


_r14_moves = _by_shape((Fourier, Oim), (Opb, Fourier))


def _r15(ctx, sub, direction, b, mode, allowed):
    if direction == "fwd":
        if not (isinstance(sub, Oim) and isinstance(sub.arg, Fourier)):
            raise Fail("need a pushforward of a transform")
        u = _transposable(ctx, sub.morphism)
        if sub.arg.bundle != u.target:
            raise Fail("transform bundle is not the target of the transposed map")
        if u.source not in ctx.fourier:
            raise Fail(f"bundle {u.source!r} has no declared pairing")
        return Fourier(u.source, Opb(u, sub.arg.arg)), 0
    if not (isinstance(sub, Fourier) and isinstance(sub.arg, Opb)):
        raise Fail("need a transform of a pullback")
    u = sub.arg.morphism
    if sub.bundle != u.source:
        raise Fail("pullback does not start at the transformed bundle")
    if u.target not in ctx.fourier:
        raise Fail(f"bundle {u.target!r} has no declared pairing")
    return Oim(_transposable(ctx, u), Fourier(u.target, sub.arg.arg)), 0


_r15_moves = _by_shape((Oim, Fourier), (Fourier, Opb))


def _r16(ctx, sub, direction, b, mode, allowed):
    bundle = _get(b, "bundle", str, "a bundle name")
    data = ctx.fourier.get(bundle)
    if data is None:
        raise Fail(f"bundle {bundle!r} has no declared pairing")
    sect = ctx.composite(ctx.bundles[data.dual].sect)
    proj = ctx.composite(ctx.bundles[bundle].proj)
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


def _r16_moves(moves, sub):
    if isinstance(sub, Oim):
        for bundle in moves.dual_section_of(sub.morphism):
            yield _both_ways("fwd", {"bundle": bundle})
    elif isinstance(sub, Fourier) and isinstance(sub.arg, Opb):
        yield _both_ways("bwd", {"bundle": sub.bundle})


def _r17(ctx, sub, direction, b, mode, allowed):
    bundle = _get(b, "bundle", str, "a bundle name")
    data = ctx.fourier.get(bundle)
    if data is None:
        raise Fail(f"bundle {bundle!r} has no declared pairing")
    sect = ctx.composite(ctx.bundles[data.dual].sect)
    proj = ctx.composite(ctx.bundles[bundle].proj)
    if direction == "fwd":
        if not isinstance(sub, Opb):
            raise Fail("need a pullback")
        if not ctx.morphisms_equal(sub.morphism, sect):
            raise Fail("map is not the dual zero section")
        return Oim(proj, Fourier(data.dual, sub.arg)), 0
    if not (isinstance(sub, Oim) and isinstance(sub.arg, Fourier)
            and sub.arg.bundle == data.dual):
        raise Fail(f"need a pushforward of a transform along {data.dual}")
    if not ctx.morphisms_equal(sub.morphism, proj):
        raise Fail("pushforward is not along the bundle projection")
    return Opb(sect, sub.arg.arg), 0


def _r17_moves(moves, sub):
    if isinstance(sub, Opb):
        for bundle in moves.dual_section_of(sub.morphism):
            yield _both_ways("fwd", {"bundle": bundle})
    elif isinstance(sub, Oim) and isinstance(sub.arg, Fourier):
        for bundle in moves.paired_with.get(sub.arg.bundle, ()):
            yield _both_ways("bwd", {"bundle": bundle})


# --- unit laws (R19) and exterior-tensor laws (R20) --------------------------


def _r19(ctx, sub, direction, b, mode, allowed):
    law = _get(b, "law", str, "one of opb_id/oim_id/tensor_unit/struct_pullback")
    if law == "opb_id" or law == "oim_id":
        node = Opb if law == "opb_id" else Oim
        if direction == "fwd":
            if not (isinstance(sub, node) and ctx.is_identity(sub.morphism)):
                raise Fail(f"need {node.__name__} along an identity")
            return sub.arg, 0
        f = _get(b, "f", Morphism, "a map")
        if not ctx.is_identity(f):
            raise Fail("cited map is not an identity")
        if f.source != variety_of(ctx, sub):
            raise Fail("identity is on the wrong variety")
        return node(f, sub), 0
    if law == "tensor_unit":
        if direction == "fwd":
            if not isinstance(sub, Tensor):
                raise Fail("need a tensor")
            for first, second, _sw in _orderings(sub):
                if isinstance(second, Struct):
                    return first, 0
            raise Fail("no unit factor")
        return Tensor(sub, Struct(variety_of(ctx, sub))), 0
    if law == "struct_pullback":
        if direction == "fwd":
            if not (isinstance(sub, Opb) and isinstance(sub.arg, Struct)):
                raise Fail("need a pulled-back structure sheaf")
            return Struct(sub.morphism.source), 0
        if not isinstance(sub, Struct):
            raise Fail("need a structure sheaf")
        f = _get(b, "f", Morphism, "a map")
        if f.source != sub.variety:
            raise Fail("cited map does not start here")
        return Opb(f, Struct(f.target)), 0
    raise Fail(f"unknown law {law!r}")


def _r19_moves(moves, sub):
    """Drop an identity map, a unit factor or a pulled-back structure sheaf;
    pull a structure sheaf back along each declared map out of it."""
    if isinstance(sub, (Opb, Oim)):
        if moves.ctx.is_identity(sub.morphism):
            law = "opb_id" if isinstance(sub, Opb) else "oim_id"
            yield ("fwd", {"law": law}), ("bwd", {"law": law, "f": sub.morphism})
        if isinstance(sub, Opb) and isinstance(sub.arg, Struct):
            yield (("fwd", {"law": "struct_pullback"}),
                   ("bwd", {"law": "struct_pullback", "f": sub.morphism}))
    elif isinstance(sub, Tensor):
        if isinstance(sub.left, Struct) or isinstance(sub.right, Struct):
            yield _both_ways("fwd", {"law": "tensor_unit"})
    elif isinstance(sub, Struct):
        for atom in moves.ctx.atoms.values():
            if atom.source == sub.variety:
                f = moves.ctx.composite(atom.name)
                yield (("bwd", {"law": "struct_pullback", "f": f}),
                       ("fwd", {"law": "struct_pullback"}))


def _r20(ctx, sub, direction, b, mode, allowed):
    law = _get(b, "law", str, "an exterior-tensor law name")
    if law == "etens_opb_proj2":
        if direction == "fwd":
            if not isinstance(sub, Opb):
                raise Fail("need a pullback")
            atom = _single_atom(ctx, sub.morphism)
            if atom.kind != "projection" or atom.factor != 2:
                raise Fail("map is not a second-factor projection")
            x, y = ctx.product_factors[atom.source]
            return ETensor(Struct(x), sub.arg), 0
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
            if atom.kind != "pmap" or atom.parts[0] != "id":
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
            if atom.kind != "pmap" or atom.parts[1] != "id":
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


def _r20_moves(moves, sub):
    if isinstance(sub, Opb):
        direction = "fwd"
        laws = ("etens_opb_proj2",)
        if isinstance(sub.arg, ETensor):
            laws = ("etens_opb_sndmap", "etens_opb_diag") + laws
    elif isinstance(sub, Oim) and isinstance(sub.arg, ETensor):
        direction, laws = "fwd", ("etens_oim_idmap", "etens_oim_fstmap")
    elif isinstance(sub, Tensor):
        direction, laws = "bwd", ("etens_opb_diag",)
    elif isinstance(sub, ETensor):
        direction, laws = "bwd", ("etens_opb_proj2", "etens_oim_idmap",
                                  "etens_opb_sndmap", "etens_oim_fstmap")
    else:
        return
    for law in laws:
        yield _both_ways(direction, {"law": law})


# --- lemmas -------------------------------------------------------------------


def _lemma(ctx, sub, direction, name, lemmas):
    pair = lemmas.get(name)
    if pair is None:
        raise Fail(f"no lemma named {name!r}")
    lhs, rhs = pair
    src, dst = (lhs, rhs) if direction == "fwd" else (rhs, lhs)
    s_core, s_k = split_shift(normalize(ctx, src))
    d_core, d_k = split_shift(normalize(ctx, dst))
    if serialize(normalize(ctx, sub)) != serialize(s_core):
        raise Fail(f"subterm does not match lemma {name}")
    from .terms import hoist_shifts
    raw_core, _raw_k = hoist_shifts(dst)
    return raw_core, d_k - s_k


# --- driver -------------------------------------------------------------------

# name -> (least strata budget, applier, enumerator)
RULES = {
    "R1": (0, _r1, _r1_moves),
    "R2": (0, _r2, _r2_moves),
    "R3": (0, _r3, _r3_moves),
    "R4": (1, _r4, _r4_moves),
    "R5": (0, _r5, _r5_moves),  # stratum checked inside: embeddings are fine at 0
    "R6": (0, _r6, _r6_moves),
    "R7": (0, _r7, _r7_moves),
    "R8": (0, _r8, _r8_moves),
    "R10": (0, _r10, _r10_moves),
    "R11": (0, _r11, _r11_moves),
    "R12": (0, _r12, _r12_moves),
    "R13": (0, _r13, _r13_moves),
    "R14": (1, _r14, _r14_moves),
    "R15": (1, _r15, _r15_moves),
    "R16": (0, _r16, _r16_moves),
    "R17": (0, _r17, _r17_moves),
    "R18": (0, _r18, _r18_moves),
    "R19": (0, _r19, _r19_moves),
    "R20": (0, _r20, _r20_moves),
}


class Moves:
    """The moves the rules offer one search, each with the step undoing it.

    Called on a subterm, yields ``(move, undo)`` pairs of ``(rule,
    direction, bindings)``.  Built once per search, so the declarations the
    enumerators read are gathered once; rules that the strata budget or
    the exclusions refuse are left out."""

    def __init__(self, ctx, allowed_strata=1, excluded=frozenset()):
        self.ctx = ctx
        self.rules = [(name, enum) for name, (stratum, _fn, enum) in RULES.items()
                      if stratum <= allowed_strata and name not in excluded]
        # the declared names each binding key can take
        self.names = {"bundle": sorted(ctx.fourier),
                      "square": sorted(ctx.squares),
                      "sub": [SubName(n) for n in sorted(ctx.subvarieties)]}
        self.negated = [b for b in self.names["bundle"] if b in ctx.negations]
        # R16 and R17 run forward only along a dual's zero section and
        # backward only at a transform along the dual: each bundle by the
        # endpoints and normal form of that section, and by its dual
        self.dual_sections = {}
        self.paired_with = {}
        for b in self.names["bundle"]:
            dual = ctx.fourier[b].dual
            sect = ctx.composite(ctx.bundles[dual].sect)
            self.dual_sections.setdefault((sect.source, sect.target), []) \
                .append((ctx.normalize_morphism(sect).atoms, b))
            self.paired_with.setdefault(dual, []).append(b)
        # both orders of the two members of each declared intersection
        self.cap_orders = []
        for members in sorted(ctx.cap_facts, key=sorted):
            a, b = SubName(min(members)), SubName(max(members))
            self.cap_orders += dict.fromkeys([(a, b), (b, a)])
        # (f, g, normal form of g.f) for every composable pair of atoms
        maps = [ctx.composite(name) for name in ctx.atoms]
        if len(maps) ** 2 > _ATOM_PAIR_CAP:
            maps = []
        self.pairs = [(f, g, ctx.normalize_morphism(ctx.compose(g, f)))
                      for f in maps for g in maps if f.target == g.source]

    def dual_section_of(self, m):
        """The bundles, in name order, whose dual's zero section is `m` (as
        `ctx.morphisms_equal` decides)."""
        found = self.dual_sections.get((m.source, m.target))
        if not found:
            return ()
        atoms = self.ctx.normalize_morphism(m).atoms
        return [b for sect, b in found if sect == atoms]

    def __call__(self, sub):
        for name, enumerate_moves in self.rules:
            for (d, b), (ud, ub) in enumerate_moves(self, sub):
                yield (name, d, b), (name, ud, ub)


def rewrite(ctx, sub, rule, direction, bindings=None, *,
            mode="strict-smooth", allowed_strata=1, excluded=frozenset(),
            lemmas=None):
    """Apply one rewrite to a subterm, in place: (replacement, delta).

    Checks the rule's gates and the rule itself, but not the term around
    `sub`; a refusal is a RuleError at the empty path."""
    if direction not in ("fwd", "bwd"):
        raise RuleError(rule, (), f"bad direction {direction!r}")
    b = dict(bindings or {})
    try:
        if rule.startswith("lemma:"):
            return _lemma(ctx, sub, direction, rule[len("lemma:"):], lemmas or {})
        entry = RULES.get(rule)
        if entry is None:
            raise Fail(f"unknown rule {rule!r}")
        if rule in excluded:
            raise Fail("rule excluded by this certificate")
        stratum, fn, _moves = entry
        if stratum > allowed_strata:
            raise Fail(f"stratum-{stratum} rule, only {allowed_strata} allowed")
        return fn(ctx, sub, direction, b, mode, allowed_strata)
    except Fail as e:
        raise RuleError(rule, (), e.reason) from None
    except GeometryError as e:
        raise RuleError(rule, (), str(e)) from None


def apply_step(ctx, term, rule, direction, path, bindings=None, *,
               mode="strict-smooth", allowed_strata=1,
               excluded=frozenset(), lemmas=None):
    """Apply one rewrite to a shift-canonical term; returns (term, delta)."""
    path = tuple(path)
    core, root_k = split_shift(term)
    try:
        sub = navigate(core, path)
    except TermError as e:
        raise RuleError(rule, path, str(e)) from None
    try:
        new_sub, delta = rewrite(ctx, sub, rule, direction, bindings, mode=mode,
                                 allowed_strata=allowed_strata,
                                 excluded=excluded, lemmas=lemmas)
    except RuleError as e:
        raise RuleError(rule, path, e.reason) from None
    new_term = with_shift(replace(core, path, new_sub), root_k + delta)
    try:
        variety_of(ctx, new_term)
    except TermError as e:
        raise RuleError(rule, path, f"result ill-formed: {e}") from None
    return new_term, delta
