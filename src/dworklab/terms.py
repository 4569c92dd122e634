"""Terms of the functor calculus and their comparison normal form.

Terms are immutable trees of `records.record` classes: each node is a
`__slots__` class whose fields are its constructor's arguments, equal
only to a node of its own class with equal fields (so `Tensor(a, b)` is
not `ETensor(a, b)`), and spelled by `repr` as a dataclass would spell
it.  No code is generated per class, so importing this module is cheap.

Mid-proof terms are kept shift-canonical: at most one Shift node, at the
root.  Paths address children of the shift-stripped core;
`navigate`/`replace` below work on arbitrary trees and the rewrite
driver enforces the canonical shape.

`normalize` computes the comparison normal form.  It encodes exactly the
canonical isomorphisms two terms may differ by while still counting as equal
goals: maps/functions/subvarieties are replaced by their declared normal
forms, pullback or pushforward along an identity is dropped, the structure
sheaf and exponential modules absorb pullbacks, the tensor unit is dropped,
tensor factors are sorted (it is commutative), and shifts are hoisted to the
root and merged.  Nothing else — in particular nested pullbacks are *not*
composed; that is a proof step, not a normalization.

Every term has one serialization, its key, and `_keyed` is the one place
that spells it: `serialize` reads the key of a whole term off it, and
`keyed_subterms` every subterm's, with its offset in the whole.
`shifted_key` and `core_key` wrap a key in a root shift and unwrap
it again, so the search can splice keys without knowing their text.
"""

from __future__ import annotations

from .errors import GeometryError, TermError
from .geometry import (
    FuncPull,
    GeometryContext,
    Morphism,
    func_key,
    sub_key,
)
from .records import record


@record
class Struct:
    variety: str


@record
class Var:
    name: str
    variety: str


@record
class Exp:
    variety: str
    func: object


@record
class Tensor:
    left: object
    right: object


@record
class ETensor:
    left: object
    right: object


@record
class Opb:
    morphism: Morphism
    arg: object


@record
class Oim:
    morphism: Morphism
    arg: object


@record
class RGamma:
    sub: object
    arg: object


@record
class Fourier:
    bundle: str
    arg: object


@record
class Shift:
    arg: object
    k: int


# --- structure helpers ------------------------------------------------------


def children(t):
    if isinstance(t, (Struct, Var, Exp)):
        return ()
    if isinstance(t, (Tensor, ETensor)):
        return (t.left, t.right)
    if isinstance(t, (Opb, Oim, RGamma, Fourier, Shift)):
        return (t.arg,)
    raise TermError(f"not a term: {t!r}")


def rebuild(t, kids):
    if isinstance(t, (Tensor, ETensor)):
        return type(t)(kids[0], kids[1])
    if isinstance(t, Opb):
        return Opb(t.morphism, kids[0])
    if isinstance(t, Oim):
        return Oim(t.morphism, kids[0])
    if isinstance(t, RGamma):
        return RGamma(t.sub, kids[0])
    if isinstance(t, Fourier):
        return Fourier(t.bundle, kids[0])
    if isinstance(t, Shift):
        return Shift(kids[0], t.k)
    return t


def navigate(t, path):
    for i, idx in enumerate(path):
        kids = children(t)
        if not (0 <= idx < len(kids)):
            raise TermError(
                f"no child {idx} at /{'/'.join(map(str, path[:i]))} "
                f"in {serialize(t)}")
        t = kids[idx]
    return t


def replace(t, path, new):
    if not path:
        return new
    kids = list(children(t))
    idx = path[0]
    if not (0 <= idx < len(kids)):
        raise TermError(f"no child {idx} in {serialize(t)}")
    kids[idx] = replace(kids[idx], path[1:], new)
    return rebuild(t, kids)


def serialize(t) -> str:
    """Canonical string; used for hashing frontiers and sorting factors.
    It is the key `_keyed` spells for t, with no walk entries recorded."""
    return _keyed(t, None, 0, None)


def keyed_subterms(t):
    """(path, subterm, serialization, offset) for every subterm of t, in
    preorder, children left to right.  Each serialization is built once,
    from its children's, by the walk `serialize` reads its key from; the
    offset is where it starts in t's own, which comes first."""
    out = []
    _keyed(t, (), 0, out)
    return out


def _keyed(t, path, start, out):
    """t's serialization, spelled here and nowhere else.  With a list
    `out`, also appends the `keyed_subterms` entries of t, at `path` and
    offset `start`, to it; with None, records nothing and builds no
    path."""
    # the text before the children, the one child (None for a leaf and
    # for the two of a tensor) and the text after them ("" for a leaf);
    # tested by identity, leaves first, since `serialize` runs through here
    cls = type(t)
    kid, tail = None, ""
    if cls is Struct:
        head = f"O[{t.variety}]"
    elif cls is Var:
        head = f"{t.name}@{t.variety}"
    elif cls is Exp:
        head = f"Exp[{t.variety}]({func_key(t.func)})"
    elif cls is Opb or cls is Oim:
        m = t.morphism
        label = ".".join(m.atoms) if m.atoms else f"id@{m.source}"
        head, kid, tail = f"{cls.__name__}[{label}](", t.arg, ")"
    elif cls is Tensor or cls is ETensor:
        head, tail = f"{cls.__name__}(", ")"
    elif cls is Fourier:
        head, kid, tail = f"Fourier[{t.bundle}](", t.arg, ")"
    elif cls is RGamma:
        head, kid, tail = f"RGamma[{sub_key(t.sub)}](", t.arg, ")"
    elif cls is Shift:
        head, kid, tail = "(", t.arg, f")[{t.k}]"
    else:
        raise TermError(f"not a term: {t!r}")
    keep = out is not None
    if keep:
        at = len(out)
        out.append(None)
    key = head
    inner = keep and start + len(head)
    if kid is not None:
        key = f"{head}{_keyed(kid, keep and path + (0,), inner, out)}{tail}"
    elif tail:
        left = _keyed(t.left, keep and path + (0,), inner, out)
        right = _keyed(t.right, keep and path + (1,),
                       inner + len(left) + 1, out)
        key = f"{head}{left},{right}{tail}"
    if keep:
        out[at] = (path, t, key, start)
    return key


def shifted_key(key, k):
    """The serialization of a term serialized as `key`, shifted by k, as
    `_keyed` spells a root shift; `key` itself when k is 0."""
    return f"({key})[{k}]" if k else key


def core_key(key):
    """The serialization `key` with any root shift ``(core)[k]``
    unwrapped: the core's, as `shifted_key` wraps it."""
    return key[1:key.rindex(")[")] if key.startswith("(") else key


# --- well-formedness --------------------------------------------------------


def variety_of(ctx: GeometryContext, t, path=()) -> str:
    """Variety the term lives on; raises TermError naming the bad path."""

    def bad(msg):
        return TermError(f"at /{'/'.join(map(str, path))}: {msg}")

    if isinstance(t, Struct):
        if t.variety not in ctx.varieties:
            raise bad(f"unknown variety {t.variety!r}")
        return t.variety
    if isinstance(t, Var):
        if t.variety not in ctx.varieties:
            raise bad(f"unknown variety {t.variety!r}")
        declared = ctx.objects.get(t.name)
        if declared is None:
            raise bad(f"undeclared object {t.name!r}")
        if declared != t.variety:
            raise bad(f"object {t.name!r} lives on {declared}, not {t.variety}")
        return t.variety
    if isinstance(t, Exp):
        try:
            fv = ctx.func_variety(t.func)
        except GeometryError as e:
            raise bad(str(e)) from None
        if fv != t.variety:
            raise bad(f"twist lives on {fv}, term claims {t.variety}")
        return t.variety
    if isinstance(t, Tensor):
        a = variety_of(ctx, t.left, path + (0,))
        b = variety_of(ctx, t.right, path + (1,))
        if a != b:
            raise bad(f"tensor factors on different varieties: {a} vs {b}")
        return a
    if isinstance(t, ETensor):
        a = variety_of(ctx, t.left, path + (0,))
        b = variety_of(ctx, t.right, path + (1,))
        prod = ctx.products.get((a, b))
        if prod is None:
            raise bad(f"no declared product of {a} and {b}")
        return prod
    if isinstance(t, Opb):
        inner = variety_of(ctx, t.arg, path + (0,))
        if t.morphism.target != inner:
            raise bad(
                f"pullback along a map into {t.morphism.target} of a term "
                f"on {inner}")
        return t.morphism.source
    if isinstance(t, Oim):
        inner = variety_of(ctx, t.arg, path + (0,))
        if t.morphism.source != inner:
            raise bad(
                f"pushforward along a map from {t.morphism.source} of a "
                f"term on {inner}")
        return t.morphism.target
    if isinstance(t, RGamma):
        inner = variety_of(ctx, t.arg, path + (0,))
        try:
            amb = ctx.sub_ambient(t.sub)
        except GeometryError as e:
            raise bad(str(e)) from None
        if amb != inner:
            raise bad(f"support lives in {amb}, term on {inner}")
        return inner
    if isinstance(t, Fourier):
        inner = variety_of(ctx, t.arg, path + (0,))
        data = ctx.fourier.get(t.bundle)
        if data is None:
            raise bad(f"bundle {t.bundle!r} has no declared pairing")
        if inner != t.bundle:
            raise bad(f"transform of a term on {inner}, expected {t.bundle}")
        return data.dual
    if isinstance(t, Shift):
        if not isinstance(t.k, int):
            raise bad(f"shift by non-integer {t.k!r}")
        return variety_of(ctx, t.arg, path + (0,))
    raise bad(f"not a term: {t!r}")


def equation_variety(ctx: GeometryContext, lhs, rhs) -> str:
    """The one variety both sides of an equation live on; raises TermError
    when a side is ill-formed or the two differ."""
    a, b = variety_of(ctx, lhs), variety_of(ctx, rhs)
    if a != b:
        raise TermError(f"sides live on {a} and {b}")
    return a


# --- shift canonicalization and normal form ---------------------------------


def split_shift(t):
    """(core, k) with all shifts hoisted out of the root spine."""
    k = 0
    while isinstance(t, Shift):
        k += t.k
        t = t.arg
    return t, k


def hoist_shifts(t):
    """(core-without-any-Shift, total k): shifts commute with everything."""
    if isinstance(t, Shift):
        core, k = hoist_shifts(t.arg)
        return core, k + t.k
    kids = children(t)
    if not kids:
        return t, 0
    total = 0
    new = []
    for c in kids:
        cc, k = hoist_shifts(c)
        new.append(cc)
        total += k
    return rebuild(t, new), total


def with_shift(t, k):
    return Shift(t, k) if k else t


def canonical_shift(t):
    core, k = hoist_shifts(t)
    return with_shift(core, k)


def normalize(ctx: GeometryContext, t):
    core, k = hoist_shifts(t)
    return with_shift(_norm(ctx, core), k)


def _norm(ctx, t):
    if isinstance(t, (Struct, Var)):
        return t
    if isinstance(t, Exp):
        return Exp(t.variety, ctx.normalize_func(t.func))
    if isinstance(t, Tensor):
        a = _norm(ctx, t.left)
        b = _norm(ctx, t.right)
        if isinstance(b, Struct):
            return a
        if isinstance(a, Struct):
            return b
        if serialize(b) < serialize(a):
            a, b = b, a
        return Tensor(a, b)
    if isinstance(t, ETensor):
        return ETensor(_norm(ctx, t.left), _norm(ctx, t.right))
    if isinstance(t, Opb):
        m = ctx.normalize_morphism(t.morphism)
        a = _norm(ctx, t.arg)
        if ctx.is_identity(m):
            return a
        if isinstance(a, Struct):
            return Struct(m.source)
        if isinstance(a, Exp):
            return Exp(m.source, ctx.normalize_func(FuncPull(a.func, m)))
        return Opb(m, a)
    if isinstance(t, Oim):
        m = ctx.normalize_morphism(t.morphism)
        a = _norm(ctx, t.arg)
        if ctx.is_identity(m):
            return a
        return Oim(m, a)
    if isinstance(t, RGamma):
        return RGamma(ctx.normalize_sub(t.sub), _norm(ctx, t.arg))
    if isinstance(t, Fourier):
        return Fourier(t.bundle, _norm(ctx, t.arg))
    raise TermError(f"not a shift-free term: {t!r}")


def normal_key(ctx, t) -> str:
    """The serialization of t's normal form: two terms are equal in
    normal form exactly when their keys are."""
    return serialize(normalize(ctx, t))


def equal_normal(ctx, a, b) -> bool:
    return normal_key(ctx, a) == normal_key(ctx, b)
