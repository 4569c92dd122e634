"""Declared geometric setup: varieties, maps, bundles, pairings, facts.

A context is a bag of named declarations.  Morphisms are flat tuples of atom
names, outermost first, so ``g . f`` ("apply f, then g") is the tuple
``(g, f)`` and the identity is the empty tuple.  Equality of maps, functions
and subvarieties is always decided through the normal forms computed here;
rewriting of terms elsewhere never mutates raw data based on these facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import GeometryError

# atom kinds that are (locally) closed embeddings
EMBEDDING_KINDS = {"closed", "open", "section", "zero-section", "diagonal", "graph"}
# closed embeddings: every embedding kind but the open immersion
CLOSED_EMBEDDING_KINDS = EMBEDDING_KINDS - {"open"}

# hard cap on declared-identity rewriting; identities are user input and can
# loop, and a stalled normal form is harmless where a hang is not
_REWRITE_CAP = 64


@dataclass(frozen=True)
class Variety:
    name: str
    dim: int
    smooth: bool = True


@dataclass(frozen=True)
class MorphismAtom:
    name: str
    kind: str
    source: str
    target: str
    codim: int = 0  # closed embeddings
    factor: int = 0  # product projections
    parts: tuple = ()  # pmap components, graph base map


@dataclass(frozen=True, slots=True)
class Morphism:
    """Composite of declared atoms, outermost first; () is the identity."""

    atoms: tuple
    source: str
    target: str


@dataclass(frozen=True)
class Bundle:
    name: str  # doubles as the name of the total space
    base: str
    rank: int
    proj: str  # total -> base
    sect: str  # zero section, base -> total


@dataclass(frozen=True)
class FourierData:
    bundle: str
    dual: str
    product: str  # fiber product of the two totals, as a variety
    proj_self: str  # product -> total(bundle)
    proj_dual: str  # product -> total(dual)
    pairing: str  # product -> line
    line: str  # total space of the trivial line over the base
    coord: str  # coordinate function on the line


@dataclass(frozen=True)
class Subvariety:
    name: str
    ambient: str
    codim: int
    smooth: bool
    reduced: bool = True
    image_of: str = ""  # embedding atom whose image this is


@dataclass(frozen=True)
class CartesianFact:
    """Declared fiber square.

    f : A -> B and h : C -> B are the two legs; f_prime : P -> C and
    h_prime : P -> A are their pullbacks from the corner P = A x_B C.
    Declaring the square also declares the identity h.f' = f.h'.
    """

    name: str
    f: str
    h: str
    f_prime: str
    h_prime: str


# --- subvariety and function expressions -----------------------------------


@dataclass(frozen=True, slots=True)
class SubName:
    name: str


@dataclass(frozen=True, slots=True)
class SubRed:
    arg: object


@dataclass(frozen=True, slots=True)
class SubCap:
    args: tuple


@dataclass(frozen=True, slots=True)
class SubPre:
    morphism: Morphism
    arg: object


@dataclass(frozen=True, slots=True)
class FuncName:
    name: str


@dataclass(frozen=True, slots=True)
class FuncPull:
    arg: object
    morphism: Morphism


def _need(table, name, what):
    """`table[name]`, or a GeometryError naming the unknown `what`."""
    try:
        return table[name]
    except KeyError:
        raise GeometryError(f"unknown {what} {name!r}") from None


def _fresh(table, what, *names, taken=()):
    """Refuse each of `names` that `table` or `taken` holds, or that comes
    twice, as declaring it would."""
    seen = set(taken)
    for name in names:
        if name in table or name in seen:
            raise GeometryError(f"{what} {name!r} already declared")
        seen.add(name)


def _check_codim(what, codim, ambient):
    if not 0 <= codim <= ambient.dim:
        raise GeometryError(f"{what}: codimension {codim} is outside "
                            f"0..{ambient.dim} (dim {ambient.name})")


class GeometryContext:
    """Mutable registry of declarations plus the normal-form machinery.

    A refused declaration leaves every registry as it was."""

    def __init__(self):
        self.varieties: dict = {}
        self.atoms: dict = {}
        self.bundles: dict = {}
        self.fourier: dict = {}  # bundle name -> FourierData (both directions)
        self.subvarieties: dict = {}
        self.squares: dict = {}
        self.identities: list = []  # (lhs_atoms, rhs_atoms), declaration order
        self.cap_facts: dict = {}  # frozenset of member keys -> name
        self.pre_facts: dict = {}  # (morphism key, sub key) -> name
        self.functions: dict = {}  # name -> (variety, definition or None)
        self.objects: dict = {}  # object name -> variety
        self.products: dict = {}  # (x, y) -> product variety name
        self.product_factors: dict = {}  # product name -> (x, y)
        self.projections: dict = {}  # (product, factor) -> atom name
        self.negations: dict = {}  # variety -> atom name
        self.diagonals: dict = {}  # variety -> atom name
        self.images: dict = {}  # embedding atom -> subvariety name
        self.transposes: dict = {}  # bundle map -> its transpose, both ways
        self._normal_atoms: dict = {}  # atoms -> their normal form's atoms

    # -- declarations --------------------------------------------------

    def variety(self, name, dim, smooth=True):
        _fresh(self.varieties, "variety", name)
        if dim < 0:
            raise GeometryError(f"variety {name!r}: negative dimension {dim}")
        self.varieties[name] = Variety(name, dim, smooth)
        return name

    def need_variety(self, name) -> Variety:
        return _need(self.varieties, name, "variety")

    def morphism(self, name, source, target, kind="plain", codim=0, factor=0,
                 parts=(), transpose="", identities=()):
        """Declare an atom; `identities` are (lhs, rhs) pairs of atom
        names, outermost first, declared after it (see
        `declare_identity`).  They may name the atom, so they are checked
        with it in place, and a refused one takes it back.  A source has
        one projection to each factor, and a map at most one transpose,
        which either of the two may name first; a variety's first
        negation and diagonal are the ones indexed."""
        _fresh(self.atoms, "morphism", name)
        self.need_variety(source)
        tgt = self.need_variety(target)
        if kind == "closed" and codim == 0:
            codim = tgt.dim - self.varieties[source].dim
        _check_codim(f"morphism {name!r}", codim, tgt)
        if kind == "projection" and factor not in (1, 2):
            raise GeometryError(
                f"morphism {name!r}: projection factor {factor} is not 1 or 2")
        if kind == "projection" and (source, factor) in self.projections:
            raise GeometryError(
                f"morphism {name!r}: {source} already has projection "
                f"{factor}, {self.projections[(source, factor)]!r}")
        if kind == "negation" and source != target:
            raise GeometryError(f"negation {name!r} must be an endomap")
        if transpose:
            self._pairable(name, transpose)
        self.atoms[name] = MorphismAtom(name, kind, source, target, codim,
                                        factor, tuple(parts))
        try:
            checked = [self._identity(lhs, rhs) for lhs, rhs in identities]
        except GeometryError:
            del self.atoms[name]
            raise
        self.identities += checked
        self._normal_atoms.clear()
        if kind == "negation":
            self.negations.setdefault(source, name)
        elif kind == "diagonal":
            self.diagonals.setdefault(source, name)
        elif kind == "projection":
            self.projections[(source, factor)] = name
        if transpose:
            self.pair_transposes(name, transpose)
        return name

    def pair_transposes(self, a, b):
        """Pair maps `a` and `b` as each other's transposes; either may be
        declared later."""
        self._pairable(a, b)
        self.transposes[a] = b
        self.transposes[b] = a

    def _pairable(self, a, b):
        """Refuse a pairing of `a` and `b` when either has another
        transpose: a map has at most one."""
        for x, y in ((a, b), (b, a)):
            if self.transposes.get(x, y) != y:
                raise GeometryError(f"{x} already has the transpose "
                                    f"{self.transposes[x]!r}")

    def need_atom(self, name) -> MorphismAtom:
        return _need(self.atoms, name, "morphism")

    def identity(self, x) -> Morphism:
        self.need_variety(x)
        return Morphism((), x, x)

    def composite(self, *names) -> Morphism:
        """Build g.f... from atom names given outermost first."""
        if not names:
            raise GeometryError("empty composite needs a variety; use identity()")
        chain = [self.need_atom(n) for n in names]
        for outer, inner in zip(chain, chain[1:]):
            if inner.target != outer.source:
                raise GeometryError(
                    f"cannot compose {outer.name} . {inner.name}: "
                    f"{inner.name} lands in {inner.target}, "
                    f"{outer.name} starts at {outer.source}")
        return Morphism(tuple(names), chain[-1].source, chain[0].target)

    def compose(self, g: Morphism, f: Morphism) -> Morphism:
        if f.target != g.source:
            raise GeometryError(
                f"cannot compose: inner map lands in {f.target}, "
                f"outer starts at {g.source}")
        return Morphism(g.atoms + f.atoms, f.source, g.target)

    def declare_identity(self, lhs, rhs):
        """Record lhs = rhs as composites of atom names, outermost first."""
        self.identities.append(self._identity(lhs, rhs))
        self._normal_atoms.clear()

    def _identity(self, lhs, rhs):
        """(lhs, rhs) as tuples, once both are composites with the same
        endpoints; an empty rhs is the identity."""
        lhs = tuple(lhs)
        rhs = tuple(rhs)
        if not lhs:
            raise GeometryError("identity needs a nonempty left side")
        lm = self.composite(*lhs)
        if rhs:
            rm = self.composite(*rhs)
            if (lm.source, lm.target) != (rm.source, rm.target):
                raise GeometryError(
                    f"identity endpoints differ: {lhs} vs {rhs}")
        elif lm.source != lm.target:
            raise GeometryError(f"{lhs} cannot equal an identity map")
        return lhs, rhs

    def bundle(self, name, base, rank, proj, sect):
        if rank <= 0:
            raise GeometryError(f"bundle {name!r} needs positive rank")
        _fresh(self.bundles, "bundle", name)
        b = self.need_variety(base)
        _fresh(self.varieties, "variety", name)
        _fresh(self.atoms, "morphism", proj, sect)
        self.variety(name, b.dim + rank, b.smooth)
        self.morphism(proj, name, base, kind="bundle-projection")
        self.morphism(sect, base, name, kind="zero-section", codim=rank)
        self.bundles[name] = Bundle(name, base, rank, proj, sect)
        self.declare_identity((proj, sect), ())
        return name

    def need_bundle(self, name) -> Bundle:
        return _need(self.bundles, name, "bundle")

    def pairing(self, name) -> FourierData:
        """The pairing declared on bundle `name`; a GeometryError when
        it has none."""
        try:
            return self.fourier[name]
        except KeyError:
            raise GeometryError(f"bundle {name!r} has no declared pairing") from None

    def fourier_pair(self, b1, b2, product, p1, p2, pairing, line, coord):
        """Pair two bundles over one base: their fiber product over it,
        declared as `product` declares it, and the pairing from it to the
        line, the total space of the trivial line bundle over the base.

        The line and its coordinate function may be shared between pairs
        over the same base; a new line's coordinate must be a fresh
        function name, and everything else must be fresh.
        """
        v1 = self.need_bundle(b1)
        v2 = self.need_bundle(b2)
        if v1.base != v2.base:
            raise GeometryError(f"{b1} and {b2} live over different bases")
        if v1.rank != v2.rank:
            raise GeometryError(f"{b1} and {b2} have different ranks")
        if b1 in self.fourier or b2 in self.fourier:
            raise GeometryError("bundle already paired")
        new_line = line not in self.varieties and line != product
        if new_line:
            _fresh(self.functions, "function", coord)
        elif self.functions.get(coord, ("",))[0] != line:
            raise GeometryError(f"line {line!r} exists but {coord!r} is not its coordinate")
        _fresh(self.atoms, "morphism", pairing, taken=(p1, p2))
        self.product(product, b1, b2, p1, p2, base=v1.base)
        if new_line:
            base = self.varieties[v1.base]
            self.variety(line, base.dim + 1, base.smooth)
            self.function(coord, line)
        self.morphism(pairing, product, line, kind="pairing")
        self.fourier[b1] = FourierData(b1, b2, product, p1, p2, pairing, line, coord)
        self.fourier[b2] = FourierData(b2, b1, product, p2, p1, pairing, line, coord)

    def product(self, name, x, y, q1, q2, base=""):
        """Product of two varieties with its projections q1, q2.  Given a
        base, it is the fiber product over it (of two bundles' totals,
        typically), of dimension dim x + dim y - dim base; each factor
        but the base itself needs an atom into the base, declared before
        it.  Only a plain product is indexed by its factors in
        `products`, and two factors have at most one."""
        vx = self.need_variety(x)
        vy = self.need_variety(y)
        dim = vx.dim + vy.dim
        if not base and (x, y) in self.products:
            raise GeometryError(f"{x} x {y} already has the product "
                                f"{self.products[(x, y)]!r}")
        if base:
            dim -= self.need_variety(base).dim
            for factor in (x, y):
                if factor != base and not any(
                        a.source == factor and a.target == base
                        for a in self.atoms.values()):
                    raise GeometryError(
                        f"fiber product {name!r}: no declared map takes "
                        f"{factor} to the base {base}")
            if dim < 0:
                raise GeometryError(
                    f"fiber product {name!r}: negative dimension {dim} "
                    f"(dim {x} + dim {y} - dim {base})")
        _fresh(self.varieties, "variety", name)
        _fresh(self.atoms, "morphism", q1, q2)
        self.variety(name, dim, vx.smooth and vy.smooth)
        self.morphism(q1, name, x, kind="projection", factor=1)
        self.morphism(q2, name, y, kind="projection", factor=2)
        if not base:
            self.products[(x, y)] = name
        self.product_factors[name] = (x, y)
        return name

    def square(self, name, f, h, f_prime, h_prime):
        _fresh(self.squares, "square", name)
        af, ah = self.need_atom(f), self.need_atom(h)
        afp, ahp = self.need_atom(f_prime), self.need_atom(h_prime)
        if af.target != ah.target:
            raise GeometryError(f"square {name!r}: {f} and {h} have different targets")
        if afp.source != ahp.source:
            raise GeometryError(f"square {name!r}: {f_prime} and {h_prime} have different corners")
        if afp.target != ah.source or ahp.target != af.source:
            raise GeometryError(f"square {name!r}: legs do not line up")
        self.squares[name] = CartesianFact(name, f, h, f_prime, h_prime)
        self.declare_identity((h, f_prime), (f, h_prime))
        return name

    def subvariety(self, name, ambient, codim=None, smooth=None, reduced=True,
                   image="", caps=(), preimages=()):
        """Declare a subvariety, then each (a, b) of `caps` meeting in it,
        all in one ambient, and each (map, result) of `preimages`, the
        preimage of it along the map, a subvariety of the map's source;
        these facts enter only here.  Given `image`, the name of an
        embedding atom into the ambient, it is that atom's image (stored
        as `Subvariety.image_of`): its codimension defaults to dim
        ambient - dim source and its smoothness to the source's.  An
        embedding has one image: a second is refused."""
        _fresh(self.subvarieties, "subvariety", name)
        amb = self.need_variety(ambient)
        if image:
            atom = self.need_atom(image)
            if atom.target != ambient:
                raise GeometryError(
                    f"{image} does not land in {ambient}")
            if atom.kind not in EMBEDDING_KINDS:
                raise GeometryError(f"{image} is not an embedding")
            if image in self.images:
                raise GeometryError(
                    f"{image} already has the image {self.images[image]!r}")
            src = self.varieties[atom.source]
            if codim is None:
                codim = amb.dim - src.dim
            if smooth is None:
                smooth = src.smooth
        if codim is None:
            raise GeometryError(f"subvariety {name!r} needs a codimension")
        _check_codim(f"subvariety {name!r}", codim, amb)
        if smooth is None:
            smooth = True
        sv = Subvariety(name, ambient, codim, smooth, reduced, image)
        self._facts([(a, b, name) for a, b in caps],
                    [(m, name, result) for m, result in preimages], sv)
        self.subvarieties[name] = sv
        if image:
            self.images[image] = name
        return name

    def need_subvariety(self, name) -> Subvariety:
        return _need(self.subvarieties, name, "subvariety")

    def _facts(self, caps, preimages, new):
        """Check every cap fact (a, b, result) and preimage fact (map, sub,
        result), then record them all.  They may name `new`, the
        subvariety being declared."""
        def ambient(z):
            if z == new.name:
                return new.ambient
            return self.need_subvariety(z).ambient

        for a, b, result in caps:
            ambients = {ambient(z) for z in (a, b, result)}
            if len(ambients) != 1:
                raise GeometryError(f"cap {a} {b} as {result} spans the "
                                    f"ambients {', '.join(sorted(ambients))}")
        for morphism_name, sub, result in preimages:
            atom = self.need_atom(morphism_name)
            if ambient(sub) != atom.target:
                raise GeometryError(f"{morphism_name} does not land in the "
                                    f"ambient of {sub}")
            if ambient(result) != atom.source:
                raise GeometryError(f"{result} does not lie in the source of "
                                    f"{morphism_name}")
        for a, b, result in caps:
            self.cap_facts[frozenset((a, b))] = result
        for morphism_name, sub, result in preimages:
            self.pre_facts[((morphism_name,), sub)] = result

    def function(self, name, variety, definition=None):
        _fresh(self.functions, "function", name)
        self.need_variety(variety)
        if definition is not None:
            got = self.func_variety(definition)
            if got != variety:
                raise GeometryError(
                    f"function {name!r} declared on {variety} but its "
                    f"definition lives on {got}")
        self.functions[name] = (variety, definition)
        return name

    def object_(self, name, variety):
        _fresh(self.objects, "object", name)
        self.need_variety(variety)
        self.objects[name] = variety
        return name

    # -- morphism normal forms ------------------------------------------

    def normalize_morphism(self, m: Morphism) -> Morphism:
        """Cancel involutions, then apply declared identities leftmost-first
        in declaration order until nothing fires (or the cap trips).

        The result depends only on the atoms, their kinds and the declared
        identities, so it is memoized by `m.atoms`; declaring an atom or an
        identity clears the memo."""
        atoms = self._normal_atoms.get(m.atoms)
        if atoms is None:
            atoms = self._normal_atoms[m.atoms] = self._rewrite_atoms(m.atoms)
        return Morphism(atoms, m.source, m.target)

    def _rewrite_atoms(self, atoms):
        budget = _REWRITE_CAP * (len(atoms) + 1)
        while budget and (rewritten := self._first_rewrite(atoms)) is not None:
            atoms, budget = rewritten, budget - 1
        return atoms

    def _first_rewrite(self, atoms):
        """`atoms` after the first rewrite that fires, or None: the leftmost
        negation pair cancels, else the first declared identity that
        matches replaces its leftmost match."""
        for i in range(len(atoms) - 1):
            if atoms[i] == atoms[i + 1] and \
                    self.atoms[atoms[i]].kind == "negation":
                return atoms[:i] + atoms[i + 2:]
        for lhs, rhs in self.identities:
            n = len(lhs)
            for i in range(len(atoms) - n + 1):
                if atoms[i:i + n] == lhs:
                    return atoms[:i] + rhs + atoms[i + n:]
        return None

    def morphisms_equal(self, a: Morphism, b: Morphism) -> bool:
        if (a.source, a.target) != (b.source, b.target):
            return False
        return self.normalize_morphism(a).atoms == self.normalize_morphism(b).atoms

    def is_identity(self, m: Morphism) -> bool:
        return m.source == m.target and not self.normalize_morphism(m).atoms

    def is_embedding(self, m: Morphism) -> bool:
        return all(self.atoms[a].kind in EMBEDDING_KINDS for a in m.atoms)

    def part_form(self, part):
        """The normal form of a product map's component (an atom name, "id"
        for the identity): its atoms, `()` for a part equal to the
        identity, declared so or not."""
        return self._rewrite_atoms(() if part == "id" else (part,))

    def find_pmap(self, c1, c2, source, target):
        """Declared product map with the given endpoints whose components
        have the normal forms of c1 and c2, so that a declared identity
        hides none."""
        want = (self.part_form(c1), self.part_form(c2))
        for atom in self.atoms.values():
            if (atom.kind == "pmap" and atom.source == source
                    and atom.target == target
                    and tuple(map(self.part_form, atom.parts)) == want):
                return atom.name
        return None

    def transpose_morphism(self, m: Morphism) -> Morphism:
        """Transpose of a composite of paired bundle maps."""
        names = []
        for a in reversed(m.atoms):
            t = self.transposes.get(a)
            if t is None:
                raise GeometryError(f"{a} has no declared transpose")
            names.append(t)
        if not names:
            raise GeometryError("cannot transpose an identity without its bundle")
        return self.composite(*names)

    # -- subvariety normal forms ----------------------------------------

    def normalize_sub(self, s):
        if isinstance(s, SubName):
            self.need_subvariety(s.name)
            return s
        if isinstance(s, SubRed):
            arg = self.normalize_sub(s.arg)
            if isinstance(arg, SubRed):
                return arg
            if isinstance(arg, SubName) and self.subvarieties[arg.name].reduced:
                return arg
            return SubRed(arg)
        if isinstance(s, SubCap):
            flat = []
            for a in s.args:
                a = self.normalize_sub(a)
                if isinstance(a, SubCap):
                    flat.extend(a.args)
                else:
                    flat.append(a)
            flat = sorted(set(flat), key=sub_key)
            # pairwise declared intersections, to a fixpoint
            while (merged := self._first_cap(flat)) is not None:
                flat = merged
            if len(flat) == 1:
                return flat[0]
            return SubCap(tuple(flat))
        if isinstance(s, SubPre):
            arg = self.normalize_sub(s.arg)
            m = self.normalize_morphism(s.morphism)
            if self.is_identity(m):
                return arg
            # a fact names its map as declared: compare normal forms
            for (atoms, name), hit in self.pre_facts.items():
                if arg == SubName(name) and self.morphisms_equal(
                        self.composite(*atoms), m):
                    return SubName(hit)
            return SubPre(m, arg)
        raise GeometryError(f"not a subvariety expression: {s!r}")

    def _first_cap(self, flat):
        """`flat`, sorted by `sub_key`, with the first pair of its names, in
        that order, that has a cap fact replaced by their intersection; None
        when no pair has one."""
        names = [x for x in flat if isinstance(x, SubName)]
        for a, b in combinations(names, 2):
            hit = self.cap_facts.get(frozenset((a.name, b.name)))
            if hit is not None:
                rest = [x for x in flat if x not in (a, b)]
                return sorted(set(rest + [SubName(hit)]), key=sub_key)
        return None

    def subs_equal(self, a, b) -> bool:
        return sub_key(self.normalize_sub(a)) == sub_key(self.normalize_sub(b))

    def sub_ambient(self, s) -> str:
        if isinstance(s, SubName):
            return self.need_subvariety(s.name).ambient
        if isinstance(s, SubRed):
            return self.sub_ambient(s.arg)
        if isinstance(s, SubCap):
            ambs = {self.sub_ambient(a) for a in s.args}
            if len(ambs) != 1:
                raise GeometryError(f"intersection across ambients: {sorted(ambs)}")
            return ambs.pop()
        if isinstance(s, SubPre):
            inner = self.sub_ambient(s.arg)
            if s.morphism.target != inner:
                raise GeometryError(
                    f"preimage of a subvariety of {inner} along a map into "
                    f"{s.morphism.target}")
            return s.morphism.source
        raise GeometryError(f"not a subvariety expression: {s!r}")

    # -- function normal forms ------------------------------------------

    def normalize_func(self, f):
        base, atoms, source, target = self._func_flatten(f)
        m = self.normalize_morphism(Morphism(atoms, source, target))
        if self.is_identity(m):
            return FuncName(base)
        return FuncPull(FuncName(base), m)

    def _func_flatten(self, f):
        """Resolve aliases and collapse nested pullbacks: (base function,
        the atoms of the map it is pulled back along, outermost first,
        that map's source, its target)."""
        if isinstance(f, FuncName):
            variety, definition = _need(self.functions, f.name, "function")
            if definition is None:
                return f.name, (), variety, variety
            return self._func_flatten(definition)
        if isinstance(f, FuncPull):
            base, atoms, source, target = self._func_flatten(f.arg)
            m = f.morphism
            if source != m.target:
                raise GeometryError(
                    f"pullback of a function on {source} along a map into "
                    f"{m.target}")
            return base, atoms + m.atoms, m.source, target
        raise GeometryError(f"not a function expression: {f!r}")

    def funcs_equal(self, a, b) -> bool:
        return func_key(self.normalize_func(a)) == func_key(self.normalize_func(b))

    def func_variety(self, f) -> str:
        """The variety f lives on: the source of the map its flattened
        pullback is taken along, read off the walk that checks f for
        `normalize_func`, with no map built."""
        return self._func_flatten(f)[2]


# --- stable keys for hashing/sorting normalized expressions ----------------


def sub_key(s) -> str:
    if isinstance(s, SubName):
        return f"n:{s.name}"
    if isinstance(s, SubRed):
        return f"r:({sub_key(s.arg)})"
    if isinstance(s, SubCap):
        return "c:(" + ",".join(sub_key(a) for a in s.args) + ")"
    if isinstance(s, SubPre):
        return f"p:({'.'.join(s.morphism.atoms)};{sub_key(s.arg)})"
    raise GeometryError(f"not a subvariety expression: {s!r}")


def func_key(f) -> str:
    if isinstance(f, FuncName):
        return f"n:{f.name}"
    if isinstance(f, FuncPull):
        return f"p:({func_key(f.arg)};{'.'.join(f.morphism.atoms)})"
    raise GeometryError(f"not a function expression: {f!r}")
