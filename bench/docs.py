"""Seeded random `.dwk` script documents for the parse/render round trips.

The grammar follows the statement and expression node types of
`dworklab.dsl`; every statement kind, every expression form and every step
binding kind is drawn.  A document set is grown one statement at a time
until its rendered text reaches a fixed size, so the work per set barely
depends on the seed while its make-up does.
"""

from __future__ import annotations

import random
import string

from dworklab import dsl

# Words the lexer treats as keywords; a generated name must avoid them.
_KEYWORDS = frozenset("""
    variety bundle fourierpair morphism product fiberproduct function
    subvariety cartesian object goal lemma step closure mode strata exclude
    with dim on rank proj sect pairing line coord closed codim open section
    zerosection bundlemap transpose negation diagonal graph pmap projection
    over in singular smooth nonreduced image cap preimage at fwd bwd id pull
    pre red O Exp Tensor ETensor Opb Oim RGamma Fourier x
""".split())

_HEAD = string.ascii_letters + "_"
_TAIL = string.ascii_letters + string.digits + "_"
_BINDING_KEYS = ("f", "g", "map", "psi", "sub", "left", "right",
                 "layers", "square", "bundle", "law")


class _Gen:
    def __init__(self, seed):
        self.rng = random.Random(seed)

    def name(self):
        rng = self.rng
        while True:
            s = rng.choice(_HEAD) + "".join(
                rng.choice(_TAIL) for _ in range(rng.randint(1, 7)))
            if s not in _KEYWORDS:
                return s

    def names(self, lo, hi):
        return tuple(self.name() for _ in range(self.rng.randint(lo, hi)))

    def morphism(self):
        if self.rng.random() < 0.2:
            return dsl.MId(self.name())
        return dsl.MName(self.names(1, 3))

    def func(self, depth=0):
        if depth < 2 and self.rng.random() < 0.4:
            return dsl.FPull(self.func(depth + 1), self.morphism())
        return dsl.FName(self.name())

    def sub(self, depth=0):
        r = self.rng.random() if depth < 2 else 1.0
        if r < 0.2:
            return dsl.SCap(self.sub(depth + 1), self.sub(depth + 1))
        if r < 0.35:
            return dsl.SPre(self.morphism(), self.sub(depth + 1))
        if r < 0.45:
            return dsl.SRed(self.sub(depth + 1))
        return dsl.SName(self.name())

    def term(self, depth=0):
        rng = self.rng
        if depth >= 3:
            out = (dsl.DStruct(self.name()) if rng.random() < 0.5
                   else dsl.DRef(self.name()))
        else:
            roll = rng.randrange(10)
            d = depth + 1
            if roll == 0:
                out = dsl.DStruct(self.name())
            elif roll == 1:
                out = dsl.DExp(self.name(), self.func())
            elif roll == 2:
                out = dsl.DTensor(self.term(d), self.term(d))
            elif roll == 3:
                out = dsl.DETensor(self.term(d), self.term(d))
            elif roll == 4:
                out = dsl.DOpb(self.morphism(), self.term(d))
            elif roll == 5:
                out = dsl.DOim(self.morphism(), self.term(d))
            elif roll == 6:
                out = dsl.DRGamma(self.sub(), self.term(d))
            elif roll == 7:
                out = dsl.DFourier(self.name(), self.term(d))
            else:
                out = dsl.DRef(self.name())
        if rng.random() < 0.25:
            out = dsl.DShift(out, rng.randint(-4, 4))
        return out

    def binding(self, key):
        if key in ("f", "g", "map"):
            return self.morphism()
        if key == "psi":
            return self.func()
        if key in ("sub", "left", "right"):
            return self.sub()
        if key == "layers":
            return self.rng.randint(1, 4)
        return self.name()

    def morphism_decl(self):
        rng = self.rng
        kind, codim, factor, parts, transpose = "plain", 0, 0, (), ""
        k = rng.randrange(9)
        if k == 1:
            kind, codim = "closed", rng.randint(1, 3)
        elif k == 2:
            kind = rng.choice(("open", "section", "negation", "diagonal"))
        elif k == 3:
            kind = "zero-section"
        elif k == 4:
            kind = "bundle-map"
            if rng.random() < 0.5:
                transpose = self.name()
        elif k == 5:
            kind, parts = "graph", (self.name(),)
        elif k == 6:
            kind, parts = "pmap", (self.name(), self.name())
        elif k == 7:
            kind, factor = "projection", rng.randint(1, 2)
        idents = tuple(
            (self.names(1, 3), () if rng.random() < 0.5 else self.names(1, 2))
            for _ in range(rng.randrange(3)))
        return dsl.MorphismDecl(self.name(), self.name(), self.name(), kind,
                                codim, factor, parts, transpose, idents)

    def statement(self):
        rng = self.rng
        roll = rng.randrange(16)
        if roll == 0:
            return dsl.VarietyDecl(self.name(), rng.randint(0, 5),
                                   smooth=rng.random() < 0.7)
        if roll == 1:
            return dsl.BundleDecl(self.name(), self.name(), rng.randint(1, 3),
                                  self.name(), self.name())
        if roll == 2:
            return dsl.FourierDecl(*self.names(8, 8))
        if roll == 3:
            return self.morphism_decl()
        if roll == 4:
            base = self.name() if rng.random() < 0.5 else ""
            return dsl.ProductDecl(*self.names(5, 5), base)
        if roll == 5:
            defn = self.func() if rng.random() < 0.7 else None
            return dsl.FunctionDecl(self.name(), self.name(), defn)
        if roll == 6:
            return dsl.SubvarietyDecl(
                self.name(), self.name(),
                codim=rng.choice((None, 1, 2)),
                smooth=rng.choice((None, True, False)),
                reduced=rng.random() < 0.8,
                image=self.name() if rng.random() < 0.4 else "",
                caps=tuple(self.names(2, 2) for _ in range(rng.randrange(3))),
                preimages=tuple(self.names(2, 2)
                                for _ in range(rng.randrange(2))))
        if roll == 7:
            return dsl.CartesianDecl(*self.names(5, 5))
        if roll == 8:
            return dsl.ObjectDecl(self.name(), self.name())
        if roll == 9:
            return dsl.GoalDecl(self.name(), self.term(), self.term())
        if roll == 10:
            return dsl.LemmaDecl(self.name(), self.term(), self.term())
        if roll == 11:
            rule = (f"lemma:{self.name()}" if rng.random() < 0.2
                    else f"R{rng.randint(1, 20)}")
            keys = rng.sample(_BINDING_KEYS, k=rng.randrange(4))
            return dsl.StepDecl(
                rule, rng.choice(("fwd", "bwd")),
                tuple(rng.randint(0, 2) for _ in range(rng.randrange(4))),
                tuple((k, self.binding(k)) for k in keys))
        if roll == 12:
            return dsl.ClosureDecl("kashiwara", self.name())
        if roll == 13:
            return dsl.ModeDecl(
                rng.choice(("strict-smooth", "allow-singular")))
        if roll == 14:
            return dsl.StrataDecl(rng.randint(0, 2))
        return dsl.ExcludeDecl(tuple(f"R{rng.randint(1, 20)}"
                                     for _ in range(rng.randint(1, 3))))


def document_set(seed, target_bytes):
    """Documents of 1 to 12 statements whose texts total >= target_bytes.

    Statement sizes are taken from `dsl.render_statement`; the set stops at
    the first statement that reaches the target, so it overshoots by less
    than one statement.
    """
    gen = _Gen(seed)
    docs, size = [], 0
    while size < target_bytes:
        stmts = []
        for _ in range(gen.rng.randint(1, 12)):
            st = gen.statement()
            stmts.append(st)
            size += len(dsl.render_statement(st).encode("utf-8")) + 1
            if size >= target_bytes:
                break
        docs.append(dsl.ScriptDocument(tuple(stmts)))
    return docs
