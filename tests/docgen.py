"""Random script-document generator for round-trip fuzzing."""

import random
import string

from dworklab import dsl

_KEYWORDS = {
    "variety", "bundle", "fourierpair", "morphism", "product", "fiberproduct",
    "function", "subvariety", "cartesian", "object", "goal", "lemma", "step",
    "closure", "mode", "strata", "exclude", "with", "dim", "on", "rank",
    "proj", "sect", "pairing", "line", "coord", "closed", "codim", "open",
    "section", "zerosection", "bundlemap", "transpose", "negation",
    "diagonal", "graph", "pmap", "projection", "over", "in", "singular",
    "smooth", "nonreduced", "image", "cap", "preimage", "at", "fwd", "bwd",
    "id", "pull", "pre", "red", "O", "Exp", "Tensor", "ETensor", "Opb",
    "Oim", "RGamma", "Fourier", "x",
    # step binding keys
    "f", "g", "map", "psi", "sub", "left", "right", "layers", "square", "law",
}


def _name(rng):
    while True:
        n = rng.randint(2, 8)
        s = rng.choice(string.ascii_letters + "_")
        s += "".join(rng.choice(string.ascii_letters + string.digits + "_")
                     for _ in range(n - 1))
        if s not in _KEYWORDS:
            return s


def _mexpr(rng, depth=0):
    if rng.random() < 0.2:
        return dsl.MId(_name(rng))
    return dsl.MName(tuple(_name(rng) for _ in range(rng.randint(1, 3))))


def _fexpr(rng, depth=0):
    if depth < 2 and rng.random() < 0.4:
        return dsl.FPull(_fexpr(rng, depth + 1), _mexpr(rng))
    return dsl.FName(_name(rng))


def _sexpr(rng, depth=0):
    if depth < 2:
        r = rng.random()
        if r < 0.2:
            return dsl.SCap(_sexpr(rng, depth + 1), _sexpr(rng, depth + 1))
        if r < 0.35:
            return dsl.SPre(_mexpr(rng), _sexpr(rng, depth + 1))
        if r < 0.45:
            return dsl.SRed(_sexpr(rng, depth + 1))
    return dsl.SName(_name(rng))


def _dexpr(rng, depth=0):
    if depth >= 3:
        return rng.choice((dsl.DStruct(_name(rng)), dsl.DRef(_name(rng))))
    roll = rng.randrange(10)
    if roll == 0:
        out = dsl.DStruct(_name(rng))
    elif roll == 1:
        out = dsl.DExp(_name(rng), _fexpr(rng))
    elif roll == 2:
        out = dsl.DTensor(_dexpr(rng, depth + 1), _dexpr(rng, depth + 1))
    elif roll == 3:
        out = dsl.DETensor(_dexpr(rng, depth + 1), _dexpr(rng, depth + 1))
    elif roll == 4:
        out = dsl.DOpb(_mexpr(rng), _dexpr(rng, depth + 1))
    elif roll == 5:
        out = dsl.DOim(_mexpr(rng), _dexpr(rng, depth + 1))
    elif roll == 6:
        out = dsl.DRGamma(_sexpr(rng), _dexpr(rng, depth + 1))
    elif roll == 7:
        out = dsl.DFourier(_name(rng), _dexpr(rng, depth + 1))
    else:
        out = dsl.DRef(_name(rng))
    if rng.random() < 0.25:
        out = dsl.DShift(out, rng.randint(-4, 4))
    return out


_BINDING_KEYS = ("f", "g", "map", "psi", "sub", "left", "right",
                 "layers", "square", "bundle", "law")


def _binding(rng, key):
    if key in ("f", "g", "map"):
        return _mexpr(rng)
    if key == "psi":
        return _fexpr(rng)
    if key in ("sub", "left", "right"):
        return _sexpr(rng)
    if key == "layers":
        return rng.randint(1, 4)
    return _name(rng)


def _statement(rng):
    roll = rng.randrange(16)
    if roll == 0:
        return dsl.VarietyDecl(_name(rng), rng.randint(0, 5),
                               smooth=rng.random() < 0.7)
    if roll == 1:
        return dsl.BundleDecl(_name(rng), _name(rng), rng.randint(1, 3),
                              _name(rng), _name(rng))
    if roll == 2:
        return dsl.FourierDecl(*[_name(rng) for _ in range(8)])
    if roll == 3:
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
                transpose = _name(rng)
        elif k == 5:
            kind, parts = "graph", (_name(rng),)
        elif k == 6:
            kind, parts = "pmap", (_name(rng), _name(rng))
        elif k == 7:
            kind, factor = "projection", rng.randint(1, 2)
        idents = tuple(
            (tuple(_name(rng) for _ in range(rng.randint(1, 3))),
             () if rng.random() < 0.5
             else tuple(_name(rng) for _ in range(rng.randint(1, 2))))
            for _ in range(rng.randrange(3)))
        return dsl.MorphismDecl(_name(rng), _name(rng), _name(rng), kind,
                                codim, factor, parts, transpose, idents)
    if roll == 4:
        base = _name(rng) if rng.random() < 0.5 else ""
        return dsl.ProductDecl(_name(rng), _name(rng), _name(rng),
                               _name(rng), _name(rng), base)
    if roll == 5:
        defn = _fexpr(rng) if rng.random() < 0.7 else None
        return dsl.FunctionDecl(_name(rng), _name(rng), defn)
    if roll == 6:
        return dsl.SubvarietyDecl(
            _name(rng), _name(rng),
            codim=rng.choice((None, 1, 2)),
            smooth=rng.choice((None, True, False)),
            reduced=rng.random() < 0.8,
            image=_name(rng) if rng.random() < 0.4 else "",
            caps=tuple((_name(rng), _name(rng))
                       for _ in range(rng.randrange(3))),
            preimages=tuple((_name(rng), _name(rng))
                            for _ in range(rng.randrange(2))))
    if roll == 7:
        return dsl.CartesianDecl(*[_name(rng) for _ in range(5)])
    if roll == 8:
        return dsl.ObjectDecl(_name(rng), _name(rng))
    if roll == 9:
        return dsl.GoalDecl(_name(rng), _dexpr(rng), _dexpr(rng))
    if roll == 10:
        return dsl.LemmaDecl(_name(rng), _dexpr(rng), _dexpr(rng))
    if roll == 11:
        rule = (f"lemma:{_name(rng)}" if rng.random() < 0.2
                else f"R{rng.randint(1, 20)}")
        keys = rng.sample(_BINDING_KEYS, k=rng.randrange(4))
        return dsl.StepDecl(
            rule, rng.choice(("fwd", "bwd")),
            tuple(rng.randint(0, 2) for _ in range(rng.randrange(4))),
            tuple((k, _binding(rng, k)) for k in keys))
    if roll == 12:
        return dsl.ClosureDecl("kashiwara", _name(rng))
    if roll == 13:
        return dsl.ModeDecl(rng.choice(("strict-smooth", "allow-singular")))
    if roll == 14:
        return dsl.StrataDecl(rng.randint(0, 2))
    return dsl.ExcludeDecl(tuple(f"R{rng.randint(1, 20)}"
                                 for _ in range(rng.randint(1, 3))))


def random_document(rng: random.Random) -> dsl.ScriptDocument:
    return dsl.ScriptDocument(
        tuple(_statement(rng) for _ in range(rng.randint(1, 12))))
