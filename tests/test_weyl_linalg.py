"""The echelon and the integer column codes of both de Rham complexes."""

import random

import pytest

from dworklab import parse_poly
from dworklab.weyl.cech import CechDeRham
from dworklab.weyl.linalg import Echelon
from dworklab.weyl.twisted import TwistedComplex

import oracles

XY = ("x", "y")


@pytest.mark.parametrize("row", [{9: 2, 4: -3, 1: 5}, {9: 4, 4: -6, 1: 10}],
                         ids=["content-1", "content-2"])
@pytest.mark.parametrize("reduced", [False, True],
                         ids=["stored-as-is", "reduced-first"])
def test_add_leaves_the_callers_row_alone(row, reduced):
    ech = Echelon()
    if reduced:
        ech.add({9: 1, 6: 1})  # a pivot at the row's lead
    caller = dict(row)
    ech.add(caller)
    assert caller == row
    stored = {lead: dict(p) for lead, p in ech.pivots.items()}
    caller[9] = 7
    caller[2] = 1
    del caller[4]
    assert ech.pivots == stored


def _top_exponent(code, n, fields):
    """The largest exponent `code` accepts in the first variable."""
    e = 0
    while True:
        try:
            code((e + 1,) + (0,) * (n - 1), *fields)
        except ValueError:
            return e
        e += 1


def _random_monos(rng, n, top, count):
    return [tuple(rng.randint(0, top) for _ in range(n)) for _ in range(count)]


@pytest.mark.parametrize("text,names", [
    ("x1*y1 + x2*y2", ("x1", "x2", "y1", "y2")),
    ("y*(x^2-1/3)", XY),
])
def test_twisted_codes_follow_the_graded_order(text, names):
    rng = random.Random(20260)
    cx = TwistedComplex(parse_poly(text, names))
    n = cx.n
    cx.rung(cx.F.degree() + 1)
    top = _top_exponent(cx.code, n, (0,))
    assert top & (top + 1) == 0  # a digit uses its whole width
    for j in range(n):
        with pytest.raises(ValueError):
            cx.code(tuple(top + 1 if i == j else 0 for i in range(n)))
    cols = {(mono, rng.randrange(1 << n))
            for mono in _random_monos(rng, n, top, 400)}
    cols |= {((top,) * n, (1 << n) - 1), ((0,) * n, 0)}
    codes = {col: cx.code(*col) for col in cols}
    assert sorted(cols, key=codes.get) == sorted(
        cols, key=lambda col: (sum(col[0]), col[0], col[1]))
    assert all(cx.column(code) == col for col, code in codes.items())
    for _ in range(300):
        a = tuple(rng.randint(0, top) for _ in range(n))
        b = tuple(rng.randint(0, top - e) for e in a)
        mask = rng.randrange(1 << n)
        product = tuple(x + y for x, y in zip(a, b))
        assert cx.code(a, mask) + cx.code(b) == cx.code(product, mask)


def test_cech_codes_follow_the_graded_order():
    rng = random.Random(20261)
    cx = CechDeRham([parse_poly(t, XY) for t in ("x", "y", "x-y^2")])
    n, first = cx.n, cx.pieces[0]
    cx.rung(0)
    top = _top_exponent(lambda mono: cx.code(first, mono, 0), n, ())
    assert top & (top + 1) == 0
    with pytest.raises(ValueError):
        cx.code(first, (0, top + 1), 0)
    cols = {(rng.choice(cx.pieces), mono, rng.randrange(1 << n))
            for mono in _random_monos(rng, n, top, 400)}
    cols |= {(cx.pieces[-1], (top,) * n, (1 << n) - 1),
             (first, (0,) * n, 0)}
    codes = {col: cx.code(*col) for col in cols}
    assert sorted(cols, key=codes.get) == sorted(
        cols, key=lambda col: (sum(col[1]), col[1], cx.piece_index[col[0]],
                               col[2]))
    assert all(cx.column(code) == col for col, code in codes.items())
    for _ in range(300):
        a = tuple(rng.randint(0, top) for _ in range(n))
        b = tuple(rng.randint(0, top - e) for e in a)
        I, mask = rng.choice(cx.pieces), rng.randrange(1 << n)
        product = tuple(x + y for x, y in zip(a, b))
        assert (cx.code(I, a, mask) + cx.code(first, b, 0)
                == cx.code(I, product, mask))


def test_twisted_widening_keeps_every_rung():
    """A complex sized by a low rung and then asked for one that needs
    wider codes feeds its stages again and still answers every cutoff,
    above and below, as fresh complexes and the oracle do."""
    F = parse_poly("x*y", XY)
    cx = TwistedComplex(F)
    cx.rung(3)
    narrow = _top_exponent(cx.code, cx.n, (0,))
    cx.rung(13)
    assert _top_exponent(cx.code, cx.n, (0,)) > narrow
    for D in (13, 3, 5, 9):
        want = oracles.oracle_twisted_rung(F.terms, F.nvars, D)
        assert cx.rung(D) == TwistedComplex(F).rung(D) == want


def test_cech_widening_keeps_every_rung():
    fs = [parse_poly("x^2-1", ("x",))]
    cx = CechDeRham(fs)
    first = cx.pieces[0]
    cx.rung(0)
    narrow = _top_exponent(lambda mono: cx.code(first, mono, 0), cx.n, ())
    # the spare bit covers rungs 1-7 after rung 0; rung 8 still widens
    cx.rung(8)
    assert _top_exponent(lambda mono: cx.code(first, mono, 0),
                         cx.n, ()) > narrow
    for t in (8, 0, 1, 2):
        want = oracles.oracle_complement_rung([fs[0].terms], 1, t)
        assert cx.rung(t) == CechDeRham(fs).rung(t) == want
