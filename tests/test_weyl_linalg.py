"""The echelon and the integer column codes of both de Rham complexes."""

import itertools
import random

import pytest

from dworklab import parse_poly
from dworklab.weyl.cech import CechDeRham, complement_rung
from dworklab.weyl.linalg import Echelon, kernel_lattice
from dworklab.weyl.twisted import TwistedComplex, twisted_rung

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
    F = parse_poly(text, names)
    cx = TwistedComplex(F, F.degree() + 1)
    n = cx.n
    cx.rung(F.degree() + 1)
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
    cx = CechDeRham([parse_poly(t, XY) for t in ("x", "y", "x-y^2")], 0)
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
    """A complex sized once from its cap never widens: after a low rung
    and then the cap's rung it holds the same codes, still answers every
    cutoff, above and below, as fresh complexes and the oracle do, and
    refuses a rung above the cap without changing."""
    F = parse_poly("x*y", XY)
    cx = TwistedComplex(F, 13)
    codes = cx._codes
    cx.rung(3)
    top = _top_exponent(cx.code, cx.n, (0,))
    cx.rung(13)
    assert cx._codes is codes
    assert _top_exponent(cx.code, cx.n, (0,)) == top
    for D in (13, 3, 5, 9):
        want = oracles.oracle_twisted_rung(F.terms, F.nvars, D)
        assert cx.rung(D) == twisted_rung(F, D) == want
    with pytest.raises(ValueError):
        cx.rung(15)
    assert cx._codes is codes
    assert cx.rung(13) == twisted_rung(F, 13)


def test_cech_widening_keeps_every_rung():
    """The Čech complex likewise: one set of codes for every rung up to
    its cap, each rung as fresh complexes and the oracle give it, and a
    rung above the cap refused with the complex left intact."""
    fs = [parse_poly("x^2-1", ("x",))]
    cx = CechDeRham(fs, 8)
    codes, first = cx._codes, cx.pieces[0]
    cx.rung(0)
    top = _top_exponent(lambda mono: cx.code(first, mono, 0), cx.n, ())
    for t in range(1, 9):
        cx.rung(t)
    assert cx._codes is codes
    assert _top_exponent(lambda mono: cx.code(first, mono, 0),
                         cx.n, ()) == top
    for t in (8, 0, 1, 2):
        want = oracles.oracle_complement_rung([fs[0].terms], 1, t)
        assert cx.rung(t) == complement_rung(fs, t) == want
    with pytest.raises(ValueError):
        cx.rung(9)
    assert cx._codes is codes
    assert cx.rung(8) == complement_rung(fs, 8)


def _dot(w, v):
    return sum(a * b for a, b in zip(w, v))


def _rows(vectors):
    return [{j: c for j, c in enumerate(v) if c} for v in vectors]


@pytest.mark.parametrize("vectors,n,want", [
    # the twist of x*y: kernel dimension 2
    ([(1, 1, 1)], 3, [(-1, 1, 0), (-1, 0, 1)]),
    # the twist of x^2+y^3
    ([(2, 0, 1), (0, 3, 1)], 3, [(-3, -2, 6)]),
    # the twist of x^3-x: kernel dimension 0
    ([(3, 1), (1, 1)], 2, []),
    # no vectors at all: every unit row
    ([], 2, [(1, 0), (0, 1)]),
    ([(1, -1, 0, 2), (0, 2, -2, 1)], 4, None),
])
def test_kernel_lattice_spans_the_brute_force_kernel(vectors, n, want):
    """Every integer vector with entries in -6..6 orthogonal to the
    inputs lies in the span of the returned rows, which are themselves
    orthogonal to the inputs and independent."""
    got = kernel_lattice(vectors, n)
    if want is not None:
        assert got == want
    assert all(_dot(w, v) == 0 for w in got for v in vectors)
    brute = [w for w in itertools.product(range(-6, 7), repeat=n)
             if all(_dot(w, v) == 0 for v in vectors)]
    dim = n - oracles.rank(_rows(vectors))
    assert len(got) == oracles.rank(_rows(got)) == dim
    assert oracles.rank(_rows(brute)) == dim
    assert oracles.rank(_rows(got + brute)) == dim
