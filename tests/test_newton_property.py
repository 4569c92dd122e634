"""Seeded property test: the twisted table of a drawn convenient f in two
variables, nondegenerate at infinity, is its Newton number.

Kouchnirenko (Invent. Math. 1976, Thm. I) counts the critical points of
a convenient f nondegenerate on every face of its Newton polygon at
infinity (the hull of 0 and f's exponents) not through 0: there are
ν = 2·V_2 − V_1 + 1 of them, with multiplicity.  Such an f is tame
(Broughton, Invent. Math. 1988), so its twisted de Rham cohomology is ν
in degree 2 and zero below (see `test_closed_forms`).

A vertex's polynomial is one monomial, which never vanishes on the
torus.  An edge from vertex u with primitive step s and lattice length L
carries f_σ = x^u·g(x^s), g(t) = Σ_i c_i t^i for the coefficients c_i of
f at u + i·s, and c_0, c_L ≠ 0; f_σ is nondegenerate exactly when g has
no repeated root, that is when gcd(g, g′) is a constant.  `weyl.poly`
has no gcd, so a small Euclid over `Fraction` here decides it.  Drawn f
that fail it are assumed away, and the test counts them.

Hypothesis runs derandomized, with no example database, so every run
draws the same examples.
"""

from collections import Counter
from fractions import Fraction
from math import comb, gcd

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dworklab import twisted_cohomology  # noqa: E402
from dworklab.weyl.poly import MultiPoly  # noqa: E402

from test_closed_forms import _newton_number, _turn  # noqa: E402

SEEDED = settings(derandomize=True, database=None, deadline=None,
                  max_examples=150,
                  suppress_health_check=[HealthCheck.too_slow,
                                         HealthCheck.filter_too_much])
COEFFS = st.sampled_from([Fraction(c, q) for c in (-2, -1, 1, 2)
                          for q in (1, 2)])


@st.composite
def convenient(draw):
    """A convenient f in x, y: pure powers x^a and y^b, a and b in 1..5,
    and up to four more terms of degree at most 5.  When a = b, the terms
    on the segment from x^a to y^a are sometimes made c·(x + r·y)^a, whose
    edge polynomial has an a-fold root: the edge is degenerate unless a
    term lies beyond it."""
    a = draw(st.integers(1, 5))
    b = draw(st.one_of(st.just(a), st.integers(1, 5)))
    terms = {(a, 0): draw(COEFFS), (0, b): draw(COEFFS)}
    inside = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(
        lambda m: sum(m) <= 5)
    for m in draw(st.lists(inside, max_size=4)):
        terms[m] = draw(COEFFS)
    if a == b > 1 and draw(st.booleans()):
        c, r = draw(COEFFS), draw(COEFFS)
        for i in range(a + 1):
            terms[a - i, i] = c * comb(a, i) * r ** i
    return MultiPoly(2, terms)


def _derivative(g):
    return [i * c for i, c in enumerate(g)][1:]


def _remainder(g, h):
    """g mod h over Fraction; both are coefficient lists, constant first,
    with h's last coefficient nonzero."""
    g = list(g)
    while len(g) >= len(h):
        q = g[-1] / h[-1]
        shift = len(g) - len(h)
        for i, c in enumerate(h):
            g[shift + i] -= q * c
        g.pop()
        while g and g[-1] == 0:
            g.pop()
    return g


def _squarefree(g):
    """True when gcd(g, g′) is a nonzero constant: g has no repeated
    root.  g has nonzero first and last coefficients."""
    a, b = g, _derivative(g)
    while b:
        a, b = b, _remainder(a, b)
    return len(a) == 1


def _edges(f):
    """The edge polynomials of f's Newton polygon at infinity on the
    edges not through 0, as coefficient lists g (constant first)."""
    points = sorted(set(f.terms) | {(0, 0)})

    def half(pts):
        out = []
        for p in pts:
            while len(out) > 1 and _turn(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    hull = half(points) + half(points[::-1])
    out = []
    for u, v in zip(hull, hull[1:] + hull[:1]):
        if _turn((0, 0), u, v) == 0:
            continue  # an edge through 0, on an axis
        length = gcd(v[0] - u[0], v[1] - u[1])
        step = ((v[0] - u[0]) // length, (v[1] - u[1]) // length)
        out.append([f.terms.get((u[0] + i * step[0], u[1] + i * step[1]),
                                Fraction(0)) for i in range(length + 1)])
    return out


def test_twisted_table_of_a_drawn_convenient_f_is_its_newton_number():
    # the filter on hand-made cases: x^2 + 2xy + y^2 has the one edge
    # polynomial (1 + t)^2, with a repeated root, and x^2 + y^2 is
    # nondegenerate; x^3 + y^3 + x^2y^2 has two edges and x + y^2 one,
    # each of lattice length 1
    assert _edges(MultiPoly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})) == [
        [1, 2, 1]]
    assert not _squarefree([Fraction(1), Fraction(2), Fraction(1)])
    assert _squarefree([Fraction(1), Fraction(0), Fraction(1)])
    assert _edges(MultiPoly(2, {(3, 0): 1, (0, 3): 1, (2, 2): 1})) == [
        [1, 1], [1, 1]]
    assert _edges(MultiPoly(2, {(1, 0): 1, (0, 2): 1})) == [[1, 1]]
    seen = Counter()

    @SEEDED
    @given(convenient())
    def check(f):
        nondegenerate = all(map(_squarefree, _edges(f)))
        seen["drawn"] += 1
        seen["degenerate"] += not nondegenerate
        assume(nondegenerate)
        nu = _newton_number(f)
        assert twisted_cohomology(f).dims == {0: 0, 1: 0, 2: nu}, f.terms

    check()
    # the filter is reached on both sides: some draws are assumed away
    # as degenerate at infinity (16 of 166 where this was written), and
    # most are kept
    assert seen["degenerate"] > 0, seen
    assert seen["drawn"] - seen["degenerate"] >= 100, seen
