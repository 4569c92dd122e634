"""Closed-form tables for Brieskorn–Pham polynomials, on seeded inputs.

The expected tables come from classical formulas, computed here without
the engine:

* Twisted side.  F = sum_i x_i^{a_i} is weighted homogeneous with an
  isolated critical point at 0, so its twisted de Rham cohomology is its
  Milnor number prod_i (a_i - 1) in degree n and zero elsewhere
  (Kouchnirenko 1976; Adolphson–Sperber, Ann. Math. 1989).  The same
  holds for any weighted-homogeneous F with an isolated critical point,
  where by Milnor–Orlik (1970) the Milnor number is prod_i (1/w_i - 1)
  for the weights w_i that give every monomial weighted degree 1.
* Both sides.  For f = x^a + y^b the Milnor fibre is a connected curve
  whose monodromy has the eigenvalues exp(2 pi i (k1/a + k2/b)),
  1 <= k1 < a, 1 <= k2 < b (Brieskorn 1966; Milnor 1968).  The
  complement of V(f) fibres over C* with that fibre, so with I the
  number of eigenvalues equal to 1 the supported table is
  {2: 1 + I, 3: I}, zero entries dropped.
* Both sides, three variables.  For f = x^a + y^b + z^c the complement
  U of V(f) fibres over C* by f, with Milnor fibre M a bouquet of
  mu = (a-1)(b-1)(c-1) two-spheres: H^0(M) = C, H^1(M) = 0 and H^2(M)
  has the monodromy h with eigenvalues exp(2 pi i (k1/a + k2/b + k3/c)),
  1 <= k_i < a_i (Brieskorn 1966; Milnor 1968).  The Wang sequence
  ... -> H^{k-1}(M) -(h-1)-> H^{k-1}(M) -> H^k(U) -> H^k(M) -(h-1)-> ...
  gives h^k(U) = dim coker(h - 1 on H^{k-1}) + dim ker(h - 1 on H^k).
  h has finite order, so ker and coker of h - 1 on H^2 both have
  dimension I, the number of eigenvalues equal to 1, and h = 1 on H^0:
  h^0(U) = 1, h^1(U) = 1, h^2(U) = I, h^3(U) = I.  Read through the
  supported sequence (h^1_Z = h^0(U) - 1, h^{k+1}_Z = h^k(U)), the
  supported table is {2: 1, 3: I, 4: I}, zero entries dropped.  The
  n = 2 case is the same sequence with H^1(M) carrying the monodromy:
  h^1(U) = 1 + I, h^2(U) = I.
* Twisted side, Newton polytope.  Call F convenient when it has a pure
  power of every variable, and let Δ be its Newton polytope at infinity,
  the hull of 0 and F's exponents.  For convenient F nondegenerate on
  every face of Δ not through 0, the number of critical points counted
  with multiplicity, dim C[x]/(dF), is the Newton number
  ν = sum_k (-1)^(n-k) k! V_k, where V_k is the total k-volume of Δ cut
  with the coordinate k-planes and V_0 = 1 (Kouchnirenko, Invent. Math.
  1976, Thm. I).  Such an F is tame (Broughton, Invent. Math. 1988), and
  the twisted de Rham cohomology of a tame F is Ω^n / (d + dF∧)Ω^(n-1),
  of dimension dim C[x]/(dF), in degree n and zero elsewhere.  For n = 2
  that reads ν = 2·V_2 - V_1 + 1: V_2 is the area of Δ and V_1 the sum
  of its two axis intercepts, the largest pure powers of x and of y.  The inputs
  below are not weighted homogeneous, and their exponents span Q^2, so
  no Euler field has E F = 0: each twist is one weight block holding
  every element.
* Both sides, three variables, Newton polytope.  A convenient f in x, y,
  z nondegenerate at infinity is tame, and its fibre Z = f^(-1)(0) is a
  bouquet of ν - Σ_{p in Z} μ_p two-spheres, ν its Newton number and μ_p
  the Milnor number of each singular point of Z (Broughton, Invent. Math.
  1988; Siersma–Tibăr, Duke Math. J. 1995).  For n = 3,
  ν = 3!·V_3 - 2!·V_2 + V_1 - 1.  When Z is smooth or has only simple
  (ADE) points, whose links are rational homology spheres, Z satisfies
  Poincaré duality over Q, so h^k_Z = h^(k-2)(Z): h^2_Z = h^0(Z) = 1 and
  h^4_Z = h^2(Z) counts the spheres, and the supported table is
  {2: 1, 4: ν - Σ μ_p}.  The Σ μ_p of each input is worked out by hand
  in the docstring of the test that checks it.
* Both sides, four variables, read off the recorded documents of
  `tests/golden/`.  The complement of x1*x2*x3*x4 = 0 is the torus
  (C*)^4, with h^k(U) = C(4, k), so the supported table is
  {k + 1: C(4, k) : 1 <= k <= 4} = {2: 4, 3: 6, 4: 4, 5: 1}.  For
  f = sum_i x_i^{a_i} in four variables the Milnor fibre M is a bouquet
  of three-spheres, and the Wang sequence above gives h^0(U) = h^1(U) = 1,
  h^2(U) = 0 and h^3(U) = h^4(U) = I, so the supported table is
  {2: 1, 4: I, 5: I}; I = 6 for the Fermat cubic, a_i = 3.
"""

import json
import pathlib
import random
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd, prod

from dworklab import dwork_compare, parse_poly, twisted_cohomology
from dworklab.weyl.compare import dwork_twist
from dworklab.weyl.twisted import TwistedComplex

NAMES = ("x", "y", "z")


def _nonzero(dims):
    return {k: v for k, v in dims.items() if v}


def _brieskorn(exponents):
    names = NAMES[:len(exponents)]
    text = " + ".join(f"{v}^{a}" for v, a in zip(names, exponents))
    return parse_poly(text, names)


def _invariant_count(exponents):
    """#{(k_1, ..., k_n) : 1 <= k_i < a_i, sum k_i/a_i an integer}."""
    return sum(1 for ks in product(*(range(1, a) for a in exponents))
               if sum(map(Fraction, ks, exponents)).denominator == 1)


def test_twisted_table_is_the_milnor_number():
    rng = random.Random(1989)
    cases = ([tuple(rng.randint(2, 5) for _ in range(2)) for _ in range(4)]
             + [tuple(rng.randint(2, 4) for _ in range(3)) for _ in range(6)])
    for exponents in cases:
        res = twisted_cohomology(_brieskorn(exponents))
        n = len(exponents)
        want = {k: 0 for k in range(n)}
        want[n] = prod(a - 1 for a in exponents)
        assert res.dims == want, exponents


# weighted-homogeneous, not diagonal, each with an isolated critical point
# at 0: (polynomial, weights of x, y[, z])
WEIGHTED = [
    ("x^3+x*y^3", (Fraction(1, 3), Fraction(2, 9))),
    ("x^2*y+y^3", (Fraction(1, 3), Fraction(1, 3))),
    ("x^3*y+y^2", (Fraction(1, 6), Fraction(1, 2))),
    ("x^2+y^2*z+z^3", (Fraction(1, 2), Fraction(1, 3), Fraction(1, 3))),
    ("x^2*y+y^4+z^3", (Fraction(3, 8), Fraction(1, 4), Fraction(1, 3))),
]


def test_twisted_table_of_a_weighted_homogeneous_twist():
    for text, weights in WEIGHTED:
        n = len(weights)
        F = parse_poly(text, NAMES[:n])
        for mono in F.terms:
            assert sum(w * e for w, e in zip(weights, mono)) == 1, text
        want = {k: 0 for k in range(n)}
        want[n] = prod(1 / w - 1 for w in weights)
        assert twisted_cohomology(F).dims == want, text


def _turn(a, b, c):
    """Twice the signed area of the triangle a, b, c."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _twice_area(points):
    """Twice the area of the hull of plane points: the shoelace formula
    over their monotone-chain hull."""
    points = sorted(set(points))

    def half(pts):
        out = []
        for p in pts:
            while len(out) > 1 and _turn(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    hull = half(points) + half(points[::-1])
    return sum(_turn(hull[0], a, b) for a, b in zip(hull[1:], hull[2:]))


def _newton_number(F):
    """2·V_2 - V_1 + 1 for a convenient F in x, y: the area of the hull
    of 0 and F's exponents, and the two axis intercepts."""
    intercepts = (max(a for a, b in F.terms if b == 0)
                  + max(b for a, b in F.terms if a == 0))
    return _twice_area(set(F.terms) | {(0, 0)}) - intercepts + 1


# convenient, nondegenerate at infinity, not weighted homogeneous: (F, ν)
NEWTON = [
    ("x^4+y^3+x^2*y^2", 8),
    ("x^3+y^3+x", 4),
    ("x^3+y^2+x*y", 2),
    ("x^5+y^2+x^2*y", 4),
    ("x^4+y^4+x*y", 9),
]


def test_twisted_table_is_the_newton_number():
    for text, nu in NEWTON:
        F = parse_poly(text, NAMES[:2])
        assert _newton_number(F) == nu, text
        assert TwistedComplex(F, F.degree() + 1).weights == [], text
        assert twisted_cohomology(F).dims == {0: 0, 1: 0, 2: nu}, text


def test_supported_table_counts_invariant_eigenvalues():
    rng = random.Random(1966)
    cases = [(rng.randint(2, 5), rng.randint(2, 5)) for _ in range(6)]
    # the draw must reach both shapes of the table
    assert {_invariant_count(c) > 0 for c in cases} == {False, True}
    for a, b in cases:
        inv = _invariant_count((a, b))
        want = _nonzero({2: 1 + inv, 3: inv})
        cmp = dwork_compare([_brieskorn((a, b))])
        assert not cmp.inconclusive and cmp.match, (a, b)
        assert _nonzero(cmp.supports.dims) == want, (a, b)
        assert _nonzero(cmp.twisted.dims) == want, (a, b)


def test_supported_table_of_three_variables_counts_invariant_eigenvalues():
    rng = random.Random(1968)
    cases = ([tuple(rng.randint(2, 4) for _ in range(3)) for _ in range(5)]
             + [(2, 3, 6)])
    # the draw must reach both shapes of the table
    assert {_invariant_count(c) > 0 for c in cases} == {False, True}
    for exponents in cases:
        inv = _invariant_count(exponents)
        want = _nonzero({2: 1, 3: inv, 4: inv})
        cmp = dwork_compare([_brieskorn(exponents)])
        assert not cmp.inconclusive and cmp.match, exponents
        assert _nonzero(cmp.supports.dims) == want, exponents
        assert _nonzero(cmp.twisted.dims) == want, exponents


def _hull_facets(points):
    """Each facet plane of the hull of 3-dimensional `points`, as
    (n, d, on): n·p <= d on the hull with n primitive, and `on` the
    points with n·p = d.  Every plane through three of the points that
    leaves all of them on one side is one."""
    def cross(u, v):
        return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                u[0] * v[1] - u[1] * v[0])

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    facets = {}
    for a, b, c in combinations(points, 3):
        n = cross(tuple(q - p for p, q in zip(a, b)),
                  tuple(q - p for p, q in zip(a, c)))
        if n == (0, 0, 0):
            continue
        sides = {(dot(n, p) > dot(n, a)) - (dot(n, p) < dot(n, a))
                 for p in points}
        if sides == {0, 1} or sides == {0, -1}:
            sign = -1 if 1 in sides else 1
            g = gcd(*n)
            n = tuple(sign * x // g for x in n)
            d = dot(n, a)
            facets[n, d] = [p for p in points if dot(n, p) == d]
    return [(n, d, on) for (n, d), on in facets.items()]


def _newton_number_3(F):
    """3!·V_3 - 2!·V_2 + V_1 - 1 for a convenient F in x, y, z.

    V_3 is the volume of Δ, the hull of 0 and F's exponents: the sum over
    the facets not through 0, n·p = d, of the cones from 0, each d·A/3
    with A the facet's area over |n|; A is read off the projection that
    drops the coordinate k of largest |n_k|, whose area is A·|n_k|/|n|.
    V_2 is the total area of Δ cut with the three coordinate planes,
    each a face of Δ and so the hull of 0 and the exponents in it, and
    V_1 the sum of the three axis intercepts."""
    points = sorted(set(F.terms) | {(0, 0, 0)})
    volume = Fraction(0)
    for n, d, on in _hull_facets(points):
        if d == 0:
            continue
        k = max(range(3), key=lambda i: abs(n[i]))
        flat = [tuple(p[i] for i in range(3) if i != k) for p in on]
        volume += Fraction(d * _twice_area(flat), 2 * 3 * abs(n[k]))
    area = sum(Fraction(_twice_area(
        [tuple(p[i] for i in range(3) if i != k) for p in points
         if p[k] == 0]), 2) for k in range(3))
    intercepts = sum(max(p[k] for p in points
                         if all(p[i] == 0 for i in range(3) if i != k))
                     for k in range(3))
    return 6 * volume - 2 * area + intercepts - 1


# convenient, nondegenerate at infinity, with no torus: (f, ν, Σ μ_p)
TAME = [
    ("x^3+y^3+z^3+x", 8, 0),
    ("x^2+y^2+z^2+x*y*z", 5, 1),
    ("x^3+y^3+z^3+y*z", 8, 2),
]


def test_twisted_table_of_a_tame_fibre_is_its_reduced_newton_number():
    """Z = f^(-1)(0) is a bouquet of ν - Σ μ_p two-spheres (Broughton
    1988; Siersma–Tibăr 1995), Σ μ_p over the singular points of Z:

    * x^3+y^3+z^3+x: df = 0 forces y = z = 0 and 3x^2 = -1, where
      f = x(x^2 + 1) = 2x/3 is not 0; Z is smooth, Σ μ_p = 0.
    * x^2+y^2+z^2+x*y*z: df = 0 gives 2x^2 = 2y^2 = 2z^2 = -x*y*z, so
      x^2 = y^2 = z^2 = c and f = 3c - 2c = c; on Z only 0 is critical,
      where the Hessian is 2I: a node (A_1), Σ μ_p = 1.
    * x^3+y^3+z^3+y*z: df = 0 gives x = 0, z = -3y^2 and y = -3z^2, so
      y = 0 or y^3 = -1/27, where f = -2y^3 - 27y^6 = 1/27; on Z only 0
      is critical, where the quadratic part y*z has rank 2 and x enters
      as x^3: an A_2 point, Σ μ_p = 2.

    `x^4+y^4+z^4+x*y*z` is left out: its point at 0 is T_{4,4,4}, which
    is not simple, so its link is no rational homology sphere, Z is no
    rational homology manifold, and its table {2: 1, 4: 18} is not
    ν - μ = 27 - 11 = 16.
    """
    # on a Brieskorn–Pham polynomial ν is the Milnor number
    for exponents in [(2, 3, 4), (3, 3, 3), (2, 2, 5)]:
        assert _newton_number_3(_brieskorn(exponents)) \
            == prod(a - 1 for a in exponents)
    for text, nu, milnor in TAME:
        f = parse_poly(text, NAMES)
        assert _newton_number_3(f) == nu, text
        dims = twisted_cohomology(dwork_twist([f])).dims
        assert _nonzero(dims) == {2: 1, 4: nu - milnor}, text


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def _recorded(name):
    """The supported and twisted tables of a recorded `dwork-check`
    document, zero entries dropped; the document must report a match."""
    doc = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    assert doc["match"] is True and doc["inconclusive"] is False, name
    return tuple(_nonzero({int(k): v for k, v in doc[side]["dims"].items()})
                 for side in ("supports", "twisted"))


def test_four_variable_tables_are_their_closed_forms():
    torus = {k + 1: comb(4, k) for k in range(1, 5)}
    assert torus == {2: 4, 3: 6, 4: 4, 5: 1}
    assert _recorded("dwork-check-x1x2x3x4.json") == (torus, torus)
    inv = _invariant_count((3, 3, 3, 3))
    assert inv == 6
    cubes = {2: 1, 4: inv, 5: inv}
    assert _recorded("dwork-check-cubes4.json") == (cubes, cubes)
