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
"""

import random
from fractions import Fraction
from itertools import product
from math import prod

from dworklab import dwork_compare, parse_poly, twisted_cohomology
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


def _newton_number(F):
    """2·V_2 - V_1 + 1 for a convenient F in x, y: the area of the hull
    of 0 and F's exponents by the shoelace formula over its monotone-chain
    hull, and the two axis intercepts."""
    points = sorted(set(F.terms) | {(0, 0)})

    def half(pts):
        out = []
        for p in pts:
            while len(out) > 1 and _turn(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    hull = half(points) + half(points[::-1])
    twice_area = sum(_turn((0, 0), a, b)
                     for a, b in zip(hull, hull[1:] + hull[:1]))
    intercepts = (max(a for a, b in F.terms if b == 0)
                  + max(b for a, b in F.terms if a == 0))
    return twice_area - intercepts + 1


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
