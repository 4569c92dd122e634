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
"""

import random
from fractions import Fraction
from math import prod

from dworklab import dwork_compare, parse_poly, twisted_cohomology

NAMES = ("x", "y", "z")


def _nonzero(dims):
    return {k: v for k, v in dims.items() if v}


def _brieskorn(exponents):
    names = NAMES[:len(exponents)]
    text = " + ".join(f"{v}^{a}" for v, a in zip(names, exponents))
    return parse_poly(text, names)


def _invariant_count(a, b):
    """#{(k1, k2) : 1 <= k1 < a, 1 <= k2 < b, k1/a + k2/b an integer}."""
    return sum(1 for k1 in range(1, a) for k2 in range(1, b)
               if (Fraction(k1, a) + Fraction(k2, b)).denominator == 1)


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


def test_supported_table_counts_invariant_eigenvalues():
    rng = random.Random(1966)
    cases = [(rng.randint(2, 5), rng.randint(2, 5)) for _ in range(6)]
    # the draw must reach both shapes of the table
    assert {_invariant_count(a, b) > 0 for a, b in cases} == {False, True}
    for a, b in cases:
        inv = _invariant_count(a, b)
        want = _nonzero({2: 1 + inv, 3: inv})
        cmp = dwork_compare([_brieskorn((a, b))])
        assert not cmp.inconclusive and cmp.match, (a, b)
        assert _nonzero(cmp.supports.dims) == want, (a, b)
        assert _nonzero(cmp.twisted.dims) == want, (a, b)
