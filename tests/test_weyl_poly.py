"""Exact multivariate polynomials and the infix parser."""

import time
from fractions import Fraction
from math import comb

import pytest

from dworklab import MultiPoly, ParseError, parse_poly, poly_to_str
from dworklab.weyl.poly import (
    MAX_COEFF_BITS,
    MAX_TERMS,
    count_monomials,
    default_names,
    graded_monomials,
)

XY = ("x", "y")
XYZ = ("x", "y", "z")


def test_parse_basic():
    p = parse_poly("y*(x^2-1)", XY)
    assert p.terms == {(2, 1): Fraction(1), (0, 1): Fraction(-1)}
    assert p.degree() == 3
    assert parse_poly("x**2", XY) == parse_poly("x^2", XY)
    assert parse_poly("3", XY) == MultiPoly.constant(2, 3)
    assert parse_poly("x/2", XY) == MultiPoly.variable(2, 0) * Fraction(1, 2)
    assert parse_poly("-x + +y", XY) == parse_poly("y - x", XY)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_poly("x + @", XY)
    with pytest.raises(ParseError):
        parse_poly("x + z", XY)  # undeclared variable
    with pytest.raises(ParseError):
        parse_poly("(x + y", XY)
    with pytest.raises(ParseError):
        parse_poly("x y", XY)  # trailing input
    with pytest.raises(ParseError):
        parse_poly("x / y", XY)  # division only by constants
    with pytest.raises(ParseError):
        parse_poly("x ^ y", XY)


def test_whitespace_around_a_polynomial_is_ignored():
    assert parse_poly("x^2+y^3 ", XY) == parse_poly("x^2+y^3", XY)
    assert parse_poly(" \tx^2+y^3\n ", XY) == parse_poly("x^2+y^3", XY)
    for blank in ("", "   ", "\t\n"):
        with pytest.raises(ParseError, match="^polynomial ended unexpectedly$"):
            parse_poly(blank, XY)
    with pytest.raises(ParseError, match="bad character '@' in polynomial at "
                                         "offset 4"):
        parse_poly("x + @ ", XY)


def test_nesting_is_bounded_and_sign_runs_are_read_in_a_loop():
    x = parse_poly("x", XY)
    assert parse_poly("(" * 100 + "x" + ")" * 100, XY) == x
    with pytest.raises(ParseError, match="deeper than 100 levels"):
        parse_poly("(" * 101 + "x" + ")" * 101, XY)
    assert parse_poly("-" * 5000 + "x", XY) == x
    assert parse_poly("-" * 5001 + "x", XY) == -x
    assert parse_poly("-+" * 3000 + "x^2", XY) == parse_poly("x^2", XY)
    assert parse_poly("--x^2", XY) == parse_poly("x^2", XY)


def test_degree_is_capped_before_expanding():
    assert parse_poly("x^64", XY).degree() == 64
    assert parse_poly("x^32*y^32", XY).degree() == 64
    assert parse_poly("(x*y)^32", XY).degree() == 64
    assert parse_poly("(x-x)^100 + 1^100", XY) == MultiPoly.constant(2, 1)
    for text in ("x^65", "(x^2)^33", "x^64*y", "x^8^9", "(x+y)^40*x^25"):
        with pytest.raises(ParseError, match="above the cap of 64"):
            parse_poly(text, XY)


def test_every_dense_power_parses_in_time_or_is_refused():
    """(x+y+z+1)^k has C(k + 3, 3) terms: up to the term cap it parses,
    each in under 1 s, and past it it is refused before expanding."""
    for k in range(65):
        terms = comb(k + 3, 3)
        t0 = time.perf_counter()
        if terms > MAX_TERMS:
            with pytest.raises(ParseError, match=(
                    f"^polynomial of up to {terms} terms is above the cap "
                    f"of {MAX_TERMS}$")):
                parse_poly(f"(x+y+z+1)^{k}", XYZ)
        else:
            assert len(parse_poly(f"(x+y+z+1)^{k}", XYZ).terms) == terms
        assert time.perf_counter() - t0 < 1.0, k


def test_product_terms_and_power_coefficients_are_capped_before_expanding():
    # a product predicts min(C(d + n, n), t1·t2) terms: 1771 here
    with pytest.raises(ParseError, match="up to 1771 terms"):
        parse_poly("(x+y+z+1)^10*(x+y+z+1)^10", XYZ)
    assert parse_poly("(x+y+1)^20*(x-y)", XY).degree() == 21
    # only the variables the factors use count: 43 terms, not C(45, 3)
    assert len(parse_poly("((y-2)^6)^7", XYZ).terms) == 43
    assert parse_poly("2^64^64", XY) == MultiPoly.constant(2, 2 ** 4096)
    assert parse_poly("(1/3)^2000", XY) == MultiPoly.constant(
        2, Fraction(1, 3 ** 2000))
    # a unit or zero base grows no bits, whatever the exponent
    assert parse_poly("(-1)^99999999999 + 0^7", XY) == MultiPoly.constant(
        2, -1)
    assert parse_poly("(x+y)^0 + x^0 + (x-x)^0 + 0^0", XY) == (
        MultiPoly.constant(2, 4))
    # a non-constant base is bounded by its largest coefficient
    assert parse_poly("(2^64^64*x + 1)^1", XY).terms[(1, 0)] == 2 ** 4096
    for text, bits in (("2^64^65", 4160), ("2^64^64^64^64*x", 262144),
                       ("(2^4096)^2", 8192), ("(2^64^64*x)^64", 262144),
                       ("(x + 1/2^64^64)^2", 8192)):
        with pytest.raises(ParseError, match=(
                f"^power with coefficients of {bits} bits is above the cap "
                f"of {MAX_COEFF_BITS}$")):
            parse_poly(text, XY)


def test_arithmetic():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert (x - x).is_zero()
    assert MultiPoly.zero(2).degree() == -1
    assert (x * y).degree() == 2
    assert -(x - y) == y - x
    assert 3 * x == x * 3
    with pytest.raises(ValueError):
        x * MultiPoly.variable(3, 0)


@pytest.mark.parametrize("k", [3, 16, 20])
def test_power_builds_no_product_above_its_degree(k, monkeypatch):
    p = parse_poly("x + y + 1", XY)
    degrees = []
    mul = MultiPoly.__mul__

    def counted(a, b):
        out = mul(a, b)
        degrees.append(out.degree())
        return out

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    got = p ** k
    monkeypatch.undo()
    assert max(degrees) == k * p.degree()
    want = MultiPoly.constant(2, 1)
    for _ in range(k):
        want = want * p
    assert got == want


def test_diff_and_extend():
    p = parse_poly("x^3*y - 2*x", XY)
    assert p.diff(0) == parse_poly("3*x^2*y - 2", XY)
    assert p.diff(1) == parse_poly("x^3", XY)
    q = p.extend(3)
    assert q.nvars == 3
    assert q.terms == {(3, 1, 0): Fraction(1), (1, 0, 0): Fraction(-2)}
    with pytest.raises(ValueError):
        q.extend(2)


def test_print_parse_round_trip():
    texts = ["0", "1", "x", "y*(x^2-1)", "x^3 - x", "x*y + 1",
             "2*x^2*y - 3*y + 1/2"]
    for text in texts:
        p = parse_poly(text, XY)
        assert parse_poly(poly_to_str(p, XY), XY) == p
    # printed form is itself stable under a second round
    p = parse_poly("y*(x^2-1) - x*y", XY)
    s = poly_to_str(p, XY)
    assert poly_to_str(parse_poly(s, XY), XY) == s


def test_default_names():
    assert default_names(1) == ("x",)
    assert default_names(2) == ("x", "y")
    assert default_names(3) == ("x", "y", "z")
    assert default_names(4) == ("x1", "x2", "x3", "x4")


def test_monomial_enumeration():
    for n in (1, 2, 3):
        for d in (0, 1, 4):
            monos = graded_monomials(n, d)
            assert len(monos) == count_monomials(n, d)
            assert len(set(monos)) == len(monos)
            assert all(len(m) == n and sum(m) <= d for m in monos)
            # graded order: total degree never decreases
            totals = [sum(m) for m in monos]
            assert totals == sorted(totals)
    assert graded_monomials(0, 3) == [()]
    assert count_monomials(2, -1) == 0
