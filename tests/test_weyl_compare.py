"""Supported cohomology and the twisted-vs-supports dimension comparison."""

import random
from fractions import Fraction

import pytest

from dworklab import (
    complement_cohomology,
    dwork_compare,
    parse_poly,
    supports_cohomology,
    twisted_cohomology,
)
from dworklab.weyl.compare import _nonzero, dwork_twist
from dworklab.weyl.poly import MultiPoly

X = ("x",)
XY = ("x", "y")

SUPPORT_CASES = [
    (["x"], X, {2: 1}),
    (["x^2"], X, {2: 1}),
    (["x^2-1"], X, {2: 2}),
    (["x^3-x"], X, {2: 3}),
    (["x", "y"], XY, {4: 1}),
]


def _polys(texts, names):
    return [parse_poly(t, names) for t in texts]


@pytest.mark.parametrize("texts,names,expected", SUPPORT_CASES)
def test_frozen_supported_dimensions(texts, names, expected):
    rep = supports_cohomology(_polys(texts, names))
    assert rep.stabilized
    assert rep.dims == expected


@pytest.mark.parametrize("texts,names,_expected", SUPPORT_CASES)
def test_long_exact_sequence_nodes(texts, names, _expected):
    """The supported table is forced, node by node, by the complement table
    and h^*(affine space) = {0: 1}."""
    fs = _polys(texts, names)
    comp = complement_cohomology(fs)
    sup = supports_cohomology(fs)
    n = fs[0].nvars
    r = len(fs)
    # degree 0 and 1 nodes: constants inject and split off
    assert comp.dims[0] >= 1
    assert sup.dims.get(1, 0) == comp.dims[0] - 1
    # higher nodes: isomorphisms h^k(U) = h^{k+1}_Z
    for k in range(1, n + r):
        assert sup.dims.get(k + 1, 0) == comp.dims.get(k, 0)
    # nothing supported in degree <= 0, nothing negative anywhere
    assert all(k >= 1 and v >= 0 for k, v in sup.dims.items())
    # alternating sums around the sequence cancel exactly
    chi_u = sum((-1) ** k * v for k, v in comp.dims.items())
    chi_z = sum((-1) ** k * v for k, v in sup.dims.items())
    assert chi_z == 1 - chi_u


@pytest.mark.parametrize("texts,names,expected", SUPPORT_CASES)
def test_comparison_matches_on_suite(texts, names, expected):
    cmp = dwork_compare(_polys(texts, names))
    assert not cmp.inconclusive
    assert cmp.match
    assert _nonzero(cmp.supports.dims) == expected
    assert _nonzero(cmp.twisted.dims) == expected


@pytest.mark.parametrize("text", ["x", "x^2-1", "x^3-x"])
def test_supports_insensitive_to_multiplicity(text):
    f = parse_poly(text, X)
    base = supports_cohomology([f]).dims
    assert supports_cohomology([f * f]).dims == base
    assert supports_cohomology([f * f * f]).dims == base


@pytest.mark.parametrize("text", ["x", "x^2-1"])
def test_twisted_side_insensitive_to_multiplicity(text):
    f = parse_poly(text, X)
    one = twisted_cohomology(dwork_twist([f]))
    two = twisted_cohomology(dwork_twist([f * f]))
    assert one.stabilized and two.stabilized
    assert _nonzero(one.dims) == _nonzero(two.dims)


def test_twist_construction():
    F = dwork_twist(_polys(["x", "y"], XY))
    assert F.nvars == 4
    assert F == parse_poly("x1*x3 + x2*x4", ("x1", "x2", "x3", "x4"))
    G = dwork_twist([parse_poly("x^2-1", X)])
    assert G == parse_poly("y*(x^2-1)", XY)


def test_nowhere_vanishing_section_matches_empty_tables():
    # constant nonzero f: empty zero locus, and the twist y*c has no
    # cohomology either -- the comparison holds with both sides blank
    cmp = dwork_compare([parse_poly("2", X)])
    assert cmp.match
    assert _nonzero(cmp.supports.dims) == {}
    assert _nonzero(cmp.twisted.dims) == {}


def test_inconclusive_when_capped():
    cmp = dwork_compare(_polys(["x^2-1"], X), d_max=2)
    assert cmp.inconclusive and not cmp.match
    assert cmp.twisted.dims is None
    assert "not stabilize" in cmp.twisted.note
    cmp2 = dwork_compare(_polys(["x^2-1"], X), t_max=1)
    assert cmp2.inconclusive and not cmp2.match
    assert cmp2.supports.dims is None
    assert "not stabilize" in cmp2.supports.note


def random_poly(rng):
    """Nonzero polynomial in 1 or 2 variables, degree <= 3, with up to four
    terms whose coefficients are +-1..3 over 1..3."""
    n = rng.choice((1, 2))
    terms = {}
    for _ in range(rng.randint(1, 4)):
        d = rng.randint(0, 3)
        a = rng.randint(0, d) if n == 2 else d
        mono = (a, d - a) if n == 2 else (d,)
        terms[mono] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                               rng.randint(1, 3))
    return MultiPoly(n, terms)


def test_seeded_random_comparisons_never_mismatch():
    """The theorem admits no mismatch: on seeded random inputs every
    comparison matches or honestly reports an unstabilized ladder."""
    verdicts = []
    for seed in range(20):
        f = random_poly(random.Random(seed))
        cmp = dwork_compare([f])
        assert cmp.match or cmp.inconclusive, (
            f"seed {seed}: {f} twisted {cmp.twisted.dims} "
            f"supports {cmp.supports.dims}")
        verdicts.append(cmp.match)
    # a generator that only produced inconclusive runs would test nothing
    assert sum(verdicts) >= len(verdicts) // 2
