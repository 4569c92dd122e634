"""Supported cohomology and the twisted-vs-supports dimension comparison."""

import hashlib
import random
import weakref
from fractions import Fraction

import pytest

from dworklab import (
    complement_cohomology,
    dwork_compare,
    parse_poly,
    supports_cohomology,
    twisted_cohomology,
)
from dworklab.weyl import forms
from dworklab.weyl.cech import CechDeRham
from dworklab.weyl.compare import _nonzero, dwork_twist
from dworklab.weyl.forms import masks_of_degree
from dworklab.weyl.linalg import Echelon
from dworklab.weyl.poly import MultiPoly
from dworklab.weyl.twisted import TwistedComplex

import oracles

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


def test_a_disconnected_complement_puts_its_extra_h0_in_degree_1(
        monkeypatch):
    # h^1_Z = h^0(complement) - 1 and h^{k+1}_Z = h^k(complement); no
    # input in the suite has a complement with h^0 above 1
    from dworklab.weyl import compare
    from dworklab.weyl.ladder import CohomologyReport
    monkeypatch.setattr(
        compare, "complement_cohomology",
        lambda fs, t_max=None: CohomologyReport("complement", {0: 2, 1: 3}))
    rep = supports_cohomology(_polys(["x"], X))
    assert rep.kind == "supports"
    assert rep.dims == {1: 1, 2: 3}


def test_inconclusive_when_capped():
    # a cap at the first cutoff (deg F + 1 = 4) runs a single rung
    cmp = dwork_compare(_polys(["x^2-1"], X), d_max=4)
    assert cmp.inconclusive and not cmp.match
    assert cmp.twisted.dims is None
    assert "not stabilize" in cmp.twisted.note
    cmp2 = dwork_compare(_polys(["x^2-1"], X), t_max=1)
    assert cmp2.inconclusive and not cmp2.match
    assert cmp2.supports.dims is None
    assert "not stabilize" in cmp2.supports.note


Z = {0: 0, 1: 0, 2: 0}
ONE = {0: 0, 1: 0, 2: 1}


@pytest.mark.parametrize("tables,caps,verdict,rungs", [
    # three agreeing rungs of a matching table: never continued
    ([ONE] * 5, {}, "match", 3),
    # zeros first, then the class: the ladder goes on and matches
    ([Z, Z, Z, ONE, ONE, ONE], {}, "match", 6),
    # zeros to the default cap, three agreeing: a mismatch
    ([Z] * 4, {}, "MISMATCH", 4),
    # the same at a cap the caller set, which may be what hides the class
    ([Z] * 4, {"d_max": 6}, "inconclusive", 4),
    ([Z] * 4, {"t_max": 4}, "inconclusive", 4),
    # the class shows at the cap only: no three agree there
    ([Z, Z, Z, ONE], {}, "inconclusive", 4),
], ids=["agree", "continued", "mismatch", "capped twisted", "capped poles",
        "unsettled"])
def test_tables_first_read_apart_go_on_to_the_caps(monkeypatch, tables, caps,
                                                   verdict, rungs):
    """The verdict on scripted rung tables, one per cutoff, against a
    complement that settles on h^0 = h^1 = 1, that is supports {2: 1}."""
    from dworklab.weyl import compare
    from dworklab.weyl.ladder import ladder

    def scripted(kind, script):
        return lambda *_a, **_k: ladder(kind, script.__getitem__,
                                        range(len(script)))

    # each side's ladder, continued by `to_cap` when the first stops differ
    monkeypatch.setattr(compare, "twisted_cohomology",
                        scripted("twisted", tables))
    monkeypatch.setattr(compare, "complement_cohomology",
                        scripted("complement", [{0: 1, 1: 1, 2: 0}] * 5))
    cmp = dwork_compare(_polys(["x"], X), **caps)
    got = ("inconclusive" if cmp.inconclusive
           else "match" if cmp.match else "MISMATCH")
    assert got == verdict
    assert len(cmp.twisted.rungs) == rungs
    continued = rungs > 3
    assert len(cmp.supports.rungs) == (5 if continued else 3)
    for rep in (cmp.twisted, cmp.supports):
        assert ("first tables differed in grades [2]" in rep.note) == continued
    settled = tables[-3] == tables[-2] == tables[-1]
    assert ("not stabilize" in cmp.twisted.note) == (not settled)


def test_a_window_too_small_for_a_class_is_not_a_mismatch():
    # x^9 + y^8 shows its class at cutoff 8: from cutoff 2 the twisted
    # side first reads zeros at 2, 4 and 6
    cmp = dwork_compare(_polys(["x^9+y^8"], XY), d0=2)
    assert cmp.match and not cmp.inconclusive
    assert [cut for cut, _dims in cmp.twisted.rungs] == list(range(2, 31, 2))
    assert _nonzero(cmp.twisted.dims) == _nonzero(cmp.supports.dims) == {2: 1}


def test_a_continued_comparison_builds_one_complex_per_side(monkeypatch):
    """First tables that differ continue the two ladders the first stops
    ran on: one complex per side is built, each cutoff runs once, and the
    reports, run to their caps, keep neither complex."""
    built, ran = [], []
    for cls in (TwistedComplex, CechDeRham):
        def init(self, *args, _init=cls.__init__):
            built.append((type(self).__name__, weakref.ref(self)))
            _init(self, *args)

        def rung(self, cut, _rung=cls.rung):
            ran.append((type(self).__name__, cut))
            return _rung(self, cut)

        monkeypatch.setattr(cls, "__init__", init)
        monkeypatch.setattr(cls, "rung", rung)
    cmp = dwork_compare(_polys(["x^9+y^8"], XY), d0=2)
    assert "first tables differed in grades [2]" in cmp.supports.note
    assert [kind for kind, _ref in built] == ["TwistedComplex", "CechDeRham"]
    assert [ref() for _kind, ref in built] == [None, None]
    assert [cut for kind, cut in ran
            if kind == "TwistedComplex"] == list(range(2, 31, 2))
    assert [t for kind, t in ran if kind == "CechDeRham"] == list(range(10))
    # the continued reports read the rungs of those runs, once each
    assert [cut for cut, _dims in cmp.twisted.rungs] == list(range(2, 31, 2))
    assert [t for t, _dims in cmp.supports.rungs] == list(range(10))


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


# (Echelon.add calls, sha256 of their repr) of each ladder of x^3 - x,
# recorded before the complexes split into weight blocks; the Čech pair
# again when its rung began to leave out the embedded W rows a record of
# the rung before shows dependent (the same rows in the same order, 23
# of the 120 left out)
UNBLOCKED_FEEDS = {
    "TwistedComplex": (282, "7bc3ce8c6efe2eeeb5fa75b8c4de3caf"
                            "6f5adca08e6cc085f322c14f8f808bde"),
    "CechDeRham": (97, "ed06af0d0594aaf794e3bf9d70d4cc3f"
                       "e87f10afa17c0bfbd3abe294a8279e24"),
}


def test_an_input_without_a_torus_is_one_block(monkeypatch):
    """x^3 - x has no Euler field on either side: each complex has one
    block holding every basis element, and its ladder feeds
    `Echelon.add` the same rows, in the same order, as before blocks."""
    fs = _polys(["x^3-x"], X)
    F = dwork_twist(fs)
    tw = TwistedComplex(F, 30)
    ce = CechDeRham(fs, 9)
    assert tw.weights == ce.weights == []
    for k in range(tw.n + 1):
        every = [row for e in range(9) for mask in masks_of_degree(tw.n, k)
                 for mono in oracles.graded_monomials(tw.n, e)
                 if sum(mono) == e and (row := tw.apply(mono, mask))]
        assert [row for e in range(9) for row in tw.rows(k, e)] == every
    P, D = ce.schedule(0)
    # stage s of the piece holds its elements of degree P·deg g + s, and
    # stage 0 every lower degree too
    low = P * ce.g[ce.pieces[0]].degree()
    assert sorted((I, mono, mask) for q in range(ce.n + ce.r)
                  for s, stage in enumerate(ce._stages(P, q, D))
                  for I, mask, _fields, pairs in stage
                  for mono, _code in pairs
                  if sum(mono) == low + s or s == 0 and sum(mono) <= low
                  ) == sorted(
        (I, mono, mask) for I in ce.pieces for mask in range(1 << ce.n)
        for mono in oracles.graded_monomials(ce.n,
                                             P * ce.g[I].degree() + D))
    for cx, rungs in ((tw, twisted_cohomology(F).rungs),
                      (ce, complement_cohomology(fs).rungs)):
        added = []
        add = Echelon.add

        def counted(ech, row, add=add):
            added.append(row)
            return add(ech, row)

        monkeypatch.setattr(Echelon, "add", counted)
        for cut, dims in rungs:
            assert cx.rung(cut) == dims
        monkeypatch.undo()
        count, digest = UNBLOCKED_FEEDS[type(cx).__name__]
        assert len(added) == count
        assert hashlib.sha256(repr(added).encode()).hexdigest() == digest


@pytest.mark.parametrize("texts,names", [(["x", "y"], XY), (["x^2+y^3"], XY)])
def test_each_degree_is_walked_once(monkeypatch, texts, names):
    """A whole ladder of either complex walks no degree twice: one
    weight index per complex serves every rung and window."""
    fs = _polys(texts, names)
    F = dwork_twist(fs)
    for cx, rungs in ((TwistedComplex(F, 30), twisted_cohomology(F).rungs),
                      (CechDeRham(fs, 9), complement_cohomology(fs).rungs)):
        walked = []
        walk = forms.WeightBlocks.__missing__

        def counted(index, e, walk=walk):
            walked.append(e)
            return walk(index, e)

        monkeypatch.setattr(forms.WeightBlocks, "__missing__", counted)
        for cut, dims in rungs:
            assert cx.rung(cut) == dims
        monkeypatch.undo()
        assert walked
        assert len(walked) == len(set(walked)), type(cx).__name__
