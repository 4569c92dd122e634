"""Čech–de Rham complement cohomology: frozen values, exactness, reference."""

from fractions import Fraction

import pytest

from dworklab import complement_cohomology, parse_poly
from dworklab.weyl.cech import CechDeRham, complement_rung
from dworklab.weyl.linalg import Echelon
from dworklab.weyl.poly import MultiPoly

import oracles

X = ("x",)
XY = ("x", "y")


def _decoded(cx, row):
    """A row keyed by (I, mono, mask) columns instead of integer codes."""
    return {cx.column(code): v for code, v in row.items()}

CASES = [
    (["x"], X, {0: 1, 1: 1}),
    (["x^2"], X, {0: 1, 1: 1}),
    (["x^2-1"], X, {0: 1, 1: 2}),
    (["x^3-x"], X, {0: 1, 1: 3}),
    (["x", "y"], XY, {0: 1, 1: 0, 2: 0, 3: 1}),
]


def _polys(texts, names):
    return [parse_poly(t, names) for t in texts]


@pytest.mark.parametrize("texts,names,expected", CASES)
def test_frozen_dimensions(texts, names, expected):
    res = complement_cohomology(_polys(texts, names))
    assert res.stabilized
    assert res.dims == expected
    assert [dims for _t, dims in res.rungs[-3:]] == [expected] * 3


@pytest.mark.parametrize("texts,names,ts", [
    (["x^2-1"], X, (0, 1, 2)),
    (["x", "y"], XY, (0, 1)),
    (["x^2-1/3"], X, (0, 1, 2)),
    (["x*y"], XY, (0, 1)),
    (["x^2*(x-1)"], X, (0, 1, 2)),
])
def test_rungs_match_reference(texts, names, ts):
    fs = _polys(texts, names)
    terms = [f.terms for f in fs]
    n = fs[0].nvars
    for t in ts:
        assert complement_rung(fs, t) == oracles.oracle_complement_rung(
            terms, n, t)


@pytest.mark.parametrize("texts,names", [
    (["x^2-1"], X),
    (["x*y"], XY),
    (["x", "y"], XY),
    # a constant section: rung t + 1's kernel window is not inside U's
    (["2"], X),
])
def test_rungs_after_a_ladder(texts, names):
    """A complex driven through rungs in order, then out of order, answers
    each rung as a fresh complex and the oracle do."""
    fs = _polys(texts, names)
    terms = [f.terms for f in fs]
    cx = CechDeRham(fs)
    want = {}
    for t in (0, 1, 2, 3, 1, 3, 0):
        if t not in want:
            want[t] = oracles.oracle_complement_rung(terms, cx.n, t)
        assert cx.rung(t) == CechDeRham(fs).rung(t) == want[t]


def _grade(I, mask):
    return len(I) - 1 + bin(mask).count("1")


def _rung_counting(monkeypatch, cx, t):
    """rung(t), with the (I, mask, pole) of every `diff_row` call and
    every row `Echelon.add` is given."""
    built, added = [], []
    diff_row, add = CechDeRham.diff_row, Echelon.add

    def counted_row(self, I, mono, mask, pole):
        built.append((I, mask, pole))
        return diff_row(self, I, mono, mask, pole)

    def counted_add(ech, row):
        added.append(row)
        return add(ech, row)

    monkeypatch.setattr(CechDeRham, "diff_row", counted_row)
    monkeypatch.setattr(Echelon, "add", counted_add)
    dims = cx.rung(t)
    monkeypatch.undo()
    return dims, built, added


def test_ladder_carries_kernels_and_skips_dependent_rows(monkeypatch):
    """Rung 1 after rung 0 builds pole-P kernel rows only in the top grade,
    and leaves out U rows whose basis element leads a grade-(q-2) kernel
    pivot."""
    cx = CechDeRham(_polys(["x", "y"], XY))
    cx.rung(0)
    _dims, built, added = _rung_counting(monkeypatch, cx, 1)
    P, D = cx.schedule(1)
    top = cx.n + cx.r - 1
    kernel = [(I, mask) for I, mask, pole in built if pole == P]
    assert kernel and all(_grade(I, mask) == top for I, mask in kernel)
    fed_u = sum(1 for _I, _mask, pole in built if pole == P + 1)
    size_u = sum(1 for I, _mono, mask in
                 cx.window_basis(P + 1, D + cx.maxdeg + 1)
                 if _grade(I, mask) < top)
    size_w = sum(1 for I, _mono, mask in cx.window_basis(P, D)
                 if _grade(I, mask) > 0)
    # each built row is added once, and so is each embedded W row
    assert len(added) == len(kernel) + fed_u + size_w
    assert fed_u < size_u


def test_widening_between_rungs_drops_the_carry(monkeypatch):
    """Carried lead sets are codes of the old width: once a `diff_row`
    call widens the codes, the next rung eliminates fresh kernels."""
    fs = _polys(["x", "y"], XY)
    cx = CechDeRham(fs)
    cx.rung(0)
    width = cx._codes.width
    cx.diff_row(cx.pieces[0], (1 << width, 0), 0, 1)
    assert cx._codes.width > width
    dims, built, _added = _rung_counting(monkeypatch, cx, 1)
    P = cx.schedule(1)[0]
    assert any(pole == P and _grade(I, mask) < cx.n + cx.r - 1
               for I, mask, pole in built)
    assert dims == CechDeRham(fs).rung(1)


@pytest.mark.parametrize("texts,names", [(["(x^2-1)^3"], X), (["x", "y"], XY)])
def test_embedded_window_rows_are_independent(texts, names):
    # the rung counts rank W as |W|: g_I^2 * x^mono over one grade's window
    cx = CechDeRham(_polys(texts, names))
    for t in (0, 1):
        P, D = cx.schedule(t)
        grades = {}
        for I, mono, mask in cx.window_basis(P, D):
            emb = MultiPoly(cx.n, {mono: Fraction(1)}) * cx.g[I] * cx.g[I]
            q = len(I) - 1 + bin(mask).count("1")
            grades.setdefault(q, []).append(
                {(I, mm, mask): c for mm, c in emb.terms.items()})
        assert sorted(grades) == list(range(cx.n + cx.r))
        for rows in grades.values():
            assert oracles.rank(rows) == len(rows)


@pytest.mark.parametrize("texts,names", [(["x^2-1"], X), (["x", "y"], XY)])
def test_total_differential_squares_to_zero(texts, names):
    cx = CechDeRham(_polys(texts, names))
    for t in (0, 1):
        P, D = cx.schedule(t)
        for I, mono, mask in cx.window_basis(P, D):
            # decoded at once: a later diff_row may widen the codes
            row = _decoded(cx, cx.diff_row(I, mono, mask, P))
            out = {}
            for (J, m2, mask2), c in row.items():
                for col, c2 in _decoded(
                        cx, cx.diff_row(J, m2, mask2, P + 1)).items():
                    s = out.get(col, Fraction(0)) + c * c2
                    if s:
                        out[col] = s
                    else:
                        out.pop(col, None)
            assert out == {}


def test_connected_cover_has_one_unit_class_per_rung():
    # grade 0 is exactly the constants at every rung, not just in the limit
    for texts, names, _exp in CASES:
        res = complement_cohomology(_polys(texts, names))
        for _t, dims in res.rungs:
            assert dims[0] == 1
            assert all(v >= 0 for v in dims.values())


def test_piece_enumeration():
    cx = CechDeRham(_polys(["x", "y"], XY))
    assert cx.pieces == [(0,), (1,), (0, 1)]
    assert cx.g[(0, 1)].terms == {(1, 1): Fraction(1)}


def test_bad_inputs_rejected():
    with pytest.raises(ValueError):
        CechDeRham([])
    with pytest.raises(ValueError):
        CechDeRham(_polys(["x", "0"], XY))
    with pytest.raises(ValueError):
        CechDeRham([parse_poly("x", X), parse_poly("x*y", XY)])


def test_ladder_can_give_up():
    res = complement_cohomology(_polys(["x^2-1"], X), t_max=1)
    assert not res.stabilized
    assert res.dims is None
    assert len(res.rungs) == 2
