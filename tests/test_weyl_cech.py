"""Čech–de Rham complement cohomology: frozen values, exactness, reference."""

from fractions import Fraction

import pytest

from dworklab import complement_cohomology, parse_poly
from dworklab.weyl.cech import CechDeRham, complement_rung
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
