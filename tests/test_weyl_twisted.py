"""Twisted de Rham complex: frozen dimensions, exactness, reference agreement."""

import pytest

from dworklab import parse_poly, twisted_cohomology
from dworklab.weyl.forms import masks_of_degree
from dworklab.weyl.linalg import Echelon, rank
from dworklab.weyl.poly import binom, count_monomials, graded_monomials
from dworklab.weyl.twisted import TwistedComplex, twisted_rung

import oracles

X = ("x",)
XY = ("x", "y")
X4 = ("x1", "x2", "y1", "y2")


def _decoded(cx, row):
    """A row keyed by (mono, mask) columns instead of integer codes."""
    return {cx.column(code): v for code, v in row.items()}


def _graded(col):
    """The graded column order: degree, then exponents, then mask."""
    mono, mask = col
    return (sum(mono), mono, mask)

# stabilized dimensions, pinned by the dense reference implementation
CASES = [
    ("x", X, {0: 0, 1: 0}),
    ("x*y", XY, {0: 0, 1: 0, 2: 1}),
    ("y*(x^2-1)", XY, {0: 0, 1: 0, 2: 2}),
    ("y*x^2", XY, {0: 0, 1: 0, 2: 1}),
    ("y*(x^3-x)", XY, {0: 0, 1: 0, 2: 3}),
    ("x1*y1 + x2*y2", X4, {0: 0, 1: 0, 2: 0, 3: 0, 4: 1}),
]


@pytest.mark.parametrize("text,names,expected", CASES)
def test_frozen_dimensions(text, names, expected):
    res = twisted_cohomology(parse_poly(text, names))
    assert res.stabilized
    assert res.dims == expected
    # ladder bookkeeping: last three recorded rungs carry the answer
    assert [dims for _cut, dims in res.rungs[-3:]] == [expected] * 3


@pytest.mark.parametrize("text,names", [("x", X), ("x*y", XY), ("y*x^2", XY),
                                        ("y*(x^2-1/3)", XY)])
def test_rungs_match_reference(text, names):
    F = parse_poly(text, names)
    d0 = F.degree() + 1
    for D in (d0, d0 + 2):
        assert twisted_rung(F, D) == oracles.oracle_twisted_rung(
            F.terms, F.nvars, D)


# the four-variable case takes the dense oracle about 30 s per ladder
CHEAP_CASES = [case for case in CASES if len(case[1]) <= 2]


@pytest.mark.parametrize("text,names,_expected", CHEAP_CASES)
def test_ladder_rungs_match_reference_and_fresh_complexes(text, names,
                                                          _expected):
    """Every rung of the incremental ladder equals the oracle's and a
    fresh complex's answer at the same cutoff."""
    F = parse_poly(text, names)
    for D, dims in twisted_cohomology(F).rungs:
        assert dims == oracles.oracle_twisted_rung(F.terms, F.nvars, D)
        assert dims == TwistedComplex(F).rung(D)


@pytest.mark.parametrize("text,names,_expected", CHEAP_CASES)
def test_stage_pivot_counts_match_ranks_of_all_rows(text, names, _expected):
    """Driven through its ladder, a complex holds, in every grade and at
    every stage it fed, as many pivots as the oracle rank of all rows up
    to that stage, the rows it left out included."""
    F = parse_poly(text, names)
    cx = TwistedComplex(F)
    for D, dims in twisted_cohomology(F).rungs:
        assert cx.rung(D) == dims
    for k in range(cx.n + 1):
        stages = [e for e, _deg in cx._leads[k]]
        for e in range(cx._fed + 1):
            rows = [_decoded(cx, r) for r in cx.rows(k, e)]
            assert sum(1 for s in stages if s <= e) == oracles.rank(rows)


@pytest.mark.parametrize("text,names,_expected", CHEAP_CASES)
def test_ladder_skips_rows_known_dependent(text, names, _expected,
                                           monkeypatch):
    """A ladder eliminates fewer rows than its stages hold: grade-k rows
    whose basis element leads a grade-(k-1) pivot are never added."""
    F = parse_poly(text, names)
    cutoffs = [D for D, _dims in twisted_cohomology(F).rungs]
    added = []
    add = Echelon.add

    def counted(ech, row):
        added.append(row)
        return add(ech, row)

    monkeypatch.setattr(Echelon, "add", counted)
    cx = TwistedComplex(F)
    for D in cutoffs:
        cx.rung(D)
    monkeypatch.undo()
    total = sum(len(cx.rows(k, cx._fed)) for k in range(cx.n))
    # grade 0 has no pivots below it, so one variable leaves nothing out
    if cx.n == 1:
        assert len(added) == total
    else:
        assert len(added) < total


@pytest.mark.parametrize("text,names", [("x*y", XY), ("y*(x^2-1/3)", XY)])
def test_rungs_after_feeding_past_them(text, names):
    """A complex fed to a high cutoff answers lower cutoffs, in falling
    order, exactly as fresh complexes do."""
    F = parse_poly(text, names)
    cx = TwistedComplex(F)
    cutoffs = range(F.degree() + 5, -1, -1)
    got = [cx.rung(D) for D in cutoffs]
    assert got == [TwistedComplex(F).rung(D) for D in cutoffs]


@pytest.mark.parametrize("text,names", [("x*y", XY), ("y*(x^2-1/3)", XY)])
def test_echelon_snapshots_match_prefix_ranks(text, names):
    """Fed degree by degree, the echelon's pivot count after each degree
    is the oracle rank of all rows up to that degree."""
    cx = TwistedComplex(parse_poly(text, names))
    D = cx.F.degree() + 3
    for k in range(cx.n + 1):
        # built first, so the column codes do not widen inside the loop
        whole = cx.rows(k, D)
        ech = Echelon()
        fed = []
        for e in range(D + 1):
            for row in cx.rows(k, e, e):
                before = len(ech)
                lead = ech.add(row)
                assert (lead is None) == (len(ech) == before)
                if lead is not None:
                    pivot = ech.pivots[lead]
                    assert lead == max(pivot)
                    assert cx.column(lead) == max(map(cx.column, pivot),
                                                  key=_graded)
                fed.append(row)
            assert len(ech) == oracles.rank([_decoded(cx, r) for r in fed])
        assert fed == whole


@pytest.mark.parametrize("text,names,_expected", CASES)
def test_differential_squares_to_zero(text, names, _expected):
    F = parse_poly(text, names)
    cx = TwistedComplex(F)
    res = twisted_cohomology(F)
    for D, _dims in res.rungs:
        bound = D - 2 * F.degree()
        for k in range(cx.n):
            for mask in masks_of_degree(cx.n, k):
                for mono in graded_monomials(cx.n, max(bound, 0)):
                    # decoded at once: a later apply may widen the codes
                    row = _decoded(cx, cx.apply(mono, mask))
                    out = {}
                    for (m2, mask2), c in row.items():
                        for col, c2 in _decoded(cx,
                                                cx.apply(m2, mask2)).items():
                            s = out.get(col, 0) + c * c2
                            if s:
                                out[col] = s
                            else:
                                out.pop(col, None)
                    assert out == {}


@pytest.mark.parametrize("text,names", [("x*y", XY), ("y*(x^2-1)", XY)])
def test_rank_nullity_consistency(text, names):
    """Both eliminations agree grade by grade, and the window dimension
    splits as kernel + rank everywhere (alternating-sum form included)."""
    F = parse_poly(text, names)
    cx = TwistedComplex(F)
    D = F.degree() + 3
    doms, kers, ranks = [], [], []
    for k in range(cx.n + 1):
        rows = cx.rows(k, D)
        r_sparse = rank(rows)
        r_dense = oracles.rank([_decoded(cx, r) for r in rows])
        assert r_sparse == r_dense
        dom = count_monomials(cx.n, D) * binom(cx.n, k)
        doms.append(dom)
        ranks.append(r_sparse)
        kers.append(dom - r_dense)
        assert kers[-1] >= 0
    assert sum((-1) ** k * d for k, d in enumerate(doms)) == \
        sum((-1) ** k * (ke + ra) for k, (ke, ra) in enumerate(zip(kers, ranks)))
    # reported window dims never exceed the kernel they are cut from
    dims = cx.rung(D)
    assert all(0 <= dims[k] <= kers[k] for k in range(cx.n + 1))


def test_rung_dims_nonnegative_everywhere():
    for text, names, _exp in CASES[:4]:
        res = twisted_cohomology(parse_poly(text, names))
        for _cut, dims in res.rungs:
            assert all(v >= 0 for v in dims.values())


def test_zero_twist_rejected():
    with pytest.raises(ValueError):
        TwistedComplex(parse_poly("0", X))


def test_ladder_can_give_up():
    res = twisted_cohomology(parse_poly("x*y", XY), d_max=4)
    assert not res.stabilized
    assert res.dims is None
    assert len(res.rungs) >= 1
