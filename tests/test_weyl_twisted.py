"""Twisted de Rham complex: frozen dimensions, exactness, reference agreement."""

from collections import Counter

import pytest

from dworklab import parse_poly, twisted_cohomology
from dworklab.weyl import twisted
from dworklab.weyl.compare import dwork_twist
from dworklab.weyl.forms import masks_of_degree
from dworklab.weyl.linalg import Echelon, rank
from dworklab.weyl.twisted import TwistedComplex

import oracles

X = ("x",)
XY = ("x", "y")
X4 = ("x1", "x2", "y1", "y2")


def _decoded(cx, row):
    """A row keyed by (mono, mask) columns instead of integer codes."""
    return {cx.column(code): v for code, v in row.items()}


def _rows_upto(cx, k, hi):
    """The rows of the weight-0 grade-k basis elements of degree <= hi,
    in degree order."""
    return [row for e in range(hi + 1) for row in cx.rows(k, e)]


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


@pytest.mark.parametrize("text,names", [
    ("x", X), ("x*y", XY), ("y*x^2", XY), ("y*(x^2-1/3)", XY),
    # the twist of x*y - 1/2: the engine eliminates one weight-0 block of
    # the mixed weight (1, -1), the oracle every row
    ("w*(x*y-1/2)", ("x", "y", "w")),
])
def test_rungs_match_reference(text, names):
    F = parse_poly(text, names)
    d0 = F.degree() + 1
    for D in (d0, d0 + 2):
        assert TwistedComplex(F, D).rung(D) == oracles.oracle_twisted_rung(
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
        assert dims == TwistedComplex(F, D).rung(D)


@pytest.mark.parametrize("text,names,_expected", CHEAP_CASES)
def test_stage_pivot_counts_match_ranks_of_all_rows(text, names, _expected):
    """Driven through its ladder, a complex holds, in every grade and at
    every stage it fed, as many pivots as the oracle rank of all rows up
    to that stage, the rows it left out included."""
    F = parse_poly(text, names)
    rungs = twisted_cohomology(F).rungs
    cx = TwistedComplex(F, rungs[-1][0])
    for D, dims in rungs:
        assert cx.rung(D) == dims
    assert cx._ranks
    for e, ranks in enumerate(cx._ranks):
        for k in range(cx.n + 1):
            rows = [_decoded(cx, r) for r in _rows_upto(cx, k, e)]
            assert ranks[k] == oracles.rank(rows)


@pytest.mark.parametrize("text,names,_expected", CHEAP_CASES)
def test_ladder_skips_rows_known_dependent(text, names, _expected,
                                           monkeypatch):
    """A ladder eliminates fewer rows than its stages hold: grade-k rows
    whose basis element leads a grade-(k-1) pivot are never added."""
    F = parse_poly(text, names)
    cutoffs = [D for D, _dims in twisted_cohomology(F).rungs]
    # built first: its weight lattice takes Echelon feeds of its own
    cx = TwistedComplex(F, cutoffs[-1])
    added = []
    add = Echelon.add

    def counted(ech, row):
        added.append(row)
        return add(ech, row)

    monkeypatch.setattr(Echelon, "add", counted)
    for D in cutoffs:
        cx.rung(D)
    monkeypatch.undo()
    fed = len(cx._ranks) - 1
    total = sum(len(_rows_upto(cx, k, fed)) for k in range(cx.n))
    # grade 0 has no pivots below it, so one variable leaves nothing out
    if cx.n == 1:
        assert len(added) == total
    else:
        assert len(added) < total


@pytest.mark.parametrize("text,names", [("x*y", XY), ("y*(x^3-x)", XY)])
def test_a_ladder_looks_up_each_block_at_most_twice(text, names,
                                                    monkeypatch):
    """Over a whole ladder, each (degree, mask) block is looked up once
    to build its rows and once to count its size, never again by a later
    rung."""
    lookups = Counter()
    block = TwistedComplex._block

    def counted(cx, e, mask):
        lookups[e, mask] += 1
        return block(cx, e, mask)

    monkeypatch.setattr(TwistedComplex, "_block", counted)
    res = twisted_cohomology(parse_poly(text, names))
    assert len(res.rungs) >= 3
    assert max(lookups.values()) <= 2


@pytest.mark.parametrize("text,names", [("x*y", XY), ("y*(x^2-1/3)", XY)])
def test_rungs_after_feeding_past_them(text, names):
    """A complex fed to a high cutoff answers lower cutoffs, in falling
    order, exactly as fresh complexes do."""
    F = parse_poly(text, names)
    cx = TwistedComplex(F, F.degree() + 5)
    cutoffs = range(F.degree() + 5, -1, -1)
    got = [cx.rung(D) for D in cutoffs]
    assert got == [TwistedComplex(F, D).rung(D) for D in cutoffs]


@pytest.mark.parametrize("text,names", [("x*y", XY), ("y*(x^2-1/3)", XY)])
def test_echelon_snapshots_match_prefix_ranks(text, names):
    """Fed degree by degree, the echelon's pivot count after each degree
    is the oracle rank of all rows up to that degree."""
    F = parse_poly(text, names)
    D = F.degree() + 3
    cx = TwistedComplex(F, D)
    for k in range(cx.n + 1):
        ech = Echelon()
        fed = []
        for e in range(D + 1):
            for row in cx.rows(k, e):
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


@pytest.mark.parametrize("text,names,_expected", CASES)
def test_differential_squares_to_zero(text, names, _expected):
    F = parse_poly(text, names)
    res = twisted_cohomology(F)
    cx = TwistedComplex(F, res.rungs[-1][0])
    for D, _dims in res.rungs:
        bound = D - 2 * F.degree()
        for k in range(cx.n):
            for mask in masks_of_degree(cx.n, k):
                for mono in oracles.graded_monomials(cx.n, max(bound, 0)):
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
    of the weight-0 block that `rows` covers splits as kernel + rank
    everywhere (alternating-sum form included)."""
    F = parse_poly(text, names)
    D = F.degree() + 3
    cx = TwistedComplex(F, D)
    doms, kers, ranks = [], [], []
    for k in range(cx.n + 1):
        rows = _rows_upto(cx, k, D)
        r_sparse = rank(rows)
        r_dense = oracles.rank([_decoded(cx, r) for r in rows])
        assert r_sparse == r_dense
        dom = cx.block_size(k, D)
        doms.append(dom)
        ranks.append(r_sparse)
        kers.append(dom - r_dense)
        assert kers[-1] >= 0
    assert sum((-1) ** k * d for k, d in enumerate(doms)) == \
        sum((-1) ** k * (ke + ra) for k, (ke, ra) in enumerate(zip(kers, ranks)))
    # reported window dims never exceed the kernel they are cut from
    dims = cx.rung(D)
    assert all(0 <= dims[k] <= kers[k] for k in range(cx.n + 1))


def _weight(cx, mono, mask):
    """The weight vector of x^mono dx_mask, from the complex's lattice."""
    return tuple(sum(w[j] * (mono[j] + (mask >> j & 1)) for j in range(cx.n))
                 for w in cx.weights)


def _block_rung(cx, lam, D):
    """(windowed dims, kernel dims) of the weight-`lam` block at cutoff D,
    every row built by `apply` over the block's basis and every rank the
    oracle's."""
    def basis(k, hi):
        return [(mono, mask) for mask in masks_of_degree(cx.n, k)
                for mono in oracles.graded_monomials(cx.n, hi)
                if _weight(cx, mono, mask) == lam]

    dims, kers = {}, {}
    for k in range(cx.n + 1):
        window = basis(k, D)
        kers[k] = len(window) - oracles.rank(
            [_decoded(cx, cx.apply(*b)) for b in window])
        image = [_decoded(cx, cx.apply(*b))
                 for b in basis(k - 1, D + cx.slack)] if k else []
        units = [{b: 1} for b in window]
        inside = (oracles.rank(image) + len(units)
                  - oracles.rank(image + units))
        dims[k] = kers[k] - inside
    return dims, kers


def test_a_nonzero_weight_block_adds_nothing_at_any_rung():
    """The twist of x*y - 1/2 has the Euler field -x d/dx + y d/dy.  Its
    weight-0 block gives every rung of the ladder, and blocks of weight
    1 and -2, closed forms included, add 0 at every rung."""
    F = dwork_twist([parse_poly("x*y-1/2", XY)])
    rungs = twisted_cohomology(F).rungs
    cx = TwistedComplex(F, rungs[-1][0])
    assert cx.weights == [(-1, 1, 0)]
    for D, dims in rungs:
        assert _block_rung(cx, (0,), D)[0] == dims
        for lam in ((1,), (-2,)):
            block, kers = _block_rung(cx, lam, D)
            assert any(kers.values())
            assert block == dict.fromkeys(dims, 0)


def test_rung_dims_nonnegative_everywhere():
    for text, names, _exp in CASES[:4]:
        res = twisted_cohomology(parse_poly(text, names))
        for _cut, dims in res.rungs:
            assert all(v >= 0 for v in dims.values())


def test_zero_twist_rejected():
    with pytest.raises(ValueError):
        TwistedComplex(parse_poly("0", X), 4)


def test_cap_below_the_first_cutoff_is_refused_before_any_complex(
        monkeypatch):
    def no_complex(*_args):
        raise AssertionError("a complex was built")

    monkeypatch.setattr(twisted, "TwistedComplex", no_complex)
    F = parse_poly("y*(x^2-1)", XY)  # first cutoff deg F + 1 = 4
    with pytest.raises(ValueError) as exc:
        twisted_cohomology(F, d_max=2)
    assert str(exc.value) == ("largest window cutoff 2 is below the first "
                              "cutoff 4")
    with pytest.raises(ValueError, match="cutoff 6 is below the first "
                                         "cutoff 8$"):
        twisted_cohomology(F, d0=8, d_max=6)


def test_ladder_can_give_up():
    res = twisted_cohomology(parse_poly("x*y", XY), d_max=4)
    assert not res.stabilized
    assert res.dims is None
    assert len(res.rungs) >= 1
