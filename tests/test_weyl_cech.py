"""Čech–de Rham complement cohomology: frozen values, exactness, reference."""

from collections import Counter
from fractions import Fraction

import pytest

from dworklab import complement_cohomology, parse_poly
from dworklab.weyl.cech import MAX_POLE, CechDeRham
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
    # mixed weight (1, -1): the engine eliminates one weight-0 block, the
    # oracle every row
    (["x*y-1/2"], XY, (0, 1, 2)),
])
def test_rungs_match_reference(texts, names, ts):
    fs = _polys(texts, names)
    terms = [f.terms for f in fs]
    n = fs[0].nvars
    for t in ts:
        assert CechDeRham(fs, t).rung(t) == oracles.oracle_complement_rung(
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
    cx = CechDeRham(fs, 3)
    want = {}
    for t in (0, 1, 2, 3, 1, 3, 0):
        if t not in want:
            want[t] = oracles.oracle_complement_rung(terms, cx.n, t)
        assert cx.rung(t) == CechDeRham(fs, t).rung(t) == want[t]


def _grade(I, mask):
    return len(I) - 1 + bin(mask).count("1")


def _rung_counting(monkeypatch, cx, t):
    """rung(t), with the (I, mono, mask, pole) of every `diff_row` call
    and every row `Echelon.add` is given."""
    built, added = [], []
    diff_row, add = CechDeRham.diff_row, Echelon.add

    def counted_row(self, I, mono, mask, pole):
        built.append((I, mono, mask, pole))
        return diff_row(self, I, mono, mask, pole)

    def counted_add(ech, row):
        added.append(row)
        return add(ech, row)

    monkeypatch.setattr(CechDeRham, "diff_row", counted_row)
    monkeypatch.setattr(Echelon, "add", counted_add)
    dims = cx.rung(t)
    monkeypatch.undo()
    return dims, built, added


def _code(cx, I, mono, mask):
    """The column code of (I, x^mono, dx_mask), built as the complex
    builds it: the monomial's code with the piece and mask fields."""
    return cx._codes.mono(mono) | cx.piece_index[I] << cx.n | mask


def _window_codes(cx, pole, q, D):
    """Codes of grade q's weight-0 window (pole, D), read stage by stage."""
    return [base | fields for stage in cx._stages(pole, q, D)
            for _I, _mask, fields, pairs in stage for _mono, base in pairs]


def test_a_rung_after_its_predecessor_builds_no_pole_p_row(monkeypatch):
    """Rung 1 after rung 0 reads every rank d(W) from a record, so it
    builds no pole-P row, and leaves out exactly the U rows whose basis
    element leads a pivot of the record of (P, q - 2), and exactly the
    embedded W rows of grade q whose element leads a pivot of the record
    of (P - 1, q - 1): the rows d² = 0 proves dependent."""
    cx = CechDeRham(_polys(["x", "y"], XY), 1)
    cx.rung(0)
    P, D = cx.schedule(1)
    top = cx.n + cx.r - 1
    # U of grade q is grade q - 1 at pole P + 1; its skip is every lead of
    # the record of (P, q - 2)
    dependent = set()
    for q in range(2, top + 1):
        dependent.update(cx._records[P, q - 2][1])
    # W of grade q skips every window code that leads a pivot of rung 0's
    # d(W) record of grade q - 1
    window_w = {q: _window_codes(cx, P, q, D) for q in range(1, top + 1)}
    skipped = {code for q, codes in window_w.items() for code in codes
               if code in cx._records[P - 1, q - 1][1]}
    kept = [code for codes in window_w.values() for code in codes
            if code not in skipped]
    assert skipped

    def embedded(code):
        return {code + off: c for off, c in cx._embed[cx.column(code)[0]]}

    _dims, built, added = _rung_counting(monkeypatch, cx, 1)
    assert not [pole for *_, pole in built if pole == P]
    fed_u = [_code(cx, I, mono, mask) for I, mono, mask, pole in built
             if pole == P + 1]
    # the rung eliminates only the weight-0 block of each window
    window_u = [code for q in range(top)
                for code in _window_codes(cx, P + 1, q, D + cx.maxdeg + 1)]
    assert dependent and dependent <= set(window_u)
    assert sorted(fed_u) == sorted(set(window_u) - dependent)
    # each built row is added once, and so is each embedded W row above
    # grade 0 (whose rows are counted, not fed) that is not skipped
    size_w = sum(map(len, window_w.values()))
    assert len(added) == len(fed_u) + size_w - len(skipped)
    # what is added besides the built rows is the embedded rows kept
    rows = Counter(frozenset(row.items()) for row in added)
    rows.subtract(frozenset(cx.diff_row(*args).items()) for args in built)
    assert +rows == Counter(frozenset(embedded(code).items()) for code in kept)


def test_widening_is_refused_and_rungs_answer_in_any_order(monkeypatch):
    """Codes never widen between rungs: a `diff_row` call above the cap
    is refused and leaves the records for the next rung, which builds no
    pole-P row.  Rungs asked out of order, or again, equal fresh
    complexes' rungs."""
    fs = _polys(["x", "y"], XY)
    cx = CechDeRham(fs, 2)
    cx.rung(0)
    codes = cx._codes
    with pytest.raises(ValueError):
        cx.diff_row(cx.pieces[0], (1 << codes.width, 0), 0, 1)
    assert cx._codes is codes
    dims, built, _added = _rung_counting(monkeypatch, cx, 1)
    P = cx.schedule(1)[0]
    assert not [pole for *_, pole in built if pole == P]
    assert dims == CechDeRham(fs, 1).rung(1)
    cx = CechDeRham(fs, 2)
    for t in (2, 0, 1, 2, 0):
        assert cx.rung(t) == CechDeRham(fs, t).rung(t)


# (input, `diff_row` calls, `Echelon.add` calls that reduce to zero) of a
# whole Čech ladder
LADDER_WORK = [
    (["x^3+y^3+x"], 2276, 602),
    (["x", "y", "x+y"], 301, 28),
    (["y*(x^3-x)"], 218, 79),
    (["x*y-1/2"], 70, 26),
]


@pytest.mark.parametrize("texts,rows,zeros", LADDER_WORK)
def test_a_ladder_builds_and_reduces_the_pinned_rows(texts, rows, zeros,
                                                    monkeypatch):
    """The d² = 0 skips leave out the same rows whatever the feed order:
    a ladder builds as many rows, and as many reduce to zero, as when
    they were pinned."""
    counts = {"rows": 0, "zeros": 0}
    diff_row, add = CechDeRham.diff_row, Echelon.add

    def counted_row(self, *args):
        counts["rows"] += 1
        return diff_row(self, *args)

    def counted_add(ech, row):
        lead = add(ech, row)
        counts["zeros"] += lead is None
        return lead

    monkeypatch.setattr(CechDeRham, "diff_row", counted_row)
    monkeypatch.setattr(Echelon, "add", counted_add)
    assert complement_cohomology(_polys(texts, XY)).stabilized
    assert counts == {"rows": rows, "zeros": zeros}


@pytest.mark.parametrize("texts,names", [
    (["x^3-x"], X),
    # maxdeg 0: the schedule's step is 2, above maxdeg + 1
    (["2"], X),
    (["x*y-1/2"], XY),
    (["x", "y", "x+y"], XY),
    (["y*(x^3-x)"], XY),
    (["x^2+y^3+z^6"], ("x", "y", "z")),
])
def test_no_record_reaches_past_a_stage_read_one_pole_up(texts, names):
    """The d² = 0 skip at pole p + 1 uses every lead of a pole-p record,
    which is sound only if that record stops at or before both stages
    ever read at pole p + 1: D_p, by rung p's d(W), and
    D_(p−1) + maxdeg + 1, by rung p − 1's U.  So it must hold for every
    record, with rungs asked in order and out of order.  The complex's
    cap is one rung above the last asked, so a record goes as far as the
    feeds take it, not only as far as the code width allows."""
    fs = _polys(texts, names)
    for order in ((0, 1, 2, 3, 4), (3, 0, 2, 1, 4, 0)):
        cx = CechDeRham(fs, 5)
        for t in order:
            cx.rung(t)
            # one rung feeds each (pole, grade) at most once, so every
            # record written is still there when the rung returns
            for (pole, _q), (counts, _leads) in cx._records.items():
                reads = (cx.schedule(pole)[1],
                         cx.schedule(pole - 1)[1] + cx.maxdeg + 1)
                assert len(counts) - 1 <= min(reads), (order, t, pole)


def window_basis(cx, pole, D):
    """Every (I, mono, mask) of the window (pole, D) of the complex `cx`,
    every weight block included; `rung` eliminates only the weight-0
    one."""
    return [(I, mono, mask) for I in cx.pieces
            for mono in oracles.graded_monomials(
                cx.n, pole * cx.g[I].degree() + D)
            for mask in range(1 << cx.n)]


@pytest.mark.parametrize("texts,names", [(["(x^2-1)^3"], X), (["x", "y"], XY)])
def test_embedded_window_rows_are_independent(texts, names):
    # the rung counts rank W as |W|: g_I^2 * x^mono over one grade's window
    cx = CechDeRham(_polys(texts, names), 1)
    for t in (0, 1):
        P, D = cx.schedule(t)
        grades = {}
        for I, mono, mask in window_basis(cx, P, D):
            emb = MultiPoly(cx.n, {mono: Fraction(1)}) * cx.g[I] * cx.g[I]
            q = len(I) - 1 + bin(mask).count("1")
            grades.setdefault(q, []).append(
                {(I, mm, mask): c for mm, c in emb.terms.items()})
        assert sorted(grades) == list(range(cx.n + cx.r))
        for rows in grades.values():
            assert oracles.rank(rows) == len(rows)


@pytest.mark.parametrize("texts,names", [(["x^2-1"], X), (["x", "y"], XY)])
def test_total_differential_squares_to_zero(texts, names):
    cx = CechDeRham(_polys(texts, names), 1)
    for t in (0, 1):
        P, D = cx.schedule(t)
        for I, mono, mask in window_basis(cx, P, D):
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


def _block_rung(cx, lam, t):
    """(windowed dims, kernel dims) of the weight-`lam` block at rung t,
    every row built by `diff_row` over the block's basis, the embedded
    window rows by MultiPoly products, and every rank the oracle's."""
    P, D = cx.schedule(t)
    # d_i for each lattice row: the weight of any exponent of f_i
    degs = [[sum(a * b for a, b in zip(w, next(iter(f.terms))))
             for f in cx.fs] for w in cx.weights]

    def weight(I, mono, mask, pole):
        return tuple(sum(w[j] * (mono[j] + (mask >> j & 1))
                         for j in range(cx.n))
                     - pole * sum(d[i] for i in I)
                     for w, d in zip(cx.weights, degs))

    def basis(q, pole, bound):
        return [(I, mono, mask) for I in cx.pieces
                for mask in range(1 << cx.n) if _grade(I, mask) == q
                for mono in oracles.graded_monomials(
                    cx.n, pole * cx.g[I].degree() + bound)
                if weight(I, mono, mask, pole) == lam]

    dims, kers = {}, {}
    for q in range(cx.n + cx.r):
        window = basis(q, P, D)
        kers[q] = len(window) - oracles.rank(
            [_decoded(cx, cx.diff_row(I, m, mask, P))
             for I, m, mask in window])
        image = [_decoded(cx, cx.diff_row(I, m, mask, P + 1))
                 for I, m, mask in basis(q - 1, P + 1, D + cx.maxdeg + 1)
                 ] if q else []
        embedded = [
            {(I, mm, mask): c for mm, c in
             (MultiPoly(cx.n, {m: 1}) * cx.g[I] * cx.g[I]).terms.items()}
            for I, m, mask in window]
        inside = (oracles.rank(image) + len(window)
                  - oracles.rank(image + embedded))
        dims[q] = kers[q] - inside
    return dims, kers


def test_a_nonzero_weight_block_adds_nothing_at_any_rung():
    """x*y - 1/2 has the Euler field x d/dx - y d/dy, with d = 0.  Its
    weight-0 block gives every rung of the ladder, and blocks of weight
    1 and -2, closed forms included, add 0 at every rung."""
    fs = _polys(["x*y-1/2"], XY)
    rungs = complement_cohomology(fs).rungs
    cx = CechDeRham(fs, rungs[-1][0])
    assert cx.weights == [(1, -1)]
    for t, dims in rungs:
        assert _block_rung(cx, (0,), t)[0] == dims
        for lam in ((1,), (-2,)):
            block, kers = _block_rung(cx, lam, t)
            assert any(kers.values())
            assert block == dict.fromkeys(dims, 0)


def test_connected_cover_has_one_unit_class_per_rung():
    # grade 0 is exactly the constants at every rung, not just in the limit
    for texts, names, _exp in CASES:
        res = complement_cohomology(_polys(texts, names))
        for _t, dims in res.rungs:
            assert dims[0] == 1
            assert all(v >= 0 for v in dims.values())


def test_piece_enumeration():
    cx = CechDeRham(_polys(["x", "y"], XY), 0)
    assert cx.pieces == [(0,), (1,), (0, 1)]
    assert cx.g[(0, 1)].terms == {(1, 1): Fraction(1)}


def test_bad_inputs_rejected():
    with pytest.raises(ValueError):
        CechDeRham([], 0)
    with pytest.raises(ValueError):
        CechDeRham(_polys(["x", "0"], XY), 0)
    with pytest.raises(ValueError):
        CechDeRham([parse_poly("x", X), parse_poly("x*y", XY)], 0)


@pytest.mark.parametrize("t_max", [MAX_POLE, 10**6])
def test_a_pole_above_the_cap_is_refused_before_anything_is_built(t_max):
    # rung t_max has pole order t_max + 1; past the cap the complex raises
    # before it keys a single (piece, mask, pole)
    with pytest.raises(ValueError, match=f"largest pole order {t_max + 1} "
                       f"is above the cap of {MAX_POLE}"):
        CechDeRham(_polys(["x*y"], XY), t_max)


def test_a_complex_at_the_pole_cap_builds():
    cx = CechDeRham(_polys(["x*y"], XY), MAX_POLE - 1)
    assert cx.schedule(MAX_POLE - 1)[0] == MAX_POLE
    assert cx.rung(0) == CechDeRham(_polys(["x*y"], XY), 0).rung(0)


def test_ladder_can_give_up():
    res = complement_cohomology(_polys(["x^2-1"], X), t_max=1)
    assert not res.stabilized
    assert res.dims is None
    assert len(res.rungs) == 2
