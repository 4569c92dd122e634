"""Reference implementations used to pin expected cohomology dimensions.

Everything in here is deliberately written from scratch against the plain
mathematical definitions, sharing no code with the library: polynomials are
dicts keyed by exponent tuples with Fraction coefficients, and ranks come
from a row-dict Gaussian elimination over Fraction (the library uses
fraction-free integer elimination with a different pivot order).  Agreement
between the two paths is what the frozen values in the test suite rest on.

Conventions match the library's truncation windows exactly, so rung-by-rung
values are comparable, not just the stabilized ones:

* twisted rung D:  window = coefficient degree <= D; kernel of the exact
  twisted differential on the window; image computed from the slacked domain
  (degree <= D + deg F + 1) and intersected with the window.
* complement rung t (cover of the union of the D(f_i)):  pole P = 1 + t on
  every piece, numerator degree <= P*deg(g_I) + D_t with D_t = D0 + step*t,
  step = max(2, max deg f_i), D0 = max deg f_i + n + 1.  Image domain gets
  pole P + 1 and degree slack max deg f_i + 1.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

Mono = tuple  # exponent tuple, length = number of variables
Poly = dict  # Mono -> Fraction


# ---------------------------------------------------------------------------
# polynomial helpers


def p_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, Fraction(0)) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def p_scale(a: Poly, c) -> Poly:
    c = Fraction(c)
    if not c:
        return {}
    return {m: v * c for m, v in a.items()}


def p_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            s = out.get(m, Fraction(0)) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def p_pow(a: Poly, k: int, nvars: int) -> Poly:
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(k):
        out = p_mul(out, a)
    return out


def p_diff(a: Poly, j: int) -> Poly:
    out: Poly = {}
    for m, c in a.items():
        if m[j]:
            mm = list(m)
            mm[j] -= 1
            out[tuple(mm)] = c * m[j]
    return out


def p_deg(a: Poly) -> int:
    return max(sum(m) for m in a) if a else -1


def monomials_upto(nvars: int, d: int):
    """All exponent tuples of total degree <= d, in a fixed order."""
    out = []
    for total in range(d + 1):
        for m in itertools.combinations_with_replacement(range(nvars), total):
            e = [0] * nvars
            for i in m:
                e[i] += 1
            out.append(tuple(e))
    return out


def graded_monomials(nvars: int, d: int):
    """All exponent tuples of total degree <= d, in graded order: by total
    degree, then lexicographically."""
    return sorted(monomials_upto(nvars, d), key=lambda m: (sum(m), m))


def _nck(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


# ---------------------------------------------------------------------------
# rank over Fraction, row dicts


def rank(rows) -> int:
    """Gaussian elimination over Fraction; rows are dicts col->Fraction."""
    rows = [dict(r) for r in rows if r]
    rk = 0
    while rows:
        piv_col = min(min(r) for r in rows)
        piv_idx = next(i for i, r in enumerate(rows) if piv_col in r)
        piv = rows.pop(piv_idx)
        inv = Fraction(1) / piv[piv_col]
        piv = {c: v * inv for c, v in piv.items()}
        rk += 1
        nxt = []
        for r in rows:
            f = r.get(piv_col)
            if f:
                r = dict(r)
                for c, v in piv.items():
                    s = r.get(c, Fraction(0)) - f * v
                    if s:
                        r[c] = s
                    else:
                        r.pop(c, None)
            if r:
                nxt.append(r)
        rows = nxt
    return rk


def _wedge_sign(j: int, idx: tuple) -> int:
    """Sign of dx_j ^ dx_idx -> dx_{sorted}, or 0 if j is in idx."""
    if j in idx:
        return 0
    return -1 if sum(1 for i in idx if i < j) % 2 else 1


def _bump(row, col, val):
    s = row.get(col, Fraction(0)) + val
    if s:
        row[col] = s
    else:
        row.pop(col, None)


# ---------------------------------------------------------------------------
# twisted de Rham (polynomial coefficients, differential d + dF^)


def oracle_twisted_rung(F: Poly, nvars: int, D: int) -> dict:
    """Windowed dims of the twisted complex at cutoff D (all grades 0..n)."""
    degF = p_deg(F)
    slack = degF + 1
    big = D + slack + degF
    monos = monomials_upto(nvars, big)
    mono_index = {m: i for i, m in enumerate(monos)}
    dF = [p_diff(F, j) for j in range(nvars)]

    def col_of(m, idx):
        return mono_index[m] * (1 << nvars) + sum(1 << i for i in idx)

    def image_rows(k, dom_deg):
        rows = []
        for idx in itertools.combinations(range(nvars), k):
            for m in monomials_upto(nvars, dom_deg):
                row = {}
                g = {m: Fraction(1)}
                for j in range(nvars):
                    sgn = _wedge_sign(j, idx)
                    if not sgn:
                        continue
                    tgt = tuple(sorted(idx + (j,)))
                    coeff = p_add(p_diff(g, j), p_mul(g, dF[j]))
                    for mm, c in coeff.items():
                        _bump(row, col_of(mm, tgt), sgn * c)
                if row:
                    rows.append(row)
        return rows

    dims = {}
    for k in range(nvars + 1):
        n_dom = len(monomials_upto(nvars, D)) * _nck(nvars, k)
        ker = n_dom - rank(image_rows(k, D))
        if k == 0:
            dims[0] = ker
            continue
        img = image_rows(k - 1, D + slack)
        r_full = rank(img)
        outside = []
        for row in img:
            rr = {
                c: v
                for c, v in row.items()
                if sum(monos[c // (1 << nvars)]) > D
            }
            if rr:
                outside.append(rr)
        inter = r_full - rank(outside)
        dims[k] = ker - inter
    return dims


def oracle_twisted(F: Poly, nvars: int, d_max: int = 20, d0: int | None = None):
    """Ladder the rungs until three in a row agree; None if they never do."""
    D = d0 if d0 is not None else p_deg(F) + 1
    seen = []
    while D <= d_max:
        seen.append(oracle_twisted_rung(F, nvars, D))
        if len(seen) >= 3 and seen[-1] == seen[-2] == seen[-3]:
            return seen[-1]
        D += 2
    return None


# ---------------------------------------------------------------------------
# complement of the zero locus: Cech-de Rham over the cover by the D(f_i)


def _subsets(r):
    out = []
    for size in range(1, r + 1):
        out.extend(itertools.combinations(range(r), size))
    return out


def _prod(fs, I, nvars):
    out = {(0,) * nvars: Fraction(1)}
    for i in I:
        out = p_mul(out, fs[i])
    return out


def _cech_rows(fs, nvars, pole, D, col_of):
    """Total-differential rows applied to the (pole, D) window.

    An element of piece I is h / g_I^pole * dx_idx with deg h bounded by
    pole*deg(g_I) + D.  Output coordinates are numerators at pole+1 in the
    target piece (the Cech restriction is multiplied up by g_J to match).
    Each row is tagged with the total degree q of its domain element.
    """
    r = len(fs)
    rows = []
    for I in _subsets(r):
        gI = _prod(fs, I, nvars)
        dgI = [p_diff(gI, j) for j in range(nvars)]
        gdeg = p_deg(gI)
        p = len(I) - 1
        for k in range(nvars + 1):
            for idx in itertools.combinations(range(nvars), k):
                for m in monomials_upto(nvars, pole * gdeg + D):
                    row = {}
                    h = {m: Fraction(1)}
                    for j in range(nvars):
                        sgn = _wedge_sign(j, idx)
                        if not sgn:
                            continue
                        sgn *= -1 if p % 2 else 1
                        tgt = tuple(sorted(idx + (j,)))
                        num = p_add(
                            p_mul(p_diff(h, j), gI),
                            p_scale(p_mul(h, dgI[j]), -pole),
                        )
                        for mm, c in num.items():
                            _bump(row, col_of(I, mm, tgt), sgn * c)
                    for j0 in range(r):
                        if j0 in I:
                            continue
                        J = tuple(sorted(I + (j0,)))
                        a = J.index(j0)
                        sgn = -1 if a % 2 else 1
                        num = p_mul(h, p_mul(p_pow(fs[j0], pole, nvars), _prod(fs, J, nvars)))
                        for mm, c in num.items():
                            _bump(row, col_of(J, mm, idx), sgn * c)
                    rows.append((p + k, row))
    return rows


def oracle_complement_rung(fs, nvars: int, t: int, d0=None, step=None) -> dict:
    """Windowed dims of H^*(union of the D(f_i)) at rung t."""
    maxdeg = max(p_deg(f) for f in fs)
    if step is None:
        step = max(2, maxdeg)
    if d0 is None:
        d0 = maxdeg + nvars + 1
    P = 1 + t
    D = d0 + step * t
    slack = maxdeg + 1
    r = len(fs)

    bigdeg = (P + 2) * maxdeg * r + D + 3 * slack
    mono_index = {m: i for i, m in enumerate(monomials_upto(nvars, bigdeg))}
    pieces = {I: i for i, I in enumerate(_subsets(r))}

    def col_of(I, m, idx):
        return (pieces[I] * len(mono_index) + mono_index[m]) * (
            1 << nvars
        ) + sum(1 << i for i in idx)

    by_q_win: dict = {}
    for q, row in _cech_rows(fs, nvars, P, D, col_of):
        by_q_win.setdefault(q, []).append(row)
    by_q_img: dict = {}
    for q, row in _cech_rows(fs, nvars, P + 1, D + slack, col_of):
        by_q_img.setdefault(q, []).append(row)

    dims = {}
    for q in range(nvars + r):
        dom = 0
        for I in _subsets(r):
            gdeg = p_deg(_prod(fs, I, nvars))
            k = q - (len(I) - 1)
            if 0 <= k <= nvars:
                dom += len(monomials_upto(nvars, P * gdeg + D)) * _nck(nvars, k)
        ker = dom - rank([r_ for r_ in by_q_win.get(q, []) if r_])
        if q == 0:
            dims[0] = ker
            continue
        img_rows = [r_ for r_ in by_q_img.get(q - 1, []) if r_]
        # embed the pole-P window at pole P+2 (multiply by g_I^2) so it
        # shares coordinates with the image rows, then the 3-rank identity
        win_rows = []
        for I in _subsets(r):
            gI = _prod(fs, I, nvars)
            gI2 = p_mul(gI, gI)
            gdeg = p_deg(gI)
            k = q - (len(I) - 1)
            if not (0 <= k <= nvars):
                continue
            for idx in itertools.combinations(range(nvars), k):
                for m in monomials_upto(nvars, P * gdeg + D):
                    row = {}
                    for mm, c in p_mul({m: Fraction(1)}, gI2).items():
                        _bump(row, col_of(I, mm, idx), c)
                    win_rows.append(row)
        ra = rank(img_rows)
        rb = rank(win_rows)
        rab = rank(img_rows + win_rows)
        dims[q] = ker - (ra + rb - rab)
    return dims


def oracle_complement(fs, nvars: int, t_max: int = 8):
    seen = []
    for t in range(t_max + 1):
        seen.append(oracle_complement_rung(fs, nvars, t))
        if len(seen) >= 3 and seen[-1] == seen[-2] == seen[-3]:
            return seen[-1]
    return None


def oracle_supports(fs, nvars: int, t_max: int = 8):
    """H^*_Z(A^n) for Z the common zero locus, via the complement."""
    comp = oracle_complement(fs, nvars, t_max)
    if comp is None:
        return None
    out = {}
    h1 = comp.get(0, 0) - 1
    if h1:
        out[1] = h1
    for k, v in comp.items():
        if k >= 1 and v:
            out[k + 1] = v
    return out


# ---------------------------------------------------------------------------
# terms


def subterms(t, prefix=()):
    """(path, subterm) for every subterm of a term, in preorder.  A node's
    children are its `left` and `right` fields, or its `arg` field; a node
    with none of them is a leaf."""
    yield prefix, t
    kids = [getattr(t, name) for name in ("left", "right", "arg")
            if hasattr(t, name)]
    for i, c in enumerate(kids):
        yield from subterms(c, prefix + (i,))
