"""Differential-form bookkeeping on bitmask wedge bases.

A k-form basis element is (monomial, mask) with popcount(mask) = k; the
mask's set bits are the wedged coordinate directions in increasing order.

A weight lattice is a list of integer rows w, one Euler field
E = sum_j w_j x_j d/dx_j each.  E scales x^mono dx_mask by w·(mono + mask),
with the mask read as its 0/1 vector; `weight` is the tuple of these
numbers over the rows, () for an empty lattice.

Both de Rham complexes have a differential of one shape on a basis
element x^mono dx_mask: q·d + c·dp∧, with q a polynomial, dp a list of
polynomials (one per variable) and c a constant.  The twisted side takes
q = L, dp = L·dF and c = 1; the Čech side takes q = g_I, dp = dg_I and
c = −pole.  `template` writes it once per mask as code offsets: a merged
part holding c·dp[j] dx_j∧dx_mask for each j, and one scaled part per j
holding q·x^{−e_j} dx_j∧dx_mask, since d contributes
mono[j]·q·x^{mono − e_j} there.  `shifted_row` then gives the row of one
monomial by adding code(mono) to every offset.
"""

from __future__ import annotations

from itertools import combinations

from .poly import monomials_of_degree


def masks_of_degree(nvars, k):
    out = []
    for bits in combinations(range(nvars), k):
        m = 0
        for b in bits:
            m |= 1 << b
        out.append(m)
    return out


def wedge_sign(j, mask):
    """Sign of dx_j wedged onto the front of dx_mask; 0 if j already used."""
    bit = 1 << j
    if mask & bit:
        return 0
    below = bin(mask & (bit - 1)).count("1")
    return -1 if below & 1 else 1


def add_into(row, col, val):
    s = row.get(col)
    s = val if s is None else s + val
    if s:
        row[col] = s
    else:
        row.pop(col, None)


def template(mono_code, nvars, mask, fields, q, dp, c, sign=1):
    """(merged, scaled) parts of q·d + c·dp∧ on x^0 dx_mask, every column
    carrying `fields`; q and each dp[j] map exponent tuples to
    coefficients.  merged maps code offset -> coefficient, in (j,
    monomial) order; scaled lists (j, [(offset, coefficient), ...]), the
    terms of q·x^{−e_j}, to be scaled by mono[j].  `sign` multiplies
    every term."""
    merged, scaled = {}, []
    for j in range(nvars):
        sgn = wedge_sign(j, mask) * sign
        if not sgn:
            continue
        tgt = fields | mask | 1 << j
        unit = mono_code(tuple(int(i == j) for i in range(nvars)))
        scaled.append((j, [(mono_code(m) - unit + tgt, sgn * v)
                           for m, v in q.items()]))
        for m, v in dp[j].items():
            add_into(merged, mono_code(m) + tgt, c * sgn * v)
    return merged, scaled


def shifted_row(base, mono, merged, scaled):
    """The row of x^mono from its (merged, scaled) template, shifted by
    base = code(mono)."""
    row = {base + off: v for off, v in merged.items()}
    for j, terms in scaled:
        s = mono[j]
        if s:
            for off, v in terms:
                add_into(row, base + off, s * v)
    return row


def weight(lattice, vec):
    """(w·vec for each row w of the lattice)."""
    return tuple(sum(a * b for a, b in zip(w, vec)) for w in lattice)


def mask_weight(lattice, nvars, mask):
    """The weight dx_mask adds to a basis element."""
    return weight(lattice, [mask >> j & 1 for j in range(nvars)])


class WeightBlocks(dict):
    """degree e -> {weight: [(mono, code(mono)), ...]}: the monomials of
    degree e whose weight is in `keys`, each list in graded order.  A
    degree is enumerated and weighed the first time it is asked for, so
    each monomial is weighed once for the life of the index."""

    def __init__(self, lattice, nvars, code, keys):
        super().__init__()
        self.lattice, self.nvars = lattice, nvars
        self.code, self.keys = code, keys

    def __missing__(self, e):
        groups = self[e] = {}
        for m in monomials_of_degree(self.nvars, e):
            key = weight(self.lattice, m)
            if key in self.keys:
                groups.setdefault(key, []).append((m, self.code(m)))
        return groups
