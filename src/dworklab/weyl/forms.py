"""Differential-form bookkeeping on bitmask wedge bases.

A k-form basis element is (monomial, mask) with popcount(mask) = k; the
mask's set bits are the wedged coordinate directions in increasing order.

A weight lattice is a list of integer rows w, one Euler field
E = sum_j w_j x_j d/dx_j each.  E scales x^mono dx_mask by w·(mono + mask),
with the mask read as its 0/1 vector; `weight` is the tuple of these
numbers over the rows, () for an empty lattice.  `WeightBlocks` finds
the monomials of a degree whose weight is one of a few keys without
weighing any: weights and keys are packed into single integers, each
column of the lattice adds one integer per exponent, and a walk over the
degree's simplex reads one dict lookup a monomial.

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
    degree is walked the first time it is asked for, so no degree is
    walked twice for the life of the index.

    No monomial is weighed.  Let M be the largest |component| that a key
    or a degree-e weight can have, the latter being at most e·max|w_ij|,
    and B the least power of two above 2·M.  A vector v packs to the
    integer sum_i v_i·B^i.  Two vectors with components in [−M, M]
    differ by less than B in each, and balanced base-B digits are
    unique, so they pack alike only if they are equal: a packed weight
    equals a packed key exactly when the weights do.  Column j of the
    lattice packs to c_j, and x^mono to sum_j mono[j]·c_j.  The walk
    takes the exponents of x_0 … x_{n−3} in ascending order, adding a·c_j
    per level; with r of the degree left and p the packed prefix, the
    last two variables then run through the progression
    p + r·c_{n−1} + a·(c_{n−2} − c_{n−1}) for x_{n−2}^a x_{n−1}^{r−a},
    a = 0 … r, one dict lookup a monomial.  That is `monomials_of_degree`
    order, so every list comes out graded.  The packed columns and keys
    are made once per B, which the degrees of one index share in runs."""

    def __init__(self, lattice, nvars, code, keys):
        super().__init__()
        self.lattice, self.nvars = lattice, nvars
        self.code, self.keys = code, keys
        self._wmax = max((abs(v) for w in lattice for v in w), default=0)
        self._kmax = max((abs(v) for key in keys for v in key), default=0)
        self._packings = {}

    def _packing(self, e):
        """(c_j for each column, {packed key: key}) in degree e's base."""
        shift = (2 * max(e * self._wmax, self._kmax)).bit_length()
        packing = self._packings.get(shift)
        if packing is None:
            def pack(vec):
                return sum(v << i * shift for i, v in enumerate(vec))

            packing = self._packings[shift] = (
                [pack([w[j] for w in self.lattice])
                 for j in range(self.nvars)],
                {pack(key): key for key in self.keys})
        return packing

    def __missing__(self, e):
        n, code = self.nvars, self.code
        cols, wanted = self._packing(e)
        groups = self[e] = {}
        if n < 2:
            # x_0^e alone, or () in degree 0: nothing to walk
            key = wanted.get(e * sum(cols))
            if key is not None and (n or not e):
                groups[key] = [((e,) * n, code((e,) * n))]
            return groups

        last = cols[-1]
        step = cols[-2] - last
        get, group = wanted.get, groups.setdefault

        def walk(j, rest, mono, packed):
            if j < n - 2:
                for a in range(rest + 1):
                    walk(j + 1, rest - a, mono + (a,), packed + a * cols[j])
                return
            packed += rest * last
            for a in range(rest + 1):
                key = get(packed)
                if key is not None:
                    m = mono + (a, rest - a)
                    group(key, []).append((m, code(m)))
                packed += step

        walk(0, e, (), 0)
        return groups
