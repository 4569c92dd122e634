"""Differential-form bookkeeping on bitmask wedge bases.

A k-form basis element is (monomial, mask) with popcount(mask) = k; the
mask's set bits are the wedged coordinate directions in increasing order.

A weight lattice is a list of integer rows w, one Euler field
E = sum_j w_j x_j d/dx_j each.  E scales x^mono dx_mask by w·(mono + mask),
with the mask read as its 0/1 vector; `weight` is the tuple of these
numbers over the rows, () for an empty lattice.
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
