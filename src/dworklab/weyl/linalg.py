"""Sparse exact row echelon over the integers, on integer column codes.

Rows are dicts mapping integer column codes to nonzero ints; callers
build them integer-native and choose the codes so that integer order is
their grading of the columns.  Elimination is fraction-free in the sense
of Bareiss: a row is copied once and then reduced in place, each update
cancels the lead by cross-multiplying with the two leads divided by
their gcd, and the row is divided by its content before every step, so
entries stay bounded, no rationals appear and every stored pivot row is
primitive.  Each pivot is the row's largest code, `max(row)`, compared
as plain integers.  Echelon rows then have distinct largest columns and
cannot cancel each other's leads, so when the codes order columns by
degree first, the span's part inside a window of degree <= D has
dimension equal to the number of pivots of degree <= D.

`Echelon` is the one elimination loop.  It grows one row at a time and
never replaces a pivot, so the pivots present after any prefix of the
rows are an echelon basis of that prefix's span: a caller that feeds
rows in stages can read the rank of every stage off the pivot count it
had then, without eliminating again.  `rank` is its one-shot form, and
`kernel_lattice` reads an integer kernel basis off one echelon.

`GradedCodes` is the column code both de Rham complexes use:

    code = ((deg << n*W | digits(mono)) << low) | fields

with deg = sum(mono), one W-bit digit per exponent (mono[0] most
significant) and `fields` (the caller's part index and wedge mask) in
the low bits.  While every exponent is below 2**W, integer order is
(degree, exponents lexicographically, fields), the code of a product of
monomials is the sum of their codes, and `code >> shift` is the degree.
A caller builds one `GradedCodes` per complex, sized from the largest
exponent its cap lets a row reach, and keeps it: W never changes, so a
code stays valid for the complex's life.  `covers` is the caller's check
against that cap, and `mono` the unchecked code of exponents under it, to
which the caller adds its fields.
"""

from __future__ import annotations

from math import gcd


class Echelon:
    """Fraction-free echelon basis, grown by `add`; `pivots` maps each
    lead column to its primitive pivot row."""

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots = {}

    def __len__(self):
        return len(self.pivots)

    def add(self, row):
        """Reduce `row` against the pivots; store it and return its lead
        column, or return None if it lies in their span.  The caller's
        dict is copied, never changed or kept."""
        pivots = self.pivots
        r = dict(row)
        while r:
            g = gcd(*r.values())
            if g > 1:
                for c in r:
                    r[c] //= g
            lead = max(r)
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = r
                return lead
            a, b = p[lead], r[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                for c in r:
                    r[c] *= a
            for c, v in p.items():
                s = r.get(c, 0) - b * v
                if s:
                    r[c] = s
                else:
                    del r[c]
        return None


def rank(rows):
    """Rank of the span of the rows."""
    ech = Echelon()
    for row in rows:
        ech.add(row)
    return len(ech)


def kernel_lattice(vectors, n):
    """Integer rows spanning {w in Q^n : w·v = 0 for every v}, as tuples.

    Row j of the matrix [identity | vectors as columns] is fed as
    {j: 1} ∪ {n + i: v_i[j]}.  Echelon leads are largest columns, so a
    pivot whose lead is below n has no entry in the vector part: it is a
    combination w of the unit rows with w·v_i = 0 for all i, and these
    pivots are as many as the kernel's dimension."""
    ech = Echelon()
    for j in range(n):
        row = {j: 1}
        for i, v in enumerate(vectors):
            if v[j]:
                row[n + i] = v[j]
        ech.add(row)
    return [tuple(p.get(j, 0) for j in range(n))
            for lead, p in sorted(ech.pivots.items()) if lead < n]


class GradedCodes:
    """Graded integer codes for `nvars` exponents plus `low` field bits,
    sized for every exponent <= `top` (see the module docstring)."""

    __slots__ = ("nvars", "low", "top", "width", "shift", "_digits")

    def __init__(self, nvars, low, top):
        self.nvars = nvars
        self.low = low
        self.top = top
        self.width = max(top, 1).bit_length()
        self._digits = nvars * self.width
        self.shift = self._digits + low

    def covers(self, top):
        """True if exponents <= `top` are within the size cap."""
        return top <= self.top

    def mono(self, mono):
        """Code of x^mono with zero fields, unchecked."""
        w = self.width
        d = 0
        for e in mono:
            d = d << w | e
        return (sum(mono) << self._digits | d) << self.low

    def decode(self, code):
        """(mono, fields) of a code."""
        w, mask = self.width, (1 << self.width) - 1
        d = code >> self.low
        mono = [0] * self.nvars
        for i in range(self.nvars - 1, -1, -1):
            mono[i] = d & mask
            d >>= w
        return tuple(mono), code & ((1 << self.low) - 1)
