"""Sparse exact row echelon over the integers.

Rows are dicts mapping column keys to nonzero ints; callers build them
integer-native.  Elimination is fraction-free: updates use the two-row
cross-multiplication step, and every stored pivot row is divided by its
content, so entries stay bounded and no rationals appear mid-run.  Each
pivot is the row's largest column under the caller's grading.  Echelon
rows then have distinct largest columns and cannot cancel each other's
leads, so when the grading is by degree first, the span's part inside a
window of degree <= D has dimension equal to the number of pivots of
degree <= D.

`Echelon` is the one elimination loop.  It grows one row at a time and
never replaces a pivot, so the pivots present after any prefix of the
rows are an echelon basis of that prefix's span: a caller that feeds
rows in stages can read the rank of every stage off the pivot count it
had then, without eliminating again.  `rank` is its one-shot form.
"""

from __future__ import annotations

from math import gcd


def _primitive(row):
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


class Echelon:
    """Fraction-free echelon basis, grown by `add`; `pivots` maps each
    lead column to its primitive pivot row."""

    __slots__ = ("key", "pivots")

    def __init__(self, key):
        self.key = key
        self.pivots = {}

    def __len__(self):
        return len(self.pivots)

    def add(self, row):
        """Reduce `row` against the pivots; store it and return its lead
        column, or return None if it lies in their span."""
        pivots, key = self.pivots, self.key
        r = _primitive(row)
        while r:
            lead = max(r, key=key)
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = r
                return lead
            a, b = p[lead], r[lead]
            nxt = {}
            for c in set(r) | set(p):
                s = a * r.get(c, 0) - b * p.get(c, 0)
                if s:
                    nxt[c] = s
            r = _primitive(nxt)
        return None


def rank(rows, key):
    """Rank of the span of the rows; `key` orders the columns."""
    ech = Echelon(key)
    for row in rows:
        ech.add(row)
    return len(ech)
