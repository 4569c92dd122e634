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


def echelon(rows, key):
    """Echelon basis of the rows' span, keyed by each row's largest column."""
    pivots = {}
    for row in rows:
        r = _primitive(row)
        while r:
            lead = max(r, key=key)
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = r
                break
            a, b = p[lead], r[lead]
            nxt = {}
            for c in set(r) | set(p):
                s = a * r.get(c, 0) - b * p.get(c, 0)
                if s:
                    nxt[c] = s
            r = _primitive(nxt)
    return pivots


def rank(rows, key):
    """Rank of the span of the rows; `key` orders the columns."""
    return len(echelon(rows, key))
