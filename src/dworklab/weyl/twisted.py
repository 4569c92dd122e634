"""Twisted de Rham cohomology with polynomial coefficients.

The differential is d + dF∧.  Rows are integer: F's gradient is scaled
once by L, the lcm of F's coefficient denominators, so each row is L
times the differential and every rank is unchanged.  Ranks are taken on
finite windows: a rung at cutoff D restricts coefficients to degree <=
D and computes the kernel there.  The image comes from the slacked
domain (degree <= D + deg F + 1); its echelon pivots are the rows'
largest graded columns, so dim(image ∩ window) is the number of pivots
of degree <= D.  Rungs are laddered (step 2) until three in a row agree.
"""

from __future__ import annotations

from .forms import add_into, masks_of_degree, wedge_sign
from .ladder import ladder
from .linalg import echelon, rank
from .poly import binom, count_monomials, graded_monomials


def _colkey(col):
    mono, mask = col
    return (sum(mono), mono, mask)


class TwistedComplex:
    def __init__(self, F):
        if F.is_zero():
            raise ValueError("zero twist")
        self.F = F
        self.n = F.nvars
        self.L = F.denominator()
        self.dF = [{m: int(c * self.L) for m, c in F.diff(j).terms.items()}
                   for j in range(self.n)]

    def apply(self, mono, mask):
        """L times the differential on the basis element x^mono dx_mask."""
        row = {}
        for j in range(self.n):
            sgn = wedge_sign(j, mask)
            if not sgn:
                continue
            tgt = mask | (1 << j)
            if mono[j]:
                dm = list(mono)
                dm[j] -= 1
                add_into(row, (tuple(dm), tgt), self.L * sgn * mono[j])
            for fm, fc in self.dF[j].items():
                mm = tuple(a + b for a, b in zip(mono, fm))
                add_into(row, (mm, tgt), sgn * fc)
        return row

    def rows(self, k, deg_bound):
        out = []
        for mask in masks_of_degree(self.n, k):
            for mono in graded_monomials(self.n, deg_bound):
                r = self.apply(mono, mask)
                if r:
                    out.append(r)
        return out

    def rung(self, D):
        """Windowed dimensions at cutoff D, every grade 0..n."""
        slack = self.F.degree() + 1
        dims = {}
        for k in range(self.n + 1):
            dom = count_monomials(self.n, D) * binom(self.n, k)
            ker = dom - rank(self.rows(k, D), key=_colkey)
            if k == 0:
                dims[0] = ker
                continue
            img = echelon(self.rows(k - 1, D + slack), _colkey)
            inside = sum(1 for mono, _mask in img if sum(mono) <= D)
            dims[k] = ker - inside
        return dims


def twisted_rung(F, D):
    return TwistedComplex(F).rung(D)


def twisted_cohomology(F, d0=None, d_max=20):
    """Ladder the window cutoff until three consecutive rungs agree."""
    first = d0 if d0 is not None else F.degree() + 1
    return ladder("twisted", TwistedComplex(F).rung, range(first, d_max + 1, 2))
