"""Twisted de Rham cohomology with polynomial coefficients.

The differential is d + dF∧.  Rows are integer: F's gradient is scaled
once by L, the lcm of F's coefficient denominators, so each row is L
times the differential and every rank is unchanged.  Ranks are taken on
finite windows: a rung at cutoff D restricts coefficients to degree <=
D and computes the kernel there.  The image comes from the slacked
domain (degree <= D + deg F + 1) and is intersected with the window.

A complex keeps one incremental echelon per form degree k for its whole
life.  Rows are fed in increasing domain degree e (the stage), each
degree once, and every new pivot records its stage and the degree of
its lead column, which is the row's largest graded column.  Pivots are
never replaced, so a rung at any cutoff D, rising or falling, eliminates
nothing new beyond the degrees it is the first to need; it reads two
counts:

* the kernel in grade k is dom - #{grade-k pivots of stage <= D};
* dim(image ∩ window) in grade k is #{grade-(k-1) pivots of stage
  <= D + slack and lead degree <= D}, because an echelon basis whose
  leads are largest columns is compatible with the degree filtration.

Rungs are laddered (step 2) until three in a row agree.
"""

from __future__ import annotations

from .forms import add_into, masks_of_degree, wedge_sign
from .ladder import ladder
# `rank` stays importable here: bench/spans.py traces it under this name.
from .linalg import Echelon, rank  # noqa: F401
from .poly import binom, count_monomials, monomials_of_degree


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
        self.slack = F.degree() + 1
        # top forms are closed, so grade n has no rows and no echelon
        self._echelons = [Echelon(_colkey) for _ in range(self.n)]
        self._leads = [[] for _ in range(self.n + 1)]  # (stage, lead degree)
        self._fed = -1
        # one key object per column, shared by every stored row holding it
        self._cols = {}

    def apply(self, mono, mask):
        """L times the differential on the basis element x^mono dx_mask."""
        row = {}
        intern = self._cols.setdefault
        for j in range(self.n):
            sgn = wedge_sign(j, mask)
            if not sgn:
                continue
            tgt = mask | (1 << j)
            if mono[j]:
                dm = list(mono)
                dm[j] -= 1
                col = (tuple(dm), tgt)
                add_into(row, intern(col, col), self.L * sgn * mono[j])
            for fm, fc in self.dF[j].items():
                mm = tuple(a + b for a, b in zip(mono, fm))
                col = (mm, tgt)
                add_into(row, intern(col, col), sgn * fc)
        return row

    def rows(self, k, hi, lo=0):
        """Nonzero grade-k rows of basis degrees lo..hi, in degree order."""
        masks = masks_of_degree(self.n, k)
        out = []
        for e in range(lo, hi + 1):
            monos = list(monomials_of_degree(self.n, e))
            for mask in masks:
                for mono in monos:
                    r = self.apply(mono, mask)
                    if r:
                        out.append(r)
        return out

    def _feed(self, top):
        """Feed every grade the rows of the degrees up to `top` not yet fed."""
        for e in range(self._fed + 1, top + 1):
            for k, ech in enumerate(self._echelons):
                leads = self._leads[k]
                for row in self.rows(k, e, e):
                    lead = ech.add(row)
                    if lead is not None:
                        leads.append((e, sum(lead[0])))
        self._fed = max(self._fed, top)

    def rung(self, D):
        """Windowed dimensions at cutoff D, every grade 0..n."""
        top = D + self.slack
        self._feed(top)
        dims = {}
        for k in range(self.n + 1):
            dom = count_monomials(self.n, D) * binom(self.n, k)
            ker = dom - sum(1 for e, _deg in self._leads[k] if e <= D)
            inside = sum(1 for e, deg in self._leads[k - 1]
                         if e <= top and deg <= D) if k else 0
            dims[k] = ker - inside
        return dims


def twisted_rung(F, D):
    return TwistedComplex(F).rung(D)


def twisted_cohomology(F, d0=None, d_max=20):
    """Ladder the window cutoff until three consecutive rungs agree."""
    first = d0 if d0 is not None else F.degree() + 1
    return ladder("twisted", TwistedComplex(F).rung, range(first, d_max + 1, 2))
