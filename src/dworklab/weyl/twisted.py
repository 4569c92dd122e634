"""Twisted de Rham cohomology with polynomial coefficients.

The differential is d + dF∧.  Rows are integer: F's gradient is scaled
once by L, the lcm of F's coefficient denominators, so each row is L
times the differential and every rank is unchanged.  Ranks are taken on
finite windows: a rung at cutoff D restricts coefficients to degree <=
D and computes the kernel there.  The image comes from the slacked
domain (degree <= D + deg F + 1) and is intersected with the window.

Columns x^mono dx_mask are `linalg.GradedCodes` integers with the mask in
the low n bits, so integer order is (degree, mono, mask).  The digit
width W is the bit length of the largest exponent a row of the highest
domain degree asked for so far can reach (that degree + deg F - 1); when
a later rung or call needs more, the complex widens once and drops its
echelons, as `CechDeRham` drops its carry; the next rung feeds the same
stages again, in the same order, under the new codes.  A code is valid
until the next widening.  Rows are built from one template per mask: the
dF_j terms as code offsets, plus one offset per variable j scaled by
mono[j] (the d term).  A row of x^mono dx_mask is then the template
shifted by code(mono); no two of its terms share a column.

A complex keeps one incremental echelon per form degree k until its codes
widen.  Rows are fed in increasing domain degree e (the stage), each
degree once, and every new pivot records its stage and the degree of
its lead column, which is the row's largest graded column.  Pivots are
never replaced, so a rung at any cutoff D, rising or falling, eliminates
nothing new beyond the degrees it is the first to need; it reads two
counts:

* the kernel in grade k is dom - #{grade-k pivots of stage <= D};
* dim(image ∩ window) in grade k is #{grade-(k-1) pivots of stage
  <= D + slack and lead degree <= D}, because an echelon basis whose
  leads are largest columns is compatible with the degree filtration.

Grade k is fed after grade k - 1 at each stage, and a grade-k basis
element whose code leads a grade-(k-1) pivot is left out before its row
is built.  (d + dF∧)² = 0 puts that pivot in the kernel of the grade-k
rows, so the element's row is a combination of the rows of the pivot's
other columns, whose codes are smaller and whose degrees are no higher.
The rows fed through each stage therefore span what all its rows span,
and since an echelon with largest-column leads has a lead set fixed by
its span, every record and every count above is unchanged.

Rungs are laddered (step 2) until three in a row agree.
"""

from __future__ import annotations

from .forms import masks_of_degree, wedge_sign
from .ladder import ladder
# `rank` stays importable here: bench/spans.py traces it under this name.
from .linalg import Echelon, GradedCodes, rank  # noqa: F401
from .poly import binom, count_monomials, monomials_of_degree


def _row(base, mono, template):
    """The row of x^mono dx_mask: its mask's template shifted by
    base = code(mono)."""
    dF_terms, d_terms = template
    row = {base + off: c for off, c in dF_terms}
    for j, off, c in d_terms:
        if mono[j]:
            row[base + off] = c * mono[j]
    return row


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
        # how far a dF term raises an exponent
        self._rise = max(F.degree() - 1, 0)
        self._restart(0)

    def _restart(self, reach):
        """Start over, with nothing fed, on codes for exponents <= reach."""
        self._codes = GradedCodes(self.n, self.n, reach)
        self._templates = {}
        # top forms are closed, so grade n has no rows and no echelon
        self._echelons = [Echelon() for _ in range(self.n)]
        self._leads = [[] for _ in range(self.n + 1)]  # (stage, lead degree)
        self._fed = -1

    def _fit(self, top):
        """Widen the codes, if needed, for rows of domain degree <= top;
        widening drops every stage fed so far, for `_feed` to feed again."""
        reach = top + self._rise
        if not self._codes.covers(reach):
            # one spare bit: a ladder rising by two per rung seldom widens
            # again
            self._restart(2 * reach)

    def code(self, mono, mask=0):
        """Column code of x^mono dx_mask; ValueError if it does not fit."""
        return self._codes.encode(mono, mask)

    def column(self, code):
        """(mono, mask) of a column code."""
        return self._codes.decode(code)

    def _template(self, mask):
        """(dF terms, d terms) of dx_mask as code offsets and coefficients;
        a d term is (j, offset, coefficient), to be scaled by mono[j]."""
        tpl = self._templates.get(mask)
        if tpl is None:
            mono_code = self._codes.mono
            dF_terms, d_terms = [], []
            for j in range(self.n):
                sgn = wedge_sign(j, mask)
                if not sgn:
                    continue
                tgt = mask | (1 << j)
                unit = tuple(int(i == j) for i in range(self.n))
                d_terms.append((j, tgt - mono_code(unit), self.L * sgn))
                for fm, fc in self.dF[j].items():
                    dF_terms.append((mono_code(fm) | tgt, sgn * fc))
            tpl = self._templates[mask] = (dF_terms, d_terms)
        return tpl

    def apply(self, mono, mask):
        """L times the differential on the basis element x^mono dx_mask,
        keyed by column code."""
        self._fit(sum(mono))
        return _row(self._codes.mono(mono), mono, self._template(mask))

    def rows(self, k, hi, lo=0, *, exclude=()):
        """Nonzero grade-k rows of basis degrees lo..hi, in degree order,
        leaving out the basis elements whose codes are in `exclude`."""
        self._fit(hi)
        masks = masks_of_degree(self.n, k)
        mono_code = self._codes.mono
        out = []
        for e in range(lo, hi + 1):
            monos = [(m, mono_code(m)) for m in monomials_of_degree(self.n, e)]
            for mask in masks:
                tpl = self._template(mask)
                for mono, base in monos:
                    if base | mask in exclude:
                        continue
                    if row := _row(base, mono, tpl):
                        out.append(row)
        return out

    def _feed(self, top):
        """Feed every grade the rows of the degrees up to `top` not yet fed.

        A grade-k basis element whose code leads a grade-(k-1) pivot is
        left out before its row is built.  That pivot lies in the image
        of d + dF∧, hence in the kernel of the grade-k rows, so the
        element's row is a combination of the rows of the smaller codes
        in the pivot, none of higher degree.  By induction on code order
        the rows fed through each stage span what all rows of those
        stages span, and an echelon whose leads are largest columns has
        a lead set fixed by its span: every (stage, lead degree) record,
        and so every rung, is what feeding every row would give.
        """
        self._fit(top)
        shift = self._codes.shift
        # read after _fit: widening replaces the echelons
        below = [{}] + [ech.pivots for ech in self._echelons]
        for e in range(self._fed + 1, top + 1):
            for k, ech in enumerate(self._echelons):
                leads = self._leads[k]
                for row in self.rows(k, e, e, exclude=below[k]):
                    lead = ech.add(row)
                    if lead is not None:
                        leads.append((e, lead >> shift))
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
