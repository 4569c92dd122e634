"""Cohomology of the complement of a hypersurface union, by Čech–de Rham.

The cover is by the loci where each f_i is invertible.  A piece is a
nonempty index set I with denominator g_I = prod f_i; at rung t every
piece uses the uniform pole P = 1 + t and numerator degree bound
P*deg(g_I) + D_t, with D_t = D0 + step*t, step = max(2, max deg f_i),
D0 = max deg f_i + n + 1.  The total differential combines the Čech
coboundary with the (−1)^p-signed de Rham differential; outputs live one
pole higher, so the image U of the next window is compared with the
window W after embedding W two poles up (multiply by g_I^2).  Each grade
makes one elimination for its kernel and feeds one echelon U, then W:
its size after U is rank U and after W is rank(U ∪ W), and rank W is the
number of window elements, since multiplying by g_I^2 is injective and
distinct (I, dx) parts use disjoint columns.  Then
dim(U ∩ W) = rank U + |W| − rank(U ∪ W).

Each f_i is first multiplied by the lcm of its coefficient denominators.
That changes no window and no image subspace, and it makes every row
integer.

The uniform pole is what makes the answer insensitive to repeated
factors: a non-reduced f skips odd denominator powers, so any schedule
that hands lower poles to lower form degrees keeps primitives just out
of reach at every rung.

Columns (I, x^mono, dx_mask) are `linalg.GradedCodes` integers with
piece_index[I] << n | mask in the low bits, so integer order is (degree,
mono, piece, mask).  The digit width W is the bit length of a bound on
the largest exponent any row built so far can reach: a pole-p row of
degree e reaches at most e + p·max deg f_i + deg g, and a rung's widest
rows are its image rows at pole P + 1.  Each rung (and each `diff_row`
called on its own) fits W before it builds anything, so the codes never
widen inside a rung; no elimination state outlives a rung, so widening
only drops the templates.  Rows are built from one template per
(I, mask, pole): the -pole·dg_I[j] and Čech terms merged into one part
of code offsets, plus a g_I part per variable j scaled by mono[j].  A
row is the template shifted by code(mono); the scaled parts can meet the
merged one, so they are added entry by entry.  The embedded window rows
shift the terms of g_I², formed once per piece, the same way.
"""

from __future__ import annotations

from itertools import combinations

from .forms import add_into, masks_of_degree, wedge_sign
from .ladder import ladder
from .linalg import Echelon, GradedCodes, rank
from .poly import MultiPoly, graded_monomials


def _int_terms(p):
    """Coefficients of a polynomial with integer coefficients, as ints."""
    return {m: int(c) for m, c in p.terms.items()}


class CechDeRham:
    def __init__(self, fs):
        if not fs:
            raise ValueError("need at least one polynomial")
        self.n = fs[0].nvars
        for f in fs:
            if f.nvars != self.n:
                raise ValueError("mixed variable rings")
            if f.is_zero():
                raise ValueError("zero polynomial has empty invertible locus")
        self.fs = [f * f.denominator() for f in fs]
        self.r = len(fs)
        self.pieces = []
        for size in range(1, self.r + 1):
            self.pieces.extend(combinations(range(self.r), size))
        self.piece_index = {I: i for i, I in enumerate(self.pieces)}
        self.g = {}
        self.g_int = {}
        self.dg = {}
        self.squares = {}
        for I in self.pieces:
            gI = MultiPoly.constant(self.n, 1)
            for i in I:
                gI = gI * self.fs[i]
            self.g[I] = gI
            self.g_int[I] = _int_terms(gI)
            self.dg[I] = [_int_terms(gI.diff(j)) for j in range(self.n)]
            self.squares[I] = _int_terms(gI * gI)
        self.maxdeg = max(f.degree() for f in self.fs)
        self._gdeg = max(g.degree() for g in self.g.values())
        self._pole_cache = {}
        self._codes = GradedCodes(
            self.n, self.n + (len(self.pieces) - 1).bit_length(), 0)
        self._templates = {}

    def _reach(self, deg, pole):
        """Bound on the exponents of a pole-`pole` row of degree `deg`."""
        return deg + pole * self.maxdeg + self._gdeg

    def _fit(self, top):
        """Widen the codes, if needed, for exponents up to `top`."""
        if not self._codes.covers(top):
            self._codes = GradedCodes(self.n, self._codes.low, top)
            self._templates = {}

    def code(self, I, mono, mask):
        """Column code of (I, x^mono, dx_mask); ValueError if it does not
        fit."""
        return self._codes.encode(mono, self.piece_index[I] << self.n | mask)

    def column(self, code):
        """(I, mono, mask) of a column code."""
        mono, fields = self._codes.decode(code)
        return (self.pieces[fields >> self.n], mono,
                fields & ((1 << self.n) - 1))

    def _cech_factor(self, I, j0, pole):
        """f_j0^pole * g_(I ∪ j0), cached per pole."""
        key = (I, j0, pole)
        got = self._pole_cache.get(key)
        if got is None:
            J = tuple(sorted(I + (j0,)))
            got = _int_terms((self.fs[j0] ** pole) * self.g[J])
            self._pole_cache[key] = got
        return got

    def _template(self, I, mask, pole):
        """(merged part, scaled parts) of x^0/g_I^pole dx_mask as code
        offsets: the merged part holds the -pole·dg_I[j] and Čech terms,
        and each scaled part (j, terms) the g_I terms of x^-e_j, to be
        scaled by mono[j]."""
        key = (I, mask, pole)
        tpl = self._templates.get(key)
        if tpl is not None:
            return tpl
        mono_code = self._codes.mono
        n, index = self.n, self.piece_index
        psign = -1 if (len(I) - 1) & 1 else 1
        merged, scaled = {}, []
        for j in range(n):
            sgn = wedge_sign(j, mask)
            if not sgn:
                continue
            sgn *= psign
            tgt = index[I] << n | mask | (1 << j)
            unit = mono_code(tuple(int(i == j) for i in range(n)))
            scaled.append((j, [(mono_code(m) - unit + tgt, sgn * c)
                               for m, c in self.g_int[I].items()]))
            for m, c in self.dg[I][j].items():
                add_into(merged, mono_code(m) + tgt, -pole * sgn * c)
        for j0 in range(self.r):
            if j0 in I:
                continue
            J = tuple(sorted(I + (j0,)))
            sgn = -1 if J.index(j0) & 1 else 1
            there = index[J] << n | mask
            for m, c in self._cech_factor(I, j0, pole).items():
                add_into(merged, mono_code(m) + there, sgn * c)
        tpl = self._templates[key] = (list(merged.items()), scaled)
        return tpl

    def diff_row(self, I, mono, mask, pole):
        """Total differential of x^mono/g_I^pole dx_mask, at pole + 1."""
        self._fit(self._reach(sum(mono), pole))
        merged, scaled = self._template(I, mask, pole)
        base = self._codes.mono(mono)
        row = {base + off: c for off, c in merged}
        for j, terms in scaled:
            s = mono[j]
            if s:
                for off, c in terms:
                    add_into(row, base + off, s * c)
        return row

    def window_basis(self, pole, D):
        out = []
        for I in self.pieces:
            monos = graded_monomials(self.n, pole * self.g[I].degree() + D)
            for k in range(self.n + 1):
                for mask in masks_of_degree(self.n, k):
                    out.extend((I, mono, mask) for mono in monos)
        return out

    def _by_grade(self, pole, D):
        """The window (pole, D), grouped by total grade."""
        grades = {}
        for I, mono, mask in self.window_basis(pole, D):
            q = (len(I) - 1) + bin(mask).count("1")
            grades.setdefault(q, []).append((I, mono, mask))
        return grades

    def schedule(self, t):
        """(P, D_t) at rung t, as in the module docstring."""
        d0, step = self.maxdeg + self.n + 1, max(2, self.maxdeg)
        return 1 + t, d0 + step * t

    def rung(self, t):
        """Windowed dims of every total grade q at rung t."""
        P, D = self.schedule(t)
        D_img = D + self.maxdeg + 1
        # the image rows are the widest this rung builds
        self._fit(self._reach((P + 1) * self._gdeg + D_img, P + 1))
        window = self._by_grade(P, D)
        image = self._by_grade(P + 1, D_img)
        codes = self._codes
        embed = {I: [(codes.mono(m), c) for m, c in sq.items()]
                 for I, sq in self.squares.items()}
        dims = {}
        for q in range(self.n + self.r):
            basis = window[q]
            rows = [row for I, mono, mask in basis
                    if (row := self.diff_row(I, mono, mask, P))]
            ker = len(basis) - rank(rows)
            if q == 0:
                dims[0] = ker
                continue
            ech = Echelon()
            for I, mono, mask in image[q - 1]:
                ech.add(self.diff_row(I, mono, mask, P + 1))
            rank_u = len(ech)
            for I, mono, mask in basis:
                base = codes.mono(mono) | self.piece_index[I] << self.n | mask
                ech.add({base + off: c for off, c in embed[I]})
            dims[q] = ker - (rank_u + len(basis) - len(ech))
        return dims


def complement_rung(fs, t):
    return CechDeRham(fs).rung(t)


def complement_cohomology(fs, t_max=8):
    """Ladder the rung index until three consecutive answers agree."""
    return ladder("complement", CechDeRham(fs).rung, range(t_max + 1))
