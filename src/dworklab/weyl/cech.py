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
"""

from __future__ import annotations

from itertools import combinations

from .forms import add_into, masks_of_degree, wedge_sign
from .ladder import ladder
from .linalg import Echelon, rank
from .poly import MultiPoly, graded_monomials


def _int_terms(p):
    """Coefficients of a polynomial with integer coefficients, as ints."""
    return {m: int(c) for m, c in p.terms.items()}


def _shifted(terms, mono, scale):
    """Terms of poly * scale * x^mono."""
    out = {}
    for m, c in terms.items():
        out[tuple(a + b for a, b in zip(m, mono))] = c * scale
    return out


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
        for I in self.pieces:
            gI = MultiPoly.constant(self.n, 1)
            for i in I:
                gI = gI * self.fs[i]
            self.g[I] = gI
            self.g_int[I] = _int_terms(gI)
            self.dg[I] = [_int_terms(gI.diff(j)) for j in range(self.n)]
        self.maxdeg = max(f.degree() for f in self.fs)
        self._pole_cache = {}

    def _colkey(self, col):
        I, mono, mask = col
        return (sum(mono), mono, self.piece_index[I], mask)

    def _cech_factor(self, I, j0, pole):
        """f_j0^pole * g_(I ∪ j0), cached per pole."""
        key = (I, j0, pole)
        got = self._pole_cache.get(key)
        if got is None:
            J = tuple(sorted(I + (j0,)))
            got = _int_terms((self.fs[j0] ** pole) * self.g[J])
            self._pole_cache[key] = got
        return got

    def diff_row(self, I, mono, mask, pole):
        """Total differential of x^mono/g_I^pole dx_mask, at pole + 1."""
        row = {}
        p = len(I) - 1
        psign = -1 if p & 1 else 1
        for j in range(self.n):
            sgn = wedge_sign(j, mask)
            if not sgn:
                continue
            sgn *= psign
            tgt = mask | (1 << j)
            if mono[j]:
                dm = list(mono)
                dm[j] -= 1
                for mm, c in _shifted(self.g_int[I], tuple(dm),
                                      mono[j]).items():
                    add_into(row, (I, mm, tgt), sgn * c)
            for mm, c in _shifted(self.dg[I][j], mono, -pole).items():
                add_into(row, (I, mm, tgt), sgn * c)
        for j0 in range(self.r):
            if j0 in I:
                continue
            J = tuple(sorted(I + (j0,)))
            sgn = -1 if J.index(j0) & 1 else 1
            for mm, c in _shifted(self._cech_factor(I, j0, pole), mono,
                                  1).items():
                add_into(row, (J, mm, mask), sgn * c)
        return row

    def window_basis(self, pole, D):
        out = []
        for I in self.pieces:
            bound = pole * self.g[I].degree() + D
            for k in range(self.n + 1):
                for mask in masks_of_degree(self.n, k):
                    for mono in graded_monomials(self.n, bound):
                        out.append((I, mono, mask))
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
        key = self._colkey
        window = self._by_grade(P, D)
        image = self._by_grade(P + 1, D + self.maxdeg + 1)
        squares = {I: _int_terms(self.g[I] * self.g[I]) for I in self.pieces}
        dims = {}
        for q in range(self.n + self.r):
            basis = window[q]
            rows = [row for I, mono, mask in basis
                    if (row := self.diff_row(I, mono, mask, P))]
            ker = len(basis) - rank(rows, key=key)
            if q == 0:
                dims[0] = ker
                continue
            ech = Echelon(key)
            for I, mono, mask in image[q - 1]:
                ech.add(self.diff_row(I, mono, mask, P + 1))
            rank_u = len(ech)
            for I, mono, mask in basis:
                ech.add({(I, mm, mask): c for mm, c
                         in _shifted(squares[I], mono, 1).items()})
            dims[q] = ker - (rank_u + len(basis) - len(ech))
        return dims


def complement_rung(fs, t):
    return CechDeRham(fs).rung(t)


def complement_cohomology(fs, t_max=8):
    """Ladder the rung index until three consecutive answers agree."""
    return ladder("complement", CechDeRham(fs).rung, range(t_max + 1))
