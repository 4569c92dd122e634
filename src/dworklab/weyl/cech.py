"""Cohomology of the complement of a hypersurface union, by Čech–de Rham.

The cover is by the loci where each f_i is invertible.  A piece is a
nonempty index set I with denominator g_I = prod f_i; at rung t every
piece uses the uniform pole P = 1 + t and numerator degree bound
P*deg(g_I) + D_t, with D_t = D0 + step*t, step = max(2, max deg f_i),
D0 = max deg f_i + n + 1.  The total differential combines the Čech
coboundary with the (−1)^p-signed de Rham differential; outputs live one
pole higher, so the image U of the next window is compared with the
window W after embedding W two poles up (multiply by g_I^2).  Each grade
q feeds one echelon the U rows (grade q − 1 at pole P + 1), then the
embedded W rows: its size after U is rank U and after W is rank(U ∪ W),
and rank W is the number of window elements, since multiplying by g_I^2
is injective and distinct (I, dx) parts use disjoint columns.  Then
dim(U ∩ W) = rank U + |W| − rank(U ∪ W).

A ladder carries what each rung learns to the next.  Rung t + 1's
grade-(q−1) kernel rows are rows of window(P + 1, D_{t+1}) at pole P + 1,
and since step ≤ maxdeg + 1 that window lies inside the U domain
window(P + 1, D + maxdeg + 1) of rung t.  The U echelon of grade q is
therefore fed the monomials inside the next window first, and its size
and lead set at that point are the kernel rank and lead set of rung
t + 1, which then builds no kernel row below its top grade.  Rung 0, a
rung asked for out of order or after the codes widened, the top grade
n + r − 1 (no U echelon covers it) and a constant section (maxdeg 0,
step 2 > maxdeg + 1) eliminate a fresh kernel instead.  Only lead sets
are carried, never pivot rows.

U rows that d² = 0 proves dependent are never built.  Every grade-(q−2)
kernel row of window(P, D) lands in window(P + 1, D): its piece-I part
has degree ≤ (P + 1)·deg g_I + D − 1 and its Čech part degree
≤ (P + 1)·deg g_J + D.  That row lies in the kernel of the grade-(q−1)
rows at pole P + 1, so the U row of the basis element at its pivot's
lead is a combination of the U rows at the pivot's other, smaller
columns, all inside the next window.  By induction on code order the
rows left fed span what all the rows span, both for the prefix and for
the whole of U, and an echelon whose leads are largest columns has a
lead set fixed by its span: every snapshot, rank and rung is unchanged.

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
called on its own) fits W, with one spare bit, before it builds
anything, so the codes never widen inside a rung and seldom between two
consecutive ones; widening drops the templates and the carried lead
sets.  Rows are built from one template per (I, mask, pole): the
-pole·dg_I[j] and Čech terms merged into one part of code offsets, plus
a g_I part per variable j scaled by mono[j].  A row is the template
shifted by code(mono); the scaled parts can meet the merged one, so they
are added entry by entry.  The embedded window rows shift the terms of
g_I², formed once per piece, the same way.
"""

from __future__ import annotations

from itertools import combinations

from .forms import add_into, masks_of_degree, wedge_sign
from .ladder import ladder
# `rank` stays importable here: bench/spans.py traces it under this name.
from .linalg import Echelon, GradedCodes, rank  # noqa: F401
from .poly import MultiPoly, count_monomials, graded_monomials


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
        # (next rung, codes, {grade: (kernel rank, kernel leads)})
        self._carry = None

    def _reach(self, deg, pole):
        """Bound on the exponents of a pole-`pole` row of degree `deg`."""
        return deg + pole * self.maxdeg + self._gdeg

    def _fit(self, top):
        """Widen the codes, if needed, for exponents up to `top`."""
        if not self._codes.covers(top):
            # one spare bit, so a ladder seldom widens between rungs and
            # loses the lead sets it carries
            self._codes = GradedCodes(self.n, self._codes.low, 2 * top)
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

    def _window(self, pole, D):
        """The window (pole, D) by total grade, as (I, mask, monos) groups;
        the groups of one piece share its graded_monomials list."""
        grades = {}
        for I in self.pieces:
            monos = graded_monomials(self.n, pole * self.g[I].degree() + D)
            for k in range(self.n + 1):
                for mask in masks_of_degree(self.n, k):
                    grades.setdefault(len(I) - 1 + k, []).append(
                        (I, mask, monos))
        return grades

    def window_basis(self, pole, D):
        """Every (I, mono, mask) of the window (pole, D)."""
        return [(I, mono, mask) for groups in self._window(pole, D).values()
                for I, mask, monos in groups for mono in monos]

    def schedule(self, t):
        """(P, D_t) at rung t, as in the module docstring."""
        d0, step = self.maxdeg + self.n + 1, max(2, self.maxdeg)
        return 1 + t, d0 + step * t

    def rung(self, t):
        """Windowed dims of every total grade q at rung t."""
        P, D = self.schedule(t)
        D_img = D + self.maxdeg + 1
        # rung t + 1's kernel window lies inside this rung's image window
        # unless every f_i is constant (step 2 > maxdeg + 1)
        D_next = self.schedule(t + 1)[1]
        carries = D_next <= D_img
        # the image rows are the widest this rung builds
        self._fit(self._reach((P + 1) * self._gdeg + D_img, P + 1))
        codes, n, index = self._codes, self.n, self.piece_index
        carry = self._carry
        # grade -> (kernel rank, kernel pivot leads) at this rung
        kernels = (carry[2] if carry and carry[0] == t and carry[1] is codes
                   else {})
        window = self._window(P, D)
        image = self._window(P + 1, D_img)
        # monomial codes per piece; each window list is a prefix of the
        # image list, since both are graded_monomials lists
        image_monos = {I: monos for groups in image.values()
                       for I, _mask, monos in groups}
        bases = {I: list(map(codes.mono, monos))
                 for I, monos in image_monos.items()}
        # the U monomials of piece I inside rung t + 1's kernel window
        cut = {I: count_monomials(n, (P + 1) * self.g[I].degree()
                                  + min(D_next, D_img)) for I in self.pieces}
        embed = {I: [(codes.mono(m), c) for m, c in sq.items()]
                 for I, sq in self.squares.items()}
        dims, ahead = {}, {}
        for q in range(self.n + self.r):
            basis = window[q]
            size = sum(len(monos) for _I, _mask, monos in basis)
            if q not in kernels:
                ech = Echelon()
                for I, mask, monos in basis:
                    for mono in monos:
                        ech.add(self.diff_row(I, mono, mask, P))
                kernels[q] = len(ech), set(ech.pivots)
            ker = size - kernels[q][0]
            if q == 0:
                dims[0] = ker
                continue
            # d² = 0: a U element leading a grade-(q-2) kernel pivot has
            # a row in the span of the rows at that pivot's other columns
            skip = kernels[q - 2][1] if q > 1 else ()
            ech = Echelon()
            for prefix in (True, False):
                for I, mask, monos in image[q - 1]:
                    fields = index[I] << n | mask
                    part = slice(cut[I]) if prefix else slice(cut[I], None)
                    for mono, base in zip(monos[part], bases[I][part]):
                        if base | fields not in skip:
                            ech.add(self.diff_row(I, mono, mask, P + 1))
                if prefix:
                    ahead[q - 1] = len(ech), set(ech.pivots)
            rank_u = len(ech)
            for I, mask, monos in basis:
                fields = index[I] << n | mask
                for base in bases[I][:len(monos)]:
                    base |= fields
                    ech.add({base + off: c for off, c in embed[I]})
            dims[q] = ker - (rank_u + size - len(ech))
        self._carry = (t + 1, codes, ahead) if carries else None
        return dims


def complement_rung(fs, t):
    return CechDeRham(fs).rung(t)


def complement_cohomology(fs, t_max=8):
    """Ladder the rung index until three consecutive answers agree."""
    return ladder("complement", CechDeRham(fs).rung, range(t_max + 1))
