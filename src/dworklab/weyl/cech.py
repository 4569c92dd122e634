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

A ladder keeps records, not echelons.  Stage s of a pole p is
window(p, s) minus window(p, s − 1): for each piece I the degree
p·deg g_I + s, stage 0 holding every degree ≤ p·deg g_I.  `_feed(p, q, D)`
eliminates grade q's rows at pole p in a fresh echelon, stage by stage
through stage D, and keeps per (pole, grade) the record of the last
echelon it fed there: the pivot count after each stage and the pivots'
leads.  An echelon never replaces a pivot, so the pivots found by stage
s are an echelon basis of the rows of window(p, s), and a record gives
the rank at every stage it reached.  No echelon outlives the call that
fed it, but the records live as long as the complex, and the report of
its ladder keeps the complex until every rung has run: `to_cap` runs the
rungs left on it, and they read the records the first rungs left.

Rung t reads three ranks per grade q.  U is `_feed(P + 1, q − 1, D_img)`,
with D_img = D + maxdeg + 1; the embedded W rows then go into that same
echelon, giving rank(U ∪ W); and rank d(W) is the count at stage D of the
record of (P, q), fed again only when that record does not reach D.
Then dims[q] = rank(U ∪ W) − rank U − rank d(W), which is
dim ker − dim(U ∩ W) with |W| cancelled.  At grade 0 there is no U and
the embedded rows are independent, so they are counted, not fed.  The
top grade n + r − 1 (the full piece with every dx) has differential
zero, so no row of it is built.  Rung t's U echelon at pole P + 1 is
fed through D_t + maxdeg + 1 ≥ D_{t+1} whenever step ≤ maxdeg + 1, so
rung t + 1 reads every rank d(W) from a record and builds no pole-P row
at all.  Rung 0, a rung asked out of order or again, and a constant
section (maxdeg 0, step 2 > maxdeg + 1) take the same path; they only
find fewer records that reach far enough.

Rows that d² = 0 proves dependent are never built.  `_feed(p, q, ·)`
leaves out every element whose code leads a pivot of the record of
(p − 1, q − 1).  Pole p − 1 is fed only as rung p − 3's U, through
stage D_(p−3) + maxdeg + 1, and as rung p − 2's d(W), through D_(p−2),
so that record reaches some stage s at most the larger of the two.  Its
pivots are combinations of rows d(x) for x in window(p − 1, s), and d
maps window(p − 1, s) into window(p, s): the piece-I part of d(x) has
degree ≤ p·deg g_I + s − 1 and its Čech part degree ≤ p·deg g_J + s.
A pivot is then in the kernel of the grade-q rows at pole p, so the row
of the element at its lead is a combination of the rows at its other,
smaller columns, all inside window(p, s).  Pole p is read only at
D_(p−1), by rung p − 1's d(W), and at D_(p−2) + maxdeg + 1, by rung
p − 2's U.  Both are at least s, since D_(p−1) = D_(p−3) + 2·step and
2·step ≥ maxdeg + 1 for step = max(2, maxdeg).  So by induction on code
order the rows fed through either stage span what all its rows span,
and an echelon whose leads are largest columns has a lead set fixed by
its span: every count read is unchanged, whatever order the rungs come
in.

The W side is cleared the same way.  For q ≥ 1, rung t leaves out the
embedded row of each grade-q window element whose code leads a pivot of
the record of (P − 1, q − 1), which rung t − 1 read its grade-(q − 1)
rank d(W) from.  That record reaches some stage s ≤ D_t, by the
inequality above, so its pivot is a combination of rows d(x) for x in
window(P − 1, s), with every column in window(P, s), inside W.
Rewritten at pole P + 1, x has numerator degree at most s above
(P + 1)·deg g_I, inside the U domain since s ≤ D_img; so the embedded
pivot, which is d of that rewritten x, lies in U, and the row left out
lies in the span of U and the embedded rows of smaller codes.  By
induction on code order rank(U ∪ W) is unchanged, whatever order the
rungs come in.  Rung 0 has no pole-0 record, so it feeds every embedded
row.

Only the weight-0 block is eliminated.  `weights` holds integer rows w
spanning the rational kernel of the exponent differences inside each f_i
(`linalg.kernel_lattice`), so each Euler field E = sum_j w_j x_j d/dx_j
has E f_i = d_i·f_i, d_i being w·m for any exponent m of f_i.  E acts on
x^mono dx_mask / g_I^P by λ = w·(mono + mask) − P·sum_{i in I} d_i.  The
de Rham differential, the Čech maps and the g_I² embedding all keep λ,
so every rung splits into blocks by the weight vector.  Cartan's formula
L_E = dι_E + ι_E d (ι_E commutes with the Čech maps up to the same signs
as d) makes a closed ω of weight λ ≠ 0 equal to d(ι_E ω)/λ for the row w
it is taken from.  Written at pole P + 1, ι_E ω has numerator degree at
most (P + 1)·deg g_I + D + 1, inside the U domain window since
D_img = D + maxdeg + 1.  So every closed window element of weight λ ≠ 0
lies in U ∩ W, and its block adds 0 to every rung, not only in the
limit.  `_stages` therefore lists the weight-0 block of each (I, mask),
stage by stage.  The complex keeps one `forms.WeightBlocks` index: a
degree is walked once, the first time a window asks for it, and only the
monomials whose weight some (I, mask, pole) of a rung up to t_max can
ask for are kept, so a block's part of one degree is one lookup.  A
(pole, grade) is listed once, and again only for a stage beyond it, so
rung t + 1's W reads the listing rung t's U made.  The d² = 0 skip stays
inside one block, and the embedded W rows take their codes from the
pole-P block itself.  A kernel of dimension 0 gives one block holding
every element.

Each f_i is first multiplied by the lcm of its coefficient denominators.
That changes no window and no image subspace, and it makes every row
integer.

The uniform pole is what makes the answer insensitive to repeated
factors: a non-reduced f skips odd denominator powers, so any schedule
that hands lower poles to lower form degrees keeps primitives just out
of reach at every rung.

Columns (I, x^mono, dx_mask) are `linalg.GradedCodes` integers with
piece_index[I] << n | mask in the low bits, so integer order is (degree,
mono, piece, mask).  A complex has one width, chosen in `__init__` from
the rung cap `t_max` its ladder takes: a pole-p row of degree e reaches
exponents at most e + p·max deg f_i + deg g, a rung's widest rows are its
image rows at pole P + 1, and W is the bit length of that bound at rung
t_max.  Every code, template and recorded lead is valid for the life of
the complex, and a rung or row beyond the cap raises ValueError.
Rows are built from templates made once per (I, pole), one per mask:
the `forms.template` the twisted side uses too, with q = g_I and
dp = dg_I, both signed (−1)^(|I|−1) once per piece, and c = −pole.  Its
merged part then takes the Čech terms, each factor f_j0^pole·g_(I ∪ j0)
formed once for every mask; each of its scaled parts is a g_I part for
variable j, scaled by mono[j].  A row is the template shifted by
code(mono) (`forms.shifted_row`); the scaled parts can meet the merged
one, so they are added entry by entry.  The embedded window rows shift
the codes of the terms of g_I², formed once per complex, the same way.
A complex refuses a pole order above `MAX_POLE` before it builds
anything.
"""

from __future__ import annotations

from itertools import chain, combinations

from .forms import (WeightBlocks, add_into, mask_weight, masks_of_degree,
                    shifted_row, template, weight)
from .ladder import ladder
# `rank` stays importable here: bench/spans.py traces it under this name.
from .linalg import Echelon, GradedCodes, kernel_lattice, rank  # noqa: F401
from .poly import MultiPoly


def _int_terms(p):
    """Coefficients of a polynomial with integer coefficients, as ints."""
    return {m: int(c) for m, c in p.terms.items()}


# the largest pole order a complex may be asked for: every (piece, mask,
# pole) up to it gets a weight key before the first rung runs
MAX_POLE = 100


class CechDeRham:
    def __init__(self, fs, t_max):
        if t_max + 1 > MAX_POLE:
            raise ValueError(f"largest pole order {t_max + 1} is above the "
                             f"cap of {MAX_POLE}")
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
        # I -> (g_I, [dg_I/dx_j]) as ints, signed (−1)^(|I|−1)
        self._signed = {}
        squares = {}
        for I in self.pieces:
            gI = MultiPoly.constant(self.n, 1)
            for i in I:
                gI = gI * self.fs[i]
            self.g[I] = gI
            sgI = -gI if (len(I) - 1) & 1 else gI
            self._signed[I] = (_int_terms(sgI), [_int_terms(sgI.diff(j))
                                                for j in range(self.n)])
            squares[I] = _int_terms(gI * gI)
        self.maxdeg = max(f.degree() for f in self.fs)
        # one Euler field E with E f_i = d_i·f_i per row; see the module
        # docstring
        leads = [next(iter(f.terms)) for f in self.fs]
        self.weights = kernel_lattice(
            [tuple(a - b for a, b in zip(m, m0))
             for f, m0 in zip(self.fs, leads) for m in f.terms], self.n)
        degs = [weight(self.weights, m0) for m0 in leads]
        masks = [mask_weight(self.weights, self.n, mask)
                 for mask in range(1 << self.n)]
        # x^mono dx_mask / g_I^pole has weight 0 when mono's weight is
        # pole·sum_{i in I} d_i minus the mask's, its key; rung t <= t_max
        # asks for poles up to t_max + 2
        self._keys = {}
        for I in self.pieces:
            dsum = tuple(map(sum, zip(*(degs[i] for i in I))))
            for mask, mw in enumerate(masks):
                for pole in range(1, t_max + 3):
                    self._keys[I, mask, pole] = tuple(
                        pole * d - v for d, v in zip(dsum, mw))
        self._gdeg = max(g.degree() for g in self.g.values())
        self._codes = GradedCodes(
            self.n, self.n + (len(self.pieces) - 1).bit_length(),
            self._rung_reach(t_max))
        self._index = WeightBlocks(self.weights, self.n, self._codes.mono,
                                   set(self._keys.values()))
        self._templates = {}
        # g_I² as (code offset, coefficient) pairs, for the embedded rows
        self._embed = {I: [(self._codes.mono(m), c) for m, c in sq.items()]
                       for I, sq in squares.items()}
        # grade -> its (I, mask, fields, deg g_I), pieces first, then masks
        self._groups = {}
        for I in self.pieces:
            for k in range(self.n + 1):
                for mask in masks_of_degree(self.n, k):
                    self._groups.setdefault(len(I) - 1 + k, []).append(
                        (I, mask, self.piece_index[I] << self.n | mask,
                         self.g[I].degree()))
        # (pole, grade) -> (pivot count after each stage, pivot leads) of
        # the last echelon `_feed` fed there
        self._records = {}
        # (pole, grade) -> its `_stages` listing, up to the last stage asked
        self._listed = {}

    def _reach(self, deg, pole):
        """Bound on the exponents of a pole-`pole` row of degree `deg`."""
        return deg + pole * self.maxdeg + self._gdeg

    def _rung_reach(self, t):
        """Bound on the exponents of rung t's rows: its image rows at pole
        P + 1 are the widest it builds."""
        P, D = self.schedule(t)
        return self._reach((P + 1) * self._gdeg + D + self.maxdeg + 1, P + 1)

    def _check(self, top):
        """ValueError unless exponents <= top are under the cap."""
        if not self._codes.covers(top):
            raise ValueError(f"exponent bound {top} is above the cap")

    def column(self, code):
        """(I, mono, mask) of a column code."""
        mono, fields = self._codes.decode(code)
        return (self.pieces[fields >> self.n], mono,
                fields & ((1 << self.n) - 1))

    def _template(self, I, pole):
        """Per mask, the (merged part, scaled parts) of x^0/g_I^pole dx_mask
        as code offsets: the `forms.template` of g_I·d − pole·dg_I∧, signed
        (−1)^(|I|−1), with the Čech terms added to its merged part.  Each
        Čech factor f_j0^pole·g_(I ∪ j0) is formed once, for every mask."""
        tpls = self._templates.get((I, pole))
        if tpls is not None:
            return tpls
        mono_code = self._codes.mono
        n, index = self.n, self.piece_index
        tpls = self._templates[I, pole] = [
            template(mono_code, n, mask, index[I] << n, *self._signed[I],
                     -pole) for mask in range(1 << n)]
        for j0 in range(self.r):
            if j0 in I:
                continue
            J = tuple(sorted(I + (j0,)))
            sgn = -1 if J.index(j0) & 1 else 1
            there = index[J] << n
            factor = [(mono_code(m) + there, sgn * c) for m, c in
                      _int_terms((self.fs[j0] ** pole) * self.g[J]).items()]
            for mask, (merged, _scaled) in enumerate(tpls):
                for off, c in factor:
                    add_into(merged, off + mask, c)
        return tpls

    def diff_row(self, I, mono, mask, pole):
        """Total differential of x^mono/g_I^pole dx_mask, at pole + 1."""
        self._check(self._reach(sum(mono), pole))
        return shifted_row(self._codes.mono(mono), mono,
                           *self._template(I, pole)[mask])

    def _stages(self, pole, q, D):
        """The weight-0 block of grade q's window (pole, D), stage by
        stage: for s = 0..D, stage s as (I, mask, fields, pairs) chunks,
        pairs listing (mono, code(mono)) of the (I, mask) block's elements
        of one degree in graded order, each one lookup in the complex's
        weight index.  Empty chunks are left out, and a (pole, grade) is
        listed again only for a stage beyond its last listing."""
        stages = self._listed.get((pole, q), ())
        if len(stages) <= D:
            stages = self._listed[pole, q] = [[] for _ in range(D + 1)]
            index = self._index
            for I, mask, fields, gdeg in self._groups[q]:
                key, low = self._keys[I, mask, pole], pole * gdeg
                for e in range(low + D + 1):
                    if pairs := index[e].get(key):
                        stages[max(e - low, 0)].append(
                            (I, mask, fields, pairs))
        return stages[:D + 1]

    def schedule(self, t):
        """(P, D_t) at rung t, as in the module docstring."""
        d0, step = self.maxdeg + self.n + 1, max(2, self.maxdeg)
        return 1 + t, d0 + step * t

    def _feed(self, pole, q, D):
        """A fresh echelon of grade q's rows at `pole`, fed in stage order
        through stage D, and its record kept as that of (pole, q).  An
        element whose code leads any pivot of the record of
        (pole − 1, q − 1) is left out before its row is built (the module
        docstring says why)."""
        # no record there: nothing to skip
        skip = set(self._records.get((pole - 1, q - 1), ((), ()))[1])
        ech, counts = Echelon(), []
        for stage in self._stages(pole, q, D):
            for I, mask, fields, pairs in stage:
                for mono, base in pairs:
                    if base | fields not in skip:
                        ech.add(self.diff_row(I, mono, mask, pole))
            counts.append(len(ech))
        self._records[pole, q] = counts, list(ech.pivots)
        return ech

    def _rank(self, pole, q, D):
        """Rank of grade q's rows at `pole` through stage D: read from the
        record of (pole, q), fed again first if that stops short of D."""
        counts = self._records.get((pole, q), ((),))[0]
        return counts[D] if len(counts) > D else len(self._feed(pole, q, D))

    def rung(self, t):
        """Windowed dims of every total grade q at rung t."""
        P, D = self.schedule(t)
        self._check(self._rung_reach(t))
        top = self.n + self.r - 1
        embed = self._embed
        dims = {}
        for q in range(top + 1):
            # the top grade's differential is zero
            rank_dw = self._rank(P, q, D) if q < top else 0
            if q == 0:
                # no U, and the embedded rows are independent: count them
                dims[0] = sum(len(chunk[-1]) for chunk in chain.from_iterable(
                    self._stages(P, 0, D))) - rank_dw
                continue
            ech = self._feed(P + 1, q - 1, D + self.maxdeg + 1)
            rank_u = len(ech)
            # rung t − 1's d(W) record of grade q − 1: its leads' embedded
            # rows lie in span(U, smaller ones) (see the module docstring)
            skip = set(self._records.get((P - 1, q - 1), ((), ()))[1])
            for I, _mask, fields, pairs in chain.from_iterable(
                    self._stages(P, q, D)):
                for _mono, base in pairs:
                    base |= fields
                    if base not in skip:
                        ech.add({base + off: c for off, c in embed[I]})
            dims[q] = len(ech) - rank_u - rank_dw
            # free this echelon before the next grade feeds its own
            del ech
        return dims


def complement_cohomology(fs, t_max=None):
    """The complement ladder of `fs`, as `ladder` runs it: the rung index
    t = 0..t_max (pole orders 1..t_max + 1), the report at the first
    three consecutive rungs that agree, which `to_cap` continues on the
    same complex; `t_max` defaults to 9, for the library and
    `dwork-check` alike."""
    if t_max is None:
        t_max = 9
    return ladder("complement", CechDeRham(fs, t_max).rung, range(t_max + 1))
