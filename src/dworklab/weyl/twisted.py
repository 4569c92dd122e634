"""Twisted de Rham cohomology with polynomial coefficients.

The differential is d + dF∧.  Rows are integer: F's gradient is scaled
once by L, the lcm of F's coefficient denominators, so each row is L
times the differential and every rank is unchanged.  Ranks are taken on
finite windows: a rung at cutoff D restricts coefficients to degree <=
D and computes the kernel there.  The image comes from the slacked
domain (degree <= D + deg F + 1) and is intersected with the window.

Columns x^mono dx_mask are `linalg.GradedCodes` integers with the mask in
the low n bits, so integer order is (degree, mono, mask).  A complex has
one width, chosen in `__init__` from the cutoff cap `d_max` its ladder
takes: W is the bit length of the largest exponent a row of the highest
domain degree, d_max + slack, can reach (that degree + deg F - 1).  Every
code is valid for the life of the complex, and asking for rows, a row or
a rung beyond the cap raises ValueError.  Rows are built from one
`forms.template` per mask, each made in `__init__`, the one the Čech
side uses too, with q = L, dp = L·dF and c = 1: the dF_j terms as code
offsets, plus one offset per variable j scaled by mono[j] (the d term).
A row of x^mono dx_mask is then the template shifted by code(mono)
(`forms.shifted_row`); no two of its terms share a column, since terms
of different j carry different masks and the d term of j has degree one
below mono's, every dF_j term at least mono's.

A complex keeps one incremental echelon per form degree k.  Rows are fed
in increasing domain degree e (the stage), each degree once, and after
each stage the complex records one number per grade: its pivot count,
the rank of the grade-k rows of degree <= e.  An echelon's `pivots` dict
keeps the order its pivots were found in, and pivots are never
replaced, so grade k's pivots of stage <= e are the first that many in
its echelon; the lead of each is its row's largest graded column.  A
rung at any cutoff D <= d_max, rising or falling, eliminates nothing new
beyond the degrees it is the first to need; it reads two counts:

* the kernel in grade k is the number of grade-k basis elements of
  degree <= D (of the weight-0 block below) minus grade k's pivot
  count through stage D;
* dim(image ∩ window) in grade k is the number of grade-(k-1) pivots
  among those of stage <= D + slack whose lead has degree <= D,
  because an echelon basis whose leads are largest columns is
  compatible with the degree filtration.

The basis elements are counted the same way: `block_size` keeps a
running total per grade, so each degree's blocks are counted once for
the life of the complex.

Grade k is fed after grade k - 1 at each stage, and a grade-k basis
element whose code leads a grade-(k-1) pivot is left out before its row
is built.  (d + dF∧)² = 0 puts that pivot in the kernel of the grade-k
rows, so the element's row is a combination of the rows of the pivot's
other columns, whose codes are smaller and whose degrees are no higher.
The rows fed through each stage therefore span what all its rows span,
and since an echelon with largest-column leads has a lead set fixed by
its span, every pivot count and every lead above is unchanged.

Only the weight-0 block is eliminated.  `weights` holds integer rows w
spanning the rational kernel of F's exponent vectors
(`linalg.kernel_lattice`), so each Euler field E = sum_j w_j x_j d/dx_j
has E F = 0.  E scales x^mono dx_mask by w·(mono + mask), the mask read
as its 0/1 vector, and d + dF∧ keeps that weight: d trades an exponent
of x_j for dx_j, and dF∧ multiplies by (x^m / x_j) dx_j for exponents m
of F, whose weight is 0.  So every row, window, image and count splits
into blocks by the weight vector λ.  Cartan's formula with E F = 0 gives
(d + dF∧)ι_E + ι_E(d + dF∧) = L_E, which is λ on a block for the row w
it is taken from.  A closed ω of weight λ ≠ 0 in the window of cutoff D
is then (d + dF∧)(ι_E ω)/λ, and ι_E ω has degree <= D + 1 <= D + slack,
so ω is in the image of the slacked domain: the block adds 0 to every
rung, not only in the limit.  `rows` and `block_size` therefore see only
weight-0 elements.  x^mono dx_mask has weight 0 when mono's weight is
minus the mask's, and one `forms.WeightBlocks` index walks each degree
once, in graded order, keeping only the monomials whose weight is one of
those keys: a mask's block of one degree is one lookup.  An F with no
such field (kernel dimension 0) has one block holding every element.

Rungs are laddered (step 2) until three in a row agree.
"""

from __future__ import annotations

from itertools import islice

from .forms import (WeightBlocks, mask_weight, masks_of_degree, shifted_row,
                    template)
from .ladder import ladder
# `rank` stays importable here: bench/spans.py traces it under this name.
from .linalg import Echelon, GradedCodes, kernel_lattice, rank  # noqa: F401


class TwistedComplex:
    def __init__(self, F, d_max):
        if F.is_zero():
            raise ValueError("zero twist")
        n = self.n = F.nvars
        L = F.denominator()
        dF = [{m: int(c * L) for m, c in F.diff(j).terms.items()}
              for j in range(n)]
        self.slack = F.degree() + 1
        # how far a dF term raises an exponent
        self._rise = max(F.degree() - 1, 0)
        self._codes = GradedCodes(n, n, d_max + self.slack + self._rise)
        # the `forms.template` of L·(d + dF∧) on dx_mask, for every mask
        self._templates = [template(self._codes.mono, n, mask, 0,
                                    {(0,) * n: L}, dF, 1)
                           for mask in range(1 << n)]
        self._masks = [masks_of_degree(n, k) for k in range(n + 1)]
        # one Euler field E with E F = 0 per row; see the module docstring
        self.weights = kernel_lattice(list(F.terms), n)
        # x^mono dx_mask has weight 0 when mono's weight is its mask's key
        self._keys = [tuple(-v for v in mask_weight(self.weights, n, mask))
                      for mask in range(1 << n)]
        self._index = WeightBlocks(self.weights, n, self._codes.mono,
                                   set(self._keys))
        # top forms are closed, so grade n has no rows and no echelon
        self._echelons = [Echelon() for _ in range(n)]
        # _ranks[e][k]: grade k's pivot count through stage e, 0 in grade n
        self._ranks = []
        # _sizes[k][e + 1]: number of grade-k elements of degree <= e
        self._sizes = [[0] for _ in range(n + 1)]

    def _check(self, top):
        """ValueError unless domain degrees <= top are under the cap."""
        if not self._codes.covers(top + self._rise):
            raise ValueError(f"domain degree {top} is above the cap")

    def code(self, mono, mask=0):
        """Column code of x^mono dx_mask; ValueError if it does not fit."""
        return self._codes.encode(mono, mask)

    def column(self, code):
        """(mono, mask) of a column code."""
        return self._codes.decode(code)

    def _block(self, e, mask):
        """(mono, code(mono)) of the weight-0 basis elements x^mono dx_mask
        of degree e, in graded order."""
        return self._index[e].get(self._keys[mask], ())

    def block_size(self, k, D):
        """Number of weight-0 grade-k basis elements of degree <= D."""
        self._check(D)
        sizes = self._sizes[k]
        for e in range(len(sizes) - 1, D + 1):
            sizes.append(sizes[-1] + sum(len(self._block(e, mask))
                                         for mask in self._masks[k]))
        return sizes[D + 1]

    def apply(self, mono, mask):
        """L times the differential on the basis element x^mono dx_mask,
        keyed by column code."""
        self._check(sum(mono))
        return shifted_row(self._codes.mono(mono), mono,
                           *self._templates[mask])

    def rows(self, k, hi, lo=0, *, exclude=()):
        """Nonzero rows of the weight-0 grade-k basis elements of degrees
        lo..hi, in degree order, leaving out those whose codes are in
        `exclude`."""
        self._check(hi)
        out = []
        for e in range(lo, hi + 1):
            for mask in self._masks[k]:
                merged, scaled = self._templates[mask]
                for mono, base in self._block(e, mask):
                    if base | mask in exclude:
                        continue
                    if row := shifted_row(base, mono, merged, scaled):
                        out.append(row)
        return out

    def _feed(self, top):
        """Feed every grade the rows of the degrees up to `top` not yet fed,
        recording each grade's pivot count after each degree.

        A grade-k basis element whose code leads a grade-(k-1) pivot is
        left out before its row is built.  That pivot lies in the image
        of d + dF∧, hence in the kernel of the grade-k rows, so the
        element's row is a combination of the rows of the smaller codes
        in the pivot, none of higher degree.  By induction on code order
        the rows fed through each stage span what all rows of those
        stages span, and an echelon whose leads are largest columns has
        a lead set fixed by its span: every pivot count and lead, and so
        every rung, is what feeding every row would give.
        """
        self._check(top)
        below = [{}] + [ech.pivots for ech in self._echelons]
        for e in range(len(self._ranks), top + 1):
            for k, ech in enumerate(self._echelons):
                for row in self.rows(k, e, e, exclude=below[k]):
                    ech.add(row)
            self._ranks.append((*map(len, self._echelons), 0))

    def rung(self, D):
        """Windowed dimensions at cutoff D, every grade 0..n."""
        top = D + self.slack
        self._feed(top)
        shift = self._codes.shift
        ranks, reach = self._ranks[D], self._ranks[top]
        dims = {}
        for k in range(self.n + 1):
            # grade k-1's pivots of stage <= top whose lead is in the window
            leads = (islice(self._echelons[k - 1].pivots, reach[k - 1])
                     if k else ())
            inside = sum(lead >> shift <= D for lead in leads)
            dims[k] = self.block_size(k, D) - ranks[k] - inside
        return dims


def twisted_rung(F, D):
    return TwistedComplex(F, D).rung(D)


def twisted_cohomology(F, d0=None, d_max=None):
    """Ladder the window cutoff, step 2, until three consecutive rungs agree:
    the first report `twisted_ladder` yields."""
    return next(twisted_ladder(F, d0, d_max))


def twisted_ladder(F, d0=None, d_max=None):
    """The twisted ladder of F, as `ladder` runs it, cutoffs step 2.

    The ladder starts at `d0`, else at deg F + 1, and stops at `d_max`,
    else at 30 when F has at most three variables and 16 beyond; these
    defaults are the library's and `dwork-check`'s alike.  A cap below
    the first cutoff raises ValueError before any complex is built."""
    first = d0 if d0 is not None else F.degree() + 1
    if d_max is None:
        d_max = 30 if F.nvars <= 3 else 16
    if d_max < first:
        raise ValueError(f"largest window cutoff {d_max} is below the "
                         f"first cutoff {first}")
    return ladder("twisted", TwistedComplex(F, d_max).rung,
                  range(first, d_max + 1, 2))
