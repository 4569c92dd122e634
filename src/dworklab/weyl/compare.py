"""Supported cohomology and the twisted-vs-supports comparison.

Cohomology supported on the common zero locus Z of f_1..f_r inside
affine n-space comes from the complement through the long exact sequence:
the affine space contributes a single class in degree 0, so h^1_Z is
h^0(complement) − 1 and h^{k+1}_Z = h^k(complement) for k >= 1.

The comparison pits that against the twisted de Rham cohomology of
F = sum_i y_i f_i on affine (n+r)-space; the two must agree grade by
grade once zero entries are dropped.  A supported report keeps the
complement report it was read off, so a comparison continues the two
ladders it started, one complex per side, instead of building them again.
"""

from __future__ import annotations

from .cech import complement_cohomology
from .ladder import CohomologyReport
from .poly import MultiPoly
from .twisted import twisted_cohomology


# the most sections `dwork_compare` takes: the Čech side has 2^r − 1
# pieces and the twisted side n + r variables, and five sections already
# take from seconds to minutes
MAX_SECTIONS = 4


def _nonzero(dims):
    return {k: v for k, v in dims.items() if v}


def supports_cohomology(fs, t_max=None):
    """Cohomology supported on the common zero locus of `fs`, read off the
    complement ladder; `t_max` (None: its default) goes to
    `complement_cohomology`."""
    return _supported(complement_cohomology(fs, t_max=t_max))


def _supported(rep):
    """The supported report read off a complement report, which is left
    as it is.  Its `to_cap` continues the complement report and reads
    the supported one off it again."""
    out = None
    if rep.dims is not None:
        h1 = rep.dims.get(0, 0) - 1
        out = {1: h1} if h1 else {}
        out.update((k + 1, v) for k, v in rep.dims.items() if k >= 1 and v)
    sup = CohomologyReport("supports", out, list(rep.rungs), rep.note)
    sup._rest = lambda _sup: _supported(rep.to_cap())
    return sup


def dwork_twist(fs):
    """F = sum_i y_i f_i with fresh variables appended after the x's."""
    n = fs[0].nvars
    r = len(fs)
    total = n + r
    F = MultiPoly.zero(total)
    for i, f in enumerate(fs):
        F = F + f.extend(total) * MultiPoly.variable(total, n + i)
    return F


class DworkComparison:
    def __init__(self, match, twisted, supports, inconclusive=False):
        self.match = match
        self.twisted = twisted
        self.supports = supports
        self.inconclusive = inconclusive


def dwork_compare(fs, d0=None, d_max=None, t_max=None):
    """Twisted cohomology of sum y_i f_i against supported cohomology.

    Each side's ladder stops at its first three agreeing rungs.  When the
    two tables then differ, a side may have stopped on windows too small
    to hold a class, so both reports are continued (`to_cap`) on the
    complexes that made them, each ladder running only the cutoffs past
    its first stop, and the verdict is read again.  It is a mismatch only
    when each side's last three rungs agree and both caps are the
    defaults; it is inconclusive when one side's do not agree, or when a
    cap the caller set may be what keeps a class out of a window.  A
    continued report's note names the grades the first tables differed
    in.

    The caps go through as given, None for the defaults that
    `twisted_cohomology` and `complement_cohomology` decide; a `d_max`
    below the first twisted cutoff raises `twisted_cohomology`'s
    ValueError, and more than `MAX_SECTIONS` sections raise ValueError
    before either side is built."""
    if len(fs) > MAX_SECTIONS:
        raise ValueError(f"{len(fs)} sections are above the cap of "
                         f"{MAX_SECTIONS}")
    F = dwork_twist(fs)
    trep = twisted_cohomology(F, d0=d0, d_max=d_max)
    srep = supports_cohomology(fs, t_max=t_max)
    differ = _differ(trep.dims, srep.dims)
    if differ:
        trep, srep = trep.to_cap(), srep.to_cap()
        for rep in (trep, srep):
            rep.note = "; ".join(filter(None, (
                f"continued to the cap: the first tables differed in "
                f"grades {differ}", rep.note)))
        differ = _differ(trep.dims, srep.dims)
    # a cap set by the caller can end a ladder on windows too small to
    # hold a class, so only the default caps can show a mismatch
    if (trep.dims is None or srep.dims is None
            or differ and (d_max is not None or t_max is not None)):
        return DworkComparison(False, trep, srep, inconclusive=True)
    return DworkComparison(not differ, trep, srep)


def _differ(a, b):
    """The grades two tables differ in once zero entries are dropped,
    sorted; empty when either table is missing."""
    if a is None or b is None:
        return []
    a, b = _nonzero(a), _nonzero(b)
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
