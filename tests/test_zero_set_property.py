"""Seeded metamorphic property test: the comparison sees only the zero set.

Both sides of `dwork_compare` depend only on the common zero locus Z of
f_1..f_r up to isomorphism: the supported side is cohomology supported on
Z, and the theorem makes the twisted side of sum y_i f_i equal to it.  So
a drawn f and its image under one transform that keeps Z up to an
affine change of coordinates must both match, with equal nonzero
supported tables.  The transforms are

* an affine change of coordinates: x and y swapped, or one variable
  shifted by ±1;
* a change of sections with the same radical: f_i ↦ c·f_i², f_1 and
  f_2 swapped, f_2 ↦ f_2 + h·f_1, or, for one section, a second section
  h·f_1 that cuts out nothing new.

The drawn f has one or two variables, degree at most 3 and at most two
sections; the transform keeps the degree at most 6 and the sections at
most two.  Two sections come in one variable only: in two variables the
twisted side has four variables and the cover three pieces, and one such
comparison took 0.7 s for two lines and up to 15 s for a transformed
pair of conics, against at most about 0.3 s for the inputs drawn here.
So the redundant section, which makes a second one, is drawn only in one
variable.  Hypothesis runs derandomized, with no example database, so
every run draws the same examples.  It does not shrink a failing
example: a comparison that fails can run both ladders to their caps, and
shrinking one took about 50 s.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import (HealthCheck, Phase, assume, given,  # noqa: E402
                        settings)
from hypothesis import strategies as st  # noqa: E402

from dworklab import dwork_compare  # noqa: E402
from dworklab.weyl.compare import _nonzero  # noqa: E402
from dworklab.weyl.poly import MultiPoly  # noqa: E402

SEEDED = settings(derandomize=True, database=None, deadline=None,
                  max_examples=36, phases=(Phase.generate,),
                  suppress_health_check=[HealthCheck.too_slow,
                                         HealthCheck.filter_too_much])
COEFFS = st.sampled_from([Fraction(c, q) for c in (-2, -1, 1, 2)
                          for q in (1, 2)])
TRANSFORMS = ("swap variables", "shift", "scaled square", "swap sections",
              "add a multiple", "redundant section")


@st.composite
def _poly(draw, n, top):
    """A nonzero polynomial in n variables of degree at most `top`, with
    one to three terms."""
    monos = st.tuples(*[st.integers(0, top)] * n).filter(
        lambda m: sum(m) <= top)
    terms = draw(st.dictionaries(monos, COEFFS, min_size=1, max_size=3))
    return MultiPoly(n, terms)


def _substitute(f, images):
    """f with its variable j replaced by the polynomial images[j]."""
    out = MultiPoly.zero(f.nvars)
    for mono, c in f.terms.items():
        term = MultiPoly.constant(f.nvars, c)
        for image, e in zip(images, mono):
            term = term * image ** e
        out = out + term
    return out


@st.composite
def _pair(draw):
    """(drawn sections, transformed sections, transform name)."""
    n = draw(st.integers(1, 2))
    r = draw(st.integers(1, 3 - n))
    fs = [draw(_poly(n, 3)) for _ in range(r)]
    fit = [t for t in TRANSFORMS if {
        "swap variables": n == 2, "redundant section": n == r == 1,
        "swap sections": r == 2, "add a multiple": r == 2}.get(t, True)]
    how = draw(st.sampled_from(fit))
    xs = [MultiPoly.variable(n, j) for j in range(n)]
    if how == "swap variables":
        gs = [_substitute(f, xs[::-1]) for f in fs]
    elif how == "shift":
        j, by = draw(st.integers(0, n - 1)), draw(st.sampled_from((-1, 1)))
        xs[j] = xs[j] + MultiPoly.constant(n, by)
        gs = [_substitute(f, xs) for f in fs]
    elif how == "scaled square":
        i, c = draw(st.integers(0, r - 1)), draw(COEFFS)
        gs = list(fs)
        gs[i] = fs[i] * fs[i] * MultiPoly.constant(n, c)
    elif how == "swap sections":
        gs = fs[::-1]
    else:
        h = draw(_poly(n, 6 - fs[0].degree()))
        gs = ([fs[0], fs[1] + h * fs[0]] if how == "add a multiple"
              else [fs[0], h * fs[0]])
    assume(not any(g.is_zero() for g in gs))
    assert max(g.degree() for g in gs) <= 6 and len(gs) <= 2
    return fs, gs, how


@SEEDED
@given(pair=_pair())
def test_a_transform_that_keeps_the_zero_set_keeps_the_tables(pair):
    fs, gs, how = pair
    before, after = dwork_compare(fs), dwork_compare(gs)
    for cmp in (before, after):
        assert cmp.match and not cmp.inconclusive, (how, cmp.twisted.note,
                                                    cmp.supports.note)
    assert _nonzero(before.supports.dims) == _nonzero(after.supports.dims), how
