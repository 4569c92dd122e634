"""Seeded property test: the walked weight index equals weighing every
monomial.

`forms.WeightBlocks` packs weights into integers and walks the degree-e
simplex; the reference here weighs each monomial of the degree, listed
in graded order by `oracles.graded_monomials`, with `forms.weight`, the
way the index did before it walked.  There are 0 to
5 variables, and lattices have negative entries and any rank from 0 to
n (an empty lattice keeps every monomial when () is a key).  The keys
mix weights a drawn degree reaches, vectors far outside them and
vectors one carry away from a reached weight in every base a packing
could wrongly use.  Hypothesis runs derandomized, with no example
database, so every run draws the same examples.
"""

import functools

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dworklab.weyl import forms  # noqa: E402
from dworklab.weyl.linalg import GradedCodes  # noqa: E402

import oracles  # noqa: E402

SEEDED = settings(derandomize=True, database=None, deadline=None,
                  max_examples=300,
                  suppress_health_check=[HealthCheck.too_slow])
E_MAX = 20


@functools.cache
def of_degree(nvars, e):
    """The monomials of degree exactly e, in the oracle's graded order."""
    return tuple(m for m in oracles.graded_monomials(nvars, e)
                 if sum(m) == e)


def weigh_every_monomial(lattice, nvars, code, keys, e):
    groups = {}
    for mono in of_degree(nvars, e):
        key = forms.weight(lattice, mono)
        if key in keys:
            groups.setdefault(key, []).append((mono, code(mono)))
    return groups


@st.composite
def indexes(draw):
    """(lattice, nvars, keys, degrees asked, in order)."""
    n = draw(st.integers(0, 5))
    rank = draw(st.integers(0, n))
    lattice = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n,
                                     max_size=n).map(tuple),
                            min_size=rank, max_size=rank))
    degrees = draw(st.lists(st.integers(0, E_MAX), min_size=1, max_size=3))
    keys = set()
    # with no variable, only degree 0 has a monomial
    for e in draw(st.lists(st.integers(0, E_MAX if n else 0), max_size=4)):
        # the weight of a monomial that degree e reaches
        mono = draw(st.sampled_from(of_degree(n, e)))
        keys.add(forms.weight(lattice, mono))
    # vectors a degree may not reach, up to past 2·E_MAX·max|w_ij|
    keys |= set(draw(st.lists(
        st.lists(st.integers(-200, 200), min_size=rank,
                 max_size=rank).map(tuple), max_size=4)))
    if rank >= 2:
        # keys one base-B carry away from the weight v of x_j^top, for
        # every B up to 2M, M being the largest component the top
        # degree's keys and weights can have: v ± (B, −1) at rows i and
        # i + 1.  Only a packing base above 2M tells them all from v.
        top = max(degrees)
        bound = max([top * abs(x) for w in lattice for x in w]
                    + [abs(x) for key in keys for x in key])
        j = draw(st.integers(0, n - 1))
        i = draw(st.integers(0, rank - 2))
        v = tuple(top * w[j] for w in lattice)
        for base in range(1, 2 * bound + 1):
            for sign in (1, -1):
                near = list(v)
                near[i] += sign * base
                near[i + 1] -= sign
                if max(map(abs, near)) <= bound:
                    keys.add(tuple(near))
    return lattice, n, keys, degrees


@SEEDED
@given(indexes())
def test_walked_blocks_equal_weighing_every_monomial(case):
    lattice, n, keys, degrees = case
    code = GradedCodes(n, 0, E_MAX).mono
    index = forms.WeightBlocks(lattice, n, code, keys)
    for e in degrees:
        expected = weigh_every_monomial(lattice, n, code, keys, e)
        assert index[e] == expected
        assert list(index[e].items()) == list(expected.items())

