"""Seeded property test: `Echelon` stores the pivots of the plain loop.

`Echelon.add` divides a row by its content only at the first step, at
every 16th step and before storing it.  Between divisions each row is a
positive multiple of the row the plain loop, which divides at every
step, would hold, so the stored pivots must be the same primitive rows,
at the same leads, found in the same order.  `oracles.echelon_pivots` is
that plain loop.  The rows drawn are dense over up to 32 columns with
entries up to 2^64, scaled by a content and mixed with combinations of
earlier rows, so reductions run past 16 steps (about 100 rows of the 200
examples do), entries grow large and some rows reduce to zero.

Hypothesis runs derandomized, with no example database, so every run
draws the same examples.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dworklab.weyl.linalg import Echelon  # noqa: E402

import oracles  # noqa: E402

SEEDED = settings(derandomize=True, database=None, deadline=None,
                  max_examples=200,
                  suppress_health_check=[HealthCheck.too_slow])


@st.composite
def integer_rows(draw):
    """Rows over columns 0..ncols − 1, entries within ±2^bits: each one
    drawn dense and scaled by a content, or else a combination of two
    earlier rows.  Hypothesis draws the shape and the seed of the
    entries."""
    ncols = draw(st.integers(1, 32))
    nrows = draw(st.integers(ncols // 2 + 1, ncols + 6))
    bits = draw(st.sampled_from([2, 8, 64]))
    rng = draw(st.randoms(use_true_random=False))
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.25:
            a, b = rng.choice(rows), rng.choice(rows)
            x, y = rng.randint(-5, 5), rng.randint(-5, 5)
            row = {c: x * a.get(c, 0) + y * b.get(c, 0)
                   for c in a.keys() | b.keys()}
        else:
            scale = rng.randint(1, 12)
            row = {c: scale * rng.randint(-2**bits, 2**bits)
                   for c in range(ncols)}
        rows.append({c: v for c, v in row.items() if v})
    return rows


@SEEDED
@given(integer_rows())
def test_stored_pivots_equal_the_plain_loops(rows):
    ech = Echelon()
    for row in rows:
        ech.add(row)
    want = oracles.echelon_pivots(rows)
    assert list(ech.pivots) == list(want)
    assert ech.pivots == want
