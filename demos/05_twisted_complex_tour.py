#!/usr/bin/env python3
"""A tour of the twisted complex machinery at small scale.

Shows the twisted differential acting on a few explicit forms, then the
window ladder that turns exact ranks at growing truncation cutoffs into
a stabilized dimension table.
"""

from dworklab import parse_poly
from dworklab.weyl.poly import poly_to_str, MultiPoly
from dworklab.weyl.twisted import TwistedComplex, twisted_cohomology

F = parse_poly("y*(x^2-1)", ("x", "y"))
cx = TwistedComplex(F, d_max=4)
print(f"F = {poly_to_str(F, ('x', 'y'))}, twist d + dF^")

NAMES = {0: "1", 1: "dx", 2: "dy", 3: "dx^dy"}


def show(mono, mask):
    src = poly_to_str(MultiPoly(2, {mono: 1}), ("x", "y"))
    # rows are keyed by integer column codes; decode them to (mono, mask)
    row = {cx.column(code): c for code, c in cx.apply(mono, mask).items()}
    bits = []
    for tgt in sorted({t for _m, t in row}):
        coef = MultiPoly(2, {m: c for (m, t), c in row.items() if t == tgt})
        bits.append(f"({poly_to_str(coef, ('x', 'y'))}) {NAMES[tgt]}")
    print(f"  d_tw[{src} {NAMES[mask]}] = " + (" + ".join(bits) or "0"))


show((0, 0), 0)          # d of the function 1
show((1, 0), 0)          # d of x
show((0, 0), 1)          # d of dx
show((2, 0), 1)          # d of x^2 dx

print()
print("window ladder:")
res = twisted_cohomology(F)
for cutoff, dims in res.rungs:
    print(f"  degree <= {cutoff:2d}: {dims}")
print(f"stabilized: {res.dims}")
