"""Concrete cohomology computations behind the calculus.

Polynomial-coefficient complexes are truncated to finite degree windows
and laddered until the reported dimensions stabilize; every matrix is
exact (integer fraction-free elimination), so the numbers are proofs of
rank, not floating-point estimates.
"""

from .poly import MultiPoly, parse_poly, poly_to_str
from .twisted import twisted_cohomology
from .cech import complement_cohomology
from .compare import DworkComparison, dwork_compare, supports_cohomology
from .ladder import CohomologyReport

__all__ = [
    "MultiPoly",
    "parse_poly",
    "poly_to_str",
    "twisted_cohomology",
    "complement_cohomology",
    "supports_cohomology",
    "dwork_compare",
    "CohomologyReport",
    "DworkComparison",
]
