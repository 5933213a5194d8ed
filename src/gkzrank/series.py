"""Integer-coefficient polynomials in one variable.

Poincare numerators and expected top-cohomology polynomials are ``PolyZ``s,
values read and compared by their coefficients; the arithmetic on them and the
lowest-terms rational functions built from them live in ``oracles``.
"""

from __future__ import annotations


class PolyZ:
    """Univariate polynomial with integer coefficients, dense ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other):
        return isinstance(other, PolyZ) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)
