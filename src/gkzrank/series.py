"""Integer-coefficient polynomials in one variable.

Poincare numerators and expected top-cohomology polynomials are ``PolyZ``s;
the lowest-terms rational functions built from them live in ``oracles``.
"""

from __future__ import annotations

from math import gcd


class PolyZ:
    """Univariate polynomial with integer coefficients, dense ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "PolyZ":
        return cls([0] * degree + [coeff])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other):
        return isinstance(other, PolyZ) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyZ(
            [self.coeff(k) + other.coeff(k) for k in range(n)]
        )

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyZ(
            [self.coeff(k) - other.coeff(k) for k in range(n)]
        )

    def __neg__(self):
        return PolyZ([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return PolyZ([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return PolyZ()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return PolyZ(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = PolyZ([1])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def primitive(self) -> "PolyZ":
        g = self.content()
        if g <= 1:
            return self
        return PolyZ([c // g for c in self.coeffs])

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                t = "t" if k == 1 else f"t^{k}"
                if c == 1:
                    parts.append(t)
                elif c == -1:
                    parts.append(f"-{t}")
                else:
                    parts.append(f"{c}{t}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    __repr__ = __str__


