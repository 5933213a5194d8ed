"""Integer-coefficient polynomials in one variable and exact rational functions.

Poincare series of the graded semigroup rings are stored as quotients of
integer polynomials in lowest terms; Taylor coefficients are produced by the
exact linear recurrence coming from the denominator.
"""

from __future__ import annotations

from fractions import Fraction
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


def _poly_divmod_q(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    while len(num) >= len(den) and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) < len(den):
            break
        c = num[-1] / den[-1]
        shift = len(num) - len(den)
        q[shift] = c
        for i, d in enumerate(den):
            num[shift + i] -= c * d
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return q, num


def _poly_gcd_z(a: PolyZ, b: PolyZ) -> PolyZ:
    """Monic-free gcd over Q, returned primitive over Z."""
    fa = [Fraction(c) for c in a.coeffs]
    fb = [Fraction(c) for c in b.coeffs]
    while fb and any(fb):
        _, r = _poly_divmod_q(fa, fb)
        fa, fb = fb, r
    if not fa:
        return PolyZ()
    denom_lcm = 1
    for c in fa:
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in fa]
    return PolyZ(ints).primitive()


class RationalFunctionQ:
    """A fraction of integer polynomials, kept in lowest terms.

    The sign convention makes the lowest nonzero denominator coefficient
    positive, so series like 1/(1-t) print in the familiar orientation.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: PolyZ, den: PolyZ):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = PolyZ(), PolyZ([1])
            return
        g = _poly_gcd_z(num, den)
        if g.degree > 0:
            qn, rn = _poly_divmod_q(
                [Fraction(c) for c in num.coeffs], [Fraction(c) for c in g.coeffs]
            )
            qd, rd = _poly_divmod_q(
                [Fraction(c) for c in den.coeffs], [Fraction(c) for c in g.coeffs]
            )
            assert not any(rn) and not any(rd)
            num = PolyZ([int(c) for c in qn])
            den = PolyZ([int(c) for c in qd])
        cg = gcd(num.content(), den.content())
        if cg > 1:
            num = PolyZ([c // cg for c in num.coeffs])
            den = PolyZ([c // cg for c in den.coeffs])
        low = next(c for c in den.coeffs if c != 0)
        if low < 0:
            num, den = -num, -den
        self.num, self.den = num, den

    def __eq__(self, other):
        if not isinstance(other, RationalFunctionQ):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        return hash((self.num, self.den))

    def taylor(self, upto: int) -> list[int]:
        """Coefficients of the power series expansion through degree ``upto``."""
        d0 = self.den.coeff(0)
        if d0 == 0:
            raise ValueError("denominator vanishes at t=0")
        out: list[Fraction] = []
        for k in range(upto + 1):
            s = Fraction(self.num.coeff(k))
            for j in range(1, min(k, self.den.degree) + 1):
                s -= self.den.coeff(j) * out[k - j]
            out.append(s / d0)
        ints = []
        for c in out:
            if c.denominator != 1:
                raise ValueError("series has non-integer coefficients")
            ints.append(int(c))
        return ints

    def pole_order_at_one(self) -> int:
        """Multiplicity of the pole at t=1 (negative for a zero there)."""

        def one_multiplicity(poly: PolyZ) -> int:
            cs = [Fraction(c) for c in poly.coeffs]
            k = 0
            while cs and sum(cs) == 0:
                q, r = _poly_divmod_q(cs, [Fraction(1), Fraction(-1)])
                assert not any(r)
                cs = q
                k += 1
            return k

        return one_multiplicity(self.den) - one_multiplicity(self.num)

    def __str__(self):
        if self.den == PolyZ([1]):
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__
