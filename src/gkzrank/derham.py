"""The twisted logarithmic de Rham complex at a coefficient fiber.

Forms carry semigroup-ring coefficients; the differential conjugates the
exterior derivative by the monomial power of the parameter vector and the
exponential of the fiber polynomial.  The gauge filtration turns its leading
part into the Koszul differential (``oracles.check_gr_equals_koszul``
checks this), which drives the reduction of any top form onto the monomial
cohomology basis, in integers over one denominator per monomial, and from
there the Gauss-Manin connection matrices.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from math import gcd, lcm
from operator import add

from .errors import GammaNotNormalized, NotInCone
from .homology import KouchnirenkoResult, verify_kouchnirenko, wedge_terms
from .lattice import NewtonPolytope, Vector
from .linalg import SparseRationalMatrix, rank


class LogForm:
    """A differential form with logarithmic monomial coefficients.

    ``terms`` maps (index set, exponent) to a rational coefficient; index
    sets are strictly increasing tuples of 0-based coordinate indices and
    every exponent must lie in the exponent cone.
    """

    def __init__(self, n, degree, terms=None):
        self.n: int = n
        self.degree: int = degree
        self.terms: dict[tuple[tuple[int, ...], Vector], Fraction] = (
            {} if terms is None else terms
        )

    @classmethod
    def monomial(cls, n, indices, w, coeff=1) -> "LogForm":
        indices = tuple(sorted(indices))
        if len(set(indices)) != len(indices):
            raise ValueError("repeated wedge index")
        c = Fraction(coeff)
        form = cls(n, len(indices))
        if c != 0:
            form.terms[(indices, tuple(w))] = c
        return form

    def is_zero(self) -> bool:
        return not self.terms

    def add_term(self, indices, w, coeff):
        key = (tuple(indices), tuple(w))
        new = self.terms.get(key, Fraction(0)) + Fraction(coeff)
        if new == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    def __add__(self, other):
        if self.degree != other.degree or self.n != other.n:
            raise ValueError("form degree mismatch")
        out = LogForm(self.n, self.degree, dict(self.terms))
        for (I, w), c in other.terms.items():
            out.add_term(I, w, c)
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "LogForm":
        c = Fraction(c)
        if c == 0:
            return LogForm(self.n, self.degree)
        return LogForm(
            self.n, self.degree, {k: v * c for k, v in self.terms.items()}
        )

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for (I, w), c in self.sorted_terms():
            wedge = "^".join(f"dlog t{i+1}" for i in I) or "1"
            bits.append(f"{c}*t^{w} {wedge}")
        return " + ".join(bits)


def _warn_if_not_normalized(gamma, polytope: NewtonPolytope):
    gamma = [Fraction(g) for g in gamma]
    if any(
        sum(a * b for a, b in zip(m, gamma)) > 0
        for m in polytope.cone_inequalities()
    ):
        warnings.warn(
            "parameter vector is not normalized into the negated cone; "
            "rank guarantees are void",
            GammaNotNormalized,
            stacklevel=3,
        )


def _partial(w, i, scale, gamma_i, fiber, columns) -> dict[Vector, int | Fraction]:
    """``scale`` times the i-th component of the twisted differential on
    t^w, unsigned, for gamma_i and the fiber given times ``scale``.

    That is (w_i + gamma_i) t^w plus fiber_j A_ij t^(w + a_j) per column
    a_j; coefficients of repeated columns add up and may cancel to zero.
    Integers in give integers out.
    """
    out = {w: scale * w[i] + gamma_i}
    for c, a in zip(fiber, columns):
        if c and a[i]:
            u = tuple(map(add, w, a))
            out[u] = out.get(u, 0) + c * a[i]
    return out


def twisted_differential(
    gamma, fiber, form: LogForm, polytope: NewtonPolytope
) -> LogForm:
    """Apply the conjugated exterior derivative termwise.

    On a coefficient monomial the i-th component contributes the exponent
    coordinate plus the parameter entry, together with one shifted monomial
    per matrix column weighted by the fiber.
    """
    _warn_if_not_normalized(gamma, polytope)
    n = polytope.n
    gamma = [Fraction(g) for g in gamma]
    fiber = [Fraction(c) for c in fiber]
    columns = polytope.matrix.columns
    out = LogForm(n, form.degree + 1)
    for (I, w), c in form.terms.items():
        for i, sign, J in wedge_terms(I, n):
            for u, v in _partial(w, i, 1, gamma[i], fiber, columns).items():
                out.add_term(J, u, sign * c * v)
    return out


class ReductionBasis:
    """Monomial basis of the top cohomology with a memoized rewrite engine.

    The basis monomials come from the greedy Koszul quotient, and the twisted
    image d(t^w dlog_{[n] minus i}) of each pair (i, w) is built once,
    times ``scale`` (the lcm of the denominators of gamma and the fiber) so
    that it is integral; that keeps its span and support.  Each monomial of
    degree e is solved once, in integers, against the Kouchnirenko result's
    factored top slice of degree e, whose image columns are the leading
    parts of the images (as ``check_gr_equals_koszul`` certifies), each
    scaled to integers, which ``solve_top`` undoes, and whose unit pivots
    are the basis.  Degree e then cancels, so only the tails of the chosen
    images (their terms below e) are subtracted, each image checked once,
    in integers, against its slice column.  The remainder is rewritten
    through the normal forms of its monomials, kept in ``normal_forms`` as
    (numerators, denominator) in lowest common terms.
    """

    def __init__(self, gamma, fiber, polytope: NewtonPolytope, kouchnirenko):
        _warn_if_not_normalized(gamma, polytope)
        self.polytope = polytope
        self.gamma = tuple(Fraction(g) for g in gamma)
        self.fiber = tuple(Fraction(c) for c in fiber)
        self.scale = lcm(*(c.denominator for c in self.gamma + self.fiber))
        s = self.scale
        self._scaled = [[int(x * s) for x in v] for v in (self.gamma, self.fiber)]
        self._columns = polytope.matrix.columns
        self.ring = kouchnirenko.ring
        self.kouchnirenko = kouchnirenko
        self.basis: list[Vector] = list(kouchnirenko.monomial_basis)
        self._position = {w: k for k, w in enumerate(self.basis)}
        n = polytope.n
        # dlog t_i ^ dlog_{[n] minus i} = sign_i * dlog_{[n]}
        rests = [tuple(k for k in range(n) if k != i) for i in range(n)]
        self._signs = [next(wedge_terms(rest, n))[1] for rest in rests]
        self._images: dict[tuple[int, Vector], dict[Vector, int]] = {}
        self._tails: dict[tuple[int, Vector], list[tuple[Vector, int]]] = {}
        self.normal_forms: dict[Vector, tuple[tuple[int, ...], int]] = {}
        self._coordinates: dict[Vector, tuple[Fraction, ...]] = {}

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def image(self, i: int, w: Vector) -> dict[Vector, int]:
        """``scale`` times d(t^w dlog_{[n] minus i}) as integer coefficients
        of t^u dlog_{[n]}."""
        img = self._images.get((i, w))
        if img is None:
            gamma, fiber = self._scaled
            terms = _partial(w, i, self.scale, gamma[i], fiber, self._columns)
            sign = self._signs[i]
            img = {u: sign * c for u, c in terms.items() if c}
            self._images[(i, w)] = img
        return img

    def _tail(self, i: int, v: Vector) -> list[tuple[Vector, int]]:
        """The terms of image(i, v) below degree deg v + M times the wedge
        sign, built once, after checking that the other terms are sign_i *
        scale / c_i times the slice column c_i * g_i * t^v."""
        tail = self._tails.get((i, v))
        if tail is None:
            P, sign = self.polytope, self._signs[i]
            e = P.graded_degree(v) + P.gauge_denominator
            c_i, column = self.kouchnirenko.top_column(i, v)
            lead, tail = {}, []
            for u, c in self.image(i, v).items():
                if P.graded_degree(u) < e:
                    tail.append((u, sign * c))
                else:
                    lead[u] = sign * c_i * c
            if lead != {u: self.scale * c for u, c in column.items()}:
                raise AssertionError("image leading part is not its slice column")
            self._tails[(i, v)] = tail
        return tail

    def _step(self, w: Vector):
        """Solve t^w once against its degree's top slice of the Kouchnirenko
        result: its basis coordinates and the remainder, the chosen images'
        tails, both over D * scale."""
        units, images, D = self.kouchnirenko.solve_top(w)
        coords = [0] * self.dimension
        for u, x in units.items():
            if u not in self._position:
                raise AssertionError(
                    "top part not in basis + image; truncation logic broken"
                )
            coords[self._position[u]] = x * self.scale
        rest: dict[Vector, int] = {}
        for i, v, x in images:
            for u, c in self._tail(i, v):
                rest[u] = rest.get(u, 0) - x * c
        return coords, {u: c for u, c in rest.items() if c}, D * self.scale

    def reduce_monomial(self, w) -> tuple[Fraction, ...]:
        """Normal form of t^w dlog_{[n]}: its coordinates against the basis.

        Remainder monomials are reduced before the monomial that needs them,
        on an explicit stack, since chains run as deep as the degree; each
        remainder lies strictly below its monomial's degree, so it empties.
        Their normal forms are combined over the lcm of their denominators,
        and the common content is removed once.  Rationals are made once per
        monomial asked for.
        """
        w = tuple(w)
        out = self._coordinates.get(w)
        if out is not None:
            return out
        nf = self.normal_forms
        if w not in nf and not self.polytope.cone_contains(w):
            raise NotInCone(w)
        pending = {}
        stack = [w]
        while stack:
            u = stack[-1]
            if u in nf:
                stack.pop()
            elif u not in pending:
                pending[u] = self._step(u)
                stack.extend(v for v in pending[u][1] if v not in nf)
            else:
                stack.pop()
                coords, rest, D = pending.pop(u)
                L = lcm(*(nf[v][1] for v in rest))
                coords = [c * L for c in coords]
                for v, c in rest.items():
                    c *= L // nf[v][1]
                    for k, y in enumerate(nf[v][0]):
                        if y:
                            coords[k] += c * y
                g = gcd(D * L, *coords)
                nf[u] = (tuple(y // g for y in coords), D * L // g)
        out = self._coordinates[w] = tuple(Fraction(y, nf[w][1]) for y in nf[w][0])
        return out

    def reduce(self, form: LogForm) -> tuple[Fraction, ...]:
        """Coordinates of an n-form against the basis, modulo exact forms."""
        full = tuple(range(self.polytope.n))
        if any(I != full for I, _ in form.terms):
            raise ValueError("reduction expects a top-degree form")
        coords = [Fraction(0)] * self.dimension
        for (_, w), c in form.terms.items():
            for k, y in enumerate(self.reduce_monomial(w)):
                coords[k] += c * y
        return tuple(coords)


def h_top_dimension(
    gamma, fiber, polytope: NewtonPolytope, *,
    kouchnirenko: KouchnirenkoResult | None = None,
):
    """Cokernel dimension of the truncated top differential, plus the basis.

    The truncation keeps coefficient degrees through the certified Koszul
    bound; the filtration argument makes the cokernel equal to the full top
    cohomology, so on a nondegenerate fiber it must come out at the
    normalized volume.  A ``kouchnirenko`` result already computed for this
    fiber is reused; without one the fiber is certified here and a
    degenerate one raises.
    """
    kz = kouchnirenko or verify_kouchnirenko(polytope.matrix, fiber, polytope)
    basis = ReductionBasis(gamma, fiber, polytope, kz)
    M = polytope.gauge_denominator
    ring = kz.ring
    top_bound = kz.truncation
    src_bound = top_bound - M
    rows: list[Vector] = []
    for d in range(top_bound + 1):
        rows.extend(ring.monomials_of_degree(d))
    row_index = {w: i for i, w in enumerate(rows)}
    entries = {}
    col = 0
    for d in range(src_bound + 1):
        for w in ring.monomials_of_degree(d):
            for i in range(polytope.n):
                for u, c in basis.image(i, w).items():
                    entries[(row_index[u], col)] = c
                col += 1
    dim = len(rows) - rank(SparseRationalMatrix(len(rows), col, entries))
    return dim, basis


def _check_built_for(basis: ReductionBasis, gamma, fiber):
    """Reject a gamma or fiber, unless None, that the basis was not built for."""
    if gamma is not None and tuple(map(Fraction, gamma)) != basis.gamma:
        raise ValueError("basis was built for a different parameter vector")
    if fiber is not None and tuple(map(Fraction, fiber)) != basis.fiber:
        raise ValueError("basis was built for a different fiber")


def reduce_to_basis(
    form: LogForm, basis: ReductionBasis, gamma=None, fiber=None
) -> tuple[Fraction, ...]:
    """Coordinates of a top form in the reduction basis, modulo exact forms."""
    _check_built_for(basis, gamma, fiber)
    return basis.reduce(form)


def connection_matrices(gamma, fiber, basis: ReductionBasis):
    """Gauss-Manin matrices: one per column, acting on the reduction basis.

    Entry (k, l) of the j-th matrix is the k-th coordinate of the reduction
    of the j-th column monomial times the l-th basis monomial.
    """
    _check_built_for(basis, gamma, fiber)
    out = []
    for wj in basis.polytope.matrix.columns:
        cols = [basis.reduce_monomial(tuple(map(add, wj, wl))) for wl in basis.basis]
        out.append([list(row) for row in zip(*cols)])
    return out


