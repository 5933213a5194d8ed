"""The twisted logarithmic de Rham complex at a coefficient fiber.

Forms carry semigroup-ring coefficients; the differential conjugates the
exterior derivative by the monomial power of the parameter vector and the
exponential of the fiber polynomial.  The gauge filtration turns its leading
part into the Koszul differential, which drives the reduction of any top
form onto the monomial cohomology basis, in integers over one denominator
per monomial, and from there the Gauss-Manin connection matrices.
"""

from __future__ import annotations

import itertools
import warnings
from fractions import Fraction
from math import gcd, lcm

from .errors import GammaNotNormalized, NotInCone
from .homology import (
    CochainComplexQ,
    KouchnirenkoResult,
    verify_kouchnirenko,
    wedge_terms,
)
from .lattice import NewtonPolytope, Vector
from .linalg import SparseRationalMatrix, rank
from .rings import ConeRing, log_derivative_classes


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


def _partial(w, i, gamma_i, fiber, A) -> dict[Vector, Fraction]:
    """The i-th component of the twisted differential on t^w, unsigned.

    That is (w_i + gamma_i) t^w plus fiber_j A_ij t^(w + a_j) per column;
    coefficients of repeated columns add up and may cancel to zero.
    """
    out = {w: w[i] + gamma_i}
    for j, a in enumerate(A.rows[i]):
        if a != 0 and fiber[j] != 0:
            u = tuple(x + y for x, y in zip(w, A.column(j)))
            out[u] = out.get(u, 0) + fiber[j] * a
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
    out = LogForm(n, form.degree + 1)
    for (I, w), c in form.terms.items():
        for i, sign, J in wedge_terms(I, n):
            for u, v in _partial(w, i, gamma[i], fiber, polytope.matrix).items():
                out.add_term(J, u, sign * c * v)
    return out


def filtration_level(form: LogForm, polytope: NewtonPolytope):
    """Least filtration spot containing the form; None for the zero form."""
    if form.is_zero():
        return None
    M = polytope.gauge_denominator
    levels = []
    for (I, w), _ in form.terms.items():
        levels.append(polytope.graded_degree(w) - M * len(I))
    return max(levels)


def _top_part(form: LogForm, polytope: NewtonPolytope, level: int) -> LogForm:
    M = polytope.gauge_denominator
    out = LogForm(form.n, form.degree)
    for (I, w), c in form.terms.items():
        if polytope.graded_degree(w) - M * len(I) == level:
            out.add_term(I, w, c)
    return out


class GrComparison:
    def __init__(self, ok, checked, first_failure=None):
        self.ok: bool = ok
        self.checked: int = checked
        self.first_failure: LogForm | None = first_failure


def check_gr_equals_koszul(
    gamma, fiber, polytope: NewtonPolytope, samples=None, degree_bound=None
) -> GrComparison:
    """Leading part of the twisted differential versus the Koszul rule.

    Samples must be homogeneous forms (all terms at one filtration level).
    By default every monomial form with coefficient degree up to two grading
    windows is tried.
    """
    n = polytope.n
    M = polytope.gauge_denominator
    ring = ConeRing(polytope)
    gs = log_derivative_classes(fiber, None, polytope)
    if samples is None:
        if degree_bound is None:
            degree_bound = 2 * M
        samples = []
        for q in range(n):
            for I in itertools.combinations(range(n), q):
                for d in range(degree_bound + 1):
                    for w in ring.monomials_of_degree(d):
                        samples.append(LogForm.monomial(n, I, w))
    checked = 0
    for form in samples:
        if form.is_zero():
            checked += 1
            continue
        level = filtration_level(form, polytope)
        if _top_part(form, polytope, level).terms != form.terms:
            raise ValueError("sample form is not homogeneous")
        d_form = twisted_differential(gamma, fiber, form, polytope)
        top = _top_part(d_form, polytope, level)
        koszul = LogForm(n, form.degree + 1)
        for (I, w), c in form.terms.items():
            for i, sign, J in wedge_terms(I, n):
                for u, coeff in gs[i].terms.items():
                    prod = ring.multiply_monomials(u, w)
                    if prod is not None:
                        koszul.add_term(J, prod, sign * c * coeff)
        checked += 1
        if top.terms != koszul.terms:
            return GrComparison(False, checked, form)
    return GrComparison(True, checked)


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
    are the basis.  The chosen images are subtracted whole, and
    the lower-degree remainder is rewritten through the normal forms of its
    monomials, kept in ``normal_forms`` as (numerators, denominator) in
    lowest common terms.
    """

    def __init__(self, gamma, fiber, polytope: NewtonPolytope, kouchnirenko):
        _warn_if_not_normalized(gamma, polytope)
        self.polytope = polytope
        self.gamma = tuple(Fraction(g) for g in gamma)
        self.fiber = tuple(Fraction(c) for c in fiber)
        self.scale = lcm(*(c.denominator for c in self.gamma + self.fiber))
        self.ring = kouchnirenko.ring
        self.kouchnirenko = kouchnirenko
        self.basis: list[Vector] = list(kouchnirenko.monomial_basis)
        self._position = {w: k for k, w in enumerate(self.basis)}
        n = polytope.n
        # dlog t_i ^ dlog_{[n] minus i} = sign_i * dlog_{[n]}
        rests = [tuple(k for k in range(n) if k != i) for i in range(n)]
        self._signs = [next(wedge_terms(rest, n))[1] for rest in rests]
        self._images: dict[tuple[int, Vector], dict[Vector, int]] = {}
        self.normal_forms: dict[Vector, tuple[tuple[int, ...], int]] = {}

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def image(self, i: int, w: Vector) -> dict[Vector, int]:
        """``scale`` times d(t^w dlog_{[n] minus i}) as integer coefficients
        of t^u dlog_{[n]}."""
        img = self._images.get((i, w))
        if img is None:
            terms = _partial(w, i, self.gamma[i], self.fiber, self.polytope.matrix)
            sign = self._signs[i]
            img = {u: sign * int(c * self.scale) for u, c in terms.items() if c}
            self._images[(i, w)] = img
        return img

    def _step(self, w: Vector):
        """Solve t^w once against its degree's top slice of the Kouchnirenko
        result: its basis coordinates and the remainder after subtracting
        every chosen image whole, both over D * scale."""
        units, images, D = self.kouchnirenko.solve_top(w)
        coords = [0] * self.dimension
        rest = {w: D * self.scale}
        for u, x in units.items():
            if u not in self._position:
                raise AssertionError(
                    "top part not in basis + image; truncation logic broken"
                )
            coords[self._position[u]] = x * self.scale
            rest[u] = rest.get(u, 0) - x * self.scale
        # g_i * t^v is the leading part of image(i, v) over its wedge sign
        # and scale.
        for i, v, x in images:
            for u, c in self.image(i, v).items():
                rest[u] = rest.get(u, 0) - self._signs[i] * x * c
        rest = {u: c for u, c in rest.items() if c}
        P, e = self.polytope, self.polytope.graded_degree(w)
        if any(P.graded_degree(u) >= e for u in rest):
            raise AssertionError("reduction did not lower the degree")
        return coords, rest, D * self.scale

    def reduce_monomial(self, w) -> tuple[Fraction, ...]:
        """Normal form of t^w dlog_{[n]}: its coordinates against the basis.

        Remainder monomials are reduced before the monomial that needs them,
        on an explicit stack, since chains run as deep as the degree; each
        remainder lies strictly below its monomial's degree, so it empties.
        Their normal forms are combined over the lcm of their denominators,
        and the common content is removed once.
        """
        w = tuple(w)
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
        return tuple(Fraction(y, nf[w][1]) for y in nf[w][0])

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
    A = basis.polytope.matrix
    dim = basis.dimension
    out = []
    for j in range(A.num_columns):
        wj = A.column(j)
        mat = [[Fraction(0)] * dim for _ in range(dim)]
        for l, wl in enumerate(basis.basis):
            shifted = tuple(a + b for a, b in zip(wj, wl))
            coords = basis.reduce_monomial(shifted)
            for k in range(dim):
                mat[k][l] = coords[k]
        out.append(mat)
    return out


def derham_cohomology_dims(
    gamma, fiber, polytope: NewtonPolytope, level_cap=None, *,
    kouchnirenko: KouchnirenkoResult | None = None,
):
    """Truncated dimensions of every cohomology spot of the twisted complex.

    Opt-in diagnostic: with the leading parts certified exact away from the
    top, every spot below the top must report zero at any cap, because a
    cocycle always bounds at its own filtration level.  A ``kouchnirenko``
    result already computed for this fiber is reused; without one the fiber
    is certified here and a degenerate one raises.
    """
    kz = kouchnirenko or verify_kouchnirenko(polytope.matrix, fiber, polytope)
    _warn_if_not_normalized(gamma, polytope)
    gamma = [Fraction(g) for g in gamma]
    fiber = [Fraction(c) for c in fiber]
    n = polytope.n
    M = polytope.gauge_denominator
    ring = kz.ring
    if level_cap is None:
        level_cap = max(0, kz.truncation - M * n)

    def slice_basis(q):
        out = []
        bound = level_cap + M * q
        for I in itertools.combinations(range(n), q):
            for d in range(bound + 1):
                for w in ring.monomials_of_degree(d):
                    out.append((I, w))
        return out

    bases = {q: slice_basis(q) for q in range(n + 1)}
    A = polytope.matrix
    mats = {}
    for q in range(n):
        src = bases[q]
        dst = bases[q + 1]
        index = {lbl: i for i, lbl in enumerate(dst)}
        mat = SparseRationalMatrix(len(dst), len(src))
        for col, (I, w) in enumerate(src):
            for i, sign, J in wedge_terms(I, n):
                for u, c in _partial(w, i, gamma[i], fiber, A).items():
                    row = index.get((J, u))
                    if row is None:
                        raise AssertionError("filtration cap leaked")
                    mat.set(row, col, sign * c)
        mats[q] = mat
    return CochainComplexQ(bases, mats).cohomology_dims()
