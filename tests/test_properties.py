"""Randomized exact property suites.

Each suite runs at least 200 cases with exact assertions and returns the
case count so the acceptance module can report it.  Seeds are fixed for
reproducibility.  Random parameter vectors are deliberately allowed to be
un-normalized; the differential identities hold for any representative, so
the normalization warning is silenced here.
"""

import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkzrank.errors import GammaNotNormalized

pytestmark = pytest.mark.filterwarnings("ignore::gkzrank.errors.GammaNotNormalized")

from gkzrank.linalg import RationalSpan

from gkzrank import (
    ConeRing,
    FreeRing,
    LogForm,
    NewtonPolytope,
    RingElement,
    check_gr_equals_koszul,
    filtration_level,
    gr_multiply,
    h_top_dimension,
    is_nondegenerate,
    koszul_regular_sequence_check,
    log_derivative_classes,
    twisted_differential,
    validate_matrix,
    verify_kouchnirenko,
)

F = Fraction

PROPERTY_MATRICES = {
    "double": ([[2]], [1]),
    "interval": ([[1, 2]], [1, 1]),
    "symmetric": ([[-1, 1]], [1, 1]),
    "triangle": ([[1, 0, 1], [0, 1, 1]], [1, 2, 1]),
    "cross": ([[1, 0, -1, 0], [0, 1, 0, -1]], [1, 2, 3, 5]),
    "gauss": ([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]], [1, 2, 3, 4]),
}

_POLYTOPES = {}


def get_polytope(name):
    if name not in _POLYTOPES:
        rows, fiber = PROPERTY_MATRICES[name]
        matrix = validate_matrix(rows)
        _POLYTOPES[name] = (matrix, NewtonPolytope(matrix), fiber)
    return _POLYTOPES[name]


def random_cone_point(rnd, polytope, ring, max_degree=3):
    d = rnd.randint(0, max_degree)
    slice_ = ring.monomials_of_degree(d)
    while not slice_:
        d -= 1
        slice_ = ring.monomials_of_degree(d)
    return slice_[rnd.randrange(len(slice_))]


def random_fraction(rnd):
    return F(rnd.randint(-5, 5), rnd.randint(1, 4))


def random_form(rnd, polytope, ring, q, terms=2, max_degree=3):
    form = LogForm(polytope.n, q)
    for _ in range(terms):
        indices = tuple(sorted(rnd.sample(range(polytope.n), q)))
        w = random_cone_point(rnd, polytope, ring, max_degree)
        form.add_term(indices, w, random_fraction(rnd))
    return form


def koszul_apply(ring, sequence, chain):
    """One Koszul differential step on a labeled chain (left wedge)."""
    out = {}
    m = len(sequence)
    for (I, w), c in chain.items():
        for i in range(m):
            if i in I:
                continue
            sign = (-1) ** sum(1 for k in I if k < i)
            J = tuple(sorted(I + (i,)))
            for u, coeff in sequence[i].terms.items():
                prod = ring.multiply_monomials(u, w)
                if prod is None:
                    continue
                key = (J, prod)
                new = out.get(key, F(0)) + sign * c * coeff
                if new == 0:
                    out.pop(key, None)
                else:
                    out[key] = new
    return out


# -- suite 1: d o d = 0, twisted and Koszul ------------------------------------


def suite_d_squared_zero():
    rnd = random.Random(101)
    names = list(PROPERTY_MATRICES)
    count = 0
    warnings.filterwarnings("ignore", category=GammaNotNormalized)
    while count < 120:
        name = names[rnd.randrange(len(names))]
        matrix, P, fiber = get_polytope(name)
        ring = ConeRing(P)
        gamma = [random_fraction(rnd) for _ in range(P.n)]
        a = [random_fraction(rnd) for _ in range(matrix.num_columns)]
        q = rnd.randint(0, max(0, P.n - 1))
        form = random_form(rnd, P, ring, q)
        dd = twisted_differential(
            gamma, a, twisted_differential(gamma, a, form, P), P
        )
        assert dd.is_zero()
        count += 1
    while count < 240:
        name = names[rnd.randrange(len(names))]
        matrix, P, fiber = get_polytope(name)
        ring = ConeRing(P)
        seq = log_derivative_classes(fiber, None, P)
        q = rnd.randint(0, max(0, P.n - 2))
        chain = {}
        for _ in range(2):
            I = tuple(sorted(rnd.sample(range(P.n), q)))
            w = random_cone_point(rnd, P, ring)
            chain[(I, w)] = random_fraction(rnd)
        once = koszul_apply(ring, seq, chain)
        twice = koszul_apply(ring, seq, once)
        assert twice == {}
        count += 1
    return count


# -- suite 2: the differential preserves the filtration ------------------------


def suite_filtration_preserved():
    rnd = random.Random(202)
    names = list(PROPERTY_MATRICES)
    count = 0
    warnings.filterwarnings("ignore", category=GammaNotNormalized)
    while count < 220:
        name = names[rnd.randrange(len(names))]
        matrix, P, fiber = get_polytope(name)
        ring = ConeRing(P)
        gamma = [random_fraction(rnd) for _ in range(P.n)]
        a = [random_fraction(rnd) for _ in range(matrix.num_columns)]
        q = rnd.randint(0, P.n - 1)
        form = random_form(rnd, P, ring, q)
        if form.is_zero():
            continue
        image = twisted_differential(gamma, a, form, P)
        if not image.is_zero():
            assert filtration_level(image, P) <= filtration_level(form, P)
        count += 1
    return count


# -- suite 3: leading part of the twisted differential is the Koszul rule ------


def suite_gr_equals_koszul():
    rnd = random.Random(303)
    count = 0
    for name, (rows, fiber) in PROPERTY_MATRICES.items():
        matrix, P, _ = get_polytope(name)
        result = check_gr_equals_koszul([0] * P.n, fiber, P)
        assert result.ok
        count += result.checked
    # extra randomized monomial samples with random coefficients
    names = list(PROPERTY_MATRICES)
    samples_run = 0
    while samples_run < 100:
        name = names[rnd.randrange(len(names))]
        matrix, P, fiber = get_polytope(name)
        ring = ConeRing(P)
        q = rnd.randint(0, P.n - 1)
        I = tuple(sorted(rnd.sample(range(P.n), q)))
        w = random_cone_point(rnd, P, ring)
        sample = LogForm.monomial(P.n, I, w, random_fraction(rnd) or F(1))
        if sample.is_zero():
            continue
        result = check_gr_equals_koszul([0] * P.n, fiber, P, samples=[sample])
        assert result.ok
        samples_run += 1
        count += 1
    return count


# -- suite 4: gauge homogeneity and subadditivity -------------------------------


def suite_gauge_laws():
    rnd = random.Random(404)
    names = list(PROPERTY_MATRICES)
    count = 0
    while count < 260:
        name = names[rnd.randrange(len(names))]
        matrix, P, _ = get_polytope(name)
        cols = matrix.columns
        # build from actual column combinations so membership is guaranteed
        coeffs1 = [rnd.randint(0, 3) for _ in cols]
        coeffs2 = [rnd.randint(0, 3) for _ in cols]
        w1 = tuple(
            sum(c * col[k] for c, col in zip(coeffs1, cols)) for k in range(P.n)
        )
        w2 = tuple(
            sum(c * col[k] for c, col in zip(coeffs2, cols)) for k in range(P.n)
        )
        r = rnd.randint(0, 5)
        rw = tuple(r * c for c in w1)
        assert P.gauge(rw) == r * P.gauge(w1)
        s = tuple(a + b for a, b in zip(w1, w2))
        assert P.gauge(s) <= P.gauge(w1) + P.gauge(w2)
        count += 1
    return count


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(sorted(PROPERTY_MATRICES)),
    data=st.data(),
)
def test_gauge_laws_hypothesis(name, data):
    matrix, P, _ = get_polytope(name)
    cols = matrix.columns
    coeffs1 = data.draw(
        st.lists(st.integers(0, 4), min_size=len(cols), max_size=len(cols))
    )
    coeffs2 = data.draw(
        st.lists(st.integers(0, 4), min_size=len(cols), max_size=len(cols))
    )
    r = data.draw(st.integers(0, 6))
    w1 = tuple(sum(c * col[k] for c, col in zip(coeffs1, cols)) for k in range(P.n))
    w2 = tuple(sum(c * col[k] for c, col in zip(coeffs2, cols)) for k in range(P.n))
    assert P.gauge(tuple(r * c for c in w1)) == r * P.gauge(w1)
    assert P.gauge(tuple(a + b for a, b in zip(w1, w2))) <= P.gauge(w1) + P.gauge(w2)


# -- suite 5: graded multiplication laws ----------------------------------------


def suite_gr_multiply_laws():
    rnd = random.Random(505)
    names = list(PROPERTY_MATRICES)
    count = 0

    while count < 360:
        name = names[rnd.randrange(len(names))]
        matrix, P, _ = get_polytope(name)
        # The first 240 draws multiply in the full ring, the rest in the ring
        # of a random face cone avoiding the origin, where no product vanishes.
        face = None
        if count >= 240:
            faces = P.origin_free_faces()
            face = faces[rnd.randrange(len(faces))]
        ring = ConeRing(P, face)

        def mul(a, b):
            if a is None or b is None:
                return None
            return ring.multiply_monomials(a, b)

        x = random_cone_point(rnd, P, ring, 2)
        y = random_cone_point(rnd, P, ring, 2)
        z = random_cone_point(rnd, P, ring, 2)
        # dual route: the face search agrees with the gauge shortcut
        assert gr_multiply(x, y, P) == ring.multiply_monomials(x, y)
        # commutativity and associativity with absorbing zero
        assert mul(x, y) == mul(y, x)
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        # grading: a surviving product adds degrees
        p = mul(x, y)
        assert face is None or p is not None
        if p is not None:
            assert ring.degree(p) == ring.degree(x) + ring.degree(y)
        count += 1
    return count


# -- suite 6: reduction is linear and kills exact forms --------------------------


def suite_reduction_laws():
    rnd = random.Random(606)
    bases = {}
    for name in ("double", "interval", "symmetric", "gauss"):
        matrix, P, fiber = get_polytope(name)
        gamma = [0] * P.n
        _, basis = h_top_dimension(gamma, verify_kouchnirenko(is_nondegenerate(fiber, P)))
        bases[name] = (matrix, P, fiber, gamma, basis)
    names = list(bases)
    count = 0
    while count < 210:
        name = names[rnd.randrange(len(names))]
        matrix, P, fiber, gamma, basis = bases[name]
        ring = basis.ring
        n = P.n
        full = tuple(range(n))
        omega1 = random_form(rnd, P, ring, n, terms=2, max_degree=3)
        omega2 = random_form(rnd, P, ring, n, terms=2, max_degree=3)
        alpha, beta = random_fraction(rnd), random_fraction(rnd)
        combo = omega1.scale(alpha) + omega2.scale(beta)
        r1 = basis.reduce(omega1)
        r2 = basis.reduce(omega2)
        rc = basis.reduce(combo)
        assert rc == tuple(
            alpha * c1 + beta * c2 for c1, c2 in zip(r1, r2)
        )
        if n >= 1:
            eta = random_form(rnd, P, ring, n - 1, terms=2, max_degree=2)
            d_eta = twisted_differential(gamma, fiber, eta, P)
            shifted = omega1 + d_eta
            assert basis.reduce(shifted) == r1
        count += 1
    return count


# -- suite 7: Koszul vanishing for toy regular sequences -------------------------


def suite_toy_regular_sequences():
    # Linearly independent linear forms are a regular sequence, so the
    # cohomology below the regular length must vanish exactly.
    rnd = random.Random(707)
    count = 0
    while count < 200:
        k = rnd.randint(1, 3)
        ring = FreeRing(k)
        d = rnd.randint(0, k)
        coeffs = []
        span = RationalSpan(k)
        while len(coeffs) < d:
            row = [rnd.randint(-2, 2) for _ in range(k)]
            if span.add({j: F(c) for j, c in enumerate(row) if c != 0}):
                coeffs.append(row)
        forms = []
        for row in coeffs:
            g = RingElement()
            for j, c in enumerate(row):
                if c:
                    g.add_term(tuple(1 if t == j else 0 for t in range(k)), c)
            forms.append(g)
        pad = rnd.randint(0, 2)
        for _ in range(pad):
            forms.append(RingElement())
        check = koszul_regular_sequence_check(ring, forms, d, 5)
        assert check.vanishing_below, (k, d, forms)
        assert check.embeds_in_quotient
        count += 1
    return count


# -- suite 8: invariance of the nondegeneracy verdict ----------------------------


def _random_unimodular(rnd, n, ops=3):
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        kind = rnd.choice(["swap", "neg", "shear"]) if n > 1 else "neg"
        if kind == "swap":
            i, j = rnd.sample(range(n), 2)
            U[i], U[j] = U[j], U[i]
        elif kind == "neg":
            i = rnd.randrange(n)
            U[i] = [-c for c in U[i]]
        else:
            i, j = rnd.sample(range(n), 2)
            q = rnd.choice([-1, 1])
            U[i] = [a + q * b for a, b in zip(U[i], U[j])]
    return U


def _apply_left(U, rows):
    n = len(rows)
    width = len(rows[0])
    return [
        [sum(U[i][k] * rows[k][j] for k in range(n)) for j in range(width)]
        for i in range(n)
    ]


def suite_verdict_invariance():
    rnd = random.Random(808)
    cases = [
        ("interval", [1, 1], True),
        ("interval", [1, 0], False),
        ("symmetric", [1, 1], True),
        ("triangle", [1, 2, 1], True),
        ("gauss", [1, 2, 3, 4], True),
        ("gauss", [1, 1, 1, 1], False),
    ]
    count = 0
    while count < 200:
        name, fiber, expected = cases[rnd.randrange(len(cases))]
        rows, _ = PROPERTY_MATRICES[name]
        n = len(rows)
        U = _random_unimodular(rnd, n, ops=2 if n >= 3 else 3)
        transformed = _apply_left(U, rows)
        P = NewtonPolytope(validate_matrix(transformed))
        verdict = is_nondegenerate(fiber, P).overall
        assert verdict == expected, (name, U, fiber)
        # scaling invariance on the same instance
        c = F(rnd.choice([-3, -2, -1, 2, 3, 5]), rnd.choice([1, 2, 7]))
        scaled = [c * F(x) for x in fiber]
        assert is_nondegenerate(scaled, P).overall == expected
        count += 1
    return count


# -- pytest wrappers -------------------------------------------------------------


def test_suite_d_squared_zero():
    assert suite_d_squared_zero() >= 200


def test_suite_filtration_preserved():
    assert suite_filtration_preserved() >= 200


def test_suite_gr_equals_koszul():
    assert suite_gr_equals_koszul() >= 200


def test_suite_gauge_laws():
    assert suite_gauge_laws() >= 200


def test_suite_gr_multiply_laws():
    assert suite_gr_multiply_laws() >= 300


def test_suite_reduction_laws():
    assert suite_reduction_laws() >= 200


def test_suite_toy_regular_sequences():
    assert suite_toy_regular_sequences() >= 200


def test_suite_verdict_invariance():
    assert suite_verdict_invariance() >= 200
