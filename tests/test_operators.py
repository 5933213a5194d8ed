import itertools
import random
from fractions import Fraction

import pytest

from gkzrank import (
    NotARelation,
    RankDeficient,
    box_operator,
    euler_operators,
    lattice_kernel,
    render_box,
    render_euler,
    validate_matrix,
)
from gkzrank.operators import _row_hnf
from gkzrank.oracles import in_kernel_lattice


class TestLatticeKernel:
    def test_primitive_relation(self):
        basis = lattice_kernel(validate_matrix([[2, 3]]))
        assert [b.relation for b in basis] == [(3, -2)]

    def test_injective_matrix(self):
        assert lattice_kernel(validate_matrix([[1, 0], [0, 1]])) == []

    def test_gauss_relation(self, gauss):
        matrix, _, _ = gauss
        basis = lattice_kernel(matrix)
        assert [b.relation for b in basis] == [(1, -1, -1, 1)]

    def test_basis_size(self):
        matrix = validate_matrix([[1, 2, 3, 4], [0, 1, 1, 2]])
        basis = lattice_kernel(matrix)
        assert len(basis) == matrix.num_columns - matrix.n
        for b in basis:
            for row in matrix.rows:
                assert sum(r * c for r, c in zip(row, b.relation)) == 0

    def test_sign_convention(self):
        for rows in ([[2, 3]], [[1, 1, 1]], [[3, -6]]):
            for b in lattice_kernel(validate_matrix(rows)):
                first = next(c for c in b.relation if c != 0)
                assert first > 0

    def test_saturated_small_relations(self):
        # every small integer relation found by brute force must lie in the
        # lattice generated by the basis
        for rows in ([[2, 3]], [[1, 1, 1]], [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]]):
            matrix = validate_matrix(rows)
            basis = lattice_kernel(matrix)
            N = matrix.num_columns
            for cand in itertools.product(range(-2, 3), repeat=N):
                if not any(cand):
                    continue
                if all(
                    sum(r * c for r, c in zip(row, cand)) == 0
                    for row in matrix.rows
                ):
                    assert in_kernel_lattice(basis, cand), cand


def _ref_integer_kernel(matrix):
    """The unimodular column reduction that found the kernel before the
    Hermite form of [A^T | I]: a saturated basis, in no canonical form."""
    n, N = matrix.n, matrix.num_columns
    work = [list(row) for row in matrix.rows]
    U = [[1 if i == j else 0 for j in range(N)] for i in range(N)]

    def col_swap(a, b):
        for row in work + U:
            row[a], row[b] = row[b], row[a]

    def col_addmul(dst, src, q):
        for row in work + U:
            row[dst] += q * row[src]

    pivot_col = 0
    for i in range(n):
        while True:
            nz = [j for j in range(pivot_col, N) if work[i][j] != 0]
            if not nz:
                break
            jmin = min(nz, key=lambda j: abs(work[i][j]))
            if jmin != pivot_col:
                col_swap(pivot_col, jmin)
            done = True
            for j in range(pivot_col + 1, N):
                if work[i][j] != 0:
                    col_addmul(j, pivot_col, -(work[i][j] // work[i][pivot_col]))
                    done = done and work[i][j] == 0
            if done:
                break
        if any(work[i][j] != 0 for j in range(pivot_col, N)):
            pivot_col += 1
    return [
        [U[r][j] for r in range(N)]
        for j in range(pivot_col, N)
        if all(work[i][j] == 0 for i in range(n))
    ]


def _kernel_matrices(seed=3, count=60):
    """Seeded full-rank matrices: n <= 3, N <= n + 4, entries in [-4, 4]."""
    rnd = random.Random(seed)
    out = []
    while len(out) < count:
        n = rnd.randint(1, 3)
        N = rnd.randint(n, n + 4)
        rows = [[rnd.randint(-4, 4) for _ in range(N)] for _ in range(n)]
        try:
            out.append(validate_matrix(rows))
        except RankDeficient:
            continue
    return out


def _relations(matrix):
    return [b.relation for b in lattice_kernel(matrix)]


class TestHermiteBasis:
    def test_reduced_above_pivots(self):
        # Reducing bottom-up left -2 above the pivot 2: (1, 0, -2, 0).
        assert _relations(validate_matrix([[-2, 1, -1, 2]])) == [
            (1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 2, 1)
        ]

    def test_reduced_row_hermite_form(self):
        for matrix in _kernel_matrices():
            basis = _relations(matrix)
            assert len(basis) == matrix.num_columns - matrix.n
            pivots = []
            for idx, row in enumerate(basis):
                p = next(k for k, c in enumerate(row) if c)
                assert row[p] > 0
                assert all(0 <= upper[p] < row[p] for upper in basis[:idx])
                pivots.append(p)
            assert pivots == sorted(set(pivots))

    def test_same_basis_after_unimodular_row_scramble(self):
        rnd = random.Random(5)
        for matrix in _kernel_matrices():
            rows = [list(r) for r in matrix.rows]
            for _ in range(6):
                i, j = rnd.sample(range(len(rows)), 2) if len(rows) > 1 else (0, 0)
                if i == j:
                    rows[i] = [-c for c in rows[i]]
                else:
                    k = rnd.choice((-2, -1, 1, 2))
                    rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
                    rows[i], rows[j] = rows[j], rows[i]
            assert _relations(validate_matrix(rows)) == _relations(matrix)

    def test_same_lattice_as_column_reduction(self):
        for matrix in _kernel_matrices():
            new = lattice_kernel(matrix)
            old = [
                box_operator(matrix, r)
                for r in _row_hnf(_ref_integer_kernel(matrix))
            ]
            assert all(in_kernel_lattice(new, b.relation) for b in old)
            assert all(in_kernel_lattice(old, b.relation) for b in new)
            # The reduced Hermite form of a lattice is unique.
            assert [b.relation for b in new] == [b.relation for b in old]


class TestInKernelLattice:
    def test_basis_not_in_echelon_form(self):
        matrix = validate_matrix([[1, 1, 1]])
        basis = [box_operator(matrix, r) for r in ((1, -1, 0), (1, 0, -1))]
        for order in (basis, basis[::-1]):
            assert in_kernel_lattice(order, (0, 1, -1))
            assert in_kernel_lattice(order, (3, -1, -2))
            assert not in_kernel_lattice(order, (1, 0, 0))

    def test_length_mismatch_rejected(self):
        matrix = validate_matrix([[1, 1, 1]])
        basis = [box_operator(matrix, (1, -1, 0))]
        for relation in ((0, 0, 0, 1), (1, -1)):
            with pytest.raises(NotARelation):
                in_kernel_lattice(basis, relation)

    def test_unimodular_scramble_of_the_kernel_basis(self):
        rnd = random.Random(11)
        for matrix in _kernel_matrices():
            rows = [list(r) for r in _relations(matrix)]
            if not rows:
                continue
            for _ in range(6):
                i, j = rnd.sample(range(len(rows)), 2) if len(rows) > 1 else (0, 0)
                if i == j:
                    rows[i] = [-c for c in rows[i]]
                else:
                    k = rnd.choice((-2, -1, 1, 2))
                    rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
                    rows[i], rows[j] = rows[j], rows[i]
            scrambled = [box_operator(matrix, r) for r in rows]
            combo = [0] * matrix.num_columns
            for rel in _relations(matrix):
                assert in_kernel_lattice(scrambled, rel)
                k = rnd.randint(-3, 3)
                combo = [a + k * b for a, b in zip(combo, rel)]
            assert in_kernel_lattice(scrambled, combo)
            # A e_j is column j; a nonzero column makes this no relation.
            combo[next(j for j, a in enumerate(matrix.columns) if any(a))] += 1
            assert not in_kernel_lattice(scrambled, combo)


class TestBoxOperator:
    def test_zero_rejected(self, gauss):
        matrix, _, _ = gauss
        with pytest.raises(NotARelation):
            box_operator(matrix, (0, 0, 0, 0))

    def test_non_relation_rejected(self, gauss):
        matrix, _, _ = gauss
        with pytest.raises(NotARelation):
            box_operator(matrix, (1, 0, 0, 0))

    def test_non_integer_entry_rejected(self, gauss):
        # int() truncates each of these to 1, the relation (1, -1, -1, 1).
        matrix, _, _ = gauss
        basis = lattice_kernel(matrix)
        for entry in (Fraction(3, 2), 1.9, True, "1"):
            relation = [entry, -1, -1, 1]
            with pytest.raises(NotARelation, match="non-integer entry"):
                box_operator(matrix, relation)
            with pytest.raises(NotARelation, match="non-integer entry"):
                in_kernel_lattice(basis, relation)

    def test_degree_balance(self, gauss):
        # A relation maps any monomial to the same matrix degree from both
        # sides of the box operator.
        matrix, _, _ = gauss
        (box,) = lattice_kernel(matrix)
        plus = [max(c, 0) for c in box.relation]
        minus = [max(-c, 0) for c in box.relation]
        for row in matrix.rows:
            assert sum(r * c for r, c in zip(row, plus)) == sum(
                r * c for r, c in zip(row, minus)
            )


class TestRendering:
    def test_zero_vector_renders_but_is_no_generator(self, gauss):
        from gkzrank import BoxOperator

        matrix, _, _ = gauss
        assert render_box(BoxOperator((0, 0, 0, 0))) == "0"
        with pytest.raises(NotARelation):
            box_operator(matrix, (0, 0, 0, 0))

    def test_box_examples(self, gauss):
        assert render_box(lattice_kernel(validate_matrix([[2, 3]]))[0]) == (
            "∂₁^3 − ∂₂^2"
        )
        matrix, _, _ = gauss
        assert render_box(lattice_kernel(matrix)[0]) == (
            "∂₁∂₄ − ∂₂∂₃"
        )

    def test_euler_examples(self):
        (op,) = euler_operators(validate_matrix([[1]]), [Fraction(1, 3)])
        assert render_euler(op) == "x₁∂₁ + 1/3"
        (op2,) = euler_operators(validate_matrix([[2, 3]]), [0])
        assert render_euler(op2) == "2x₁∂₁ + 3x₂∂₂"

    def test_gauss_euler_rows(self, gauss):
        matrix, _, _ = gauss
        ops = euler_operators(matrix, [1, 2, 3])
        assert [op.row_weights for op in ops] == list(matrix.rows)
        assert [op.gamma_shift for op in ops] == [1, 2, 3]


class TestEulerRoundTrip:
    def test_bijective_transcription(self, polytopes):
        for name, (matrix, _, _) in polytopes.items():
            gamma = [Fraction(k, 7) for k in range(matrix.n)]
            ops = euler_operators(matrix, gamma)
            rebuilt_rows = tuple(op.row_weights for op in ops)
            rebuilt_gamma = [op.gamma_shift for op in ops]
            assert rebuilt_rows == matrix.rows
            assert rebuilt_gamma == gamma
