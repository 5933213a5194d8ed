import random
from fractions import Fraction

import pytest

from gkzrank import PolyZ, RationalFunctionQ, SparseRationalMatrix
from gkzrank.linalg import Echelon, RationalSpan, rank, solve
from gkzrank.oracles import matmul, sparse_columns, to_dense

F = Fraction


class TestPolyZ:
    def test_arithmetic(self):
        p = PolyZ([1, 1])  # 1 + t
        q = PolyZ([1, -1])  # 1 - t
        assert p * q == PolyZ([1, 0, -1])
        assert p + q == PolyZ([2])
        assert (p - p).is_zero()
        assert PolyZ([0, 0, 1]) == PolyZ.monomial(2)

    def test_power(self):
        assert (PolyZ([1, -1]) ** 3) == PolyZ([1, -3, 3, -1])

    def test_str(self):
        assert str(PolyZ([1, 1])) == "1 + t"
        assert str(PolyZ([0, -1, 2])) == "-t + 2t^2"
        assert str(PolyZ()) == "0"


class TestRationalFunctionQ:
    def test_lowest_terms(self):
        f = RationalFunctionQ(PolyZ([1, 0, -1]), PolyZ([1, -1]))  # (1-t^2)/(1-t)
        assert f.num == PolyZ([1, 1]) and f.den == PolyZ([1])

    def test_taylor_geometric(self):
        f = RationalFunctionQ(PolyZ([1]), PolyZ([1, -1]))
        assert f.taylor(4) == [1, 1, 1, 1, 1]

    def test_taylor_derivative_of_geometric(self):
        f = RationalFunctionQ(PolyZ([1, 1]), (PolyZ([1, -1]) ** 3))
        assert f.taylor(4) == [1, 4, 9, 16, 25]

    def test_pole_order(self):
        f = RationalFunctionQ(PolyZ([1, 1]), PolyZ([1, -1]) ** 3)
        assert f.pole_order_at_one() == 3
        g = RationalFunctionQ(PolyZ([1, -1]), PolyZ([1]))
        assert g.pole_order_at_one() == -1

    def test_equality_cross_multiplied(self):
        a = RationalFunctionQ(PolyZ([1]), PolyZ([1, -1]))
        b = RationalFunctionQ(PolyZ([2]), PolyZ([2, -2]))
        assert a == b

    def test_negative_lowest_denominator_coefficient_flips_both_signs(self):
        # 1/(t - 1) is stored as -1/(1 - t), through PolyZ.__neg__.
        a = RationalFunctionQ(PolyZ([1]), PolyZ([-1, 1]))
        b = RationalFunctionQ(PolyZ([-1]), PolyZ([1, -1]))
        assert (a.num, a.den) == (b.num, b.den) == (PolyZ([-1]), PolyZ([1, -1]))
        assert a == b and hash(a) == hash(b)


class TestSparseMatrix:
    def test_set_get_and_zero_drop(self):
        m = SparseRationalMatrix(2, 2)
        m.set(0, 1, F(3, 4))
        assert m.entries[0, 1] == F(3, 4)
        m.set(0, 1, 0)
        assert m.nnz() == 0

    def test_set_keeps_ints_and_builds_fractions_for_the_rest(self):
        m = SparseRationalMatrix(2, 3)
        m.set(0, 0, 3)
        m.set(0, 1, F(1, 2))
        m.set(0, 2, "2/3")
        m.set(1, 0, 0)
        m.set(1, 1, F(0))
        assert m.entries == {(0, 0): 3, (0, 1): F(1, 2), (0, 2): F(2, 3)}
        assert [type(m.entries[0, j]) for j in range(3)] == [int, F, F]
        m.set(0, 0, 0)
        assert m.nnz() == 2

    def test_constructor_keeps_ints_drops_zeros_and_checks_bounds(self):
        entries = {(0, 0): 3, (0, 1): 0, (0, 2): "2/3", (1, 1): F(0)}
        m = SparseRationalMatrix(2, 3, entries)
        assert m.entries == {(0, 0): 3, (0, 2): F(2, 3)}
        assert type(m.entries[0, 0]) is int and type(m.entries[0, 2]) is F
        for key in [(-1, 0), (2, 0), (0, -1), (0, 3)]:
            with pytest.raises(IndexError):
                SparseRationalMatrix(2, 3, {key: 1})
        with pytest.raises(IndexError):
            SparseRationalMatrix(2, 3, {(2, 0): 0})

    def test_matmul(self):
        a = SparseRationalMatrix.from_dense([[1, 2], [3, 4]])
        b = SparseRationalMatrix.from_dense([[0, 1], [1, 0]])
        assert to_dense(matmul(a, b)) == [[2, 1], [4, 3]]
        # Rational factors are multiplied scaled to integers; compare with
        # the Fraction sum of products, entry by entry.
        a = SparseRationalMatrix.from_dense([[F(1, 2), F(1, 3)], [F(2, 7), 0]])
        b = SparseRationalMatrix.from_dense([[F(2, 3), 1], [-1, F(-3, 2)]])
        product = matmul(a, b)
        assert to_dense(product) == [[0, 0], [F(4, 21), F(2, 7)]]
        assert product.nnz() == 2
        rnd = random.Random(17)

        def dense(rows, cols):
            return [
                [
                    F(rnd.randint(-4, 4), rnd.choice((1, 2, 3, 4, 6, 9)))
                    if rnd.random() < 0.6 else F(0)
                    for _ in range(cols)
                ]
                for _ in range(rows)
            ]

        seen = {"cancelled": 0, "fractional": 0}
        for _ in range(60):
            r, k, c = (rnd.randint(1, 4) for _ in range(3))
            x, y = dense(r, k), dense(k, c)
            ref = [
                [sum((x[i][t] * y[t][j] for t in range(k)), F(0)) for j in range(c)]
                for i in range(r)
            ]
            product = matmul(
                SparseRationalMatrix.from_dense(x), SparseRationalMatrix.from_dense(y)
            )
            assert to_dense(product) == ref
            assert all(type(v) is F and v != 0 for v in product.entries.values())
            seen["cancelled"] += sum(
                v == 0 and any(x[i][t] * y[t][j] for t in range(k))
                for i, row in enumerate(ref) for j, v in enumerate(row)
            )
            seen["fractional"] += sum(
                v.denominator > 1 for row in ref for v in row
            )
        assert seen["cancelled"] >= 1 and seen["fractional"] >= 50

    def test_matmul_keeps_int_entries_for_int_factors(self):
        rnd = random.Random(19)
        for _ in range(40):
            r, k, c = (rnd.randint(1, 5) for _ in range(3))
            x = [[rnd.randint(-4, 4) * (rnd.random() < 0.6) for _ in range(k)]
                 for _ in range(r)]
            y = [[rnd.randint(-4, 4) * (rnd.random() < 0.6) for _ in range(c)]
                 for _ in range(k)]
            a = SparseRationalMatrix.from_dense(x)
            b = SparseRationalMatrix.from_dense(y)
            fa, fb = _as_fractions(a), _as_fractions(b)
            product = matmul(a, b)
            assert all(type(v) is int for v in product.entries.values())
            assert product.entries == matmul(fa, fb).entries
            # Any Fraction factor, even with denominator 1, gives Fractions.
            for mixed in (matmul(fa, b), matmul(a, fb), matmul(fa, fb)):
                assert mixed.entries == product.entries
                assert all(type(v) is F for v in mixed.entries.values())

    def test_rank(self):
        m = SparseRationalMatrix.from_dense(
            [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
        )
        assert rank(m) == 2


class TestSolve:
    def test_unique_solution(self):
        m = SparseRationalMatrix.from_dense([[2, 1], [1, 3]])
        x = solve(m, [5, 10])
        assert x == [F(1), F(3)]

    def test_inconsistent(self):
        m = SparseRationalMatrix.from_dense([[1, 1], [2, 2]])
        assert solve(m, [1, 3]) is None

    def test_underdetermined_consistent(self):
        m = SparseRationalMatrix.from_dense([[1, 1, 1]])
        x = solve(m, [6])
        assert x is not None and sum(x) == 6

    def test_zero_rows_with_nonzero_rhs(self):
        m = SparseRationalMatrix(2, 1)
        m.set(0, 0, 1)
        assert solve(m, {1: F(1)}) is None


def _dense_rank(rows, cols):
    """Reference rank: plain Gauss-Jordan on dense Fraction rows."""
    a = [[Fraction(v) for v in row] for row in rows]
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def _random_matrix(rnd):
    """A sparse rational matrix, often rank-deficient, with zero rows."""
    rows, cols = rnd.randint(0, 7), rnd.randint(0, 7)
    if rnd.random() < 0.5 and rows and cols:
        # A product through a narrow middle forces rank <= inner.
        inner = rnd.randint(1, min(rows, cols))
        left = [[rnd.randint(-2, 2) for _ in range(inner)] for _ in range(rows)]
        right = [
            [Fraction(rnd.randint(-3, 3), rnd.randint(1, 3)) for _ in range(cols)]
            for _ in range(inner)
        ]
        dense = [
            [sum(l * r[j] for l, r in zip(row, right)) for j in range(cols)]
            for row in left
        ]
    else:
        dense = [
            [
                Fraction(rnd.randint(-3, 3), rnd.randint(1, 3))
                if rnd.random() < 0.35 else Fraction(0)
                for _ in range(cols)
            ]
            for _ in range(rows)
        ]
    for i in range(rows):
        if rnd.random() < 0.2:
            dense[i] = [Fraction(0)] * cols
    m = SparseRationalMatrix(rows, cols)
    for i, row in enumerate(dense):
        for j, v in enumerate(row):
            m.set(i, j, v)
    return m, dense


def _random_rhs(rnd, m, dense):
    """Right-hand sides of every kind: zero, sparse, dense, in the image."""
    x0 = [Fraction(rnd.randint(-2, 2), rnd.randint(1, 2)) for _ in range(m.cols)]
    image = [sum(a * b for a, b in zip(row, x0)) for row in dense]
    sparse = {
        i: Fraction(rnd.randint(-3, 3), rnd.randint(1, 2))
        for i in range(m.rows) if rnd.random() < 0.4
    }
    return [
        {},
        [0] * m.rows,
        {i: 0 for i in range(m.rows)},
        {i: v for i, v in enumerate(image) if v != 0},
        image,
        sparse,
        [Fraction(rnd.randint(-3, 3)) for _ in range(m.rows)],
    ]


def _as_dense(rhs, rows):
    if isinstance(rhs, dict):
        return [Fraction(rhs.get(i, 0)) for i in range(rows)]
    return [Fraction(v) for v in rhs]


def _as_fractions(m):
    return SparseRationalMatrix(m.rows, m.cols, {k: F(v) for k, v in m.entries.items()})


class _FractionEchelon:
    """The elimination over Q that ``Echelon`` does fraction-free, kept as the
    reference: the same pivot rule (columns in order, each on its sparsest
    live row, ties to the lowest row index) on ``Fraction`` rows, one
    ``Fraction`` factor per row operation.  Every division is exact, also on
    ``int`` entries, where ``/`` would compute ``float``s."""

    def __init__(self, m):
        rows = [dict() for _ in range(m.rows)]
        for (i, j), v in m.entries.items():
            rows[i][j] = v
        self.cols = m.cols
        self.pivots, self.log = [], []
        live = set(range(m.rows))
        for pj in range(m.cols):
            holders = sorted(i for i in live if pj in rows[i])
            if not holders:
                continue
            p = min(holders, key=lambda i: len(rows[i]))
            live.remove(p)
            best, pv = rows[p], rows[p][pj]
            ops = []
            for i in holders:
                if i == p:
                    continue
                r = rows[i]
                factor = Fraction(r[pj], pv)
                ops.append((i, factor))
                for j, v in best.items():
                    new = r.get(j, 0) - factor * v
                    if new == 0:
                        del r[j]
                    else:
                        r[j] = new
            self.pivots.append((p, pj, best))
            self.log.append(ops)
        self.pivot_rows = {p for p, _, _ in self.pivots}

    def solve(self, rhs):
        items = rhs.items() if isinstance(rhs, dict) else enumerate(rhs)
        y = {i: Fraction(v) for i, v in items if v != 0}
        for (p, _, _), ops in zip(self.pivots, self.log):
            yp = y.get(p)
            if yp:
                for i, factor in ops:
                    y[i] = y.get(i, 0) - factor * yp
        if any(v for i, v in y.items() if i not in self.pivot_rows):
            return None
        x = [Fraction(0)] * self.cols
        for p, pj, row in reversed(self.pivots):
            s = y.get(p, 0)
            for j, v in row.items():
                if j != pj and x[j]:
                    s -= v * x[j]
            x[pj] = Fraction(s, row[pj])
        return x


def _hard_matrix(rnd, kind):
    """Mixed denominators with large heights, or a tall or wide product
    through a narrow middle (rank-deficient)."""
    if kind == "mixed":
        rows, cols = rnd.randint(4, 9), rnd.randint(4, 9)
        dens = (1, 2, 6, 7, 10**9 + 7)
        dense = [
            [
                Fraction(rnd.randint(-(10**12), 10**12), rnd.choice(dens))
                if rnd.random() < 0.45 else Fraction(0)
                for _ in range(cols)
            ]
            for _ in range(rows)
        ]
    else:
        rows, cols = (12, 4) if kind == "tall" else (4, 12)
        inner = rnd.randint(1, 3)
        left = [[rnd.randint(-3, 3) for _ in range(inner)] for _ in range(rows)]
        right = [
            [Fraction(rnd.randint(-(10**6), 10**6), rnd.randint(1, 12))
             for _ in range(cols)]
            for _ in range(inner)
        ]
        dense = [
            [sum(a * r[j] for a, r in zip(row, right)) for j in range(cols)]
            for row in left
        ]
    m = SparseRationalMatrix(rows, cols)
    for i, row in enumerate(dense):
        for j, v in enumerate(row):
            m.set(i, j, v)
    return m, dense


def _reference_cases():
    for seed in range(60):
        rnd = random.Random(seed)
        yield rnd, *_random_matrix(rnd)
    for seed in range(45):
        rnd = random.Random(3000 + seed)
        yield rnd, *_hard_matrix(rnd, ("mixed", "tall", "wide")[seed % 3])
    # All ints, as the library's matrices are; this generator's right-hand
    # sides include e_0, which back-substitutes to (5/12, -1/4).
    dense = [[3, 1], [3, 5]]
    yield random.Random(28), SparseRationalMatrix.from_dense(dense), dense


def _transpose(m):
    return SparseRationalMatrix(
        m.cols, m.rows, {(j, i): v for (i, j), v in m.entries.items()}
    )


def _random_sparse(rnd, integral):
    """A sparse ``int`` or ``Fraction`` matrix of any shape up to 9 x 9,
    often a product through a narrow middle, so rank-deficient."""
    rows, cols = rnd.randint(0, 9), rnd.randint(0, 9)

    def entry():
        v = rnd.randint(-4, 4)
        return v if integral else Fraction(v, rnd.randint(1, 5))

    def sparse(r, c, density):
        return [[entry() if rnd.random() < density else 0 for _ in range(c)]
                for _ in range(r)]

    if rows and cols and rnd.random() < 0.5:
        inner = rnd.randint(1, min(rows, cols))
        left, right = sparse(rows, inner, 0.6), sparse(inner, cols, 0.6)
        dense = [[sum(a * b[j] for a, b in zip(row, right)) for j in range(cols)]
                 for row in left]
    else:
        dense = sparse(rows, cols, 0.3)
    entries = {(i, j): v for i, row in enumerate(dense) for j, v in enumerate(row) if v}
    return SparseRationalMatrix(rows, cols, entries)


class TestEchelon:
    @pytest.mark.parametrize("seed", range(40))
    def test_rank_of_transpose(self, seed):
        # ``rank`` ranks a tall matrix as its transpose; both sides, and the
        # elimination taken along either side, agree.
        rnd = random.Random(7000 + seed)
        m = _random_sparse(rnd, integral=seed % 2 == 0)
        t = _transpose(m)
        assert rank(m) == rank(t) == Echelon(m).rank == Echelon(t).rank

    @pytest.mark.parametrize("seed", range(20))
    def test_integral_input_factors_as_cleared_fractions(self, seed):
        # ``int`` entries are taken as they are; the same values given as
        # ``Fraction``s go through row clearing and must factor identically.
        rnd = random.Random(8000 + seed)
        m = _random_sparse(rnd, integral=True)
        f = SparseRationalMatrix(
            m.rows, m.cols, {k: Fraction(v) for k, v in m.entries.items()}
        )
        a, b = Echelon(m), Echelon(f)
        assert a.pivots == b.pivots
        assert [a.solve_column(c) for c in range(m.cols)] == [
            b.solve_column(c) for c in range(m.cols)
        ]
        rhs = {i: rnd.randint(-3, 3) for i in range(m.rows)}
        assert solve(m, rhs) == solve(f, rhs)

    @pytest.mark.parametrize("seed", range(60))
    def test_rank_matches_dense_reference(self, seed):
        m, dense = _random_matrix(random.Random(seed))
        assert Echelon(m).rank == _dense_rank(dense, m.cols) == rank(m)

    @pytest.mark.parametrize("seed", range(60))
    def test_solve_exactly_when_consistent(self, seed):
        rnd = random.Random(seed)
        m, dense = _random_matrix(rnd)
        r = _dense_rank(dense, m.cols)
        for rhs in _random_rhs(rnd, m, dense):
            b = _as_dense(rhs, m.rows)
            augmented = [row + [v] for row, v in zip(dense, b)]
            consistent = _dense_rank(augmented, m.cols + 1) == r
            x = solve(m, rhs)
            if not consistent:
                assert x is None
                continue
            assert x is not None and len(x) == m.cols
            assert [sum(a * v for a, v in zip(row, x)) for row in dense] == b

    @pytest.mark.parametrize("seed", range(30))
    def test_repeated_solves_match_one_shot_solves(self, seed):
        # One factorization answers every column, in any order, as a fresh
        # factorization per column does: a pivot column is itself, and any
        # other column is ``solve``'s answer over the columns before it.
        rnd = random.Random(1000 + seed)
        m, dense = _random_matrix(rnd)
        order = list(range(m.cols))
        rnd.shuffle(order)
        echelon = Echelon(m)
        reused = {c: echelon.solve_column(c) for c in order}
        assert reused == {c: Echelon(m).solve_column(c) for c in range(m.cols)}
        pivot_cols = {j for _, j, _ in echelon.pivots}
        for c, solved in reused.items():
            left = SparseRationalMatrix(
                m.rows, c, {(i, j): v for (i, j), v in m.entries.items() if j < c}
            )
            x = solve(left, [row[c] for row in dense])
            X, D = solved
            assert D > 0 and set(X) <= pivot_cols and all(X.values())
            if c in pivot_cols:
                assert x is None and solved == ({c: 1}, 1)
            else:
                assert x == [F(X.get(j, 0), D) for j in range(c)]

    def test_matches_fraction_reference(self):
        # Scaled rows keep every support and cancellation, so the pivots
        # and, with free variables at zero, the solutions are those over Q.
        for rnd, m, dense in _reference_cases():
            echelon, ref = Echelon(m), _FractionEchelon(m)
            assert [(p, j) for p, j, _ in echelon.pivots] == [
                (p, j) for p, j, _ in ref.pivots
            ]
            for rhs in _random_rhs(rnd, m, dense):
                assert solve(m, rhs) == ref.solve(rhs)

    def test_inexact_content_division_rescales(self):
        # The right-hand side is a column of the factored matrix, so a
        # content division divides it with its row and stays exact: [1 3 2]
        # less [1 1 0] is [0 2 2], made primitive by content 2.  With e_1
        # the row is [0 2 1], and back-substitution divides 1 by the pivot
        # 2 inexactly, so the unknowns are rescaled over the denominator 2.
        m = SparseRationalMatrix.from_dense([[1, 1, 0], [1, 3, 2]])
        echelon = Echelon(m)
        assert echelon.pivots[1] == (1, 1, {1: 1, 2: 1})
        assert echelon.solve_column(2) == ({1: 1, 0: -1}, 1)
        m = SparseRationalMatrix.from_dense([[1, 1, 0], [1, 3, 1]])
        assert Echelon(m).solve_column(2) == ({1: 1, 0: -1}, 2)
        m = SparseRationalMatrix.from_dense([[1, 1], [1, 3]])
        assert solve(m, {1: 1}) == [F(-1, 2), F(1, 2)]
        assert solve(m, [0, 2]) == [F(-1), F(1)]

    def test_inexact_back_substitution_skips_zero_unknowns(self):
        # Back-substitution sets x_4 = 1, skips x_3 (its right side is 0),
        # divides -1 by the pivot 2 for x_2, which rescales x_4 alone, and
        # reads the right side of x_1 at the new scale; x_0 is skipped.
        m = SparseRationalMatrix.from_dense([
            [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 2, 0, 1],
            [0, 0, 0, 1, 0], [0, 0, 0, 0, 1],
        ])
        rhs = {1: 1, 4: 1}
        augmented = SparseRationalMatrix(
            5, 6, {**m.entries, **{(i, 5): v for i, v in rhs.items()}}
        )
        assert Echelon(augmented).solve_column(5) == ({1: 2, 2: -1, 4: 2}, 2)
        assert solve(m, rhs) == _FractionEchelon(_as_fractions(m)).solve(rhs) == [
            F(0), F(1), F(-1, 2), F(0), F(1)
        ]
        # The same after a forward pass whose content division is inexact.
        m = SparseRationalMatrix.from_dense(
            [[2, 1, 0, 1], [2, 3, 0, 1], [0, 0, 3, 0], [0, 2, 0, 3]]
        )
        ref = _FractionEchelon(_as_fractions(m))
        for rhs in ({0: 1, 1: 5, 3: 4}, {0: 1, 3: 1}, [3, 0, 0, 2]):
            assert solve(m, rhs) == ref.solve(rhs)

    def test_corrupted_pivot_row_never_answers_wrongly(self):
        # The integer check is the last word: a factorization with a pivot
        # row tampered with raises on a solve that reads the bad entry, and
        # never returns a wrong answer.
        caught = answered = 0
        for _, m, dense in _reference_cases():
            echelon = Echelon(m)
            pivot_cols = {j for _, j, _ in echelon.pivots}
            bad = [
                (row, j) for _, pj, row in echelon.pivots
                for j in row if j != pj and j in pivot_cols
            ]
            if not bad:
                continue
            row, j = bad[0]
            row[j] += 1
            for c in range(m.cols):
                try:
                    X, D = echelon.solve_column(c)
                except AssertionError:
                    caught += 1
                    continue
                answered += 1
                assert all(
                    sum(r[k] * X.get(k, 0) for k in range(c + 1)) == D * r[c]
                    for r in dense
                )
        assert caught > 0 and answered > 0

    @pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0)])
    def test_empty_shapes(self, rows, cols):
        m = SparseRationalMatrix(rows, cols)
        assert Echelon(m).rank == 0
        assert solve(m, {}) == [Fraction(0)] * cols
        assert solve(m, [0] * rows) == [Fraction(0)] * cols
        if rows:
            assert solve(m, {rows - 1: F(1)}) is None

    def test_zero_rows_do_not_count(self):
        m = SparseRationalMatrix.from_dense([[0, 0], [1, 2], [0, 0], [2, 4]])
        assert Echelon(m).rank == 1
        assert solve(m, {1: 3, 3: 6}) == [F(3), F(0)]
        assert solve(m, {0: 1}) is None
        assert solve(m, {1: 3, 3: 5}) is None


def _greedy_case(rnd):
    """Small-entry columns, so rows tie on length, with zero columns and
    repeated (rescaled) columns mixed in."""
    rows = rnd.randint(0, 6)
    columns = []
    for _ in range(rnd.randint(0, 9)):
        kind = rnd.random()
        if kind < 0.15 or not rows:
            columns.append([F(0)] * rows)
        elif kind < 0.35 and columns:
            c = F(rnd.choice((-2, -1, 1, 3)), rnd.randint(1, 2))
            columns.append([c * v for v in rnd.choice(columns)])
        else:
            columns.append([F(rnd.choice((-1, 0, 0, 1, 2))) for _ in range(rows)])
    dense = [[col[i] for col in columns] for i in range(rows)]
    return SparseRationalMatrix(rows, len(columns), {
        (i, j): v for i, row in enumerate(dense) for j, v in enumerate(row)
    })


class TestRationalSpan:
    def test_pivot_columns_are_the_ordered_greedy_choice(self):
        for seed in range(1000):
            m = _greedy_case(random.Random(5000 + seed))
            span = RationalSpan(m.rows)
            greedy = [j for j, col in enumerate(sparse_columns(m)) if span.add(col)]
            assert [j for _, j, _ in Echelon(m).pivots] == greedy, seed

    def test_incremental_rank(self):
        span = RationalSpan(3)
        assert span.add({0: F(1), 1: F(1)})
        assert not span.add({0: F(2), 1: F(2)})
        assert span.add({2: F(5)})
        assert span.rank == 2

    def test_contains(self):
        span = RationalSpan(2)
        span.add({0: F(1), 1: F(2)})
        assert span.contains({0: F(3), 1: F(6)})
        assert not span.contains({0: F(1)})
