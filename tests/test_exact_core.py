import random
from fractions import Fraction

import pytest

from gkzrank import PolyZ, RationalFunctionQ, SparseRationalMatrix
from gkzrank.linalg import Echelon, RationalSpan, rank, solve

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


class TestSparseMatrix:
    def test_set_get_and_zero_drop(self):
        m = SparseRationalMatrix(2, 2)
        m.set(0, 1, F(3, 4))
        assert m.get(0, 1) == F(3, 4)
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

    def test_matmul(self):
        a = SparseRationalMatrix.from_dense([[1, 2], [3, 4]])
        b = SparseRationalMatrix.from_dense([[0, 1], [1, 0]])
        assert a.matmul(b).to_dense() == [[2, 1], [4, 3]]
        # Rational factors are multiplied scaled to integers; compare with
        # the Fraction sum of products, entry by entry.
        a = SparseRationalMatrix.from_dense([[F(1, 2), F(1, 3)], [F(2, 7), 0]])
        b = SparseRationalMatrix.from_dense([[F(2, 3), 1], [-1, F(-3, 2)]])
        product = a.matmul(b)
        assert product.to_dense() == [[0, 0], [F(4, 21), F(2, 7)]]
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
            product = SparseRationalMatrix.from_dense(x).matmul(
                SparseRationalMatrix.from_dense(y)
            )
            assert product.to_dense() == ref
            assert all(type(v) is F and v != 0 for v in product.entries.values())
            seen["cancelled"] += sum(
                v == 0 and any(x[i][t] * y[t][j] for t in range(k))
                for i, row in enumerate(ref) for j, v in enumerate(row)
            )
            seen["fractional"] += sum(
                v.denominator > 1 for row in ref for v in row
            )
        assert seen["cancelled"] >= 1 and seen["fractional"] >= 50

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


class _FractionEchelon:
    """The elimination over Q that ``Echelon`` does fraction-free, kept as the
    reference: the same pivot rule (columns in order, each on its sparsest
    live row, ties to the lowest row index) on ``Fraction`` rows, one
    ``Fraction`` factor per row operation."""

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
                factor = r[pj] / pv
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
            x[pj] = s / row[pj]
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


class TestEchelon:
    @pytest.mark.parametrize("seed", range(60))
    def test_rank_matches_dense_reference(self, seed):
        m, dense = _random_matrix(random.Random(seed))
        assert Echelon(m).rank == _dense_rank(dense, m.cols) == rank(m)

    @pytest.mark.parametrize("seed", range(60))
    def test_solve_exactly_when_consistent(self, seed):
        rnd = random.Random(seed)
        m, dense = _random_matrix(rnd)
        echelon = Echelon(m)
        r = _dense_rank(dense, m.cols)
        for rhs in _random_rhs(rnd, m, dense):
            b = _as_dense(rhs, m.rows)
            augmented = [row + [v] for row, v in zip(dense, b)]
            consistent = _dense_rank(augmented, m.cols + 1) == r
            x = echelon.solve(rhs)
            if not consistent:
                assert x is None
                continue
            assert x is not None and len(x) == m.cols
            assert [sum(a * v for a, v in zip(row, x)) for row in dense] == b

    @pytest.mark.parametrize("seed", range(30))
    def test_repeated_solves_match_one_shot_solves(self, seed):
        rnd = random.Random(1000 + seed)
        m, dense = _random_matrix(rnd)
        rhss = _random_rhs(rnd, m, dense) + _random_rhs(rnd, m, dense)
        order = list(range(len(rhss)))
        rnd.shuffle(order)
        echelon = Echelon(m)
        reused = {k: echelon.solve(rhss[k]) for k in order}
        assert reused == {k: solve(m, rhss[k]) for k in range(len(rhss))}

    def test_matches_fraction_reference(self):
        # Scaled rows keep every support and cancellation, so the pivots
        # and, with free variables at zero, the solutions are those over Q.
        for rnd, m, dense in _reference_cases():
            echelon, ref = Echelon(m), _FractionEchelon(m)
            assert [(p, j) for p, j, _ in echelon.pivots] == [
                (p, j) for p, j, _ in ref.pivots
            ]
            for rhs in _random_rhs(rnd, m, dense):
                assert echelon.solve(rhs) == ref.solve(rhs)

    def test_inexact_content_division_rescales(self):
        # Eliminating row 0 from row 1 leaves (0, 2), made primitive by
        # content 2, so the replayed right-hand side e_1 becomes 1/2 there.
        m = SparseRationalMatrix.from_dense([[1, 1], [1, 3]])
        assert Echelon(m).solve({1: 1}) == [F(-1, 2), F(1, 2)]
        assert Echelon(m).solve([0, 2]) == [F(-1), F(1)]

    def test_corrupted_log_never_answers_wrongly(self):
        # The integer check is the last word: a factorization whose log was
        # tampered with may fail to solve, but never returns a wrong answer.
        caught = 0
        for rnd, m, dense in _reference_cases():
            echelon = Echelon(m)
            steps = [ops for ops in echelon._log if ops]
            if not steps:
                continue
            t, a, b, content = steps[0][0]
            steps[0][0] = (t, a, b + 1, content)
            for rhs in _random_rhs(rnd, m, dense):
                x = echelon.solve(rhs)
                b_dense = _as_dense(rhs, m.rows)
                if x is None:
                    caught += _FractionEchelon(m).solve(rhs) is not None
                else:
                    image = [sum(v * y for v, y in zip(row, x)) for row in dense]
                    assert image == b_dense
        assert caught > 0

    @pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0)])
    def test_empty_shapes(self, rows, cols):
        echelon = Echelon(SparseRationalMatrix(rows, cols))
        assert echelon.rank == 0
        assert echelon.solve({}) == [Fraction(0)] * cols
        assert echelon.solve([0] * rows) == [Fraction(0)] * cols
        if rows:
            assert echelon.solve({rows - 1: F(1)}) is None

    def test_zero_rows_do_not_count(self):
        m = SparseRationalMatrix.from_dense([[0, 0], [1, 2], [0, 0], [2, 4]])
        echelon = Echelon(m)
        assert echelon.rank == 1
        assert echelon.solve({1: 3, 3: 6}) is not None
        assert echelon.solve({0: 1}) is None
        assert echelon.solve({1: 3, 3: 5}) is None


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
            greedy = [j for j, col in enumerate(m.columns()) if span.add(col)]
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
