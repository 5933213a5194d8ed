"""Exact sparse linear algebra over the rationals.

Entries are ``int`` or ``fractions.Fraction`` and answers are exact; no
floating point is used anywhere.  ``clear_denominators`` is the one rule
that brings rationals to integers, times the lcm of their denominators;
the leading classes, the de Rham scale and ``Echelon``'s rows all use it.
``Echelon`` is the one elimination: it clears rows to integers unless all
entries are ``int`` (as in every matrix the library builds), factors the
matrix fraction-free, taking the columns in index order and pivoting each
on its sparsest live row, and keeps no log: its rank, its pivot columns
(the ordered greedy choice) and every solve are read off the factored
rows, a solve being a back-substitution from a factored column, checked
in integers against the matrix.  ``rank`` eliminates along the shorter
side; ``solve`` factors [m | rhs] and solves its last column.
``RationalSpan`` makes the greedy choice one vector at a time in
``Fraction``s, as the tests' reference for ``Echelon``'s pivot columns.
Products and dense views of matrices live in ``oracles``.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter


def clear_denominators(values) -> tuple[list[int], int]:
    """The ``int`` or ``Fraction`` values times s, the lcm of their
    denominators, as ints, and s (1 for no values)."""
    values = list(values)
    s = lcm(*(v.denominator for v in values))
    return [v.numerator * (s // v.denominator) for v in values], s


class SparseRationalMatrix:
    """Sparse matrix over Q stored as a map (row, col) -> nonzero entry; an
    ``int`` is stored as given and any other value as a ``Fraction``."""

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        entries = entries or {}
        for i, j in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError((i, j))
        self.entries: dict[tuple[int, int], int | Fraction] = {
            k: x for k, v in entries.items()
            if (x := v if type(v) is int else Fraction(v))
        }

    @classmethod
    def from_dense(cls, rows_list):
        rows_list = [list(r) for r in rows_list]
        m = cls(len(rows_list), len(rows_list[0]) if rows_list else 0)
        for i, row in enumerate(rows_list):
            if len(row) != m.cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                m.set(i, j, v)
        return m

    def set(self, i, j, value):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        if type(value) is not int:
            value = Fraction(value)
        if value == 0:
            self.entries.pop((i, j), None)
        else:
            self.entries[(i, j)] = value

    def nnz(self) -> int:
        return len(self.entries)


class Echelon:
    """One elimination of a fixed matrix, kept for every later question.

    Unless every entry is an ``int``, each row is cleared to integers by the
    lcm of its denominators; rows are then reduced once, fraction-free:
    r <- (a r - b p) / content, with
    a = pivot/g, b = c/g, g = gcd(pivot, c), and content making r
    primitive.  Columns are taken in index order, each pivoted on its
    sparsest live row (ties to the lowest row index), so the pivot columns
    are the first columns, in order, that are independent of the ones
    before them.  Pivots are kept as (row, column, integer row), each row as
    it stood when it became a pivot; the row operations are not recorded,
    since a right-hand side that is a column of the matrix is transformed
    with it (``solve_column``).
    """

    def __init__(self, m: SparseRationalMatrix):
        rows: list[dict[int, int]] = [dict() for _ in range(m.rows)]
        # holders[j]: the live rows with an entry in column j.
        holders: list[set[int]] = [set() for _ in range(m.cols)]
        for (i, j), v in m.entries.items():
            rows[i][j] = v
            holders[j].add(i)
        if any(type(v) is not int for v in m.entries.values()):
            for i, r in enumerate(rows):
                rows[i] = dict(zip(r, clear_denominators(r.values())[0]))
            m = SparseRationalMatrix(m.rows, m.cols, {
                (i, j): v for i, r in enumerate(rows) for j, v in r.items()
            })
        # The integer matrix that is factored, for the solves' checks.
        self._matrix = m
        self._columns: list[list[tuple[int, int]]] | None = None
        self._back: list[tuple[int, int, list, dict[int, int]]] | None = None
        self.pivots: list[tuple[int, int, dict[int, int]]] = []
        for pj, live in enumerate(holders):
            if not live:
                continue
            # After column pj no live row holds a column <= pj, so one pass
            # suffices.  Scaling a row changes neither its support nor a
            # cancellation, so the choices are those of an elimination over Q.
            if len(live) == 1:
                p = next(iter(live))
            else:
                p = min(live, key=lambda i: (len(rows[i]), i))
            best = rows[p]
            for j in best:
                holders[j].discard(p)
            pv = best[pj]
            rest = [(j, v) for j, v in best.items() if j != pj]
            for t in live:
                r = rows[t]
                c = r.pop(pj)
                g = gcd(pv, c)
                a, b = pv // g, c // g
                if a != 1:
                    for j in r:
                        r[j] *= a
                for j, v in rest:
                    old = r.get(j)
                    if old is None:
                        r[j] = -b * v
                        holders[j].add(t)
                    else:
                        new = old - b * v
                        if new == 0:
                            del r[j]
                            holders[j].discard(t)
                        else:
                            r[j] = new
                content = gcd(*r.values()) or 1
                if content != 1:
                    for j in r:
                        r[j] //= content
            self.pivots.append((p, pj, best))

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def column(self, j: int) -> list[tuple[int, int]]:
        """Column j of the integer rows as (row, entry) pairs."""
        if self._columns is None:
            self._columns = cols = [[] for _ in range(self._matrix.cols)]
            for (i, k), v in self._matrix.entries.items():
                cols[k].append((i, v))
        return self._columns[j]

    def solve_column(self, c: int) -> tuple[dict[int, int], int]:
        """(X, D) with m @ X = D * m[:, c], D > 0 and X a dict from pivot
        columns to nonzero ints: ({c: 1}, 1) if c is a pivot column.  Any
        other column has no entry in the later pivot rows, and in the
        earlier ones it is transformed with them, so X is back-substituted
        over their pivot-column entries (listed on the first solve) over one
        denominator, then checked in integers against m."""
        if self._back is None:
            cols = {pj for _, pj, _ in self.pivots}
            self._back = [
                (pj, row[pj], [(j, v) for j, v in row.items() if j in cols], row)
                for _, pj, row in self.pivots
            ]
        k = bisect_left(self._back, c, key=itemgetter(0))
        if k < len(self._back) and self._back[k][0] == c:
            return {c: 1}, 1
        X: dict[int, int] = {}
        g = 1
        for pj, pv, entries, row in reversed(self._back[:k]):
            s = row.get(c, 0) * g
            for j, v in entries:
                xj = X.get(j)
                if xj:
                    s -= v * xj
            if not s:
                continue
            if s % pv:
                f = abs(pv) // gcd(s, pv)
                for j in X:
                    X[j] *= f
                g, s = g * f, s * f
            X[pj] = s // pv
        check = {i: -g * v for i, v in self.column(c)}
        for j, xj in X.items():
            for i, v in self.column(j):
                check[i] = check.get(i, 0) + v * xj
        if any(check.values()):
            raise AssertionError("column solve failed its integer check")
        return X, g


class RationalSpan:
    """Row space maintained incrementally in echelon form, in ``Fraction``s.

    ``add`` reports whether the rank grew, so a caller keeps the first
    vectors, in its own order, that enlarge the span: the ordered greedy
    choice.  The library reads that choice off ``Echelon``'s pivot columns;
    this separate elimination is the reference they are tested against, and
    the benchmark's tracer (``bench/trace_child.py``) still counts its
    ``add``.  Vectors are sparse dicts col -> Fraction.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._pivots: dict[int, dict[int, Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def residue(self, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        v = {j: Fraction(c) for j, c in vec.items() if c != 0}
        for pj in sorted(self._pivots):
            c = v.get(pj)
            if c is None:
                continue
            row = self._pivots[pj]
            for j, w in row.items():
                new = v.get(j, Fraction(0)) - c * w
                if new == 0:
                    v.pop(j, None)
                else:
                    v[j] = new
        return v

    def contains(self, vec) -> bool:
        return not self.residue(vec)

    def add(self, vec) -> bool:
        v = self.residue(vec)
        if not v:
            return False
        pj = min(v)
        pv = v[pj]
        self._pivots[pj] = {j: c / pv for j, c in v.items()}
        return True


def rank(m: SparseRationalMatrix) -> int:
    """Exact rank over Q; a tall matrix is ranked as its transpose."""
    if m.rows > m.cols:
        entries = {(j, i): v for (i, j), v in m.entries.items()}
        m = SparseRationalMatrix(m.cols, m.rows, entries)
    return Echelon(m).rank


def solve(m: SparseRationalMatrix, rhs) -> list[Fraction] | None:
    """One exact solution of m @ x = rhs, free variables zero, or None:
    [m | rhs] is factored and its last column solved.  ``rhs`` is a dense
    list or a sparse dict row -> value."""
    items = rhs.items() if isinstance(rhs, dict) else enumerate(rhs)
    entries = {**m.entries, **{(i, m.cols): v for i, v in items}}
    augmented = SparseRationalMatrix(m.rows, m.cols + 1, entries)
    X, D = Echelon(augmented).solve_column(m.cols)
    if m.cols in X:
        return None
    return [Fraction(X.get(j, 0), D) for j in range(m.cols)]
