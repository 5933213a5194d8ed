"""Emission of the hypergeometric operator system.

Euler operators transcribe the rows of the exponent matrix with their
parameter shifts; box operators come from a basis of the integer kernel of
the matrix, computed by exact column reduction and normalized Hermite-style
so the output is canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotARelation
from .jsonio import format_rational
from .lattice import ExponentMatrix

_SUBSCRIPTS = str.maketrans("0123456789-", "₀₁₂₃₄₅₆₇₈₉₋")


def _sub_index(k: int) -> str:
    return str(k).translate(_SUBSCRIPTS)


@dataclass(frozen=True)
class EulerOperator:
    """First-order torus-symmetry operator for one matrix row."""

    row_weights: tuple[int, ...]
    gamma_shift: Fraction

    def to_json(self):
        return {
            "row_weights": list(self.row_weights),
            "gamma_shift": format_rational(self.gamma_shift),
        }


@dataclass(frozen=True)
class BoxOperator:
    """A binomial operator attached to an integer relation of the columns."""

    relation: tuple[int, ...]

    def to_json(self):
        return {"relation": list(self.relation)}


def box_operator(matrix: ExponentMatrix, relation) -> BoxOperator:
    """Validate a vector as a nonzero integer relation among the columns."""
    relation = tuple(int(c) for c in relation)
    if len(relation) != matrix.num_columns:
        raise NotARelation("length does not match the column count")
    if not any(relation):
        raise NotARelation("zero vector is not a generator")
    for row in matrix.rows:
        if sum(r * c for r, c in zip(row, relation)) != 0:
            raise NotARelation(f"{relation} is not a column relation")
    return BoxOperator(relation)


def _integer_kernel(matrix: ExponentMatrix) -> list[list[int]]:
    """Basis of the integer kernel via unimodular column reduction."""
    n, N = matrix.n, matrix.num_columns
    work = [list(row) for row in matrix.rows]
    U = [[1 if i == j else 0 for j in range(N)] for i in range(N)]

    def col_swap(a, b):
        for row in work:
            row[a], row[b] = row[b], row[a]
        for row in U:
            row[a], row[b] = row[b], row[a]

    def col_addmul(dst, src, q):
        for row in work:
            row[dst] += q * row[src]
        for row in U:
            row[dst] += q * row[src]

    pivot_col = 0
    for i in range(n):
        # gcd-reduce the row to a single nonzero entry at pivot_col
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
                    q = -(work[i][j] // work[i][pivot_col])
                    col_addmul(j, pivot_col, q)
                    if work[i][j] != 0:
                        done = False
            if done:
                break
        if any(work[i][j] != 0 for j in range(pivot_col, N)):
            pivot_col += 1
    kernel = []
    for j in range(pivot_col, N):
        if all(work[i][j] == 0 for i in range(n)):
            kernel.append([U[r][j] for r in range(N)])
    return kernel


def _row_hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row Hermite form with positive pivots and reduced entries above."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    width = len(rows[0])
    out: list[list[int]] = []
    col = 0
    while rows and col < width:
        cand = [r for r in rows if r[col] != 0]
        if not cand:
            col += 1
            continue
        while True:
            cand.sort(key=lambda r: abs(r[col]))
            piv = cand[0]
            finished = True
            for r in cand[1:]:
                q = r[col] // piv[col]
                for k in range(width):
                    r[k] -= q * piv[k]
                if r[col] != 0:
                    finished = False
            cand = [piv] + [r for r in cand[1:] if r[col] != 0]
            if finished or len(cand) == 1:
                break
        if piv[col] < 0:
            for k in range(width):
                piv[k] = -piv[k]
        out.append(piv)
        rows = [r for r in rows if r is not piv and any(r)]
        for r in rows:
            if r[col] != 0:
                q = r[col] // piv[col]
                for k in range(width):
                    r[k] -= q * piv[k]
        col += 1
    # reduce entries above each pivot into [0, pivot)
    for idx in range(len(out) - 1, -1, -1):
        piv = out[idx]
        pcol = next(k for k in range(width) if piv[k] != 0)
        for upper in out[:idx]:
            q = upper[pcol] // piv[pcol]
            if q:
                for k in range(width):
                    upper[k] -= q * piv[k]
    return out


def lattice_kernel(matrix: ExponentMatrix) -> list[BoxOperator]:
    """A normalized basis of all integer relations among the columns.

    Column reduction by a unimodular transform makes the basis saturated:
    every integer relation is an integer combination of the output.
    """
    basis = _row_hnf(_integer_kernel(matrix))
    return [box_operator(matrix, row) for row in basis]


def in_kernel_lattice(basis: list[BoxOperator], relation) -> bool:
    """Whether the relation is an integer combination of the basis."""
    v = [int(c) for c in relation]
    width = len(v)
    for b in basis:
        row = b.relation
        pcol = next((k for k in range(width) if row[k] != 0), None)
        if pcol is None:
            continue
        if v[pcol] % row[pcol] != 0:
            return False
        q = v[pcol] // row[pcol]
        for k in range(width):
            v[k] -= q * row[k]
    return not any(v)


def euler_operators(matrix: ExponentMatrix, gamma) -> list[EulerOperator]:
    """One operator per matrix row, carrying the matching parameter entry."""
    gamma = [Fraction(g) for g in gamma]
    if len(gamma) != matrix.n:
        raise ValueError("parameter length does not match the row count")
    return [
        EulerOperator(tuple(row), gamma[i]) for i, row in enumerate(matrix.rows)
    ]


def render_euler(op: EulerOperator) -> str:
    parts = []
    for j, w in enumerate(op.row_weights, start=1):
        if w == 0:
            continue
        term = f"x{_sub_index(j)}∂{_sub_index(j)}"
        if w == 1:
            parts.append(term)
        elif w == -1:
            parts.append(f"-{term}")
        else:
            parts.append(f"{w}{term}")
    if not parts:
        rendered = "0"
    else:
        rendered = parts[0]
        for p in parts[1:]:
            rendered += f" − {p[1:]}" if p.startswith("-") else f" + {p}"
    if op.gamma_shift != 0:
        g = op.gamma_shift
        if g > 0:
            rendered += f" + {format_rational(g)}"
        else:
            rendered += f" − {format_rational(-g)}"
    return rendered


def render_box(box: BoxOperator) -> str:
    """Canonical text: positive part minus negative part."""
    if not any(box.relation):
        return "0"

    def side(signed):
        bits = []
        for j, c in enumerate(box.relation, start=1):
            e = c if signed > 0 else -c
            if e > 0:
                term = f"∂{_sub_index(j)}"
                bits.append(term if e == 1 else f"{term}^{e}")
        return "".join(bits) if bits else "1"

    return f"{side(+1)} − {side(-1)}"
