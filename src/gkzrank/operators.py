"""Emission of the hypergeometric operator system.

Euler operators transcribe the rows of the exponent matrix with their
parameter shifts; box operators come from the integer kernel of the matrix,
read off one reduced row Hermite form of [A^T | I], which is unique, so the
output is canonical.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotARelation
from .jsonio import format_rational
from .lattice import ExponentMatrix, _rationals

_SUBSCRIPTS = str.maketrans("0123456789-", "₀₁₂₃₄₅₆₇₈₉₋")


def _sub_index(k: int) -> str:
    return str(k).translate(_SUBSCRIPTS)


class EulerOperator:
    """First-order torus-symmetry operator for one matrix row."""

    def __init__(self, row_weights, gamma_shift):
        self.row_weights: tuple[int, ...] = row_weights
        self.gamma_shift: Fraction = gamma_shift

    def to_json(self):
        return {
            "row_weights": list(self.row_weights),
            "gamma_shift": format_rational(self.gamma_shift),
        }


class BoxOperator:
    """A binomial operator attached to an integer relation of the columns."""

    def __init__(self, relation):
        self.relation: tuple[int, ...] = relation

    def to_json(self):
        return {"relation": list(self.relation)}


def _integer_vector(relation) -> tuple[int, ...]:
    """The entries as a tuple; an entry that is not an ``int`` (a bool is
    not one) raises, as ``int`` would truncate it."""
    relation = tuple(relation)
    for c in relation:
        if not isinstance(c, int) or isinstance(c, bool):
            raise NotARelation(f"non-integer entry {c!r}")
    return relation


def box_operator(matrix: ExponentMatrix, relation) -> BoxOperator:
    """Validate a vector as a nonzero integer relation among the columns."""
    relation = _integer_vector(relation)
    if len(relation) != matrix.num_columns:
        raise NotARelation("length does not match the column count")
    if not any(relation):
        raise NotARelation("zero vector is not a generator")
    for row in matrix.rows:
        if sum(r * c for r, c in zip(row, relation)) != 0:
            raise NotARelation(f"{relation} is not a column relation")
    return BoxOperator(relation)


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
        col += 1
    # Reduce entries above each pivot into [0, pivot), top-down: reducing by
    # a pivot changes the rows above only right of its column, where the
    # later pivots sit.
    for idx in range(len(out)):
        piv = out[idx]
        pcol = next(k for k in range(width) if piv[k] != 0)
        for upper in out[:idx]:
            q = upper[pcol] // piv[pcol]
            if q:
                for k in range(width):
                    upper[k] -= q * piv[k]
    return out


def lattice_kernel(matrix: ExponentMatrix) -> list[BoxOperator]:
    """The reduced Hermite basis of all integer relations among the columns.

    The rows of [A^T | I] generate {(A c, c)}; in their Hermite form the
    rows whose A^T part vanishes are a basis of {c : A c = 0}, saturated
    (every integer relation is an integer combination of them) and unique.
    """
    n, N = matrix.n, matrix.num_columns
    hnf = _row_hnf([
        list(a) + [int(i == j) for i in range(N)]
        for j, a in enumerate(matrix.columns)
    ])
    return [box_operator(matrix, row[n:]) for row in hnf if not any(row[:n])]


def euler_operators(matrix: ExponentMatrix, gamma) -> list[EulerOperator]:
    """One operator per matrix row, carrying the matching parameter entry."""
    gamma = _rationals(gamma, matrix.n)
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
