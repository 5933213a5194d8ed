"""Exact-rational JSON conventions shared by the library surfaces.

Numbers serialize as integer strings or "p/q"; ring-element exponents as
comma-joined integer tuples.
"""

from __future__ import annotations

from fractions import Fraction

from .rings import RingElement


def parse_rational(text) -> Fraction:
    if type(text) is int or isinstance(text, str):  # never a bool
        try:
            return Fraction(text)
        except ZeroDivisionError:
            pass
    raise ValueError(f"cannot parse rational from {text!r}")


def format_rational(value) -> str:
    return str(Fraction(value))


def exponent_key(w) -> str:
    return ",".join(str(c) for c in w)


def parse_exponent_key(key: str):
    return tuple(int(c) for c in key.split(","))


def ring_element_to_json(x: RingElement) -> dict:
    return {exponent_key(w): format_rational(c) for w, c in x.sorted_terms()}


def ring_element_from_json(data: dict) -> RingElement:
    out = RingElement()
    for key, val in data.items():
        out.add_term(parse_exponent_key(key), parse_rational(val))
    return out


def polytope_summary_json(polytope) -> dict:
    return {
        "n": polytope.n,
        "num_columns": polytope.matrix.num_columns,
        "facets": [
            {"normal": list(f.normal), "level": f.level} for f in polytope.facets
        ],
        "vertices": [list(v) for v in polytope.vertices],
        "f_vector": list(polytope.f_vector()),
        "index_sets": {
            str(p): [f.id for f in polytope.index_set(p)]
            for p in range(polytope.n)
        },
        "origin_interior": polytope.origin_interior,
        "gauge_denominator": polytope.gauge_denominator,
        "normalized_volume": polytope.normalized_volume,
    }
