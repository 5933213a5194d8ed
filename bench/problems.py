"""Benchmark inputs: two fixed ladders and the seeded ``sweep`` generator.

A problem is a dict with an ``id``, a ``spec`` in the ``gkz`` problem-file
format and an ``expect`` block for the checker.  Nothing here imports
gkzrank: expected exit codes and ranks come from closed forms, from the
construction of a degenerate fiber, or from the independent volume routine
below, never from the program under test.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

# Caps on a random draw, by dimension, so that per-process fixed cost
# dominates and no single draw sets the workload's time: the normalized
# volume, and the lattice points of the bounding box of the columns and the
# origin (the box the gauge enumeration scans; it predicts a 3-D draw's cost
# better than the volume does).
VOLUME_CAP = {1: 4, 2: 6, 3: 3}
BOX_CAP = {1: 5, 2: 25, 3: 36}  # entries in [-2, 2] bind only in 3-D
SWEEP_RANDOM_PER_DIM = {1: 5, 2: 10, 3: 10}
SWEEP_DEGENERATE = 10


# -- independent normalized volume of conv(0, columns), n <= 3 ---------------


def _det3(a, b, c):
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _hull_2d(points):
    """Vertices of the convex hull in counter-clockwise order (monotone chain)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def normalized_volume(rows) -> int:
    """n! times the Euclidean volume of conv(0, columns of rows), for n <= 3."""
    n = len(rows)
    points = {tuple(r[j] for r in rows) for j in range(len(rows[0]))}
    points.add((0,) * n)
    if n == 1:
        xs = [p[0] for p in points]
        return max(xs) - min(xs)
    if n == 2:
        hull = _hull_2d(points)
        return abs(
            sum(
                hull[i][0] * hull[i - 1][1] - hull[i - 1][0] * hull[i][1]
                for i in range(len(hull))
            )
        )
    if n != 3:
        raise ValueError("independent volume supports n <= 3")
    pts = sorted(points)
    centre = tuple(Fraction(sum(p[k] for p in pts), len(pts)) for k in range(3))
    facets = set()
    for a, b, c in itertools.combinations(pts, 3):
        u = tuple(b[k] - a[k] for k in range(3))
        v = tuple(c[k] - a[k] for k in range(3))
        normal = (
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        )
        if normal == (0, 0, 0):
            continue
        level = sum(x * y for x, y in zip(normal, a))
        offsets = [sum(x * y for x, y in zip(normal, p)) - level for p in pts]
        if all(o <= 0 for o in offsets):
            facets.add((normal, level))
        elif all(o >= 0 for o in offsets):
            facets.add((tuple(-x for x in normal), -level))
    total = Fraction(0)
    seen = set()
    for normal, level in facets:
        on = [p for p in pts if sum(x * y for x, y in zip(normal, p)) == level]
        key = frozenset(on)
        if key in seen:
            continue
        seen.add(key)
        drop = max(range(3), key=lambda k: abs(normal[k]))
        keep = [k for k in range(3) if k != drop]
        by_proj = {(p[keep[0]], p[keep[1]]): p for p in on}
        ring = [by_proj[q] for q in _hull_2d(list(by_proj))]
        rel = [tuple(p[k] - centre[k] for k in range(3)) for p in ring]
        for i in range(1, len(rel) - 1):
            total += abs(_det3(rel[0], rel[i], rel[i + 1]))
    if total.denominator != 1:
        raise AssertionError("normalized volume is not an integer")
    return int(total)


def box_points(rows) -> int:
    """Lattice points of the bounding box of the columns and the origin."""
    size = 1
    for row in rows:
        size *= max(max(row), 0) - min(min(row), 0) + 1
    return size


def full_rank(rows) -> bool:
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank == len(m)


# -- problems ------------------------------------------------------------------


def _problem(pid, rows, fiber, gamma=None, *, exit_code=0, rank=None):
    """A problem record; ``rank`` is a closed form where the family has one."""
    fiber = [str(c) for c in fiber]
    gamma = [str(g) for g in (gamma or [0] * len(rows))]
    volume = normalized_volume(rows)
    if rank is not None and rank != volume:
        raise AssertionError(f"{pid}: closed form {rank} != volume {volume}")
    return {
        "id": pid,
        "spec": {"matrix": rows, "gamma": gamma, "fiber": fiber},
        "expect": {"exit": exit_code, "volume": volume},
    }


def _homogenized(points):
    return [[1] * len(points)] + [[p[k] for p in points] for k in range(len(points[0]))]


def _cycle_fiber(num_columns):
    return [(7 * i) % 13 + 1 for i in range(num_columns)]


def cohomology():
    """Nondegenerate 2-D and 3-D instances with gauge denominator 1 to 36.

    An odd number of problems keeps the pooled median inside one problem's
    samples instead of between two problems of different cost.
    """
    return [
        _problem(
            "octahedron",
            [[1, -1, 0, 0, 0, 0], [0, 0, 1, -1, 0, 0], [0, 0, 0, 0, 1, -1]],
            [1, 2, 3, 5, 7, 11],
            rank=2**3,
        ),
        _problem("dilated-simplex-2", [[2, 0, 0], [0, 2, 0], [0, 0, 2]], [1, 1, 1], rank=2**3),
        _problem("dilated-triangle-3", [[3, 0], [0, 3]], [1, 1], rank=3**2),
        _problem(
            "diamond-pyramid-4",
            [[4, 4, 4, 4], [1, -1, 0, 0], [0, 0, 1, -1]],
            [1, 2, 3, 5],
            ["1/2", "1/2", "1/2"],
            rank=4 * 4,
        ),
        _problem("triangle-m6", [[2, 0, -1], [0, 3, -1]], [1, 2, 3]),
        _problem("triangle-m12", [[3, 0, -1], [0, 4, -1]], [1, 2, 3]),
        _problem("triangle-m36", [[3, 0, -2], [0, 2, -3]], [1, 2, 3]),
    ]


def derham():
    """M = 1 instances with many columns, so one connection matrix per column.

    Five problems, an odd number, for the reason given in ``cohomology``.
    """
    simplex3 = [(a, b) for a in range(4) for b in range(4 - a)]
    grid2 = [(a, b) for a in range(3) for b in range(3)]
    out = []
    for pid, rows, rank in [
        ("simplex-points-3", _homogenized(simplex3), 3**2),
        ("square-grid-2", _homogenized(grid2), 2 * 2**2),
        ("normal-curve-8", [[1] * 8, list(range(8))], 8 - 1),
        ("normal-curve-12", [[1] * 12, list(range(12))], 12 - 1),
        ("normal-curve-16", [[1] * 16, list(range(16))], 16 - 1),
    ]:
        out.append(_problem(pid, rows, _cycle_fiber(len(rows[0])), rank=rank))
    return out


# -- the seeded sweep ------------------------------------------------------------


def _rational(rng, lo, hi, max_den):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def _random_draw(rng, n, stats):
    vectors = [v for v in itertools.product(range(-2, 3), repeat=n) if any(v)]
    while True:
        num_columns = rng.randint(n, n + 3)
        cols = [rng.choice(vectors) for _ in range(num_columns)]
        rows = [[c[k] for c in cols] for k in range(n)]
        if not full_rank(rows):
            stats["rejected_rank"] += 1
            continue
        if normalized_volume(rows) > VOLUME_CAP[n]:
            stats["rejected_volume"] += 1
            continue
        if box_points(rows) > BOX_CAP[n]:
            stats["rejected_box"] += 1
            continue
        fiber = [_rational(rng, 1, 999, 4) for _ in range(num_columns)]
        gamma = [_rational(rng, -4, 4, 4) for _ in range(n)]
        return rows, fiber, gamma


def _lattice_symmetry(rng, n):
    """A random signed permutation matrix: it keeps faces, volume and box size."""
    perm = rng.sample(range(n), n)
    return [[rng.choice((-1, 1)) * int(perm[i] == j) for j in range(n)] for i in range(n)]


def _degenerate_draw(rng, template):
    """A fiber whose restriction to an origin-free face is singular in the torus.

    ``square``: the Gauss square with the product fiber (1, a, b, ab), which
    factors as (1 + a x)(1 + b y).  ``edge2``/``edge3``: three consecutive
    collinear columns of an origin-free edge with fiber (1, 2a, a^2), a
    square (1 + a t)^2.  ``ceiling``: the square (1 + t)^2 on the edge from
    (2,0,0) to (0,2,0) of a 24-face polytope, fixed but for gamma so that
    its cost does not depend on the seed; it takes about twice the time of
    the slowest random draw.  For the others a random signed permutation of
    the coordinates keeps the face structure, and an optional extra column
    behind the face (first coordinate <= 0, within the caps) leaves the
    face in place.
    """
    a = _rational(rng, 1, 9, 3)
    b = _rational(rng, 1, 9, 3)
    if template == "square":
        cols = [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)]
        fiber = [1, a, b, a * b]
    elif template == "edge2":
        cols = [(1, 0), (1, 1), (1, 2)]
        fiber = [1, 2 * a, a * a]
    elif template == "edge3":
        cols = [(1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 0, 1)]
        fiber = [1, 2 * a, a * a, b]
    else:
        cols = [
            (2, 0, 0), (1, 1, 0), (0, 2, 0), (-1, 0, 0), (0, -1, 0), (0, 0, 1), (-1, -1, -1),
        ]
        fiber = [1, 2, 1, 2, 3, 5, 7]
    n = len(cols[0])
    if template in ("edge2", "edge3") and rng.random() < 0.5:
        extra = (rng.randint(-2, 0),) + tuple(rng.randint(-2, 2) for _ in range(n - 1))
        rows = [list(r) for r in zip(*cols, extra)]
        if (
            any(extra)
            and normalized_volume(rows) <= VOLUME_CAP[n]
            and box_points(rows) <= BOX_CAP[n]
        ):
            cols.append(extra)
            fiber.append(_rational(rng, 1, 999, 4))
    if template != "ceiling":
        scale = _rational(rng, 1, 99, 4)
        fiber = [scale * c for c in fiber]
        u = _lattice_symmetry(rng, n)
        cols = [tuple(sum(u[i][k] * c[k] for k in range(n)) for i in range(n)) for c in cols]
    rows = [[c[i] for c in cols] for i in range(n)]
    gamma = [_rational(rng, -4, 4, 4) for _ in range(n)]
    return rows, fiber, gamma


def sweep(seed):
    """Seeded small problems: random nondegenerate draws plus degenerate ones.

    The composition is fixed (so many draws per dimension, so many
    degenerate ones); only the draws themselves depend on the seed, which
    keeps the workload's total cost steady from seed to seed.  The slowest
    problem is always the ``ceiling`` draw, so that ``max_problem_s`` times
    the same shape for every seed instead of the random tail.  Returns the
    problems and the generator's counts.
    """
    rng = random.Random(f"gkz-sweep-{seed}")
    stats = {
        "rejected_rank": 0, "rejected_volume": 0, "rejected_box": 0, "degenerate": 0,
    }
    problems = []
    for n, count in SWEEP_RANDOM_PER_DIM.items():
        for _ in range(count):
            rows, fiber, gamma = _random_draw(rng, n, stats)
            problems.append(_problem(f"draw-{len(problems)}", rows, fiber, gamma))
    templates = ("square", "edge2", "edge3")
    for i in range(SWEEP_DEGENERATE):
        template = templates[i % len(templates)] if i else "ceiling"
        rows, fiber, gamma = _degenerate_draw(rng, template)
        problems.append(
            _problem(f"draw-{len(problems)}", rows, fiber, gamma, exit_code=2)
        )
        stats["degenerate"] += 1
    return problems, stats


def workload(name, seed):
    """The problem list of a workload and the generator's counts."""
    if name == "sweep":
        return sweep(seed)
    if name == "cohomology":
        return cohomology(), {}
    if name == "derham":
        return derham(), {}
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("cohomology", "derham", "sweep")
