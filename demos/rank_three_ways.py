"""Certify the holonomic rank of the Gauss system three independent ways.

The classical Gauss hypergeometric function corresponds to the 3x4 exponent
matrix below.  Its rank is 2, and this script computes that number from
(1) the normalized volume of the Newton polytope, (2) the top Koszul
cohomology of the graded semigroup ring, and (3) the twisted de Rham
cokernel, checking that all three agree.
"""

from gkzrank import (
    h_top_dimension,
    newton_polytope,
    validate_matrix,
    verify_kouchnirenko,
)

matrix = validate_matrix([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
fiber = [1, 2, 3, 4]  # a concrete nondegenerate coefficient fiber
gamma = [0, 0, 0]

polytope = newton_polytope(matrix)
print("Newton polytope:", polytope)
print("facets:")
for f in polytope.facets:
    print(f"  {f.normal} . w <= {f.level}")

# Route 1: geometry.  The hull is a pyramid over the unit square with apex
# at the origin, so its volume is 1/3 and the normalized volume is 3! / 3.
print("\n1) normalized volume:", polytope.normalized_volume)

# Route 2: algebra.  The leading log-derivative classes cut the graded
# semigroup ring down to a finite-dimensional quotient; its dimension is
# read off degree by degree.
koszul = verify_kouchnirenko(matrix, fiber, polytope)
print("2) Koszul top cohomology:", koszul.top_dim)
print("   lower cohomology vanishes:", koszul.vanishing)
print("   per-degree dims:", dict(koszul.per_degree))
print("   predicted polynomial:", koszul.expected_polynomial)

# Route 3: analysis.  The twisted de Rham differential is reduced against
# the monomial basis lifted from route 2, so route 2's result is passed in
# rather than computed again.
dim, basis = h_top_dimension(gamma, fiber, polytope, kouchnirenko=koszul)
print("3) de Rham cokernel dimension:", dim)
print("   monomial basis:", basis.basis)

assert polytope.normalized_volume == koszul.top_dim == dim
print("\nAll three routes agree: rank =", dim)
