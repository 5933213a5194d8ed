"""Reduction relations, Gauss-Manin matrices, and the operator system.

In one variable everything is visible by hand.  For the exponent matrix
[[2]] the twisted differential gives d(t^k) = (k t^k + 2 t^{k+2}) dlog t,
so t^{k+2} rewrites to -(k/2) t^k and the cohomology basis is {1, t}.
"""

from fractions import Fraction

from gkzrank import (
    LogForm,
    NewtonPolytope,
    connection_matrices,
    euler_operators,
    h_top_dimension,
    is_nondegenerate,
    lattice_kernel,
    render_box,
    render_euler,
    validate_matrix,
    verify_kouchnirenko,
)

# Each stage takes the result of the one before: certify the fiber, count
# the Koszul top cohomology, then build the de Rham basis on it.
polytope = NewtonPolytope(validate_matrix([[2]]))
koszul = verify_kouchnirenko(is_nondegenerate([1], polytope))
dim, basis = h_top_dimension([0], koszul)
print("basis of the top cohomology:", basis.basis)

for k in range(2, 6):
    form = LogForm.monomial(1, (0,), (k,))
    coords = basis.reduce(form)
    print(f"t^{k} dlog t reduces to coordinates {coords}")

mats = connection_matrices(basis)
print("\nconnection matrix for the only column:")
for row in mats[0]:
    print("  ", [str(c) for c in row])

# The full operator system for the Gauss 3x4 matrix.
gauss = validate_matrix([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
print("\nGauss operator system:")
for op in euler_operators(gauss, [Fraction(1, 2), Fraction(-1, 3), 0]):
    print("  ", render_euler(op))
for box in lattice_kernel(gauss):
    print("  ", render_box(box))
