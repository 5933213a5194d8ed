"""Poincare series, graded pieces, and the facial resolution complex.

The ring attached to [[-1, 1]] lives on the whole integer line graded by
absolute value, so its degree dimensions are 1, 2, 2, 2, ... and the series
is (1+t)/(1-t).  The facial complex splits into one tiny complex per
lattice point; each piece must be exact away from the left end.
"""

from gkzrank import (
    ConeRing,
    FaceComplex,
    NewtonPolytope,
    check_face_complex_exactness,
    poincare_series,
    validate_matrix,
)

matrix = validate_matrix([[-1, 1]])
polytope = NewtonPolytope(matrix)
ring = ConeRing(polytope)

print("graded pieces:")
for d in range(5):
    print(f"  degree {d}: {list(ring.monomials_of_degree(d))}")

series = poincare_series(ring)
print("Poincare series:", series)
print("Taylor coefficients:", series.taylor(8))
print("pole order at t=1 (= cone dimension):", series.pole_order_at_one())

# The origin is interior here, so the facial complex carries an extra
# augmentation spot and the weight-zero piece is the two endpoint rings
# mapping onto the ground field.
complex_ = FaceComplex(polytope)
print("\naugmented:", complex_.augmented)
piece = complex_.weight_piece((0,))
print("weight 0 dims:", [piece.dim(q) for q in piece.degrees])
print("weight 0 cohomology:", piece.cohomology_dims())

report = check_face_complex_exactness(polytope, 8)
print(f"\nexactness up to weight 8: ok={report.ok} "
      f"({report.weights_checked} weights checked)")
