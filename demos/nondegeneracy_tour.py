"""Walk through the face-by-face nondegeneracy decision.

A Laurent polynomial is nondegenerate when no face of its Newton polytope
away from the origin carries a critical point in the torus.  The decision
here is exact: each face quotient either matches its predicted Hilbert
polynomial and dies, or it survives too long and certifies degeneracy.
"""

from gkzrank import is_nondegenerate, NewtonPolytope, validate_matrix

matrix = validate_matrix([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
polytope = NewtonPolytope(matrix)

print("faces scanned (all proper faces avoiding the origin):")
for face in polytope.origin_free_faces():
    print(f"  face {face.id}: dim {face.dim}, vertices {face.vertices}")

# The generic-looking fiber (1,2,3,4) passes every face.
good = is_nondegenerate([1, 2, 3, 4], polytope)
print("\nfiber (1,2,3,4): nondegenerate =", good.overall)
for cert in good.certificates:
    print(
        f"  face {cert.face_id}: rows {cert.spanning_indices}, "
        f"quotient dims {cert.quotient_dims}"
    )

# The symmetric fiber (1,1,1,1) hides a critical point on the square facet
# at t2 = t3 = -1, and the square quotient never dies.
bad = is_nondegenerate([1, 1, 1, 1], polytope)
print("\nfiber (1,1,1,1): nondegenerate =", bad.overall)
for cert in bad.offending_faces():
    print(
        f"  offending face {cert.face_id} {cert.face_vertices}: "
        f"dims {cert.quotient_dims} vs expected {cert.expected_dims}"
    )

# Killing any single coefficient wipes out a vertex polynomial entirely.
for j in range(4):
    fiber = [1, 1, 1, 1]
    fiber[j] = 0
    verdict = is_nondegenerate(fiber, polytope).overall
    print(f"fiber with a_{j+1} = 0: nondegenerate = {verdict}")
