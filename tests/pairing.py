"""Determinant witness that the Euler rows of the Jacobian rank matrix are
independent, the two row blocks of that matrix on their own, a reference
assembly of it by tuple lookups, its target rank, a rational kernel basis,
a face lookup by vertex ids, and the face pairing of a reflexive pair
through both face lattices. Used only by the tests; the oracle itself
certifies its rank. The package reads dual faces from facet masks instead,
and the tests compare its sums with sums over faces paired here."""

from fractions import Fraction

from reflexorb.jacobian import (
    assemble_matrix,
    facet_interior_pairs,
    lifted_ray_subset,
    monomial_basis,
)
from reflexorb.linalg import rational_rank


def integer_determinant(m) -> int:
    """Determinant by fraction-free Bareiss elimination."""
    a = [list(row) for row in m]
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise ValueError("determinant requires a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rational_kernel_basis(m) -> list[tuple[Fraction, ...]]:
    """Basis of {x : m x = 0} over the rationals (column kernel)."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [[Fraction(x) for x in row] for row in m]
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -a[row_idx][fc]
        basis.append(tuple(vec))
    return basis


def euler_rows(pair, coeffs, rays=None):
    """The Euler rows alone, for the lifted ray subset or the given rays."""
    return assemble_matrix(pair, coeffs, rays, ())


def facet_interior_rows(pair, coeffs):
    """The facet interior rows alone."""
    return assemble_matrix(pair, coeffs, (), facet_interior_pairs(pair))


def reference_matrix(pair, coeffs, rays=None, pairs=None):
    """The rank matrix with its columns found by tuple lookups: row for
    (v, m*) takes at column m + m* the Euler value of v at m. The
    reference for assemble_matrix, whose integer keys must give the same
    rows."""
    if rays is None:
        rays = lifted_ray_subset(pair)
    if pairs is None:
        pairs = facet_interior_pairs(pair)
    basis = monomial_basis(pair)
    column = {m: j for j, m in enumerate(basis)}

    def values(v):
        return [coeffs[m] * (sum(a * b for a, b in zip(m, v)) + 1) for m in basis]

    rows = [values(ray) for ray in rays]
    for ray, star in pairs:
        row = [0] * len(basis)
        for m, value in zip(basis, values(ray)):
            j = column.get(tuple(a + b for a, b in zip(m, star)))
            if j is not None:
                row[j] = value
        rows.append(row)
    return rows


def gamma(pair) -> int:
    """Target rank: n + 1 + total facet interior points of delta."""
    return pair.n + 1 + len(facet_interior_pairs(pair))


def independent_vertex_subset(pair):
    """Lexicographically first n linearly independent vertices of delta,
    then the origin."""
    chosen = []
    for v in pair.delta.vertices:
        if rational_rank([list(w) for w in chosen + [v]]) == len(chosen) + 1:
            chosen.append(v)
            if len(chosen) == pair.n:
                break
    if len(chosen) != pair.n:
        raise AssertionError("delta vertices failed to span")
    return tuple(chosen) + ((0,) * pair.n,)


def matrix_e(pair, monomials=None, rays=None):
    """The (n+1) x (n+1) pairing matrix with entries <m_i, v_j> + 1."""
    if monomials is None:
        monomials = independent_vertex_subset(pair)
    if rays is None:
        rays = lifted_ray_subset(pair)
    return [[sum(a * b for a, b in zip(m, v)) + 1 for v in rays] for m in monomials]


def verify_matrix_p_nonsingular(pair, coeffs=None):
    """Witness that the chosen Euler rows are independent: the pairing
    matrix on n independent vertices plus the origin has nonzero
    determinant, and scaling its rows by the (nonzero) coefficients
    multiplies the determinant by exactly their product."""
    monomials = independent_vertex_subset(pair)
    e = matrix_e(pair, monomials)
    det_e = integer_determinant(e)
    if det_e == 0:
        raise AssertionError("pairing matrix unexpectedly singular")
    if coeffs is not None:
        p = [[coeffs[m] * entry for entry in row] for m, row in zip(monomials, e)]
        scale = 1
        for m in monomials:
            scale *= coeffs[m]
        if integer_determinant(p) != scale * det_e:
            raise AssertionError("scaling the rows did not scale the determinant by their product")
    return True


def face_with_vertex_ids(polytope, vertex_ids):
    """The face of polytope whose vertex ids are vertex_ids, in any order."""
    key = tuple(sorted(vertex_ids))
    for faces in polytope.faces().values():
        for face in faces:
            if face.vertex_ids == key:
                return face
    raise KeyError(f"no face with vertex ids {key}")


def dual_face(pair, face):
    """The face of delta paired with a proper face of delta_polar."""
    return _paired(pair, face, pair.delta)


def dual_face_of_delta(pair, face):
    """The face of delta_polar paired with a proper face of delta."""
    return _paired(pair, face, pair.delta_polar)


def _paired(pair, face, dst):
    """The face of dst whose vertex ids are the active facets of face, which
    must have the complementary dimension."""
    if face.dim >= pair.n:
        raise ValueError("only proper faces have duals")
    dual = face_with_vertex_ids(dst, face.active_facets)
    if face.dim + dual.dim != pair.n - 1:
        raise AssertionError("face pairing dimension mismatch")
    return dual
