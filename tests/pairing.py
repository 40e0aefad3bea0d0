"""Determinant witness that the Euler rows of the Jacobian rank matrix are
independent. Used only by the tests; the oracle itself certifies its rank."""

from reflexorb.jacobian import lifted_ray_subset
from reflexorb.linalg import integer_determinant, rational_rank


def independent_vertex_subset(pair):
    """Lexicographically first n linearly independent vertices of delta,
    then the origin."""
    chosen = []
    for v in pair.delta.vertices:
        if rational_rank([list(w) for w in chosen + [v]]) == len(chosen) + 1:
            chosen.append(v)
            if len(chosen) == pair.n:
                break
    assert len(chosen) == pair.n, "delta vertices failed to span"
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
    assert det_e != 0, "pairing matrix unexpectedly singular"
    if coeffs is not None:
        p = [[coeffs[m] * entry for entry in row] for m, row in zip(monomials, e)]
        scale = 1
        for m in monomials:
            scale *= coeffs[m]
        assert integer_determinant(p) == scale * det_e
    return True
