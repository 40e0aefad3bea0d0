import json
from fractions import Fraction

import pytest

from reflexorb import jacobian
from reflexorb.cli import main, wps_polytope
from reflexorb.errors import AuditError, HypothesisError
from reflexorb.jacobian import (
    assemble_matrix,
    draw_coefficients,
    facet_interior_pairs,
    jacobian_rank_check,
    lifted_ray_subset,
    monomial_basis,
)
from reflexorb.linalg import rational_rank

from pairing import (
    euler_rows,
    facet_interior_rows,
    gamma,
    independent_vertex_subset,
    integer_determinant,
    matrix_e,
    rational_kernel_basis,
    reference_matrix,
    verify_matrix_p_nonsingular,
)
from test_hodge import (
    FIVEDIM_POLAR,
    OCTIC_POLAR,
    QUINTIC_POLAR,
    SEXTIC_POLAR,
    make_pair,
)
from test_polytope import CROSS4, CUBE4, P11169, SIMPLEX_POLAR, _apply

ALL_INSTANCES = [
    # (polar vertices, gamma, l(delta), quotient)
    (SIMPLEX_POLAR, 22, 105, 83),
    (QUINTIC_POLAR, 25, 126, 101),
    (CROSS4, 13, 81, 68),
    (SEXTIC_POLAR, 27, 130, 103),
    (OCTIC_POLAR, 52, 201, 149),
    (FIVEDIM_POLAR, 32, 378, 346),
]


@pytest.fixture(scope="module")
def simplex_pair():
    return make_pair(SIMPLEX_POLAR)


@pytest.fixture(scope="module")
def cube_pair():
    return make_pair(CROSS4)


def test_simplex_rank(simplex_pair):
    rep = jacobian_rank_check(simplex_pair, seed=1)
    assert rep.gamma == 22 == 5 + 17
    assert rep.rank == 22
    assert rep.l_delta == 105
    assert rep.quotient == 83
    assert rep.formula == 83
    assert rep.agrees and rep.generic
    assert rep.attempts == 1 and rep.seed_used == 1


def test_quintic_rank():
    rep = jacobian_rank_check(make_pair(QUINTIC_POLAR), seed=0)
    assert rep.gamma == 25
    assert rep.rank == 25
    assert rep.quotient == 101 == rep.formula
    assert rep.agrees


def test_cube_rank(cube_pair):
    rep = jacobian_rank_check(cube_pair, seed=0)
    assert rep.gamma == 13 == 5 + 8
    assert rep.rank == 13
    assert rep.quotient == 68 == rep.formula
    assert rep.agrees


def test_gamma_values():
    for verts, g, l_delta, quotient in ALL_INSTANCES:
        pair = make_pair(verts)
        assert gamma(pair) == g
        assert len(monomial_basis(pair)) == l_delta
        assert l_delta - g == quotient


def test_all_instances_three_seeds():
    for verts, g, l_delta, quotient in ALL_INSTANCES:
        pair = make_pair(verts)
        for seed in (0, 1, 2):
            rep = jacobian_rank_check(pair, seed=seed)
            assert rep.rank == g, (verts, seed)
            assert rep.quotient == quotient == rep.formula
            assert rep.agrees and rep.generic


def test_origin_column_is_lambda0(simplex_pair):
    coeffs = draw_coefficients(simplex_pair, 3)
    basis = monomial_basis(simplex_pair)
    origin_col = basis.index((0, 0, 0, 0))
    for row in euler_rows(simplex_pair, coeffs):
        assert row[origin_col] == coeffs[(0, 0, 0, 0)]


def test_lifted_subset_simplex(simplex_pair):
    # r = n + 1 here, so the subset is every ray
    assert lifted_ray_subset(simplex_pair) == simplex_pair.delta_polar.vertices


def test_euler_null_space_cube(cube_pair):
    # with all r rays the row relations form a space of dimension r-(n+1),
    # and every relation has coefficients summing to zero that also kill
    # the ray vectors
    coeffs = draw_coefficients(cube_pair, 5)
    rays = cube_pair.delta_polar.vertices
    rows = euler_rows(cube_pair, coeffs, rays=rays)
    transpose = [list(col) for col in zip(*rows)]
    kernel = rational_kernel_basis(transpose)
    assert len(kernel) == len(rays) - 5 == 3
    for c in kernel:
        assert sum(c) == 0
        for coord in range(4):
            assert sum(ci * ray[coord] for ci, ray in zip(c, rays)) == 0


def test_facet_row_diagonal_structure(simplex_pair):
    coeffs = draw_coefficients(simplex_pair, 7)
    basis = monomial_basis(simplex_pair)
    origin = (0, 0, 0, 0)
    pairs = facet_interior_pairs(simplex_pair)
    rows = facet_interior_rows(simplex_pair, coeffs)
    assert len(pairs) == len(rows) == 17
    cols = [basis.index(star) for _, star in pairs]
    for k, row in enumerate(rows):
        assert row[cols[k]] == coeffs[origin]
        for j, col in enumerate(cols):
            if j == k:
                continue
            shift = tuple(a - b for a, b in zip(pairs[j][1], pairs[k][1]))
            assert shift != origin  # lambda_0 never leaks off the diagonal
            if row[col] != 0:
                assert row[col] % coeffs[shift] == 0


def test_scaling_invariance(cube_pair):
    coeffs = draw_coefficients(cube_pair, 11)
    scaled = {m: 7 * v for m, v in coeffs.items()}
    r1 = rational_rank(assemble_matrix(cube_pair, coeffs))
    r2 = rational_rank(assemble_matrix(cube_pair, scaled))
    assert r1 == r2 == 13


def test_ray_choice_independence(cube_pair):
    # extra Euler rows are linear combinations of the chosen ones, so the
    # assembled rank cannot move
    coeffs = draw_coefficients(cube_pair, 13)
    chosen = rational_rank(assemble_matrix(cube_pair, coeffs))
    full = rational_rank(
        euler_rows(cube_pair, coeffs, rays=cube_pair.delta_polar.vertices)
        + facet_interior_rows(cube_pair, coeffs)
    )
    assert chosen == full == 13


def test_pairing_matrix_nonsingular():
    for verts, *_ in ALL_INSTANCES:
        pair = make_pair(verts)
        coeffs = draw_coefficients(pair, 2)
        assert verify_matrix_p_nonsingular(pair)
        assert verify_matrix_p_nonsingular(pair, coeffs)


def test_pairing_matrix_engineered_degenerate(simplex_pair):
    mono = list(independent_vertex_subset(simplex_pair))
    mono[-1] = mono[0]  # duplicate row instead of the origin
    e = matrix_e(simplex_pair, monomials=mono)
    assert integer_determinant(e) == 0


def test_independent_vertex_subset(simplex_pair):
    subset = independent_vertex_subset(simplex_pair)
    assert len(subset) == 5
    assert subset[-1] == (0, 0, 0, 0)
    assert rational_rank([list(v) for v in subset[:-1]]) == 4


def test_low_dimension_guard():
    square = make_pair([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    with pytest.raises(HypothesisError):
        jacobian_rank_check(square, seed=0)
    rep = jacobian_rank_check(square, seed=0, force=True)
    assert rep.gamma == 3
    assert rep.rank == 3
    assert rep.quotient == 2 == rep.formula


def test_coefficients_deterministic(simplex_pair):
    a = draw_coefficients(simplex_pair, 42)
    b = draw_coefficients(simplex_pair, 42)
    c = draw_coefficients(simplex_pair, 43)
    assert a == b
    assert a != c
    assert all(1 <= v <= 10**6 for v in a.values())


def test_bareiss_fallback_gives_identical_report(cube_pair, monkeypatch):
    certified = [jacobian_rank_check(cube_pair, seed=s) for s in (0, 1)]
    exact_calls = []

    def counting_rank(m):
        exact_calls.append(len(m))
        return rational_rank(m)

    monkeypatch.setattr(jacobian, "rank_mod_p", lambda m, p: len(m) - 1)
    monkeypatch.setattr(jacobian, "rational_rank", counting_rank)
    fallback = [jacobian_rank_check(cube_pair, seed=s) for s in (0, 1)]
    assert fallback == certified
    assert exact_calls.count(13) == 2  # one exact rank per report


def test_certified_rank_skips_bareiss(cube_pair, monkeypatch):
    exact_calls = []

    def counting_rank(m):
        exact_calls.append(len(m))
        return rational_rank(m)

    monkeypatch.setattr(jacobian, "rational_rank", counting_rank)
    rep = jacobian_rank_check(cube_pair, seed=0)
    assert rep.rank == 13 and rep.generic
    assert exact_calls == []  # the lifted rays are chosen without a rank


def test_row_count_audit_survives_optimisation(cube_pair, monkeypatch):
    monkeypatch.setattr(
        jacobian, "assemble_matrix", lambda pair, coeffs, rays, pairs: [[1]]
    )
    with pytest.raises(AuditError, match="1 rows, gamma is 13"):
        jacobian_rank_check(cube_pair, seed=0)


def test_oracle_jacobian_p1_1_12_28_42(capsys):
    code = main(["oracle-jacobian", "--wps", "1,1,12,28,42"])
    obj = json.loads(capsys.readouterr().out)
    assert code == 0
    assert obj["rank"] == obj["gamma"] == 189
    assert obj["l_delta"] == 680
    assert obj["quotient"] == obj["formula"] == 491
    assert obj["agrees"] is True and obj["generic"] is True
    assert obj["attempts"] == 1


# the jacobian-rank benchmark's weight systems, then P(1,1,12,28,42)
RANK_WEIGHTS = [
    (1, 1, 2, 2, 2),
    (1, 1, 1, 1, 1),
    (1, 1, 2, 8, 12),
    (1, 1, 3, 10, 15),
    (1, 1, 1, 6, 9),
    (1, 1, 6, 16, 24),
    (1, 1, 12, 28, 42),
]
# a product of unimodular shears and a permutation: the fan side has
# entries near 10**6, and delta's points entries near 10**12
BIG_SHEAR = [[10**6, 0, 1, 0], [1, 0, 0, 0], [10**6, 1, 0, 0], [0, 0, 999_983, 1]]
OCTAHEDRON = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
REFERENCE_INPUTS = {
    **{",".join(map(str, w)): wps_polytope(w).vertices for w in RANK_WEIGHTS},
    "gl-p11169": [_apply(BIG_SHEAR, v) for v in P11169],
    "cube4": CUBE4,
    "cross4": CROSS4,
    "p1^6": wps_polytope((1,) * 6).vertices,
    "octahedron": OCTAHEDRON,
}


@pytest.mark.parametrize("side", ["fan", "dual"])
@pytest.mark.parametrize("name", list(REFERENCE_INPUTS))
def test_assemble_matrix_matches_the_tuple_reference(name, side, monkeypatch):
    # every matrix the oracle builds, also at n = 3 under force and on the
    # swapped side, whose delta has negative coordinates
    pair = make_pair(REFERENCE_INPUTS[name])
    if side == "dual":
        pair = pair.swapped()
    built = []
    real = jacobian.assemble_matrix

    def checked(pair, coeffs, rays, pairs):
        rows = real(pair, coeffs, rays, pairs)
        built.append(rows == reference_matrix(pair, coeffs, rays, pairs))
        return rows

    monkeypatch.setattr(jacobian, "assemble_matrix", checked)
    jacobian_rank_check(pair, seed=0, force=True)
    assert built and all(built)
    coeffs = draw_coefficients(pair, 1)
    assert real(pair, coeffs) == reference_matrix(pair, coeffs)
