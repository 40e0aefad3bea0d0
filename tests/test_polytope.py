import random
from itertools import product

import pytest

import oracles
from pairing import dual_face, dual_face_of_delta, face_with_vertex_ids
from reflexorb.errors import (
    AuditError,
    NotFullDimensionalError,
    NotReflexiveError,
    VertexFileError,
)
from reflexorb import polytope
from reflexorb.hodge import hodge_report, mirror_check
from reflexorb.polytope import (
    FacetInequality,
    LatticePolytope,
    ReflexivePair,
    _audit_inverse,
    _reduced_basis,
    format_vertex_matrix,
    parse_vertex_matrix,
)

SIMPLEX_POLAR = [
    (-1, -2, -2, -2),
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
]
SIMPLEX_DELTA = [
    (-1, -1, -1, -1),
    (7, -1, -1, -1),
    (-1, 3, -1, -1),
    (-1, -1, 3, -1),
    (-1, -1, -1, 3),
]
CUBE4 = [p for p in product((-1, 1), repeat=4)]
CROSS4 = [tuple(s if i == j else 0 for j in range(4)) for i in range(4) for s in (1, -1)]
CROSS6 = [tuple(s if i == j else 0 for j in range(6)) for i in range(6) for s in (1, -1)]
# fan-side vertices of P(1,1,1,6,9), as `reflexorb wps 1 1 1 6 9` writes them
P11169 = [(-1, -1, -6, -9), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)]


@pytest.fixture(scope="module")
def simplex_pair():
    return ReflexivePair(LatticePolytope.from_vertices(SIMPLEX_POLAR))


@pytest.fixture(scope="module")
def cube_pair():
    # cross-polytope on the fan side, cube on the monomial side
    return ReflexivePair(LatticePolytope.from_vertices(CROSS4))


def test_square_hull():
    p = LatticePolytope.from_vertices([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    assert len(p.vertices) == 4
    assert len(p.facets) == 4
    assert p.is_reflexive()


def test_hull_drops_duplicates_and_inner_points():
    p = LatticePolytope.from_vertices(
        [(-1, -1), (1, -1), (1, 1), (-1, 1), (0, 0), (1, 1), (1, 0)]
    )
    assert p.vertices == ((-1, -1), (-1, 1), (1, -1), (1, 1))


def test_degenerate_input_rejected():
    with pytest.raises(NotFullDimensionalError):
        LatticePolytope.from_vertices([(0, 0), (1, 1), (2, 2)])
    with pytest.raises(NotFullDimensionalError):
        LatticePolytope.from_vertices([(1, 2)])


def test_simplex_polar_hull():
    p = LatticePolytope.from_vertices(SIMPLEX_POLAR)
    assert len(p.vertices) == 5
    assert len(p.facets) == 5
    assert p.is_reflexive()


def test_reflexivity_negative_cases():
    assert not LatticePolytope.from_vertices([(2, 0), (0, 2), (-2, -2)]).is_reflexive()
    # origin not interior
    assert not LatticePolytope.from_vertices([(1, 0), (3, 0), (1, 2)]).is_reflexive()


def test_polar_dual_matches_known_vertices():
    p = LatticePolytope.from_vertices(SIMPLEX_POLAR)
    d = p.polar_dual()
    assert set(d.vertices) == set(SIMPLEX_DELTA)


def test_polar_dual_requires_reflexive():
    with pytest.raises(NotReflexiveError):
        LatticePolytope.from_vertices([(2, 0), (0, 2), (-2, -2)]).polar_dual()


def test_cube_cross_duality():
    cube = LatticePolytope.from_vertices(CUBE4)
    assert set(cube.polar_dual().vertices) == set(CROSS4)
    cross = LatticePolytope.from_vertices(CROSS4)
    assert set(cross.polar_dual().vertices) == set(CUBE4)


def test_dual_is_involution():
    for verts in [SIMPLEX_POLAR, SIMPLEX_DELTA, CUBE4, CROSS4]:
        p = LatticePolytope.from_vertices(verts)
        assert p.polar_dual().polar_dual() == p


def test_lattice_point_counts():
    assert len(LatticePolytope.from_vertices(SIMPLEX_POLAR).lattice_points()) == 7
    assert len(LatticePolytope.from_vertices(SIMPLEX_DELTA).lattice_points()) == 105
    assert len(LatticePolytope.from_vertices(CUBE4).lattice_points()) == 81
    assert len(LatticePolytope.from_vertices(CROSS4).lattice_points()) == 9


def test_lattice_points_lex_order_and_membership():
    p = LatticePolytope.from_vertices(SIMPLEX_POLAR)
    pts = p.lattice_points()
    assert list(pts) == sorted(pts)
    assert (0, -1, -1, -1) in pts
    assert p.interior_lattice_points() == ((0, 0, 0, 0),)


def test_dilate_counts():
    sq = LatticePolytope.from_vertices([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    assert len(sq.lattice_points()) == 9
    assert len(sq.lattice_points(2)) == 25
    assert len(sq.lattice_points(3)) == 49


def test_points_agree_with_caratheodory_scan():
    rng = random.Random(2024)
    built = 0
    while built < 8:
        dim = rng.choice([2, 3])
        pts = [
            tuple(rng.randint(-3, 3) for _ in range(dim))
            for _ in range(rng.randint(dim + 1, dim + 4))
        ]
        try:
            p = LatticePolytope.from_vertices(pts)
        except NotFullDimensionalError:
            continue
        mine = set(p.lattice_points())
        oracle = set(oracles.hull_lattice_points(list(p.vertices)))
        assert mine == oracle
        built += 1


def test_face_counts_of_simplex():
    p = LatticePolytope.from_vertices(SIMPLEX_POLAR)
    faces = p.faces()
    assert [len(faces[d]) for d in range(5)] == [5, 10, 10, 5, 1]


def test_face_counts_of_cube():
    cube = LatticePolytope.from_vertices(CUBE4)
    faces = cube.faces()
    assert [len(faces[d]) for d in range(5)] == [16, 32, 24, 8, 1]
    cross = LatticePolytope.from_vertices(CROSS4)
    faces = cross.faces()
    assert [len(faces[d]) for d in range(5)] == [8, 24, 32, 16, 1]


def test_face_interior_points_on_simplex_polar(simplex_pair):
    polar = simplex_pair.delta_polar
    v1 = polar.vertices.index((-1, -2, -2, -2))
    v2 = polar.vertices.index((1, 0, 0, 0))
    edge = face_with_vertex_ids(polar, (v1, v2))
    assert edge.dim == 1
    assert edge.interior_lattice_points() == ((0, -1, -1, -1),)
    # no other proper face of the polar simplex has interior points
    total = sum(
        len(f.interior_lattice_points()) for f in polar.proper_faces()
    )
    assert total == 1 + 5  # the edge point plus one point per vertex


def test_dual_face_pairing_dims(simplex_pair):
    pair = simplex_pair
    for face in pair.delta_polar.proper_faces():
        dual = dual_face(pair, face)
        assert face.dim + dual.dim == pair.n - 1
        # and the pairing closes
        assert dual_face_of_delta(pair, dual) == face


def test_dual_face_of_edge_has_genus_count(simplex_pair):
    pair = simplex_pair
    polar = pair.delta_polar
    v1 = polar.vertices.index((-1, -2, -2, -2))
    v2 = polar.vertices.index((1, 0, 0, 0))
    edge = face_with_vertex_ids(polar, (v1, v2))
    dual = dual_face(pair, edge)
    assert dual.dim == 2
    assert len(dual.interior_lattice_points()) == 3


def test_cube_pair_face_duality(cube_pair):
    pair = cube_pair
    # vertices of the cross pair with facets of the cube
    for face in pair.delta_polar.faces(0):
        dual = dual_face(pair, face)
        assert dual.dim == 3
        assert len(dual.interior_lattice_points()) == 1  # facet centers


def test_facet_interior_sums():
    delta = LatticePolytope.from_vertices(SIMPLEX_DELTA)
    sums = sorted(
        len(f.interior_lattice_points()) for f in delta.faces(3)
    )
    assert sums == [1, 1, 5, 5, 5]  # frozen from the weighted-monomial oracle
    cube = LatticePolytope.from_vertices(CUBE4)
    assert [len(f.interior_lattice_points()) for f in cube.faces(3)] == [1] * 8


def test_point_face_partition():
    # every lattice point of a reflexive polytope lies in the relative
    # interior of exactly one face (counting the whole polytope)
    for verts in [SIMPLEX_POLAR, SIMPLEX_DELTA, CUBE4, CROSS4]:
        p = LatticePolytope.from_vertices(verts)
        total = len(p.interior_lattice_points())
        for f in p.proper_faces():
            total += len(f.interior_lattice_points())
        assert total == len(p.lattice_points())


def test_reflexive_vertices_are_primitive():
    from math import gcd

    for verts in [SIMPLEX_POLAR, SIMPLEX_DELTA, CUBE4, CROSS4]:
        p = LatticePolytope.from_vertices(verts)
        if not p.is_reflexive():
            continue
        for v in p.vertices:
            g = 0
            for x in v:
                g = gcd(g, x)
            assert g == 1


def test_facet_normals_primitive_and_offsets():
    from math import gcd

    p = LatticePolytope.from_vertices(SIMPLEX_DELTA)
    for f in p.facets:
        g = 0
        for x in f.normal:
            g = gcd(g, x)
        assert g == 1
        assert f.offset == 1
    assert set(f.normal for f in p.facets) == set(SIMPLEX_POLAR)


def test_vertex_matrix_roundtrip():
    text = format_vertex_matrix(SIMPLEX_POLAR)
    assert parse_vertex_matrix(text) == [tuple(v) for v in SIMPLEX_POLAR]


def test_vertex_matrix_comments_and_blanks():
    text = "# polar simplex\n2 2  # header\n\n1 0\n# interlude\n0 1\n"
    assert parse_vertex_matrix(text) == [(1, 0), (0, 1)]


def test_vertex_matrix_errors_carry_line_numbers():
    with pytest.raises(VertexFileError) as exc:
        parse_vertex_matrix("2 2\n1 0\n0 1 7\n")
    assert exc.value.line == 3
    with pytest.raises(VertexFileError) as exc:
        parse_vertex_matrix("2 2\n1 0\n")
    assert exc.value.line == 2
    with pytest.raises(VertexFileError) as exc:
        parse_vertex_matrix("2 2\n1 0\n0 1\n5 5\n")
    assert exc.value.line == 4
    with pytest.raises(VertexFileError) as exc:
        parse_vertex_matrix("x y\n")
    assert exc.value.line == 1
    with pytest.raises(VertexFileError) as exc:
        parse_vertex_matrix("2 2\n1 a\n0 1\n")
    assert exc.value.line == 2


def test_pair_role_swap(simplex_pair):
    sw = simplex_pair.swapped()
    assert sw.delta_polar is simplex_pair.delta
    assert sw.delta is simplex_pair.delta_polar
    assert sw.swapped().delta_polar is simplex_pair.delta_polar


# -- polar duality and the face pairing from facet data -------------------------

OCTAHEDRON = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
CUBE3 = [p for p in product((-1, 1), repeat=3)]
PAIR_INPUTS = {
    "simplex": SIMPLEX_POLAR,
    "cross4": CROSS4,
    "cube4": CUBE4,
    "p11169": P11169,
    "cross6": CROSS6,
    "octahedron": OCTAHEDRON,
    "cube3": CUBE3,
    "p1^7": [*CROSS6[::2], (-1,) * 6],
    "p1,1,12,28,42": [*CROSS4[::2], (-1, -12, -28, -42)],
}


@pytest.fixture(scope="module", params=sorted(PAIR_INPUTS))
def any_pair(request):
    return ReflexivePair(LatticePolytope.from_vertices(PAIR_INPUTS[request.param]))


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _affine_rank(points):
    """Rank of the differences from the first point, by integer row
    reduction: each pivot row leaves the list and clears its column."""
    rows = [[a - b for a, b in zip(p, points[0])] for p in points[1:]]
    rank = 0
    for col in range(len(points[0])):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows = [[pivot[col] * a - r[col] * b for a, b in zip(r, pivot)] for r in rows]
        rank += 1
    return rank


def test_polar_dual_equals_the_hull_of_the_normals():
    for verts in (SIMPLEX_POLAR, SIMPLEX_DELTA, CROSS4, CUBE4, P11169, CROSS6):
        p = LatticePolytope.from_vertices(verts)
        dual = p.polar_dual()
        hull = LatticePolytope.from_vertices([f.normal for f in p.facets])
        assert (dual.vertices, dual.facets) == (hull.vertices, hull.facets)


def test_pairing_matches_a_vertex_scan_on_both_sides(any_pair):
    pair = any_pair
    sides = (
        (pair.delta_polar, pair.delta, dual_face),
        (pair.delta, pair.delta_polar, dual_face_of_delta),
    )
    for src, dst, dual_of in sides:
        for face in src.proper_faces():
            dual = dual_of(pair, face)
            scan = tuple(
                j
                for j, w in enumerate(dst.vertices)
                if all(_dot(w, v) == -1 for v in face.vertices())
            )
            assert dual.vertex_ids == scan
            assert face.dim == _affine_rank(face.vertices())
            assert face.dim + dual.dim == pair.n - 1
        (whole,) = src.faces(src.n)
        assert whole.dim == _affine_rank(whole.vertices()) == src.n


def test_pair_construction_mirror_and_swap_run_no_hull(monkeypatch):
    inputs = [LatticePolytope.from_vertices(v) for v in (SIMPLEX_POLAR, CROSS4, CUBE4, P11169)]
    calls = []
    real = polytope._convex_hull
    monkeypatch.setattr(polytope, "_convex_hull", lambda pts, n: calls.append(n) or real(pts, n))
    for poly in inputs:
        pair = ReflexivePair(poly)
        back = ReflexivePair.from_delta(pair.delta)
        mirror_check(pair)
        mirror_check(back.swapped())
    assert calls == []


def _without_facet(verts, normal):
    p = LatticePolytope.from_vertices(verts)
    kept = [f for f in p.facets if f.normal != normal]
    assert len(kept) == len(p.facets) - 1
    return LatticePolytope(p.vertices, kept)


def test_face_lattice_audit_rejects_tampered_facets():
    octahedron = _without_facet(OCTAHEDRON, (-1, -1, -1))
    # every remaining inequality holds and is tight on a face
    assert all(f.value(v) >= 0 for f in octahedron.facets for v in octahedron.vertices)
    with pytest.raises(AuditError, match="Eulerian"):
        octahedron.faces()
    with pytest.raises(AuditError):
        ReflexivePair(_without_facet(OCTAHEDRON, (-1, -1, -1)))
    with pytest.raises(AuditError):
        _without_facet(CUBE3, (0, 0, -1)).faces()
    cube = LatticePolytope.from_vertices(CUBE3)
    # x1 + x2 + x3 <= 2 cuts off the vertex (1, 1, 1) alone
    cut = LatticePolytope(cube.vertices, cube.facets + (FacetInequality((-1, -1, -1), 2),))
    with pytest.raises(AuditError, match="violates"):
        cut.faces()
    # the two vertical sides of a square bound a lattice that is Eulerian
    # but one dimension short
    square = LatticePolytope.from_vertices([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    sides = LatticePolytope(square.vertices, [f for f in square.facets if f.normal[1] == 0])
    with pytest.raises(AuditError, match="dimension 1, not 2"):
        sides.faces()
    # facets that all pass through one vertex
    corner = LatticePolytope(
        [(0, 0), (1, 0), (0, 1)], [FacetInequality((1, 0), 0), FacetInequality((0, 1), 0)]
    )
    with pytest.raises(AuditError, match="every facet"):
        corner.faces()


# -- enumeration in a reduced basis ---------------------------------------------


def _unimodular(rng, n, steps=8, size=3):
    """A random integer matrix of determinant +-1 as a product of
    elementary row operations, with a random row permutation."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-1, 1)) * rng.randint(1, size)
        m[i] = [a + q * b for a, b in zip(m[i], m[j])]
    rng.shuffle(m)
    return m


def _apply(m, p):
    return tuple(sum(a * b for a, b in zip(row, p)) for row in m)


def _low_dim_bases(n):
    cube = list(product((-1, 1), repeat=n))
    cross = [tuple(s if i == j else 0 for j in range(n)) for i in range(n) for s in (1, -1)]
    simplex = [tuple(-1 for _ in range(n))] + [
        tuple(int(i == j) for j in range(n)) for i in range(n)
    ]
    dual = list(LatticePolytope.from_vertices(simplex).polar_dual().vertices)
    return [cube, cross, simplex, dual]


def _facet_values(poly, p, k=1):
    return [sum(a * b for a, b in zip(p, f.normal)) + k * f.offset for f in poly.facets]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_points_invariant_under_unimodular_images(n):
    rng = random.Random(100 + n)
    bases = [SIMPLEX_POLAR, SIMPLEX_DELTA, CUBE4, CROSS4] if n == 4 else _low_dim_bases(n)
    for verts in bases:
        base = LatticePolytope.from_vertices(verts)
        for t in range(3):
            # one mild transform, which the Caratheodory scan below can afford
            m = _unimodular(rng, n, steps=3, size=1) if t == 0 else _unimodular(rng, n)
            image = LatticePolytope.from_vertices([_apply(m, v) for v in verts])
            for k in (1, 2, 3):
                pts = image.lattice_points(k)
                assert all(a < b for a, b in zip(pts, pts[1:]))
                assert set(pts) == {_apply(m, p) for p in base.lattice_points(k)}
            # the scan tries every (n+1)-subset of the vertices at each box
            # point: dilates in the plane, k = 1 in space, and not the 3-cube
            if t == 0 and n < 4 and len(verts) <= 2 * n:
                for k in (1, 2, 3) if n == 2 else (1,):
                    dilated = [tuple(k * x for x in v) for v in image.vertices]
                    assert set(image.lattice_points(k)) == set(
                        oracles.hull_lattice_points(dilated)
                    )


def test_dilate_points_match_a_facet_filter_of_the_box():
    for verts in [SIMPLEX_POLAR, SIMPLEX_DELTA, CUBE4, CROSS4]:
        p = LatticePolytope.from_vertices(verts)
        for k in (1, 2):
            box = product(
                *(range(k * min(c), k * max(c) + 1) for c in zip(*p.vertices))
            )
            inside = [q for q in box if min(_facet_values(p, q, k)) >= 0]
            assert p.lattice_points(k) == tuple(inside)
            interior = tuple(q for q in inside if min(_facet_values(p, q, k)) > 0)
            assert p.interior_lattice_points(k) == interior


def test_face_points_match_a_facet_incidence_filter():
    rng = random.Random(7)
    sheared = [_apply(_unimodular(rng, 4), v) for v in SIMPLEX_DELTA]
    for verts in [SIMPLEX_POLAR, SIMPLEX_DELTA, CUBE4, CROSS4, sheared]:
        p = LatticePolytope.from_vertices(verts)
        tight = {
            q: {i for i, v in enumerate(_facet_values(p, q)) if v == 0}
            for q in p.lattice_points()
        }
        faces = p.proper_faces() + list(p.faces(p.n))
        for f in faces:
            want = set(f.active_facets)
            assert f.lattice_points() == tuple(q for q in sorted(tight) if want <= tight[q])
            assert f.interior_lattice_points() == tuple(
                q for q in sorted(tight) if want == tight[q]
            )


def test_reduced_basis_is_unimodular_and_audited():
    rng = random.Random(3)
    verts = [_apply(_unimodular(rng, 4, steps=12, size=6), v) for v in SIMPLEX_DELTA]
    u, vt = _reduced_basis(verts, 4)
    product_rows = [[sum(a * b for a, b in zip(row, col)) for col in vt] for row in u]
    assert product_rows == [[int(i == j) for j in range(4)] for i in range(4)]
    with pytest.raises(AuditError):
        _audit_inverse([[1, 1], [0, 1]], [[1, 0], [0, 1]])
    with pytest.raises(AuditError):
        _audit_inverse([[2, 0], [0, 1]], [[1, 0], [0, 1]])


def test_sheared_golden_hodge_numbers():
    # the golden P(1,1,2,2,2) input under x0 += 6 x1, x1 += 6 x2, x2 += 6 x3
    def shear(v):
        x = list(v)
        x[0] += 6 * x[1]
        x[1] += 6 * x[2]
        x[2] += 6 * x[3]
        return tuple(x)

    def numbers(verts):
        rep = hodge_report(ReflexivePair(LatticePolytope.from_vertices(verts)))
        return (rep.h11_untwisted, rep.h11_orb, rep.hn21_untwisted, rep.hn21_orb)

    assert numbers([shear(v) for v in SIMPLEX_POLAR]) == numbers(SIMPLEX_POLAR) == (1, 2, 83, 86)


# -- the hull against a brute-force facet oracle ----------------------------------


def _random_points(rng, n):
    """At most n + 12 points of [-3, 3]^n: repeats, midpoints (inside the
    hull or on its boundary), often several points on one hyperplane, and
    now and then all of them."""
    pts = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, n + 8))]
    if rng.random() < 0.4:
        i, c = rng.randrange(n), rng.randint(-3, 3)
        for j in rng.sample(range(len(pts)), rng.randint(1, len(pts))):
            pts[j] = pts[j][:i] + (c,) + pts[j][i + 1 :]
    for _ in range(rng.randint(0, 4)):
        a, b = rng.choice(pts), rng.choice(pts)
        odd = any((x + y) % 2 for x, y in zip(a, b))
        pts.append(a if odd else tuple((x + y) // 2 for x, y in zip(a, b)))
    return pts


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hull_matches_brute_force_facets_and_vertices(n):
    rng = random.Random(300 + n)
    for _ in range(75):
        pts = _random_points(rng, n)
        diffs = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
        if not diffs or oracles.rank_by_minors(diffs) < n:
            with pytest.raises(NotFullDimensionalError):
                LatticePolytope.from_vertices(pts)
            continue
        poly = LatticePolytope.from_vertices(pts)
        facets = oracles.brute_facets(pts)
        assert [(f.normal, f.offset) for f in poly.facets] == facets
        # every point lies in the hull of the vertices, and each vertex is
        # cut out by the normals of the oracle's facets through it
        verts = poly.vertices
        assert verts == tuple(sorted(set(verts) & set(pts)))
        assert all(oracles.in_hull(verts, p) for p in set(pts) - set(verts))
        for v in verts:
            through = [list(a) for a, b in facets if _dot(a, v) == -b]
            assert oracles.rank_by_minors(through) == n


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_hull_of_unimodular_cube_and_cross_images(n):
    rng = random.Random(400 + n)
    units = [tuple(s * int(i == j) for j in range(n)) for i in range(n) for s in (1, -1)]
    cube = list(product((-1, 1), repeat=n))
    small = list(product((-1, 0, 1), repeat=n))
    shapes = [
        # vertices, other lattice points of the polytope, facets
        (cube, [p for p in small if 0 in p], sorted((u, 1) for u in units)),
        (units, [(0,) * n], sorted((s, 1) for s in cube)),
    ]
    for verts, inner, facets in shapes:
        for _ in range(3):
            m = _unimodular(rng, n)
            extra = rng.sample(inner, min(len(inner), 2 * n))
            image = LatticePolytope.from_vertices([_apply(m, p) for p in verts + extra])
            assert image.vertices == tuple(sorted(_apply(m, v) for v in verts))
            # <y, a> + b >= 0 on the image is <x, m^T a> + b >= 0 on the polytope
            pulled = [(_apply(list(zip(*m)), f.normal), f.offset) for f in image.facets]
            assert sorted(pulled) == facets
