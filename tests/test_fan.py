import random
from fractions import Fraction

import pytest

import oracles
from reflexorb import fan as fan_module
from reflexorb import jacobian, linalg, polytope
from reflexorb.cli import wps_polytope
from reflexorb.errors import AuditError, NotSimplicialError
from reflexorb.fan import BoxElement, Cone, Fan, interior_boxes, normal_fan, toric_twisted_sectors
from reflexorb.hodge import mirror_check
from reflexorb.polytope import LatticePolytope, ReflexivePair

from boxes import box_elements, is_interior, quotient_group_order, smith_rank
from pairing import dual_face, face_with_vertex_ids
from test_polytope import CROSS4, CROSS6, CUBE4, P11169, SIMPLEX_POLAR


def fan_from_generator_sets(n, generator_sets):
    """Fan of the given maximal simplicial cones, closed under subsets."""
    seen = {(): Cone(())}
    for gens in generator_sets:
        gens = tuple(tuple(g) for g in gens)
        assert smith_rank(gens) == len(gens)
        for mask in range(1, 2 ** len(gens)):
            sub = tuple(sorted(g for i, g in enumerate(gens) if mask >> i & 1))
            seen.setdefault(sub, Cone(sub))
    return Fan(n, seen.values())


def cones_of_dim(fan, dim):
    return tuple(c for c in fan.cones if c.dim == dim)


def is_gorenstein(fan):
    """True when every box element of every cone has integral age."""
    return all(e.age.denominator == 1 for c in fan.cones for e in box_elements(c))


def fraction_box_elements(cone):
    """Reference box enumeration: the Fraction odometer box_elements used
    before the integer walk. Returns (coefficients, point) pairs sorted by
    point, for a simplicial cone."""
    gens = cone.generators
    if not gens:
        return (((), ()),)
    divisors, u = cone._smith
    d, n = len(gens), len(gens[0])
    stack = [()]
    for di in divisors:
        stack = [t + (k,) for t in stack for k in range(di)]
    out = []
    for t in stack:
        b = [Fraction(t[i], divisors[i]) for i in range(d)]
        coeffs = tuple(sum(b[i] * u[i][j] for i in range(d)) % 1 for j in range(d))
        point = [sum(coeffs[i] * gens[i][j] for i in range(d)) for j in range(n)]
        assert all(x.denominator == 1 for x in point)
        out.append((coeffs, tuple(int(x) for x in point)))
    out.sort(key=lambda e: e[1])
    return tuple(out)


def interior_pairs(pairs):
    return tuple(p for p in pairs if all(0 < a < 1 for a in p[0]))


def assert_box_matches_reference(cone, boxes=None):
    """box_elements, both in full and interior only, against the reference;
    with boxes, from interior_boxes on a fan of the cone, also the cone's
    interior elements and group order read from its maximal cone's walk."""
    full = fraction_box_elements(cone)
    assert tuple((e.coefficients, e.point) for e in box_elements(cone)) == full
    interior = box_elements(cone, interior_only=True)
    assert tuple((e.coefficients, e.point) for e in interior) == interior_pairs(full)
    if boxes is not None:
        walked, order = boxes[cone]
        assert tuple((e.coefficients, e.point) for e in walked) == interior_pairs(full)
        assert order == len(full)
    return len(full)


# the weight systems of the benchmark's jacobian-rank and basis-shear workloads
REFERENCE_WEIGHTS = (
    (1, 1, 2, 2, 2),
    (1, 1, 1, 1, 1),
    (1, 1, 2, 8, 12),
    (1, 1, 3, 10, 15),
    (1, 1, 1, 6, 9),
    (1, 1, 6, 16, 24),
    (1, 2, 2, 3, 4),
)


@pytest.fixture(scope="module")
def simplex_fan():
    pair = ReflexivePair(LatticePolytope.from_vertices(SIMPLEX_POLAR))
    return pair, normal_fan(pair)


@pytest.fixture(scope="module")
def cross_fan():
    pair = ReflexivePair(LatticePolytope.from_vertices(CROSS4))
    return pair, normal_fan(pair)


def random_simplicial_cone(rng, dim, bound):
    while True:
        gens = [
            tuple(rng.randint(-bound, bound) for _ in range(dim))
            for _ in range(dim)
        ]
        det = oracles.det_perm([list(g) for g in gens])
        if det == 0 or abs(det) > 60:
            continue
        prim = []
        from math import gcd

        ok = True
        for g in gens:
            d = 0
            for x in g:
                d = gcd(d, x)
            if d == 0:
                ok = False
                break
            prim.append(tuple(x // d for x in g))
        if not ok:
            continue
        if smith_rank(prim) == dim:
            return Cone(tuple(sorted(prim)))


def test_normal_fan_shape(simplex_fan):
    pair, fan = simplex_fan
    assert {g for c in fan.cones for g in c.generators} == set(SIMPLEX_POLAR)
    assert len(cones_of_dim(fan, 4)) == 5
    assert len(fan.cones) == 1 + 5 + 10 + 10 + 5  # zero cone plus proper faces
    assert fan.is_simplicial()


def test_cross_fan_shape(cross_fan):
    pair, fan = cross_fan
    assert len({g for c in fan.cones for g in c.generators}) == 8
    assert len(cones_of_dim(fan, 4)) == 16
    assert fan.is_simplicial()
    # smooth fan: every cone is unimodular
    assert all(quotient_group_order(c) == 1 for c in fan.cones)


def test_cube_fan_not_simplicial():
    pair = ReflexivePair(LatticePolytope.from_vertices(CUBE4))
    fan = normal_fan(pair)
    assert not fan.is_simplicial()
    with pytest.raises(NotSimplicialError):
        toric_twisted_sectors(fan)
    facet_cone = next(c for c in fan.cones if len(c.generators) == 8)
    with pytest.raises(NotSimplicialError):
        box_elements(facet_cone)


def test_quotient_group_orders():
    assert quotient_group_order(Cone(((1, 0), (0, 1)))) == 1
    assert quotient_group_order(Cone(((1, 0), (1, 2)))) == 2
    assert quotient_group_order(Cone(((1, 0), (2, 5)))) == 5
    edge = Cone(((-1, -2, -2, -2), (1, 0, 0, 0)))
    assert quotient_group_order(edge) == 2


def test_box_elements_fixed_two_dim():
    cone = Cone(((1, 0), (1, 2)))
    elems = box_elements(cone)
    assert [(e.point, e.coefficients) for e in elems] == [
        ((0, 0), (Fraction(0), Fraction(0))),
        ((1, 1), (Fraction(1, 2), Fraction(1, 2))),
    ]
    interior = box_elements(cone, interior_only=True)
    assert [e.point for e in interior] == [(1, 1)]
    assert interior[0].age == 1


def test_box_elements_edge_cone():
    edge = Cone(((-1, -2, -2, -2), (1, 0, 0, 0)))
    interior = box_elements(edge, interior_only=True)
    assert len(interior) == 1
    elem = interior[0]
    assert elem.point == (0, -1, -1, -1)
    assert elem.coefficients == (Fraction(1, 2), Fraction(1, 2))
    assert elem.age == 1


def test_ray_cones_have_empty_interior_box():
    for gen in [(1,), (2, 3), (-1, -2, -2, -2), (0, 0, 1, 0)]:
        cone = Cone((gen,))
        assert box_elements(cone, interior_only=True) == ()


def test_box_matches_parallelepiped_scan():
    rng = random.Random(616)
    for _ in range(20):
        dim = rng.choice([2, 2, 3])
        cone = random_simplicial_cone(rng, dim, 4)
        mine = {(e.point, e.coefficients) for e in box_elements(cone)}
        scan = {
            (pt, tuple(cs)) for pt, cs in oracles.box_points_scan(list(cone.generators))
        }
        assert mine == scan
        assert len(mine) == quotient_group_order(cone)
        assert_box_matches_reference(cone)


def test_box_age_pairing():
    rng = random.Random(99)
    cones = [random_simplicial_cone(rng, rng.choice([2, 3]), 4) for _ in range(10)]
    cones.append(Cone(((-1, -2, -2, -2), (1, 0, 0, 0))))
    for cone in cones:
        interior = box_elements(cone, interior_only=True)
        pts = {e.point: e for e in interior}
        for e in interior:
            partner_coeffs = tuple(1 - a for a in e.coefficients)
            partner_point = tuple(
                int(sum(partner_coeffs[i] * cone.generators[i][j] for i in range(len(cone.generators))))
                for j in range(len(e.point))
            )
            assert partner_point in pts
            assert e.age + pts[partner_point].age == cone.dim


def test_box_partitions_over_faces():
    rng = random.Random(31)
    for _ in range(8):
        dim = rng.choice([2, 3])
        cone = random_simplicial_cone(rng, dim, 3)
        gens = cone.generators
        full = {e.point for e in box_elements(cone)}
        pieces = []
        for mask in range(2 ** len(gens)):
            sub = tuple(gens[i] for i in range(len(gens)) if mask >> i & 1)
            if not sub:
                pieces.append({(0,) * dim})
                continue
            pieces.append(
                {e.point for e in box_elements(Cone(sub), interior_only=True)}
            )
        union = set()
        total = 0
        for piece in pieces:
            union |= piece
            total += len(piece)
        assert union == full
        assert total == len(full)  # disjoint


def test_gorenstein_reflexive_fans(simplex_fan, cross_fan):
    assert is_gorenstein(simplex_fan[1])
    assert is_gorenstein(cross_fan[1])


def test_gorenstein_witness_fails():
    fan = fan_from_generator_sets(2, [[(1, 0), (2, 5)]])
    assert not is_gorenstein(fan)
    ages = sorted(e.age for e in box_elements(Cone(((1, 0), (2, 5)))))
    # frozen from the parallelepiped scan oracle
    assert ages == [0, Fraction(3, 5), Fraction(4, 5), Fraction(6, 5), Fraction(7, 5)]


def test_simplex_toric_sectors(simplex_fan):
    pair, fan = simplex_fan
    sectors = toric_twisted_sectors(fan)
    assert len(sectors) == 1
    s = sectors[0]
    assert s.element.point == (0, -1, -1, -1)
    assert s.element.coefficients == (Fraction(1, 2), Fraction(1, 2))
    assert s.age == 1
    assert s.support_dim == 2
    assert s.group_order == 2
    assert set(s.cone.generators) == {(-1, -2, -2, -2), (1, 0, 0, 0)}


def test_smooth_fan_has_no_sectors(cross_fan):
    assert toric_twisted_sectors(cross_fan[1]) == ()


def test_sector_pairing_with_dual_face(simplex_fan):
    pair, fan = simplex_fan
    for sector in toric_twisted_sectors(fan):
        face = face_with_vertex_ids(pair.delta_polar, sector.cone.face_ids)
        dual = dual_face(pair, face)
        for w in dual.vertices():
            val = sum(a * b for a, b in zip(w, sector.element.point))
            assert val == -sector.age


def test_sector_determinism(simplex_fan, monkeypatch):
    pair, fan = simplex_fan
    first = toric_twisted_sectors(fan)
    second = toric_twisted_sectors(fan)
    assert first == second
    monkeypatch.setenv("REFLEXORB_THREADS", "3")
    third = toric_twisted_sectors(fan)
    assert first == third
    monkeypatch.setenv("REFLEXORB_THREADS", "1")
    fourth = toric_twisted_sectors(fan)
    assert first == fourth


@pytest.mark.parametrize(
    "verts,smith_forms",
    [(SIMPLEX_POLAR, None), (CROSS4, None), (CROSS6, 64)],
    ids=["simplex", "cross4", "cross6"],
)
def test_one_smith_form_per_cone(verts, smith_forms, monkeypatch):
    # one per maximal cone: every face reads its box from a maximal cone's
    fan = normal_fan(ReflexivePair(LatticePolytope.from_vertices(verts)))
    calls = []
    snf = fan_module.smith_normal_form

    def counting_snf(m):
        calls.append(tuple(map(tuple, m)))
        return snf(m)

    def no_rank(m):
        raise AssertionError("cones must not compute a rank")

    monkeypatch.setattr(fan_module, "smith_normal_form", counting_snf)
    for module in (fan_module, jacobian, linalg, polytope):
        monkeypatch.setattr(module, "rational_rank", no_rank, raising=False)
    sectors = toric_twisted_sectors(fan)
    assert len(calls) <= len(cones_of_dim(fan, fan.n))
    if smith_forms is not None:
        assert len(calls) == smith_forms
    assert len(set(calls)) == len(calls)  # no cone's matrix factored twice
    assert toric_twisted_sectors(fan) == sectors
    assert len(set(calls)) == len(calls)  # the second pass reads the caches


@pytest.mark.parametrize(
    "weights,side",
    [(w, side) for w in REFERENCE_WEIGHTS for side in ("fan", "dual")] + [((1,) * 6, "dual")],
    ids=lambda x: ",".join(map(str, x)) if isinstance(x, tuple) else x,
)
def test_box_walk_matches_fraction_odometer(weights, side):
    poly = wps_polytope(list(weights))
    pair = ReflexivePair.from_delta(poly) if side == "dual" else ReflexivePair(poly)
    fan = normal_fan(pair)
    boxes = None
    if fan.is_simplicial():
        boxes = interior_boxes(fan)
        assert list(boxes) == [c for c in fan.cones if c.generators]
    else:
        with pytest.raises(NotSimplicialError):
            interior_boxes(fan)
    checked = 0
    for cone in fan.cones:
        if not cone.is_simplicial():
            with pytest.raises(NotSimplicialError):
                box_elements(cone)
            continue
        checked += assert_box_matches_reference(cone, boxes if cone.generators else None)
    assert checked > 0


def random_shared_fan(rng, dim, bound, count):
    """Fan of count random simplicial cones, each after the first sharing all
    but one generator with an earlier one. The cones may overlap; every box
    identity still holds cone by cone."""
    sets = [random_simplicial_cone(rng, dim, bound).generators]
    while len(sets) < count:
        gens = list(rng.choice(sets))
        gens[rng.randrange(dim)] = random_simplicial_cone(rng, dim, bound).generators[0]
        if smith_rank(gens) == dim and len(oracles.box_points_scan(gens)) <= 60:
            sets.append(tuple(gens))
    return fan_from_generator_sets(dim, sets)


def test_interior_boxes_match_fraction_odometer_on_random_fans():
    rng = random.Random(2718)
    for _ in range(12):
        dim = rng.choice([2, 3, 3])
        fan = random_shared_fan(rng, dim, 3, rng.randint(1, 4))
        boxes = interior_boxes(fan)
        assert list(boxes) == [c for c in fan.cones if c.generators]
        for cone in boxes:
            assert_box_matches_reference(cone, boxes)


def test_non_primitive_ray_raises():
    fan = fan_from_generator_sets(2, [[(2, 0), (0, 1)]])
    with pytest.raises(AuditError, match="primitive ray"):
        toric_twisted_sectors(fan)


def test_dependent_generators_without_a_face_raise():
    fan = Fan(2, [Cone(()), Cone(((1, 0),)), Cone(((2, 0),)), Cone(((1, 0), (2, 0)))])
    assert fan.is_simplicial()  # one dimension per generator until the Smith form is read
    with pytest.raises(NotSimplicialError):
        interior_boxes(fan)


def test_box_element_numerators():
    cone = Cone(((1, 0), (2, 5)))
    elems = box_elements(cone)
    assert {e.denominator for e in elems} == {5}
    for e in elems:
        assert e.coefficients == tuple(Fraction(c, 5) for c in e.numerators)
        assert e.age == Fraction(sum(e.numerators), 5)
        assert is_interior(e) == all(0 < c < 1 for c in e.coefficients)
    assert box_elements(Cone(())) == (BoxElement((), 1, ()),)


def test_face_dim_disagreeing_with_smith_form_raises():
    # two dependent generators claimed to sit over an edge
    cone = Cone(((1, 0), (2, 0)), face_dim=1)
    assert cone.is_simplicial()  # read from the face, no Smith form
    with pytest.raises(AuditError, match="rank 1, not 2"):
        box_elements(cone)
    with pytest.raises(AuditError):
        quotient_group_order(cone)
    fan = Fan(2, [Cone(()), Cone(((1, 0),), face_dim=0), Cone(((2, 0),), face_dim=0), cone])
    with pytest.raises(AuditError, match="rank 1, not 2"):
        interior_boxes(fan)


def count_smith_forms(monkeypatch):
    calls = []
    real = linalg.smith_normal_form

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(linalg, "smith_normal_form", counting)
    monkeypatch.setattr(fan_module, "smith_normal_form", counting)
    return calls


@pytest.mark.parametrize(
    "verts,dual,simplicial,both",
    [
        (P11169, False, True, True),
        (P11169, True, True, True),
        (CROSS6, False, True, False),
        (CROSS6, True, False, False),
    ],
    ids=["p11169-fan", "p11169-dual", "cross6-fan", "cross6-dual"],
)
def test_simpliciality_runs_no_smith_form(verts, dual, simplicial, both, monkeypatch):
    poly = LatticePolytope.from_vertices(verts)
    pair = ReflexivePair.from_delta(poly) if dual else ReflexivePair(poly)
    calls = count_smith_forms(monkeypatch)
    assert normal_fan(pair).is_simplicial() == simplicial
    assert mirror_check(pair).hypothesis_met == both
    assert calls == []
