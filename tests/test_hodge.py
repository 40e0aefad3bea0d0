import random
from fractions import Fraction

import pytest

from reflexorb.errors import HypothesisError, NotSimplicialError
from reflexorb.fan import BoxElement, normal_fan, toric_twisted_sectors
from reflexorb.hodge import (
    CySector,
    cy_twisted_sectors,
    h11_orb,
    h11_untwisted,
    hn21_orb,
    hn21_untwisted,
    hodge_report,
    mirror_check,
)
from reflexorb.jacobian import facet_interior_pairs
from reflexorb.polytope import LatticePolytope, ReflexivePair

from pairing import dual_face, dual_face_of_delta, face_with_vertex_ids
from test_polytope import CROSS4, CUBE4, P11169, PAIR_INPUTS, SIMPLEX_POLAR, _apply, _unimodular

QUINTIC_POLAR = [(-1, -1, -1, -1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
SEXTIC_POLAR = [(-1, -1, -1, -2), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
OCTIC_POLAR = [(-1, -1, -1, -4), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
FIVEDIM_POLAR = [
    (-1, -2, -2, -2, -2),
    (1, 0, 0, 0, 0),
    (0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1),
]


def make_pair(verts):
    return ReflexivePair(LatticePolytope.from_vertices(verts))


def sector_h_top(pair, sector):
    """Top Hodge number of a sector's support curve, found from the face ids
    alone: the interior count of the dual face when the polar face is an
    edge, 0 for higher dimensions. An independent reference for
    CySector.h_top."""
    if sector.face_dim != 1:
        return 0
    face = face_with_vertex_ids(pair.delta_polar, sector.face_ids)
    return len(dual_face(pair, face).interior_lattice_points())


@pytest.fixture(scope="module")
def simplex_pair():
    return make_pair(SIMPLEX_POLAR)


@pytest.fixture(scope="module")
def quintic_pair():
    return make_pair(QUINTIC_POLAR)


@pytest.fixture(scope="module")
def cross_pair():
    return make_pair(CROSS4)


@pytest.fixture(scope="module")
def fivedim_pair():
    return make_pair(FIVEDIM_POLAR)


def test_simplex_hodge_numbers(simplex_pair):
    rep = hodge_report(simplex_pair)
    assert rep.n == 4 and rep.r == 5
    assert rep.l_delta == 105 and rep.l_polar == 7
    assert rep.h11_untwisted == 1
    assert rep.h11_orb == 2
    assert rep.hn21_untwisted == 83
    assert rep.hn21_orb == 86
    assert rep.euler == 2 * (2 - 86) == -168
    assert not rep.forced


def test_simplex_sector_detail(simplex_pair):
    sectors = cy_twisted_sectors(simplex_pair)
    assert len(sectors) == 1
    s = sectors[0]
    assert s.face_dim == 1
    assert s.element.point == (0, -1, -1, -1)
    assert s.element.coefficients == (Fraction(1, 2), Fraction(1, 2))
    assert s.age == 1
    assert s.group_order == 2
    assert s.components == 1
    assert s.h_top == 3
    assert sector_h_top(simplex_pair, s) == 3


def test_simplex_diamond(simplex_pair):
    diamond = hodge_report(simplex_pair).diamond
    assert diamond == (
        (1,),
        (0, 0),
        (0, 2, 0),
        (1, 86, 86, 1),
        (0, 2, 0),
        (0, 0),
        (1,),
    )


def test_quintic_hodge(quintic_pair):
    rep = hodge_report(quintic_pair)
    assert rep.l_delta == 126 and rep.l_polar == 6
    assert rep.h11_orb == 1 and rep.h11_untwisted == 1
    assert rep.hn21_untwisted == 101 and rep.hn21_orb == 101
    assert rep.sectors == ()
    assert toric_twisted_sectors(normal_fan(quintic_pair)) == ()


def test_quintic_mirror(quintic_pair):
    rep = mirror_check(quintic_pair)
    assert rep.hypothesis_met
    assert rep.primary == (1, 101)
    assert rep.swapped == (101, 1)
    assert rep.match


def test_cross_pair_hodge(cross_pair):
    rep = hodge_report(cross_pair)
    assert rep.l_delta == 81 and rep.l_polar == 9
    assert rep.h11_untwisted == 4 and rep.h11_orb == 4
    assert rep.hn21_untwisted == 68 and rep.hn21_orb == 68
    assert rep.sectors == ()


def test_cross_mirror_hypothesis_unmet(cross_pair):
    rep = mirror_check(cross_pair)
    assert not rep.hypothesis_met
    assert "swapped" in rep.reason
    assert rep.primary is None and rep.swapped is None and rep.match is None


def test_cube_polar_not_simplicial():
    pair = make_pair(CUBE4)
    with pytest.raises(NotSimplicialError):
        cy_twisted_sectors(pair)
    rep = mirror_check(pair)
    assert not rep.hypothesis_met
    assert rep.primary is None


def test_sextic_model():
    pair = make_pair(SEXTIC_POLAR)
    rep = hodge_report(pair)
    assert rep.l_delta == 130
    assert (rep.h11_orb, rep.hn21_orb) == (1, 103)
    assert rep.sectors == ()
    # the quotient point sits on a maximal cone: twisted in the ambient
    # variety, but off the generic hypersurface
    toric = toric_twisted_sectors(normal_fan(pair))
    assert len(toric) == 1
    assert toric[0].support_dim == 0
    assert toric[0].age == 2
    assert toric[0].group_order == 2


def test_octic_model():
    pair = make_pair(OCTIC_POLAR)
    rep = hodge_report(pair)
    assert rep.l_delta == 201
    assert (rep.h11_orb, rep.hn21_orb) == (1, 149)
    assert rep.sectors == ()
    toric = toric_twisted_sectors(normal_fan(pair))
    assert sorted(s.age for s in toric) == [1, 2, 3]
    assert all(s.support_dim == 0 and s.group_order == 4 for s in toric)


def test_fivedim_model(fivedim_pair):
    rep = hodge_report(fivedim_pair)
    assert rep.n == 5
    assert rep.l_delta == 378
    assert rep.hn21_untwisted == 346
    assert rep.hn21_orb == 350
    assert rep.h11_untwisted == 1
    assert rep.h11_orb == 2
    assert rep.euler is None and rep.diamond is None
    assert len(rep.sectors) == 1
    s = rep.sectors[0]
    assert s.face_dim == 1 and s.age == 1
    assert s.h_top == 4
    assert sector_h_top(fivedim_pair, s) == 4


def test_low_dimension_guard():
    square = make_pair([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    with pytest.raises(HypothesisError):
        hodge_report(square)
    with pytest.raises(HypothesisError):
        h11_orb(square)
    rep = hodge_report(square, force=True)
    assert rep.forced
    assert rep.h11_untwisted == 2  # 4 rays minus dimension 2


def test_interior_count_identity():
    # l(polar) - rays - 1 equals the interior points summed over positive
    # dimensional proper faces
    for verts in [SIMPLEX_POLAR, QUINTIC_POLAR, SEXTIC_POLAR, OCTIC_POLAR, CROSS4, FIVEDIM_POLAR]:
        pair = make_pair(verts)
        polar = pair.delta_polar
        lhs = len(polar.lattice_points()) - len(polar.vertices) - 1
        rhs = sum(
            len(f.interior_lattice_points())
            for f in polar.proper_faces()
            if f.dim >= 1
        )
        assert lhs == rhs


def test_simplex_mirror(simplex_pair):
    rep = mirror_check(simplex_pair)
    assert rep.hypothesis_met
    assert rep.primary == (2, 86)
    assert rep.swapped == (86, 2)
    assert rep.match


def test_sector_h_top_zero_for_higher_dims(simplex_pair):
    dummy = CySector(
        face_ids=(0, 1, 2),
        face_dim=2,
        element=BoxElement((1, 1, 1), 2, (0, 0, 0, 0)),
        group_order=2,
        components=1,
        h_top=0,
    )
    assert sector_h_top(simplex_pair, dummy) == 0


def test_sector_ages_integral_everywhere():
    for verts in [SIMPLEX_POLAR, QUINTIC_POLAR, SEXTIC_POLAR, OCTIC_POLAR, FIVEDIM_POLAR]:
        pair = make_pair(verts)
        for s in cy_twisted_sectors(pair):
            assert s.age.denominator == 1
            assert s.age >= 1
        for s in toric_twisted_sectors(normal_fan(pair)):
            assert s.age.denominator == 1


def _gl4_image(verts, seed):
    m = _unimodular(random.Random(seed), 4)
    return [_apply(m, v) for v in verts]


MASK_SUM_INPUTS = {
    **PAIR_INPUTS,
    "quintic": QUINTIC_POLAR,
    "sextic": SEXTIC_POLAR,
    "octic": OCTIC_POLAR,
    "fivedim": FIVEDIM_POLAR,
    "gl-p11169": _gl4_image(P11169, 1),
    "gl-simplex": _gl4_image(SIMPLEX_POLAR, 2),
}


def face_lattice_sums(pair):
    """(h11_orb, hn21_untwisted, hn21_orb) as Batyrev's sums over the faces
    of both face lattices, each ridge paired with its dual edge."""
    n = pair.n

    def untwisted(p):
        facets = sum(len(f.interior_lattice_points()) for f in p.faces(n - 1))
        return len(p.lattice_points()) - n - 1 - facets

    def twisted(p, dual_of):
        return sum(
            len(f.interior_lattice_points()) * len(dual_of(pair, f).interior_lattice_points())
            for f in p.faces(n - 2)
        )

    h21 = untwisted(pair.delta)
    return (
        untwisted(pair.delta_polar) + twisted(pair.delta_polar, dual_face),
        h21,
        h21 + twisted(pair.delta, dual_face_of_delta),
    )


@pytest.mark.parametrize("side", ["fan", "dual"])
@pytest.mark.parametrize("name", sorted(MASK_SUM_INPUTS))
def test_mask_sums_match_the_face_lattice_sums(name, side):
    pair = make_pair(MASK_SUM_INPUTS[name])
    if side == "dual":
        pair = pair.swapped()
    polar = pair.delta_polar
    got = (
        h11_orb(pair, force=True),
        hn21_untwisted(pair, force=True),
        hn21_orb(pair, force=True),
    )
    assert got == face_lattice_sums(pair)
    want_pairs = tuple(
        (ray, point)
        for vertex in polar.faces(0)
        for ray in vertex.vertices()
        for point in dual_face(pair, vertex).interior_lattice_points()
    )
    assert facet_interior_pairs(pair) == want_pairs
    if not normal_fan(pair).is_simplicial():
        return
    for s in cy_twisted_sectors(pair, force=True):
        face = face_with_vertex_ids(polar, s.face_ids)
        dual = len(dual_face(pair, face).interior_lattice_points())
        assert s.components == (dual + 1 if s.face_dim == pair.n - 2 else 1)
        assert s.h_top == (dual if s.face_dim == 1 else 0)
