"""Twisted sectors and orbifold Hodge numbers of the generic anticanonical
hypersurface in a simplicial Gorenstein toric Fano variety.

Conventions: the pair's polar polytope drives the fan; its lattice points
count divisor classes, while lattice points of the dual polytope count
anticanonical monomials. Formulas assume ambient dimension n >= 4 (hypersurface
dimension >= 3); lower dimensions raise unless force is passed, which computes
the same expressions and flags the report.

Batyrev's face sums (alg-geom/9310003) are read from the point groups a
polytope keeps by facet mask, with no face lattice. A point on exactly one
facet is interior to it, and a point on exactly two facets i, j is interior
to the ridge they share, since a face of codimension k lies on at least k
facets (the diamond property). Vertex i of either polytope is the normal of
facet i of the other, so that ridge is dual to the edge between vertices i
and j of the other polytope, and the interior points of the face dual to a
polar face F are the dual polytope's group at the mask of F's vertex ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import sub

from .errors import AuditError, HypothesisError, NotSimplicialError
from .fan import BoxElement, interior_boxes, normal_fan
from .polytope import LatticePolytope, ReflexivePair


def _guard_dim(pair: ReflexivePair, force: bool):
    if pair.n < 4 and not force:
        raise HypothesisError(
            f"formulas assume ambient dimension >= 4, got {pair.n}; pass force to evaluate anyway"
        )


@dataclass(frozen=True)
class CySector:
    """A twisted sector of the hypersurface: a polar face of dimension
    1..n-2 together with an interior box element of the cone over it."""

    face_ids: tuple[int, ...]
    face_dim: int
    element: BoxElement
    group_order: int
    components: int
    h_top: int

    @property
    def age(self) -> Fraction:
        return self.element.age


def cy_twisted_sectors(pair: ReflexivePair, force: bool = False) -> tuple[CySector, ...]:
    """Sectors of the generic anticanonical hypersurface.

    One sector per (face of the polar polytope with 1 <= dim <= n-2, interior
    box element of the cone over it). A face of dimension n-2 meets the
    hypersurface in l*(dual face) + 1 components; that multiplicity is
    recorded, not expanded. Sectors of age >= 2 are enumerated too; only the
    age-1 ones enter the divisor count."""
    _guard_dim(pair, force)
    fan = normal_fan(pair)
    if not fan.is_simplicial():
        raise NotSimplicialError("twisted sectors require a simplicial normal fan")
    polar = pair.delta_polar
    dual_groups = pair.delta._incidence()
    boxes = {c.face_ids: box for c, box in interior_boxes(fan).items()}
    out = []
    for dim in range(1, pair.n - 1):
        for face in polar.faces(dim):
            interior, order = boxes[face.vertex_ids]
            if not interior:
                continue
            dual_mask = sum(1 << i for i in face.vertex_ids)
            dual_interior = len(dual_groups.get(dual_mask, ()))
            components = dual_interior + 1 if dim == pair.n - 2 else 1
            face_interior = set(face.interior_lattice_points())
            for elem in interior:
                age, rest = divmod(sum(elem.numerators), elem.denominator)
                if rest:
                    # reflexive fans are Gorenstein
                    raise AuditError(f"box element {elem.point} has a fractional age")
                if age < 1:
                    raise AuditError(f"interior box element {elem.point} has age {age} < 1")
                # age-1 elements sit precisely at interior lattice points
                if (age == 1) != (elem.point in face_interior):
                    raise AuditError(
                        f"box element {elem.point} of age {age} disagrees with the face interior"
                    )
                h_top = dual_interior if dim == 1 else 0
                out.append(
                    CySector(
                        face.vertex_ids, dim, elem, order, components, h_top
                    )
                )
    return tuple(out)


def _face_sum(p: LatticePolytope, q: LatticePolytope, twisted: bool) -> int:
    """l(p) - n - 1 minus the facet-interior points of p; when twisted, plus
    the interior points of each ridge of p times those of its dual edge of
    q, the polar of p."""
    total = len(p.lattice_points()) - p.n - 1
    for mask, points in p._incidence().items():
        facets = mask.bit_count()
        if facets == 1:
            total -= len(points)
        elif facets == 2 and twisted:
            i, j = (mask & -mask).bit_length() - 1, mask.bit_length() - 1
            total += len(points) * (gcd(*map(sub, q.vertices[i], q.vertices[j])) - 1)
    return total


def h11_untwisted(pair: ReflexivePair, force: bool = False) -> int:
    """Picard rank of the ambient variety restricted to the hypersurface:
    ray count minus ambient dimension."""
    _guard_dim(pair, force)
    return len(pair.delta_polar.vertices) - pair.n


def h11_orb(pair: ReflexivePair, force: bool = False) -> int:
    """Orbifold divisor-class count of the hypersurface."""
    _guard_dim(pair, force)
    return _face_sum(pair.delta_polar, pair.delta, True)


def hn21_untwisted(pair: ReflexivePair, force: bool = False) -> int:
    """Polynomial deformation count of the hypersurface."""
    _guard_dim(pair, force)
    return _face_sum(pair.delta, pair.delta_polar, False)


def hn21_orb(pair: ReflexivePair, force: bool = False) -> int:
    """Full complex-structure count, including twisted contributions."""
    _guard_dim(pair, force)
    return _face_sum(pair.delta, pair.delta_polar, True)


@dataclass(frozen=True)
class HodgeReport:
    n: int
    r: int
    l_delta: int
    l_polar: int
    h11_untwisted: int
    h11_orb: int
    hn21_untwisted: int
    hn21_orb: int
    sectors: tuple[CySector, ...]
    age1_components: int
    euler: int | None
    diamond: tuple[tuple[int, ...], ...] | None
    forced: bool


def hodge_report(pair: ReflexivePair, force: bool = False) -> HodgeReport:
    """All Hodge data for the pair, with the twisted/untwisted split checked
    against the sector enumeration."""
    _guard_dim(pair, force)
    sectors = cy_twisted_sectors(pair, force)
    h11u = h11_untwisted(pair, force)
    h11o = h11_orb(pair, force)
    h21u = hn21_untwisted(pair, force)
    h21o = hn21_orb(pair, force)
    age1 = sum(s.components for s in sectors if s.age == 1)
    genus_sum = sum(s.h_top for s in sectors if s.face_dim == 1 and s.age == 1)
    if pair.n >= 4:
        # the twisted/untwisted split identities hold under the dimension
        # hypothesis; forced low-dimension runs report raw formula values
        if h11o != h11u + age1:
            raise AuditError(f"divisor audit failed: h11_orb {h11o} != {h11u} + {age1}")
        if h21o != h21u + genus_sum:
            raise AuditError(f"deformation audit failed: h21_orb {h21o} != {h21u} + {genus_sum}")
    euler = None
    diamond = None
    if pair.n == 4:
        euler = 2 * (h11o - h21o)
        diamond = (
            (1,),
            (0, 0),
            (0, h11o, 0),
            (1, h21o, h21o, 1),
            (0, h11o, 0),
            (0, 0),
            (1,),
        )
    return HodgeReport(
        n=pair.n,
        r=len(pair.delta_polar.vertices),
        l_delta=len(pair.delta.lattice_points()),
        l_polar=len(pair.delta_polar.lattice_points()),
        h11_untwisted=h11u,
        h11_orb=h11o,
        hn21_untwisted=h21u,
        hn21_orb=h21o,
        sectors=sectors,
        age1_components=age1,
        euler=euler,
        diamond=diamond,
        forced=force and pair.n < 4,
    )


@dataclass(frozen=True)
class MirrorReport:
    hypothesis_met: bool
    reason: str | None
    primary: tuple[int, int] | None
    swapped: tuple[int, int] | None
    match: bool | None


def _simplicial(p: LatticePolytope) -> bool:
    """True when every facet of p holds exactly n vertices, so the fan over
    the faces of p is simplicial."""
    return all(sum(f.value(v) == 0 for v in p.vertices) == p.n for f in p.facets)


def mirror_check(pair: ReflexivePair, force: bool = False) -> MirrorReport:
    """Evaluate (h11_orb, hn21_orb) on the pair and on the role-swapped pair
    and test the expected exchange. Requires both normal fans simplicial."""
    _guard_dim(pair, force)
    if not _simplicial(pair.delta_polar):
        return MirrorReport(False, "normal fan is not simplicial", None, None, None)
    swapped_pair = pair.swapped()
    if not _simplicial(swapped_pair.delta_polar):
        return MirrorReport(
            False, "swapped normal fan is not simplicial", None, None, None
        )
    primary = (h11_orb(pair, force), hn21_orb(pair, force))
    swapped = (h11_orb(swapped_pair, force), hn21_orb(swapped_pair, force))
    match = primary == (swapped[1], swapped[0])
    return MirrorReport(True, None, primary, swapped, match)
