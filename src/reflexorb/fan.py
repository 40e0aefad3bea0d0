"""Rational simplicial cones, normal fans, and twisted sector data.

Box elements of a cone are the lattice points of the half-open parallelepiped
spanned by its primitive generators; they index the twisted sectors of the
associated toric orbifold. Enumeration goes through the Smith normal form of
the generator matrix, so the cost scales with the group order rather than
with any bounding box. It runs in integers: with D the largest invariant
factor, every coefficient of a box element is a multiple of 1/D, so each
element is a tuple of numerators mod D. Row i of the Smith row transform,
times D/d_i, generates a cyclic factor of order d_i, and the walk adds up
multiples of these rows mod D. An element is interior when no numerator is
0, its age is the numerator sum over D, and its point is an exact integer
division by D.

A cone over a face of the polar polytope knows its dimension from the face
lattice, so simpliciality (one generator per dimension) needs no Smith
form; one runs only when a cone's box elements or group order are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod
from operator import add, attrgetter, mul

from .errors import AuditError, NotSimplicialError
from .linalg import smith_normal_form
from .polytope import ReflexivePair, Vector


@dataclass(frozen=True)
class Cone:
    """Cone spanned by primitive generators. face_ids and face_dim tie a
    normal fan cone back to the vertex ids and dimension of the polar face
    it sits over."""

    generators: tuple[Vector, ...]
    face_ids: tuple[int, ...] | None = None
    face_dim: int | None = None

    @cached_property
    def _smith(self) -> tuple[tuple[int, ...], list[list[int]]]:
        """(nonzero invariant factors, row transform u) of the Smith normal
        form of the generator matrix, computed once per cone. The group
        order and the box elements read it, and so does the rank of a cone
        built without a face."""
        if not self.generators:
            return (), []
        d, u, _ = smith_normal_form([list(g) for g in self.generators])
        diagonal = (d[i][i] for i in range(min(len(d), len(d[0]))))
        factors = tuple(x for x in diagonal if x)
        if any(x < 0 for x in factors):
            raise AuditError(f"Smith form has a negative invariant factor: {factors}")
        if self.face_dim is not None and len(factors) != self.face_dim + 1:
            raise AuditError(
                f"cone over a {self.face_dim}-face has rank {len(factors)}, not {self.face_dim + 1}"
            )
        return factors, u

    @property
    def dim(self) -> int:
        if self.face_dim is not None:
            return self.face_dim + 1
        return len(self._smith[0])

    def is_simplicial(self) -> bool:
        return self.dim == len(self.generators)

    def sort_key(self):
        return (len(self.generators), self.generators)


@dataclass(frozen=True)
class BoxElement:
    """A lattice point of the half-open generator parallelepiped, with its
    coefficients as integer numerators over a common denominator:
    point = sum numerators[i] / denominator * generators[i]."""

    numerators: tuple[int, ...]
    denominator: int
    point: Vector

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.denominator) for c in self.numerators)

    @property
    def age(self) -> Fraction:
        return Fraction(sum(self.numerators), self.denominator)

    def is_interior(self) -> bool:
        return all(self.numerators)


@dataclass(frozen=True)
class ToricSector:
    cone: Cone
    element: BoxElement
    support_dim: int
    group_order: int

    @property
    def age(self) -> Fraction:
        return self.element.age


def quotient_group_order(cone: Cone) -> int:
    """Order of the local isotropy group: the index of the lattice spanned by
    the generators inside its saturation, the product of the invariant
    factors of the cone's Smith normal form."""
    if not cone.is_simplicial():
        raise NotSimplicialError("group order needs linearly independent generators")
    return prod(cone._smith[0])


def box_elements(cone: Cone, interior_only: bool = False) -> tuple[BoxElement, ...]:
    """All box elements of a simplicial cone, sorted by point.

    With interior_only, keeps those with every coefficient in (0, 1); these
    are the elements supported on no proper face of the cone. The zero cone
    yields exactly the trivial element.
    """
    gens = cone.generators
    if not gens:
        return (BoxElement((), 1, ()),)
    if not cone.is_simplicial():
        raise NotSimplicialError("box enumeration needs linearly independent generators")
    factors, u = cone._smith
    d_max = factors[-1]
    mod_d = d_max.__rmod__  # x -> x mod D
    columns = list(zip(*gens))
    # numerator tuples mod D, grown one cyclic factor at a time
    walk = [(0,) * len(gens)]
    for di, row in zip(factors, u):
        if d_max % di:
            raise AuditError(f"invariant factors {factors} do not divide the largest")
        if di == 1:
            continue
        step = [x * (d_max // di) for x in row]
        # a lattice point for each generator makes every sum of them one,
        # including the elements interior_only drops unchecked
        if any(sum(map(mul, step, col)) % d_max for col in columns):
            raise AuditError(f"box generator {step}/{d_max} is not a lattice point")
        multiples = [tuple(mod_d(k * x) for x in step) for k in range(di)]
        walk = [tuple(map(mod_d, map(add, elem, m))) for elem in walk for m in multiples]
    out = []
    for elem in walk:
        if interior_only and not all(elem):
            continue
        point = []
        for col in columns:
            q, r = divmod(sum(map(mul, elem, col)), d_max)
            if r:
                raise AuditError(f"box element {elem}/{d_max} is not a lattice point")
            point.append(q)
        out.append(BoxElement(elem, d_max, tuple(point)))
    out.sort(key=attrgetter("point"))
    # distinct group elements must give distinct lattice points
    if len({e.point for e in out}) != len(out):
        raise AuditError("box points repeat")
    return tuple(out)


class Fan:
    """A collection of cones closed under taking faces."""

    def __init__(self, n: int, cones):
        self.n = n
        self.cones: tuple[Cone, ...] = tuple(sorted(cones, key=Cone.sort_key))
        rays = sorted({g for c in self.cones for g in c.generators})
        self.rays: tuple[Vector, ...] = tuple(rays)

    @property
    def r(self) -> int:
        return len(self.rays)

    def is_simplicial(self) -> bool:
        """True when every cone has one generator per dimension. A normal
        fan reads this off the face lattice: every proper polar face has
        dim + 1 vertices."""
        return all(c.is_simplicial() for c in self.cones)


def normal_fan(pair: ReflexivePair) -> Fan:
    """Fan over the proper faces of the polar polytope (plus the zero cone)."""
    polar = pair.delta_polar
    cones = [Cone(())]
    for face in polar.proper_faces():
        gens = tuple(sorted(face.vertices()))
        cones.append(Cone(gens, face_ids=face.vertex_ids, face_dim=face.dim))
    return Fan(polar.n, cones)


def toric_twisted_sectors(fan: Fan) -> tuple[ToricSector, ...]:
    """Twisted sectors of the toric orbifold: one per pair of a nonzero cone
    and an interior box element. The zero cone carries only the untwisted
    sector and is skipped."""
    if not fan.is_simplicial():
        raise NotSimplicialError("twisted sectors require a simplicial fan")
    out = []
    for cone in fan.cones:
        if not cone.generators:
            continue
        interior = box_elements(cone, interior_only=True)
        if len(cone.generators) == 1 and interior:
            raise AuditError(f"primitive ray {cone.generators[0]} has interior box elements")
        order = quotient_group_order(cone)
        out.extend(ToricSector(cone, e, fan.n - cone.dim, order) for e in interior)
    return tuple(out)
