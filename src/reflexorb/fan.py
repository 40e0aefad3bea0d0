"""Rational simplicial cones, normal fans, and twisted sector data.

Box elements of a cone are the lattice points of the half-open parallelepiped
spanned by its primitive generators; they index the twisted sectors of the
associated toric orbifold. Enumeration goes through the Smith normal form of
the generator matrix, so the cost scales with the group order rather than
with any bounding box.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod

from .errors import NotSimplicialError
from .linalg import smith_normal_form
from .polytope import ReflexivePair, Vector


@dataclass(frozen=True)
class Cone:
    """Cone spanned by primitive generators. face_ids ties a normal fan cone
    back to the vertex ids of the polar face it sits over."""

    generators: tuple[Vector, ...]
    face_ids: tuple[int, ...] | None = None

    @cached_property
    def _smith(self) -> tuple[tuple[int, ...], list[list[int]]]:
        """(nonzero invariant factors, row transform u) of the Smith normal
        form of the generator matrix, computed once per cone. The rank, the
        group order and the box elements all read it."""
        if not self.generators:
            return (), []
        d, u, _ = smith_normal_form([list(g) for g in self.generators])
        diagonal = (d[i][i] for i in range(min(len(d), len(d[0]))))
        factors = tuple(x for x in diagonal if x)
        assert all(x > 0 for x in factors)
        return factors, u

    @property
    def dim(self) -> int:
        return len(self._smith[0])

    def is_simplicial(self) -> bool:
        return self.dim == len(self.generators)

    def sort_key(self):
        return (len(self.generators), self.generators)


@dataclass(frozen=True)
class BoxElement:
    """A lattice point of the half-open generator parallelepiped, with its
    coefficient vector: point = sum coefficients[i] * generators[i]."""

    coefficients: tuple[Fraction, ...]
    point: Vector

    @property
    def age(self) -> Fraction:
        return sum(self.coefficients, Fraction(0))

    def is_interior(self) -> bool:
        return all(0 < a < 1 for a in self.coefficients)


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
        triv = BoxElement((), (0,) * 0)
        return (triv,)
    if not cone.is_simplicial():
        raise NotSimplicialError("box enumeration needs linearly independent generators")
    d = len(gens)
    n = len(gens[0])
    divisors, u = cone._smith
    out = []
    stack = [()]
    for di in divisors:
        stack = [t + (k,) for t in stack for k in range(di)]
    for t in stack:
        b = [Fraction(t[i], divisors[i]) for i in range(d)]
        coeffs = tuple(
            sum(b[i] * u[i][j] for i in range(d)) % 1 for j in range(d)
        )
        if interior_only and not all(0 < a < 1 for a in coeffs):
            continue
        point = []
        for j in range(n):
            x = sum(coeffs[i] * gens[i][j] for i in range(d))
            assert x.denominator == 1
            point.append(int(x))
        out.append(BoxElement(coeffs, tuple(point)))
    out.sort(key=lambda e: e.point)
    # distinct odometer digits must give distinct lattice points
    assert len({e.point for e in out}) == len(out), "box points repeat"
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
        return all(c.is_simplicial() for c in self.cones)


def normal_fan(pair: ReflexivePair) -> Fan:
    """Fan over the proper faces of the polar polytope (plus the zero cone)."""
    polar = pair.delta_polar
    cones = [Cone(())]
    for face in polar.proper_faces():
        gens = tuple(sorted(face.vertices()))
        cones.append(Cone(gens, face_ids=face.vertex_ids))
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
        if len(cone.generators) == 1:
            # primitive generator: the half-open segment holds no lattice point
            assert not interior
        order = quotient_group_order(cone)
        out.extend(ToricSector(cone, e, fan.n - cone.dim, order) for e in interior)
    return tuple(out)
