"""Rational simplicial cones, normal fans, and twisted sector data.

Box elements of a cone are the lattice points of the half-open parallelepiped
spanned by its primitive generators. The interior ones, with every
coefficient in (0, 1), index the twisted sectors of the associated toric
orbifold. Box(σ) is the disjoint union of the interior boxes Box°(τ) over
the faces τ of σ (Batyrev–Dais), so `interior_boxes` walks the box of each
maximal cone once and labels each element by its support, the generators
with a nonzero coefficient. A face takes its interior elements from the
first maximal cone that contains it, and its group order is the count of
walked elements supported inside it. A unimodular maximal cone settles its
faces without a walk. Every later maximal cone must find the same counts on
the faces it shares, a check between two independent Smith forms.

A walk goes through the Smith normal form of the generator matrix, so the
cost scales with the group order rather than with any bounding box. It runs
in integers: with D the largest invariant factor, every coefficient of a
box element is a multiple of 1/D, so each element is a tuple of numerators
mod D. Row i of the Smith row transform, times D/d_i, generates a cyclic
factor of order d_i, and the walk adds up multiples of these rows mod D.
An element's age is the numerator sum over D, and its point is an exact
integer division by D.

A cone over a face of the polar polytope knows its dimension from the face
lattice, so simpliciality (one generator per dimension) needs no Smith
form. A cone built from generators alone is taken to have one dimension per
generator; its Smith form checks that when its box is walked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
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
        form of the generator matrix, computed once; interior_boxes reads
        it for the maximal cones only."""
        d, u, _ = smith_normal_form([list(g) for g in self.generators])
        diagonal = (d[i][i] for i in range(min(len(d), len(d[0]))))
        factors = tuple(x for x in diagonal if x)
        if any(x < 0 for x in factors):
            raise AuditError(f"Smith form has a negative invariant factor: {factors}")
        if len(factors) != self.dim:
            if self.face_dim is None:
                raise NotSimplicialError("box enumeration needs linearly independent generators")
            raise AuditError(
                f"cone over a {self.face_dim}-face has rank {len(factors)}, not {self.dim}"
            )
        return factors, u

    @property
    def dim(self) -> int:
        return len(self.generators) if self.face_dim is None else self.face_dim + 1

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


@dataclass(frozen=True)
class ToricSector:
    cone: Cone
    element: BoxElement
    support_dim: int
    group_order: int

    @property
    def age(self) -> Fraction:
        return self.element.age


def _walk_box(cone: Cone) -> tuple[int, list[tuple[tuple[int, ...], Vector]]]:
    """(D, every element of the box of a simplicial cone as a pair of its
    numerators mod D and its point)."""
    gens = cone.generators
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
        # a lattice point for each generator makes every sum of them one
        if any(sum(map(mul, step, col)) % d_max for col in columns):
            raise AuditError(f"box generator {step}/{d_max} is not a lattice point")
        multiples = [tuple(mod_d(k * x) for x in step) for k in range(di)]
        walk = [tuple(map(mod_d, map(add, elem, m))) for elem in walk for m in multiples]
    out = []
    for elem in walk:
        point = []
        for col in columns:
            q, r = divmod(sum(map(mul, elem, col)), d_max)
            if r:
                raise AuditError(f"box element {elem}/{d_max} is not a lattice point")
            point.append(q)
        out.append((elem, tuple(point)))
    # distinct group elements must give distinct lattice points
    if len({point for _, point in out}) != len(out):
        raise AuditError("box points repeat")
    return d_max, out


class Fan:
    """A collection of cones closed under taking faces."""

    def __init__(self, n: int, cones):
        self.n = n
        self.cones: tuple[Cone, ...] = tuple(sorted(cones, key=Cone.sort_key))

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


def interior_boxes(fan: Fan) -> dict[Cone, tuple[tuple[BoxElement, ...], int]]:
    """Every nonzero cone of a simplicial fan, in fan order, mapped to its
    interior box elements, sorted by point, and its group order. A face's
    elements keep the numerators of its own generators, over the D of the
    maximal cone they were walked in. Cones list their generators in one
    order (normal_fan sorts them), so a face's are a subsequence of a
    cone's."""
    if not fan.is_simplicial():
        raise NotSimplicialError("twisted sectors require a simplicial fan")
    cones = [c for c in fan.cones if c.generators]
    covered = {c.generators[:i] + c.generators[i + 1 :] for c in cones for i in range(len(c.generators))}
    settled: dict[tuple[Vector, ...], tuple[tuple[BoxElement, ...], int]] = {}
    for sigma in cones:
        gens = sigma.generators
        if gens in covered:
            continue
        full = 1 << len(gens)
        bits = [1 << i for i in range(len(gens))]
        interior: dict[int, list[BoxElement]] = {}  # support bitmask -> elements
        orders = [1] * full
        if sigma._smith[0][-1] > 1:
            d_max, walk = _walk_box(sigma)
            orders = [0] * full
            for elem, point in walk:
                support = sum(compress(bits, elem))
                orders[support] += 1
                if support:
                    element = BoxElement(tuple(compress(elem, elem)), d_max, point)
                    interior.setdefault(support, []).append(element)
            # a face's group order counts the walked elements supported inside it
            for i in range(len(gens)):
                for mask in range(full):
                    if mask >> i & 1:
                        orders[mask] += orders[mask ^ 1 << i]
        faces = [()]  # by bitmask: the lowest generator, then the rest
        for mask in range(1, full):
            low = mask & -mask
            faces.append((gens[low.bit_length() - 1],) + faces[mask ^ low])
            face = faces[mask]
            elems = interior.get(mask, ())
            if face not in settled:
                settled[face] = (tuple(sorted(elems, key=attrgetter("point"))), orders[mask])
            elif (len(settled[face][0]), settled[face][1]) != (len(elems), orders[mask]):
                raise AuditError(
                    f"maximal cones disagree on the face {face}: {len(settled[face][0])} interior box "
                    f"elements of group order {settled[face][1]}, then {len(elems)} of {orders[mask]}"
                )
    return {c: settled[c.generators] for c in cones}


def toric_twisted_sectors(fan: Fan) -> tuple[ToricSector, ...]:
    """Twisted sectors of the toric orbifold: one per pair of a nonzero cone
    and an interior box element. The zero cone carries only the untwisted
    sector and is skipped."""
    out = []
    for cone, (interior, order) in interior_boxes(fan).items():
        if len(cone.generators) == 1 and interior:
            raise AuditError(f"primitive ray {cone.generators[0]} has interior box elements")
        out.extend(ToricSector(cone, e, fan.n - cone.dim, order) for e in interior)
    return tuple(out)
