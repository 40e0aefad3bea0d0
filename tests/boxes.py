"""Per-cone box helpers that only the tests use.

The package walks the box of each maximal cone once and reads every face's
interior box and group order from that walk (`reflexorb.fan.interior_boxes`).
These read one cone at a time: its Smith rank, its group order, and its
full or interior box from the same integer walk.
"""

from math import prod
from operator import attrgetter

from reflexorb.errors import NotSimplicialError
from reflexorb.fan import BoxElement, _walk_box
from reflexorb.linalg import smith_normal_form


def smith_rank(generators) -> int:
    """Rank of the generator matrix, from its Smith normal form."""
    if not generators:
        return 0
    d, _, _ = smith_normal_form([list(g) for g in generators])
    return sum(1 for i in range(min(len(d), len(d[0]))) if d[i][i])


def quotient_group_order(cone) -> int:
    """Order of the local isotropy group: the index of the lattice spanned by
    the generators inside its saturation, the product of the invariant
    factors of the cone's Smith normal form."""
    if not cone.generators:
        return 1
    if not cone.is_simplicial():
        raise NotSimplicialError("group order needs linearly independent generators")
    return prod(cone._smith[0])


def box_elements(cone, interior_only=False) -> tuple[BoxElement, ...]:
    """All box elements of a simplicial cone, sorted by point. With
    interior_only, keeps those with every coefficient in (0, 1). The zero
    cone yields exactly the trivial element."""
    if not cone.generators:
        return (BoxElement((), 1, ()),)
    if not cone.is_simplicial():
        raise NotSimplicialError("box enumeration needs linearly independent generators")
    d_max, walk = _walk_box(cone)
    out = [BoxElement(e, d_max, p) for e, p in walk if all(e) or not interior_only]
    return tuple(sorted(out, key=attrgetter("point")))


def is_interior(element) -> bool:
    return all(element.numerators)
