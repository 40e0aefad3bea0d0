"""Rank oracle for the hypersurface deformation count.

For a random integer-coefficient anticanonical hypersurface, the graded
piece of its Jacobian ideal in the homogeneous coordinate ring has rank
gamma = n + 1 + sum of facet interior point counts, so the quotient has
dimension l(Delta) - gamma. That quotient dimension must agree with the
combinatorial untwisted deformation count. The rank, found by exact integer
linear algebra, certifies that the gamma generators are independent; l(Delta)
and the facet interiors come from the same point enumeration as the face
sums, so the agreement itself then follows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import mul

from .errors import AuditError, HypothesisError
from .linalg import independent_rows, rank_mod_p, rational_rank
from .polytope import ReflexivePair, Vector

COEFF_LOW = 1
COEFF_HIGH = 10**6
MAX_DRAWS = 5
RANK_PRIME = 2**61 - 1


def monomial_basis(pair: ReflexivePair) -> tuple[Vector, ...]:
    """Lattice points of delta in lexicographic order; one monomial each."""
    return pair.delta.lattice_points()


def draw_coefficients(pair: ReflexivePair, seed: int) -> dict[Vector, int]:
    """Seeded nonzero integer coefficient for every monomial, drawn in
    basis order so a seed pins the whole map."""
    rng = random.Random(seed)
    return {m: rng.randint(COEFF_LOW, COEFF_HIGH) for m in monomial_basis(pair)}


def lifted_ray_subset(pair: ReflexivePair) -> tuple[Vector, ...]:
    """Lexicographically first n+1 rays whose lifts (v, 1) are linearly
    independent. Such a subset always exists because the lifted rays span."""
    rays = pair.delta_polar.vertices
    chosen = independent_rows(([*ray, 1] for ray in rays), pair.n + 1)
    if len(chosen) == pair.n + 1:
        return tuple(rays[i] for i in chosen)
    raise AuditError("lifted rays failed to span")


def facet_interior_pairs(pair: ReflexivePair) -> tuple[tuple[Vector, Vector], ...]:
    """(ray, interior point of its dual facet) pairs, in ray order then
    lexicographic point order. Labels the facet interior rows of
    assemble_matrix. Ray i is the normal of facet i of delta, whose
    interior points are the ones on that facet alone."""
    groups = pair.delta._incidence()
    return tuple(
        (ray, point)
        for i, ray in enumerate(pair.delta_polar.vertices)
        for point in groups.get(1 << i, ())
    )


def assemble_matrix(pair: ReflexivePair, coeffs, rays=None, pairs=None) -> list[list[int]]:
    """Euler rows, then facet interior rows. An Euler row for ray v has entry
    lambda_m * (<m, v> + 1) at column m; a facet interior row for (v, m*)
    places the same value at column m + m* when that lies in delta, zero
    elsewhere. Each ray's column values are computed once. Rays default to
    the lifted subset and pairs to all facet interior pairs; a caller that
    builds several matrices for one pair passes the ones it computed once.

    Columns are found by the linear integer keys of `_keys`: the row for
    (v, m*) takes at column c the value of v at the column keyed
    key(c) - key(m*), and 0 when no column has that key. Column m matches
    only when c - m - m* = 0, since each of its coordinates is at most
    2 (hi - lo) in size: c - m lies in [lo - hi, hi - lo], and m*, like
    the origin, in [lo, hi].
    """
    if rays is None:
        rays = lifted_ray_subset(pair)
    if pairs is None:
        pairs = facet_interior_pairs(pair)
    basis = monomial_basis(pair)
    keys = _keys(basis)
    if len(set(keys)) != len(keys):
        raise AuditError("two lattice points of delta share a column key")
    key_of = dict(zip(basis, keys))
    needed = dict.fromkeys([*rays, *(ray for ray, _ in pairs)])
    values = {
        v: dict(zip(keys, [coeffs[m] * (sum(map(mul, m, v)) + 1) for m in basis]))
        for v in needed
    }
    rows = [list(values[ray].values()) for ray in rays]
    for ray, star in pairs:
        value, shift = values[ray].get, key_of[star]
        rows.append([value(k - shift, 0) for k in keys])
    return rows


def _keys(points) -> list[int]:
    """Mixed-radix key sum_d x_d * R_d of each point x, where coordinate d
    has radix 2 (hi_d - lo_d) + 1 over the points and R_d is the product
    of the radices after d. The key is linear, and on an integer vector
    with |x_d| <= 2 (hi_d - lo_d) it is 0 only at 0: every R_d but the last
    is a multiple of the last radix, which exceeds |x_last|, so x_last is
    0, and so on."""
    weights = []
    weight = 1
    for column in reversed(list(zip(*points))):
        weights.append(weight)
        weight *= 2 * (max(column) - min(column)) + 1
    weights.reverse()
    return [sum(map(mul, p, weights)) for p in points]


@dataclass(frozen=True)
class JacobianReport:
    seed: int
    seed_used: int
    attempts: int
    rank: int
    gamma: int
    l_delta: int
    quotient: int
    formula: int
    agrees: bool
    generic: bool


def jacobian_rank_check(pair: ReflexivePair, seed: int = 0, force: bool = False) -> JacobianReport:
    """Draw coefficients, compute the exact rank, and compare the quotient
    dimension with the combinatorial deformation count.

    A draw with rank below gamma is non-generic; up to MAX_DRAWS consecutive
    seeds are tried before reporting failure (which indicates a bug, not bad
    luck, at these coefficient sizes).
    """
    from .hodge import hn21_untwisted

    if pair.n < 4 and not force:
        raise HypothesisError(
            "ambient dimension below 4; pass force to compute anyway"
        )
    rays = lifted_ray_subset(pair)
    pairs = facet_interior_pairs(pair)
    g = pair.n + 1 + len(pairs)
    l_delta = len(monomial_basis(pair))
    formula = hn21_untwisted(pair, force)
    rank = -1
    seed_used = seed
    attempts = 0
    for offset in range(MAX_DRAWS):
        seed_used = seed + offset
        attempts = offset + 1
        coeffs = draw_coefficients(pair, seed_used)
        m = assemble_matrix(pair, coeffs, rays, pairs)
        if len(m) != g:
            raise AuditError(f"rank matrix has {len(m)} rows, gamma is {g}")
        # rank_p <= rank_Q <= g, so rank_p == g certifies the exact rank
        rank = g if rank_mod_p(m, RANK_PRIME) == g else rational_rank(m)
        if rank == g:
            break
    generic = rank == g
    quotient = l_delta - rank
    return JacobianReport(
        seed=seed,
        seed_used=seed_used,
        attempts=attempts,
        rank=rank,
        gamma=g,
        l_delta=l_delta,
        quotient=quotient,
        formula=formula,
        agrees=generic and quotient == formula,
        generic=generic,
    )
