"""Lattice polytopes with exact arithmetic.

A polytope is built from integer vertex lists by a double-description
convex hull in integers, which adds the points one at a time and keeps each
facet with the points it passes through. Facets carry primitive integer
normals in the convention

    <x, normal> >= -offset    for every x in the polytope,

so a reflexive polytope is one whose facet offsets are all 1 (equivalently
the origin is the unique interior lattice point and the polar dual is again
a lattice polytope).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from operator import mul

from .errors import AuditError, NotFullDimensionalError, NotReflexiveError, VertexFileError
from .linalg import independent_rows

Vector = tuple[int, ...]


@dataclass(frozen=True)
class FacetInequality:
    normal: Vector
    offset: int

    def value(self, point) -> int:
        return sum(a * b for a, b in zip(point, self.normal)) + self.offset


@dataclass(frozen=True)
class Face:
    """A face of a polytope, identified by its vertex id set."""

    dim: int
    vertex_ids: tuple[int, ...]
    active_facets: tuple[int, ...]
    _polytope: "LatticePolytope" = field(compare=False, repr=False)

    def vertices(self) -> tuple[Vector, ...]:
        return tuple(self._polytope.vertices[i] for i in self.vertex_ids)

    def _mask(self) -> int:
        return sum(1 << i for i in self.active_facets)

    def lattice_points(self) -> tuple[Vector, ...]:
        """Lattice points on every facet through the face, in lexicographic
        order."""
        want = self._mask()
        groups = self._polytope._incidence()
        return tuple(
            sorted(p for mask, pts in groups.items() if mask & want == want for p in pts)
        )

    def interior_lattice_points(self) -> tuple[Vector, ...]:
        """Lattice points on exactly the facets through the face."""
        return self._polytope._incidence().get(self._mask(), ())


class LatticePolytope:
    """Full-dimensional lattice polytope with exact facet data."""

    def __init__(self, vertices, facets):
        self.vertices: tuple[Vector, ...] = tuple(tuple(v) for v in vertices)
        self.facets: tuple[FacetInequality, ...] = tuple(facets)
        self.n: int = len(self.vertices[0]) if self.vertices else 0
        self._faces_by_dim: dict[int, tuple[Face, ...]] | None = None
        # k -> (points of the k-fold dilate, the same points by facet mask)
        self._points_cache: dict[int, tuple[tuple[Vector, ...], dict[int, tuple[Vector, ...]]]] = {}

    @classmethod
    def from_vertices(cls, points) -> "LatticePolytope":
        """Convex hull of integer points. Duplicates are dropped; points that
        end up inside the hull are not vertices. Raises
        NotFullDimensionalError when the points do not span."""
        pts = sorted({tuple(int(x) for x in p) for p in points})
        if not pts:
            raise NotFullDimensionalError("no points given")
        n = len(pts[0])
        if any(len(p) != n for p in pts):
            raise ValueError("points of mixed dimension")
        verts, ineqs = _convex_hull(pts, n)  # ineqs come sorted
        return cls(verts, [FacetInequality(normal, offset) for normal, offset in ineqs])

    def __eq__(self, other):
        return (
            isinstance(other, LatticePolytope)
            and self.n == other.n
            and self.vertices == other.vertices
        )

    def __hash__(self):
        return hash((self.n, self.vertices))

    def __repr__(self):
        return f"LatticePolytope(n={self.n}, vertices={len(self.vertices)}, facets={len(self.facets)})"

    # -- membership and points ------------------------------------------------

    def lattice_points(self, k: int = 1) -> tuple[Vector, ...]:
        """All lattice points of the k-fold dilate, in lexicographic order."""
        if k < 1:
            raise ValueError("dilate factor must be >= 1")
        if k not in self._points_cache:
            self._points_cache[k] = _enumerate_points(self.vertices, self.facets, k)
        return self._points_cache[k][0]

    def interior_lattice_points(self, k: int = 1) -> tuple[Vector, ...]:
        """Lattice points of the k-fold dilate saturating no facet inequality."""
        return self._incidence(k).get(0, ())

    def _incidence(self, k: int = 1) -> dict[int, tuple[Vector, ...]]:
        """The lattice points of the k-fold dilate grouped by the bitmask of
        the facets they lie on (bit i for facet i), each group in
        lexicographic order."""
        self.lattice_points(k)
        return self._points_cache[k][1]

    # -- reflexivity and duality ----------------------------------------------

    def is_reflexive(self) -> bool:
        return all(f.offset == 1 for f in self.facets)

    def polar_dual(self) -> "LatticePolytope":
        """Polar dual polytope from the facet data, without a hull: vertex i
        is the normal of facet i, and facet j is <y, vertex j> >= -1."""
        if not self.is_reflexive():
            raise NotReflexiveError(
                "polar dual is a lattice polytope only for reflexive input"
            )
        return LatticePolytope(
            [f.normal for f in self.facets], [FacetInequality(v, 1) for v in self.vertices]
        )

    # -- face lattice ----------------------------------------------------------

    def faces(self, dim: int | None = None):
        """Faces of the polytope: all proper faces plus the polytope itself.

        With dim given, returns the tuple of faces of that dimension; without,
        a dict mapping dimension to face tuples.
        """
        if self._faces_by_dim is None:
            self._build_face_lattice()
        if dim is None:
            return self._faces_by_dim
        return self._faces_by_dim.get(dim, ())

    def proper_faces(self):
        out = []
        for d in sorted(self.faces()):
            if d < self.n:
                out.extend(self.faces(d))
        return out

    def _build_face_lattice(self):
        """Fill `_faces_by_dim` from facet incidence.

        A face is a nonempty intersection of facets, held as a vertex
        bitmask. Its dimension is 1 + the largest dimension of its
        intersections with the facets not containing it (the empty face has
        dimension -1). The pass raises AuditError unless every vertex meets
        every facet inequality, the polytope has dimension n, and the lattice
        is Eulerian: a face G two dimensions below a face H (G may be empty)
        lies in exactly two facets of H, which fails if a facet is missing.
        """
        nverts = len(self.vertices)
        incidence = []
        for f in self.facets:
            mask = 0
            for i, v in enumerate(self.vertices):
                value = f.value(v)
                if value < 0:
                    raise AuditError(f"vertex {v} violates the facet with normal {f.normal}")
                if value == 0:
                    mask |= 1 << i
            incidence.append(mask)
        full = (1 << nverts) - 1
        below = {}  # face -> its intersections with the facets not containing it
        queue = [full]
        while queue:
            vs = queue.pop()
            if vs not in below:
                below[vs] = {vs & fs for fs in incidence} - {vs}
                queue.extend(below[vs])
        dim = {0: -1}
        by_dim: dict[int, list[Face]] = {}
        for vs in sorted(below.keys() - {0}, key=int.bit_count):
            if not below[vs]:
                raise AuditError("a face lies on every facet")
            d = dim[vs] = 1 + max(dim[g] for g in below[vs])
            tops = [g for g in below[vs] if dim[g] == d - 1]
            for r in {r for g in (vs, *tops) for r in below[g] if dim[r] == d - 2}:
                count = sum(r & g == r for g in tops)
                if count != 2:
                    raise AuditError(f"not Eulerian: a {d}-face has a ridge in {count} facets")
            ids = tuple(i for i in range(nverts) if vs >> i & 1)
            active = tuple(j for j, fs in enumerate(incidence) if vs & fs == vs)
            by_dim.setdefault(d, []).append(Face(d, ids, active, self))
        if dim[full] != self.n:
            raise AuditError(f"facets bound a polytope of dimension {dim[full]}, not {self.n}")
        self._faces_by_dim = {
            d: tuple(sorted(faces, key=lambda f: f.vertex_ids))
            for d, faces in sorted(by_dim.items())
        }


# -- lattice point enumeration ------------------------------------------------------


def _reduced_basis(vertices, n):
    """Integer matrices (u, vt) whose product u vt^T is the identity.

    The rows of u are the standard basis of Z^n after LLL reduction
    (delta = 3/4, exact Fractions) under the form G = sum of v v^T over the
    vertices, positive definite for a full-dimensional polytope. A row
    short under G is a direction in which the vertices spread little, so in
    the coordinates y = u x the polytope's bounding box is tight whatever
    basis the vertices came in; x = sum of y_i vt[i] maps a point back. A
    wrong basis would silently drop points, so the result passes
    `_audit_inverse`.
    """
    g = [[sum(v[i] * v[j] for v in vertices) for j in range(n)] for i in range(n)]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    vt = [row[:] for row in u]

    # Gram-Schmidt data under G: norm[i] = |u*_i|^2, mu[i][j] = <u_i, u*_j> / norm[j]
    mu = [[Fraction(0)] * n for _ in range(n)]
    norm = [Fraction(0)] * n
    for i in range(n):
        for j in range(i + 1):
            m = Fraction(g[i][j]) - sum(mu[j][l] * mu[i][l] * norm[l] for l in range(j))
            if j < i:
                mu[i][j] = m / norm[j]
            else:
                norm[i] = m
    i = 1
    while i < n:
        for j in range(i - 1, -1, -1):
            q = round(mu[i][j])
            if q:
                u[i] = [a - q * b for a, b in zip(u[i], u[j])]
                vt[j] = [a + q * b for a, b in zip(vt[j], vt[i])]
                for l in range(j):
                    mu[i][l] -= q * mu[j][l]
                mu[i][j] -= q
        m = mu[i][i - 1]
        if norm[i] >= (Fraction(3, 4) - m * m) * norm[i - 1]:
            i += 1
            continue
        # swap rows i-1 and i and update the Gram-Schmidt data in place
        # (Cohen, A Course in Computational Algebraic Number Theory, 2.6.3)
        u[i - 1], u[i] = u[i], u[i - 1]
        vt[i - 1], vt[i] = vt[i], vt[i - 1]
        mu[i - 1][: i - 1], mu[i][: i - 1] = mu[i][: i - 1], mu[i - 1][: i - 1]
        b = norm[i] + m * m * norm[i - 1]
        mu[i][i - 1] = m * norm[i - 1] / b
        norm[i] = norm[i - 1] * norm[i] / b
        norm[i - 1] = b
        for r in range(i + 1, n):
            t = mu[r][i]
            mu[r][i] = mu[r][i - 1] - m * t
            mu[r][i - 1] = t + mu[i][i - 1] * mu[r][i]
        i = max(i - 1, 1)
    _audit_inverse(u, vt)
    return u, vt


def _audit_inverse(u, vt):
    """Raise AuditError unless u vt^T is the identity, so that u is
    unimodular with inverse vt^T and y = u x is a bijection of Z^n."""
    n = len(u)
    for a in range(n):
        for b in range(n):
            if sum(x * y for x, y in zip(u[a], vt[b])) != (a == b):
                raise AuditError("reduced basis is not unimodular: u vt^T is not the identity")


def _enumerate_points(vertices, facets, k):
    """(points, groups) for the k-fold dilate of conv(vertices).

    Points are enumerated in the coordinates y = u x of `_reduced_basis`,
    one coordinate at a time over the y-box of the dilate. With the
    coordinates before d fixed, facet j holds when s_j + b_j y_d + (the
    part of the coordinates after d) >= 0, s_j being its value over the
    fixed prefix. Bounding that last part by its maximum over the y-box
    turns each facet into a bound on y_d, so every prefix gets an interval
    for its next coordinate; a facet that no choice of the remaining
    coordinates can meet empties it and prunes the prefix. On the last
    coordinate nothing remains, so its interval holds exactly the points.
    The cost follows the points and the live prefixes, not the volume of
    the input's bounding box.

    groups maps the bitmask of the facets a point lies on (bit j for facet
    j) to those points. points and every group are in lexicographic order.
    """
    n = len(vertices[0])
    u, vt = _reduced_basis(vertices, n)
    ys = [[sum(a * b for a, b in zip(row, v)) for row in u] for v in vertices]
    lo = [k * min(y[d] for y in ys) for d in range(n)]
    hi = [k * max(y[d] for y in ys) for d in range(n)]
    # cols[d][j]: facet j's normal in y coordinates, entry d
    cols = [[sum(a * b for a, b in zip(vt[d], f.normal)) for f in facets] for d in range(n)]
    # later[d][j]: the most coordinates d.. can add to facet j over the y-box
    later = [[0] * len(facets)]
    for d in range(n - 1, -1, -1):
        later.append([s + max(b * lo[d], b * hi[d]) for s, b in zip(later[-1], cols[d])])
    later.reverse()
    bits = [1 << j for j in range(len(facets))]
    last = n - 1
    points: list[Vector] = []
    groups: dict[int, list[Vector]] = {}

    def walk(d, vals, x):
        first, stop = lo[d], hi[d]
        col = cols[d]
        for s, r, b in zip(vals, later[d + 1], col):
            c = s + r
            if b > 0:
                t = -(c // b)
                if t > first:
                    first = t
            elif b < 0:
                t = c // -b
                if t < stop:
                    stop = t
            elif c < 0:
                return
        step = vt[d]
        if d < last:
            for y in range(first, stop + 1):
                walk(
                    d + 1,
                    [s + b * y for s, b in zip(vals, col)],
                    [a + y * e for a, e in zip(x, step)],
                )
            return
        # facet j is tight at the one y solving s_j + b_j y = 0, or at
        # every y when b_j = 0 = s_j
        common = 0
        tight: dict[int, int] = {}
        for bit, s, b in zip(bits, vals, col):
            if b == 0:
                if s == 0:
                    common |= bit
            elif s % b == 0:
                y = -s // b
                tight[y] = tight.get(y, 0) | bit
        for y in range(first, stop + 1):
            p = tuple([a + y * e for a, e in zip(x, step)])
            points.append(p)
            groups.setdefault(common | tight.get(y, 0), []).append(p)

    walk(0, [k * f.offset for f in facets], [0] * n)
    points.sort()
    return tuple(points), {mask: tuple(sorted(pts)) for mask, pts in groups.items()}


def _seed_functionals(rows):
    """Columns of the adjugate of the square integer matrix `rows`, times
    the sign of its determinant: the functional in column k is zero on
    every row but row k and positive on row k.

    One fraction-free Gauss-Jordan elimination of [rows | I] (Bareiss: each
    step's division is exact) ends at [d I | d rows^-1] with d = +-det.
    """
    m = len(rows)
    a = [[*row, *(int(i == j) for j in range(m))] for i, row in enumerate(rows)]
    prev = 1
    for c in range(m):
        piv = next((r for r in range(c, m) if a[r][c]), None)
        if piv is None:
            raise AuditError("seed points are not affinely independent")
        a[c], a[piv] = a[piv], a[c]
        top = a[c]
        for r in range(m):
            if r != c:
                row = a[r]
                f = row[c]
                a[r] = [(top[c] * x - f * y) // prev for x, y in zip(row, top)]
        prev = top[c]
    sign = 1 if prev > 0 else -1
    return [[sign * a[r][m + k] for r in range(m)] for k in range(m)]


def _value(f, p):
    """f(p) for the functional f = (normal..., offset)."""
    return sum(map(mul, f, p)) + f[-1]


def _add_point(facets, p, bit, n):
    """The facets of the hull after point p (bit 1 << its index) joins it.

    facets is a list of (functional, mask) pairs, mask holding the points
    added so far that the functional vanishes on. When p lies beyond some
    facets, each pair F, G with F(p) > 0 > G(p) that is adjacent (their
    common points number at least n - 1 and lie on no other facet; Fukuda
    and Prodon's combinatorial test) gives the new facet F(p) G - G(p) F
    through p and their common points, and the facets below p go.
    """
    vals = [_value(f, p) for f, _ in facets]
    kept = [(f, m | bit if v == 0 else m) for (f, m), v in zip(facets, vals) if v >= 0]
    if len(kept) == len(facets):
        return kept
    masks = [m for _, m in facets]
    above = [(f, m, v) for (f, m), v in zip(facets, vals) if v > 0]
    for (g, mg), vg in zip(facets, vals):
        if vg >= 0:
            continue
        for f, mf, vf in above:
            common = mf & mg
            if common.bit_count() < n - 1 or sum(m & common == common for m in masks) > 2:
                continue
            h = [vf * y - vg * x for x, y in zip(f, g)]
            g_h = gcd(*h)
            kept.append(([x // g_h for x in h], common | bit))
    return kept


def _convex_hull(pts, n):
    """Double-description convex hull of sorted, distinct integer points
    (Motzkin et al. 1953; Fukuda and Prodon 1996), in integers.

    The seed is the first n + 1 affinely independent points; its facets are
    the columns of one adjugate. The other points join one at a time
    through `_add_point`. Returns (vertices, inequalities): the vertices in
    input order, and the (normal, offset) pairs of the facets, sorted, in
    the <x, normal> >= -offset convention with primitive integer normals.
    A point is a vertex when the facets through it meet in it alone.
    """
    diffs = ([a - b for a, b in zip(p, pts[0])] for p in pts[1:])
    seed = [0, *(i + 1 for i in independent_rows(diffs, n))]
    if len(seed) <= n:
        raise NotFullDimensionalError(
            f"points span an affine subspace of dimension {len(seed) - 1} < {n}"
        )
    seeded = sum(1 << i for i in seed)
    facets = []
    for i, f in zip(seed, _seed_functionals([[*pts[i], 1] for i in seed])):
        if _value(f, pts[i]) <= 0 or any(_value(f, pts[j]) for j in seed if j != i):
            raise AuditError("a seed facet does not pass through exactly the other seed points")
        g = gcd(*f)
        facets.append(([x // g for x in f], seeded & ~(1 << i)))
    for i, p in enumerate(pts):
        if not seeded >> i & 1:
            facets = _add_point(facets, p, 1 << i, n)

    inequalities = []
    meet = [-1] * len(pts)  # the points on every facet through pts[i]
    for f, _ in facets:
        vals = [_value(f, p) for p in pts]
        if min(vals) < 0:
            raise AuditError("convex hull leaves an input point beyond a facet")
        tight = [i for i, v in enumerate(vals) if v == 0]
        if len(tight) < n:
            raise AuditError(f"a hull facet passes through fewer than {n} input points")
        mask = sum(1 << i for i in tight)
        for i in tight:
            meet[i] &= mask
        inequalities.append((tuple(f[:n]), f[n]))
    vertices = tuple(p for i, p in enumerate(pts) if meet[i] == 1 << i)
    return vertices, tuple(sorted(inequalities))


# -- reflexive pairs -----------------------------------------------------------


class ReflexivePair:
    """A reflexive polytope together with its polar dual.

    delta_polar lives in the fan lattice (its vertices are the rays of the
    normal fan); delta is the polar, whose lattice points index anticanonical
    monomials. Vertex i of delta is the normal of facet i of delta_polar and
    the other way round. So the points of either polytope that lie on
    exactly the facets with ids S are the interior points of the face dual
    to the face of the other polytope with vertex ids S, and the Hodge sums
    read the faces of delta off its points grouped by facet mask, with no
    face lattice.
    """

    def __init__(self, delta_polar: LatticePolytope):
        if not delta_polar.is_reflexive():
            raise NotReflexiveError("pair requires a reflexive polytope")
        self.delta_polar = delta_polar
        self.delta = delta_polar.polar_dual()
        self.n = delta_polar.n
        # builds and audits the face lattice the fan reads
        delta_polar.faces()
        # delta's face lattice is not built, so its vertices are checked here
        for f in self.delta.facets:
            for v in self.delta.vertices:
                if f.value(v) < 0:
                    raise AuditError(f"vertex {v} violates the facet with normal {f.normal}")

    @classmethod
    def from_delta(cls, delta: LatticePolytope) -> "ReflexivePair":
        if not delta.is_reflexive():
            raise NotReflexiveError("pair requires a reflexive polytope")
        return cls(delta.polar_dual())

    def swapped(self) -> "ReflexivePair":
        """The pair with the two polytopes' roles exchanged. It shares both
        polytope objects, with their cached points and faces."""
        pair = copy.copy(self)
        pair.delta_polar, pair.delta = self.delta, self.delta_polar
        return pair


# -- vertex matrix text format --------------------------------------------------


def parse_vertex_matrix(text: str) -> list[Vector]:
    """Parse the vertex matrix text format.

    First significant line is `V n` (vertex count, dimension); the next V
    significant lines hold n integers each. `#` starts a comment. Raises
    VertexFileError with a 1-based line number on malformed input.
    """
    header: tuple[int, int] | None = None
    rows: list[Vector] = []
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise VertexFileError("header must be `V n`", lineno)
            try:
                count, dim = int(parts[0]), int(parts[1])
            except ValueError:
                raise VertexFileError("header must hold two integers", lineno) from None
            if count < 1 or dim < 1:
                raise VertexFileError("header counts must be positive", lineno)
            header = (count, dim)
            continue
        if len(rows) == header[0]:
            raise VertexFileError(
                f"expected {header[0]} vertex rows, found more", lineno
            )
        if len(parts) != header[1]:
            raise VertexFileError(
                f"expected {header[1]} coordinates, got {len(parts)}", lineno
            )
        try:
            rows.append(tuple(int(x) for x in parts))
        except ValueError:
            raise VertexFileError("coordinates must be integers", lineno) from None
    if header is None:
        raise VertexFileError("empty input", last_line or 1)
    if len(rows) != header[0]:
        raise VertexFileError(
            f"expected {header[0]} vertex rows, got {len(rows)}", last_line
        )
    return rows


def format_vertex_matrix(vertices) -> str:
    verts = [tuple(v) for v in vertices]
    if not verts:
        raise ValueError("no vertices to format")
    lines = [f"{len(verts)} {len(verts[0])}"]
    lines.extend(" ".join(str(x) for x in v) for v in verts)
    return "\n".join(lines) + "\n"
