"""Brute-force cross-checks used to freeze expected values in the test suite.

Everything here is deliberately naive and independent of the library under
test: determinants by permutation expansion, rank by minor search, hull
membership by Caratheodory simplex search, facets by trying the hyperplane
through every n points, box elements by scanning integer points of the
half-open parallelepiped, and lattice point counts for weighted projective
constructions by direct exponent-vector enumeration.

Run as a script to print the frozen reference table:

    python tests/oracles.py
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from math import gcd


@cache
def _signed_permutations(n):
    """(permutation, sign) for every permutation of range(n)."""
    out = []
    for perm in permutations(range(n)):
        # count inversions for the sign
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        out.append((perm, -1 if inv % 2 else 1))
    return tuple(out)


def det_perm(m):
    """Determinant by signed permutation expansion. Exact, O(n!)."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise AssertionError("determinant requires a square matrix")
    total = 0
    for perm, sign in _signed_permutations(n):
        term = sign
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def rank_by_minors(m):
    """Largest k such that some k x k minor has nonzero determinant."""
    rows, cols = len(m), len(m[0])
    for k in range(min(rows, cols), 0, -1):
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                sub = [[m[i][j] for j in cs] for i in rs]
                if det_perm(sub) != 0:
                    return k
    return 0


def in_hull(points, p):
    """Membership of p in conv(points) by Caratheodory: p lies in the hull
    iff some affinely independent (d+1)-subset contains it with barycentric
    coordinates in [0, 1]."""
    d = len(p)
    pts = [tuple(q) for q in points]
    for sub in combinations(pts, d + 1):
        m = [[Fraction(sub[j][i]) for j in range(d + 1)] for i in range(d)]
        m.append([Fraction(1)] * (d + 1))
        dd = _det_frac(m)
        if dd == 0:
            continue
        ok = True
        for col in range(d + 1):
            rep = [row[:] for row in m]
            for i in range(d):
                rep[i][col] = Fraction(p[i])
            rep[d][col] = Fraction(1)
            lam = _det_frac(rep) / dd
            if lam < 0 or lam > 1:
                ok = False
                break
        if ok:
            return True
    return False


def brute_facets(points):
    """Facets of conv(points), full-dimensional, as sorted (normal, offset)
    pairs with <x, normal> >= -offset on the hull and primitive normals.

    Every n of the points span a candidate hyperplane: expanding
    det [[x, 1], [q_1, 1], ..., [q_n, 1]] along its first row gives the
    functional that vanishes on q_1..q_n, with cofactors from `det_perm`.
    A hyperplane is kept when every point lies on one side of it."""
    pts = sorted({tuple(p) for p in points})
    n = len(pts[0])
    found = set()
    for sub in combinations(pts, n):
        rows = [[*q, 1] for q in sub]
        f = [(-1) ** j * det_perm([r[:j] + r[j + 1 :] for r in rows]) for j in range(n + 1)]
        if not any(f):
            continue  # the n points are affinely dependent
        g = gcd(*f)
        vals = [sum(a * b for a, b in zip(f, q)) + f[n] for q in pts]
        if min(vals) >= 0:
            found.add((tuple(a // g for a in f[:n]), f[n] // g))
        elif max(vals) <= 0:
            found.add((tuple(-a // g for a in f[:n]), -f[n] // g))
    return sorted(found)


def _det_frac(m):
    n = len(m)
    a = [row[:] for row in m]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            for j in range(c, n):
                a[r][j] -= f * a[c][j]
    return det


def hull_lattice_points(vertices):
    """All integer points of conv(vertices) by bounding-box scan plus the
    Caratheodory membership test. Practical for dim <= 3 only."""
    d = len(vertices[0])
    lo = [min(v[i] for v in vertices) for i in range(d)]
    hi = [max(v[i] for v in vertices) for i in range(d)]
    out = []
    for p in product(*(range(lo[i], hi[i] + 1) for i in range(d))):
        if in_hull(vertices, p):
            out.append(p)
    return out


def _adjugate(g):
    """Adjugate of a square integer matrix via cofactor determinants."""
    n = len(g)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [g[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            cof = det_perm(minor) if minor else 1
            adj[j][i] = -cof if (i + j) % 2 else cof
    return adj


def box_points_scan(gens):
    """Integer points of the half-open parallelepiped {sum a_i g_i : 0 <= a_i < 1}.

    Scans the integer bounding box of the closed parallelepiped and solves for
    the coefficient vector of each candidate. Returns a sorted list of
    (point, coeffs) pairs with coeffs as Fractions.
    """
    d = len(gens)
    n = len(gens[0])
    lo = [sum(min(0, g[j]) for g in gens) for j in range(n)]
    hi = [sum(max(0, g[j]) for g in gens) for j in range(n)]
    found = []
    if d == n:
        det = det_perm([list(g) for g in gens])
        if det == 0:
            raise AssertionError("generators must be linearly independent")
        adj = _adjugate([list(g) for g in gens])
        if det < 0:
            det = -det
            adj = [[-x for x in row] for row in adj]
        # a = kappa . G^-1, scaled by det to stay integral
        for kappa in product(*(range(lo[j], hi[j] + 1) for j in range(n))):
            t = [sum(kappa[i] * adj[i][j] for i in range(n)) for j in range(n)]
            if all(0 <= tj < det for tj in t):
                coeffs = tuple(Fraction(tj, det) for tj in t)
                found.append((tuple(kappa), coeffs))
    else:
        for kappa in product(*(range(lo[j], hi[j] + 1) for j in range(n))):
            coeffs = _solve_combination(gens, kappa)
            if coeffs is not None and all(0 <= a < 1 for a in coeffs):
                found.append((tuple(kappa), coeffs))
    found.sort()
    return found


def _solve_combination(gens, target):
    """Coefficients a with sum a_i gens_i = target, or None if target is
    outside the span. Generators must be linearly independent."""
    d = len(gens)
    n = len(gens[0])
    # columns: coefficients, last column: target
    a = [[Fraction(gens[i][j]) for i in range(d)] + [Fraction(target[j])] for j in range(n)]
    piv_rows = []
    r = 0
    for c in range(d):
        piv = next((i for i in range(r, n) if a[i][c] != 0), None)
        if piv is None:
            return None
        a[r], a[piv] = a[piv], a[r]
        for i in range(n):
            if i != r and a[i][c] != 0:
                f = a[i][c] / a[r][c]
                for j in range(c, d + 1):
                    a[i][j] -= f * a[r][j]
        piv_rows.append(r)
        r += 1
    for i in range(r, n):
        if a[i][d] != 0:
            return None
    return tuple(a[piv_rows[c]][d] / a[piv_rows[c]][c] for c in range(d))


def weighted_monomials(weights, degree):
    """Exponent vectors a >= 0 with sum w_i a_i = degree."""
    out = []

    def rec(i, rem, acc):
        if i == len(weights) - 1:
            if rem % weights[i] == 0:
                out.append(tuple(acc + [rem // weights[i]]))
            return
        w = weights[i]
        for e in range(rem // w + 1):
            rec(i + 1, rem - w * e, acc + [e])

    if degree >= 0:
        rec(0, degree, [])
    return out


def weighted_face_interior_count(weights, zero_set):
    """Count exponent vectors of weighted degree sum(weights) that vanish
    exactly on zero_set and are >= 1 elsewhere.

    For the reflexive simplex of a unit-minimal-weight projective space these
    are the lattice points interior to the dual face picked out by zero_set.
    """
    total = sum(weights)
    count = 0
    for a in weighted_monomials(weights, total):
        if all(a[i] == 0 for i in zero_set) and all(
            a[i] >= 1 for i in range(len(weights)) if i not in zero_set
        ):
            count += 1
    return count


def cube_lattice_count(n, k=1):
    """Lattice points of k * [-1, 1]^n."""
    return (2 * k + 1) ** n


def main():
    print("reference values from brute-force enumeration")
    print()

    print("determinants (permutation expansion):")
    print("  [[1,2],[3,4]] ->", det_perm([[1, 2], [3, 4]]))
    simplex_rays = [
        (-1, -2, -2, -2),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    ]
    for drop in range(5):
        sub = [list(simplex_rays[i]) for i in range(5) if i != drop]
        print(f"  rays minus v{drop} -> det {det_perm(sub)}")
    print()

    print("rank by minors:")
    m57 = [
        [2, 0, 1, -1, 3, 0, 1],
        [4, 0, 2, -2, 6, 0, 2],
        [1, 1, 0, 0, 1, 1, 0],
        [0, 2, 1, 3, 0, -1, 1],
        [3, 1, 1, -1, 4, 1, 1],
    ]
    print("  fixed 5x7 sample ->", rank_by_minors(m57))
    print()

    print("half-open parallelepiped scans:")
    for gens in [
        [(1, 0), (1, 2)],
        [(1, 0), (2, 5)],
        [(-1, -2, -2, -2), (1, 0, 0, 0)],
    ]:
        pts = box_points_scan(gens)
        print(f"  gens {gens}:")
        for kappa, coeffs in pts:
            age = sum(coeffs)
            print(f"    point {kappa} coeffs {tuple(str(c) for c in coeffs)} age {age}")
    print()

    print("weighted-degree monomial counts (lattice points of the dual simplex):")
    for w in [(1, 1, 1, 1, 1), (1, 1, 2, 2, 2), (1, 1, 1, 1, 2), (1, 1, 1, 1, 4), (1, 1, 2, 2, 2, 2)]:
        total = sum(w)
        mons = weighted_monomials(list(w), total)
        facet_ints = [weighted_face_interior_count(list(w), {i}) for i in range(len(w))]
        print(f"  weights {w} degree {total}: count {len(mons)}, facet interiors {facet_ints}, gamma {len(w) + sum(facet_ints)}")
    print()

    print("pairwise zero-set interiors for weights (1,1,2,2,2) (dual 2-face counts):")
    for pair in combinations(range(5), 2):
        c = weighted_face_interior_count([1, 1, 2, 2, 2], set(pair))
        print(f"  zero set {pair}: {c}")
    print()

    print("pairwise zero-set interiors for weights (1,1,2,2,2,2) (dual 3-face counts):")
    for pair in combinations(range(6), 2):
        c = weighted_face_interior_count([1, 1, 2, 2, 2, 2], set(pair))
        print(f"  zero set {pair}: {c}")
    print()

    print("cube counts:")
    print("  [-1,1]^4 ->", cube_lattice_count(4))

    print()
    print("hull membership spot checks (Caratheodory):")
    sq = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
    print("  (0,0) in square:", in_hull(sq, (0, 0)))
    print("  (2,0) in square:", in_hull(sq, (2, 0)))
    print("  3-cube lattice points:", len(hull_lattice_points([p for p in product((-1, 1), repeat=3)])))


if __name__ == "__main__":
    main()
