"""Exact linear algebra over the integers and rationals.

Matrices are plain nested lists in row-major order. Integer routines demand
int entries; rational routines accept ints or Fractions. Nothing here touches
floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

IntMatrix = list[list[int]]


def _copy_int_matrix(m) -> IntMatrix:
    out = []
    width = None
    for row in m:
        r = list(row)
        if width is None:
            width = len(r)
        elif len(r) != width:
            raise ValueError("ragged matrix")
        for x in r:
            if not isinstance(x, int):
                raise ValueError(f"integer matrix required, got {x!r}")
        out.append(r)
    return out


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _row_sub(m, i, j, q):
    if q:
        mi, mj = m[i], m[j]
        for k in range(len(mi)):
            mi[k] -= q * mj[k]


def _row_negate(m, i):
    m[i] = [-x for x in m[i]]


def smith_normal_form(m) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with transforms.

    Returns (d, u, v) with u, v unimodular, u * m * v = d, d diagonal with
    nonnegative entries and d[i] | d[i+1] along the chain.
    """
    d = _copy_int_matrix(m)
    rows = len(d)
    cols = len(d[0]) if rows else 0
    u = identity_matrix(rows)
    v = identity_matrix(cols)
    t = 0
    while True:
        pos = _min_nonzero(d, t)
        if pos is None:
            break
        i, j = pos
        if i != t:
            d[t], d[i] = d[i], d[t]
            u[t], u[i] = u[i], u[t]
        if j != t:
            _col_swap(d, t, j)
            _col_swap(v, t, j)
        # clear row and column t, restarting when remainders appear
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    _row_sub(d, i, t, q)
                    _row_sub(u, i, t, q)
                    if d[i][t] != 0:
                        d[t], d[i] = d[i], d[t]
                        u[t], u[i] = u[i], u[t]
                        dirty = True
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    _col_sub(d, j, t, q)
                    _col_sub(v, j, t, q)
                    if d[t][j] != 0:
                        _col_swap(d, t, j)
                        _col_swap(v, t, j)
                        dirty = True
            if not dirty:
                break
        # enforce divisibility of the remaining block
        offender = None
        if d[t][t] != 0:
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if d[i][j] % d[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
        if offender is not None:
            _row_sub(d, t, offender, -1)
            _row_sub(u, t, offender, -1)
            continue
        if d[t][t] < 0:
            _row_negate(d, t)
            _row_negate(u, t)
        t += 1
    return d, u, v


def _min_nonzero(d, t):
    best = None
    for i in range(t, len(d)):
        for j in range(t, len(d[i])):
            if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                best = (i, j)
    return best


def _col_swap(m, a, b):
    for row in m:
        row[a], row[b] = row[b], row[a]


def _col_sub(m, a, b, q):
    if q:
        for row in m:
            row[a] -= q * row[b]


def _rows_as_integers(m) -> IntMatrix:
    out = []
    for row in m:
        r = list(row)
        if any(isinstance(x, Fraction) for x in r):
            fracs = [Fraction(x) for x in r]
            # an lcm of the denominators: each entry scales exactly to an int
            scale = lcm(*(f.denominator for f in fracs))
            out.append([f.numerator * (scale // f.denominator) for f in fracs])
        else:
            out.append([int(x) for x in r])
    return out


def rational_rank(m) -> int:
    """Rank over the rationals. Accepts int or Fraction entries; rows are
    cleared to integers, then eliminated fraction-free."""
    a = _rows_as_integers(m)
    rows = len(a)
    if rows == 0:
        return 0
    cols = len(a[0])
    rank = 0
    prev = 1
    for col in range(cols):
        piv = next((i for i in range(rank, rows) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, rows):
            for j in range(col + 1, cols):
                a[i][j] = (a[i][j] * a[rank][col] - a[i][col] * a[rank][j]) // prev
            a[i][col] = 0
        prev = a[rank][col]
        rank += 1
        if rank == rows:
            break
    return rank


def independent_rows(rows, limit: int) -> list[int]:
    """Indices of the greedy first independent integer rows: a row is kept
    when it is independent of the rows kept before it, until limit are
    kept. One incremental fraction-free echelon form: each new row is
    reduced against the kept rows' primitive echelon rows, each zero in the
    pivot columns of those before it, and is independent exactly when
    something is left. Rows may come from a generator, read only as far as
    needed."""
    kept: list[int] = []
    echelon: list[tuple[int, list[int]]] = []  # (pivot column, primitive row)
    for i, row in enumerate(rows):
        r = list(row)
        for col, b in echelon:
            f = r[col]
            if f:
                r = [b[col] * x - f * y for x, y in zip(r, b)]
        piv = next((c for c, x in enumerate(r) if x), None)
        if piv is None:
            continue
        g = gcd(*r)
        echelon.append((piv, [x // g for x in r]))
        kept.append(i)
        if len(kept) == limit:
            break
    return kept


def rank_mod_p(m, p: int) -> int:
    """Rank over GF(p), p prime, of an integer matrix. Never above the rank
    over Q, so reaching the row count certifies full row rank."""
    a = [[x % p for x in row] for row in m]
    rows = len(a)
    if rows == 0:
        return 0
    rank = 0
    for col in range(len(a[0])):
        piv = next((i for i in range(rank, rows) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, p)
        top = [x * inv % p for x in a[rank][col:]]
        for i in range(rank + 1, rows):
            f = a[i][col]
            if f:
                a[i][col:] = [(x - f * y) % p for x, y in zip(a[i][col:], top)]
        rank += 1
        if rank == rows:
            break
    return rank
