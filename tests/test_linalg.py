import random
from fractions import Fraction

import oracles
from reflexorb.linalg import (
    identity_matrix,
    independent_rows,
    rank_mod_p,
    rational_rank,
    smith_normal_form,
)

from pairing import integer_determinant, rational_kernel_basis

SIMPLEX_RAYS = [
    (-1, -2, -2, -2),
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
]


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def matrix_multiply(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def diagonal_of(d):
    return [d[i][i] for i in range(min(len(d), len(d[0])))]


def test_snf_fixed_diag():
    d, u, v = smith_normal_form([[2, 0], [0, 3]])
    assert diagonal_of(d) == [1, 6]
    assert matrix_multiply(matrix_multiply(u, [[2, 0], [0, 3]]), v) == d


def test_snf_edge_cone_rows():
    m = [list(SIMPLEX_RAYS[0]), list(SIMPLEX_RAYS[1])]
    d, u, v = smith_normal_form(m)
    divisors = [x for x in diagonal_of(d) if x != 0]
    assert divisors == [1, 2]
    prod = 1
    for x in divisors:
        prod *= x
    assert prod == 2


def test_snf_random_suite():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        d, u, v = smith_normal_form(m)
        assert matrix_multiply(matrix_multiply(u, m), v) == d
        assert abs(oracles.det_perm(u)) == 1
        assert abs(oracles.det_perm(v)) == 1
        diag = diagonal_of(d)
        for i in range(len(d)):
            for j in range(len(d[0])):
                if i != j:
                    assert d[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0


def test_rank_zero_and_identity():
    assert rational_rank([[0, 0], [0, 0]]) == 0
    assert rational_rank(identity_matrix(4)) == 4


def test_rank_against_minor_oracle():
    rng = random.Random(11)
    for _ in range(12):
        m = random_matrix(rng, 5, 7, -3, 3)
        assert rational_rank(m) == oracles.rank_by_minors(m)


def test_rank_transpose_suite():
    rng = random.Random(99)
    for _ in range(30):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = random_matrix(rng, rows, cols)
        t = [[m[i][j] for i in range(rows)] for j in range(cols)]
        assert rational_rank(m) == rational_rank(t)


def test_rank_accepts_fractions():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 2)]]
    assert rational_rank(m) == 2
    assert rational_rank([[Fraction(1, 2), Fraction(1, 4)], [Fraction(2), Fraction(1)]]) == 1


MERSENNE_61 = 2**61 - 1


def low_rank_matrix(rng, rows, cols, rank, lo=-9, hi=9):
    left = random_matrix(rng, rows, rank, lo, hi)
    right = random_matrix(rng, rank, cols, lo, hi)
    return matrix_multiply(left, right)


def test_independent_rows_match_the_per_trial_rank_loop():
    # each set mixes random rows with combinations of earlier ones and
    # zero rows, so some rows are dependent and must be skipped
    rng = random.Random(41)
    for _ in range(200):
        cols = rng.randint(1, 6)
        rows = []
        for _ in range(rng.randint(1, 10)):
            kind = rng.random()
            if rows and kind < 0.4:
                a, b = rng.choice(rows), rng.choice(rows)
                s, t = rng.randint(-3, 3), rng.randint(-3, 3)
                rows.append([s * x + t * y for x, y in zip(a, b)])
            elif kind < 0.5:
                rows.append([0] * cols)
            else:
                rows.append([rng.randint(-9, 9) for _ in range(cols)])
        limit = rng.randint(1, cols + 1)
        kept = []
        for i, row in enumerate(rows):
            if rational_rank([rows[j] for j in kept] + [row]) == len(kept) + 1:
                kept.append(i)
                if len(kept) == limit:
                    break
        assert independent_rows(rows, limit) == kept
        assert independent_rows(iter(rows), limit) == kept


def test_rank_mod_p_matches_rational_rank():
    rng = random.Random(61)
    shapes = [(3, 12), (12, 3), (7, 7), (1, 5), (5, 1), (20, 40)]
    for rows, cols in shapes:
        m = random_matrix(rng, rows, cols)
        assert rank_mod_p(m, MERSENNE_61) == rational_rank(m) == min(rows, cols)
    for rows, cols, rank in [(6, 9, 4), (9, 6, 2), (8, 8, 5), (10, 30, 7), (5, 5, 0)]:
        m = low_rank_matrix(rng, rows, cols, rank)
        assert rank_mod_p(m, MERSENNE_61) == rational_rank(m) == rank, (rows, cols, rank)


def test_rank_mod_p_large_entries():
    rng = random.Random(62)
    for rows, cols, rank in [(4, 6, 4), (6, 4, 4), (7, 9, 3)]:
        m = low_rank_matrix(rng, rows, cols, rank, -(2**70), 2**70)
        assert any(abs(x) > 2**61 for row in m for x in row)
        assert rank_mod_p(m, MERSENNE_61) == rational_rank(m) == rank
    assert rank_mod_p([[MERSENNE_61 + 1, 2**62], [1, 4]], MERSENNE_61) == 2


def test_rank_mod_p_zero_and_empty():
    assert rank_mod_p([], MERSENNE_61) == 0
    assert rank_mod_p([[0, 0], [0, 0]], MERSENNE_61) == 0
    assert rank_mod_p(identity_matrix(4), MERSENNE_61) == 4


def test_rank_mod_p_can_fall_below_rational_rank():
    # the lower bound is one-sided: a small prime can kill a pivot
    for p in (2, 3, 7):
        m = [[p, 0], [0, 1]]
        assert rank_mod_p(m, p) == 1 < rational_rank(m) == 2
    assert rank_mod_p([[1, 2], [3, 1]], 5) == 1 < rational_rank([[1, 2], [3, 1]])


def test_determinant_fixed():
    assert integer_determinant(identity_matrix(5)) == 1
    dets = []
    for drop in range(5):
        sub = [list(SIMPLEX_RAYS[i]) for i in range(5) if i != drop]
        dets.append(integer_determinant(sub))
    # frozen from the permutation-expansion oracle
    assert dets == [1, -1, 2, -2, 2]


def test_determinant_rejects_non_square():
    try:
        integer_determinant([[1, 2, 3], [4, 5, 6]])
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")


def test_determinant_against_perm_oracle():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n, -6, 6)
        assert integer_determinant(m) == oracles.det_perm(m)


def test_determinant_matches_snf_divisor_product():
    rng = random.Random(13)
    done = 0
    while done < 20:
        n = rng.randint(2, 5)
        m = random_matrix(rng, n, n, -5, 5)
        det = integer_determinant(m)
        if det == 0:
            continue
        d, u, v = smith_normal_form(m)
        prod = 1
        for x in diagonal_of(d):
            prod *= x
        assert prod == abs(det)
        done += 1


def test_integer_routines_reject_fractions():
    try:
        smith_normal_form([[Fraction(1, 2)]])
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")


def test_kernel_basis():
    # rows sum to zero combination: kernel of [[1,1,1],[0,1,1]] is span (0,1,-1)
    basis = rational_kernel_basis([[1, 1, 1], [0, 1, 1]])
    assert len(basis) == 1
    vec = basis[0]
    assert vec[0] == 0 and vec[1] == -vec[2] and vec[1] != 0
    # full-rank square matrix has trivial kernel
    assert rational_kernel_basis([[2, 1], [1, 1]]) == []


def test_kernel_vectors_annihilate():
    rng = random.Random(3)
    for _ in range(15):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 6)
        m = random_matrix(rng, rows, cols, -4, 4)
        for vec in rational_kernel_basis(m):
            for row in m:
                assert sum(a * b for a, b in zip(row, vec)) == 0
