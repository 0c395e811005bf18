import random
from fractions import Fraction
from itertools import combinations
from math import gcd

from spinetorsion.fields import FunctionField
from spinetorsion.intlinalg import smith_normal_form


def minors_gcd(matrix, rows, cols, k):
    """gcd of all k x k minors; the classical oracle for Smith invariants."""
    if k == 0:
        return 1
    g = 0
    for rr in combinations(range(rows), k):
        for cc in combinations(range(cols), k):
            sub = [[matrix[i][j] for j in cc] for i in rr]
            g = gcd(g, _int_det(sub))
    return abs(g)


def _int_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    out = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [[m[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = m[0][j] * _int_det(minor)
        out += term if j % 2 == 0 else -term
    return out


def mat_mul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B)))
             for j in range(len(B[0]))] for i in range(len(A))]


def test_smith_normal_form_random_matrices():
    rnd = random.Random(9)
    for _ in range(25):
        rows, cols = rnd.randint(1, 4), rnd.randint(1, 4)
        A = [[rnd.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        U, D, V = smith_normal_form(A, rows, cols)
        assert mat_mul(mat_mul(U, A), V) == D
        diag = [D[i][i] for i in range(min(rows, cols))]
        for i in range(len(diag) - 1):
            if diag[i] != 0:
                assert diag[i + 1] % diag[i] == 0
            else:
                assert diag[i + 1] == 0
        # off-diagonal zero
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert D[i][j] == 0
        # invariant factors against the minors-gcd oracle
        prev = 1
        for k in range(1, min(rows, cols) + 1):
            dk = minors_gcd(A, rows, cols, k)
            expect = 0 if dk == 0 else dk // prev
            if diag[k - 1] != expect:
                assert dk != 0 or diag[k - 1] == 0
            assert diag[k - 1] == expect
            if dk == 0:
                break
            prev = dk


def test_rational_nullspace():
    F = FunctionField(0)
    A = [[1, 2, 3], [2, 4, 6]]
    M = [[F.from_int(a) for a in row] for row in A]
    basis = F.nullspace(M)
    assert len(basis) == 2
    for v in basis:
        for row in A:
            assert sum(Fraction(a) * x.as_fraction() for a, x in zip(row, v)) == 0
    assert F.rank(M) == 1
