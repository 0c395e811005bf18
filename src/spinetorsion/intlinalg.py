"""Exact integer linear algebra: the Smith normal form."""


def smith_normal_form(matrix, rows, cols):
    """Smith normal form with transforms: returns (U, D, V) with U*A*V = D.

    ``matrix`` is a list of ``rows`` lists of ``cols`` ints.  U and V are
    unimodular; D is diagonal with nonnegative entries d_1 | d_2 | ...
    """
    A = [list(r) for r in matrix]
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(i, j, q):  # row i -= q * row j
        for k in range(cols):
            A[i][k] -= q * A[j][k]
        for k in range(rows):
            U[i][k] -= q * U[j][k]

    def col_op(i, j, q):  # col i -= q * col j
        for r in range(rows):
            A[r][i] -= q * A[r][j]
        for r in range(cols):
            V[r][i] -= q * V[r][j]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in range(rows):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(cols):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    t = 0
    while t < min(rows, cols):
        # Find the nonzero entry of smallest absolute value in the working block.
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if A[i][j] != 0 and (pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        dirty = False
        for i in range(t + 1, rows):
            if A[i][t] % A[t][t] != 0:
                dirty = True
            row_op(i, t, A[i][t] // A[t][t])
        for j in range(t + 1, cols):
            if A[t][j] % A[t][t] != 0:
                dirty = True
            col_op(j, t, A[t][j] // A[t][t])
        if dirty or any(A[i][t] for i in range(t + 1, rows)) or \
                any(A[t][j] for j in range(t + 1, cols)):
            continue
        # Enforce the divisibility chain d_t | d_{t+1}.
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if A[i][j] % A[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_op(t, bad, -1)
            continue
        if A[t][t] < 0:
            for k in range(cols):
                A[t][k] = -A[t][k]
            for k in range(rows):
                U[t][k] = -U[t][k]
        t += 1
    return U, A, V

