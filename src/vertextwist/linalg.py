"""Exact linear algebra over a field of exact scalars.

Matrices are lists of rows of canonical scalars (`scalars`: rationals or
elements of the cyclotomic field); elimination asks the scalar ring for
each pivot's inverse and knows nothing of how a scalar is stored.
"""

from __future__ import annotations

from .scalars import inverse


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            x = a[i][t]
            if not x:
                continue
            for j in range(m):
                if b[t][j]:
                    out[i][j] = out[i][j] + x * b[t][j]
    return out


def mat_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _reduce(rows, ncols):
    """Gauss-Jordan on the first ncols columns of rows, in place, exactly.

    Returns the pivot columns; row i of the result leads with pivots[i].
    """
    n = len(rows)
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == n:
            break
        piv = next((i for i in range(r, n) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = inverse(rows[r][col])
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    return pivots


def kernel_basis(mat):
    """Basis of the kernel of a matrix, by exact Gaussian elimination."""
    if not mat:
        return []
    rows = [list(r) for r in mat]
    m = len(rows[0])
    pivots = _reduce(rows, m)
    out = []
    for fc in range(m):
        if fc in pivots:
            continue
        v = [0] * m
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        out.append(v)
    return out


def solve(mat, rhss):
    """Solve mat * x = b over the cyclotomic field for every b in rhss, in
    one elimination; the list of solutions, or None if some b is
    inconsistent."""
    m = len(mat[0])
    rows = [list(r) + [b[i] for b in rhss] for i, r in enumerate(mat)]
    pivots = _reduce(rows, m)
    if any(x for row in rows[len(pivots):] for x in row[m:]):
        return None
    out = []
    for j in range(m, m + len(rhss)):
        x = [0] * m
        for i, pc in enumerate(pivots):
            x[pc] = rows[i][j]
        out.append(x)
    return out
