"""Exact linear algebra over the rationals and the cyclotomic field."""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar, cyclotomic_level, terms_of

F0 = Fraction(0)
F1 = Fraction(1)


# -- cyclotomic arithmetic ---------------------------------------------------

def _scalar_to_poly(s):
    """Coefficients of s on the basis zeta^k, zeta = e(1/M), for pi-free s."""
    m = cyclotomic_level()
    out = [F0] * m
    for (p, k), c in terms_of(s).items():
        if p != 0:
            raise ValueError("scalar involves PI, not a cyclotomic number: %r" % s)
        out[k] += c
    return out


def _poly_to_scalar(coeffs):
    m = cyclotomic_level()
    out = 0
    for k, c in enumerate(coeffs):
        if c:
            out = out + Scalar.e(Fraction(k, m)) * c
    return out


def _poly_divmod(a, b):
    a = list(a)
    db = max(i for i, c in enumerate(b) if c)
    q = [F0] * (max(len(a) - db, 1))
    for i in range(len(a) - 1, db - 1, -1):
        if a[i]:
            f = a[i] / b[db]
            q[i - db] = f
            for j in range(db + 1):
                a[i - db + j] -= f * b[j]
    return q, a[:db] or [F0]


def _poly_mul(a, b):
    out = [F0] * (len(a) + len(b) - 1 or 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = a + [F0] * (n - len(a))
    b = b + [F0] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _trim(a):
    while len(a) > 1 and not a[-1]:
        a = a[:-1]
    return a


def cyclo_inverse(s):
    """Inverse in Q(zeta_2M) via extended Euclid mod x^M + 1 (irreducible for
    M a power of two); a rational's inverse is the exact Fraction."""
    if not isinstance(s, Scalar):
        if not s:
            raise ZeroDivisionError("cyclotomic inverse of zero")
        return F1 / s
    m = cyclotomic_level()
    modulus = [F1] + [F0] * (m - 1) + [F1]
    old_r, r = _trim(_scalar_to_poly(s)), modulus
    old_t, t = [F1], [F0]
    while any(r):
        q, rem = _poly_divmod(old_r, r)
        old_r, r = r, _trim(rem)
        old_t, t = t, _trim(_poly_sub(old_t, _poly_mul(q, t)))
    if _trim(old_r) == [F0] or max(i for i, c in enumerate(old_r) if c) != 0:
        raise ZeroDivisionError("not invertible mod x^M+1: %r" % s)
    res = [c / old_r[0] for c in old_t]
    _, res = _poly_divmod(res, modulus)
    res = res + [F0] * (m - len(res))
    return _poly_to_scalar(res[:m])


# -- matrices over the scalar ring -------------------------------------------

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
        inv = cyclo_inverse(rows[r][col])
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
