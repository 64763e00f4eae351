"""Reference arithmetic for the checkers, in plain ``fractions``.

A complex number is a pair ``(re, im)`` of ``Fraction`` values, a vector is
a list of them and a matrix is a list of rows. Nothing here imports qgap, so
a checker built on it does not share code with the layer it checks.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))
I = (Fraction(0), Fraction(1))


def c(re, im=0):
    return (Fraction(re), Fraction(im))


def add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def conj(a):
    return (a[0], -a[1])


def div(a, b):
    norm = b[0] * b[0] + b[1] * b[1]
    return mul(a, (b[0] / norm, -b[1] / norm))


def is_zero(a):
    return a[0] == 0 and a[1] == 0


def dot(u, v):
    """Hermitian inner product, conjugate-linear in ``u``."""
    acc = ZERO
    for x, y in zip(u, v):
        acc = add(acc, mul(conj(x), y))
    return acc


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def matmul(a, b):
    cols = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in cols:
            acc = ZERO
            for x, y in zip(row, col):
                acc = add(acc, mul(x, y))
            out_row.append(acc)
        out.append(out_row)
    return out


def mat_add(a, b):
    return [[add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def adjoint(a):
    return [[conj(x) for x in col] for col in zip(*a)]


def apply(a, v):
    out = []
    for row in a:
        acc = ZERO
        for x, y in zip(row, v):
            acc = add(acc, mul(x, y))
        out.append(acc)
    return out


def columns(a):
    return [list(col) for col in zip(*a)]


def kron(a, b):
    return [
        [mul(x, y) for x in ra for y in rb]
        for ra in a
        for rb in b
    ]


def outer_projector(v):
    """The rank-one projector v v* / <v, v>."""
    norm = dot(v, v)
    return [[div(mul(x, conj(y)), norm) for y in v] for x in v]


def rank(rows):
    """Rank of a list of vectors by Gaussian elimination."""
    work = [list(r) for r in rows]
    if not work:
        return 0
    n_cols = len(work[0])
    r = 0
    for col in range(n_cols):
        pivot = next((i for i in range(r, len(work)) if not is_zero(work[i][col])), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        head = work[r][col]
        for i in range(r + 1, len(work)):
            if not is_zero(work[i][col]):
                f = div(work[i][col], head)
                work[i] = [sub(x, mul(f, y)) for x, y in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return r


def to_text(a):
    """Render in the CLI's scalar syntax: ``a/b``, ``c/d*i`` or ``a/b+c/d*i``."""
    re, im = a
    if im == 0:
        return str(re)
    imag = f"{abs(im)}*i"
    if re == 0:
        return imag if im > 0 else f"-{imag}"
    return f"{re}{'+' if im > 0 else '-'}{imag}"
