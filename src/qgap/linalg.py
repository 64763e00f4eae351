"""Dense exact linear algebra over the Gaussian rationals.

Matrices and state vectors are immutable values (``scalars.Frozen``), equal
and hashed by their field tuples. Every operation returns a fresh result and
is referentially transparent. There is no floating point anywhere:
elimination uses exact division, so reduced row-echelon forms are
canonical rather than tolerance-dependent.

``@`` is the one product loop: ``Matrix.apply`` is its one-column case and
``inner`` a one-row ``apply``. It runs over the nonzero entries only, and a
sum combines only where both entries are nonzero. The spin projectors and
states of the pair space are mostly zeros, and adding an exact zero changes
no canonical triple, so the results are the same values without those
multiplies and adds.

Elimination, ranks, projector construction, the idempotence and
orthogonality checks and valuation's two tests run on Gaussian integers.
``_integer_rows`` scales each row by the lcm of its denominators and keeps
its real and imaginary numerators as two ``int`` lists; ``_eliminate``
reduces such rows by fraction-free Gauss-Jordan, and each cleared row loses
its integer content, which bounds the integers' growth. It puts new rows
into the lists it is given and never writes into a row, so a row may be a
cached tuple. Three private kernels take such rows and build
``GaussianRational`` values only for their result: ``_reduced`` divides
each pivot row by its pivot, one canonical triple per entry, and returns
only the nonzero rows, as ``StateVector``s with their integer forms already
stored, for ``lattice``'s one basis builder; ``_rank`` counts the pivots of
a forward elimination, for ``lattice.Subspace.contains`` and ``leq``;
``_projection`` solves the Gram system behind ``projectors.projector_onto``,
and on request returns I minus its projector. ``_null_rows`` runs no
elimination: it reads Gaussian-integer rows spanning the orthocomplement
of a canonical basis straight off the basis's integer forms, for
``lattice.Subspace.orthocomplement`` and for ``projector_onto`` on a range
larger than half the space.
``Matrix.rref`` is the entries of ``_reduced``'s vectors padded with zero
rows; its one caller in the library is the canonical-basis check of
``lattice.Subspace``, which compares a basis from outside with its reduced
form.

Two integer views are cached on values, as tuples: ``Matrix._integer_pattern``
and ``StateVector._integer_form``, each computed on first use. ``_reduced``
stores the form of every canonical basis vector it builds, which is the one
first use would compute.
``_integer_forms`` stacks vectors' forms as an elimination's input; the
lattice's meet, join, complement, ``contains`` and ``leq`` and
``projectors.projector_onto`` read their operands' bases that way, so a
lattice result is never scaled again. ``_is_idempotent`` decides the
idempotence check of ``projectors.Projector``, and ``_kills_or_fixes``
decides whether a matrix sends a state to zero or to itself, which is all
``propositions.valuate`` asks; both read the two views and build no scalar
at all. ``_trace_of_product_is_zero`` decides tr(PQ) = 0 for two Hermitian
matrices, the orthogonality test of ``projectors.Projector.sum`` and
``orthogonal_to``; it reads the entries' canonical triples directly, with
neither view, and builds no scalar either.

A kernel branch that only saves time has a test that fails without it or
its measured cost beside it: in process on the named workload's seed-7
inputs, min of 5-9 passes, three alternating processes per side (2-vCPU
VM, Python 3.11.7).

A matrix keeps its nonzero pattern, per row the ``(column, entry)`` pairs
of its nonzero entries, computed on first use. A product accumulates each
output row over the left operand's pattern and the right operand's
(row-wise sparse accumulation): each output entry gets its terms in
ascending inner index, the first one stored and each later one added.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import InvalidStateError, ShapeError
from .scalars import ONE, ZERO, Frozen, GaussianRational, Scalarish, _reduce, coerce_scalar


class Matrix(Frozen):
    _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[Scalarish]) -> None:
        entries = tuple([coerce_scalar(v) for v in entries])
        if rows < 1 or cols < 1:
            raise ShapeError(f"matrix must be at least 1x1, got {rows}x{cols}")
        if len(entries) != rows * cols:
            raise ShapeError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalarish]]) -> "Matrix":
        if not rows or not rows[0]:
            raise ShapeError("matrix needs at least one row and one column")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ShapeError("ragged rows")
        return cls(len(rows), ncols, [v for row in rows for v in row])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, tuple(ZERO for _ in range(rows * cols)))

    @cached_property
    def _nonzeros(self) -> tuple[tuple[tuple[int, GaussianRational], ...], ...]:
        """Per row, the (column, entry) pairs of its nonzero entries, in column order."""
        c = self.cols
        return tuple(
            tuple((j, x) for j, x in enumerate(self.entries[i * c : (i + 1) * c]) if not x.is_zero)
            for i in range(self.rows)
        )

    @cached_property
    def _integer_pattern(self) -> tuple[int, tuple[tuple[tuple[int, int, int], ...], ...]]:
        """The matrix as A / L: the lcm L of all its denominators, and per row the (column, re, im) of A's nonzero entries.

        Written out rather than read off ``_integer_rows``, which also scales
        the zero entries: on the compiled projectors of valuate_mix that took
        twice as long.
        """
        entries, c = self.entries, self.cols
        scale = lcm(*[x._d for x in entries])
        rows = []
        for i in range(0, len(entries), c):
            row = []
            for j in range(c):
                x = entries[i + j]
                if x._a or x._b:
                    k = scale // x._d
                    row.append((j, x._a * k, x._b * k))
            rows.append(tuple(row))
        return scale, tuple(rows)

    def at(self, i: int, j: int) -> GaussianRational:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[GaussianRational, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[GaussianRational, ...]:
        return self.entries[j :: self.cols]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(f"cannot add {self.rows}x{self.cols} and {other.rows}x{other.cols}")
        return Matrix._of(
            self.rows,
            self.cols,
            tuple([(a + b if b._a or b._b else a) if a._a or a._b else b for a, b in zip(self.entries, other.entries)]),
        )

    def scale(self, factor: Scalarish) -> "Matrix":
        f = coerce_scalar(factor)
        return Matrix._of(self.rows, self.cols, tuple(e if e.is_zero else f * e for e in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        b_rows, n = other._nonzeros, other.cols
        entries: list[GaussianRational] = []
        for a_row in self._nonzeros:
            acc: list[GaussianRational | None] = [None] * n
            for k, x in a_row:
                for j, y in b_rows[k]:
                    s = acc[j]
                    acc[j] = x * y if s is None else s + x * y
            entries.extend(ZERO if s is None else s for s in acc)
        return Matrix._of(self.rows, n, tuple(entries))

    def apply(self, state: "StateVector") -> tuple[GaussianRational, ...]:
        """Matrix-vector product as ``@`` of the state's one-column matrix, returned raw so callers can see a zero image."""
        if self.cols != state.dim:
            raise ShapeError(f"cannot apply {self.rows}x{self.cols} to dim-{state.dim} vector")
        return (self @ Matrix._of(state.dim, 1, state.entries)).entries

    def is_hermitian(self) -> bool:
        """Each entry on or above the diagonal equals the conjugate of its mirror image.

        Compared on the canonical triples: the conjugate of (a + b*i)/d is
        (a - b*i)/d, itself canonical, so no conjugate is built.
        """
        if not self.is_square:
            return False
        e, n = self.entries, self.cols
        for i in range(n):
            for j in range(i, n):
                x, y = e[i * n + j], e[j * n + i]
                if x._a != y._a or x._b != -y._b or x._d != y._d:
                    return False
        return True

    def rref(self) -> "Matrix":
        """Reduced row-echelon form.

        Pivot choice is the first nonzero entry in column order (exact
        arithmetic needs no magnitude pivoting), pivots are normalized to 1,
        pivot columns are cleared above and below, zero rows sink to the
        bottom. The result is the canonical representative of the row space:
        ``_reduced`` of the rows scaled to Gaussian integers, padded with the
        zero rows.
        """
        basis = _reduced(*_integer_rows([self.row(i) for i in range(self.rows)]), self.cols)
        entries = [e for v in basis for e in v.entries]
        entries.extend([ZERO] * (self.rows * self.cols - len(entries)))
        return Matrix._of(self.rows, self.cols, tuple(entries))

    def __str__(self) -> str:
        return "[" + ",".join("[" + ",".join(str(e) for e in self.row(i)) + "]" for i in range(self.rows)) + "]"


def _integer_rows(rows: Iterable[Sequence[GaussianRational]]) -> tuple[list[list[int]], list[list[int]]]:
    """Each row times the lcm of its denominators: per row its real and its imaginary numerators.

    The loops are written out: on rows this short they beat comprehensions.
    """
    re: list[list[int]] = []
    im: list[list[int]] = []
    for row in rows:
        scale = lcm(*[x._d for x in row])
        xr: list[int] = []
        xi: list[int] = []
        for x in row:
            k = scale // x._d
            xr.append(x._a * k)
            xi.append(x._b * k)
        re.append(xr)
        im.append(xi)
    return re, im


def _integer_forms(vectors: Iterable["StateVector"]) -> tuple[list[Sequence[int]], list[Sequence[int]]]:
    """The vectors' cached integer forms, as the real and the imaginary rows of an elimination's input.

    The lists are fresh, since ``_eliminate`` reorders and replaces their
    rows; the rows are the cached tuples themselves, which it only reads.
    """
    re: list[Sequence[int]] = []
    im: list[Sequence[int]] = []
    for v in vectors:
        vr, vi = v._integer_form
        re.append(vr)
        im.append(vi)
    return re, im


def _eliminate(re: list[Sequence[int]], im: list[Sequence[int]], cols: int, *, above: bool = True) -> list[int]:
    """Fraction-free Gauss-Jordan on Gaussian-integer rows, in place in the two lists; returns the pivot columns.

    Row k of the result has its pivot at the k-th returned column, and every
    other row is zero there. The pivot is the first nonzero entry in column
    order among the rows not yet used, as in ``Matrix.rref``. Each row x
    with a nonzero entry f in the pivot column becomes p*x - f*y, for y the
    pivot row and p its pivot, and then loses its integer content, the gcd
    of all its parts; a row with a zero there is left alone. A row that
    cancels to zero has gcd 0, and ``g > 1`` leaves it alone too. Only the
    first ``cols`` columns are searched for pivots; later ones ride along.
    With ``above`` false only the rows below each pivot are cleared, which
    leaves a row-echelon form with the same pivots. A changed row is a new
    list put in place of the old one, which is never written into.

    Content removal changes no answer, only the size of the integers, and
    it pays at the tail: without it, on the first 2200 LatticeMix(7) inputs
    in process (min of 5 passes, three alternating processes per side,
    2-vCPU VM, Python 3.11.7), p50 fell from 50-54 to 42-44 us per op, but
    p99 rose from 348-414 to 473-525 us and the max from 1.05-1.19 to
    1.59-1.69 ms.
    """
    n = len(re)
    pivots: list[int] = []
    for col in range(cols):
        r = len(pivots)
        for src in range(r, n):
            if re[src][col] or im[src][col]:
                break
        else:
            continue
        re[r], re[src], im[r], im[src] = re[src], re[r], im[src], im[r]
        yr, yi = re[r], im[r]
        pr, pi = yr[col], yi[col]
        for i in range(0 if above else r + 1, n):
            fr, fi = re[i][col], im[i][col]
            # Canonical operands are zero at each other's pivots; rewriting those rows cost lattice_mix ~20% per op.
            if i == r or not fr and not fi:
                continue
            nr: list[int] = []
            ni: list[int] = []
            for a, b, c, d in zip(re[i], im[i], yr, yi):
                nr.append(pr * a - pi * b - fr * c + fi * d)
                ni.append(pr * b + pi * a - fr * d - fi * c)
            g = gcd(*nr, *ni)
            if g > 1:
                for j in range(len(nr)):
                    nr[j] //= g
                    ni[j] //= g
            re[i], im[i] = nr, ni
        pivots.append(col)
    return pivots


def _reduced(re: list[Sequence[int]], im: list[Sequence[int]], cols: int) -> list["StateVector"]:
    """The nonzero rows of the reduced row-echelon form of Gaussian-integer rows, as canonical vectors with their integer forms.

    ``_eliminate`` reduces the rows in place, and each pivot row x with
    pivot p is then divided by it, one canonical triple per entry; the zero
    rows are left out. Each vector's ``_integer_form`` is stored with it,
    the real and imaginary numerators ``_integer_rows`` would compute from
    its entries: with X = x * conj(p) and G the gcd of all parts of X and
    of |p|^2, the row is X / |p|^2, and the lcm of its reduced denominators
    is |p|^2 / G, so its numerators are X / G.
    """
    basis = []
    for r, col in enumerate(_eliminate(re, im, cols)):
        yr, yi = re[r], im[r]
        p, q = yr[col], yi[col]
        d = p * p + q * q
        # x / p = x * conj(p) / |p|^2
        xr = [a * p + b * q for a, b in zip(yr, yi)]
        xi = [b * p - a * q for a, b in zip(yr, yi)]
        g = gcd(*xr, *xi, d)
        vr = tuple([a // g for a in xr])
        vi = tuple([b // g for b in xi])
        s = d // g
        # ZERO for a zero entry, not _reduce(0, 0, s): 1-4% of lattice_mix per op.
        v = StateVector._of(tuple([_reduce(a, b, s) if a or b else ZERO for a, b in zip(vr, vi)]))
        v.__dict__["_integer_form"] = vr, vi  # the cached property's value, stored where it would store it
        basis.append(v)
    return basis


def _rank(re: list[Sequence[int]], im: list[Sequence[int]], cols: int) -> int:
    """The rank of Gaussian-integer rows of length cols: their pivot count under a forward ``_eliminate``, no reduced form built; no rows have rank 0."""
    return len(_eliminate(re, im, cols, above=False))


def _is_idempotent(m: Matrix) -> bool:
    """Whether the square matrix m has m @ m == m, decided on its integer view as A A == L A.

    ``m._integer_pattern`` holds m = A / L. Each row of A A sums over the
    nonzero entries of that row and of the rows they select, and is compared
    with the same row of A scaled by L.
    """
    n = m.cols
    scale, rows = m._integer_pattern
    for row in rows:
        sr, si = [0] * n, [0] * n
        for k, a, b in row:
            for j, c, d in rows[k]:
                sr[j] += a * c - b * d
                si[j] += a * d + b * c
        lr, li = [0] * n, [0] * n
        for j, a, b in row:
            lr[j], li[j] = scale * a, scale * b
        if sr != lr or si != li:
            return False
    return True


def _trace_of_product_is_zero(p: Matrix, q: Matrix) -> bool:
    """Whether tr(PQ) = 0 for Hermitian matrices P and Q of one shape, decided on the canonical triples.

    Q is Hermitian, so tr(PQ) = sum over i, k of P[i,k] * conj(Q[i,k]), and
    the sum is real, since P is Hermitian too. With P[i,k] = (a + b*i)/d and
    Q[i,k] = (a' + b'*i)/d', each term's real part is (a*a' + b*b')/(d*d').
    The terms where both entries are nonzero are summed as one numerator
    over the lcm of their denominators, in ``int``s; zipping the two entry
    tuples reads no cached pattern, which a fresh compound has not built.
    """
    num, den = 0, 1
    for x, y in zip(p.entries, q.entries):
        # Summing the zero terms too cost valuate_mix 7-9% per op.
        if (x._a or x._b) and (y._a or y._b):
            t = x._a * y._a + x._b * y._b
            d = x._d * y._d
            g = gcd(d, den)
            num = num * (d // g) + t * (den // g)
            den = den // g * d
    return not num


def _kills_or_fixes(m: Matrix, state: StateVector) -> tuple[bool, bool]:
    """Whether m sends the state to zero, and whether to itself, decided on integer views.

    With m = A / L from ``m._integer_pattern`` and v = V / s from
    ``state._integer_form``, m v = 0 exactly when A V = 0, and m v = v
    exactly when A V = L V. The rows of A V are summed in order until both
    answers have failed. They never both hold, since the state is nonzero.
    """
    scale, rows = m._integer_pattern
    vr, vi = state._integer_form
    kills = fixes = True
    for row, xr, xi in zip(rows, vr, vi):
        sr = si = 0
        for j, a, b in row:
            c, d = vr[j], vi[j]
            if c or d:  # without it a call took 6-8% longer, on valuate_mix's pairs and on epr_mix's rows
                sr += a * c - b * d
                si += a * d + b * c
        if sr or si:
            kills = False
        if fixes and (sr != scale * xr or si != scale * xi):
            fixes = False
        if not kills and not fixes:  # without it a call took ~35% longer: ~10 us of a ~170 us epr_mix run
            break
    return kills, fixes


def _null_rows(
    re: Sequence[Sequence[int]], im: Sequence[Sequence[int]], n: int
) -> tuple[list[list[int]], list[list[int]]]:
    """Gaussian-integer rows spanning the orthocomplement in C^n of a canonical basis, read off its integer forms.

    The rows V_i of ``re`` and ``im`` are the basis vectors' integer forms:
    canonical vector i has 1 at its pivot p_i, so V_i[p_i] is its scale s_i,
    a positive integer, and V_i is zero before p_i and at every other pivot.
    The conjugated basis is still in reduced row-echelon form, so its null
    space has one vector per free column f: 1 at f and -conj(V_i[f]) / s_i at
    each p_i. Times L, the lcm of the s_i, that is the row W with W[f] = L
    and W[p_i] = -conj(V_i[f]) * L / s_i. The rows are independent, since
    each is the only one nonzero at its free column, and no elimination is
    run. A zero basis gives the n unit rows.
    """
    pivots = [next(j for j, a in enumerate(vr) if a) for vr in re]
    scale = lcm(*[vr[p] for vr, p in zip(re, pivots)])
    factors = [scale // vr[p] for vr, p in zip(re, pivots)]
    wr: list[list[int]] = []
    wi: list[list[int]] = []
    for f in range(n):
        if f in pivots:
            continue
        xr, xi = [0] * n, [0] * n
        xr[f] = scale
        for p, k, vr, vi in zip(pivots, factors, re, im):
            xr[p] = -vr[f] * k
            xi[p] = vi[f] * k
        wr.append(xr)
        wi.append(xi)
    return wr, wi


def _projection(nr: Sequence[Sequence[int]], ni: Sequence[Sequence[int]], *, complement: bool = False) -> Matrix:
    """The orthogonal projector onto the span of linearly independent Gaussian-integer rows, read as column vectors.

    For M the rows conjugated and stacked, the projector is M* G^-1 M with
    Gram matrix G = M M*, invertible because the rows are independent.
    Scaling a row leaves M* G^-1 M unchanged, so the rows may be a basis
    scaled to Gaussian integers, such as the integer forms of its vectors.
    For N those rows conjugated, one ``_eliminate`` pass over the rows
    [N N* | N] leaves row i as [g_i e_i | Y_i], so (N N*)^-1 N has rows
    Y_i / g_i. N N* is Hermitian positive definite, so each g_i is a
    positive integer, met in order on the diagonal. With L the lcm of the
    g_i, the projector is N* Z / L for Z_i = Y_i * L / g_i, one canonical
    scalar per entry; it is Hermitian, so only its upper triangle is summed.
    With ``complement`` the result is I - N* Z / L instead, the projector
    onto the rows' orthocomplement: each entry is (L * delta - Q) / L for Q
    the summed numerator, reduced once.
    """
    ni = [[-b for b in row] for row in ni]  # conjugated
    k, n = len(nr), len(nr[0])
    # Augmented rows [G_i | N_i], G[i][j] = sum over l of N[i][l] * conj(N[j][l]).
    re = [[0] * k + list(nr[i]) for i in range(k)]
    im = [[0] * k + ni[i] for i in range(k)]
    for i in range(k):
        for j in range(i, k):
            gr = gi = 0
            for a, b, c, d in zip(nr[i], ni[i], nr[j], ni[j]):
                gr += a * c + b * d
                gi += b * c - a * d
            re[i][j], im[i][j] = gr, gi
            re[j][i], im[j][i] = gr, -gi
    _eliminate(re, im, k)
    scale = lcm(*[re[i][i] for i in range(k)])
    zr = [[a * (scale // re[i][i]) for a in re[i][k:]] for i in range(k)]
    zi = [[b * (scale // re[i][i]) for b in im[i][k:]] for i in range(k)]
    # P[s][t] = sum over i of conj(N[i][s]) * Z[i][t] / L; the lower triangle
    # is the conjugate of the upper one.
    entries: list[GaussianRational] = [ZERO] * (n * n)
    for s in range(n):
        for t in range(s, n):
            pr = pi = 0
            for i in range(k):
                a, b, c, d = nr[i][s], ni[i][s], zr[i][t], zi[i][t]
                pr += a * c + b * d
                pi += a * d - b * c
            if complement:
                pr, pi = (scale if s == t else 0) - pr, -pi
            entries[s * n + t] = x = _reduce(pr, pi, scale)
            if s != t:
                entries[t * n + s] = x.conjugate()
    return Matrix._of(n, n, tuple(entries))


class StateVector(Frozen):
    """An unnormalized ray representative; the zero vector is rejected."""

    _fields = ("entries",)

    def __init__(self, entries: Sequence[Scalarish]) -> None:
        entries = tuple(coerce_scalar(v) for v in entries)
        if not entries:
            raise InvalidStateError("state vector needs at least one entry")
        if all(e.is_zero for e in entries):
            raise InvalidStateError("the zero vector is not a state")
        object.__setattr__(self, "entries", entries)

    @cached_property
    def _integer_form(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """V's real and imaginary numerators, for the state v = V / s and s the lcm of its denominators.

        Tuples, so a row shared into an elimination's input cannot be changed
        through it; ``_reduced`` stores it for every canonical basis vector.
        """
        (vr,), (vi,) = _integer_rows([self.entries])
        return tuple(vr), tuple(vi)

    @classmethod
    def of(cls, *values: Scalarish) -> "StateVector":
        return cls(tuple(values))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def scale(self, factor: Scalarish) -> "StateVector":
        f = coerce_scalar(factor)
        if f.is_zero:
            raise InvalidStateError("cannot scale a state by zero")
        return StateVector._of(tuple(f * e for e in self.entries))

    def __str__(self) -> str:
        return "[" + ",".join(str(e) for e in self.entries) + "]"


def inner(u: StateVector, v: StateVector) -> GaussianRational:
    """Hermitian inner product, conjugate-linear in u: the one-row matrix conj(u) applied to v."""
    if u.dim != v.dim:
        raise ShapeError(f"inner product of dim {u.dim} with dim {v.dim}")
    return Matrix._of(1, u.dim, tuple(x.conjugate() for x in u.entries)).apply(v)[0]


def tensor_product(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with dimensions (a.rows*b.rows, a.cols*b.cols)."""
    out = []
    for ai in range(a.rows):
        for bi in range(b.rows):
            for aj in range(a.cols):
                for bj in range(b.cols):
                    out.append(a.at(ai, aj) * b.at(bi, bj))
    return Matrix._of(a.rows * b.rows, a.cols * b.cols, tuple(out))


def state_tensor(u: StateVector, v: StateVector) -> StateVector:
    """Kronecker product of column vectors, e.g. dim 2 x dim 2 -> dim 4."""
    return StateVector(tuple(x * y for x in u.entries for y in v.entries))
