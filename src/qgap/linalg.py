"""Dense exact linear algebra over the Gaussian rationals.

Matrices and state vectors are immutable values (``scalars.Frozen``), equal
and hashed by their field tuples. Every operation returns a fresh result and
is referentially transparent. There is no floating point anywhere:
elimination uses exact division, so reduced row-echelon forms are
canonical rather than tolerance-dependent.

Every product (``@``, ``Matrix.apply``, ``inner``) runs over the nonzero
entries only, a sum adds only where both entries are nonzero, and every
elimination (the lattice operations, a solve on an augmented matrix) goes
through ``Matrix.rref``, which skips each term with an exact-zero factor.
The spin projectors and states of the pair space are mostly zeros, and
adding or subtracting an exact zero changes no canonical triple, so the
results are the same values without those multiplies and adds.

A matrix keeps its nonzero pattern, per row the ``(column, entry)`` pairs
of its nonzero entries, computed on first use. A product accumulates each
output row over the left operand's pattern and the right operand's
(row-wise sparse accumulation): each output entry gets its terms in
ascending inner index, the first one stored and each later one added.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from .errors import InvalidStateError, ShapeError
from .scalars import ONE, ZERO, Frozen, GaussianRational, Scalarish, coerce_scalar


class Matrix(Frozen):
    _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[GaussianRational]) -> None:
        entries = tuple(entries)
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
        flat = [coerce_scalar(v) for row in rows for v in row]
        return cls(len(rows), ncols, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.from_rows([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

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

    def at(self, i: int, j: int) -> GaussianRational:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[GaussianRational, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[GaussianRational, ...]:
        return self.entries[j :: self.cols]

    def row_lists(self) -> list[list[GaussianRational]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(e.is_zero for e in self.entries)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(f"cannot add {self.rows}x{self.cols} and {other.rows}x{other.cols}")
        return Matrix(
            self.rows,
            self.cols,
            tuple(b if a.is_zero else a if b.is_zero else a + b for a, b in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-1)

    def scale(self, factor: Scalarish) -> "Matrix":
        f = coerce_scalar(factor)
        return Matrix(self.rows, self.cols, tuple(f * e for e in self.entries))

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
        return Matrix(self.rows, n, tuple(entries))

    def apply(self, state: "StateVector") -> tuple[GaussianRational, ...]:
        """Matrix-vector product, returned raw so callers can see a zero image."""
        if self.cols != state.dim:
            raise ShapeError(f"cannot apply {self.rows}x{self.cols} to dim-{state.dim} vector")
        v = state.entries
        out: list[GaussianRational] = []
        for row in self._nonzeros:
            acc = None
            for k, x in row:
                y = v[k]
                if not y.is_zero:
                    acc = x * y if acc is None else acc + x * y
            out.append(ZERO if acc is None else acc)
        return tuple(out)

    def conjugate_transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            tuple(self.at(i, j).conjugate() for j in range(self.cols) for i in range(self.rows)),
        )

    def is_hermitian(self) -> bool:
        """Each entry on or above the diagonal equals the conjugate of its mirror image."""
        if not self.is_square:
            return False
        e, n = self.entries, self.cols
        return all(e[i * n + j] == e[j * n + i].conjugate() for i in range(n) for j in range(i, n))

    def rref(self) -> "Matrix":
        """Reduced row-echelon form.

        Pivot choice is the first nonzero entry in column order (exact
        arithmetic needs no magnitude pivoting), pivots are normalized to 1,
        pivot columns are cleared above and below, zero rows sink to the
        bottom. The result is the canonical representative of the row space.
        """
        rows = self.row_lists()
        pivot_row = 0
        for col in range(self.cols):
            src = next((r for r in range(pivot_row, self.rows) if not rows[r][col].is_zero), None)
            if src is None:
                continue
            rows[pivot_row], rows[src] = rows[src], rows[pivot_row]
            pivot = rows[pivot_row][col]
            rows[pivot_row] = [x if x.is_zero else x / pivot for x in rows[pivot_row]]
            for r in range(self.rows):
                if r != pivot_row and not rows[r][col].is_zero:
                    factor = rows[r][col]
                    rows[r] = [
                        x if y.is_zero else x - factor * y for x, y in zip(rows[r], rows[pivot_row])
                    ]
            pivot_row += 1
            if pivot_row == self.rows:
                break
        return Matrix.from_rows(rows)

    def __str__(self) -> str:
        return "[" + ",".join("[" + ",".join(str(e) for e in self.row(i)) + "]" for i in range(self.rows)) + "]"


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
        return StateVector(tuple(f * e for e in self.entries))

    def __str__(self) -> str:
        return "[" + ",".join(str(e) for e in self.entries) + "]"


def inner(u: StateVector, v: StateVector) -> GaussianRational:
    """Hermitian inner product, conjugate-linear in u: the one-row matrix conj(u) applied to v."""
    if u.dim != v.dim:
        raise ShapeError(f"inner product of dim {u.dim} with dim {v.dim}")
    return Matrix(1, u.dim, tuple(x.conjugate() for x in u.entries)).apply(v)[0]


def tensor_product(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with dimensions (a.rows*b.rows, a.cols*b.cols)."""
    out = []
    for ai in range(a.rows):
        for bi in range(b.rows):
            for aj in range(a.cols):
                for bj in range(b.cols):
                    out.append(a.at(ai, aj) * b.at(bi, bj))
    return Matrix(a.rows * b.rows, a.cols * b.cols, tuple(out))


def state_tensor(u: StateVector, v: StateVector) -> StateVector:
    """Kronecker product of column vectors, e.g. dim 2 x dim 2 -> dim 4."""
    return StateVector(tuple(x * y for x in u.entries for y in v.entries))
