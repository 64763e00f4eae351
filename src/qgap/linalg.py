"""Dense exact linear algebra over the Gaussian rationals.

Matrices and state vectors are immutable values; every operation returns a
fresh result and is referentially transparent. There is no floating point
anywhere: elimination uses exact division, so reduced row-echelon forms,
ranks and kernels are canonical rather than tolerance-dependent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidStateError, ShapeError
from .scalars import ONE, ZERO, GaussianRational, Scalarish, coerce_scalar

Entryish = Scalarish


def _coerce_entries(values: Iterable[Entryish]) -> tuple[GaussianRational, ...]:
    return tuple(coerce_scalar(v) for v in values)


@dataclass(frozen=True)
class Matrix:
    rows: int
    cols: int
    entries: tuple[GaussianRational, ...]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ShapeError(f"matrix must be at least 1x1, got {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise ShapeError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries, "
                f"got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Entryish]]) -> "Matrix":
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
        return Matrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

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
        out = []
        for i in range(self.rows):
            lhs = self.row(i)
            for j in range(other.cols):
                rhs = other.col(j)
                acc = ZERO
                for a, b in zip(lhs, rhs):
                    acc = acc + a * b
                out.append(acc)
        return Matrix(self.rows, other.cols, tuple(out))

    def apply(self, state: "StateVector") -> tuple[GaussianRational, ...]:
        """Matrix-vector product, returned raw so callers can see a zero image."""
        if self.cols != state.dim:
            raise ShapeError(f"cannot apply {self.rows}x{self.cols} to dim-{state.dim} vector")
        out = []
        for i in range(self.rows):
            acc = ZERO
            for a, b in zip(self.row(i), state.entries):
                acc = acc + a * b
            out.append(acc)
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)))

    def conjugate_transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            tuple(self.at(i, j).conjugate() for j in range(self.cols) for i in range(self.rows)),
        )

    def is_hermitian(self) -> bool:
        return self.is_square and self == self.conjugate_transpose()

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
            rows[pivot_row] = [x / pivot for x in rows[pivot_row]]
            for r in range(self.rows):
                if r != pivot_row and not rows[r][col].is_zero:
                    factor = rows[r][col]
                    rows[r] = [x - factor * y for x, y in zip(rows[r], rows[pivot_row])]
            pivot_row += 1
            if pivot_row == self.rows:
                break
        return Matrix.from_rows(rows)

    def pivot_columns(self) -> tuple[int, ...]:
        reduced = self.rref()
        pivots = []
        for i in range(reduced.rows):
            row = reduced.row(i)
            lead = next((j for j, e in enumerate(row) if not e.is_zero), None)
            if lead is None:
                break
            pivots.append(lead)
        return tuple(pivots)

    def rank(self) -> int:
        return len(self.pivot_columns())

    def kernel_basis(self) -> tuple["StateVector", ...]:
        """Canonical basis of the null space {x : self @ x = 0}.

        The free-variable vectors read off the RREF are themselves stacked
        and re-reduced so that equal kernels always produce the identical
        basis tuple. Empty iff the matrix is injective.
        """
        reduced = self.rref()
        pivots = list(reduced.pivot_columns())
        free = [c for c in range(self.cols) if c not in pivots]
        if not free:
            return ()
        vectors = []
        for f in free:
            v = [ZERO] * self.cols
            v[f] = ONE
            for r, pc in enumerate(pivots):
                v[pc] = -reduced.at(r, f)
            vectors.append(v)
        canonical = Matrix.from_rows(vectors).rref()
        return tuple(
            StateVector(canonical.row(i))
            for i in range(canonical.rows)
            if any(not e.is_zero for e in canonical.row(i))
        )

    def inverse(self) -> "Matrix":
        """Exact inverse by Gauss-Jordan on the identity-augmented matrix."""
        if not self.is_square:
            raise ShapeError("only square matrices can be inverted")
        n = self.rows
        eye = Matrix.identity(n)
        aug = Matrix.from_rows(
            [list(self.row(i)) + list(eye.row(i)) for i in range(n)]
        ).rref()
        for i in range(n):
            for j in range(n):
                expected = ONE if i == j else ZERO
                if aug.at(i, j) != expected:
                    raise ZeroDivisionError("matrix is singular")
        return Matrix.from_rows([list(aug.row(i))[n:] for i in range(n)])

    def __str__(self) -> str:
        return "[" + ",".join("[" + ",".join(str(e) for e in self.row(i)) + "]" for i in range(self.rows)) + "]"


@dataclass(frozen=True)
class StateVector:
    """An unnormalized ray representative; the zero vector is rejected."""

    entries: tuple[GaussianRational, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", _coerce_entries(self.entries))
        if not self.entries:
            raise InvalidStateError("state vector needs at least one entry")
        if all(e.is_zero for e in self.entries):
            raise InvalidStateError("the zero vector is not a state")

    @classmethod
    def of(cls, *values: Entryish) -> "StateVector":
        return cls(tuple(values))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def scale(self, factor: Scalarish) -> "StateVector":
        f = coerce_scalar(factor)
        if f.is_zero:
            raise InvalidStateError("cannot scale a state by zero")
        return StateVector(tuple(f * e for e in self.entries))

    def as_column(self) -> Matrix:
        return Matrix(self.dim, 1, self.entries)

    def as_row(self) -> Matrix:
        return Matrix(1, self.dim, self.entries)

    def __str__(self) -> str:
        return "[" + ",".join(str(e) for e in self.entries) + "]"


def inner(u: StateVector, v: StateVector) -> GaussianRational:
    """Hermitian inner product, conjugate-linear in the first argument."""
    if u.dim != v.dim:
        raise ShapeError(f"inner product of dim {u.dim} with dim {v.dim}")
    acc = ZERO
    for a, b in zip(u.entries, v.entries):
        acc = acc + a.conjugate() * b
    return acc


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
