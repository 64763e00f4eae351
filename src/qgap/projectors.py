"""Orthogonal projection operators as validated first-class values.

A ``Projector`` wraps a square matrix that is exactly Hermitian and
idempotent, so a Projector in hand is always a legal quantum-logic
proposition carrier. ``Projector(m)`` checks both properties.
``Projector.product(p, q)``, the conjunction's closed form, checks only that
PQ is Hermitian, which already implies that it is idempotent. The operator
lattice (meet, join) is computed through the subspace lattice of ranges,
which also covers non-commuting pairs. The kernel of P is the range of
I - P, which holds exactly for every orthogonal projector.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InvalidValueError, ShapeError
from .lattice import Subspace
from .linalg import Matrix, StateVector
from .scalars import Frozen

class Projector(Frozen):
    _fields = ("matrix",)

    def __init__(self, matrix: Matrix) -> None:
        object.__setattr__(self, "matrix", matrix)
        # Kept apart from __init__: perfbench's tracer times this check as projectors.Projector.__post_init__.
        self.__post_init__()

    def __post_init__(self) -> None:
        m = self.matrix
        if not m.is_square:
            raise InvalidValueError(f"projector matrix must be square, got {m.rows}x{m.cols}")
        if not m.is_hermitian():
            raise InvalidValueError("projector matrix is not Hermitian")
        if m @ m != m:
            raise InvalidValueError("projector matrix is not idempotent")

    @classmethod
    def product(cls, p: "Projector", q: "Projector") -> "Projector":
        """The projector PQ of two commuting projectors, the meet of their ranges.

        Raises ``InvalidValueError`` unless PQ is Hermitian. That one test
        decides it: (PQ)* = Q*P* = QP, so PQ is Hermitian exactly when P and
        Q commute, and then PQPQ = PPQQ = PQ. This is the one constructor
        that therefore skips the square of the idempotence check.
        """
        m = p.matrix @ q.matrix
        if not m.is_hermitian():
            raise InvalidValueError("projector matrix is not Hermitian")
        result = object.__new__(cls)
        object.__setattr__(result, "matrix", m)
        return result

    @classmethod
    def zero(cls, dim: int) -> "Projector":
        return cls(Matrix.zero(dim, dim))

    @classmethod
    def identity(cls, dim: int) -> "Projector":
        return cls(Matrix.identity(dim))

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @property
    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def commutes_with(self, other: "Projector") -> bool:
        self._check_dim(other)
        return self.matrix @ other.matrix == other.matrix @ self.matrix

    def orthogonal_to(self, other: "Projector") -> bool:
        self._check_dim(other)
        return (self.matrix @ other.matrix).is_zero()

    def _check_dim(self, other: "Projector") -> None:
        if self.dim != other.dim:
            raise ShapeError(f"projectors of dim {self.dim} and {other.dim}")

    def __str__(self) -> str:
        return str(self.matrix)


def projector_onto(subspace: Subspace) -> Projector:
    """Orthogonal projector with the given range.

    For M the canonical basis conjugated and stacked as rows, the projector
    is M* G^-1 M with Gram matrix G = M M*, invertible because the rows are
    independent. G^-1 M comes from one elimination: the reduced form of
    the augmented matrix [G | M] is [I | G^-1 M]. The result is exact,
    Hermitian and idempotent by algebra (the constructor re-checks anyway).
    """
    if subspace.is_zero:
        return Projector.zero(subspace.ambient_dim)
    m = Matrix.from_rows([[e.conjugate() for e in v.entries] for v in subspace.basis])
    m_star = m.conjugate_transpose()
    gram = m @ m_star
    k = gram.rows
    solved = Matrix.from_rows([gram.row(i) + m.row(i) for i in range(k)]).rref()
    x = Matrix.from_rows([solved.row(i)[k:] for i in range(k)])
    return Projector(m_star @ x)


def projector_from_span(vectors: Sequence[StateVector]) -> Projector:
    """Projector onto the span of one or more nonzero vectors of equal dimension."""
    if not vectors:
        raise ShapeError("projector_from_span needs at least one vector")
    dim = vectors[0].dim
    return projector_onto(Subspace.from_vectors(dim, vectors))


def range_of(p: Projector) -> Subspace:
    """Canonical column space of the projector's matrix."""
    return Subspace.column_space(p.matrix)


def kernel_of(p: Projector) -> Subspace:
    """Canonical null space, as the column space of I - P; the orthocomplement of the range."""
    return Subspace.column_space(Matrix.identity(p.dim) - p.matrix)


def projector_meet(a: Projector, b: Projector) -> Projector:
    """Projector onto the intersection of the two ranges, for any pair.

    Goes through the subspace lattice, so it also covers non-commuting
    operands. For commuting ones it equals the matrix product, which is
    how ``compile_proposition`` computes conjunction without calling this.
    """
    a._check_dim(b)
    return projector_onto(range_of(a).meet(range_of(b)))


def projector_join(a: Projector, b: Projector) -> Projector:
    """Projector onto the span of the union of the two ranges, for any pair.

    Goes through the subspace lattice. For orthogonal operands it equals
    the sum of the two matrices, which is how ``compile_proposition``
    computes exclusive-or without calling this.
    """
    a._check_dim(b)
    return projector_onto(range_of(a).join(range_of(b)))
