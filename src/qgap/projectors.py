"""Orthogonal projection operators as validated first-class values.

A ``Projector`` wraps a square matrix that is exactly Hermitian and
idempotent; both properties are checked at construction, so a Projector in
hand is always a legal quantum-logic proposition carrier. The operator
lattice (meet, join) is computed through the subspace lattice of ranges,
which also covers non-commuting pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ShapeError
from .lattice import Subspace
from .linalg import Matrix, StateVector

__all__ = [
    "Projector",
    "projector_from_span",
    "projector_onto",
    "range_of",
    "kernel_of",
    "projector_meet",
    "projector_join",
]


@dataclass(frozen=True)
class Projector:
    matrix: Matrix

    def __post_init__(self) -> None:
        m = self.matrix
        if not m.is_square:
            raise ValueError(f"projector matrix must be square, got {m.rows}x{m.cols}")
        if not m.is_hermitian():
            raise ValueError("projector matrix is not Hermitian")
        if m @ m != m:
            raise ValueError("projector matrix is not idempotent")

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

    Built as B (B* B)^-1 B* for B the canonical basis stacked as columns;
    the Gram matrix of a basis is always invertible, and the construction
    is exact, Hermitian and idempotent by algebra (the constructor
    re-checks anyway).
    """
    if subspace.is_zero:
        return Projector.zero(subspace.ambient_dim)
    b = Matrix.from_rows([list(v.entries) for v in subspace.basis]).transpose()
    b_star = b.conjugate_transpose()
    gram = b_star @ b
    return Projector(b @ gram.inverse() @ b_star)


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
    """Canonical null space; always the orthocomplement of the range."""
    return Subspace(p.dim, p.matrix.kernel_basis())


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
