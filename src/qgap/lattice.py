"""The bounded lattice of linear subspaces of C^n.

A subspace is stored as the nonzero rows of a reduced row-echelon matrix,
so two equal subspaces are structurally identical values: equality,
hashing and golden-file comparisons all work on the canonical basis. The
lattice operations are meet (intersection), join (closed span of the
union, which in finite dimension is just the span), vector-sum (identical
to join here, kept as its own operation so the identity is testable) and
orthocomplement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ShapeError
from .linalg import Matrix, StateVector
from .scalars import ONE


def _is_canonical(ambient_dim: int, basis: tuple[StateVector, ...]) -> bool:
    last_pivot = -1
    for row_index, vec in enumerate(basis):
        if vec.dim != ambient_dim:
            return False
        lead = next((j for j, e in enumerate(vec.entries) if not e.is_zero), None)
        if lead is None or lead <= last_pivot:
            return False
        if vec.entries[lead] != ONE:
            return False
        for other_index, other in enumerate(basis):
            if other_index != row_index and not other.entries[lead].is_zero:
                return False
        last_pivot = lead
    return True


@dataclass(frozen=True)
class Subspace:
    ambient_dim: int
    basis: tuple[StateVector, ...] = ()

    def __post_init__(self) -> None:
        if self.ambient_dim < 1:
            raise ShapeError("ambient dimension must be positive")
        if len(self.basis) > self.ambient_dim or not _is_canonical(self.ambient_dim, self.basis):
            raise ShapeError("basis is not a canonical RREF basis for this ambient dimension")

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[StateVector]) -> "Subspace":
        """Canonical subspace spanned by arbitrary vectors (stack and reduce)."""
        vecs = list(vectors)
        for v in vecs:
            if v.dim != ambient_dim:
                raise ShapeError(f"vector of dim {v.dim} in ambient dim {ambient_dim}")
        if not vecs:
            return cls(ambient_dim, ())
        reduced = Matrix.from_rows([list(v.entries) for v in vecs]).rref()
        rows = [
            StateVector(reduced.row(i))
            for i in range(reduced.rows)
            if any(not e.is_zero for e in reduced.row(i))
        ]
        return cls(ambient_dim, tuple(rows))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        eye = Matrix.identity(ambient_dim)
        return cls(ambient_dim, tuple(StateVector(eye.row(i)) for i in range(ambient_dim)))

    @classmethod
    def column_space(cls, m: Matrix) -> "Subspace":
        return cls.from_vectors(m.rows, [StateVector(m.col(j)) for j in range(m.cols) if any(not e.is_zero for e in m.col(j))])

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def is_zero(self) -> bool:
        return not self.basis

    @property
    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ShapeError(
                f"subspaces live in different ambient spaces ({self.ambient_dim} vs {other.ambient_dim})"
            )

    def contains(self, v: StateVector) -> bool:
        """Membership test; scale-invariant because spans are closed under scaling."""
        if v.dim != self.ambient_dim:
            raise ShapeError(f"vector of dim {v.dim} against ambient dim {self.ambient_dim}")
        residual = list(v.entries)
        for b in self.basis:
            lead = next(j for j, e in enumerate(b.entries) if not e.is_zero)
            coeff = residual[lead]
            if not coeff.is_zero:
                residual = [x - coeff * y for x, y in zip(residual, b.entries)]
        return all(e.is_zero for e in residual)

    def leq(self, other: "Subspace") -> bool:
        """The lattice order: every basis vector of self lies in other."""
        self._check_ambient(other)
        return all(other.contains(b) for b in self.basis)

    def __le__(self, other: "Subspace") -> bool:
        return self.leq(other)

    def sum(self, other: "Subspace") -> "Subspace":
        """Vector sum {a + b}; the span of both bases stacked."""
        self._check_ambient(other)
        return Subspace.from_vectors(self.ambient_dim, list(self.basis) + list(other.basis))

    def join(self, other: "Subspace") -> "Subspace":
        """Smallest subspace containing the union. Coincides with sum in finite dimension."""
        return self.sum(other)

    def orthocomplement(self) -> "Subspace":
        """All vectors orthogonal (Hermitian inner product) to every basis vector."""
        if not self.basis:
            return Subspace.full(self.ambient_dim)
        constraints = Matrix.from_rows(
            [[e.conjugate() for e in b.entries] for b in self.basis]
        )
        return Subspace(self.ambient_dim, constraints.kernel_basis())

    def meet(self, other: "Subspace") -> "Subspace":
        """Intersection, via the identity a n b = (a' + b')' with ' the orthocomplement."""
        self._check_ambient(other)
        return self.orthocomplement().sum(other.orthocomplement()).orthocomplement()

    def __str__(self) -> str:
        return "span{" + ", ".join(str(b) for b in self.basis) + "}"
