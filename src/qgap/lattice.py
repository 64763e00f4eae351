"""The bounded lattice of linear subspaces of C^n.

A subspace is stored as the nonzero rows of a reduced row-echelon matrix,
so two equal subspaces are structurally identical values: equality,
hashing and golden-file comparisons all work on the canonical basis. The
lattice operations are meet (intersection), join (closed span of the
union, which in finite dimension is just the span), vector-sum (identical
to join here, kept as its own operation so the identity is testable) and
orthocomplement. Each reduces one matrix: Zassenhaus's block for meet, the
stacked bases for join, the null space read off the basis for complement.
``Subspace.row_space`` is the one reducer of stacked rows to a canonical
basis: ``from_vectors``, ``column_space`` and ``parse_span`` (the span reader
of the CLI and the fixture audit) all call it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import ParseError, ShapeError
from .linalg import Matrix, StateVector
from .scalars import ONE, ZERO, Frozen, parse_scalar


def _lead(vec: StateVector) -> int | None:
    """Index of the first nonzero entry; the pivot column of a canonical basis vector."""
    return next((j for j, e in enumerate(vec.entries) if not e.is_zero), None)


def _is_canonical(ambient_dim: int, basis: tuple[StateVector, ...]) -> bool:
    last_pivot = -1
    for row_index, vec in enumerate(basis):
        if vec.dim != ambient_dim:
            return False
        lead = _lead(vec)
        if lead is None or lead <= last_pivot:
            return False
        if vec.entries[lead] != ONE:
            return False
        for other_index, other in enumerate(basis):
            if other_index != row_index and not other.entries[lead].is_zero:
                return False
        last_pivot = lead
    return True


class Subspace(Frozen):
    _fields = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: Sequence[StateVector] = ()) -> None:
        basis = tuple(basis)
        if ambient_dim < 1:
            raise ShapeError("ambient dimension must be positive")
        if len(basis) > ambient_dim or not _is_canonical(ambient_dim, basis):
            raise ShapeError("basis is not a canonical RREF basis for this ambient dimension")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)

    @classmethod
    def row_space(cls, m: Matrix) -> "Subspace":
        """The span of the rows of m: the nonzero rows of its reduced form."""
        reduced = m.rref()
        rows = (reduced.row(i) for i in range(reduced.rows))
        return cls(m.cols, tuple(StateVector(r) for r in rows if not all(e.is_zero for e in r)))

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[StateVector]) -> "Subspace":
        """Canonical subspace spanned by arbitrary vectors (stack and reduce)."""
        vecs = list(vectors)
        for v in vecs:
            if v.dim != ambient_dim:
                raise ShapeError(f"vector of dim {v.dim} in ambient dim {ambient_dim}")
        if not vecs:
            return cls(ambient_dim, ())
        return cls.row_space(Matrix(len(vecs), ambient_dim, tuple(e for v in vecs for e in v.entries)))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def column_space(cls, m: Matrix) -> "Subspace":
        """The span of the columns of m, as the row space of its transpose."""
        return cls.row_space(Matrix(m.cols, m.rows, tuple(e for j in range(m.cols) for e in m.col(j))))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def is_zero(self) -> bool:
        return not self.basis

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
            coeff = residual[_lead(b)]
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
        """All vectors orthogonal (Hermitian inner product) to every basis vector.

        The conjugated canonical basis is still in reduced row-echelon form,
        so its null space is read off it: for each non-pivot column f, the
        vector with 1 at f and -conj(b[f]) at the pivot of each basis vector b.
        """
        n = self.ambient_dim
        pivots = [_lead(b) for b in self.basis]
        vectors = []
        for f in range(n):
            if f in pivots:
                continue
            v = [ZERO] * n
            v[f] = ONE
            for p, b in zip(pivots, self.basis):
                v[p] = -b.entries[f].conjugate()
            vectors.append(StateVector(tuple(v)))
        return Subspace.from_vectors(n, vectors)

    def meet(self, other: "Subspace") -> "Subspace":
        """Intersection, by Zassenhaus's reduction of one block matrix.

        With A and B the two canonical bases, the rows of [[A, A], [B, 0]]
        are independent, so its reduced form has no zero row. The rows whose
        left half reduced to zero come last, and their right halves are
        already the canonical basis of the intersection.
        """
        self._check_ambient(other)
        if self.is_zero or other.is_zero:
            return Subspace.zero(self.ambient_dim)
        n = self.ambient_dim
        block = Matrix.from_rows(
            [a.entries + a.entries for a in self.basis] + [b.entries + (ZERO,) * n for b in other.basis]
        ).rref()
        rows = (block.row(i) for i in range(block.rows))
        return Subspace(n, tuple(StateVector(r[n:]) for r in rows if all(e.is_zero for e in r[:n])))

    def __str__(self) -> str:
        return "span{" + ", ".join(str(b) for b in self.basis) + "}"


def parse_span(rows: Sequence[Sequence[str]]) -> Subspace:
    """The span of rows of scalar text, all of one length; all-zero rows add nothing."""
    if not rows:
        raise ParseError("a span needs at least one vector")
    vectors = [[parse_scalar(s) for s in row] for row in rows]
    lengths = {len(v) for v in vectors}
    if len(lengths) != 1:
        raise ParseError(f"span vectors differ in length: {sorted(lengths)}")
    if not vectors[0]:
        raise ShapeError("ambient dimension must be positive")
    return Subspace.row_space(Matrix.from_rows(vectors))
