"""The bounded lattice of linear subspaces of C^n.

A subspace is stored as the nonzero rows of a reduced row-echelon matrix,
so two equal subspaces are structurally identical values: equality,
hashing and golden-file comparisons all work on the canonical basis. The
lattice operations are meet (intersection), join (closed span of the
union, which in finite dimension is just the span), vector-sum (identical
to join here, kept as its own operation so the identity is testable) and
orthocomplement. Each runs one elimination pass of ``linalg`` on Gaussian
integers: join reduces the stacked bases, complement the null-space rows
``linalg._null_rows`` reads off the basis's integer forms; meet eliminates
Zassenhaus's block forward over its left half and then reduces only the
rows left below its pivots. ``contains`` and ``leq`` are rank tests by
``linalg._rank``. No operation has a case for the zero space: no rows
have rank 0, and ``_span`` of no rows is the zero space. Every canonical
basis is read off ``linalg._reduced`` by ``_span``: ``Subspace.row_space``
(which ``parse_span``, the CLI and audit span reader, calls),
``from_vectors`` (its vectors' integer forms), ``column_space``, ``meet``,
``join`` and ``orthocomplement`` pass it their rows as Gaussian integers.
``_reduced`` returns each basis vector with its ``StateVector._integer_form``
already stored, so meet, join, complement, ``contains``, ``leq`` and
``projectors.projector_onto`` read a lattice result's basis as Gaussian
integers without scaling it again; a vector from outside, as ``contains``
may get, is scaled once, on first use. ``Subspace(n, basis)`` takes a basis
from outside only if its vectors, all of dimension n, stacked equal their
own ``Matrix.rref``; the lattice's own results are already reduced and are
stored by ``Frozen._of``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import ParseError, ShapeError
from .linalg import Matrix, StateVector, _eliminate, _integer_forms, _integer_rows, _null_rows, _rank, _reduced
from .scalars import Frozen, parse_scalar


def _span(re: list[Sequence[int]], im: list[Sequence[int]], n: int) -> "Subspace":
    """The span of Gaussian-integer rows of length n: ``_reduced``'s vectors as its canonical basis."""
    return Subspace._of(n, tuple(_reduced(re, im, n)))


class Subspace(Frozen):
    _fields = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: Sequence[StateVector] = ()) -> None:
        basis = tuple(basis)
        if ambient_dim < 1:
            raise ShapeError("ambient dimension must be positive")
        if any(v.dim != ambient_dim for v in basis) or basis and (
            (m := Matrix(len(basis), ambient_dim, [e for v in basis for e in v.entries])).rref() != m
        ):
            raise ShapeError("basis is not a canonical RREF basis for this ambient dimension")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)

    @classmethod
    def row_space(cls, m: Matrix) -> "Subspace":
        """The span of the rows of m: the nonzero rows of its reduced form."""
        return _span(*_integer_rows(m.row(i) for i in range(m.rows)), m.cols)

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[StateVector]) -> "Subspace":
        """Canonical subspace spanned by arbitrary vectors: their integer forms stacked and reduced."""
        vecs = list(vectors)
        for v in vecs:
            if v.dim != ambient_dim:
                raise ShapeError(f"vector of dim {v.dim} in ambient dim {ambient_dim}")
        if ambient_dim < 1:
            raise ShapeError("ambient dimension must be positive")
        return _span(*_integer_forms(vecs), ambient_dim)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def column_space(cls, m: Matrix) -> "Subspace":
        """The span of the columns of m: the nonzero rows of the reduced form of its transpose."""
        return _span(*_integer_rows(m.col(j) for j in range(m.cols)), m.rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ShapeError(
                f"subspaces live in different ambient spaces ({self.ambient_dim} vs {other.ambient_dim})"
            )

    def contains(self, v: StateVector) -> bool:
        """Membership test: v adds nothing to the rank of the basis. Scale-invariant, as spans are."""
        if v.dim != self.ambient_dim:
            raise ShapeError(f"vector of dim {v.dim} against ambient dim {self.ambient_dim}")
        return _rank(*_integer_forms(self.basis + (v,)), self.ambient_dim) == self.dim

    def leq(self, other: "Subspace") -> bool:
        """The lattice order: self's basis adds no rank to other's. A zero self adds no row, so it is below everything."""
        self._check_ambient(other)
        return _rank(*_integer_forms(other.basis + self.basis), self.ambient_dim) == other.dim

    def __le__(self, other: "Subspace") -> bool:
        return self.leq(other)

    def sum(self, other: "Subspace") -> "Subspace":
        """Vector sum {a + b}; the span of both bases stacked, read off their integer forms."""
        self._check_ambient(other)
        return _span(*_integer_forms(self.basis + other.basis), self.ambient_dim)

    def join(self, other: "Subspace") -> "Subspace":
        """Smallest subspace containing the union. Coincides with sum in finite dimension."""
        return self.sum(other)

    def orthocomplement(self) -> "Subspace":
        """All vectors orthogonal (Hermitian inner product) to every basis vector.

        The conjugated canonical basis is still in reduced row-echelon form,
        so its null space is read off it: ``linalg._null_rows`` builds one
        Gaussian-integer row per non-pivot column straight from the basis's
        integer forms, and ``_span`` reduces them.
        """
        n = self.ambient_dim
        return _span(*_null_rows(*_integer_forms(self.basis), n), n)

    def meet(self, other: "Subspace") -> "Subspace":
        """Intersection, by Zassenhaus's block reduced forward over its left half.

        With A and B the two canonical bases, the rows of [[A, A], [B, 0]]
        are independent. A forward ``_eliminate`` over the first n columns
        leaves its k pivot rows first, k the dimension of the sum; the rows
        after them have a zero left half, and their right halves span the
        intersection. ``_span`` of those halves is its canonical basis, and
        the zero space when no row is left, as it is whenever an operand is
        zero: every row of the block then pivots.
        """
        self._check_ambient(other)
        n = self.ambient_dim
        ar, ai = _integer_forms(self.basis)
        br, bi = _integer_forms(other.basis)
        zeros = (0,) * n
        re = [x + x for x in ar] + [x + zeros for x in br]
        im = [x + x for x in ai] + [x + zeros for x in bi]
        k = len(_eliminate(re, im, n, above=False))
        return _span([r[n:] for r in re[k:]], [r[n:] for r in im[k:]], n)

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
