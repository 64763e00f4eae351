"""Orthogonal projection operators as validated first-class values.

A ``Projector`` wraps a square matrix that is exactly Hermitian and
idempotent, so a Projector in hand is always a legal quantum-logic
proposition carrier. ``Projector(m)`` checks both properties. The two
connectives' closed forms skip that check, since a cheaper test implies it:
``Projector.product(p, q)`` checks only that PQ is Hermitian, which already
makes it idempotent, and ``Projector.sum(p, q)`` checks only that
tr(PQ) = 0, which makes PQ = 0 and so P + Q a projector; each then stores
its matrix by ``Frozen._of``, without ``Projector``'s own check.
``orthogonal_to`` decides by ``sum``'s test, so orthogonality has one rule.
The operator lattice (meet, join) is computed through the subspace lattice
of ranges, which also covers non-commuting pairs. The kernel of P is the
orthocomplement of its range, ``range_of(P).orthocomplement()``, which
holds exactly for every orthogonal projector.

``projector_onto``, the idempotence check and the orthogonality test call
``linalg``'s private Gaussian-integer kernels (``_projection``,
``_is_idempotent``, ``_trace_of_product_is_zero``); the first builds
``GaussianRational`` values only for the resulting matrix, the other two
build none. ``projector_onto`` reads the subspace's basis through the
integer forms the lattice seeded on it. It solves on the smaller side of
the range: a range S of dimension at most n/2 on its own rows, a larger one
as I - P_S⊥, on the n - dim S rows ``linalg._null_rows`` reads off S's
forms (P_S = I - P_S⊥ holds exactly); C^n is the identity and the zero
space the zero matrix. Every result still passes ``Projector``'s Hermitian
and idempotence checks. A projector keeps its range as the private cached
``_range``: ``projector_onto`` stores the subspace it was given, since the
column space of M* (M M*)^-1 M is the span of M's rows, and any other
projector reduces its column space once, on first use. ``range_of`` reads
it, so ``projector_meet`` and ``projector_join`` of projectors built by
``projector_onto`` reduce no column space. Equality, hash and repr read
only the matrix.
"""

from __future__ import annotations

from functools import cached_property

from .errors import InvalidValueError, ShapeError
from .lattice import Subspace
from .linalg import (
    Matrix,
    _integer_forms,
    _is_idempotent,
    _null_rows,
    _projection,
    _trace_of_product_is_zero,
)
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
        if not _is_idempotent(m):
            raise InvalidValueError("projector matrix is not idempotent")

    @classmethod
    def product(cls, p: "Projector", q: "Projector") -> "Projector":
        """The projector PQ of two commuting projectors, the meet of their ranges.

        Raises ``InvalidValueError`` unless PQ is Hermitian. That one test
        decides it: (PQ)* = Q*P* = QP, so PQ is Hermitian exactly when P and
        Q commute, and then PQPQ = PPQQ = PQ, so the square of the
        idempotence check is skipped.
        """
        m = p.matrix @ q.matrix
        if not m.is_hermitian():
            raise InvalidValueError("projector matrix is not Hermitian")
        return cls._of(m)

    @classmethod
    def sum(cls, p: "Projector", q: "Projector") -> "Projector":
        """The projector P + Q of two orthogonal projectors, the join of their ranges.

        Raises ``InvalidValueError`` unless tr(PQ) = 0. That one sum decides
        it without forming PQ: tr(PQ) = tr(PPQQ) = tr((PQ)*(PQ)) is the sum
        of the squared moduli of PQ's entries, so it is zero exactly when
        PQ = 0. Then QP = (PQ)* = 0 too, and P + Q is Hermitian and
        idempotent. ``linalg._trace_of_product_is_zero`` decides it on the
        entries' integer triples, with no ``GaussianRational`` arithmetic.
        """
        p._check_dim(q)
        if not _trace_of_product_is_zero(p.matrix, q.matrix):
            raise InvalidValueError("projectors are not orthogonal: tr(PQ) is not zero")
        return cls._of(p.matrix + q.matrix)

    @classmethod
    def zero(cls, dim: int) -> "Projector":
        return cls(Matrix.zero(dim, dim))

    @classmethod
    def identity(cls, dim: int) -> "Projector":
        return cls(Matrix.identity(dim))

    @cached_property
    def _range(self) -> Subspace:
        """The canonical column space of the matrix; ``projector_onto`` stores the range it was given here."""
        return Subspace.column_space(self.matrix)

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def orthogonal_to(self, other: "Projector") -> bool:
        """Whether PQ = 0, decided as ``sum`` decides it: tr(PQ) = 0, with no matrix product."""
        self._check_dim(other)
        return _trace_of_product_is_zero(self.matrix, other.matrix)

    def _check_dim(self, other: "Projector") -> None:
        if self.dim != other.dim:
            raise ShapeError(f"projectors of dim {self.dim} and {other.dim}")

    def __str__(self) -> str:
        return str(self.matrix)


def projector_onto(subspace: Subspace) -> Projector:
    """Orthogonal projector with the given range.

    For M the canonical basis conjugated and stacked as rows, the projector
    is M* (M M*)^-1 M, computed by ``linalg``'s Gram solve on Gaussian
    integers with one denominator. The solve runs on the smaller side of the
    range: for dim S > n/2 it runs on the n - dim S rows of S's
    orthocomplement, read off S's integer forms by ``linalg._null_rows``,
    and the projector is I minus that one; C^n gives the identity and the
    zero space the zero matrix. The result is exact, Hermitian and
    idempotent by algebra (the constructor re-checks anyway), and the same
    range gives the same matrix.
    """
    n, k = subspace.ambient_dim, subspace.dim
    # The two bounds skip the Gram solve: Projector.zero(4) took 15-22 us against 28-39 us for a zero-row solve
    # and its check, Projector.identity(4) 19-21 against 30-41 us (min of 9 passes, three processes, 2-vCPU VM,
    # Python 3.11.7); 172 of the 600 calls in the first 2200 LatticeMix(7) ops are bounds, ~1% of an op.
    if k == 0:
        p = Projector.zero(n)
    elif k == n:
        p = Projector.identity(n)
    elif 2 * k <= n:
        p = Projector(_projection(*_integer_forms(subspace.basis)))
    else:
        p = Projector(_projection(*_null_rows(*_integer_forms(subspace.basis), n), complement=True))
    p.__dict__["_range"] = subspace  # the column space of M* (M M*)^-1 M is the span of M's rows
    return p


def range_of(p: Projector) -> Subspace:
    """Canonical column space of the projector's matrix: the range ``projector_onto`` was given, or else computed once."""
    return p._range


def projector_meet(a: Projector, b: Projector) -> Projector:
    """Projector onto the intersection of the two ranges, for any pair.

    Goes through the subspace lattice, so it also covers non-commuting
    operands. For commuting ones it equals the matrix product, which is
    how ``compile_proposition`` computes conjunction without calling this.
    """
    return projector_onto(range_of(a).meet(range_of(b)))


def projector_join(a: Projector, b: Projector) -> Projector:
    """Projector onto the span of the union of the two ranges, for any pair.

    Goes through the subspace lattice. For orthogonal operands it equals
    ``Projector.sum``, which is how ``compile_proposition`` computes
    exclusive-or without calling this.
    """
    return projector_onto(range_of(a).join(range_of(b)))
