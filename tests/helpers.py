"""Shared builders, hypothesis strategies, and independent test oracles."""

import itertools
from contextlib import contextmanager
from fractions import Fraction
from random import Random

import sympy as sp
from hypothesis import strategies as st

import exact
from qgap import (
    Atom,
    Direction,
    GaussianRational,
    Matrix,
    Projector,
    StateVector,
    Subspace,
    classical_valuate,
    projector_onto,
)
from qgap.propositions import And
from qgap.scalars import ZERO


def gr(re, im=0) -> GaussianRational:
    return GaussianRational(Fraction(re), Fraction(im))


def vec(*entries) -> StateVector:
    return StateVector(tuple(entries))


def span(dim, *vectors) -> Subspace:
    return Subspace.from_vectors(dim, [StateVector(tuple(v)) for v in vectors])


E1, E2, E3, E4 = (vec(*(1 if i == j else 0 for i in range(4))) for j in range(4))
SINGLET = vec(0, 1, -1, 0)


# --- seeded random generation (acceptance-style exhaustive loops) ---

def rand_scalar(rng: Random, allow_imag: bool = True, height: int = 2) -> GaussianRational:
    re = Fraction(rng.randint(-height, height), rng.randint(1, height))
    im = (
        Fraction(rng.randint(-height, height), rng.randint(1, height))
        if allow_imag and rng.random() < 0.5
        else Fraction(0)
    )
    return GaussianRational(re, im)


def rand_state(rng: Random, dim: int = 4, height: int = 2, sparse: bool = False) -> StateVector:
    """A random nonzero state; with ``sparse`` each entry is exactly zero half the time."""
    while True:
        entries = tuple(
            ZERO if sparse and rng.random() < 0.5 else rand_scalar(rng, height=height)
            for _ in range(dim)
        )
        if any(not e.is_zero for e in entries):
            return StateVector(entries)


def rand_subspace(rng: Random, dim: int = 4, height: int = 2) -> Subspace:
    count = rng.randint(0, dim)
    return Subspace.from_vectors(dim, [rand_state(rng, dim, height) for _ in range(count)])


def rand_subspace_of_dim(rng: Random, n: int, k: int, height: int) -> Subspace:
    """A random k-dimensional subspace of C^n, from dense or half-zero vectors."""
    sparse = rng.random() < 0.5
    while True:
        s = Subspace.from_vectors(n, [rand_state(rng, n, height, sparse) for _ in range(k)])
        if s.dim == k:
            return s


def rand_span_pair(rng: Random, height: int) -> tuple[Subspace, Subspace]:
    """Two spans of 1-3 vectors in C^4, drawn like the lattice_mix benchmark's.

    Half the time the second span's first vector is a combination of the
    first span's vectors, so the two spans share it.
    """
    a = [rand_state(rng, height=height) for _ in range(rng.randint(1, 3))]
    b = [rand_state(rng, height=height) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        b[0] = rand_combination(rng, a)
    return Subspace.from_vectors(4, a), Subspace.from_vectors(4, b)


def rand_projector_pairs(rng: Random, height: int) -> list[tuple[Projector, Projector]]:
    """Projector pairs on spans a and b drawn by ``rand_span_pair``, in both orders.

    P_a is paired with P_b, with I - P_a, with the nested P_(a meet b) and
    P_(a join b), and with P_r for r the part of a join b orthogonal to a;
    P_r is paired with P_b. Random span pairs rarely commute and are rarely
    orthogonal; nested ranges always commute, and I - P_a and P_r are
    orthogonal to P_a.
    """
    a, b = rand_span_pair(rng, height)
    p, q = projector_onto(a), projector_onto(b)
    complement = Projector(Matrix.identity(4) + p.matrix.scale(-1))
    rest = projector_onto(a.join(b).meet(a.orthocomplement()))
    nested = (projector_onto(a.meet(b)), projector_onto(a.join(b)))
    pairs = [(p, q), (p, complement), (p, rest), (rest, q)] + [(p, n) for n in nested]
    return pairs + [(y, x) for x, y in pairs]


def rand_combination(rng: Random, vectors) -> StateVector:
    """A nonzero combination of nonzero vectors, with coefficients drawn by ``rand_scalar``."""
    dim = vectors[0].dim
    entries = [ZERO] * dim
    while all(e.is_zero for e in entries):
        coeffs = [rand_scalar(rng) for _ in vectors]
        entries = [sum((c * v.entries[j] for c, v in zip(coeffs, vectors)), ZERO) for j in range(dim)]
    return StateVector(tuple(entries))


# --- work counters ---

_COUNTED = {"mul": "__mul__", "add": "__add__", "sub": "__sub__", "neg": "__neg__"}


@contextmanager
def counted_arithmetic():
    """Count GaussianRational multiplies, adds, subtractions and negations while the block runs."""
    counts = dict.fromkeys(_COUNTED, 0)
    originals = {key: getattr(GaussianRational, name) for key, name in _COUNTED.items()}

    def wrap(key):
        fn = originals[key]

        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    for key, name in _COUNTED.items():
        setattr(GaussianRational, name, wrap(key))
    try:
        yield counts
    finally:
        for key, name in _COUNTED.items():
            setattr(GaussianRational, name, originals[key])


# --- hypothesis strategies ---

_FRACTION_POOL = sorted({Fraction(n, d) for n in range(-2, 3) for d in (1, 2)})
_SCALAR_POOL = [GaussianRational(re, im) for re in _FRACTION_POOL for im in _FRACTION_POOL]

fractions_st = st.sampled_from(_FRACTION_POOL)
scalars_st = st.sampled_from(_SCALAR_POOL)

# Heights far beyond the pool above: unequal denominators, common factors
# for the gcd to remove, and parts that are exactly zero.
wide_fractions_st = st.one_of(
    st.just(Fraction(0)),
    st.integers(-10**12, 10**12).map(Fraction),
    st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**6)),
)
wide_scalars_st = st.builds(GaussianRational, wide_fractions_st, wide_fractions_st)


def nonzero_scalars_st(height: int):
    """Nonzero scalars whose parts have numerators and denominators bounded by ``height``.

    Each part is exactly zero about half the time, so purely real and purely
    imaginary values, like the entries of the spin projectors, are common.
    """
    part = st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-height, height), st.integers(1, height)),
    )
    return st.builds(GaussianRational, part, part).filter(lambda x: not x.is_zero)


def sparse_scalars_st(height: int):
    """Exactly zero about half the time, else a nonzero scalar of the given height."""
    return st.one_of(st.just(ZERO), nonzero_scalars_st(height))


@st.composite
def sparse_matrices_st(draw, rows: int, cols: int, height: int):
    """A rows x cols matrix of sparse scalars, at times with a row and a column forced to zero.

    A single row forced to zero gives the zero matrix.
    """
    zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=1))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=1))
    scalars = sparse_scalars_st(height)
    entries = tuple(
        ZERO if i in zero_rows or j in zero_cols else draw(scalars)
        for i in range(rows)
        for j in range(cols)
    )
    return Matrix(rows, cols, entries)


@st.composite
def sparse_states_st(draw, dim: int, height: int):
    """A state of sparse scalars; an all-zero draw gets one nonzero entry."""
    entries = list(draw(sparse_matrices_st(1, dim, height)).entries)
    if all(e.is_zero for e in entries):
        entries[draw(st.integers(0, dim - 1))] = draw(nonzero_scalars_st(height))
    return StateVector(tuple(entries))


@st.composite
def sparse_spans_st(draw, height: int, dim: int = 4):
    """The span of 0 to dim sparse states of the given height."""
    count = draw(st.integers(0, dim))
    return Subspace.from_vectors(dim, [draw(sparse_states_st(dim, height)) for _ in range(count)])


@st.composite
def matrices_st(draw, min_dim=1, max_dim=4, square=False):
    rows = draw(st.integers(min_dim, max_dim))
    cols = rows if square else draw(st.integers(min_dim, max_dim))
    entries = draw(st.lists(scalars_st, min_size=rows * cols, max_size=rows * cols))
    return Matrix(rows, cols, tuple(entries))


@st.composite
def states_st(draw, dim=4):
    entries = draw(
        st.lists(scalars_st, min_size=dim, max_size=dim).filter(
            lambda es: any(not e.is_zero for e in es)
        )
    )
    return StateVector(tuple(entries))


@st.composite
def subspaces_st(draw, dim=4):
    count = draw(st.integers(0, dim))
    return Subspace.from_vectors(dim, [draw(states_st(dim)) for _ in range(count)])


# --- independent oracles ---

def meet_oracle(a: Subspace, b: Subspace) -> Subspace:
    """Intersection by a direct solver on stacked coordinates, in sympy.

    Takes sympy's null space of basisA^T x - basisB^T y = 0 and maps the x
    part back, which shares no elimination with Subspace.meet.
    """
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    rows_a = to_sympy(Matrix.from_rows([v.entries for v in a.basis]))
    rows_b = to_sympy(Matrix.from_rows([v.entries for v in b.basis]))
    combos = sp.Matrix.hstack(rows_a.T, -rows_b.T).nullspace()
    return sympy_span(a.ambient_dim, [combo[: len(a.basis), :].T * rows_a for combo in combos])


def zassenhaus_meet(a: Subspace, b: Subspace) -> Subspace:
    """Intersection by one full ``Matrix.rref`` of Zassenhaus's block, the general path ``Subspace.meet`` shortens.

    The reduced form of [[A, A], [B, 0]] ends with the rows whose left half
    is zero, and their right halves are the canonical basis of the
    intersection; ``Subspace(n, basis)`` checks that they are.
    """
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    n = a.ambient_dim
    block = Matrix.from_rows([v.entries * 2 for v in a.basis] + [v.entries + (ZERO,) * n for v in b.basis]).rref()
    rows = [block.row(i) for i in range(block.rows)]
    return Subspace(n, tuple(StateVector(r[n:]) for r in rows if all(e.is_zero for e in r[:n])))


def adjoint(m: Matrix) -> Matrix:
    """The conjugate transpose M*, entry by entry."""
    return Matrix(m.cols, m.rows, [m.at(i, j).conjugate() for j in range(m.cols) for i in range(m.rows)])


def inner(u: StateVector, v: StateVector) -> GaussianRational:
    """The Hermitian inner product, conjugate-linear in u: a plain conjugate dot product."""
    total = ZERO
    for x, y in zip(u.entries, v.entries, strict=True):
        total = total + x.conjugate() * y
    return total


def commutes(p: Projector, q: Projector) -> bool:
    """Whether PQ = QP, by comparing both products, not by the library's Hermitian test."""
    return p.matrix @ q.matrix == q.matrix @ p.matrix


def gram_projector(s: Subspace) -> Matrix:
    """The projector onto s by the Gram formula M* (M M*)^-1 M, on ``Matrix`` ``@`` and ``rref``.

    M is the conjugated canonical basis stacked as rows; the reduced form of
    [M M* | M] is [I | (M M*)^-1 M]. This is how ``projector_onto`` computed
    the matrix before its elimination moved to Gaussian integers.
    """
    n = s.ambient_dim
    if s.dim == 0:
        return Matrix.zero(n, n)
    m = Matrix.from_rows([[e.conjugate() for e in v.entries] for v in s.basis])
    m_star = adjoint(m)
    gram = m @ m_star
    k = gram.rows
    solved = Matrix.from_rows([gram.row(i) + m.row(i) for i in range(k)]).rref()
    return m_star @ Matrix.from_rows([solved.row(i)[k:] for i in range(k)])


def partner(a: Atom) -> Atom:
    """The atom of the same particle and axis pointing the other way."""
    flipped = Direction.DOWN if a.direction is Direction.UP else Direction.UP
    return Atom(a.particle, a.axis, flipped)


def atom_order(a: Atom) -> tuple[str, str, str]:
    """Sort key: particle, then axis, then direction by name (down before up)."""
    return (a.particle.value, a.axis.value, a.direction.value)


def classical_solutions_oracle(constraints, atoms) -> list[dict[Atom, int]]:
    """Satisfying assignments by brute force over every atom independently.

    Closes the atom list under up/down partners, sorts it, enumerates all
    2^|atoms| bit vectors in ascending binary order and drops those where
    some (particle, axis) pair is not exactly one up and one down, before
    checking the constraints. Shares no enumeration code with
    classical_solutions, which assigns one bit per pair.
    """
    closed = {}
    for a in atoms:
        closed.setdefault(a, None)
        closed.setdefault(partner(a), None)
    universe = sorted(closed, key=atom_order)
    solutions = []
    for bits in itertools.product((0, 1), repeat=len(universe)):
        assignment = dict(zip(universe, bits))
        if any(
            assignment[a] + assignment[partner(a)] != 1
            for a in universe
            if a.direction is Direction.UP
        ):
            continue
        if all(classical_valuate(prop, assignment) == target for prop, target in constraints):
            solutions.append(assignment)
    return solutions


def scalar_pair(value) -> tuple[Fraction, Fraction]:
    """A scalar, int or Fraction as a plain (real, imaginary) Fraction pair."""
    if isinstance(value, GaussianRational):
        return value.re, value.im
    return Fraction(value), Fraction(0)


def to_sympy(m: Matrix):
    return sp.Matrix(
        [
            [sp.Rational(m.at(i, j).re) + sp.I * sp.Rational(m.at(i, j).im) for j in range(m.cols)]
            for i in range(m.rows)
        ]
    )


def from_sympy(value) -> GaussianRational:
    """A Gaussian-rational sympy number as the scalar type."""
    re, im = (sp.Rational(part) for part in sp.expand(value).as_real_imag())
    return GaussianRational(Fraction(re.p, re.q), Fraction(im.p, im.q))


def sympy_span(dim: int, vectors) -> Subspace:
    """The canonical subspace spanned by sympy vectors, reduced by sympy alone."""
    if not vectors:
        return Subspace.zero(dim)
    reduced, pivots = sp.Matrix([list(v) for v in vectors]).rref()
    return Subspace(
        dim,
        tuple(StateVector(tuple(from_sympy(e) for e in reduced.row(i))) for i in range(len(pivots))),
    )


class OracleRefusal(Exception):
    """The spin oracle's prediction that compiling ``node`` is refused."""

    def __init__(self, node):
        super().__init__(str(node))
        self.node = node


_SPIN_VECTORS = {
    ("z", "up"): (exact.ONE, exact.ZERO),
    ("z", "down"): (exact.ZERO, exact.ONE),
    ("x", "up"): (exact.ONE, exact.ONE),
    ("x", "down"): (exact.ONE, exact.c(-1)),
    ("y", "up"): (exact.ONE, exact.I),
    ("y", "down"): (exact.ONE, exact.c(0, -1)),
}


def _frozen(m):
    """A matrix as a tuple of row tuples, so equal matrices hash alike and can be interned."""
    return tuple(map(tuple, m))


class SpinOracle:
    """The spin language compiled and valuated in plain Fraction pairs.

    A matrix is a tuple of rows of (re, im) pairs, built with the plain
    ``fractions`` arithmetic of ``perfbench/exact.py``, which imports no qgap
    module and so shares no code with qgap's scalars, linear algebra or
    compiler.
    Conjunction is defined when the operands commute, tested as PQ == QP
    rather than through the Hermitian product, and gives PQ; exclusive-or
    is defined when PQ is zero and gives P + Q. Operands are compiled left
    before right, so a refusal names the first node that fails. Equal
    matrices are interned, which lets products and connectives be memoized
    by the identity of their operands.
    """

    def __init__(self):
        self._interned = {}
        self._combined = {}
        self._products = {}
        self._atoms = {}

    def _intern(self, m):
        return self._interned.setdefault(m, m)

    def atom_projector(self, atom):
        if atom not in self._atoms:
            one = exact.outer_projector(_SPIN_VECTORS[(atom.axis.value, atom.direction.value)])
            eye = exact.identity(2)
            pair = (one, eye) if atom.particle.value == "A" else (eye, one)
            self._atoms[atom] = self._intern(_frozen(exact.kron(*pair)))
        return self._atoms[atom]

    def _product(self, a, b):
        key = (id(a), id(b))
        if key not in self._products:
            self._products[key] = self._intern(_frozen(exact.matmul(a, b)))
        return self._products[key]

    def compile(self, prop):
        """The projector of ``prop``; raises ``OracleRefusal`` where compiling is refused."""
        if isinstance(prop, Atom):
            return self.atom_projector(prop)
        left, right = self.compile(prop.left), self.compile(prop.right)
        is_and = isinstance(prop, And)
        key = (is_and, id(left), id(right))
        if key not in self._combined:
            product = self._product(left, right)
            if is_and:
                defined = product == self._product(right, left)
                result = product
            else:
                defined = all(exact.is_zero(x) for row in product for x in row)
                result = _frozen(exact.mat_add(left, right))
            self._combined[key] = self._intern(result) if defined else None
        if self._combined[key] is None:
            raise OracleRefusal(prop)
        return self._combined[key]

    @staticmethod
    def apply(matrix, vector):
        return tuple(exact.apply(matrix, vector))

    def valuate(self, matrix, vector) -> str:
        """``"false"`` on a zero image, ``"true"`` on a fixed point, ``"gap"`` otherwise."""
        image = self.apply(matrix, vector)
        if all(exact.is_zero(x) for x in image):
            return "false"
        return "true" if image == tuple(vector) else "gap"
