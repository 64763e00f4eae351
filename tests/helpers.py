"""Shared builders, hypothesis strategies, and independent test oracles."""

import itertools
from fractions import Fraction
from random import Random

from hypothesis import strategies as st

from qgap import Atom, Direction, GaussianRational, Matrix, StateVector, Subspace, classical_valuate
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

def rand_scalar(rng: Random, allow_imag: bool = True) -> GaussianRational:
    re = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
    im = Fraction(rng.randint(-2, 2), rng.randint(1, 2)) if allow_imag and rng.random() < 0.5 else Fraction(0)
    return GaussianRational(re, im)


def rand_state(rng: Random, dim: int = 4) -> StateVector:
    while True:
        entries = tuple(rand_scalar(rng) for _ in range(dim))
        if any(not e.is_zero for e in entries):
            return StateVector(entries)


def rand_subspace(rng: Random, dim: int = 4) -> Subspace:
    count = rng.randint(0, dim)
    return Subspace.from_vectors(dim, [rand_state(rng, dim) for _ in range(count)])


# --- hypothesis strategies ---

_FRACTION_POOL = sorted({Fraction(n, d) for n in range(-2, 3) for d in (1, 2)})
_SCALAR_POOL = [GaussianRational(re, im) for re in _FRACTION_POOL for im in _FRACTION_POOL]

fractions_st = st.sampled_from(_FRACTION_POOL)
scalars_st = st.sampled_from(_SCALAR_POOL)


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
    """Intersection by a direct solver on stacked coordinates.

    Solves basisA^T x - basisB^T y = 0 and maps the x part back, which never
    touches the orthocomplement route used by Subspace.meet.
    """
    if a.is_zero or b.is_zero:
        return Subspace.zero(a.ambient_dim)
    rows = []
    for coord in range(a.ambient_dim):
        row = [v.entries[coord] for v in a.basis] + [-v.entries[coord] for v in b.basis]
        rows.append(row)
    combos = Matrix.from_rows(rows).kernel_basis()
    vectors = []
    for combo in combos:
        coeffs = combo.entries[: len(a.basis)]
        entries = []
        for coord in range(a.ambient_dim):
            acc = ZERO
            for c, v in zip(coeffs, a.basis):
                acc = acc + c * v.entries[coord]
            entries.append(acc)
        if any(not e.is_zero for e in entries):
            vectors.append(StateVector(tuple(entries)))
    return Subspace.from_vectors(a.ambient_dim, vectors)


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
        closed.setdefault(a.opposite(), None)
    universe = sorted(closed, key=Atom.sort_key)
    solutions = []
    for bits in itertools.product((0, 1), repeat=len(universe)):
        assignment = dict(zip(universe, bits))
        if any(
            assignment[a] + assignment[a.opposite()] != 1
            for a in universe
            if a.direction is Direction.UP
        ):
            continue
        if all(classical_valuate(prop, assignment) == target for prop, target in constraints):
            solutions.append(assignment)
    return solutions


def to_sympy(m: Matrix):
    import sympy as sp

    return sp.Matrix(
        [
            [sp.Rational(m.at(i, j).re) + sp.I * sp.Rational(m.at(i, j).im) for j in range(m.cols)]
            for i in range(m.rows)
        ]
    )
