"""Cross-checks of the exact linear algebra against an independent CAS.

The package never imports sympy; these tests rebuild the same questions in
sympy from scratch and compare answers, so a systematic bug in the rref or
null-space routines cannot hide behind itself.
"""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    nonzero_scalars_st,
    rand_combination,
    rand_scalar,
    rand_span_pair,
    rand_state,
    rand_subspace,
    rand_subspace_of_dim,
    sparse_matrices_st,
    sparse_states_st,
    sympy_span,
    to_sympy,
)
from qgap import (
    GaussianRational,
    Matrix,
    ShapeError,
    StateVector,
    Subspace,
    projector_onto,
    range_of,
    tensor_product,
)
from qgap.linalg import _integer_forms, _integer_rows, _null_rows, _rank
from qgap.scalars import ONE


def rand_matrix(rng: Random, rows: int, cols: int) -> Matrix:
    return Matrix(rows, cols, tuple(rand_scalar(rng) for _ in range(rows * cols)))


def to_sympy_vec(v):
    return sp.Matrix([sp.Rational(e.re) + sp.I * sp.Rational(e.im) for e in v.entries])


def test_rref_and_rank_agree_with_sympy():
    rng = Random(101)
    for _ in range(30):
        m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        reduced, pivots = to_sympy(m).rref()
        assert Subspace.row_space(m).dim == len(pivots)
        assert _rank(*_integer_rows([m.row(i) for i in range(m.rows)]), m.cols) == len(pivots)
        assert to_sympy(m.rref()) == reduced


@pytest.mark.parametrize("height", (2, 1000))
@settings(max_examples=60)
@given(data=st.data())
def test_sparse_rref_agrees_with_sympy(height, data):
    # Mostly zero entries, forced zero rows and columns, up to the 6x8 of a
    # meet's Zassenhaus block (a join stacks up to 6x4).
    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 8))
    m = data.draw(sparse_matrices_st(rows, cols, height))
    reduced, pivots = to_sympy(m).rref()
    assert to_sympy(m.rref()) == reduced
    assert _rank(*_integer_rows([m.row(i) for i in range(m.rows)]), m.cols) == len(pivots)
    assert Subspace.row_space(m) == sympy_span(cols, [reduced.row(i) for i in range(len(pivots))])


@pytest.mark.parametrize("height", (2, 1000))
@settings(max_examples=60)
@given(data=st.data())
def test_sparse_column_space_agrees_with_sympy(height, data):
    # Columns reduced straight from the matrix, with no transposed Matrix,
    # against sympy's pivot columns reduced by sympy.
    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    m = data.draw(sparse_matrices_st(rows, cols, height))
    assert Subspace.column_space(m) == sympy_span(rows, to_sympy(m).columnspace())


NOT_CANONICAL = "basis is not a canonical RREF basis for this ambient dimension"


def sympy_accepts(n, basis):
    """Whether the vectors all have dimension n and sympy reduces them, stacked, to themselves."""
    if any(v.dim != n for v in basis):
        return False
    stacked = sp.Matrix([list(to_sympy_vec(v)) for v in basis])
    return not basis or stacked.rref()[0] == stacked


@st.composite
def mutated_bases_st(draw, n, height):
    """A canonical basis from ``row_space``, and that basis mutated each way that applies to it."""
    rows = draw(st.integers(1, n + 1))
    basis = Subspace.row_space(draw(sparse_matrices_st(rows, n, height))).basis
    k, factors = len(basis), nonzero_scalars_st(height).filter(lambda c: c != ONE)
    bases = {"canonical": basis}
    if k:
        i, at = draw(st.integers(0, k - 1)), draw(st.integers(0, k))
        scaled = StateVector(tuple(draw(factors) * e for e in basis[i].entries))
        bases["scaled pivot row"] = basis[:i] + (scaled,) + basis[i + 1 :]
        bases["repeated row"] = basis[:at] + (basis[i],) + basis[at:]
    if k >= 2:
        i, j = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        swapped = list(basis)
        swapped[i], swapped[j] = basis[j], basis[i]
        bases["swapped rows"] = tuple(swapped)
        c = draw(factors)
        uncleared = StateVector(tuple(x + c * y for x, y in zip(basis[i].entries, basis[j].entries)))
        bases["uncleared pivot column"] = basis[:i] + (uncleared,) + basis[i + 1 :]
    other, at = draw(st.integers(1, 6).filter(lambda m: m != n)), draw(st.integers(0, k))
    bases["other dimension"] = basis[:at] + (draw(sparse_states_st(other, height)),) + basis[at:]
    bases["too many rows"] = basis + tuple(draw(sparse_states_st(n, height)) for _ in range(n + 1 - k))
    return bases


@pytest.mark.parametrize("height", (2, 1000))
@settings(max_examples=60)
@given(data=st.data())
def test_canonical_basis_check_agrees_with_sympy_rref(height, data):
    # The one canonical rule, Subspace.__init__ against Matrix.rref, held to
    # sympy's rref on canonical bases and on every mutation of them.
    n = data.draw(st.integers(1, 5))
    verdicts = set()
    for how, basis in data.draw(mutated_bases_st(n, height)).items():
        accepts = sympy_accepts(n, basis)
        verdicts.add(accepts)
        if accepts:
            assert Subspace(n, basis).basis == basis, how
        else:
            with pytest.raises(ShapeError) as refused:
                Subspace(n, basis)
            assert str(refused.value) == NOT_CANONICAL, how
    assert verdicts == {True, False}


I = GaussianRational(0, 1)
BIG = GaussianRational(Fraction(-997, 991), Fraction(983, 977))


@pytest.mark.parametrize(
    "rows",
    [
        pytest.param([[I, 1, 0], [2, I, 1 + I]], id="pivot-i"),
        pytest.param([[1 + I, 2, -I], [1, 1 - I, 3]], id="pivot-1+i"),
        pytest.param([[0, 0, 1 + I], [0, 2 * I, 1], [3, 1, 0]], id="row-swaps"),
        pytest.param([[Fraction(1, 2), Fraction(1, 3), 1], [Fraction(2, 5), I / 7, Fraction(1, 6)]], id="denominators"),
        pytest.param([[1, I, 0, 2], [0, 0, 0, 0], [0, 1, 1, 1], [0, 0, 0, 0], [1, 0, 1 - I, 0]], id="zero-rows-between"),
        pytest.param([[BIG, BIG * BIG, 1], [BIG * I, 1, BIG], [1, BIG + I, BIG * BIG * BIG]], id="height-1000"),
        pytest.param(
            [[BIG, 0, 1, 0, BIG, 0, 1, 0], [0, 1, BIG * I, 0, 0, 1, BIG * I, 0], [1 + I, BIG, 0, 1, 0, 0, 0, 0]],
            id="zassenhaus-height-1000",
        ),
    ],
)
def test_explicit_rref_agrees_with_sympy(rows):
    m = Matrix.from_rows(rows)
    reduced, pivots = to_sympy(m).rref()
    assert to_sympy(m.rref()) == reduced
    assert Subspace.row_space(m).dim == len(pivots)


def test_kernel_agrees_with_sympy():
    # Exact canonical bases of null spaces against sympy's: the complement of
    # a span is the null space of its conjugated basis B, and the kernel of a
    # projector the null space of its matrix. Dense and sparse bases of 0-4
    # vectors, at entry heights 2 and 1000.
    rng = Random(202)
    for height in (2, 1000):
        for sparse in (False, True):
            for _ in range(12):
                count = rng.randint(0, 4)
                s = Subspace.from_vectors(
                    4, [rand_state(rng, height=height, sparse=sparse) for _ in range(count)]
                )
                basis = [b.entries for b in s.basis]
                conj_b = to_sympy(Matrix.from_rows(basis)).conjugate() if basis else sp.zeros(0, 4)
                assert s.orthocomplement() == sympy_span(4, conj_b.nullspace())
                p = projector_onto(s)
                assert range_of(p).orthocomplement() == sympy_span(4, to_sympy(p.matrix).nullspace())
                assert range_of(p) == s
                # range_of reads the range projector_onto was given; sympy reads the matrix's.
                assert Subspace.column_space(p.matrix) == range_of(p) == sympy_span(4, to_sympy(p.matrix).columnspace())


def conjugated_basis(s: Subspace):
    """The canonical basis of s conjugated and stacked as rows of a sympy matrix, 0 x n for the zero space."""
    if s.dim == 0:
        return sp.zeros(0, s.ambient_dim)
    return to_sympy(Matrix.from_rows([b.entries for b in s.basis])).conjugate()


@pytest.mark.parametrize("height", (2, 1000))
def test_null_rows_agree_with_sympy(height):
    # The Gaussian-integer rows read off a canonical basis's integer forms
    # are n - k in number, independent, and orthogonal to every basis vector.
    rng = Random(303 + height)
    for n in range(1, 6):
        for k in range(n + 1):
            for _ in range(3):
                s = rand_subspace_of_dim(rng, n, k, height)
                re, im = _null_rows(*_integer_forms(s.basis), n)
                assert len(re) == len(im) == n - k
                if n == k:
                    continue
                w = sp.Matrix([[a + sp.I * b for a, b in zip(xr, xi)] for xr, xi in zip(re, im)])
                assert w.rank() == n - k
                assert (conjugated_basis(s) * w.T).applyfunc(sp.expand) == sp.zeros(k, n - k)


@pytest.mark.parametrize("height", (2, 1000))
def test_complement_agrees_with_sympy_in_every_dimension(height):
    # The complement is the null space of the conjugated basis, and taking
    # it twice gives the subspace back, for every k in C^1 to C^5.
    rng = Random(404 + height)
    for n in range(1, 6):
        for k in range(n + 1):
            for _ in range(3):
                s = rand_subspace_of_dim(rng, n, k, height)
                c = s.orthocomplement()
                assert c == sympy_span(n, conjugated_basis(s).nullspace())
                assert c.dim == n - k
                assert c.orthocomplement() == s


def stacked_rank(*bases):
    """The sympy rank of the vectors of the given bases stacked as rows."""
    return sp.Matrix.vstack(*[to_sympy_vec(v).T for basis in bases for v in basis]).rank()


def test_membership_agrees_with_sympy_rank():
    # Random vectors and, half the time, combinations of the basis, so both
    # answers occur, at entry heights 2 and 1000.
    rng = Random(303)
    answers = set()
    for height in (2, 1000):
        for _ in range(30):
            count = rng.randint(0, 4)
            s = Subspace.from_vectors(4, [rand_state(rng, height=height) for _ in range(count)])
            v = rand_state(rng, height=height)
            if s.dim == 0:
                assert not s.contains(v)
                continue
            if rng.random() < 0.5:
                v = rand_combination(rng, s.basis)
            answers.add(s.contains(v))
            assert s.contains(v) == (stacked_rank(s.basis, [v]) == s.dim)
    assert answers == {True, False}


@pytest.mark.parametrize("height", (2, 1000))
def test_order_agrees_with_sympy_rank(height):
    rng = Random(606 + height)
    answers = set()
    for _ in range(30):
        a, b = rand_span_pair(rng, height)
        rank = stacked_rank(a.basis, b.basis)
        answers.update((a <= b, b <= a))
        assert (a <= b) == (rank == b.dim)
        assert (b <= a) == (rank == a.dim)
        assert a.meet(b) <= a and a.meet(b) <= b
        assert a <= a.join(b) and b <= a.join(b)
    assert answers == {True, False}
    zero = Subspace.zero(4)
    assert zero <= a and zero <= zero and not a <= zero
    for left, right in ((a, Subspace.zero(3)), (zero, Subspace.zero(3)), (Subspace.zero(3), a)):
        with pytest.raises(ShapeError):
            left <= right


def test_meet_dimension_obeys_grassmann_identity():
    rng = Random(404)
    for _ in range(25):
        a, b = rand_subspace(rng), rand_subspace(rng)
        met = a.meet(b)
        if a.dim == 0 or b.dim == 0:
            assert met.dim == 0
            continue
        assert met.dim == a.dim + b.dim - stacked_rank(a.basis, b.basis)
        for v in met.basis:
            for side in (a, b):
                assert stacked_rank(side.basis, [v]) == side.dim


def test_tensor_product_agrees_with_sympy_kron():
    rng = Random(505)
    for _ in range(20):
        a = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        b = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        kron = sp.Matrix(sp.kronecker_product(to_sympy(a), to_sympy(b)))
        assert to_sympy(tensor_product(a, b)) == kron.expand()


def test_span_projector_agrees_with_sympy_formula():
    # 1-4 vectors, so the Gram solve runs at every size up to the full space,
    # with entries of height 2 and of height 1000 (as in the lattice_mix bench).
    rng = Random(707)
    for i in range(16):
        height = (2, 1000)[i % 2]
        vectors = [rand_state(rng, height=height) for _ in range(rng.randint(1, 4))]
        s = Subspace.from_vectors(4, vectors)
        p = projector_onto(s)
        basis = s.basis
        b = sp.Matrix.hstack(*[to_sympy_vec(v) for v in basis])
        sym_p = b * (b.H * b).inv() * b.H
        assert to_sympy(p.matrix) == sp.simplify(sym_p)


def test_exact_oracle_loads_no_qgap_module():
    # The scalar, linalg and spin oracles rest on perfbench/exact.py; they are
    # independent only while it imports nothing from the code they check.
    root = Path(__file__).resolve().parent.parent
    code = (
        "import sys; "
        f"sys.path[:0] = [{str(root / 'perfbench')!r}, {str(root / 'src')!r}]; "
        "import exact; "
        "print(sorted(m for m in sys.modules if m == 'qgap' or m.startswith('qgap.')))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"
