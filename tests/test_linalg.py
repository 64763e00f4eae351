import copy
import pickle
from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact
from helpers import (
    E2,
    SINGLET,
    adjoint,
    counted_arithmetic,
    gr,
    matrices_st,
    nonzero_scalars_st,
    rand_state,
    scalar_pair,
    sparse_matrices_st,
    sparse_scalars_st,
    sparse_states_st,
    vec,
)
from qgap import (
    Atom,
    Axis,
    Direction,
    GaussianRational,
    InvalidStateError,
    Matrix,
    Particle,
    Projector,
    ShapeError,
    StateVector,
    Subspace,
    atom_projector,
    range_of,
    state_tensor,
    tensor_product,
)
from qgap.linalg import _eliminate, _integer_forms, _is_idempotent, _kills_or_fixes
from qgap.scalars import ONE, ZERO

I = gr(0, 1)

SIGMA_ZZ = Matrix.from_rows([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]])
P_Z_UD = Matrix.from_rows([[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
P_Z_DU = Matrix.from_rows([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
H = Fraction(1, 2)
DIFF_X = Matrix.from_rows(
    [[H, 0, 0, -H], [0, H, -H, 0], [0, -H, H, 0], [-H, 0, 0, H]]
)


class TestMatMul:
    def test_identity(self):
        assert Matrix.identity(4) @ SIGMA_ZZ == SIGMA_ZZ

    def test_orthogonal_projectors_multiply_to_zero(self):
        assert P_Z_UD @ P_Z_DU == Matrix.zero(4, 4)

    def test_observable_action_on_singlet(self):
        image = SIGMA_ZZ.apply(SINGLET)
        assert image == tuple(-e for e in SINGLET.entries)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Matrix.identity(2) @ Matrix.identity(3)


class TestRref:
    def test_zero_matrix(self):
        z = Matrix.zero(3, 3)
        assert z.rref() == z

    def test_already_reduced(self):
        m = Matrix.from_rows([[0, 1, -1, 0]])
        assert m.rref() == m

    def test_rank_two_projector_matrix(self):
        reduced = DIFF_X.rref()
        assert reduced == Matrix.from_rows(
            [[1, 0, 0, -1], [0, 1, -1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        )
        assert Subspace.row_space(DIFF_X).dim == 2

    @given(matrices_st())
    def test_idempotent(self, m):
        assert m.rref().rref() == m.rref()


HEIGHTS = (2, 1000)
dims_st = st.integers(1, 4)


def pairs(entries):
    return [scalar_pair(e) for e in entries]


def pair_rows(m):
    return [pairs(m.row(i)) for i in range(m.rows)]


class TestSparseProducts:
    """Products and sums skip exact-zero terms; a dense Fraction-pair reference decides."""

    @pytest.mark.parametrize("height", HEIGHTS)
    @given(data=st.data())
    def test_matmul(self, height, data):
        rows, inner_dim, cols = data.draw(dims_st), data.draw(dims_st), data.draw(dims_st)
        a = data.draw(sparse_matrices_st(rows, inner_dim, height))
        b = data.draw(sparse_matrices_st(inner_dim, cols, height))
        expected = exact.matmul(pair_rows(a), pair_rows(b))
        assert pairs((a @ b).entries) == [x for row in expected for x in row]

    @pytest.mark.parametrize("height", HEIGHTS)
    @given(data=st.data())
    def test_apply(self, height, data):
        rows, cols = data.draw(dims_st), data.draw(dims_st)
        m = data.draw(sparse_matrices_st(rows, cols, height))
        v = data.draw(sparse_states_st(cols, height))
        assert pairs(m.apply(v)) == exact.apply(pair_rows(m), pairs(v.entries))

    @pytest.mark.parametrize("height", HEIGHTS)
    @given(data=st.data())
    def test_add(self, height, data):
        rows, cols = data.draw(dims_st), data.draw(dims_st)
        a = data.draw(sparse_matrices_st(rows, cols, height))
        b = data.draw(sparse_matrices_st(rows, cols, height))
        assert pairs((a + b).entries) == [exact.add(x, y) for x, y in zip(pairs(a.entries), pairs(b.entries))]

    @pytest.mark.parametrize("height", HEIGHTS)
    @given(data=st.data())
    def test_scale(self, height, data):
        rows, cols = data.draw(dims_st), data.draw(dims_st)
        m = data.draw(sparse_matrices_st(rows, cols, height))
        f = data.draw(sparse_scalars_st(height))
        assert pairs(m.scale(f).entries) == [exact.mul(scalar_pair(f), x) for x in pairs(m.entries)]

    @pytest.mark.parametrize("shape", [(1, 1), (3, 4), (4, 8)])
    def test_zero_matrix(self, shape):
        rows, cols = shape
        zero = Matrix.zero(rows, cols)
        assert zero @ Matrix.identity(cols) == zero
        assert Matrix.identity(rows) @ zero == zero
        assert zero.apply(StateVector.of(*([1] * cols))) == (ZERO,) * rows
        assert zero.rref() == zero
        assert Subspace.row_space(zero).dim == 0


def expected_work(term_counts):
    """(multiplies, adds) of entries with these term counts: the first term of each is stored."""
    return sum(term_counts), sum(n - 1 for n in term_counts if n)


def nonzero_at(entries):
    return {k for k, e in enumerate(entries) if not e.is_zero}


class TestSparseWork:
    """Each output entry multiplies exactly its nonzero-by-nonzero terms and adds them once each."""

    @pytest.mark.parametrize("height", HEIGHTS)
    @given(data=st.data())
    def test_matmul(self, height, data):
        rows, inner_dim, cols = data.draw(dims_st), data.draw(dims_st), data.draw(dims_st)
        a = data.draw(sparse_matrices_st(rows, inner_dim, height))
        b = data.draw(sparse_matrices_st(inner_dim, cols, height))
        terms = [
            len(nonzero_at(a.row(i)) & nonzero_at(b.col(j))) for i in range(rows) for j in range(cols)
        ]
        with counted_arithmetic() as counts:
            a @ b
        assert (counts["mul"], counts["add"]) == expected_work(terms)

    @pytest.mark.parametrize("height", HEIGHTS)
    @given(data=st.data())
    def test_apply(self, height, data):
        rows, cols = data.draw(dims_st), data.draw(dims_st)
        m = data.draw(sparse_matrices_st(rows, cols, height))
        v = data.draw(sparse_states_st(cols, height))
        terms = [len(nonzero_at(m.row(i)) & nonzero_at(v.entries)) for i in range(rows)]
        with counted_arithmetic() as counts:
            m.apply(v)
        assert (counts["mul"], counts["add"]) == expected_work(terms)

    @pytest.mark.parametrize("height", HEIGHTS)
    @given(data=st.data())
    def test_add(self, height, data):
        rows, cols = data.draw(dims_st), data.draw(dims_st)
        a = data.draw(sparse_matrices_st(rows, cols, height))
        b = data.draw(sparse_matrices_st(rows, cols, height))
        with counted_arithmetic() as counts:
            a + b
        assert (counts["mul"], counts["add"]) == (0, len(nonzero_at(a.entries) & nonzero_at(b.entries)))

    @pytest.mark.parametrize("height", HEIGHTS)
    @given(data=st.data())
    def test_add_values(self, height, data):
        # Some of b's entries are a's negated, so those sums cancel to an exact zero.
        rows, cols = data.draw(dims_st), data.draw(dims_st)
        a = data.draw(sparse_matrices_st(rows, cols, height))
        drawn = data.draw(sparse_matrices_st(rows, cols, height))
        flips = data.draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
        b = Matrix(rows, cols, tuple(-x if flip else y for x, y, flip in zip(a.entries, drawn.entries, flips)))
        with counted_arithmetic() as counts:
            total = a + b
        assert (total.rows, total.cols) == (rows, cols)
        assert total.entries == tuple(GaussianRational.__add__(x, y) for x, y in zip(a.entries, b.entries))
        assert (counts["mul"], counts["add"]) == (0, len(nonzero_at(a.entries) & nonzero_at(b.entries)))

    def test_add_of_entries_that_cancel(self):
        # A.x.up + A.x.down is I: the off-diagonal 1/2 and -1/2 cancel to zeros, the diagonal halves to ones.
        up, down = (atom_projector(Atom(Particle.A, Axis.X, d)).matrix for d in Direction)
        with counted_arithmetic() as counts:
            total = up + down
        assert total == Matrix.identity(4)
        assert all(type(e) is GaussianRational for e in total.entries)
        assert (counts["mul"], counts["add"]) == (0, 8)


    @pytest.mark.parametrize("height", HEIGHTS)
    @given(data=st.data())
    def test_scale(self, height, data):
        rows, cols = data.draw(dims_st), data.draw(dims_st)
        m = data.draw(sparse_matrices_st(rows, cols, height))
        with counted_arithmetic() as counts:
            m.scale(-1)
        assert (counts["mul"], counts["add"]) == (len(nonzero_at(m.entries)), 0)

    def test_kernel_of_a_projector_multiplies_nothing(self):
        p = Projector(DIFF_X)
        with counted_arithmetic() as counts:
            kernel = range_of(p).orthocomplement()
        assert kernel == Subspace.from_vectors(4, [vec(1, 0, 0, 1), vec(0, 1, 1, 0)])
        assert counts["mul"] == 0


class TestCachedPattern:
    """The nonzero pattern and the integer views kept on a matrix or a state change no equality, hash, repr or copy."""

    @pytest.mark.parametrize("height", HEIGHTS)
    @given(data=st.data())
    def test_invisible_to_eq_hash_and_repr(self, height, data):
        rows, cols = data.draw(dims_st), data.draw(dims_st)
        m = data.draw(sparse_matrices_st(rows, cols, height))
        v = data.draw(sparse_states_st(cols, height))
        fresh, fresh_v = Matrix(m.rows, m.cols, m.entries), StateVector(v.entries)
        before = (hash(m), repr(m), hash(v), repr(v))
        m @ Matrix.identity(cols)
        m._integer_pattern
        v._integer_form
        assert m == m and m == fresh and fresh == m
        assert v == v and v == fresh_v and fresh_v == v
        assert (hash(m), repr(m), hash(v), repr(v)) == before
        assert before == (hash(fresh), repr(fresh), hash(fresh_v), repr(fresh_v))

    @pytest.mark.parametrize("used", [False, True], ids=["cold", "used"])
    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))], ids=["deepcopy", "pickle"]
    )
    def test_survives_copy_and_pickle(self, clone, used):
        m = DIFF_X + P_Z_UD.scale(I)
        v = SINGLET.scale(gr(2, 3))
        if used:
            m.apply(SINGLET)
            m @ m
            _kills_or_fixes(m, v)
            _is_idempotent(m)
        m2, v2 = clone(m), clone(v)
        assert m2 == m and hash(m2) == hash(m) and repr(m2) == repr(m)
        assert v2 == v and hash(v2) == hash(v) and repr(v2) == repr(v)
        assert m2 @ m2 == m @ m
        assert m2.apply(SINGLET) == m.apply(SINGLET)
        assert m2._integer_pattern == m._integer_pattern and v2._integer_form == v._integer_form
        assert _kills_or_fixes(m2, v2) == _kills_or_fixes(m, v) == (False, False)
        assert _is_idempotent(m2) is _is_idempotent(m) is False


def apply_answers(m, v):
    """Whether the image read off ``Matrix.apply`` is zero, and whether it is the state itself."""
    image = m.apply(v)
    return all(e.is_zero for e in image), image == v.entries


class TestKillsOrFixes:
    """The integer kernel behind valuation answers as the image of ``Matrix.apply`` does."""

    @pytest.mark.parametrize("height", HEIGHTS)
    def test_agrees_with_apply(self, height):
        # Besides drawn matrices (zero rows and the zero matrix among them),
        # a drawn matrix with the state's support columns cleared kills the
        # state, and the identity plus such a matrix fixes it.
        seen = set()
        factors = nonzero_scalars_st(height).filter(lambda f: f.im != 0 and f * f.conjugate() != ONE)

        @settings(max_examples=60)
        @given(data=st.data())
        def check(data):
            dim = data.draw(dims_st)
            v = data.draw(sparse_states_st(dim, height))
            kind = data.draw(st.sampled_from(["drawn", "zero", "identity", "kills", "fixes"]))
            if kind == "zero":
                m = Matrix.zero(dim, dim)
            elif kind == "identity":
                m = Matrix.identity(dim)
            else:
                m = data.draw(sparse_matrices_st(dim, dim, height))
                if kind != "drawn":
                    support = nonzero_at(v.entries)
                    m = Matrix(dim, dim, tuple(ZERO if k % dim in support else x for k, x in enumerate(m.entries)))
                if kind == "fixes":
                    m = m + Matrix.identity(dim)
            for state in (v, v.scale(data.draw(factors))):
                answers = _kills_or_fixes(m, state)
                assert answers == apply_answers(m, state)
                seen.add(answers)

        check()
        assert seen == {(True, False), (False, True), (False, False)}


@st.composite
def hermitian_st(draw, dim: int, height: int):
    """A dim x dim Hermitian matrix of sparse scalars: real diagonal, mirrored conjugates."""
    scalars = sparse_scalars_st(height)
    entries = [[ZERO] * dim for _ in range(dim)]
    for i in range(dim):
        entries[i][i] = gr(draw(scalars).re)
        for j in range(i + 1, dim):
            entries[i][j] = draw(scalars)
            entries[j][i] = entries[i][j].conjugate()
    return Matrix.from_rows(entries)


def hermitian_by_definition(m):
    return m.is_square and m == adjoint(m)


class TestIsHermitian:
    """The in-place test agrees with the definition, M square and M == M*."""

    @pytest.mark.parametrize("height", HEIGHTS)
    @given(data=st.data())
    def test_square_and_non_square(self, height, data):
        rows = data.draw(dims_st)
        cols = rows if data.draw(st.booleans()) else data.draw(dims_st)
        m = data.draw(sparse_matrices_st(rows, cols, height))
        assert m.is_hermitian() == hermitian_by_definition(m)

    @pytest.mark.parametrize("height", HEIGHTS)
    @given(data=st.data())
    def test_hermitian(self, height, data):
        m = data.draw(hermitian_st(data.draw(dims_st), height))
        assert m.is_hermitian() and hermitian_by_definition(m)

    @pytest.mark.parametrize("height", HEIGHTS)
    @given(data=st.data())
    def test_one_off_diagonal_entry_perturbed(self, height, data):
        dim = data.draw(st.integers(2, 4))
        m = data.draw(hermitian_st(dim, height))
        i, j = data.draw(st.sampled_from([(i, j) for i in range(dim) for j in range(dim) if i != j]))
        rows = [list(m.row(k)) for k in range(m.rows)]
        rows[i][j] = rows[i][j] + data.draw(nonzero_scalars_st(height))
        perturbed = Matrix.from_rows(rows)
        assert not perturbed.is_hermitian()
        assert perturbed.is_hermitian() == hermitian_by_definition(perturbed)

    @pytest.mark.parametrize("height", HEIGHTS)
    @given(data=st.data())
    def test_diagonal_entry_with_imaginary_part(self, height, data):
        dim = data.draw(dims_st)
        m = data.draw(hermitian_st(dim, height))
        i = data.draw(st.integers(0, dim - 1))
        im = data.draw(st.integers(1, height) | st.integers(-height, -1))
        rows = [list(m.row(k)) for k in range(m.rows)]
        rows[i][i] = rows[i][i] + gr(0, Fraction(im, data.draw(st.integers(1, height))))
        skewed = Matrix.from_rows(rows)
        assert not skewed.is_hermitian()
        assert skewed.is_hermitian() == hermitian_by_definition(skewed)


class TestContentRemoval:
    """Every row ``_eliminate`` rewrites has lost its integer content, the gcd of all its parts.

    No answer depends on it, only the size of the integers: the rows are
    the integer forms of random states, 2 to 6 of them in C^4, so some rows
    cancel to zero, which must be left as they are.
    """

    @pytest.mark.parametrize("above", (True, False))
    @pytest.mark.parametrize("height", (2, 1000))
    def test_every_rewritten_row_is_primitive(self, height, above):
        rng = Random(f"content/{height}/{above}")
        rewritten = zeros = 0
        for _ in range(60):
            states = [rand_state(rng, height=height, sparse=rng.random() < 0.5) for _ in range(rng.randint(2, 6))]
            re, im = _integer_forms(states)
            _eliminate(re, im, 4, above=above)
            for xr, xi in zip(re, im):
                # The forms are tuples; a rewritten row is a new list.
                if type(xr) is list and (any(xr) or any(xi)):
                    rewritten += 1
                    assert gcd(*xr, *xi) == 1, (xr, xi)
                zeros += not any(xr) and not any(xi)
        assert rewritten > 60 and zeros > 0


class TestRank:
    """Rank is the dimension of the row space."""

    def test_identity(self):
        assert Subspace.row_space(Matrix.identity(4)).dim == 4

    def test_rank_one(self):
        assert Subspace.row_space(P_Z_UD).dim == 1

    def test_sum_of_orthogonal_rank_ones(self):
        assert Subspace.row_space(P_Z_UD + P_Z_DU).dim == 2


class TestKernel:
    """Null spaces, read off a canonical basis by ``orthocomplement``."""

    def test_injective(self):
        assert Subspace.zero(4).orthocomplement().orthocomplement() == Subspace.zero(4)

    def test_zero_matrix(self):
        basis = range_of(Projector.zero(4)).orthocomplement().basis
        assert len(basis) == 4
        assert [b.entries for b in basis] == [
            tuple(Matrix.identity(4).row(i)) for i in range(4)
        ]

    def test_coordinate_projector(self):
        basis = range_of(Projector(P_Z_UD)).orthocomplement().basis
        assert [str(b) for b in basis] == ["[1,0,0,0]", "[0,0,1,0]", "[0,0,0,1]"]

    @given(matrices_st(square=True))
    def test_rank_nullity(self, m):
        # The null space of m is the complement of the span of its conjugated rows.
        rows = [
            StateVector(tuple(e.conjugate() for e in m.row(i)))
            for i in range(m.rows)
            if not all(e.is_zero for e in m.row(i))
        ]
        s = Subspace.from_vectors(m.cols, rows)
        null = s.orthocomplement()
        assert Subspace.row_space(m).dim == s.dim
        assert s.dim + null.dim == m.cols
        assert all(m.apply(v) == (ZERO,) * m.rows for v in null.basis)


class TestAdjoint:
    def test_real_symmetric_is_fixed(self):
        assert adjoint(SIGMA_ZZ) == SIGMA_ZZ

    def test_defining_example(self):
        m = Matrix.from_rows([[gr(0), I], [gr(0), gr(0)]])
        assert adjoint(m) == Matrix.from_rows([[gr(0), gr(0)], [-I, gr(0)]])

    def test_quarter_matrix_is_hermitian(self):
        q = Fraction(1, 4)
        p_y_ud = Matrix.from_rows(
            [
                [gr(q), gr(0, q), gr(0, -q), gr(q)],
                [gr(0, -q), gr(q), gr(-q), gr(0, -q)],
                [gr(0, q), gr(-q), gr(q), gr(0, q)],
                [gr(q), gr(0, q), gr(0, -q), gr(q)],
            ]
        )
        assert p_y_ud.is_hermitian()
        assert (p_y_ud @ p_y_ud) == p_y_ud


class TestTensor:
    def test_pauli_square(self):
        sigma_z = Matrix.from_rows([[1, 0], [0, -1]])
        assert tensor_product(sigma_z, sigma_z) == SIGMA_ZZ

    def test_basis_vectors(self):
        assert state_tensor(vec(1, 0), vec(0, 1)) == E2

    def test_identity(self):
        assert tensor_product(Matrix.identity(2), Matrix.identity(2)) == Matrix.identity(4)

    @given(matrices_st(max_dim=2), matrices_st(max_dim=2), matrices_st(max_dim=2), matrices_st(max_dim=2))
    def test_mixed_product(self, a, b, c, d):
        if a.cols != c.rows or b.cols != d.rows:
            return
        lhs = tensor_product(a, b) @ tensor_product(c, d)
        assert lhs == tensor_product(a @ c, b @ d)


class TestStateVector:
    def test_rejects_zero(self):
        with pytest.raises(InvalidStateError):
            StateVector((gr(0), gr(0)))

    def test_rejects_empty(self):
        with pytest.raises(InvalidStateError):
            StateVector(())

    def test_scale_by_zero_rejected(self):
        with pytest.raises(InvalidStateError):
            E2.scale(0)


def test_matrix_shape_validation():
    with pytest.raises(ShapeError):
        Matrix(2, 2, (gr(1),))
    with pytest.raises(ShapeError):
        Matrix.from_rows([[1, 2], [3]])


def test_matrix_converts_and_checks_its_entries():
    # Each entry is lifted by coerce_scalar, as a StateVector's are, so ints make the same value as from_rows.
    m = Matrix(2, 2, (1, 0, 0, 0))
    assert m == Matrix.from_rows([[1, 0], [0, 0]])
    assert all(type(e) is GaussianRational for e in m.entries)
    assert Projector(m).matrix == m
    with pytest.raises(TypeError):
        Matrix(1, 1, ("x",))


def test_shape_errors_of_apply_and_add():
    with pytest.raises(ShapeError, match=r"^cannot apply 4x4 to dim-3 vector$"):
        Matrix.identity(4).apply(vec(1, 0, 0))
    with pytest.raises(ShapeError, match=r"^cannot add 2x2 and 2x3$"):
        Matrix.identity(2) + Matrix.zero(2, 3)
