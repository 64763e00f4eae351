import itertools
import json
from fractions import Fraction
from math import lcm
from pathlib import Path
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    SINGLET,
    E2,
    adjoint,
    counted_arithmetic,
    gr,
    gram_projector,
    rand_projector_pairs,
    rand_state,
    rand_subspace_of_dim,
    sparse_matrices_st,
    span,
    sparse_spans_st,
    states_st,
    vec,
)
from qgap import (
    InvalidValueError,
    Matrix,
    Projector,
    QgapError,
    ShapeError,
    Subspace,
    kernel_of,
    parse_span,
    projector_from_span,
    projector_join,
    projector_meet,
    compile_proposition,
    parse_proposition,
    projector_onto,
    range_of,
    standard_context,
)
from qgap import projectors
from qgap.linalg import _is_idempotent, _trace_of_product_is_zero
from qgap.scalars import ZERO, GaussianRational
from qgap.scenario import _run_table

H = Fraction(1, 2)
Q = Fraction(1, 4)

P_Z_UD = Projector(Matrix.from_rows([[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]))
P_Z_DU = Projector(Matrix.from_rows([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]))
DIFF_Z = Projector(Matrix.from_rows([[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]))
DIFF_X = Projector(
    Matrix.from_rows([[H, 0, 0, -H], [0, H, -H, 0], [0, -H, H, 0], [-H, 0, 0, H]])
)
SINGLET_PROJ = Projector(
    Matrix.from_rows([[0, 0, 0, 0], [0, H, -H, 0], [0, -H, H, 0], [0, 0, 0, 0]])
)


class TestConstructorValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Projector(Matrix.zero(2, 3))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            Projector(Matrix.from_rows([[0, 1], [0, 0]]))

    def test_rejects_non_idempotent(self):
        with pytest.raises(ValueError):
            Projector(Matrix.identity(2).scale(2))

    @pytest.mark.parametrize(
        "matrix",
        [Matrix.zero(2, 3), Matrix.from_rows([[0, 1], [0, 0]]), Matrix.identity(2).scale(2)],
    )
    def test_rejections_are_package_errors(self, matrix):
        with pytest.raises(QgapError):
            Projector(matrix)

    def test_accepts_projectors(self):
        assert Projector.zero(4).matrix == Matrix.zero(4, 4)
        assert Projector.identity(4).dim == 4


def _built_or_refused(build, p, q):
    try:
        return build(p, q)
    except InvalidValueError:
        return None


# Compounds through both connectives, each legal in the standard context.
COMPOUNDS = (
    "A.z.up & B.z.down ^ A.z.down & B.z.up",
    "A.x.up ^ A.x.down",
    "A.y.up & B.y.up ^ A.y.down & B.y.down",
    "(A.x.up & B.x.down ^ A.x.down & B.x.up) & (A.z.up & B.z.down ^ A.z.down & B.z.up)",
    "B.y.up & A.z.down",
)


def _standard_projectors():
    """The 12 atoms, the 18 run-table rows before verification and the compiled ``COMPOUNDS``, each with its I - P."""
    ctx = standard_context()
    compiled = [compile_proposition(parse_proposition(text), ctx) for text in COMPOUNDS]
    ps = list(ctx.values()) + [proj for _, _, proj in _run_table()[0]] + compiled
    return ps + [Projector(Matrix.identity(4) + p.matrix.scale(-1)) for p in ps]


def _check_product(p, q):
    """Projector.product's decision against the independent commutation test P@Q == Q@P and the checked constructor.

    Hermitian PQ is idempotent, so the one-test product agrees with
    Projector(PQ), which also squares.
    """
    got = _built_or_refused(Projector.product, p, q)
    assert (got is not None) == p.commutes_with(q) == (p.matrix @ q.matrix == q.matrix @ p.matrix)
    assert got == _built_or_refused(lambda x, y: Projector(x.matrix @ y.matrix), p, q)
    if got is not None:
        assert Projector(got.matrix) == got


class TestProduct:
    def test_commuting_pair(self):
        assert Projector.product(DIFF_Z, P_Z_UD) == P_Z_UD
        assert Projector.product(DIFF_Z, DIFF_X) == SINGLET_PROJ

    def test_non_commuting_pair_is_refused(self):
        with pytest.raises(InvalidValueError, match="^projector matrix is not Hermitian$"):
            Projector.product(P_Z_UD, DIFF_X)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            Projector.product(P_Z_UD, Projector.identity(2))

    def test_every_ordered_pair_of_standard_projectors(self):
        pairs = list(itertools.product(_standard_projectors(), repeat=2))
        for p, q in pairs:
            _check_product(p, q)
        assert {p.commutes_with(q) for p, q in pairs} == {True, False}

    @given(st.integers(0, 10_000), st.sampled_from([2, 1000]))
    def test_matches_the_checked_constructor(self, seed, height):
        for left, right in rand_projector_pairs(Random(seed), height):
            _check_product(left, right)


def _check_sum(p, q):
    """Projector.sum's decision against the independent orthogonality tests, the checked constructor and PQ.

    The sum of |(PQ)_ij|^2 and PQ = 0 are both decided on ``GaussianRational``
    values, the second on the product ``@``.
    """
    pq = p.matrix @ q.matrix
    orthogonal = sum((e * e.conjugate() for e in pq.entries), ZERO).is_zero
    assert _trace_of_product_is_zero(p.matrix, q.matrix) == orthogonal == (pq == Matrix.zero(pq.rows, pq.cols))
    got = _built_or_refused(Projector.sum, p, q)
    assert (got is not None) == p.orthogonal_to(q) == orthogonal
    if got is not None:
        assert got == Projector(p.matrix + q.matrix)


class TestSum:
    def test_orthogonal_pair(self):
        assert Projector.sum(P_Z_UD, P_Z_DU) == DIFF_Z

    def test_non_orthogonal_pair_is_refused(self):
        with pytest.raises(InvalidValueError, match="^projectors are not orthogonal"):
            Projector.sum(DIFF_Z, DIFF_X)

    @pytest.mark.parametrize("dims", [(4, 2), (2, 4)])
    def test_dimension_mismatch(self, dims):
        with pytest.raises(ShapeError):
            Projector.sum(Projector.zero(dims[0]), Projector.zero(dims[1]))

    def test_every_ordered_pair_of_standard_projectors(self):
        pairs = list(itertools.product(_standard_projectors(), repeat=2))
        for p, q in pairs:
            _check_sum(p, q)
        assert {p.orthogonal_to(q) for p, q in pairs} == {True, False}

    @given(st.integers(0, 10_000), st.sampled_from([2, 1000]))
    def test_matches_the_checked_constructor(self, seed, height):
        for left, right in rand_projector_pairs(Random(seed), height):
            _check_sum(left, right)


class TestOrthogonalityOnIntegers:
    """``_trace_of_product_is_zero`` sums tr(PQ) on integer triples.

    ``Projector.sum`` and ``orthogonal_to`` call it and multiply no scalar.
    """

    @pytest.mark.parametrize("height", (2, 1000))
    @given(data=st.data())
    def test_hermitian_pairs_with_a_cancelling_trace(self, height, data):
        # For Hermitian P and Q, tr(PQ) is real and Q' = Q - (tr(PQ) / tr(PP)) P
        # is Hermitian with tr(PQ') = 0: its terms, over unequal denominators,
        # cancel exactly. The trace is summed off the GaussianRational product.
        n = data.draw(st.integers(1, 4))
        a, b = (data.draw(sparse_matrices_st(n, n, height)) for _ in range(2))
        p, q = a + adjoint(a), b + adjoint(b)

        def trace(x, y):
            return sum(((x @ y).at(i, i) for i in range(n)), ZERO)

        assert _trace_of_product_is_zero(p, q) == trace(p, q).is_zero
        if p != Matrix.zero(n, n):
            cancelled = q + p.scale(-trace(p, q) / trace(p, p))
            assert trace(p, cancelled).is_zero and _trace_of_product_is_zero(p, cancelled)

    @pytest.mark.parametrize("height", (2, 1000))
    def test_sum_and_orthogonal_to_multiply_nothing(self, height):
        pairs = [pair for seed in range(5) for pair in rand_projector_pairs(Random(seed), height)]
        with counted_arithmetic() as counts:
            decisions = [p.orthogonal_to(q) for p, q in pairs]
        assert counts == dict.fromkeys(counts, 0)
        with counted_arithmetic() as counts:
            sums = [_built_or_refused(Projector.sum, p, q) for p, q in pairs]
        assert counts["mul"] == 0
        assert [s is not None for s in sums] == decisions
        assert set(decisions) == {True, False}


class TestFromSpan:
    def test_coordinate_line(self):
        assert projector_from_span([E2]) == P_Z_UD

    def test_real_line_with_signs(self):
        p = projector_from_span([vec(1, 1, -1, -1)])
        assert p.matrix == Matrix.from_rows(
            [[Q, Q, -Q, -Q], [Q, Q, -Q, -Q], [-Q, -Q, Q, Q], [-Q, -Q, Q, Q]]
        )
        assert range_of(p) == span(4, (1, 1, -1, -1))

    def test_full_space(self):
        basis = [vec(*(1 if i == j else 0 for i in range(4))) for j in range(4)]
        assert projector_from_span(basis) == Projector.identity(4)

    def test_complex_line(self):
        p = projector_from_span([vec(1, gr(0, 1))])
        assert p.matrix == Matrix.from_rows([[gr(H), gr(0, -H)], [gr(0, H), gr(H)]])

    def test_redundant_spanning_set(self):
        p = projector_from_span([E2, E2.scale(3)])
        assert p == P_Z_UD

    def test_needs_vectors(self):
        with pytest.raises(ShapeError):
            projector_from_span([])

    @given(states_st(), states_st())
    def test_projects_span_members_to_themselves(self, u, v):
        p = projector_from_span([u, v])
        assert p.matrix.apply(u) == u.entries
        assert p.matrix.apply(v) == v.entries


class TestRangeAndKernel:
    def test_range_of_diff(self):
        assert range_of(DIFF_Z) == span(4, (0, 1, 0, 0), (0, 0, 1, 0))

    def test_range_of_zero(self):
        assert range_of(Projector.zero(4)) == Subspace.zero(4)

    def test_range_of_x_diff(self):
        assert range_of(DIFF_X) == span(4, (1, 0, 0, -1), (0, 1, -1, 0))

    def test_kernel_of_identity(self):
        assert kernel_of(Projector.identity(4)) == Subspace.zero(4)

    def test_kernel_of_coordinate_projector(self):
        assert kernel_of(P_Z_UD) == span(4, (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

    def test_singlet_in_kernel_of_up_up(self):
        p_z_uu = projector_from_span([vec(1, 0, 0, 0)])
        assert p_z_uu.matrix.apply(SINGLET) == tuple(gr(0) for _ in range(4))
        assert kernel_of(p_z_uu).contains(SINGLET)

    @given(states_st(), states_st())
    def test_range_kernel_duality(self, u, v):
        p = projector_from_span([u, v])
        assert range_of(p).orthocomplement() == kernel_of(p)


class TestMeetJoin:
    def test_meet_of_orthogonal(self):
        assert projector_meet(P_Z_UD, P_Z_DU) == Projector.zero(4)

    def test_meet_idempotent(self):
        assert projector_meet(DIFF_Z, DIFF_Z) == DIFF_Z

    def test_meet_of_two_diff_projectors_is_singlet_ray(self):
        got = projector_meet(DIFF_Z, DIFF_X)
        assert got == SINGLET_PROJ
        assert range_of(got) == span(4, (0, 1, -1, 0))

    def test_join_of_orthogonal_is_matrix_sum(self):
        got = projector_join(P_Z_UD, P_Z_DU)
        assert got.matrix == P_Z_UD.matrix + P_Z_DU.matrix
        assert got == DIFF_Z

    def test_join_with_zero(self):
        assert projector_join(DIFF_Z, Projector.zero(4)) == DIFF_Z

    def test_join_of_x_conjunctions(self):
        a = projector_from_span([vec(1, -1, 1, -1)])
        b = projector_from_span([vec(1, 1, -1, -1)])
        assert projector_join(a, b) == DIFF_X

    def test_dimension_mismatch(self):
        # Each refusal comes from the layer below: the subspaces' ambient check, @, or Projector.sum's own.
        operations = (
            projector_meet,
            projector_join,
            Projector.commutes_with,
            Projector.orthogonal_to,
            Projector.sum,
        )
        for op in operations:
            for p, q in ((P_Z_UD, Projector.identity(2)), (Projector.identity(2), P_Z_UD)):
                with pytest.raises(ShapeError):
                    op(p, q)

    @given(states_st(), states_st())
    def test_lattice_coherence_on_random_lines(self, u, v):
        a = projector_from_span([u])
        b = projector_from_span([v])
        assert range_of(projector_meet(a, b)) == range_of(a).meet(range_of(b))
        assert range_of(projector_join(a, b)) == range_of(a).join(range_of(b))
        if a.commutes_with(b):
            assert projector_meet(a, b).matrix == a.matrix @ b.matrix
        if a.orthogonal_to(b):
            assert projector_join(a, b).matrix == a.matrix + b.matrix


def test_projector_onto_round_trip():
    rng = Random(5)
    for _ in range(20):
        s = Subspace.from_vectors(4, [rand_state(rng) for _ in range(rng.randint(0, 4))])
        p = projector_onto(s)
        assert range_of(p) == s
        # range_of reads the range projector_onto was given; the matrix must have it too.
        assert Subspace.column_space(p.matrix) == range_of(p)


class TestRangeIsTheColumnSpace:
    """``range_of`` reads the range ``projector_onto`` stored, or the one computed on first use.

    For every way a projector is built, the column space of its matrix,
    computed afresh, is that range.
    """

    @staticmethod
    def assert_ranges(*projectors):
        for p in projectors:
            assert Subspace.column_space(p.matrix) == range_of(p)

    @pytest.mark.parametrize("height", (2, 1000))
    @given(data=st.data())
    def test_onto_meet_join_and_their_chains(self, height, data):
        a, b, c = (data.draw(sparse_spans_st(height)) for _ in range(3))
        pa, pb, pc = (projector_onto(s) for s in (a, b, c))
        met, joined = projector_meet(pa, pb), projector_join(pa, pb)
        self.assert_ranges(
            pa, pb, pc, met, joined,
            projector_meet(met, pc), projector_join(met, pc), projector_meet(joined, pc), projector_join(joined, pc),
            projector_meet(projector_meet(met, pc), pa),
        )

    @pytest.mark.parametrize("height", (2, 1000))
    @given(data=st.data())
    def test_product_sum_and_checked_matrices(self, height, data):
        # u, w and v are mutually orthogonal, so the projectors onto u + w and
        # u + v commute with product P_u, and P_u and P_w sum to P_(u + w).
        u, b, c = (data.draw(sparse_spans_st(height)) for _ in range(3))
        w = b.meet(u.orthocomplement())
        v = c.meet(u.join(w).orthocomplement())
        pu, pw = projector_onto(u), projector_onto(w)
        product = Projector.product(projector_onto(u.join(w)), projector_onto(u.join(v)))
        total = Projector.sum(pu, pw)
        assert product == pu and total == projector_onto(u.join(w))
        complement = Projector(Matrix.identity(4) + pu.matrix.scale(-1))
        self.assert_ranges(
            product, total, complement, Projector(pu.matrix), Projector.product(pu, complement),
            projector_meet(product, total), projector_join(total, complement),
        )

    def test_compiled_and_constant_projectors(self):
        rows = [entry[-1] for table in _run_table() for entry in table]
        self.assert_ranges(*standard_context().values(), *rows, Projector.zero(4), Projector.identity(4))


class TestOntoAgainstGramFormula:
    """``projector_onto``'s Gaussian-integer solve equals M* (M M*)^-1 M built from ``Matrix`` ``@`` and ``rref``."""

    @pytest.mark.parametrize("height", (2, 1000))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_dimension(self, n, height):
        rng = Random(100 * n + height)
        for k in range(n + 1):
            for _ in range(3):
                s = rand_subspace_of_dim(rng, n, k, height)
                assert projector_onto(s).matrix == gram_projector(s)

    @pytest.mark.parametrize("height", (2, 1000))
    def test_scaled_and_permuted_spanning_vectors(self, height):
        # The range alone decides the projector, whatever rows span it.
        rng = Random(height)
        for _ in range(10):
            vectors = [rand_state(rng, 4, height) for _ in range(rng.randint(1, 3))]
            scaled = [v.scale(gr(rng.randint(1, 9), rng.randint(-9, 9))) for v in reversed(vectors)]
            assert projector_from_span(vectors) == projector_from_span(scaled)
            assert projector_from_span(vectors).matrix == gram_projector(Subspace.from_vectors(4, vectors))


class TestOntoFromTheSmallerSide:
    """``projector_onto`` solves on the smaller side of the range and still checks its result.

    A range S of dimension k in C^n is solved on its own k rows when
    2k <= n, and otherwise on the n - k rows of S's orthocomplement, giving
    I - P_S⊥; on odd n the side changes at k = (n + 1) / 2. C^n and the zero
    space run no solve. Either way the answer is the Gram formula on S's
    basis, P_S = I - P_S⊥ holds exactly, the range is the one given, and
    ``Projector``'s Hermitian and idempotence checks run once.
    """

    @pytest.mark.parametrize("height", (2, 1000))
    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_dimension_and_side(self, n, height, monkeypatch):
        solves, checks = [], []
        projection, post_init = projectors._projection, Projector.__post_init__

        def counted_projection(nr, ni, *, complement=False):
            solves.append((len(nr), complement))
            return projection(nr, ni, complement=complement)

        def counted_post_init(self):
            checks.append(self.matrix)
            post_init(self)

        # projectors imports _projection by name, so it is patched there.
        monkeypatch.setattr(projectors, "_projection", counted_projection)
        monkeypatch.setattr(Projector, "__post_init__", counted_post_init)
        rng = Random(7 * n + height)
        for k in range(n + 1):
            for _ in range(3):
                s = rand_subspace_of_dim(rng, n, k, height)
                solves.clear()
                checks.clear()
                p = projector_onto(s)
                assert solves == ([] if k in (0, n) else [(min(k, n - k), 2 * k > n)])
                assert checks == [p.matrix]
                assert p.matrix == gram_projector(s) == Matrix.identity(n) + gram_projector(s.orthocomplement()).scale(-1)
                assert range_of(p) is s


def _lcm_of_denominators(m: Matrix) -> int:
    return lcm(*[lcm(e.re.denominator, e.im.denominator) for e in m.entries])


@st.composite
def _oblique_idempotents_st(draw, height: int):
    """S D S^-1 for an invertible S and a 0/1 diagonal D: idempotent, and Hermitian only by chance."""
    n = draw(st.integers(1, 4))
    s = draw(sparse_matrices_st(n, n, height).filter(lambda m: Subspace.row_space(m).dim == n))
    solved = Matrix.from_rows([s.row(i) + Matrix.identity(n).row(i) for i in range(n)]).rref()
    s_inv = Matrix.from_rows([solved.row(i)[n:] for i in range(n)])
    d = Matrix.from_rows([[draw(st.sampled_from((0, 1))) if i == j else 0 for j in range(n)] for i in range(n)])
    return s @ d @ s_inv


class TestIdempotenceOnIntegers:
    """``Projector`` decides idempotence as A A == L A on the integer form A / L; ``m @ m == m`` decides."""

    @pytest.mark.parametrize("height", (2, 1000))
    @given(data=st.data())
    def test_agrees_with_the_product_on_drawn_matrices(self, height, data):
        n = data.draw(st.integers(1, 4))
        m = data.draw(sparse_matrices_st(n, n, height))
        assert _is_idempotent(m) == (m @ m == m)

    @pytest.mark.parametrize("height", (2, 1000))
    @given(data=st.data())
    def test_agrees_with_the_product_on_idempotents(self, height, data):
        m = data.draw(_oblique_idempotents_st(height))
        assert m @ m == m and _is_idempotent(m)
        i, j = data.draw(st.integers(0, m.rows - 1)), data.draw(st.integers(0, m.rows - 1))
        scale = _lcm_of_denominators(m)
        entries = list(m.entries)
        entries[i * m.cols + j] += GaussianRational(Fraction(1, scale * scale))
        off = Matrix(m.rows, m.cols, entries)
        assert _is_idempotent(off) == (off @ off == off)

    @pytest.mark.parametrize("height", (2, 1000))
    def test_rejects_a_projector_off_by_one_over_l_squared(self, height):
        rng = Random(height)
        for n in (2, 4):
            for k in range(1, n):
                p = projector_onto(rand_subspace_of_dim(rng, n, k, height)).matrix
                scale = _lcm_of_denominators(p)
                delta = GaussianRational(Fraction(1, scale * scale))
                for i, j, d in ((0, 0, delta), (0, n - 1, delta * gr(0, 1))):
                    entries = list(p.entries)
                    entries[i * n + j] += d
                    if i != j:
                        entries[j * n + i] += d.conjugate()
                    off = Matrix(n, n, entries)
                    assert off.is_hermitian() and off @ off != off
                    with pytest.raises(InvalidValueError, match="^projector matrix is not idempotent$"):
                        Projector(off)


# The height-1000 spans of the lattice goldens and of the CI's console-script step.
H1000_A = (
    "-485/106-3/148*i,-216/335+3/422*i,-155/89,475/488-845/256*i;"
    "-261/46,-273/391-358/309*i,-463/468+693/692*i,-258/137-190/339*i;"
    "985/451+761/246*i,-910/597,927/932-363/100*i,839/246-251/791*i"
)
H1000_B = (
    "-5354203/1649307-14298089/9211224*i,14901008257/5369599090-19087912815/6764091988*i,"
    "149638284221/20986880850+2180697139/471615300*i,-26548842815/13009241616+55466143409/6824520192*i;"
    "121/337-192/419*i,-835/154+223/219*i,79/56+39/16*i,53/9+973/795*i"
)


def _h1000_span(text: str) -> Subspace:
    return parse_span([row.split(",") for row in text.split(";")])


def _projector_ops_h1000_json() -> str:
    """The matrices of projector_onto, projector_meet and projector_join on the height-1000 spans, as JSON text."""
    a, b = _h1000_span(H1000_A), _h1000_span(H1000_B)
    second, b_second = _h1000_span(H1000_A.split(";")[1]), _h1000_span(H1000_B.split(";")[1])
    pa, pb, p2, pb2 = (projector_onto(s) for s in (a, b, second, b_second))
    ops = {
        "onto_a": pa,
        "onto_b": pb,
        "meet_a_b": projector_meet(pa, pb),
        "join_a_b": projector_join(pa, pb),
        "join_b_second": projector_join(pb, p2),
        "meet_a_second": projector_meet(pa, p2),
        "meet_second_b_second": projector_meet(p2, pb2),
        "meet_of_meet_a_b_and_b": projector_meet(projector_meet(pa, pb), pb),
    }
    return json.dumps({name: [[str(e) for e in p.matrix.row(i)] for i in range(p.dim)] for name, p in ops.items()}, indent=2) + "\n"


def test_projector_operations_at_height_1000_match_golden_output():
    # No CLI command prints a projector, so the matrices on the spans a, b,
    # a's second row and b's second row are compared as text, byte for byte,
    # with those recorded before projectors kept their range and basis
    # vectors their Gaussian-integer rows.
    golden = Path(__file__).parent / "golden" / "projector_ops_h1000.json"
    assert _projector_ops_h1000_json().encode() == golden.read_bytes()
