from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    SINGLET,
    E2,
    counted_arithmetic,
    gr,
    meet_oracle,
    rand_combination,
    rand_span_pair,
    rand_state,
    rand_subspace,
    span,
    sparse_matrices_st,
    sparse_scalars_st,
    sparse_spans_st,
    sparse_states_st,
    subspaces_st,
    vec,
    zassenhaus_meet,
)
from qgap import (
    Matrix,
    Projector,
    ShapeError,
    StateVector,
    Subspace,
    inner,
    kernel_of,
    parse_span,
    projector_join,
    projector_meet,
    projector_onto,
    range_of,
    valuate,
)
from qgap import lattice, linalg, scalars
from qgap.scalars import ONE, ZERO

DIFF_Z_RANGE = span(4, (0, 1, 0, 0), (0, 0, 1, 0))


class TestCanonicalForm:
    def test_from_vectors_reduces(self):
        s = span(4, (1, 1, 0, 0), (1, -1, 0, 0))
        assert s == span(4, (1, 0, 0, 0), (0, 1, 0, 0))
        assert s.dim == 2

    def test_rejects_non_canonical_basis(self):
        with pytest.raises(ShapeError):
            Subspace(4, (vec(1, 1, 0, 0), vec(1, -1, 0, 0)))
        with pytest.raises(ShapeError):
            Subspace(4, (vec(0, 2, 0, 0),))
        # A vector of another dimension, after or before a canonical one.
        for basis in ((vec(0, 0, 0, 1), vec(1, 0)), (vec(1, 0), vec(0, 0, 0, 1))):
            with pytest.raises(ShapeError) as refused:
                Subspace(4, basis)
            assert str(refused.value) == "basis is not a canonical RREF basis for this ambient dimension"

    def test_from_vectors_checks_the_ambient_dimension_with_no_vectors(self):
        for n in (0, -1):
            with pytest.raises(ShapeError) as refused:
                Subspace.from_vectors(n, [])
            assert str(refused.value) == "ambient dimension must be positive"
        assert Subspace.from_vectors(3, []) == Subspace.zero(3)

    def test_zero_and_full(self):
        assert Subspace.zero(4).dim == 0
        assert Subspace.zero(4).orthocomplement().dim == 4
        assert str(Subspace.zero(4)) == "span{}"

    @given(subspaces_st())
    def test_membership_of_random_combinations(self, s):
        coeffs = [gr(2, -1), gr(0, 1), gr(-3), gr(1, 1)]
        if s.is_zero:
            return
        entries = [gr(0)] * s.ambient_dim
        for c, b in zip(coeffs, s.basis):
            entries = [x + c * y for x, y in zip(entries, b.entries)]
        if all(e.is_zero for e in entries):
            return
        assert s.contains(StateVector(tuple(entries)))


class TestContains:
    def test_singlet_in_diff_range(self):
        assert DIFF_Z_RANGE.contains(SINGLET)

    def test_singlet_not_in_single_line(self):
        assert not span(4, (0, 1, 0, 0)).contains(SINGLET)

    def test_basis_vector(self):
        assert span(4, (0, 1, 0, 0)).contains(E2)

    def test_scale_invariant(self):
        assert DIFF_Z_RANGE.contains(SINGLET.scale(gr(-7, 3)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            DIFF_Z_RANGE.contains(vec(1, 0))


class TestOrder:
    def test_zero_below_everything(self):
        assert Subspace.zero(4) <= DIFF_Z_RANGE

    def test_everything_below_full(self):
        assert DIFF_Z_RANGE <= Subspace.zero(4).orthocomplement()

    def test_line_below_plane(self):
        assert span(4, (0, 1, 0, 0)) <= DIFF_Z_RANGE

    def test_not_leq(self):
        assert not DIFF_Z_RANGE <= span(4, (0, 1, 0, 0))


class TestRankTests:
    """Membership and order are decided by rank on Gaussian integers, with no scalar arithmetic."""

    @pytest.mark.parametrize("height", (2, 1000))
    def test_contains_and_leq_do_no_scalar_arithmetic(self, height):
        rng, zero = Random(808 + height), Subspace.zero(4)
        for _ in range(20):
            a, b = rand_span_pair(rng, height)
            inside, outside = rand_combination(rng, a.basis), rand_state(rng, height=height)
            with counted_arithmetic() as counts:
                answers = (a.contains(inside), a.contains(outside), a <= b, b <= a, a <= zero, zero <= a)
            assert counts == dict.fromkeys(counts, 0)
            assert answers[0] and not answers[4] and answers[5]


MEET_CASES = ("generic", "zero meet", "a <= b", "b <= a", "full operand", "equal", "zero operand")


@st.composite
def meet_pairs_st(draw, height):
    """A case of ``MEET_CASES`` and two spans in C^4 of the given height, drawn to be that case."""
    case = draw(st.sampled_from(MEET_CASES))

    def generic():
        return Subspace.from_vectors(4, draw(st.lists(sparse_states_st(4, height), min_size=1, max_size=3)))

    if case == "zero meet":
        # Independent vectors, triangular under a drawn order of the coordinates, split between the two spans.
        order, w = draw(st.permutations(range(4))), []
        for i in range(4):
            entries = [ZERO] * 4
            entries[order[i]] = ONE
            for j in order[i + 1 :]:
                entries[j] = draw(sparse_scalars_st(height))
            w.append(StateVector(tuple(entries)))
        k = draw(st.integers(1, 3))
        a, b = Subspace.from_vectors(4, w[:k]), Subspace.from_vectors(4, w[k : k + draw(st.integers(1, 4 - k))])
    elif case == "a <= b":
        a = generic()
        b = a.join(generic())
    elif case == "b <= a":
        b = generic()
        a = b.join(generic())
    elif case == "full operand":
        a, b = Subspace.zero(4).orthocomplement(), generic()
        if draw(st.booleans()):
            a, b = b, a
    elif case == "equal":
        a = b = generic()
    elif case == "zero operand":
        side = draw(st.sampled_from(("left", "right", "both")))
        a = generic() if side == "right" else Subspace.zero(4)
        b = generic() if side == "left" else Subspace.zero(4)
    else:
        a, b = generic(), generic()
    return case, a, b


class TestMeet:
    def test_orthogonal_lines(self):
        assert span(4, (0, 1, 0, 0)).meet(span(4, (0, 0, 1, 0))) == Subspace.zero(4)

    def test_idempotent(self):
        assert DIFF_Z_RANGE.meet(DIFF_Z_RANGE) == DIFF_Z_RANGE

    def test_coordinate_planes(self):
        a = span(4, (0, 1, 0, 0), (0, 0, 1, 0))
        b = span(4, (0, 0, 1, 0), (0, 0, 0, 1))
        assert a.meet(b) == span(4, (0, 0, 1, 0))

    @given(subspaces_st(), subspaces_st())
    def test_against_direct_solver(self, a, b):
        assert a.meet(b) == meet_oracle(a, b)

    @pytest.mark.parametrize("height", (2, 1000))
    def test_against_direct_solver_on_benchmark_pairs(self, height):
        rng = Random(909 + height)
        for _ in range(40):
            a, b = rand_span_pair(rng, height)
            assert a.meet(b) == meet_oracle(a, b)

    @pytest.mark.parametrize("height", (2, 1000))
    @settings(max_examples=60)
    @given(data=st.data())
    def test_forward_elimination_matches_full_reduction(self, height, data):
        # The forward-only meet against one full rref of the block and against
        # sympy, in both argument orders, with each branch of the meet forced.
        case, a, b = data.draw(meet_pairs_st(height))
        zero = Subspace.zero(4)
        expected = {"zero meet": zero, "a <= b": a, "b <= a": b, "equal": a, "zero operand": zero}.get(case)
        if case == "full operand":
            expected = b if a.dim == 4 else a
        for x, y in ((a, b), (b, a)):
            got = x.meet(y)
            assert got == zassenhaus_meet(x, y) == meet_oracle(x, y), case
            assert expected is None or got == expected, case
        assert case != "zero meet" or not a.is_zero and not b.is_zero

    @given(subspaces_st(), subspaces_st())
    def test_de_morgan(self, a, b):
        assert a.meet(b) == a.orthocomplement().join(b.orthocomplement()).orthocomplement()


class TestEliminationCount:
    """Each lattice operation on nonzero, non-full spans reduces one matrix by one elimination pass.

    A meet eliminates Zassenhaus's block forward, then reduces the rows left
    below its pivots, and only when there are any. No operation here runs
    ``Matrix.rref``. Each pass is recorded as (rows, row length, clears
    above the pivots). ``projector_onto`` solves on the smaller side of the
    range, min(k, 4 - k) rows, and runs no pass for the zero space or C^4. A
    projector built by ``projector_onto`` keeps its range, so the projector
    meet and join reduce no 4x4 column space.
    """

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        eliminate, rref = linalg._eliminate, Matrix.rref

        def counted_eliminate(re, im, cols, *, above=True):
            calls.append((len(re), len(re[0]), above))
            return eliminate(re, im, cols, above=above)

        def counted_rref(self):
            calls.append("rref")
            return rref(self)

        # lattice imports _eliminate by name, so it is patched where each module looks it up.
        for module in (linalg, lattice):
            monkeypatch.setattr(module, "_eliminate", counted_eliminate)
        monkeypatch.setattr(Matrix, "rref", counted_rref)
        return calls

    SPANS = (
        span(4, (0, 1, 0, 0)),
        DIFF_Z_RANGE,
        span(4, (1, 0, 0, -1), (0, 1, -1, 0)),
        span(4, (1, gr(0, 1), 0, 0), (0, 0, 1, 1), (0, 0, 0, gr(2, -1))),
    )

    def test_meet(self, passes):
        for a in self.SPANS:
            for b in self.SPANS:
                passes.clear()
                c = a.meet(b)
                assert passes == [(a.dim + b.dim, 8, False)] + ([(c.dim, 4, True)] if c.dim else [])

    def test_join(self, passes):
        for a in self.SPANS:
            for b in self.SPANS:
                passes.clear()
                a.join(b)
                assert passes == [(a.dim + b.dim, 4, True)]

    @staticmethod
    def onto_passes(k, n=4):
        """The one Gram solve of ``projector_onto`` on a k-dimensional range, over min(k, n - k) rows; none at 0 or n."""
        m = min(k, n - k)
        return [(m, m + n, True)] if m else []

    def test_projector_onto(self, passes):
        for s in (Subspace.zero(4),) + self.SPANS + (Subspace.row_space(Matrix.identity(4)),):
            passes.clear()
            projector_onto(s)
            assert passes == self.onto_passes(s.dim)

    def test_projector_meet_and_join_reduce_no_column_space(self, passes):
        projectors = [projector_onto(s) for s in self.SPANS]
        for a, pa in zip(self.SPANS, projectors):
            for b, pb in zip(self.SPANS, projectors):
                c = a.meet(b)
                passes.clear()
                projector_meet(pa, pb)
                assert passes == [(a.dim + b.dim, 8, False)] + ([(c.dim, 4, True)] if c.dim else []) + self.onto_passes(c.dim)
                c = a.join(b)
                passes.clear()
                projector_join(pa, pb)
                assert passes == [(a.dim + b.dim, 4, True)] + self.onto_passes(c.dim)

    def test_a_checked_projector_reduces_its_column_space_once(self, passes):
        p = Projector(projector_onto(self.SPANS[2]).matrix)
        passes.clear()
        assert range_of(p) == self.SPANS[2]
        assert passes == [(4, 4, True)]
        range_of(p)
        assert passes == [(4, 4, True)]

    def test_lattice_built_operands_are_not_scaled_again(self, monkeypatch):
        # The basis vectors of lattice results carry their integer forms, so
        # these operations scale no row of scalars to Gaussian integers; the
        # complement reads its null rows off those forms.
        calls = []
        integer_rows = linalg._integer_rows

        def counted_integer_rows(rows):
            calls.append(rows)
            return integer_rows(rows)

        for module in (linalg, lattice):
            monkeypatch.setattr(module, "_integer_rows", counted_integer_rows)
        for a in self.SPANS:
            projector_onto(a)
            a.orthocomplement()
            for b in self.SPANS:
                a.meet(b), a.join(b), a.leq(b)
                for v in b.basis:
                    a.contains(v)
        assert calls == []

    def test_orthocomplement(self, passes):
        for s in (Subspace.zero(4),) + self.SPANS:
            passes.clear()
            s.orthocomplement()
            assert passes == [(4 - s.dim, 4, True)]

    def test_kernel_of(self, passes):
        # The kernel is the orthocomplement of the range projector_onto kept:
        # one pass over the 4 - rank null rows, no column space reduced.
        projectors = [projector_onto(s) for s in (Subspace.zero(4),) + self.SPANS]
        for p in projectors:
            passes.clear()
            kernel_of(p)
            assert passes == [(4 - range_of(p).dim, 4, True)]


class TestIntegerForms:
    """Every basis vector the lattice builds carries the integer form that ``StateVector._integer_form`` would compute.

    The form is read off the reduction's pivot row and stored as tuples:
    operands share their cached rows into the elimination's input, and no
    operation may change them.
    """

    @staticmethod
    def assert_seeded(*subspaces):
        for s in subspaces:
            for v in s.basis:
                assert "_integer_form" in vars(v)
                (vr,), (vi,) = linalg._integer_rows([v.entries])
                assert v._integer_form == (tuple(vr), tuple(vi))

    @pytest.mark.parametrize("height", (2, 1000))
    @given(data=st.data())
    def test_every_builder_seeds_the_lazy_form(self, height, data):
        m = data.draw(sparse_matrices_st(data.draw(st.integers(1, 4)), 4, height))
        a, b = data.draw(sparse_spans_st(height)), data.draw(sparse_spans_st(height))
        vectors = [data.draw(sparse_states_st(4, height)) for _ in range(data.draw(st.integers(1, 4)))]
        self.assert_seeded(
            Subspace.row_space(m),
            Subspace.column_space(m),
            Subspace.from_vectors(4, vectors),
            parse_span([[str(e) for e in m.row(i)] for i in range(m.rows)]),
            a, b, a.meet(b), b.meet(a), a.join(b), a.sum(b), a.orthocomplement(),
        )

    @pytest.mark.parametrize("height", (2, 1000))
    @given(data=st.data())
    def test_operations_leave_the_operands_views_unchanged(self, height, data):
        a, b = data.draw(sparse_spans_st(height)), data.draw(sparse_spans_st(height))
        v = data.draw(sparse_states_st(4, height))
        pa, pb = projector_onto(a), projector_onto(b)
        vectors, matrices = a.basis + b.basis + (v,), (pa.matrix, pb.matrix)
        forms = [x._integer_form for x in vectors]
        patterns = [m._integer_pattern for m in matrices]
        a.meet(b), b.meet(a), a.join(b), a.orthocomplement(), a.contains(v), a.leq(b), b.leq(a)
        projector_onto(a), projector_meet(pa, pb), projector_join(pa, pb), kernel_of(pa)
        valuate(v, pa), valuate(v, pb), Projector(pa.matrix)
        for x, form in zip(vectors, forms):
            assert x._integer_form is form
            assert all(type(row) is tuple for row in form)
            (vr,), (vi,) = linalg._integer_rows([x.entries])
            assert form == (tuple(vr), tuple(vi))
        for m, pattern in zip(matrices, patterns):
            assert m._integer_pattern is pattern
            assert pattern == Matrix(m.rows, m.cols, m.entries)._integer_pattern


class TestDerivedResults:
    """The lattice's own results are stored by ``Frozen._of``: no vector, subspace or scalar is checked again.

    ``kernel_of`` builds I - P from the constants ``ONE`` and ``ZERO``, which need no coercion either.
    """

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        monkeypatch.setattr(StateVector, "__init__", counting("StateVector", StateVector.__init__))
        monkeypatch.setattr(Subspace, "__init__", counting("Subspace", Subspace.__init__))
        coerce = counting("coerce_scalar", scalars.coerce_scalar)
        for module in (scalars, linalg):
            monkeypatch.setattr(module, "coerce_scalar", coerce)
        return calls

    @pytest.mark.parametrize("height", (2, 1000))
    def test_lattice_results_build_no_checked_value(self, checks, height):
        rng = Random(1212 + height)
        for _ in range(20):
            a, b = rand_span_pair(rng, height)
            stacked = Matrix(a.dim + b.dim, 4, [e for v in a.basis + b.basis for e in v.entries])
            p = projector_onto(a)
            checks.clear()
            results = (
                Subspace.row_space(stacked), a.meet(b), a.orthocomplement(), a.join(b), range_of(p), kernel_of(p)
            )
            assert not checks, checks
            assert results[0] == results[3] and results[4] == a and results[5] == results[2]


class TestJoinAndSum:
    def test_join_of_orthogonal_lines(self):
        got = span(4, (0, 1, 0, 0)).join(span(4, (0, 0, 1, 0)))
        assert got == DIFF_Z_RANGE

    def test_join_with_zero(self):
        assert DIFF_Z_RANGE.join(Subspace.zero(4)) == DIFF_Z_RANGE

    def test_join_reduces_stacked_rows(self):
        got = span(4, (1, 1, 0, 0)).join(span(4, (1, -1, 0, 0)))
        assert got == span(4, (1, 0, 0, 0), (0, 1, 0, 0))

    def test_sum_is_two_parameter_family(self):
        assert span(4, (0, 1, 0, 0)).sum(span(4, (0, 0, 1, 0))) == DIFF_Z_RANGE

    def test_sum_idempotent(self):
        assert DIFF_Z_RANGE.sum(DIFF_Z_RANGE) == DIFF_Z_RANGE

    def test_sum_of_orthogonal_lines_in_plane(self):
        assert span(2, (1, 1)).sum(span(2, (1, -1))) == Subspace.zero(2).orthocomplement()

    @given(subspaces_st(), subspaces_st())
    def test_sum_equals_join_in_finite_dimension(self, a, b):
        assert a.sum(b) == a.join(b)


class TestOrthocomplement:
    def test_of_zero(self):
        assert Subspace.zero(4).orthocomplement() == Subspace.row_space(Matrix.identity(4))

    def test_of_coordinate_line(self):
        assert span(4, (0, 1, 0, 0)).orthocomplement() == span(
            4, (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
        )

    def test_respects_conjugation(self):
        line = span(2, (1, gr(0, 1)))
        comp = line.orthocomplement()
        assert comp.dim == 1
        # <(1, i), (1, i)> would be 0 without conjugation; the true complement is (1, -i) scaled
        assert comp.contains(vec(gr(0, 1), gr(1)))

    @given(subspaces_st())
    def test_involution_and_dimension(self, s):
        comp = s.orthocomplement()
        assert comp.dim == s.ambient_dim - s.dim
        assert comp.orthocomplement() == s


class TestLatticeLaws:
    @given(subspaces_st(), subspaces_st())
    def test_commutativity(self, a, b):
        assert a.meet(b) == b.meet(a)
        assert a.join(b) == b.join(a)

    @given(subspaces_st(), subspaces_st(), subspaces_st())
    def test_associativity(self, a, b, c):
        assert a.meet(b).meet(c) == a.meet(b.meet(c))
        assert a.join(b).join(c) == a.join(b.join(c))

    @given(subspaces_st(), subspaces_st())
    def test_absorption(self, a, b):
        assert a.meet(a.join(b)) == a

    @given(subspaces_st(), subspaces_st())
    def test_orthomodularity(self, a, c):
        b = a.join(c)
        assert a.join(a.orthocomplement().meet(b)) == b

    @given(subspaces_st(), subspaces_st())
    def test_orthogonality_implies_join_equals_sum(self, a, b):
        # the hypothesis of the implication: disjoint and mutually orthogonal
        disjoint = a.meet(b) == Subspace.zero(4)
        orthogonal = all(
            inner(u, v).is_zero for u in a.basis for v in b.basis
        )
        if disjoint and orthogonal:
            assert a.join(b) == a.sum(b)

    def test_seeded_bulk_run(self):
        rng = Random(11)
        subs = [rand_subspace(rng) for _ in range(30)]
        for s, t in zip(subs, subs[1:]):
            assert s.meet(t) == t.meet(s)
            assert s.meet(s.join(t)) == s
            assert s.orthocomplement().orthocomplement() == s


class TestParseSpan:
    @pytest.mark.parametrize("height", (2, 1000))
    def test_reads_back_the_canonical_basis_between_zero_rows(self, height):
        rng = Random(313 + height)
        zero = ["0"] * 4
        for _ in range(60):
            s = Subspace.from_vectors(4, [rand_state(rng, height=height) for _ in range(rng.randint(1, 4))])
            rows = [zero]
            for b in s.basis:
                rows += [[str(e) for e in b.entries], zero]
            assert parse_span(rows) == s
