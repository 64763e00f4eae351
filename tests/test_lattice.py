from collections import Counter
from random import Random

import pytest
from hypothesis import given

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
    subspaces_st,
    vec,
)
from qgap import (
    Matrix,
    ShapeError,
    StateVector,
    Subspace,
    inner,
    kernel_of,
    parse_span,
    projector_onto,
    range_of,
)
from qgap import linalg, scalars

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

    @given(subspaces_st(), subspaces_st())
    def test_de_morgan(self, a, b):
        assert a.meet(b) == a.orthocomplement().join(b.orthocomplement()).orthocomplement()


class TestEliminationCount:
    """Each lattice operation on nonzero, non-full spans reduces one matrix."""

    @pytest.fixture
    def rref_calls(self, monkeypatch):
        calls = []
        rref = Matrix.rref

        def counted(self):
            calls.append(self)
            return rref(self)

        monkeypatch.setattr(Matrix, "rref", counted)
        return calls

    SPANS = (
        span(4, (0, 1, 0, 0)),
        DIFF_Z_RANGE,
        span(4, (1, 0, 0, -1), (0, 1, -1, 0)),
        span(4, (1, gr(0, 1), 0, 0), (0, 0, 1, 1), (0, 0, 0, gr(2, -1))),
    )

    def test_meet(self, rref_calls):
        for a in self.SPANS:
            for b in self.SPANS:
                rref_calls.clear()
                a.meet(b)
                assert len(rref_calls) == 1

    def test_orthocomplement(self, rref_calls):
        for s in (Subspace.zero(4),) + self.SPANS:
            rref_calls.clear()
            s.orthocomplement()
            assert len(rref_calls) == 1

    def test_kernel_of(self, rref_calls):
        projectors = [projector_onto(s) for s in (Subspace.zero(4),) + self.SPANS]
        for p in projectors:
            rref_calls.clear()
            kernel_of(p)
            assert len(rref_calls) == 1


class TestDerivedResults:
    """The lattice's own results are stored by ``Frozen._of``: no vector, subspace or scalar is checked again."""

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
            results = (Subspace.row_space(stacked), a.meet(b), a.orthocomplement(), a.join(b), range_of(p))
            assert not checks, checks
            assert results[0] == results[3] and results[4] == a


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
