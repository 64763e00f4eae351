import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgap.linalg as linalg
import qgap.propositions as propositions
import qgap.scenario as scenario
from helpers import SINGLET, E2, SpinOracle, gr, inner, vec
from qgap import (
    Atom,
    Axis,
    Direction,
    GaussianRational,
    ImpossibleOutcomeError,
    InvalidValueError,
    Matrix,
    Particle,
    Projector,
    QgapError,
    ShapeError,
    SpinBasis,
    StateVector,
    TruthValueSet,
    atom_projector,
    compile_proposition,
    different_spins,
    eigencheck,
    pair_observable,
    pauli,
    population,
    range_of,
    run_epr,
    same_spins,
    singlet,
    spin_basis,
    standard_context,
    tensor_product,
    valuate,
    verify,
)
from qgap.scenario import audit, render_report, report_to_dict

T = TruthValueSet.TRUE_ONLY
F = TruthValueSet.FALSE_ONLY
G = TruthValueSet.GAP

A_Z_UP = Atom(Particle.A, Axis.Z, Direction.UP)
ALL_ATOMS = [Atom(p, ax, d) for p in Particle for ax in Axis for d in Direction]


class TestStandardContext:
    def test_one_shared_mapping(self):
        assert standard_context() is standard_context()

    def test_read_only(self):
        ctx = standard_context()
        with pytest.raises(TypeError):
            ctx[A_Z_UP] = atom_projector(Atom(Particle.A, Axis.Z, Direction.DOWN))
        assert ctx[A_Z_UP] == atom_projector(A_Z_UP)


class TestPauli:
    def test_z(self):
        assert pauli(Axis.Z) == Matrix.from_rows([[1, 0], [0, -1]])

    def test_x_squared_is_permutation(self):
        assert pair_observable(Axis.X) == Matrix.from_rows(
            [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
        )

    def test_y_squared_has_negative_corners(self):
        assert pair_observable(Axis.Y) == Matrix.from_rows(
            [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]
        )

    def test_z_squared_is_diagonal(self):
        assert pair_observable(Axis.Z) == Matrix.from_rows(
            [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]
        )


# Each axis's eigenvectors as literals, up then down: the library reads them off (I +- sigma)/2.
EIGENVECTORS = {
    Axis.X: ((1, 1), (1, -1)),
    Axis.Y: ((1, gr(0, 1)), (1, gr(0, -1))),
    Axis.Z: ((1, 0), (0, 1)),
}


class TestSpinBasis:
    @pytest.mark.parametrize("axis", list(Axis))
    def test_vectors(self, axis):
        basis = spin_basis(axis)
        up, down = EIGENVECTORS[axis]
        assert basis.up == vec(*up)
        assert basis.down == vec(*down)

    @pytest.mark.parametrize("axis", list(Axis))
    def test_eigenvector_validation(self, axis):
        basis = spin_basis(axis)
        assert eigencheck(pauli(axis), basis.up, 1)
        assert eigencheck(pauli(axis), basis.down, -1)

    def test_invalid_basis_rejected(self):
        with pytest.raises(ValueError):
            SpinBasis(Axis.Z, vec(1, 1), vec(0, 1))

    def test_invalid_basis_is_a_package_error(self):
        with pytest.raises(QgapError):
            SpinBasis(Axis.Z, vec(1, 0), vec(1, 0))


class TestAtomProjector:
    def test_a_side_embeds_with_identity(self):
        p = atom_projector(A_Z_UP)
        assert p.matrix == Matrix.from_rows(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        )

    def test_b_side_embeds_with_identity(self):
        p = atom_projector(Atom(Particle.B, Axis.Z, Direction.DOWN))
        assert p.matrix == Matrix.from_rows(
            [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]]
        )

    @pytest.mark.parametrize("particle", list(Particle))
    @pytest.mark.parametrize("axis", list(Axis))
    @pytest.mark.parametrize("direction", list(Direction))
    def test_rank_two(self, particle, axis, direction):
        assert range_of(atom_projector(Atom(particle, axis, direction))).dim == 2

    @pytest.mark.parametrize("atom", ALL_ATOMS, ids=str)
    def test_equals_the_normalized_outer_product_of_its_eigenvector(self, atom):
        # Reference: |v><v| / <v|v> on one factor, from the literal eigenvector, not from sigma.
        up, down = EIGENVECTORS[atom.axis]
        v = vec(*(up if atom.direction is Direction.UP else down))
        norm = inner(v, v)
        outer = Matrix(2, 2, tuple(x * y.conjugate() / norm for x in v.entries for y in v.entries))
        eye = Matrix.identity(2)
        expected = tensor_product(outer, eye) if atom.particle is Particle.A else tensor_product(eye, outer)
        assert atom_projector(atom).matrix == expected


class TestMemberDispatch:
    """A plain string equal to a member's value means that member, whatever is asked first."""

    def test_string_fields_give_the_members_projector(self):
        oracle = SpinOracle()
        scenario.atom_projector.cache_clear()
        try:
            for atom in ALL_ATOMS:
                plain = Atom(atom.particle.value, atom.axis.value, atom.direction.value)
                rows = oracle.atom_projector(atom)
                expected = Matrix(4, 4, tuple(GaussianRational(re, im) for row in rows for re, im in row))
                assert atom_projector(plain).matrix == expected, str(atom)
                assert atom_projector(atom).matrix == expected, str(atom)
        finally:
            scenario.atom_projector.cache_clear()

    def test_string_axis_means_the_member(self):
        for axis in Axis:
            assert pauli(axis.value) == pauli(axis)
            basis = spin_basis(axis.value)
            assert basis.axis is axis and basis == spin_basis(axis)

    @pytest.mark.parametrize("build", [pauli, spin_basis])
    def test_unknown_axis_raises(self, build):
        with pytest.raises(InvalidValueError):
            build("w")

    def test_string_built_atom_holds_members(self):
        for atom in ALL_ATOMS:
            plain = Atom(atom.particle.value, atom.axis.value, atom.direction.value)
            assert plain == atom and str(plain) == str(atom)
            assert type(plain.particle) is Particle
            assert type(plain.axis) is Axis
            assert type(plain.direction) is Direction

    @pytest.mark.parametrize("fields", [("C", "x", "up"), ("A", "w", "up"), ("A", "x", "sideways")])
    def test_unknown_atom_field_raises(self, fields):
        with pytest.raises(InvalidValueError):
            Atom(*fields)

    def test_string_axis_gives_the_members_run(self):
        query = [Atom(Particle.B, Axis.Z, Direction.DOWN), Atom(Particle.B, Axis.X, Direction.UP)]
        for axis in Axis:
            plain, member = run_epr(axis.value, query), run_epr(axis, query)
            assert plain.verify_axis is axis
            assert render_report(plain) == render_report(member)
            assert report_to_dict(plain) == report_to_dict(member)

    def test_string_axis_spin_basis_reports_its_invalid_vector(self):
        with pytest.raises(InvalidValueError, match="^up vector is not a \\+1 eigenvector along z$"):
            SpinBasis("z", StateVector.of(1, 1), StateVector.of(0, 1))


class TestSinglet:
    def test_z_representative(self):
        assert singlet(Axis.Z) == SINGLET

    def test_x_representative(self):
        assert singlet(Axis.X) == vec(0, -2, 2, 0)

    def test_y_representative(self):
        assert singlet(Axis.Y) == vec(0, gr(0, -2), gr(0, 2), 0)

    @pytest.mark.parametrize("axis", list(Axis))
    def test_same_ray_for_every_axis(self, axis):
        s = singlet(axis)
        scale = next(e for e in s.entries if not e.is_zero)
        assert s.entries == tuple(scale * e for e in SINGLET.entries)


class TestEigencheck:
    def test_minus_one_eigenvectors(self):
        zz = pair_observable(Axis.Z)
        assert eigencheck(zz, vec(0, 1, 0, 0), -1)
        assert eigencheck(zz, vec(0, 0, 1, 0), -1)

    def test_wrong_vector_or_value(self):
        zz = pair_observable(Axis.Z)
        assert not eigencheck(zz, vec(1, 0, 0, 0), -1)
        assert not eigencheck(zz, vec(0, 1, 0, 0), 1)

    def test_singlet_is_minus_one_eigenvector_for_all_axes(self):
        for axis in Axis:
            assert eigencheck(pair_observable(axis), SINGLET, -1)

    def test_shape_checks(self):
        with pytest.raises(ShapeError):
            eigencheck(Matrix.zero(2, 3), vec(1, 0, 0), 0)
        with pytest.raises(ShapeError):
            eigencheck(Matrix.identity(2), vec(1, 0, 0), 1)


class TestVerify:
    def test_collapse_from_singlet(self):
        assert verify(singlet(Axis.Z), A_Z_UP) == vec(0, 1, 0, 0)

    def test_verifying_inside_range_keeps_the_state(self):
        assert verify(E2, A_Z_UP) == E2

    def test_impossible_outcome(self):
        with pytest.raises(ImpossibleOutcomeError):
            verify(E2, Atom(Particle.A, Axis.Z, Direction.DOWN))

    def test_post_state_stays_in_diff_range(self):
        post = verify(singlet(Axis.Z), A_Z_UP)
        ctx = standard_context()
        assert range_of(atom_projector(A_Z_UP)).contains(post)
        assert range_of(compile_proposition(different_spins(Axis.Z), ctx)).contains(post)


def apply_rule(state, p):
    """Valuation read off the image ``Matrix.apply`` builds: zero is false, the state itself true, else a gap."""
    image = p.matrix.apply(state)
    if all(e.is_zero for e in image):
        return F
    return T if image == state.entries else G


class TestRunTableValuation:
    def test_agrees_with_the_apply_rule(self):
        # Every row of the run table, on each axis's singlet and both of its
        # post-states, as built and scaled by complex non-unit factors.
        pre, post = scenario._run_table()
        assert len(pre) + len(post) == 30
        seen = set()
        for axis in Axis:
            prepared = singlet(axis)
            states = [prepared] + [verify(prepared, Atom(Particle.A, axis, d)) for d in Direction]
            for state in states:
                for s in (state, state.scale(gr(3, -2)), state.scale(gr(-5, 7) / 11)):
                    for _, _, projector in pre + post:
                        value = valuate(s, projector)
                        assert value is apply_rule(s, projector)
                        seen.add(value)
        assert seen == {T, F, G}


class TestPreVerificationProfile:
    @pytest.mark.parametrize("axis", list(Axis))
    def test_diff_true_same_false(self, axis):
        ctx = standard_context()
        assert valuate(SINGLET, compile_proposition(different_spins(axis), ctx)) is T
        assert valuate(SINGLET, compile_proposition(same_spins(axis), ctx)) is F

    @pytest.mark.parametrize("axis", list(Axis))
    def test_every_atom_is_gapped(self, axis):
        for particle in Particle:
            for direction in Direction:
                atom = Atom(particle, axis, direction)
                assert valuate(SINGLET, atom_projector(atom)) is G


class TestRunEpr:
    def test_population_contrast(self):
        report = run_epr(
            Axis.Z,
            [Atom(Particle.B, Axis.Z, Direction.DOWN), Atom(Particle.B, Axis.X, Direction.UP)],
        )
        assert report.classical_population.tuples == ((1, 1), (1, 0))
        assert report.super_population.is_empty

    def test_single_component_query_agrees(self):
        report = run_epr(Axis.Z, [Atom(Particle.B, Axis.Z, Direction.DOWN)])
        assert report.classical_population.tuples == ((1,),)
        assert report.super_population.tuples == ((1,),)

    def test_post_verification_valuations(self):
        report = run_epr(Axis.Z, [])
        after = {r.label: r.value for r in report.post_valuations}
        assert after["B.z.down"] is T
        assert after["B.z.up"] is F
        assert after["B.x.up"] is G
        assert after["B.x.down"] is G
        assert after["A.z.up"] is T
        assert after["A.z.down"] is F
        # verification along z destroys x and y information on both sides
        for label in ("A.x.up", "A.x.down", "A.y.up", "A.y.down", "B.y.up", "B.y.down"):
            assert after[label] is G

    def test_pre_verification_valuations(self):
        report = run_epr(Axis.Z, [])
        before = {r.label: r.value for r in report.pre_valuations}
        for ax in Axis:
            assert before[f"Diff({ax.value})"] is T
            assert before[f"Same({ax.value})"] is F
            assert before[f"A.{ax.value}.up & B.{ax.value}.down"] is G
            assert before[f"A.{ax.value}.down & B.{ax.value}.up"] is G
            assert before[f"A.{ax.value}.up & B.{ax.value}.up"] is F
            assert before[f"A.{ax.value}.down & B.{ax.value}.down"] is F

    def test_report_is_reproducible_from_recorded_states(self):
        report = run_epr(
            Axis.Z,
            [Atom(Particle.B, Axis.Z, Direction.DOWN), Atom(Particle.B, Axis.X, Direction.UP)],
        )
        ctx = standard_context()
        for record in report.pre_valuations:
            again = valuate(report.prepared_state, compile_proposition(record.proposition, ctx))
            assert again is record.value
        for record in report.post_valuations:
            again = valuate(report.post_state, compile_proposition(record.proposition, ctx))
            assert again is record.value

    def test_other_axes_work_too(self):
        report = run_epr(Axis.X, [Atom(Particle.B, Axis.X, Direction.DOWN)])
        assert report.super_population.tuples == ((1,),)
        assert report.classical_population.tuples == ((1,),)

    @pytest.mark.parametrize("axis", list(Axis))
    def test_classical_part_enumerates_only_the_verified_axis(self, monkeypatch, axis):
        calls = []
        enumerate_all = propositions.classical_solutions

        def counted(constraints, atoms):
            calls.append(list(atoms))
            return enumerate_all(constraints, atoms)

        monkeypatch.setattr(propositions, "classical_solutions", counted)
        query = [
            Atom(Particle.A, Axis.Y, Direction.UP),
            Atom(Particle.B, Axis.Y, Direction.DOWN),
            Atom(Particle.B, Axis.Z, Direction.UP),
            Atom(Particle.A, Axis.Z, Direction.DOWN),
            Atom(Particle.B, Axis.X, Direction.UP),
            Atom(Particle.A, Axis.X, Direction.DOWN),
        ]
        run_epr(axis, query)
        assert len(calls) == 1
        assert len(calls[0]) == 4
        assert set(calls[0]) == {Atom(p, axis, d) for p in Particle for d in Direction}

    @pytest.mark.parametrize("axis", list(Axis))
    @pytest.mark.parametrize("atom", ALL_ATOMS, ids=str)
    def test_super_population_is_the_atom_valuated_in_the_post_state(self, axis, atom):
        # Reference: the separate valuation of each queried atom that the post rows replaced.
        post_state = verify(singlet(axis), Atom(Particle.A, axis, Direction.UP))
        expected = population([valuate(post_state, atom_projector(atom))], [str(atom)])
        assert run_epr(axis, [atom]).super_population == expected

    @pytest.mark.parametrize("size", [0, 1, 6, 12])
    def test_each_run_valuates_thirty_rows_whatever_the_query(self, monkeypatch, size):
        calls = []
        valuate_once = scenario.valuate
        monkeypatch.setattr(scenario, "valuate", lambda s, p: calls.append(p) or valuate_once(s, p))
        for axis in Axis:
            calls.clear()
            run_epr(axis, ALL_ATOMS[:size])
            assert len(calls) == 30

    def test_query_longer_than_the_cap_raises(self):
        assert scenario.MAX_QUERY_ATOMS == 12
        with pytest.raises(InvalidValueError, match="^query has 13 atoms, more than 12$"):
            run_epr(Axis.Z, [Atom(Particle.B, Axis.X, Direction.UP)] * 13)

    @pytest.mark.parametrize("element", ["B.z.down", 1], ids=repr)
    def test_query_element_that_is_not_an_atom_raises(self, element):
        with pytest.raises(InvalidValueError, match=f"^query element {re.escape(repr(element))} is not an Atom$"):
            run_epr(Axis.Z, [Atom(Particle.B, Axis.X, Direction.UP), element])

    def test_query_at_the_cap_is_answered(self):
        report = run_epr(Axis.Z, [Atom(Particle.B, Axis.X, Direction.UP)] * 12)
        assert len(report.classical_population.tuples) == 4096

    def test_fixture_summary_included(self):
        report = run_epr(Axis.Z, [])
        assert report.fixture_summary.total == 27
        assert report.fixture_summary.match_count == 21


class TestDichotomy:
    """The paper's contrast as a law over queries, after verifying A up along an axis.

    A query whose atoms all lie along the verified axis has equal
    supervaluational and classical populations, and they are nonempty. A
    query with any atom off that axis has an empty supervaluational
    population, since that atom is a gap in the post-state, and a nonempty
    classical one. Queries are tuples of atoms, repeats allowed.
    """

    @staticmethod
    def assert_dichotomy(axis, query):
        report = run_epr(axis, query)
        classical, supervaluational = report.classical_population, report.super_population
        assert not classical.is_empty, (axis, query)
        if all(atom.axis is axis for atom in query):
            assert supervaluational == classical, (axis, query)
            return "on axis"
        assert supervaluational.is_empty, (axis, query)
        return "off axis"

    def test_every_query_of_one_to_three_atoms(self):
        counts = {"on axis": 0, "off axis": 0}
        for axis in Axis:
            for size in (1, 2, 3):
                for query in itertools.product(ALL_ATOMS, repeat=size):
                    counts[self.assert_dichotomy(axis, query)] += 1
        # Per axis 12 + 12^2 + 12^3 queries, 4 + 4^2 + 4^3 of them on the axis.
        assert counts == {"on axis": 252, "off axis": 5400}

    @settings(max_examples=60)
    @given(data=st.data())
    def test_longer_queries(self, data):
        # Half the draws take only the verified axis's atoms, which a draw from all twelve seldom does.
        axis = data.draw(st.sampled_from(list(Axis)))
        pool = ALL_ATOMS if data.draw(st.booleans()) else [a for a in ALL_ATOMS if a.axis is axis]
        self.assert_dichotomy(axis, data.draw(st.lists(st.sampled_from(pool), min_size=4, max_size=12)))


def _pre_verification_propositions():
    props = [r.proposition for r in run_epr(Axis.Z, []).pre_valuations]
    assert len(props) == 18
    return props


class TestStandardProjector:
    def test_agrees_with_compile_proposition(self):
        ctx = standard_context()
        pre, post = scenario._run_table()
        assert [prop for _, prop, _ in pre] == _pre_verification_propositions()
        assert [prop for _, prop, _ in post] == ALL_ATOMS
        for _, prop, projector in pre + post:
            assert projector == compile_proposition(prop, ctx)

    def test_repeated_call_returns_the_same_object(self):
        assert scenario._run_table() is scenario._run_table()

    def test_a_cold_run_and_its_audit_compile_each_constant_once(self, monkeypatch):
        original = propositions.compile_proposition
        outermost = []
        depth = [0]

        def counted(p, context):
            if depth[0] == 0:
                outermost.append(p)
            depth[0] += 1
            try:
                return original(p, context)
            finally:
                depth[0] -= 1

        for module in (propositions, scenario):
            if getattr(module, "compile_proposition", None) is original:
                monkeypatch.setattr(module, "compile_proposition", counted)
        scenario._run_table.cache_clear()
        audit.cache_clear()
        run_epr(Axis.Z, [])
        assert len(outermost) == 30
        assert len(set(outermost)) == 30

    def test_audit_reads_the_run_tables_projectors(self):
        pre, _ = scenario._run_table()
        row = next(projector for label, _, projector in pre if label == "A.z.up & B.z.down")
        assert scenario._derivations()["proj_z_up_down"] is row.matrix

    def test_warm_runs_compile_nothing(self, monkeypatch):
        query = [Atom(Particle.B, Axis.Z, Direction.DOWN), Atom(Particle.B, Axis.X, Direction.UP)]
        for axis in Axis:
            run_epr(axis, query)
        calls = []
        compile_once = scenario.compile_proposition

        def counted(p, context):
            calls.append(p)
            return compile_once(p, context)

        monkeypatch.setattr(scenario, "compile_proposition", counted)
        for axis in Axis:
            run_epr(axis, query)
        assert calls == []
        scenario._run_table.cache_clear()
        run_epr(Axis.Z, query)
        assert len(calls) == 30

    def test_warm_runs_share_one_table(self, monkeypatch):
        query = [Atom(Particle.B, Axis.Z, Direction.DOWN), Atom(Particle.B, Axis.X, Direction.UP)]
        first = run_epr(Axis.Z, query)
        calls = []
        compiled = scenario.compile_proposition
        monkeypatch.setattr(
            scenario, "compile_proposition", lambda p, context: calls.append(p) or compiled(p, context)
        )
        for axis in Axis:
            again = run_epr(axis, query)
            for old, new in zip(
                first.pre_valuations + first.post_valuations,
                again.pre_valuations + again.post_valuations,
            ):
                assert new.label is old.label and new.proposition is old.proposition
        assert calls == []

    @pytest.mark.parametrize("axis", list(Axis))
    def test_warm_and_cold_reports_are_equal(self, axis):
        query = [Atom(Particle.B, axis, Direction.DOWN), Atom(Particle.A, Axis.Y, Direction.UP)]
        scenario._run_table.cache_clear()
        audit.cache_clear()
        cold = run_epr(axis, query)
        warm = run_epr(axis, query)
        assert warm == cold


class TestSemantics:
    @pytest.mark.parametrize("render", [render_report, report_to_dict])
    @pytest.mark.parametrize("semantics", ["clasical", "Both"])
    def test_misspelt_semantics_raises(self, render, semantics):
        report = run_epr(Axis.Z, [Atom(Particle.B, Axis.Z, Direction.DOWN)])
        with pytest.raises(InvalidValueError, match=f"^unknown semantics '{semantics}'"):
            render(report, semantics)


class TestPerAxisStates:
    """The spin basis, the prepared singlet and the post-state are built once per axis, in one cache, and shared by every run."""

    @pytest.mark.parametrize("build", [spin_basis, singlet], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("axis", list(Axis))
    def test_both_spellings_share_one_entry(self, build, axis):
        scenario._axis_states.cache_clear()
        first = build(axis.value)
        assert build(axis) is first
        info = scenario._axis_states.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_the_cache_holds_one_entry_per_axis(self):
        scenario._axis_states.cache_clear()
        for axis in Axis:
            for spelling in (axis.value, axis, axis.value):
                spin_basis(spelling)
                singlet(spelling)
        assert scenario._axis_states.cache_info().currsize == 3

    def test_the_post_state_is_the_singlet_verified_up_along_the_axis(self):
        for axis in Axis:
            expected = verify(singlet(axis), Atom(Particle.A, axis, Direction.UP))
            assert scenario._axis_states(axis)[2] == expected
        assert scenario._axis_states(Axis.Z)[2] == vec(0, 1, 0, 0)

    @pytest.mark.parametrize("axis", list(Axis))
    def test_a_warm_run_prepares_verifies_and_scales_nothing(self, monkeypatch, axis):
        query = [Atom(Particle.B, axis, Direction.DOWN), Atom(Particle.B, Axis.X, Direction.UP)]
        calls = []
        for module, name in ((scenario, "verify"), (scenario, "state_tensor"), (linalg, "_integer_rows")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
        scenario._axis_states.cache_clear()
        run_epr(axis, query)
        assert sorted(set(calls)) == ["_integer_rows", "state_tensor", "verify"]
        calls.clear()
        for spelling in (axis, axis.value):
            report = run_epr(spelling, query)
            assert report.prepared_state is singlet(axis)
            assert report.post_state is scenario._axis_states(axis)[2]
        assert calls == []

    @pytest.mark.parametrize("axis", list(Axis))
    def test_cached_states_give_the_reports_of_fresh_ones(self, axis):
        # Every query of at most two atoms, repeats allowed: 1 + 12 + 144 per spelling.
        queries = [()] + [(a,) for a in ALL_ATOMS] + list(itertools.product(ALL_ATOMS, repeat=2))
        for spelling in (axis, axis.value):
            for query in queries:
                warm = run_epr(spelling, query)
                scenario._axis_states.cache_clear()
                assert run_epr(spelling, query) == warm, (spelling, query)


# Rational unit vectors (a, b, c)/d, a^2 + b^2 + c^2 = d^2; no two are parallel or antiparallel.
RATIONAL_AXES = [(1, 2, 2, 3), (2, 3, 6, 7), (3, 0, 4, 5), (1, 4, 8, 9), (2, 6, 9, 11), (-2, 3, -6, 7), (0, 0, 1, 1)]


def spin_projector(m, sign):
    """(I + sign m.sigma)/2 on one particle: m.sigma = [[c, a - ib], [a + ib, -c]]/d."""
    a, b, c, d = m
    s = Fraction(sign, 2 * d)
    return Matrix.from_rows(
        [
            [gr(Fraction(1, 2) + s * c), gr(s * a, -s * b)],
            [gr(s * a, s * b), gr(Fraction(1, 2) - s * c)],
        ]
    )


def rebound_context(frames):
    """Every atom's projector, with each axis label bound to the unit vector ``frames[label]``."""
    eye = Matrix.identity(2)
    context = {}
    for axis, m in frames.items():
        for direction, sign in ((Direction.UP, 1), (Direction.DOWN, -1)):
            p = spin_projector(m, sign)
            context[Atom(Particle.A, axis, direction)] = Projector(tensor_product(p, eye))
            context[Atom(Particle.B, axis, direction)] = Projector(tensor_product(eye, p))
    return context


class TestRationalAxes:
    """The paper's result along any rational axis, with the axis labels rebound in a custom context.

    For each ordered pair (n, m) of distinct axes, z means n, x means m and
    y means -n, so one context checks that B.m.up is a gap exactly when m is
    neither n (false) nor -n (true) after A.n.up is verified.
    """

    def test_the_standard_axes_give_the_standard_context(self):
        context = rebound_context({Axis.Z: (0, 0, 1, 1), Axis.X: (1, 0, 0, 1), Axis.Y: (0, 1, 0, 1)})
        assert context == dict(standard_context())

    def test_every_ordered_pair_of_rational_axes(self):
        pairs = 0
        for n, m in itertools.permutations(RATIONAL_AXES, 2):
            minus_n = (-n[0], -n[1], -n[2], n[3])
            context = rebound_context({Axis.Z: n, Axis.X: m, Axis.Y: minus_n})
            for axis in Axis:
                before = [
                    valuate(SINGLET, compile_proposition(prop, context))
                    for prop in (
                        different_spins(axis),
                        same_spins(axis),
                        scenario.conjunction(axis, Direction.UP, Direction.DOWN),
                        scenario.conjunction(axis, Direction.DOWN, Direction.UP),
                    )
                ]
                assert before == [T, F, G, G], (n, m, axis)
            post = StateVector(context[Atom(Particle.A, Axis.Z, Direction.UP)].matrix.apply(SINGLET))
            after = {atom: valuate(post, context[atom]) for atom in ALL_ATOMS}
            assert after[Atom(Particle.A, Axis.Z, Direction.UP)] is T
            assert after[Atom(Particle.B, Axis.Z, Direction.DOWN)] is T
            assert after[Atom(Particle.B, Axis.Z, Direction.UP)] is F
            assert after[Atom(Particle.B, Axis.X, Direction.UP)] is G, (n, m)
            assert after[Atom(Particle.B, Axis.Y, Direction.UP)] is T, n
            pairs += 1
        assert pairs == 42
