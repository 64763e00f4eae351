import itertools
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import SINGLET, classical_solutions_oracle, gr, rand_state, rand_subspace, vec
from qgap import (
    And,
    Atom,
    Axis,
    Direction,
    IncompleteAssignmentError,
    Matrix,
    ParseError,
    Particle,
    Projector,
    TruthValueSet,
    UnsupportedConnectiveError,
    Xor,
    atoms_of,
    classical_solutions,
    classical_valuate,
    compile_proposition,
    different_spins,
    inner,
    parse_atom,
    parse_proposition,
    population,
    projector_join,
    projector_meet,
    projector_onto,
    same_spins,
    standard_context,
    valuate,
)

A_UP = Atom(Particle.A, Axis.Z, Direction.UP)
A_DOWN = Atom(Particle.A, Axis.Z, Direction.DOWN)
B_UP = Atom(Particle.B, Axis.Z, Direction.UP)
B_DOWN = Atom(Particle.B, Axis.Z, Direction.DOWN)
DIFF_Z = Xor(And(A_UP, B_DOWN), And(A_DOWN, B_UP))
ALL_ATOMS = [Atom(p, ax, d) for p in Particle for ax in Axis for d in Direction]

T = TruthValueSet.TRUE_ONLY
F = TruthValueSet.FALSE_ONLY
G = TruthValueSet.GAP
IND = TruthValueSet.INDETERMINATE


class TestTruthValueSet:
    def test_four_distinct_values(self):
        assert len({T, F, G, IND}) == 4
        assert G is not IND

    def test_admissible_values(self):
        assert T.admissible_values == (1,)
        assert F.admissible_values == (0,)
        assert IND.admissible_values == (1, 0)
        assert G.admissible_values == ()

    def test_from_values(self):
        assert TruthValueSet.from_values([1]) is T
        assert TruthValueSet.from_values([0, 1]) is IND
        assert TruthValueSet.from_values([]) is G
        with pytest.raises(ValueError):
            TruthValueSet.from_values([2])


class TestCompile:
    def test_diff_compiles_to_sum_matrix(self):
        p = compile_proposition(DIFF_Z, standard_context())
        assert p.matrix == Matrix.from_rows(
            [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]
        )

    def test_conjunction_compiles_to_product(self):
        p = compile_proposition(And(A_UP, B_DOWN), standard_context())
        assert p.matrix == Matrix.from_rows(
            [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        )

    def test_xor_requires_orthogonality(self):
        conj = And(A_UP, B_DOWN)
        with pytest.raises(UnsupportedConnectiveError):
            compile_proposition(Xor(conj, conj), standard_context())

    def test_and_requires_commuting(self):
        clash = And(A_UP, Atom(Particle.A, Axis.X, Direction.UP))
        with pytest.raises(UnsupportedConnectiveError):
            compile_proposition(clash, standard_context())

    def test_missing_atom(self):
        with pytest.raises(IncompleteAssignmentError):
            compile_proposition(A_UP, {})

    def test_direct_connectives_match_lattice_route(self):
        # Both orders of every pair of the 12 atoms and the six Diff/Same
        # propositions: where a connective is defined, the compiled
        # projector equals the general lattice meet or join; elsewhere
        # compilation refuses. Two stand-in atoms carry the operands'
        # projectors, so each pair compiles only its connective.
        ctx = standard_context()
        props = list(ctx) + [f(ax) for f in (different_spins, same_spins) for ax in Axis]
        compiled = [compile_proposition(p, ctx) for p in props]
        for a, b in itertools.combinations_with_replacement(compiled, 2):
            meet = projector_meet(a, b) if a.commutes_with(b) else None
            join = projector_join(a, b) if a.orthogonal_to(b) else None
            for pair in ({A_UP: a, B_UP: b}, {A_UP: b, B_UP: a}):
                for connective, expected in ((And, meet), (Xor, join)):
                    prop = connective(A_UP, B_UP)
                    if expected is None:
                        with pytest.raises(UnsupportedConnectiveError):
                            compile_proposition(prop, pair)
                    else:
                        assert compile_proposition(prop, pair) == expected


class TestValuate:
    def test_diff_true_in_singlet_for_all_axes(self):
        from qgap import different_spins

        ctx = standard_context()
        for ax in Axis:
            assert valuate(SINGLET, compile_proposition(different_spins(ax), ctx)) is T

    def test_conjunction_gap_in_singlet(self):
        p = compile_proposition(And(A_UP, B_DOWN), standard_context())
        assert valuate(SINGLET, p) is G

    def test_super_truth_and_falsity(self):
        rng = Random(3)
        for _ in range(10):
            state = rand_state(rng)
            assert valuate(state, Projector.identity(4)) is T
            assert valuate(state, Projector.zero(4)) is F

    @given(st.integers(0, 10_000))
    def test_trichotomy_and_expectation(self, seed):
        rng = Random(seed)
        state = rand_state(rng)
        proj = projector_onto(rand_subspace(rng))
        value = valuate(state, proj)
        assert value in (T, F, G)
        image = proj.matrix.apply(state)
        numerator = gr(0)
        for s, im in zip(state.entries, image):
            numerator = numerator + s.conjugate() * im
        q = numerator / inner(state, state)
        assert q.is_real
        assert (value is T) == (q == gr(1))
        assert (value is F) == (q == gr(0))
        assert (value is G) == (gr(0) != q != gr(1))

    def test_scale_invariance(self):
        p = compile_proposition(And(A_UP, B_DOWN), standard_context())
        for factor in (gr(2), gr(-1, 3), gr(0, 1), gr(5, -2)):
            assert valuate(SINGLET.scale(factor), p) is valuate(SINGLET, p)

    def test_not_truth_functional(self):
        # same constituent values (gap, gap), different compound values
        ctx = standard_context()
        left = compile_proposition(And(A_UP, B_DOWN), ctx)
        right = compile_proposition(And(A_DOWN, B_UP), ctx)
        compound = compile_proposition(DIFF_Z, ctx)
        other = vec(1, 1, 1, 0)
        for state in (SINGLET, other):
            assert valuate(state, left) is G
            assert valuate(state, right) is G
        assert valuate(SINGLET, compound) is T
        assert valuate(other, compound) is G


class TestClassicalValuate:
    def test_diff_true_under_matching_assignment(self):
        assignment = {A_UP: 1, A_DOWN: 0, B_UP: 0, B_DOWN: 1}
        assert classical_valuate(DIFF_Z, assignment) == 1

    def test_diff_false_when_both_up(self):
        assignment = {A_UP: 1, A_DOWN: 0, B_UP: 1, B_DOWN: 0}
        assert classical_valuate(DIFF_Z, assignment) == 0

    def test_xor_of_same_is_zero(self):
        for bit in (0, 1):
            assert classical_valuate(Xor(A_UP, A_UP), {A_UP: bit}) == 0

    def test_missing_atom(self):
        with pytest.raises(IncompleteAssignmentError):
            classical_valuate(DIFF_Z, {A_UP: 1})

    def test_eigenstate_agreement(self):
        # on conjunction eigenstates the two semantics coincide per atom
        ctx = standard_context()
        state = vec(0, 1, 0, 0)  # A up, B down along z
        bits = {A_UP: 1, A_DOWN: 0, B_UP: 0, B_DOWN: 1}
        for atom, bit in bits.items():
            got = valuate(state, ctx[atom])
            assert got is (T if bit else F)
            assert classical_valuate(atom, bits) == bit


class TestClassicalSolutions:
    def test_diff_constraint_has_two_solutions(self):
        atoms = [A_UP, A_DOWN, B_UP, B_DOWN]
        solutions = classical_solutions([(DIFF_Z, 1)], atoms)
        assert solutions == [
            {A_DOWN: 0, A_UP: 1, B_DOWN: 1, B_UP: 0},
            {A_DOWN: 1, A_UP: 0, B_DOWN: 0, B_UP: 1},
        ]

    def test_diff_and_same_unsatisfiable(self):
        same = Xor(And(A_UP, B_UP), And(A_DOWN, B_DOWN))
        solutions = classical_solutions([(DIFF_Z, 1), (same, 1)], [A_UP, A_DOWN, B_UP, B_DOWN])
        assert solutions == []

    def test_exclusivity_alone(self):
        up = Atom(Particle.B, Axis.X, Direction.UP)
        down = Atom(Particle.B, Axis.X, Direction.DOWN)
        solutions = classical_solutions([], [up, down])
        assert solutions == [{down: 0, up: 1}, {down: 1, up: 0}]

    def test_partner_atoms_completed(self):
        solutions = classical_solutions([], [A_UP])
        assert len(solutions) == 2
        assert all(sol[A_UP] + sol[A_DOWN] == 1 for sol in solutions)

    def test_uncovered_constraint_atom(self):
        with pytest.raises(IncompleteAssignmentError):
            classical_solutions([(DIFF_Z, 1)], [A_UP, A_DOWN])

    @given(st.data())
    def test_matches_brute_force_oracle(self, data):
        atoms = data.draw(st.lists(st.sampled_from(ALL_ATOMS), min_size=1, max_size=6))
        covered = sorted({a for x in atoms for a in (x, x.opposite())}, key=Atom.sort_key)
        props = st.recursive(
            st.sampled_from(covered),
            lambda sub: st.builds(And, sub, sub) | st.builds(Xor, sub, sub),
            max_leaves=4,
        )
        constraints = data.draw(st.lists(st.tuples(props, st.sampled_from((0, 1))), max_size=3))
        got = classical_solutions(constraints, atoms)
        want = classical_solutions_oracle(constraints, atoms)
        assert got == want
        assert [list(s) for s in got] == [list(s) for s in want]


class TestPopulation:
    def test_true_times_indeterminate(self):
        pop = population([T, IND], ["a", "b"])
        assert pop.tuples == ((1, 1), (1, 0))
        assert str(pop) == "{(1,1), (1,0)}"

    def test_gap_annihilates(self):
        pop = population([T, G], ["a", "b"])
        assert pop.is_empty
        assert str(pop) == "{}"

    def test_full_product(self):
        pop = population([IND, IND], ["a", "b"])
        assert pop.tuples == ((1, 1), (1, 0), (0, 1), (0, 0))

    def test_empty_component_list(self):
        assert population([], []).tuples == ((),)

    @given(st.lists(st.sampled_from([T, F, G, IND]), max_size=5))
    def test_size_is_product_of_component_sizes(self, components):
        expected = 1
        for c in components:
            expected *= len(c.admissible_values)
        pop = population(components, [str(i) for i in range(len(components))])
        assert len(pop.tuples) == expected
        if G in components:
            assert pop.is_empty


class TestGrammar:
    def test_atom(self):
        assert parse_atom("B.x.down") == Atom(Particle.B, Axis.X, Direction.DOWN)

    def test_precedence(self):
        got = parse_proposition("A.z.up & B.z.down ^ A.z.down & B.z.up")
        assert got == DIFF_Z

    def test_parentheses(self):
        got = parse_proposition("A.z.up & (B.z.down ^ B.z.up)")
        assert got == And(A_UP, Xor(B_DOWN, B_UP))

    def test_round_trip(self):
        for text in (
            "A.z.up",
            "A.z.up & B.z.down",
            "A.z.up & B.z.down ^ A.z.down & B.z.up",
            "A.z.up & (B.z.down ^ B.z.up)",
        ):
            prop = parse_proposition(text)
            assert parse_proposition(str(prop)) == prop

    @pytest.mark.parametrize(
        "bad",
        ["", "A.w.up", "A.z.sideways", "A.z.up &", "& B.z.down", "(A.z.up", "A.z.up) ", "A.z.up B.z.down"],
    )
    def test_rejects_garbage(self, bad):
        with pytest.raises(ParseError):
            parse_proposition(bad)

    def test_atoms_of(self):
        assert atoms_of(DIFF_Z) == (A_UP, B_DOWN, A_DOWN, B_UP)
