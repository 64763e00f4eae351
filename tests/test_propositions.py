import itertools
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    SINGLET,
    atom_order,
    classical_solutions_oracle,
    counted_arithmetic,
    gr,
    partner,
    rand_state,
    rand_subspace,
    vec,
)
from qgap import (
    And,
    Atom,
    Axis,
    Direction,
    IncompleteAssignmentError,
    InvalidValueError,
    Matrix,
    ParseError,
    Particle,
    Population,
    Projector,
    QgapError,
    ShapeError,
    StateVector,
    Subspace,
    TruthValueSet,
    UnsupportedConnectiveError,
    Xor,
    atoms_of,
    classical_solutions,
    classical_valuate,
    classical_value_sets,
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
from qgap.propositions import ATOMS, MAX_OPERATORS

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
        for t in TruthValueSet:
            assert TruthValueSet.from_values(t.admissible_values) is t
        for values, text in (({2}, "{2}"), ({0, 2}, "{0, 2}"), ({-1}, "{-1}")):
            with pytest.raises(InvalidValueError) as info:
                TruthValueSet.from_values(values)
            assert str(info.value) == f"not a subset of {{0,1}}: {text}"

    def test_from_values_rejection_is_a_package_error(self):
        with pytest.raises(QgapError):
            TruthValueSet.from_values([0, 2])


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

    def test_a_plain_dict_context_compiles_like_the_standard_one(self):
        ctx = standard_context()
        for prop in (DIFF_Z, And(A_UP, B_DOWN)):
            assert compile_proposition(prop, dict(ctx)) == compile_proposition(prop, ctx)

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

    @pytest.mark.parametrize("connective", [And, Xor])
    def test_operands_of_different_dimensions_are_a_shape_error(self, connective):
        ctx = {A_UP: standard_context()[A_UP], B_UP: Projector(Matrix.from_rows([[1, 0], [0, 0]]))}
        for prop in (connective(A_UP, B_UP), connective(B_UP, A_UP)):
            with pytest.raises(ShapeError):
                compile_proposition(prop, ctx)

    @pytest.mark.parametrize(
        "prop, refusal, products",
        [
            # tr(PQ) = 0 decides orthogonality without a product; P + Q is then stored.
            (Xor(A_UP, A_DOWN), None, 0),
            # PQ is Hermitian, so it is already idempotent: no square.
            (And(A_UP, B_DOWN), None, 1),
            # tr(PQ) is not zero, so the sum refuses without a product.
            (Xor(A_UP, B_UP), "exclusive-or of non-orthogonal propositions: A.z.up ^ B.z.up", 0),
            # PQ is not Hermitian, so the product refuses it.
            (
                And(A_UP, Atom(Particle.A, Axis.X, Direction.UP)),
                "conjunction of non-commuting propositions: A.z.up & A.x.up",
                1,
            ),
        ],
    )
    def test_a_connective_is_one_closed_form_validated_once(self, monkeypatch, prop, refusal, products):
        ctx = standard_context()  # built first: only compilation's own products count
        calls = []
        validated = []
        matmul = Matrix.__matmul__

        def counted(self, other):
            calls.append((self, other))
            return matmul(self, other)

        monkeypatch.setattr(Matrix, "__matmul__", counted)
        monkeypatch.setattr(Projector, "__post_init__", lambda self: validated.append(self))
        if refusal is None:
            compile_proposition(prop, ctx)
        else:
            with pytest.raises(UnsupportedConnectiveError) as exc:
                compile_proposition(prop, ctx)
            assert str(exc.value) == refusal
        assert len(calls) == products
        assert validated == []

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
        assert q.im == 0
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

    @pytest.mark.parametrize("height", (2, 1000))
    def test_does_no_scalar_arithmetic(self, height):
        # Fresh projectors and states: a compiled exclusive-or, never
        # valuated before, and projectors onto a span holding the state, onto
        # its complement and onto a random span.
        rng, ctx = Random(909 + height), standard_context()
        cases = []
        for _ in range(10):
            state = rand_state(rng, height=height, sparse=rng.random() < 0.5)
            around = Subspace.from_vectors(4, [state, rand_state(rng, height=height)])
            cases.append((StateVector(state.entries), compile_proposition(DIFF_Z, ctx)))
            for s in (around, around.orthocomplement(), rand_subspace(rng)):
                cases.append((StateVector(state.entries), projector_onto(s)))
        with counted_arithmetic() as counts:
            values = [valuate(state, p) for state, p in cases]
        assert counts == dict.fromkeys(counts, 0)
        assert set(values) == {T, F, G}


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
        covered = sorted({a for x in atoms for a in (x, partner(x))}, key=atom_order)
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


def projected_value_sets(constraints, query):
    """Each query atom's value set over the full enumeration of every named pair."""
    atoms = list(query) + [a for prop, _ in constraints for a in atoms_of(prop)]
    solutions = classical_solutions(constraints, atoms)
    return [TruthValueSet.from_values({sol[a] for sol in solutions}) for a in query]


def short_proposition(rng: Random):
    """A random proposition of zero to two connectives over the twelve atoms."""
    prop = rng.choice(ALL_ATOMS)
    for _ in range(rng.randint(0, 2)):
        op = rng.choice((And, Xor))
        other = rng.choice(ALL_ATOMS)
        prop = op(prop, other) if rng.random() < 0.5 else op(other, prop)
    return prop


VERIFIED_ATOMS = [Atom(Particle.A, ax, d) for ax in Axis for d in Direction]


class TestClassicalValueSets:
    def test_contrast_query(self):
        constraints = [(different_spins(Axis.Z), 1), (A_UP, 1)]
        b_x_up = Atom(Particle.B, Axis.X, Direction.UP)
        assert classical_value_sets(constraints, [B_DOWN, b_x_up]) == [T, IND]

    @pytest.mark.parametrize("axis", list(Axis))
    def test_every_single_atom_under_diff_and_each_verified_atom(self, axis):
        for verified in [None] + VERIFIED_ATOMS:
            constraints = [(different_spins(axis), 1)]
            if verified is not None:
                constraints.append((verified, 1))
            for atom in ALL_ATOMS:
                assert classical_value_sets(constraints, [atom]) == projected_value_sets(
                    constraints, [atom]
                )

    def test_seeded_scenario_queries(self):
        rng = Random(8)
        for _ in range(360):
            axis = rng.choice(list(Axis))
            constraints = [(different_spins(axis), 1), (rng.choice(VERIFIED_ATOMS), 1)]
            query = rng.sample(ALL_ATOMS, rng.randint(1, 6))
            assert classical_value_sets(constraints, query) == projected_value_sets(
                constraints, query
            )

    def test_seeded_constraint_sets(self):
        rng = Random(88)
        unsatisfiable = 0
        for _ in range(400):
            constraints = [
                (short_proposition(rng), rng.randint(0, 1)) for _ in range(rng.randint(0, 3))
            ]
            query = rng.sample(ALL_ATOMS, rng.randint(1, 6))
            got = classical_value_sets(constraints, query)
            assert got == projected_value_sets(constraints, query)
            if not classical_solutions(constraints, [a for p, _ in constraints for a in atoms_of(p)]):
                unsatisfiable += 1
                assert got == [G] * len(query)
        assert unsatisfiable >= 10

    def test_unsatisfiable_constraints_gap_every_atom(self):
        for constraints in (
            [(A_UP, 1), (A_DOWN, 1)],
            [(DIFF_Z, 1), (same_spins(Axis.Z), 1)],
            [(Xor(A_UP, A_UP), 1)],
        ):
            assert classical_value_sets(constraints, ALL_ATOMS) == [G] * 12
            assert projected_value_sets(constraints, ALL_ATOMS) == [G] * 12

    def test_no_constraints_leave_every_atom_indeterminate(self):
        assert classical_value_sets([], ALL_ATOMS) == [IND] * 12
        assert projected_value_sets([], ALL_ATOMS) == [IND] * 12
        assert classical_value_sets([], []) == []


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

    @pytest.mark.parametrize(
        "tuples",
        [[(1, 0)], [(7,)], [()], [(1,), (True,)], [(1.0,)]],
        ids=["too-long", "not-a-truth-value", "too-short", "bool", "float"],
    )
    def test_refuses_tuples_that_do_not_fit_its_labels(self, tuples):
        with pytest.raises(InvalidValueError, match="is not one 0 or 1 per label"):
            Population(["a"], tuples)

    def test_is_the_population_built_through_init(self):
        pop = population([T, IND], ["a", "b"])
        assert pop == Population(["a", "b"], [(1, 1), (1, 0)]) and type(pop.labels) is tuple

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

    def test_atom_strips_only_ascii_whitespace(self):
        assert parse_atom(" \tB.x.down\n") == Atom(Particle.B, Axis.X, Direction.DOWN)
        for bad in ("", " ", "\xa0A.z.up", "A.z.up\u2003", "A.z. up"):
            with pytest.raises(ParseError, match="not an atom"):
                parse_atom(bad)

    def test_atom_table_is_every_atom_once_in_order(self):
        assert list(ATOMS) == ALL_ATOMS

    @pytest.mark.parametrize("atom", ATOMS, ids=str)
    def test_every_atom_parses_to_its_table_entry(self, atom):
        for text in (str(atom), f" \t{atom}\r\n", f"\x0b{atom}\x0c"):
            assert parse_atom(text) is atom

    @pytest.mark.parametrize("bad", ["A.z.UP", "C.z.up", "A.z.up.", "a.z.up", "A.zup", "A.z.up,B.z.up"])
    def test_near_miss_atom_keeps_the_message(self, bad):
        with pytest.raises(ParseError) as info:
            parse_atom(bad)
        assert str(info.value) == f"not an atom (expected e.g. A.z.up): {bad!r}"

    def test_precedence(self):
        got = parse_proposition("A.z.up & B.z.down ^ A.z.down & B.z.up")
        assert got == DIFF_Z

    def test_parentheses(self):
        got = parse_proposition("A.z.up & (B.z.down ^ B.z.up)")
        assert got == And(A_UP, Xor(B_DOWN, B_UP))
        assert parse_proposition("\tA.z.up &\n(B.z.down ^ B.z.up)\n") == got

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
        [
            "", "A.w.up", "A.z.sideways", "A.z.up &", "& B.z.down", "(A.z.up", "A.z.up) ", "A.z.up B.z.down",
            # Only ASCII whitespace separates tokens.
            "\xa0A.z.up & B.z.down", "A.z.up\xa0& B.z.down", "A.z.up & B.z.down\u2003",
        ],
    )
    def test_rejects_garbage(self, bad):
        with pytest.raises(ParseError):
            parse_proposition(bad)

    @pytest.mark.parametrize(
        "bad,rest",
        [
            ("A.z.up\xa0& B.z.down", "\xa0& B.z.down"),
            ("A.z.up & B.z.down\u2003", "\u2003"),
            ("A.z.upx", "x"),
            ("A.z.up & ?\n\t B.z.up  ", "?\n\t B.z.up"),
        ],
    )
    def test_unexpected_input_is_quoted_from_its_first_character(self, bad, rest):
        with pytest.raises(ParseError) as exc:
            parse_proposition(bad)
        assert str(exc.value) == f"unexpected input at {rest!r}"

    @pytest.mark.parametrize(
        "text",
        [
            " & ".join(["A.z.up"] * (MAX_OPERATORS + 1)),
            "(" * (MAX_OPERATORS // 2) + "A.z.up" + ")" * (MAX_OPERATORS // 2),
        ],
        ids=["chain", "nested"],
    )
    def test_accepts_the_operator_bound(self, text):
        prop = parse_proposition(text)
        assert parse_proposition(str(prop)) == prop

    @pytest.mark.parametrize(
        "text",
        [
            " & ".join(["A.z.up"] * (MAX_OPERATORS + 2)),
            "(" * (MAX_OPERATORS // 2) + "A.z.up" + ")" * (MAX_OPERATORS // 2) + " ^ B.z.up",
            "(" * 329 + "A.z.up" + ")" * 329,
        ],
        ids=["chain", "nested", "deep"],
    )
    def test_rejects_more_operators_than_the_bound(self, text):
        with pytest.raises(ParseError, match=f"more than {MAX_OPERATORS}"):
            parse_proposition(text)

    def test_atoms_of(self):
        assert atoms_of(DIFF_Z) == (A_UP, B_DOWN, A_DOWN, B_UP)
