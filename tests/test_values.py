"""Value semantics of the package's frozen value classes.

Each class compares and hashes by its field tuple, prints as
``Name(field=value, ...)``, refuses assignment and deletion of attributes,
survives copying and pickling, and is built from its fields by position or
keyword, every sequence field stored as a tuple. The rule lives once, in
``Frozen``; only ``GaussianRational`` and ``Atom`` write it out. A
``ScenarioReport``'s ``__init__`` refuses every call: ``run_epr`` alone builds
one, and stores its fields by ``Frozen._of``, so the cases build it that way too.
"""

import copy
import pickle

import pytest

from qgap import (
    And,
    Atom,
    AuditSummary,
    Axis,
    Direction,
    FixtureResult,
    Matrix,
    Particle,
    Population,
    Projector,
    ScenarioReport,
    SpinBasis,
    StateVector,
    Subspace,
    TruthValueSet,
    Xor,
    state_tensor,
)
from qgap.scalars import ONE, ZERO, Frozen, GaussianRational
from qgap.scenario import ValuationRecord, atom_projector, render_report, run_epr, singlet, verify

G1 = "GaussianRational(re=Fraction(1, 1), im=Fraction(0, 1))"
G0 = "GaussianRational(re=Fraction(0, 1), im=Fraction(0, 1))"
A_Z_UP = Atom(Particle.A, Axis.Z, Direction.UP)
B_Z_DOWN = Atom(Particle.B, Axis.Z, Direction.DOWN)
A_Z_UP_REPR = "Atom(particle=<Particle.A: 'A'>, axis=<Axis.Z: 'z'>, direction=<Direction.UP: 'up'>)"
B_Z_DOWN_REPR = "Atom(particle=<Particle.B: 'B'>, axis=<Axis.Z: 'z'>, direction=<Direction.DOWN: 'down'>)"
UP, DOWN = StateVector((ONE, ZERO)), StateVector((ZERO, ONE))
UP_REPR, DOWN_REPR = f"StateVector(entries=({G1}, {G0}))", f"StateVector(entries=({G0}, {G1}))"
POPULATION = Population(("A.z.up",), ((1,),))

# class, its fields in order with one legal value each, and the exact repr.
CASES = [
    (
        Matrix,
        {"rows": 1, "cols": 2, "entries": (ONE, ZERO)},
        f"Matrix(rows=1, cols=2, entries=({G1}, {G0}))",
    ),
    (StateVector, {"entries": (ONE, ZERO)}, UP_REPR),
    (
        Subspace,
        {"ambient_dim": 2, "basis": (UP,)},
        f"Subspace(ambient_dim=2, basis=({UP_REPR},))",
    ),
    (
        Projector,
        {"matrix": Matrix(1, 1, (ONE,))},
        f"Projector(matrix=Matrix(rows=1, cols=1, entries=({G1},)))",
    ),
    (
        Atom,
        {"particle": Particle.A, "axis": Axis.Z, "direction": Direction.UP},
        A_Z_UP_REPR,
    ),
    (And, {"left": A_Z_UP, "right": B_Z_DOWN}, f"And(left={A_Z_UP_REPR}, right={B_Z_DOWN_REPR})"),
    (Xor, {"left": A_Z_UP, "right": B_Z_DOWN}, f"Xor(left={A_Z_UP_REPR}, right={B_Z_DOWN_REPR})"),
    (
        Population,
        {"labels": ("A.z.up", "B.z.down"), "tuples": ((1, 0),)},
        "Population(labels=('A.z.up', 'B.z.down'), tuples=((1, 0),))",
    ),
    (
        FixtureResult,
        {"label": "eq", "kind": "matrix", "status": "MATCH", "printed": "p", "derived": "d", "note": "n"},
        "FixtureResult(label='eq', kind='matrix', status='MATCH', printed='p', derived='d', note='n')",
    ),
    (
        AuditSummary,
        {"total": 2, "match_count": 1, "mismatched": ("eq",)},
        "AuditSummary(total=2, match_count=1, mismatched=('eq',))",
    ),
    (
        SpinBasis,
        {"axis": Axis.Z, "up": UP, "down": DOWN},
        f"SpinBasis(axis=<Axis.Z: 'z'>, up={UP_REPR}, down={DOWN_REPR})",
    ),
    (
        ValuationRecord,
        {"label": "A.z.up", "proposition": A_Z_UP, "value": TruthValueSet.TRUE_ONLY},
        f"ValuationRecord(label='A.z.up', proposition={A_Z_UP_REPR}, value=<TruthValueSet.TRUE_ONLY: 'true'>)",
    ),
    (
        ScenarioReport,
        {
            "verify_axis": Axis.Z,
            "verified_atom": A_Z_UP,
            "query": (A_Z_UP,),
            "prepared_state": UP,
            "post_state": UP,
            "pre_valuations": (),
            "post_valuations": (),
            "classical_population": POPULATION,
            "super_population": POPULATION,
            "fixture_summary": AuditSummary(0, 0, ()),
        },
        (
            f"ScenarioReport(verify_axis=<Axis.Z: 'z'>, verified_atom={A_Z_UP_REPR}, "
            f"query=({A_Z_UP_REPR},), prepared_state={UP_REPR}, post_state={UP_REPR}, "
            "pre_valuations=(), post_valuations=(), "
            "classical_population=Population(labels=('A.z.up',), tuples=((1,),)), "
            "super_population=Population(labels=('A.z.up',), tuples=((1,),)), "
            "fixture_summary=AuditSummary(total=0, match_count=0, mismatched=()))"
        ),
    ),
]
IDS = [cls.__name__ for cls, _, _ in CASES]
REPORT_FIELDS = CASES[-1][1]


@pytest.fixture(params=CASES, ids=IDS)
def case(request):
    return request.param


def _build(cls, fields):
    return cls._of(*fields.values()) if cls is ScenarioReport else cls(**fields)


def test_every_class_is_pinned():
    assert len(set(IDS)) == len(IDS) == 13


def test_built_by_position_or_keyword_with_fields_in_order(case):
    cls, fields, _ = case
    built = [cls._of(*fields.values())] if cls is ScenarioReport else [cls(**fields), cls(*fields.values())]
    for x in built:
        assert type(x) is cls
        assert tuple(getattr(x, name) for name in fields) == tuple(fields.values())
        assert list(vars(x)) == list(fields)


def test_equal_and_hashed_by_the_field_tuple(case):
    cls, fields, _ = case
    x, y = _build(cls, fields), _build(cls, fields)
    values = tuple(fields.values())
    assert x == y and not (x != y) and x is not y
    assert hash(x) == hash(y) == hash(values)
    assert x != values and x.__eq__(values) is NotImplemented


def test_repr_names_every_field(case):
    cls, fields, expected = case
    assert repr(_build(cls, fields)) == expected


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_survives_copy_and_pickle(case, clone):
    cls, fields, expected = case
    x = _build(cls, fields)
    y = clone(x)
    assert type(y) is cls and y == x and x == y
    assert hash(y) == hash(x) and repr(y) == expected


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_class_but_gaussian_rational_and_atom_inherits_the_one_rule():
    classes = set(_subclasses(Frozen))
    assert {cls for cls, _, _ in CASES} | {GaussianRational} <= classes
    for cls in classes - {GaussianRational, Atom}:
        assert cls.__eq__ is Frozen.__eq__ and cls.__hash__ is Frozen.__hash__, cls


def test_every_class_but_projector_checks_its_arguments_in_init():
    assert {cls for cls in _subclasses(Frozen) if "__post_init__" in vars(cls)} == {Projector}


@pytest.mark.parametrize(
    "from_list, from_tuple",
    [
        (Matrix(1, 2, [ONE, ZERO]), Matrix(1, 2, (ONE, ZERO))),
        (Subspace(2, [UP]), Subspace(2, (UP,))),
        (Population(["A.z.up"], [(1,)]), Population(("A.z.up",), ((1,),))),
        (Population(("A.z.up",), [[1], [0]]), Population(("A.z.up",), ((1,), (0,)))),
        (AuditSummary(1, 0, ["eq"]), AuditSummary(1, 0, ("eq",))),
    ],
    ids=["Matrix", "Subspace", "Population", "Population-rows", "AuditSummary"],
)
def test_a_list_of_entries_or_basis_vectors_is_stored_as_a_tuple(from_list, from_tuple):
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple)


@pytest.mark.parametrize("name", ["field", "other"])
def test_no_attribute_can_be_assigned_or_deleted(case, name):
    cls, fields, _ = case
    x = _build(cls, fields)
    attr = next(iter(fields)) if name == "field" else "other"
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{attr}'$"):
        setattr(x, attr, None)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{attr}'$"):
        delattr(x, attr)
    assert x == _build(cls, fields) and not hasattr(x, "other")


def test_a_wrong_argument_count_is_a_type_error(case):
    cls, fields, _ = case
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(**fields, other=None)


def test_a_scenario_report_is_built_by_run_epr_alone():
    with pytest.raises(TypeError, match="built by run_epr alone"):
        ScenarioReport()
    report = run_epr(Axis.Z, [A_Z_UP])
    assert type(report) is ScenarioReport and report.verified_atom == A_Z_UP


def test_defaults():
    assert FixtureResult("eq", "matrix", "MATCH", "p", "d").note == ""
    assert Subspace(3).basis == () and Subspace(3) == Subspace(3, ())


def test_connectives_with_the_same_operands_differ():
    assert And(A_Z_UP, B_Z_DOWN) != Xor(A_Z_UP, B_Z_DOWN)
    assert Xor(A_Z_UP, B_Z_DOWN) != And(A_Z_UP, B_Z_DOWN)
    assert len({And(A_Z_UP, B_Z_DOWN), Xor(A_Z_UP, B_Z_DOWN)}) == 2


def test_a_report_without_valuation_rows_renders():
    lines = render_report(ScenarioReport._of(*REPORT_FIELDS.values())).splitlines()
    start = lines.index("valuations before verification (prepared state)")
    assert lines[start : start + 5] == [
        "valuations before verification (prepared state)",
        "",
        "valuations after verification (post state)",
        "",
        "populations for query (A.z.up)",
    ]
    assert lines[start + 5 : start + 7] == ["  classical         {(1)}", "  supervaluational  {(1)}"]


def test_fixture_result_dict_lists_its_fields_in_order():
    result = FixtureResult("eq", "matrix", "MATCH", "p", "d")
    assert list(result.to_dict().items()) == [
        ("label", "eq"),
        ("kind", "matrix"),
        ("status", "MATCH"),
        ("printed", "p"),
        ("derived", "d"),
        ("note", ""),
    ]


def _rebuilt(x):
    """The same value built from outside, through each class's ``__init__`` all the way down."""
    if isinstance(x, StateVector):
        return StateVector(x.entries)
    if isinstance(x, Subspace):
        return Subspace(x.ambient_dim, [_rebuilt(v) for v in x.basis])
    return Projector(Matrix(x.matrix.rows, x.matrix.cols, x.matrix.entries))


def _derived():
    i = GaussianRational(0, 1)
    up_down = Projector.product(atom_projector(A_Z_UP), atom_projector(B_Z_DOWN))
    down_up = Projector.product(
        atom_projector(Atom(Particle.A, Axis.Z, Direction.DOWN)), atom_projector(Atom(Particle.B, Axis.Z, Direction.UP))
    )
    plane = Subspace.from_vectors(4, [StateVector((ONE, i, ZERO, ONE)), StateVector((ZERO, ONE, ONE, ZERO))])
    line = Subspace.from_vectors(4, [StateVector((ONE, i + 1, ONE, ONE))])
    return {
        "row_space": Subspace.row_space(Matrix.from_rows([[1, i, 0, 2], [0, 0, 0, 0], [2, 2 * i, 1, 1]])),
        "meet": plane.meet(line.join(Subspace.from_vectors(4, [StateVector((ZERO, ONE, ONE, ZERO))]))),
        "Projector.product": up_down,
        "Projector.sum": Projector.sum(up_down, down_up),
        "verify": verify(singlet(Axis.Z), A_Z_UP),
        "StateVector.scale": UP.scale(GaussianRational(2, -3)),
        "state_tensor": state_tensor(StateVector((ONE, i)), StateVector((ZERO, GaussianRational(1, -1)))),
    }


@pytest.mark.parametrize("name", list(_derived()))
def test_a_derived_value_is_the_value_built_through_init(name):
    x = _derived()[name]
    y = _rebuilt(x)
    assert list(vars(x)) == list(x._fields)
    for z in (x, copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(z) is type(y)
        assert z == y and y == z and hash(z) == hash(y) and repr(z) == repr(y)
