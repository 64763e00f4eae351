"""The two spin-half particle setup: states, observables, verification.

This module wires the abstract machinery to the concrete four-dimensional
pair space. The Pauli matrix is the one hand-written constant per axis:
each atom's projector is its eigenprojector (I +- sigma)/2 on one factor,
each spin eigenvector is the canonical basis vector of that projector's
range, an unnormalized representative whose phase matters only for
golden-output determinism, never for any predicate; the singlet is built
directly from them, and a verification is an unnormalized projection of
the state, which reproduces the separable post-state without ever
introducing irrational normalizers. An axis's spin basis, prepared
singlet and post-state of verifying spin A up are built together once per
process, in one cache keyed by ``Axis`` member, so ``"z"`` and ``Axis.Z``
share one entry; the shared states keep their integer forms, so later
valuations scale nothing. ``verify`` itself stays general and uncached.
Every value derived from the pair space is built here only: the fixture
audit compares the transcribed displays with a table of them, whose
projectors it reads off the run table's rows. A spin basis, a valuation
row and a run's report are immutable values (``scalars.Frozen``), equal
when their field tuples are.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import ImpossibleOutcomeError, InvalidValueError, ShapeError
from .fixtures import AuditSummary, FixtureResult, check_fixtures
from .lattice import Subspace
from .linalg import Matrix, StateVector, state_tensor, tensor_product
from .projectors import Projector, range_of
from .propositions import (
    ATOMS,
    And,
    Atom,
    Axis,
    Direction,
    Particle,
    Population,
    Proposition,
    TruthValueSet,
    Xor,
    classical_value_sets,
    compile_proposition,
    population,
    valuate,
)
from .scalars import I_UNIT, ONE, Frozen, Scalarish


def pauli(axis: Axis) -> Matrix:
    """The 2x2 spin observable along an axis, entries in {0, +-1, +-i}."""
    axis = Axis(axis)
    if axis is Axis.X:
        return Matrix.from_rows([[0, 1], [1, 0]])
    if axis is Axis.Y:
        return Matrix.from_rows([[0, -I_UNIT], [I_UNIT, 0]])
    return Matrix.from_rows([[1, 0], [0, -1]])


def pair_observable(axis: Axis) -> Matrix:
    """The two-particle observable: the axis observable on each factor."""
    return tensor_product(pauli(axis), pauli(axis))


class SpinBasis(Frozen):
    """Unnormalized +1/-1 eigenvectors of the axis observable.

    A basis given from outside is eigenchecked on construction; the
    library's own, read off the eigenprojectors by ``_axis_states``, is
    stored without a second check.
    """

    _fields = ("axis", "up", "down")

    def __init__(self, axis: Axis, up: StateVector, down: StateVector) -> None:
        axis = Axis(axis)
        sigma = pauli(axis)
        if not eigencheck(sigma, up, 1):
            raise InvalidValueError(f"up vector is not a +1 eigenvector along {axis.value}")
        if not eigencheck(sigma, down, -1):
            raise InvalidValueError(f"down vector is not a -1 eigenvector along {axis.value}")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "down", down)


_HALF = ONE / 2


def _eigenprojector(axis: Axis, direction: Direction) -> Matrix:
    """(I + sigma)/2 for up and (I - sigma)/2 for down: the 2x2 projector onto one spin direction."""
    sigma = pauli(axis)
    return (Matrix.identity(2) + (sigma if direction is Direction.UP else sigma.scale(-1))).scale(_HALF)


@lru_cache(maxsize=None)
def _axis_states(axis: Axis) -> tuple[SpinBasis, StateVector, StateVector]:
    """The axis's spin basis, prepared singlet and post-state of verifying spin A up, built once per member.

    Each eigenvector is the canonical basis vector of its eigenprojector's
    range; the singlet is up x down - down x up.
    """
    up, down = (Subspace.column_space(_eigenprojector(axis, d)).basis[0] for d in Direction)
    a, b = state_tensor(up, down), state_tensor(down, up)
    prepared = StateVector._of(tuple(x - y for x, y in zip(a.entries, b.entries)))
    post = verify(prepared, Atom(Particle.A, axis, Direction.UP))
    return SpinBasis._of(axis, up, down), prepared, post


def spin_basis(axis: Axis) -> SpinBasis:
    return _axis_states(Axis(axis))[0]


def singlet(axis: Axis) -> StateVector:
    """The total-spin-zero pair state, up x down - down x up along the axis.

    Whatever the axis, the result is a nonzero scalar multiple of
    [0, 1, -1, 0]: the singlet is one ray.
    """
    return _axis_states(Axis(axis))[1]


@lru_cache(maxsize=None)
def atom_projector(atom: Atom) -> Projector:
    """The pair-space projector asserting one particle's spin direction.

    The single-particle eigenprojector (I +- sigma)/2 is tensored with the
    identity on the other factor, giving a rank-2 projector on the
    four-dimensional pair space.
    """
    p = _eigenprojector(atom.axis, atom.direction)
    eye = Matrix.identity(2)
    if atom.particle is Particle.A:
        return Projector(tensor_product(p, eye))
    return Projector(tensor_product(eye, p))


@lru_cache(maxsize=None)
def standard_context() -> Mapping[Atom, Projector]:
    """Projectors for the twelve ``ATOMS``, as one shared read-only mapping.

    Compiling against it memoizes nothing; constant propositions are compiled
    once because the run table is built once and the fixture audit reads its rows.
    """
    return MappingProxyType({a: atom_projector(a) for a in ATOMS})


def conjunction(axis: Axis, a_dir: Direction, b_dir: Direction) -> Proposition:
    return And(Atom(Particle.A, axis, a_dir), Atom(Particle.B, axis, b_dir))


def different_spins(axis: Axis) -> Proposition:
    """The two particles point opposite ways along the axis (exclusive-or of the two ways)."""
    return Xor(
        conjunction(axis, Direction.UP, Direction.DOWN),
        conjunction(axis, Direction.DOWN, Direction.UP),
    )


def same_spins(axis: Axis) -> Proposition:
    """The two particles point the same way along the axis."""
    return Xor(
        conjunction(axis, Direction.UP, Direction.UP),
        conjunction(axis, Direction.DOWN, Direction.DOWN),
    )


def eigencheck(observable: Matrix, candidate: StateVector, eigenvalue: Scalarish) -> bool:
    """Exact check that observable @ candidate == eigenvalue * candidate."""
    if not observable.is_square:
        raise ShapeError("eigencheck needs a square observable")
    # apply refuses a vector of the wrong dimension before the eigenvalue is read.
    return observable.apply(candidate) == tuple(e * eigenvalue for e in candidate.entries)


def verify(state: StateVector, atom: Atom) -> StateVector:
    """Verification as an unnormalized projection of the state.

    The post-state is the image of the state under the atom's projector; a
    zero image means the outcome contradicts the state, which is an error
    rather than a state.
    """
    image = atom_projector(atom).matrix.apply(state)
    if all(e.is_zero for e in image):
        raise ImpossibleOutcomeError(f"verifying {atom} is impossible in state {state}")
    return StateVector._of(image)


class ValuationRecord(Frozen):
    _fields = ("label", "proposition", "value")

    # Not Frozen._of, though only run_epr builds rows: per record __init__ took 0.60-0.63 us and _of 0.98-1.21 us,
    # and storing the 30 rows by _of made a warm run_epr ~10% slower, median 140.6 against 154.1 us (first 600
    # EprMix(7) inputs, min of 7 passes, six alternating processes on one CPU, 2-vCPU VM, Python 3.11.7).
    def __init__(self, label: str, proposition: Proposition, value: TruthValueSet) -> None:
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "proposition", proposition)
        object.__setattr__(self, "value", value)


class ScenarioReport(Frozen):
    """Everything one run produces, reproducible from the recorded states; only ``run_epr`` builds one, by ``_of``."""

    _fields = (
        "verify_axis", "verified_atom", "query", "prepared_state", "post_state",
        "pre_valuations", "post_valuations", "classical_population", "super_population",
        "fixture_summary",
    )

    def __init__(self) -> None:
        # Without it object.__init__ would accept no arguments and leave a report with no fields.
        raise TypeError("a ScenarioReport is built by run_epr alone")


_RUN_NOTE = (
    "Populations describe a single run. Verifying another axis happens in a "
    "fresh run on a fresh preparation; per-run populations are not aggregated."
)


_Entry = tuple[str, Proposition, Projector]

# A query's classical population doubles with every free atom, repeats
# included, so a query holds at most as many atoms as the pair space has.
MAX_QUERY_ATOMS = len(ATOMS)


def _with_projectors(entries: Sequence[tuple[str, Proposition]]) -> tuple[_Entry, ...]:
    context = standard_context()
    return tuple((label, prop, compile_proposition(prop, context)) for label, prop in entries)


@lru_cache(maxsize=None)
def _run_table() -> tuple[tuple[_Entry, ...], tuple[_Entry, ...]]:
    """The (label, proposition, projector) rows every run valuates, built on first use.

    Before verification: Diff, Same and the four conjunctions along each
    axis; after it: the twelve atoms. None depends on the run's inputs.
    """
    pre: list[tuple[str, Proposition]] = []
    for ax in Axis:
        pre.append((f"Diff({ax.value})", different_spins(ax)))
        pre.append((f"Same({ax.value})", same_spins(ax)))
        for a_dir, b_dir in (
            (Direction.UP, Direction.DOWN),
            (Direction.DOWN, Direction.UP),
            (Direction.UP, Direction.UP),
            (Direction.DOWN, Direction.DOWN),
        ):
            prop = conjunction(ax, a_dir, b_dir)
            pre.append((str(prop), prop))
    return _with_projectors(pre), _with_projectors([(str(a), a) for a in ATOMS])


def _derivations() -> dict[str, object]:
    compiled = {prop: projector for _, prop, projector in _run_table()[0]}
    table: dict[str, object] = {}
    for ax in Axis:
        j = ax.value
        up_down = compiled[conjunction(ax, Direction.UP, Direction.DOWN)]
        down_up = compiled[conjunction(ax, Direction.DOWN, Direction.UP)]
        diff = compiled[different_spins(ax)]
        table[f"sigma_{j}{j}"] = pair_observable(ax)
        table[f"proj_{j}_up_down"] = up_down.matrix
        table[f"proj_{j}_down_up"] = down_up.matrix
        table[f"diff_{j}_matrix"] = diff.matrix
        table[f"range_diff_{j}"] = range_of(diff)
        table[f"range_{j}_up_down"] = range_of(up_down)
        table[f"range_{j}_down_up"] = range_of(down_up)
        table[f"vector_{j}_up_down"] = state_tensor(spin_basis(ax).up, spin_basis(ax).down)
        table[f"vector_{j}_down_up"] = state_tensor(spin_basis(ax).down, spin_basis(ax).up)
        table[f"singlet_{j}"] = singlet(ax)
    return table


@lru_cache(maxsize=1)
def audit() -> tuple[FixtureResult, ...]:
    """Recompute every fixture and report MATCH or MISMATCH; never raises."""
    return check_fixtures(_derivations())


def audit_summary() -> AuditSummary:
    return AuditSummary.of(audit())


def _valuation_records(state: StateVector, entries: Sequence[_Entry]) -> tuple[ValuationRecord, ...]:
    return tuple(
        ValuationRecord(label, prop, valuate(state, projector)) for label, prop, projector in entries
    )


def run_epr(verify_axis: Axis, joint_query: Sequence[Atom]) -> ScenarioReport:
    """One full run: prepare the singlet, verify spin-up for particle A, report.

    The report contrasts the two semantics on the queried atoms: the
    supervaluational populations are read off the post-verification rows,
    the classical ones come from the bivalent assignments that satisfy the
    run's constraints. Only the verified axis's pairs are enumerated; every
    other queried pair is unconstrained and factors out as {0,1}. The 30
    constant valuation rows, with their projectors, are built once and
    shared by every run. The prepared singlet and the post-state are built
    once per axis, so a warm run prepares and verifies nothing; it still
    valuates each of the 30 rows once, on those shared states. A query of
    more than ``MAX_QUERY_ATOMS`` atoms, or of anything but ``Atom``s, raises
    ``InvalidValueError``.
    """
    verify_axis = Axis(verify_axis)
    query = tuple(joint_query)
    if len(query) > MAX_QUERY_ATOMS:
        raise InvalidValueError(f"query has {len(query)} atoms, more than {MAX_QUERY_ATOMS}")
    for element in query:
        if not isinstance(element, Atom):
            raise InvalidValueError(f"query element {element!r} is not an Atom")
    _, prepared, post = _axis_states(verify_axis)
    verified_atom = Atom(Particle.A, verify_axis, Direction.UP)
    pre_entries, post_entries = _run_table()
    post_valuations = _valuation_records(post, post_entries)
    after = {r.proposition: r.value for r in post_valuations}
    labels = [str(a) for a in query]
    # The singlet justifies these along the verified axis; they name only its two pairs.
    constraints = [(different_spins(verify_axis), 1), (verified_atom, 1)]

    return ScenarioReport._of(  # in _fields order
        verify_axis,
        verified_atom,
        query,
        prepared,
        post,
        _valuation_records(prepared, pre_entries),
        post_valuations,
        population(classical_value_sets(constraints, query), labels),
        population([after[a] for a in query], labels),
        audit_summary(),
    )


# Each semantics a report can show, with the names of its populations in display order.
SEMANTICS = {
    "super": ("supervaluational",),
    "classical": ("classical",),
    "both": ("classical", "supervaluational"),
}


def _populations(report: ScenarioReport, semantics: str) -> dict[str, Population]:
    if semantics not in SEMANTICS:
        raise InvalidValueError(f"unknown semantics {semantics!r}; expected one of {', '.join(SEMANTICS)}")
    every = {"classical": report.classical_population, "supervaluational": report.super_population}
    return {name: every[name] for name in SEMANTICS[semantics]}


def _population_dict(pop: Population) -> dict:
    return {"labels": list(pop.labels), "tuples": [list(t) for t in pop.tuples]}


def report_to_dict(report: ScenarioReport, semantics: str = "both") -> dict:
    """Plain JSON-ready dictionary; key order is fixed for byte-stable output."""
    populations = {name: _population_dict(pop) for name, pop in _populations(report, semantics).items()}
    return {
        "axis": report.verify_axis.value,
        "verified": str(report.verified_atom),
        "query": [str(a) for a in report.query],
        "state": {
            "prepared": [str(e) for e in report.prepared_state.entries],
            "post": [str(e) for e in report.post_state.entries],
        },
        "valuations": {
            "before": {r.label: r.value.value for r in report.pre_valuations},
            "after": {r.label: r.value.value for r in report.post_valuations},
        },
        "populations": populations,
        "fixtures": report.fixture_summary.to_dict(),
        "note": _RUN_NOTE,
    }


def render_report(report: ScenarioReport, semantics: str = "both") -> str:
    """Aligned plain-text view of a run."""
    lines = [
        f"EPR run: singlet pair, verified {report.verified_atom} along axis {report.verify_axis.value}",
        f"  prepared state:          {report.prepared_state}",
        f"  post-verification state: {report.post_state}",
        "",
        "valuations before verification (prepared state)",
    ]
    populations = _populations(report, semantics)
    labels = [r.label for r in report.pre_valuations + report.post_valuations] + list(populations)
    width = max(map(len, labels)) + 2
    for r in report.pre_valuations:
        lines.append(f"  {r.label.ljust(width)}{r.value}")
    lines.append("")
    lines.append("valuations after verification (post state)")
    for r in report.post_valuations:
        lines.append(f"  {r.label.ljust(width)}{r.value}")
    lines.append("")
    query_text = ", ".join(str(a) for a in report.query)
    lines.append(f"populations for query ({query_text})")
    for name, pop in populations.items():
        lines.append(f"  {name.ljust(width)}{pop}")
    summary = report.fixture_summary
    lines.append("")
    lines.append(
        f"fixture audit: {summary.match_count}/{summary.total} transcribed displays match"
        f" the derived values ({len(summary.mismatched)} known discrepancies)"
    )
    lines.append(f"note: {_RUN_NOTE}")
    return "\n".join(lines) + "\n"
