"""Exact quantum-logic valuations with truth-value gaps.

An engine for supervaluationist semantics over the lattice of projector
ranges, built on exact Gaussian-rational linear algebra, together with the
two spin-half particle scenario that contrasts it against classical
bivalent semantics.
"""

from .errors import (
    ImpossibleOutcomeError,
    IncompleteAssignmentError,
    InvalidStateError,
    InvalidValueError,
    ParseError,
    QgapError,
    ShapeError,
    UnsupportedConnectiveError,
)
from .fixtures import AuditSummary, FixtureResult
from .lattice import Subspace, parse_span
from .linalg import Matrix, StateVector, state_tensor, tensor_product
from .projectors import (
    Projector,
    projector_join,
    projector_meet,
    projector_onto,
    range_of,
)
from .propositions import (
    And,
    Atom,
    Axis,
    Direction,
    Particle,
    Population,
    Proposition,
    TruthValueSet,
    Xor,
    atoms_of,
    classical_solutions,
    classical_valuate,
    classical_value_sets,
    compile_proposition,
    parse_atom,
    parse_proposition,
    population,
    valuate,
)
from .scalars import GaussianRational, parse_scalar
from .scenario import (
    ScenarioReport,
    SpinBasis,
    atom_projector,
    audit,
    audit_summary,
    different_spins,
    eigencheck,
    pair_observable,
    pauli,
    run_epr,
    same_spins,
    singlet,
    spin_basis,
    standard_context,
    verify,
)

__version__ = "0.1.0"
