"""Spin propositions and their two competing semantics.

The language is deliberately tiny: atoms assert "particle P has spin
up/down along axis j", and compounds are built with conjunction (``&``)
and exclusive-or (``^``) only. A proposition can be evaluated two ways:

* supervaluational: compile it to a projector and ask where the state
  sits. Inside the range the proposition is true, inside the kernel it is
  false, anywhere else it has no truth value at all (a gap). There is no
  "unknown" here; the gap is the semantics.
* classical: assume every atom secretly carries a definite 0/1 value and
  evaluate truth-functionally. Unverified atoms then contribute the
  indeterminate set {0,1}.

Statistical populations are cross products of the per-component admissible
value sets, so a single gapped component empties the whole population
while an indeterminate one doubles it.

Atoms, connectives and populations are immutable values (``scalars.Frozen``)
compared and hashed by their field tuples, so a proposition can key a dict;
an ``And`` never equals an ``Xor`` of the same operands. ``Atom`` writes the
rule out for its three fields, since atoms key the dicts of every run.
"""

from __future__ import annotations

import itertools
import re
import string
from enum import Enum
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    IncompleteAssignmentError,
    InvalidValueError,
    ParseError,
    ShapeError,
    UnsupportedConnectiveError,
)
from .linalg import StateVector, _kills_or_fixes
from .projectors import Projector
from .scalars import Frozen


class _Choice(str, Enum):
    """A closed set of names: a plain string equal to a member's value means that member."""

    @classmethod
    def _missing_(cls, value: object) -> None:
        raise InvalidValueError(f"{value!r} is not a valid {cls.__name__}")


class Particle(_Choice):
    A = "A"
    B = "B"


class Axis(_Choice):
    X = "x"
    Y = "y"
    Z = "z"


class Direction(_Choice):
    UP = "up"
    DOWN = "down"


class Atom(Frozen):
    """One particle's spin pointing up or down along one axis; plain strings become members."""

    _fields = ("particle", "axis", "direction")

    def __init__(self, particle: Particle, axis: Axis, direction: Direction) -> None:
        # One combined test: members pass it without a lookup. It took 0.98-1.24 us per atom against 1.88-3.13 us
        # when every argument is converted (min of 9 passes, three processes, 2-vCPU VM, Python 3.11.7); a warm
        # run_epr builds 9 atoms.
        if type(particle) is not Particle or type(axis) is not Axis or type(direction) is not Direction:
            particle, axis, direction = Particle(particle), Axis(axis), Direction(direction)
        object.__setattr__(self, "particle", particle)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "direction", direction)

    # Not Frozen's rule: atoms key the dicts of every run_epr. With the generic pair a warm epr_mix op took
    # ~40% longer: 175-186 against 238-259 us on the first 300 EprMix(7) inputs, in process, min of 5 passes,
    # three alternating processes per side (2-vCPU VM, Python 3.11.7).
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.particle, self.axis, self.direction) == (other.particle, other.axis, other.direction)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.particle, self.axis, self.direction))

    def __str__(self) -> str:
        return f"{self.particle.value}.{self.axis.value}.{self.direction.value}"


# The twelve atoms of the pair space, in particle, axis, direction order.
ATOMS = tuple(Atom(p, ax, d) for p in Particle for ax in Axis for d in Direction)
_ATOM_BY_TEXT = {str(a): a for a in ATOMS}


class _Connective(Frozen):
    """A binary compound; equal only to a compound of its own class with equal operands."""

    _fields = ("left", "right")

    def __init__(self, left: "Proposition", right: "Proposition") -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class And(_Connective):
    def __str__(self) -> str:
        return f"{_wrap_for_and(self.left)} & {_wrap_for_and(self.right)}"


class Xor(_Connective):
    def __str__(self) -> str:
        return f"{self.left} ^ {self.right}"


Proposition = Union[Atom, And, Xor]


def _wrap_for_and(p: Proposition) -> str:
    # & binds tighter than ^, so an Xor child needs parentheses.
    return f"({p})" if isinstance(p, Xor) else str(p)


def atoms_of(p: Proposition) -> tuple[Atom, ...]:
    """The distinct atoms of a proposition, in first-appearance order."""
    seen: dict[Atom, None] = {}

    def walk(node: Proposition) -> None:
        if isinstance(node, Atom):
            seen.setdefault(node, None)
        else:
            walk(node.left)
            walk(node.right)

    walk(p)
    return tuple(seen)


class TruthValueSet(Enum):
    """The admissible truth values of a proposition in a circumstance.

    Four subsets of {0, 1} occur: definite truth {1}, definite falsehood
    {0}, the classical pre-verification unknown {0,1}, and the empty set,
    the truth-value gap. The gap and the indeterminate set are different
    things: one offers no admissible value, the other offers both.
    """

    TRUE_ONLY = "true"
    FALSE_ONLY = "false"
    INDETERMINATE = "indeterminate"
    GAP = "gap"

    @property
    def admissible_values(self) -> tuple[int, ...]:
        """Member values in descending order (1 before 0), empty for the gap."""
        return _ADMISSIBLE[self]

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "TruthValueSet":
        try:
            return _BY_VALUES[frozenset(values)]
        except KeyError:
            raise InvalidValueError(f"not a subset of {{0,1}}: {values!r}") from None

    def __str__(self) -> str:
        return self.value


_ADMISSIBLE = {
    TruthValueSet.TRUE_ONLY: (1,),
    TruthValueSet.FALSE_ONLY: (0,),
    TruthValueSet.INDETERMINATE: (1, 0),
    TruthValueSet.GAP: (),
}
_BY_VALUES = {frozenset(values): t for t, values in _ADMISSIBLE.items()}


def compile_proposition(p: Proposition, context: Mapping[Atom, Projector]) -> Projector:
    """Map a proposition to its projector.

    Conjunction is only defined for commuting operands and exclusive-or
    only for orthogonal ones; outside those domains the connective is not
    the one this language means, so compilation refuses. Each domain is
    exactly where the connective's closed form is a projector, so the
    constructor that builds that form checks the domain:

    * PQ is a projector exactly when P and Q commute, since (PQ)* = QP;
      it is then their meet. ``Projector.product`` decides this by the
      Hermitian test alone, since a Hermitian PQ is already idempotent.
    * P + Q is a projector exactly when PQ = 0, that is when P and Q are
      orthogonal; it is then their join. ``Projector.sum`` decides this by
      tr(PQ) = 0 without forming PQ, since tr(PQ) is the squared norm of PQ.
      The trace is summed on the entries' integer triples, so the test runs
      no ``GaussianRational`` arithmetic; only P + Q is built.

    Neither runs the generic ``Projector`` check.
    """
    if isinstance(p, Atom):
        try:
            return context[p]
        except KeyError:
            raise IncompleteAssignmentError(f"no projector for atom {p}") from None
    left = compile_proposition(p.left, context)
    right = compile_proposition(p.right, context)
    try:
        if isinstance(p, And):
            return Projector.product(left, right)
        return Projector.sum(left, right)
    except InvalidValueError:
        if isinstance(p, And):
            refusal = "conjunction of non-commuting propositions: {} & {}"
        else:
            refusal = "exclusive-or of non-orthogonal propositions: {} ^ {}"
        raise UnsupportedConnectiveError(refusal.format(p.left, p.right)) from None


def valuate(state: StateVector, p: Projector) -> TruthValueSet:
    """Supervaluational truth value of the projector's proposition in a state.

    True exactly when the state lies in the range (P state == state), false
    exactly when it lies in the kernel (P state == 0), and a gap otherwise.
    Indeterminate never arises here. Scale-invariant in the state. Both
    tests are decided by ``linalg._kills_or_fixes`` on integer views of the
    projector and the state; no image is built.
    """
    if state.dim != p.dim:
        raise ShapeError(f"state of dim {state.dim} against projector of dim {p.dim}")
    kills, fixes = _kills_or_fixes(p.matrix, state)
    if kills:
        return TruthValueSet.FALSE_ONLY
    if fixes:
        return TruthValueSet.TRUE_ONLY
    return TruthValueSet.GAP


def classical_valuate(p: Proposition, assignment: Mapping[Atom, int]) -> int:
    """Bivalent truth-functional evaluation over {0,1}."""
    if isinstance(p, Atom):
        try:
            return assignment[p]
        except KeyError:
            raise IncompleteAssignmentError(f"assignment does not cover atom {p}") from None
    x = classical_valuate(p.left, assignment)
    y = classical_valuate(p.right, assignment)
    return x * y if isinstance(p, And) else x + y - 2 * x * y


def classical_solutions(
    constraints: Sequence[tuple[Proposition, int]],
    atoms: Sequence[Atom],
) -> list[dict[Atom, int]]:
    """All bivalent assignments satisfying the constraints, by exhaustive enumeration.

    A spin-half particle points one way or the other along an axis, never
    both and never neither, so each (particle, axis) pair named by the atom
    list carries one bit: its down atom takes the bit, its up atom the
    complement. Bits run in ascending binary order over the sorted pairs,
    and each assignment lists its atoms sorted (down before up), so results
    are stable across runs.
    """
    covered = {(a.particle, a.axis) for a in atoms}
    for prop, _ in constraints:
        missing = [a for a in atoms_of(prop) if (a.particle, a.axis) not in covered]
        if missing:
            raise IncompleteAssignmentError(
                f"constraint atoms not covered by the atom list: {', '.join(map(str, missing))}"
            )
    slots = [(Atom(p, ax, Direction.DOWN), Atom(p, ax, Direction.UP)) for p, ax in sorted(covered)]
    solutions = []
    for bits in itertools.product((0, 1), repeat=len(slots)):
        assignment: dict[Atom, int] = {}
        for (down, up), bit in zip(slots, bits):
            assignment[down] = bit
            assignment[up] = 1 - bit
        if all(classical_valuate(prop, assignment) == target for prop, target in constraints):
            solutions.append(assignment)
    return solutions


def classical_value_sets(
    constraints: Sequence[tuple[Proposition, int]],
    query: Sequence[Atom],
) -> list[TruthValueSet]:
    """Admissible value set of each query atom over all bivalent solutions.

    The same sets as projecting ``classical_solutions`` over the pairs of
    the query and of the constraints, but only the pairs the constraints
    name are enumerated. A free pair, one no constraint mentions, extends
    every solution both ways, so it factors out: its atoms are
    indeterminate when a solution exists and gapped when none does.
    """
    constrained = tuple(dict.fromkeys(a for prop, _ in constraints for a in atoms_of(prop)))
    solutions = classical_solutions(constraints, constrained)
    pairs = {(a.particle, a.axis) for a in constrained}
    free = TruthValueSet.INDETERMINATE if solutions else TruthValueSet.GAP
    return [
        TruthValueSet.from_values({sol[a] for sol in solutions})
        if (a.particle, a.axis) in pairs
        else free
        for a in query
    ]


class Population(Frozen):
    """The statistical population of a tuple of propositions.

    The cross product of the admissible value sets of the components,
    kept in deterministic order (per component 1 before 0). A single
    gapped component makes the whole population empty. Each tuple holds
    one value, the int 0 or 1, per label; ``InvalidValueError`` otherwise.
    """

    _fields = ("labels", "tuples")

    def __init__(self, labels: Iterable[str], tuples: Iterable[Iterable[int]]) -> None:
        labels, tuples = tuple(labels), tuple(map(tuple, tuples))
        for t in tuples:
            if len(t) != len(labels) or not all(type(x) is int and x in (0, 1) for x in t):
                raise InvalidValueError(f"population tuple {t!r} is not one 0 or 1 per label of {labels!r}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "tuples", tuples)

    @property
    def is_empty(self) -> bool:
        return not self.tuples

    def __str__(self) -> str:
        return "{" + ", ".join("(" + ",".join(map(str, t)) + ")" for t in self.tuples) + "}"


def population(components: Sequence[TruthValueSet], labels: Sequence[str]) -> Population:
    if len(components) != len(labels):
        raise ShapeError(f"{len(components)} components but {len(labels)} labels")
    return Population._of(tuple(labels), tuple(itertools.product(*(c.admissible_values for c in components))))


# Every match is \s* then a token or a non-space, so finditer runs contiguously and can
# skip only trailing ASCII whitespace; ``rest`` is the text from the first non-token.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<atom>[AB]\.[xyz]\.(?:up|down))|(?P<op>[&^()])|(?P<rest>\S.*))", re.ASCII | re.DOTALL
)
# Parsing, printing and compiling all recurse once per level of nesting, so
# the connectives and parentheses of one proposition are capped well below
# the interpreter's recursion limit.
MAX_OPERATORS = 100


def parse_atom(text: str) -> Atom:
    """Parse one atom such as ``A.z.up``; only surrounding ASCII whitespace is stripped."""
    try:
        return _ATOM_BY_TEXT[text.strip(string.whitespace)]
    except KeyError:
        raise ParseError(f"not an atom (expected e.g. A.z.up): {text!r}") from None


def _tokenize(text: str) -> list[str]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m["rest"]:
            raise ParseError(f"unexpected input at {m['rest'].strip(string.whitespace)!r}")
        tokens.append(m["atom"] or m["op"])
    return tokens


def parse_proposition(text: str) -> Proposition:
    """Parse the CLI grammar: atoms ``A.z.up``, ``&``, ``^``, parentheses.

    ``&`` binds tighter than ``^``; both associate to the left. At most
    ``MAX_OPERATORS`` connectives and parentheses are accepted.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty proposition")
    operators = sum(tok in ("&", "^", "(", ")") for tok in tokens)
    if operators > MAX_OPERATORS:
        raise ParseError(
            f"proposition has {operators} connectives and parentheses, more than {MAX_OPERATORS}"
        )
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> str:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_xor() -> Proposition:
        node = parse_and()
        while peek() == "^":
            take()
            node = Xor(node, parse_and())
        return node

    def parse_and() -> Proposition:
        node = parse_primary()
        while peek() == "&":
            take()
            node = And(node, parse_primary())
        return node

    def parse_primary() -> Proposition:
        tok = peek()
        if tok == "(":
            take()
            node = parse_xor()
            if peek() != ")":
                raise ParseError("unbalanced parenthesis")
            take()
            return node
        if tok is None or tok in "&^)":
            raise ParseError(f"expected an atom, got {tok!r}")
        return parse_atom(take())

    result = parse_xor()
    if pos != len(tokens):
        raise ParseError(f"trailing input after proposition: {tokens[pos:]}")
    return result
