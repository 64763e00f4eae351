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
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence, Union

from .errors import (
    IncompleteAssignmentError,
    ParseError,
    ShapeError,
    UnsupportedConnectiveError,
)
from .linalg import StateVector
from .projectors import Projector


class Particle(str, Enum):
    A = "A"
    B = "B"


class Axis(str, Enum):
    X = "x"
    Y = "y"
    Z = "z"


class Direction(str, Enum):
    UP = "up"
    DOWN = "down"


@dataclass(frozen=True)
class Atom:
    """One particle's spin pointing up or down along one axis."""

    particle: Particle
    axis: Axis
    direction: Direction

    def opposite(self) -> "Atom":
        flipped = Direction.DOWN if self.direction is Direction.UP else Direction.UP
        return Atom(self.particle, self.axis, flipped)

    def sort_key(self) -> tuple[str, str, str]:
        return (self.particle.value, self.axis.value, self.direction.value)

    def __str__(self) -> str:
        return f"{self.particle.value}.{self.axis.value}.{self.direction.value}"


@dataclass(frozen=True)
class And:
    left: "Proposition"
    right: "Proposition"

    def __str__(self) -> str:
        return f"{_wrap_for_and(self.left)} & {_wrap_for_and(self.right)}"


@dataclass(frozen=True)
class Xor:
    left: "Proposition"
    right: "Proposition"

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
        return {
            TruthValueSet.TRUE_ONLY: (1,),
            TruthValueSet.FALSE_ONLY: (0,),
            TruthValueSet.INDETERMINATE: (1, 0),
            TruthValueSet.GAP: (),
        }[self]

    @classmethod
    def from_values(cls, values: Sequence[int]) -> "TruthValueSet":
        s = frozenset(values)
        if s == frozenset({1}):
            return cls.TRUE_ONLY
        if s == frozenset({0}):
            return cls.FALSE_ONLY
        if s == frozenset({0, 1}):
            return cls.INDETERMINATE
        if not s:
            return cls.GAP
        raise ValueError(f"not a subset of {{0,1}}: {values!r}")

    def __str__(self) -> str:
        return self.value


def compile_proposition(p: Proposition, context: Mapping[Atom, Projector]) -> Projector:
    """Map a proposition to its projector.

    Conjunction is only defined for commuting operands and exclusive-or
    only for orthogonal ones; outside those domains the connective is not
    the one this language means, so compilation refuses. Inside them the
    lattice operations have closed forms, computed from the product PQ of
    the two operand matrices:

    * P and Q commute exactly when PQ is Hermitian, since (PQ)* = QP; then
      their meet is PQ.
    * P and Q are orthogonal exactly when PQ = 0; then their join is P + Q.
    """
    if isinstance(p, Atom):
        try:
            return context[p]
        except KeyError:
            raise IncompleteAssignmentError(f"no projector for atom {p}") from None
    left = compile_proposition(p.left, context)
    right = compile_proposition(p.right, context)
    product = left.matrix @ right.matrix
    if isinstance(p, And):
        if not product.is_hermitian():
            raise UnsupportedConnectiveError(
                f"conjunction of non-commuting propositions: {p.left} & {p.right}"
            )
        return Projector(product)
    if not product.is_zero():
        raise UnsupportedConnectiveError(
            f"exclusive-or of non-orthogonal propositions: {p.left} ^ {p.right}"
        )
    return Projector(left.matrix + right.matrix)


def valuate(state: StateVector, p: Projector) -> TruthValueSet:
    """Supervaluational truth value of the projector's proposition in a state.

    True exactly when the state lies in the range (P state == state), false
    exactly when it lies in the kernel (P state == 0), and a gap otherwise.
    Indeterminate never arises here. Scale-invariant in the state.
    """
    if state.dim != p.dim:
        raise ShapeError(f"state of dim {state.dim} against projector of dim {p.dim}")
    image = p.matrix.apply(state)
    if all(e.is_zero for e in image):
        return TruthValueSet.FALSE_ONLY
    if image == state.entries:
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


@dataclass(frozen=True)
class Population:
    """The statistical population of a tuple of propositions.

    The cross product of the admissible value sets of the components,
    kept in deterministic order (per component 1 before 0). A single
    gapped component makes the whole population empty.
    """

    labels: tuple[str, ...]
    tuples: tuple[tuple[int, ...], ...]

    @property
    def is_empty(self) -> bool:
        return not self.tuples

    def __str__(self) -> str:
        return "{" + ", ".join("(" + ",".join(map(str, t)) + ")" for t in self.tuples) + "}"


def population(components: Sequence[TruthValueSet], labels: Sequence[str]) -> Population:
    if len(components) != len(labels):
        raise ShapeError(f"{len(components)} components but {len(labels)} labels")
    tuples = tuple(itertools.product(*(c.admissible_values for c in components)))
    return Population(tuple(labels), tuples)


_ATOM_RE = re.compile(r"[AB]\.[xyz]\.(?:up|down)")
_TOKEN_RE = re.compile(r"\s*(?:(?P<atom>[AB]\.[xyz]\.(?:up|down))|(?P<op>[&^()]))")


def parse_atom(text: str) -> Atom:
    s = text.strip()
    if not _ATOM_RE.fullmatch(s):
        raise ParseError(f"not an atom (expected e.g. A.z.up): {text!r}")
    particle, axis, direction = s.split(".")
    return Atom(Particle(particle), Axis(axis), Direction(direction))


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ParseError(f"unexpected input at {text[pos:].strip()!r}")
            break
        tokens.append(m.group("atom") or m.group("op"))
        pos = m.end()
    return tokens


def parse_proposition(text: str) -> Proposition:
    """Parse the CLI grammar: atoms ``A.z.up``, ``&``, ``^``, parentheses.

    ``&`` binds tighter than ``^``; both associate to the left.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty proposition")
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
