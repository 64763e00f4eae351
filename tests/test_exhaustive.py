"""Exhaustive differential guard for the compiler and the valuation.

Every proposition of up to two connectives over the twelve atoms (14124 of
them) is compiled with ``compile_proposition(·, standard_context())`` and
checked against ``SpinOracle`` from ``helpers``, which works in plain
Fraction pairs: either both refuse at the same node, or both give the same
projector. Each projector is then valuated in the singlet and in the six
states left by verifying particle A's spin up or down along each axis, and
the two valuations must agree. A rewrite of the scalar, elimination or
compile kernels has to pass this unchanged.
"""

import collections
from fractions import Fraction

import pytest

from helpers import OracleRefusal, SpinOracle
from qgap import (
    Atom,
    Axis,
    Direction,
    GaussianRational,
    Matrix,
    Particle,
    UnsupportedConnectiveError,
    compile_proposition,
    singlet,
    standard_context,
    valuate,
    verify,
)
from qgap.propositions import And, Xor

ATOMS = [Atom(p, ax, d) for p in Particle for ax in Axis for d in Direction]
SINGLET_PAIRS = tuple((Fraction(n), Fraction(0)) for n in (0, 1, -1, 0))


def short_propositions():
    """The atoms, then every one-connective and two-connective tree over them."""
    one = [op(a, b) for op in (And, Xor) for a in ATOMS for b in ATOMS]
    two = [op(p, c) for op in (And, Xor) for p in one for c in ATOMS]
    two += [op(a, p) for op in (And, Xor) for a in ATOMS for p in one]
    return ATOMS + one + two


def refusal_message(node) -> str:
    if isinstance(node, And):
        return f"conjunction of non-commuting propositions: {node.left} & {node.right}"
    return f"exclusive-or of non-orthogonal propositions: {node.left} ^ {node.right}"


def state_pairs(oracle: SpinOracle):
    """(qgap state, oracle vector) for the singlet and its six post-verification states."""
    pairs = [(singlet(Axis.Z), SINGLET_PAIRS)]
    for ax in Axis:
        for d in Direction:
            atom = Atom(Particle.A, ax, d)
            post = verify(singlet(ax), atom)
            pairs.append((post, oracle.apply(oracle.atom_projector(atom), SINGLET_PAIRS)))
    return pairs


def test_every_short_proposition_agrees_with_the_fraction_oracle():
    oracle = SpinOracle()
    context = standard_context()
    pairs = state_pairs(oracle)
    expected_matrix = {}
    expected_value = {}
    counts = collections.Counter()
    for prop in short_propositions():
        try:
            expected = oracle.compile(prop)
        except OracleRefusal as refusal:
            with pytest.raises(UnsupportedConnectiveError) as info:
                compile_proposition(prop, context)
            assert str(info.value) == refusal_message(refusal.node), str(prop)
            counts["refused"] += 1
            continue
        projector = compile_proposition(prop, context)
        key = id(expected)
        if key not in expected_matrix:
            entries = tuple(GaussianRational(re, im) for row in expected for re, im in row)
            expected_matrix[key] = Matrix(4, 4, entries)
        assert projector.matrix == expected_matrix[key], str(prop)
        counts["compiled"] += 1
        for i, (state, vector) in enumerate(pairs):
            if (key, i) not in expected_value:
                expected_value[key, i] = oracle.valuate(expected, vector)
            value = valuate(state, projector).value
            assert value == expected_value[key, i], (str(prop), i)
            counts[value] += 1
    # 14124 propositions; 2064 compile, each valuated in 7 states.
    assert counts == {"compiled": 2064, "refused": 12060, "true": 1536, "false": 5964, "gap": 6948}
