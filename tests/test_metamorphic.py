"""Laws the whole pipeline must obey under exact unitary changes of basis.

A unitary U maps the subspace lattice onto itself: it carries meets, joins,
orthocomplements, order, membership, projectors and truth values over
unchanged, and U P U* and U Q U* are orthogonal, or commute, exactly when P
and Q are, or do. These laws need no second implementation, so they hold
the lattice's own results and the connectives' two domain decisions to
account now that they are not re-checked when built. Every law runs at
heights 1, 2 and 1000, in a fixed number of trials.

U is the Cayley transform (I - iH)(I + iH)^-1 of a Gaussian-rational
Hermitian H, which is exactly unitary; I + iH is invertible because iH has
imaginary eigenvalues. The inverse comes from one ``rref`` of [I + iH | I],
and U U* = I is checked on the ``GaussianRational`` product ``@``, which
shares no integer kernel with ``rref``.
"""

import itertools
from random import Random

import pytest

from helpers import (
    SINGLET,
    adjoint,
    commutes,
    rand_combination,
    rand_projector_pairs,
    rand_scalar,
    rand_span_pair,
    rand_state,
    rand_subspace,
)
import qgap.scenario as scenario
from qgap import (
    Atom,
    Axis,
    Direction,
    Matrix,
    Particle,
    Projector,
    StateVector,
    Subspace,
    classical_value_sets,
    compile_proposition,
    different_spins,
    population,
    projector_onto,
    run_epr,
    standard_context,
    tensor_product,
    valuate,
)
from qgap.scalars import I_UNIT, ZERO


def rand_hermitian(rng: Random, n: int, height: int) -> Matrix:
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rand_scalar(rng, allow_imag=False, height=height)
        for j in range(i + 1, n):
            rows[i][j] = rand_scalar(rng, height=height)
            rows[j][i] = rows[i][j].conjugate()
    return Matrix.from_rows(rows)


def cayley(h: Matrix) -> Matrix:
    """(I - iH)(I + iH)^-1, the inverse read off the reduced form of [I + iH | I]."""
    n, identity = h.rows, Matrix.identity(h.rows)
    step = h.scale(I_UNIT)
    a = identity + step
    solved = Matrix.from_rows([a.row(i) + identity.row(i) for i in range(n)]).rref()
    inverse = Matrix.from_rows([solved.row(i)[n:] for i in range(n)])
    u = (identity + step.scale(-1)) @ inverse
    assert u @ adjoint(u) == identity
    return u


def moved(u: Matrix, s: Subspace) -> Subspace:
    """Ua: the span of U applied to a's basis."""
    return Subspace.from_vectors(s.ambient_dim, [StateVector(u.apply(b)) for b in s.basis])


HEIGHTS = (1, 2, 1000)


def span_height(height: int) -> int:
    """The height spans are drawn at: 2 for the small unitaries, else the unitary's own."""
    return max(height, 2)


@pytest.mark.parametrize("height", HEIGHTS)
def test_lattice_projectors_and_valuation_are_carried_over_by_a_unitary(height):
    rng = Random(2600 + height)
    orders, values = set(), set()
    h = span_height(height)
    for trial in range(15):
        u = cayley(rand_hermitian(rng, 4, height))
        u_star = adjoint(u)
        a, b = rand_span_pair(rng, h) if trial % 2 else (rand_subspace(rng, height=h), rand_subspace(rng, height=h))
        ua, ub = moved(u, a), moved(u, b)
        assert moved(u, a.meet(b)) == ua.meet(ub)
        assert moved(u, a.join(b)) == ua.join(ub)
        assert moved(u, a.orthocomplement()) == ua.orthocomplement()
        assert a.leq(b) == ua.leq(ub) and b.leq(a) == ub.leq(ua)
        orders.update((a.leq(b), b.leq(a)))
        p = projector_onto(a)
        moved_p = u @ p.matrix @ u_star
        assert projector_onto(ua).matrix == moved_p
        moved_projector = Projector(moved_p)
        states = [rand_combination(rng, s.basis) for s in (a, a.orthocomplement()) if s.dim != 0]
        for psi in states + [rand_state(rng)]:
            value, u_psi = valuate(psi, p), StateVector(u.apply(psi))
            assert valuate(u_psi, moved_projector) == value
            assert ua.contains(u_psi) == a.contains(psi)
            values.add(value)
    assert orders == {True, False} and len(values) == 3


@pytest.mark.parametrize("height", HEIGHTS)
def test_orthogonality_and_commutation_are_carried_over_by_a_unitary(height):
    # Both decisions run on the moved pair, which Projector checks afresh.
    rng = Random(2630 + height)
    orthogonal, commuting = set(), set()
    for _ in range(15):
        u = cayley(rand_hermitian(rng, 4, height))
        u_star = adjoint(u)
        for p, q in rand_projector_pairs(rng, span_height(height)):
            up, uq = Projector(u @ p.matrix @ u_star), Projector(u @ q.matrix @ u_star)
            assert up.orthogonal_to(uq) == p.orthogonal_to(q)
            assert commutes(up, uq) == commutes(p, q)
            orthogonal.add(p.orthogonal_to(q))
            commuting.add(commutes(p, q))
    assert orthogonal == commuting == {True, False}


@pytest.mark.parametrize("height", HEIGHTS)
def test_a_local_unitary_pair_keeps_the_singlet_ray(height):
    # (u x u) singlet = det(u) singlet, for every 2x2 unitary u.
    rng = Random(2626 + height)
    ray = Subspace.from_vectors(4, [SINGLET])
    for _ in range(10):
        u = cayley(rand_hermitian(rng, 2, height))
        assert ray.contains(StateVector(tensor_product(u, u).apply(SINGLET)))


def _every_query_of_at_most_two_atoms():
    atoms = list(standard_context())
    return [()] + [(a,) for a in atoms] + list(itertools.product(atoms, repeat=2))


@pytest.mark.parametrize("height", HEIGHTS)
def test_rotating_every_atom_projector_by_u_tensor_u_keeps_the_run(height):
    # (u x u) singlet = det(u) singlet, so the prepared state reads the same in the rotated frame:
    # all 30 run-table values and both populations of every short query are unchanged.
    rng = Random(2660 + height)
    pre_rows, post_rows = scenario._run_table()
    queries = _every_query_of_at_most_two_atoms()
    for _ in range(3):
        u = cayley(rand_hermitian(rng, 2, height))
        uu = tensor_product(u, u)
        uu_star = adjoint(uu)
        context = {atom: Projector(uu @ p.matrix @ uu_star) for atom, p in standard_context().items()}
        assert context != dict(standard_context())
        for axis in Axis:
            report = run_epr(axis, [])
            prepared = report.prepared_state
            verified = Atom(Particle.A, axis, Direction.UP)
            post = StateVector(context[verified].matrix.apply(prepared))
            before = [valuate(prepared, compile_proposition(prop, context)) for _, prop, _ in pre_rows]
            after = {prop: valuate(post, compile_proposition(prop, context)) for _, prop, _ in post_rows}
            assert before == [r.value for r in report.pre_valuations]
            assert list(after.values()) == [r.value for r in report.post_valuations]
            constraints = [(different_spins(axis), 1), (verified, 1)]
            for query in queries:
                labels = [str(a) for a in query]
                expected = run_epr(axis, query)
                assert population([after[a] for a in query], labels) == expected.super_population
                assert population(classical_value_sets(constraints, query), labels) == expected.classical_population
