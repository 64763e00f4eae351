"""Laws the whole pipeline must obey under exact unitary changes of basis.

A unitary U maps the subspace lattice onto itself: it carries meets, joins,
orthocomplements, order, membership, projectors and truth values over
unchanged. These laws need no second implementation, so they hold the
lattice's own results to account now that they are not re-checked when
built.

U is the Cayley transform (I - iH)(I + iH)^-1 of a Gaussian-rational
Hermitian H, which is exactly unitary; I + iH is invertible because iH has
imaginary eigenvalues. The inverse comes from one ``rref`` of [I + iH | I],
and U U* = I is checked on the ``GaussianRational`` product ``@``, which
shares no integer kernel with ``rref``.
"""

from random import Random

import pytest

from helpers import SINGLET, rand_combination, rand_scalar, rand_span_pair, rand_state, rand_subspace
from qgap import Matrix, Projector, StateVector, Subspace, projector_onto, tensor_product, valuate
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
    u = (identity - step) @ inverse
    assert u @ u.conjugate_transpose() == identity
    return u


def moved(u: Matrix, s: Subspace) -> Subspace:
    """Ua: the span of U applied to a's basis."""
    return Subspace.from_vectors(s.ambient_dim, [StateVector(u.apply(b)) for b in s.basis])


@pytest.mark.parametrize("height", (1, 2))
def test_lattice_projectors_and_valuation_are_carried_over_by_a_unitary(height):
    rng = Random(2600 + height)
    orders, values = set(), set()
    for trial in range(15):
        u = cayley(rand_hermitian(rng, 4, height))
        u_star = u.conjugate_transpose()
        a, b = rand_span_pair(rng, 2) if trial % 2 else (rand_subspace(rng), rand_subspace(rng))
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
        states = [rand_combination(rng, s.basis) for s in (a, a.orthocomplement()) if not s.is_zero]
        for psi in states + [rand_state(rng)]:
            value, u_psi = valuate(psi, p), StateVector(u.apply(psi))
            assert valuate(u_psi, moved_projector) == value
            assert ua.contains(u_psi) == a.contains(psi)
            values.add(value)
    assert orders == {True, False} and len(values) == 3


def test_a_local_unitary_pair_keeps_the_singlet_ray():
    # (u x u) singlet = det(u) singlet, for every 2x2 unitary u.
    rng = Random(2626)
    ray = Subspace.from_vectors(4, [SINGLET])
    for _ in range(10):
        u = cayley(rand_hermitian(rng, 2, 2))
        assert ray.contains(StateVector(tensor_product(u, u).apply(SINGLET)))
