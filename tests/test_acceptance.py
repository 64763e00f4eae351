"""Acceptance suite: every release criterion, one test each, zero tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``); all
comparisons are exact because the whole engine is exact.
"""

from random import Random

import pytest

from helpers import SINGLET, gr, rand_state, rand_subspace, vec
from qgap import (
    Atom,
    Axis,
    Direction,
    Particle,
    Projector,
    TruthValueSet,
    atom_projector,
    classical_solutions,
    compile_proposition,
    different_spins,
    eigencheck,
    pair_observable,
    projector_join,
    projector_onto,
    run_epr,
    same_spins,
    singlet,
    standard_context,
    valuate,
    verify,
)
from qgap.cli import main
from qgap.fixtures import MATCH, MISMATCH
from qgap.propositions import And, Xor
from qgap.scenario import audit, conjunction

T = TruthValueSet.TRUE_ONLY
F = TruthValueSet.FALSE_ONLY
G = TruthValueSet.GAP


def check(num: int, description: str, condition: bool) -> None:
    status = "PASS" if condition else "FAIL"
    print(f"criterion {num:2d} [{status}] {description}")
    assert condition, f"criterion {num} failed: {description}"


def test_criterion_01_singlet_is_one_ray(capsys):
    ok = True
    reference = (gr(0), gr(1), gr(-1), gr(0))
    for axis in Axis:
        s = singlet(axis)
        scale = s.entries[1]
        ok = ok and not scale.is_zero
        ok = ok and s.entries == tuple(scale * e for e in reference)
    with capsys.disabled():
        check(1, "singlet(j) is a nonzero multiple of [0,1,-1,0] for every axis", ok)


def test_criterion_02_eigenvector_checks(capsys):
    zz = pair_observable(Axis.Z)
    e2, e3 = vec(0, 1, 0, 0), vec(0, 0, 1, 0)
    ok = (
        eigencheck(zz, e2, -1)
        and eigencheck(zz, e3, -1)
        and not eigencheck(zz, e2, 1)
        and not eigencheck(zz, e3, 1)
    )
    with capsys.disabled():
        check(2, "e2 and e3 are -1 eigenvectors of the z pair observable, not +1", ok)


def test_criterion_03_pre_verification_valuations(capsys):
    ctx = standard_context()
    ok = True
    for axis in Axis:
        ok = ok and valuate(SINGLET, compile_proposition(different_spins(axis), ctx)) is T
        ok = ok and valuate(SINGLET, compile_proposition(same_spins(axis), ctx)) is F
        for a_dir, b_dir in ((Direction.UP, Direction.DOWN), (Direction.DOWN, Direction.UP)):
            conj = compile_proposition(conjunction(axis, a_dir, b_dir), ctx)
            ok = ok and valuate(SINGLET, conj) is G
        for same_dir in Direction:
            conj = compile_proposition(conjunction(axis, same_dir, same_dir), ctx)
            ok = ok and valuate(SINGLET, conj) is F
    with capsys.disabled():
        check(
            3,
            "singlet: Diff true, Same false, opposite-spin conjunctions gapped (all axes)",
            ok,
        )


def test_criterion_04_collapse(capsys):
    post = verify(singlet(Axis.Z), Atom(Particle.A, Axis.Z, Direction.UP))
    scale = post.entries[1]
    ok = not scale.is_zero and post.entries == tuple(
        scale * e for e in (gr(0), gr(1), gr(0), gr(0))
    )
    values = {
        (Particle.B, Axis.Z, Direction.DOWN): T,
        (Particle.B, Axis.Z, Direction.UP): F,
        (Particle.B, Axis.X, Direction.UP): G,
        (Particle.B, Axis.X, Direction.DOWN): G,
    }
    for key, expected in values.items():
        ok = ok and valuate(post, atom_projector(Atom(*key))) is expected
    with capsys.disabled():
        check(4, "verify(singlet, A.z.up) collapses to e2 and fixes Bob's z spin only", ok)


def test_criterion_05_population_contrast(capsys):
    report = run_epr(
        Axis.Z,
        [Atom(Particle.B, Axis.Z, Direction.DOWN), Atom(Particle.B, Axis.X, Direction.UP)],
    )
    ok = report.classical_population.tuples == ((1, 1), (1, 0))
    ok = ok and report.super_population.tuples == ()
    with capsys.disabled():
        check(5, "query (B.z.down, B.x.up): classical {(1,1),(1,0)}, supervaluational empty", ok)


def test_criterion_06_classical_constraint_solving(capsys):
    a_up = Atom(Particle.A, Axis.Z, Direction.UP)
    a_down = Atom(Particle.A, Axis.Z, Direction.DOWN)
    b_up = Atom(Particle.B, Axis.Z, Direction.UP)
    b_down = Atom(Particle.B, Axis.Z, Direction.DOWN)
    diff_z = Xor(And(a_up, b_down), And(a_down, b_up))
    solutions = classical_solutions([(diff_z, 1)], [a_up, a_down, b_up, b_down])
    ok = solutions == [
        {a_down: 0, a_up: 1, b_down: 1, b_up: 0},
        {a_down: 1, a_up: 0, b_down: 0, b_up: 1},
    ]
    with capsys.disabled():
        check(6, "Diff_z = 1 under exclusivity has exactly the two opposite-spin assignments", ok)


def _fixture_projectors() -> list[Projector]:
    ctx = standard_context()
    projectors = [Projector.zero(4), Projector.identity(4)]
    projectors.extend(ctx.values())
    for axis in Axis:
        for a_dir in Direction:
            for b_dir in Direction:
                projectors.append(compile_proposition(conjunction(axis, a_dir, b_dir), ctx))
        projectors.append(compile_proposition(different_spins(axis), ctx))
        projectors.append(compile_proposition(same_spins(axis), ctx))
    return projectors


def test_criterion_07_lattice_law_suite(capsys):
    rng = Random(740)
    subs = [rand_subspace(rng) for _ in range(200)]
    ok = True
    for i in range(0, 200, 2):
        a, b = subs[i], subs[i + 1]
        ok = ok and a.meet(b) == b.meet(a)
        ok = ok and a.join(b) == b.join(a)
        ok = ok and a.meet(a.join(b)) == a
        ok = ok and a.orthocomplement().orthocomplement() == a
        upper = a.join(b)
        ok = ok and a.join(a.orthocomplement().meet(upper)) == upper
    for i in range(0, 198, 3):
        a, b, c = subs[i], subs[i + 1], subs[i + 2]
        ok = ok and a.meet(b).meet(c) == a.meet(b.meet(c))
        ok = ok and a.join(b).join(c) == a.join(b.join(c))
    projectors = _fixture_projectors()
    orthogonal_pairs = 0
    for i, p in enumerate(projectors):
        for q in projectors[i + 1 :]:
            if p.orthogonal_to(q):
                orthogonal_pairs += 1
                ok = ok and projector_join(p, q).matrix == p.matrix + q.matrix
    ok = ok and orthogonal_pairs > 0
    with capsys.disabled():
        check(
            7,
            f"lattice laws on 200 random subspaces; join == matrix sum on "
            f"{orthogonal_pairs} orthogonal fixture pairs",
            ok,
        )


def test_criterion_08_trichotomy_and_expectation(capsys):
    rng = Random(850)
    ok = True
    for _ in range(500):
        state = rand_state(rng)
        proj = projector_onto(rand_subspace(rng))
        image = proj.matrix.apply(state)
        in_kernel = all(e.is_zero for e in image)
        in_range = image == state.entries
        value = valuate(state, proj)
        ok = ok and (in_kernel, in_range, not in_kernel and not in_range).count(True) == 1
        ok = ok and value is (T if in_range else F if in_kernel else G)
        numerator = gr(0)
        for s, im in zip(state.entries, image):
            numerator = numerator + s.conjugate() * im
        denominator = gr(0)
        for s in state.entries:
            denominator = denominator + s.conjugate() * s
        q = numerator / denominator
        ok = ok and q.im == 0
        ok = ok and (value is T) == (q == gr(1))
        ok = ok and (value is F) == (q == gr(0))
        ok = ok and (value is G) == (gr(0) != q != gr(1))
    with capsys.disabled():
        check(8, "500 random (state, projector) pairs: trichotomy and exact expectation match", ok)


def test_criterion_09_fixture_audit(capsys):
    results = {r.label: r for r in audit()}
    must_match = [
        "eq25_matrix",
        "eq26_matrix",
        "eq30_singlet",
        "eq31_matrix",
        "eq31_range",
        "eq34_final",
        "eq35_range_updown",
        "eq35_range_downup",
        "eq37_summand1",
        "eq37_summand2",
        "eq38_range_updown",
        "eq38_range_downup",
    ]
    must_mismatch = ["eq33_range", "eq34_summand1", "eq37_final"]
    ok = all(results[label].status == MATCH for label in must_match)
    ok = ok and all(results[label].status == MISMATCH for label in must_mismatch)
    ok = ok and results["eq33_range"].derived == "span{[1,0,0,-1], [0,1,-1,0]}"
    ok = ok and results["eq37_final"].derived == (
        "[[1/2,0,0,1/2],[0,1/2,-1/2,0],[0,-1/2,1/2,0],[1/2,0,0,1/2]]"
    )
    ok = ok and results["eq34_summand1"].derived == (
        "[[1/4,-1/4,1/4,-1/4],[-1/4,1/4,-1/4,1/4],[1/4,-1/4,1/4,-1/4],[-1/4,1/4,-1/4,1/4]]"
    )
    with capsys.disabled():
        check(9, "audit matches the sound displays and flags the three known typos", ok)


def test_criterion_10_cli_golden_outputs(capsys):
    epr_args = [
        ["epr-run", "--axis", "z", "--query", "B.z.down,B.x.up", "--semantics", "both"],
        ["epr-run", "--axis", "z", "--query", "B.z.down"],
    ]
    valuate_args = [
        ["valuate", "--prop", "A.z.up & B.z.down ^ A.z.down & B.z.up"],
        ["valuate", "--prop", "A.z.up & B.z.down"],
        ["valuate", "--prop", "A.z.up & B.z.down", "--state", "0,1,0,0"],
    ]
    expected_words = ["true\n", "gap\n", "true\n"]
    ok = True
    outputs = []
    for args in epr_args:
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        ok = ok and first == second and bool(first)
        outputs.append(first)
    contrast, single = outputs
    ok = ok and "classical            {(1,1), (1,0)}" in contrast
    ok = ok and "supervaluational     {}" in contrast
    ok = ok and "classical            {(1)}" in single
    ok = ok and "supervaluational     {(1)}" in single
    for args, word in zip(valuate_args, expected_words):
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        ok = ok and first == second == word
    with pytest.raises(SystemExit) as exc:
        main(["epr-run", "--axis", "w"])
    err_first = capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["epr-run", "--axis", "w"])
    err_second = capsys.readouterr().err
    ok = ok and exc.value.code == 2 and err_first == err_second and "invalid choice" in err_first
    with capsys.disabled():
        check(10, "CLI examples produce byte-identical golden outputs across runs", ok)
