"""Tests of the benchmark itself: inputs, span arithmetic and checkers.

    python -m pytest perfbench/tests -q
"""

import copy
import itertools
from fractions import Fraction
from types import SimpleNamespace

import pytest

import exact
import run
import speed
import tracer
import worker
import workloads as w

NAMES = ("epr_mix", "valuate_mix", "lattice_mix", "cli_cold")


def first(name, seed, n=40):
    return list(itertools.islice(w.inputs(name, seed), n))


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    assert first(name, 7) == first(name, 7)
    assert first(name, 7) != first(name, 8)


def test_inputs_follow_the_stated_distributions():
    for axis, query in first("epr_mix", 1, 200):
        assert axis in w.AXES and 1 <= len(query) <= 6 and len(set(query)) == len(query)
    for tree, state in first("valuate_mix", 1, 200):
        assert 1 <= w.connectives(tree) <= 4
        assert any(not exact.is_zero(e) for e in state)
    for inp in first("lattice_mix", 1, 200):
        assert 1 <= len(inp["a"]) <= 3 and inp["op"] in w.LATTICE_OPS
    deck = first("cli_cold", 1, len(w.CLI_SLOTS))
    assert sorted(e["slot"] for e in deck) == sorted(w.CLI_SLOTS)


@pytest.mark.parametrize(
    "name, key, slots",
    [
        ("epr_mix", lambda inp: len(inp[1]), list(w.EPR_SIZES)),
        ("epr_mix", lambda inp: inp[0], list(w.AXES * 2)),
        ("valuate_mix", lambda inp: w.connectives(inp[0]), [n for n, _ in w.VALUATE_SLOTS]),
        ("lattice_mix", lambda inp: inp["op"], [op for op, _ in w.LATTICE_SLOTS]),
    ],
)
def test_every_deck_holds_each_slot_once(name, key, slots):
    deck = w.WORKLOADS[name].deck
    inputs = first(name, 11, 3 * deck)
    for i in range(0, len(inputs), deck):
        assert sorted(map(key, inputs[i : i + deck])) == sorted(slots)


def test_combine_pools_the_rounds_at_reference_speed():
    ref = speed.REFERENCE_S

    def round_(scaled, ok, rss, failed):
        return {"latencies": [2 * t for t in scaled], "scaled": scaled, "ok": ok, "peak_rss_mb": rss,
                "attempted": 3, "failed": failed, "unexpected": failed, "kernel_s": [2 * ref],
                "setup_kernel_s": [2 * ref, 2 * ref]}

    rounds = [
        round_([0.3, 0.1, 0.2], [True, True, True], 10.0, 0),
        round_([0.1, 0.4, 0.2], [True, False, True], 12.0, 1),
        round_([0.2, 0.2, 0.6], [True, True, True], 11.0, 0),
    ]
    out = run.combine(rounds, [1.0 + 4 * ref, 3.0 + 4 * ref, 2.0 + 4 * ref])
    assert out["metrics"]["latency_p50_ms"] == pytest.approx(200.0)
    assert out["metrics"]["throughput_ops_s"] == pytest.approx(8 / 2.3)
    assert out["metrics"]["setup_s"] == pytest.approx(1.0)
    assert out["metrics"]["peak_rss_mb"] == 11.0
    assert out["extra"]["raw_latency_p50_ms"] == pytest.approx(400.0)
    assert out["extra"]["samples"] == 9
    assert out["extra"]["host_slowdown"] == pytest.approx(2.0)
    assert (out["attempted"], out["failed"], out["unexpected"]) == (9, 1, 1)


def test_speed_clock_scales_by_the_kernel_samples_around_an_op():
    clock = speed.Clock()
    clock.samples = [speed.REFERENCE_S, 3 * speed.REFERENCE_S]
    assert clock.scale(0) == pytest.approx(0.5)


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.child", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["other_root", 20.0, 22.0, -1, 1],
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 2.0]


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, -1, 0], ["c1", 1.0, 5.0, 0, 0], ["c2", 3.0, 7.0, 0, 0]]
    assert tracer.self_times(spans)[0] == 4.0


def test_layer_totals_count_outermost_compiles_and_sum_self_time():
    name = "propositions.compile_proposition"
    spans = [
        [name, 0.0, 0.010, -1, 0],
        [name, 0.001, 0.003, 0, 0],
        ["projectors.projector_meet", 0.004, 0.009, 0, 0],
        [name, 0.020, 0.021, -1, 1],
    ]
    totals = tracer.layer_totals(spans, {"scalars.mul": 5})
    assert totals["propositions.compile_calls"] == 2
    assert totals["propositions.compile_self_ms"] == pytest.approx(3.0 + 2.0 + 1.0)
    assert totals["projectors.meet_calls"] == 1
    assert totals["scalars.mul_calls"] == 5


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(1, 61)])
    assert (value, pct, beyond) == (50.0, 83, 10)
    assert run.tail([float(i) for i in range(1, 16)]) == (8.0, 50, 7)
    assert run.tail([1.0, 2.0]) == (1.0, 50, 1)


# ------------------------------------------------------------------ checkers


def test_epr_checker_rejects_a_wrong_population():
    ref = w.load_reference("epr.json")
    inp = ("z", ("B.z.down", "B.x.up"))
    good = w.expected_epr(inp, ref)
    assert good["classical"][1] == [[1, 1], [1, 0]] and good["super"][1] == []
    assert w.check_epr(inp, good, ref)
    bad = copy.deepcopy(good)
    bad["super"][1] = [[1, 1]]
    assert not w.check_epr(inp, bad, ref)
    bad = copy.deepcopy(good)
    bad["pre"][0][1] = "gap"
    assert not w.check_epr(inp, bad, ref)


def test_epr_reference_matches_the_golden_file():
    golden = (w.ROOT / "tests" / "golden" / "epr_run_both.txt").read_text().splitlines()
    exp = w.expected_epr(("z", ("B.z.down", "B.x.up")), w.load_reference("epr.json"))
    rows = {}
    for line in golden:
        parts = line.split()
        if line.startswith("  ") and len(parts) >= 2 and parts[-1] in ("true", "false", "gap"):
            rows.setdefault(" ".join(parts[:-1]), []).append(parts[-1])
    for label, value in exp["pre"] + exp["post_vals"]:
        assert rows[label].pop(0) == value
    assert "  classical            {(1,1), (1,0)}" in golden
    assert "  supervaluational     {}" in golden
    total, match, mismatched = exp["fixtures"]
    assert f"fixture audit: {match}/{total} transcribed displays match the derived values" \
        f" ({len(mismatched)} known discrepancies)" in golden


def test_valuate_checker_rejects_a_wrong_value_or_matrix():
    tree = ("^", ("&", ("atom", "A.z.up"), ("atom", "B.z.down")), ("&", ("atom", "A.z.down"), ("atom", "B.z.up")))
    singlet = [exact.ZERO, exact.ONE, exact.c(-1), exact.ZERO]
    matrix = w.expected_projector(tree)
    assert w.check_valuate((tree, singlet), {"value": "true", "matrix": matrix})
    assert not w.check_valuate((tree, singlet), {"value": "gap", "matrix": matrix})
    wrong = copy.deepcopy(matrix)
    wrong[0][0] = exact.ONE
    assert not w.check_valuate((tree, singlet), {"value": "true", "matrix": wrong})


@pytest.fixture(scope="module")
def lattice():
    return w.LatticeMix(0)


def _answer(wl, inp):
    return wl.serialize(wl.run(wl.prepare(inp)))


def _corrupt(op, out):
    if isinstance(out, bool):
        return not out
    if op.startswith("projector"):
        wrong = copy.deepcopy(out)
        wrong[0][1] = exact.add(wrong[0][1], exact.ONE)
        return wrong
    return out[:-1] if out else [[exact.ONE, exact.ZERO, exact.ZERO, exact.ZERO]]


def test_lattice_checker_rejects_each_kind_of_wrong_answer(lattice):
    seen = set()
    for inp in first("lattice_mix", 3, 60):
        out = _answer(lattice, inp)
        assert w.check_lattice(inp, out), inp["op"]
        assert not w.check_lattice(inp, _corrupt(inp["op"], out)), inp["op"]
        seen.add(inp["op"])
    assert seen == set(w.LATTICE_OPS)


def test_cli_checker_rejects_wrong_output_and_tracebacks():
    catalog = w.load_reference("cli.json")["catalog"]
    entry = next(e for e in catalog if e["slot"] == "valuate/table")
    good = (entry["code"], entry["stdout"], entry["stderr"])
    assert w.check_cli(entry, good)
    assert not w.check_cli(entry, (entry["code"], entry["stdout"] + "x", entry["stderr"]))
    assert not w.check_cli(entry, (3, entry["stdout"], entry["stderr"]))
    assert not w.check_cli(entry, (entry["code"], entry["stdout"], "Traceback (most recent call last):\n"))

    defect = next(e for e in catalog if e.get("known_defect"))
    assert defect["observed"]["code"] == 1
    seed_behaviour = (1, "", "Traceback (most recent call last):\nZeroDivisionError: Fraction(1, 0)\n")
    assert not w.check_cli(defect, seed_behaviour)
    assert w.check_cli(defect, (2, "", "usage error: not a Gaussian rational: '1/0'\n"))


def test_known_defect_counts_as_failed_but_not_unexpected():
    fake = SimpleNamespace(
        name="fake",
        check=lambda inp, out: out == "right",
        serialize=lambda result: result,
        known_defect=lambda inp: inp == "defect",
    )
    outcomes = worker.Outcomes(fake)
    outcomes.record("ok", "right")
    outcomes.record("defect", "wrong")
    outcomes.record("other", ValueError("raised"))
    assert outcomes.as_dict() == {"attempted": 3, "failed": 2, "unexpected": 1}


def test_traced_counts_repeat_exactly():
    wl = w.ValuateMix(5)
    prepared = [wl.prepare(inp) for inp in first("valuate_mix", 5, 4)]
    wl.run(prepared[0])

    def traced():
        tr = tracer.Tracer()
        with tr:
            for i, args in enumerate(prepared):
                tr.op = i
                wl.run(args)
        totals = tracer.layer_totals(tr.spans, tr.counts)
        return {k: v for k, v in totals.items() if k.endswith("_calls")}, [s[0] for s in tr.spans]

    first_counts, first_names = traced()
    assert first_counts["scalars.mul_calls"] > 0 and first_counts["propositions.compile_calls"] == 4
    assert traced() == (first_counts, first_names)


def test_tracer_restores_the_original_methods():
    import qgap
    from qgap import linalg, scenario

    before = (qgap.GaussianRational.__mul__, linalg.Matrix.rref, scenario.compile_proposition)
    with tracer.Tracer():
        assert linalg.Matrix.rref is not before[1]
    assert (qgap.GaussianRational.__mul__, linalg.Matrix.rref, scenario.compile_proposition) == before


def test_exact_rank_and_text():
    half = (Fraction(1, 2), Fraction(-3, 4))
    assert exact.to_text(half) == "1/2-3/4*i"
    assert exact.to_text((Fraction(0), Fraction(-1))) == "-1*i"
    assert exact.rank([[exact.ONE, exact.I], [exact.I, exact.c(-1)]]) == 1
