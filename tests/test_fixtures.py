import json
import random

import pytest

from qgap import Matrix, ParseError, StateVector, Subspace, fixtures, parse_span
from qgap.fixtures import MATCH, MISMATCH, AuditSummary, check_fixtures, render_audit_table
from qgap.scenario import audit, audit_summary

EXPECTED_STATUS = {
    "eq22_sigma_zz": MATCH,
    "eq22_sigma_xx": MISMATCH,
    "eq22_sigma_yy": MISMATCH,
    "eq23_range": MATCH,
    "eq24_range": MATCH,
    "eq25_matrix": MATCH,
    "eq26_matrix": MATCH,
    "eq28_vector": MATCH,
    "eq29_vector": MATCH,
    "eq30_singlet": MATCH,
    "eq31_matrix": MATCH,
    "eq31_range": MATCH,
    "eq33_singlet": MATCH,
    "eq33_range": MISMATCH,
    "eq34_summand1": MISMATCH,
    "eq34_summand2": MATCH,
    "eq34_final": MATCH,
    "eq35_range_updown": MATCH,
    "eq35_range_downup": MATCH,
    "eq36_singlet": MATCH,
    "eq36_range": MATCH,
    "eq37_summand1": MATCH,
    "eq37_summand2": MATCH,
    "eq37_final": MISMATCH,
    "eq38_range_updown": MATCH,
    "eq38_range_downup": MATCH,
    "eq39_chain": MISMATCH,
}


def test_every_fixture_has_the_expected_status():
    results = {r.label: r.status for r in audit()}
    assert results == EXPECTED_STATUS


def test_summary_counts():
    summary = audit_summary()
    assert summary.total == 27
    assert summary.match_count == 21
    assert summary.mismatched == (
        "eq22_sigma_xx",
        "eq22_sigma_yy",
        "eq33_range",
        "eq34_summand1",
        "eq37_final",
        "eq39_chain",
    )


def test_derived_values_for_the_known_discrepancies():
    by_label = {r.label: r for r in audit()}

    assert by_label["eq33_range"].derived == "span{[1,0,0,-1], [0,1,-1,0]}"
    assert by_label["eq33_range"].printed == "span{[1,0,0,0], [0,1,-1,0], [0,0,0,1]}"

    summand = by_label["eq34_summand1"]
    assert summand.derived == (
        "[[1/4,-1/4,1/4,-1/4],[-1/4,1/4,-1/4,1/4],[1/4,-1/4,1/4,-1/4],[-1/4,1/4,-1/4,1/4]]"
    )
    assert summand.printed == (
        "[[1/4,-1/4,1/4,1/4],[-1/4,1/4,-1/4,1/4],[1/4,-1/4,1/4,-1/4],[-1/4,1/4,-1/4,1/4]]"
    )

    final = by_label["eq37_final"]
    assert final.derived == "[[1/2,0,0,1/2],[0,1/2,-1/2,0],[0,-1/2,1/2,0],[1/2,0,0,1/2]]"
    assert final.printed == "[[1/2,0,0,-1/2],[0,1/2,-1/2,0],[0,-1/2,1/2,0],[-1/2,0,0,1/2]]"

    chain = by_label["eq39_chain"]
    assert "z<=x: false" in chain.derived
    assert "singlet in all three: true" in chain.derived


def test_matches_compare_exact_values():
    by_label = {r.label: r for r in audit()}
    assert by_label["eq25_matrix"].printed == by_label["eq25_matrix"].derived
    assert by_label["eq31_range"].derived == "span{[0,1,0,0], [0,0,1,0]}"
    assert by_label["eq30_singlet"].derived == "[0,1,-1,0]"
    # rays match up to scale, so printed and derived may differ as strings
    assert by_label["eq33_singlet"].derived == "[0,-2,2,0]"
    assert by_label["eq33_singlet"].status == MATCH


def test_results_serialize_to_json():
    payload = [r.to_dict() for r in audit()]
    text = json.dumps(payload)
    assert json.loads(text)[0]["label"] == "eq22_sigma_zz"
    assert {"label", "kind", "status", "printed", "derived", "note"} == set(payload[0])


def test_table_rendering():
    table = render_audit_table(audit())
    assert "eq25_matrix" in table
    assert "27 fixtures: 21 match, 6 mismatch" in table
    lines = table.splitlines()
    mismatch_lines = [l for l in lines if "MISMATCH" in l]
    assert len(mismatch_lines) == 6


@pytest.fixture
def fresh_audit():
    audit.cache_clear()
    yield
    audit.cache_clear()


def test_unknown_kind_and_derived_name_are_mismatches_not_errors(monkeypatch, fresh_audit):
    span = [["0", "1", "-1", "0"]]
    entries = (
        {"label": "bad_kind", "kind": "tensor", "derived": "sigma_xx", "printed": []},
        {"label": "bad_name", "kind": "matrix", "derived": "no_such_value", "printed": [["1"]]},
        {"label": "bad_chain", "kind": "chain", "derived": ["range_diff_z", "nope"], "printed": []},
        {"label": "unparseable", "kind": "matrix", "derived": "sigma_zz", "printed": [["x"]]},
        {"label": "listed_name", "kind": "matrix", "derived": ["sigma_zz"], "printed": [["1"]]},
        {"label": "no_derived", "kind": "vector", "printed": ["1"]},
        {"label": "empty_range", "kind": "range", "derived": "range_diff_z", "printed": []},
        {
            "label": "zero_row_range",
            "kind": "range",
            "derived": "range_diff_z",
            "printed": [["0", "1", "0", "0"], ["0"] * 4],
        },
        {
            "label": "ragged_range",
            "kind": "range",
            "derived": "range_diff_z",
            "printed": [["0", "1", "0"], ["0"] * 4],
        },
        {"label": "empty_row_range", "kind": "range", "derived": "range_diff_z", "printed": [[]]},
        {"label": "zero_vector", "kind": "vector", "derived": "singlet_z", "printed": ["0"] * 4},
        {"label": "zero_ray", "kind": "ray", "derived": "singlet_z", "printed": ["0"] * 4},
        {
            "label": "spaced_scalar",
            "kind": "vector",
            "derived": "vector_z_up_down",
            "printed": ["0", "1 0", "0", "0"],
        },
        {
            "label": "short_chain",
            "kind": "chain",
            "derived": ["range_diff_z", "range_diff_x", "range_diff_y"],
            "printed": [span],
        },
        {
            "label": "ragged_chain",
            "kind": "chain",
            "derived": ["range_diff_z", "range_diff_x", "range_diff_y"],
            "printed": [span, span, [["1", "0"]]],
        },
        {"label": "wrong_type", "kind": "ray", "derived": "sigma_zz", "printed": ["1"]},
        {"label": "int_scalars", "kind": "vector", "derived": "singlet_z", "printed": [0, 1, -1, 0]},
        {"label": "flat_matrix", "kind": "matrix", "derived": "sigma_zz", "printed": ["1", "0"]},
        {"label": "no_kind", "derived": "singlet_z", "printed": ["0", "1", "-1", "0"]},
        {"kind": "ray", "derived": "singlet_z", "printed": ["0", "1", "-1", "0"]},
        {"label": "listed_kind", "kind": ["vector"], "derived": "singlet_z", "printed": ["0"]},
        {"label": 5, "kind": "ray", "derived": "singlet_z", "printed": ["0", "1", "-1", "0"]},
        "not a dict",
        {"label": "good", "kind": "ray", "derived": "singlet_z", "printed": ["0", "1", "-1", "0"]},
    )
    monkeypatch.setattr(fixtures, "load_fixture_entries", lambda: entries)
    results = audit()
    assert [r.status for r in results] == [MISMATCH] * 23 + [MATCH]
    by_label = {r.label: r for r in results if r.label}
    assert [(r.kind, r.note) for r in results if not r.label] == [
        ("ray", "missing label value"),
        ("ray", "label is not a string: 5"),
        ("", "entry is not an object: 'not a dict'"),
    ]
    assert by_label["bad_kind"].note == "unknown fixture kind 'tensor'"
    assert by_label["bad_name"].note == "unknown derived value 'no_such_value'"
    assert by_label["bad_chain"].note == "unknown derived value 'nope'"
    assert by_label["unparseable"].note == "unparseable printed matrix: not a Gaussian rational: 'x'"
    assert by_label["listed_name"].note == "derived value is not a name: ['sigma_zz']"
    assert by_label["no_derived"].note == "missing derived value"
    assert by_label["empty_range"].note == "unparseable printed range: a span needs at least one vector"
    assert by_label["ragged_range"].note == "unparseable printed range: span vectors differ in length: [3, 4]"
    assert by_label["empty_row_range"].note == "unparseable printed range: ambient dimension must be positive"
    assert by_label["zero_vector"].note == "unparseable printed vector: the zero vector is not a state"
    assert by_label["zero_ray"].note == "unparseable printed ray: the zero vector is not a state"
    assert by_label["spaced_scalar"].note == "unparseable printed vector: not a Gaussian rational: '1 0'"
    # A zero row adds nothing, as in the CLI: the span is read and compared.
    zero_row = by_label["zero_row_range"]
    assert (zero_row.printed, zero_row.derived, zero_row.note) == (
        "span{[0,1,0,0]}",
        "span{[0,1,0,0], [0,0,1,0]}",
        "",
    )
    assert by_label["short_chain"].note == "a chain needs 3 printed spans, got 1"
    assert by_label["ragged_chain"].note == "unparseable printed chain: spans of different dimensions"
    assert by_label["wrong_type"].note == "derived value 'sigma_zz' is a Matrix, not a StateVector"
    assert by_label["int_scalars"].note == "printed vector is not a list of strings: [0, 1, -1, 0]"
    assert by_label["flat_matrix"].note == "printed matrix is not a list of lists of strings: ['1', '0']"
    assert (by_label["no_kind"].kind, by_label["no_kind"].note) == ("", "missing kind value")
    assert (by_label["listed_kind"].kind, by_label["listed_kind"].note) == (
        "",
        "unknown fixture kind ['vector']",
    )
    for r in results[:-1]:
        assert r.printed == r.derived == "" or r is zero_row
    summary = audit_summary()
    assert (summary.total, summary.match_count) == (24, 1)
    assert "24 fixtures: 1 match, 23 mismatch" in render_audit_table(results)


def test_table_summary_counts_the_given_results():
    results = audit()[:2]
    assert [r.status for r in results] == [MATCH, MISMATCH]
    table = render_audit_table(results)
    assert table.endswith("\n\n2 fixtures: 1 match, 1 mismatch\n")
    assert AuditSummary.of(results) == AuditSummary(2, 1, ("eq22_sigma_xx",))
    assert AuditSummary.of(audit()) == audit_summary()


def test_non_ascii_printed_digit_is_a_mismatch(monkeypatch, fresh_audit):
    entries = (
        ("full_width", "vector", ["0", "\uff11", "-1", "0"]),
        ("arabic_indic", "ray", ["0", "\u0661", "-\u0661", "0"]),
        ("ascii", "vector", ["0", "1", "-1", "0"]),
    )
    entries = tuple(
        {"label": label, "kind": kind, "derived": "singlet_z", "printed": printed}
        for label, kind, printed in entries
    )
    monkeypatch.setattr(fixtures, "load_fixture_entries", lambda: entries)
    results = audit()
    assert [r.status for r in results] == [MISMATCH, MISMATCH, MATCH]
    assert results[0].note == "unparseable printed vector: not a Gaussian rational: '\uff11'"
    assert results[1].note == "unparseable printed ray: not a Gaussian rational: '\u0661'"


def test_numeral_or_range_past_the_decimal_limit_is_a_mismatch(monkeypatch, fresh_audit):
    # A 5000-digit numeral cannot be read; a range of 3000-digit entries
    # can, but its canonical basis has entries too long to print.
    rng = random.Random(10)
    rows = [[str(rng.randrange(10**2999, 10**3000)) for _ in range(4)] for _ in range(2)]
    entries = (
        {
            "label": "long_numeral",
            "kind": "vector",
            "derived": "singlet_z",
            "printed": ["0", "1" * 5000, "-1", "0"],
        },
        {"label": "long_range", "kind": "range", "derived": "range_diff_z", "printed": rows},
        {"label": "good", "kind": "ray", "derived": "singlet_z", "printed": ["0", "1", "-1", "0"]},
    )
    monkeypatch.setattr(fixtures, "load_fixture_entries", lambda: entries)
    results = audit()
    assert [r.status for r in results] == [MISMATCH, MISMATCH, MATCH]
    assert results[0].note == (
        "unparseable printed vector: numeral too long in scalar of 5000 characters: "
        "more digits than the int-string limit"
    )
    assert results[1].note == (
        "unprintable printed range: scalar too long to print: more digits than the int-string limit"
    )
    assert all(r.printed == r.derived == "" for r in results[:2])


def test_check_fixtures_compares_with_the_table_it_is_given(monkeypatch):
    line = Subspace.from_vectors(2, [StateVector.of(1, 1)])
    derivations = {
        "identity": Matrix.identity(2),
        "e1": StateVector.of(1, 0),
        "line": line,
        "plane": Subspace.from_vectors(2, [StateVector.of(1, 0), StateVector.of(0, 1)]),
        "singlet_z": StateVector.of(1, 1),
    }
    entries = (
        {"label": "eye", "kind": "matrix", "derived": "identity", "printed": [["1", "0"], ["0", "1"]]},
        {"label": "e1_ray", "kind": "ray", "derived": "e1", "printed": ["3", "0"]},
        {"label": "e1_vector", "kind": "vector", "derived": "e1", "printed": ["3", "0"]},
        {"label": "line", "kind": "range", "derived": "line", "printed": [["2", "2"]]},
        {
            "label": "chain",
            "kind": "chain",
            "derived": ["line", "line", "plane"],
            "printed": [[["1", "1"]], [["2", "2"]], [["1", "0"], ["0", "1"]]],
        },
        {"label": "not_given", "kind": "matrix", "derived": "sigma_zz", "printed": [["1"]]},
    )
    monkeypatch.setattr(fixtures, "load_fixture_entries", lambda: entries)
    results = check_fixtures(derivations)
    assert [(r.label, r.status) for r in results] == [
        ("eye", MATCH),
        ("e1_ray", MATCH),
        ("e1_vector", MISMATCH),
        ("line", MATCH),
        ("chain", MATCH),
        ("not_given", MISMATCH),
    ]
    assert results[0].derived == str(Matrix.identity(2))
    assert results[3].derived == str(line)
    assert results[4].derived == (
        "z<=x: true, x<=y: true (derived ranges); singlet in all three: true"
    )
    assert results[5].note == "unknown derived value 'sigma_zz'"


PLANE = Subspace.from_vectors(2, [StateVector.of(1, 0), StateVector.of(0, 1)])


def test_a_wrong_transcription_that_parses_is_a_mismatch(monkeypatch):
    # A printed ray of the right length off the derived ray, and a printed chain
    # that fails while the derived chain holds: each MISMATCH, each value shown.
    derivations = {
        "e1": StateVector.of(1, 0),
        "line": Subspace.from_vectors(2, [StateVector.of(1, 1)]),
        "plane": PLANE,
        "singlet_z": StateVector.of(1, 1),
    }
    entries = (
        {"label": "off_ray", "kind": "ray", "derived": "e1", "printed": ["1", "1"]},
        {
            "label": "failing_chain",
            "kind": "chain",
            "derived": ["line", "line", "plane"],
            "printed": [[["1", "0"]], [["0", "1"]], [["1", "0"], ["0", "1"]]],
        },
    )
    monkeypatch.setattr(fixtures, "load_fixture_entries", lambda: entries)
    ray, chain = check_fixtures(derivations)
    assert (ray.status, ray.printed, ray.derived) == (MISMATCH, "[1,1]", "[1,0]")
    assert (chain.status, chain.printed, chain.derived) == (
        MISMATCH,
        "z<=x: false, x<=y: true (printed families)",
        "z<=x: true, x<=y: true (derived ranges); singlet in all three: true",
    )


def test_a_span_of_no_vectors_is_a_parse_error():
    # The audit and the CLI read spans with parse_span; an empty one is refused by class, not only by message.
    with pytest.raises(ParseError, match="^a span needs at least one vector$"):
        parse_span([])


@pytest.mark.parametrize(
    "table, note",
    [
        ({"plane": PLANE}, "unknown derived value 'singlet_z'"),
        (
            {"plane": PLANE, "singlet_z": Matrix.identity(2)},
            "derived value 'singlet_z' is a Matrix, not a StateVector",
        ),
        (
            {"plane": PLANE, "singlet_z": StateVector.of(0, 1, -1, 0)},
            "derived value 'singlet_z' has dimension 4, not the spans' 2",
        ),
        (
            {"plane": Subspace(4), "singlet_z": StateVector.of(1, 0)},
            "derived spans differ in dimension: [2, 4]",
        ),
    ],
    ids=["missing", "matrix", "other-dimension", "spans-of-two-dimensions"],
)
def test_a_chain_without_a_singlet_that_its_spans_can_hold_is_a_mismatch(monkeypatch, table, note):
    entries = (
        {
            "label": "chain",
            "kind": "chain",
            "derived": ["plane", "plane", "line"],
            "printed": [[["1", "0"], ["0", "1"]]] * 3,
        },
    )
    monkeypatch.setattr(fixtures, "load_fixture_entries", lambda: entries)
    (result,) = check_fixtures({"line": PLANE, **table})
    assert (result.status, result.note) == (MISMATCH, note)
