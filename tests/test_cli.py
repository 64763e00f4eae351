import contextlib
import io
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgap import fixtures
from qgap.cli import MAX_QUERY_ATOMS, main
from qgap.scenario import audit
from qgap.propositions import MAX_OPERATORS

GOLDEN_DIR = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestEprRun:
    def test_contrast_query_matches_golden_output(self, capsys):
        args = ("epr-run", "--axis", "z", "--query", "B.z.down,B.x.up", "--semantics", "both")
        code, out, err = run_cli(capsys, *args)
        assert code == 0 and err == ""
        assert out == (GOLDEN_DIR / "epr_run_both.txt").read_text()
        code2, out2, _ = run_cli(capsys, *args)
        assert code2 == 0 and out2 == out

    def test_json_output_matches_golden_output(self, capsys):
        args = ("epr-run", "--axis", "x", "--query", "A.y.up,B.x.down,B.z.up", "--output", "json")
        golden = (GOLDEN_DIR / "epr_run_json.txt").read_bytes()
        for _ in range(2):
            code, out, err = run_cli(capsys, *args)
            assert code == 0 and err == ""
            assert out.encode() == golden

    @pytest.mark.parametrize(
        "golden, extra",
        [
            ("epr_run_x_mixed.txt", ("--axis", "x")),
            ("epr_run_y_mixed_json.txt", ("--axis", "y", "--output", "json")),
        ],
    )
    def test_mixed_query_matches_golden_output(self, capsys, golden, extra):
        # Constrained and free (particle, axis) pairs side by side in one query.
        query = "A.y.up,B.y.down,B.z.up,A.z.down,B.x.up,A.x.down"
        expected = (GOLDEN_DIR / golden).read_bytes()
        for _ in range(2):
            code, out, err = run_cli(capsys, "epr-run", *extra, "--query", query)
            assert code == 0 and err == ""
            assert out.encode() == expected

    def test_single_query_populations_agree(self, capsys):
        args = ("epr-run", "--axis", "z", "--query", "B.z.down")
        code, out, err = run_cli(capsys, *args)
        assert code == 0
        assert "classical            {(1)}" in out
        assert "supervaluational     {(1)}" in out
        _, out2, _ = run_cli(capsys, *args)
        assert out2 == out

    def test_invalid_axis_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["epr-run", "--axis", "w"])
        assert exc.value.code == 2
        _, err = capsys.readouterr()
        assert "invalid choice" in err
        with pytest.raises(SystemExit):
            main(["epr-run", "--axis", "w"])
        _, err2 = capsys.readouterr()
        assert err2 == err

    def test_bad_query_atom_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "epr-run", "--query", "B.z.sideways")
        assert code == 2
        assert err.startswith("usage error:")

    @pytest.mark.parametrize("output", ["table", "json"])
    def test_query_longer_than_the_atom_count_is_usage_error(self, capsys, output):
        assert MAX_QUERY_ATOMS == 12
        query = ",".join(["B.x.up"] * 13)
        code, out, err = run_cli(capsys, "epr-run", "--query", query, "--output", output)
        assert (code, out) == (2, "")
        assert err == "usage error: query has 13 atoms, more than 12\n"

    def test_query_of_twelve_repeated_free_atoms_is_answered(self, capsys):
        query = ",".join(["B.x.up"] * 12)
        code, out, err = run_cli(
            capsys, "epr-run", "--axis", "z", "--query", query,
            "--semantics", "classical", "--output", "json",
        )
        assert (code, err) == (0, "")
        tuples = json.loads(out)["populations"]["classical"]["tuples"]
        assert len(tuples) == 4096 == len(set(map(tuple, tuples)))

    def test_empty_query_is_the_default(self, capsys):
        assert run_cli(capsys, "epr-run", "--query", "") == run_cli(capsys, "epr-run")

    @pytest.mark.parametrize("output", ["table", "json"])
    @pytest.mark.parametrize(
        "query, bad",
        [
            ("A.z.up,,B.x.up", ""),
            (",", ""),
            ("A.z.up,", ""),
            (" ", " "),
            ("\xa0A.z.up", "\xa0A.z.up"),
        ],
    )
    def test_blank_or_unicode_spaced_query_part_is_usage_error(self, capsys, output, query, bad):
        # Every comma-separated part of a nonempty query is one atom.
        code, out, err = run_cli(capsys, "epr-run", "--query", query, "--output", output)
        assert (code, out) == (2, "")
        assert err == f"usage error: not an atom (expected e.g. A.z.up): {bad!r}\n"

    def test_semantics_filters_population_lines(self, capsys):
        code, out, _ = run_cli(
            capsys, "epr-run", "--query", "B.z.down,B.x.up", "--semantics", "super"
        )
        assert code == 0
        assert "supervaluational" in out and "classical" not in out
        code, out, _ = run_cli(
            capsys, "epr-run", "--query", "B.z.down,B.x.up", "--semantics", "classical"
        )
        assert code == 0
        assert "classical" in out and "supervaluational" not in out

    def test_json_output_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "epr-run", "--query", "B.z.down,B.x.up", "--output", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert json.dumps(payload, indent=2) + "\n" == out
        assert payload["populations"]["classical"]["tuples"] == [[1, 1], [1, 0]]
        assert payload["populations"]["supervaluational"]["tuples"] == []
        assert payload["state"]["post"] == ["0", "1", "0", "0"]
        assert payload["valuations"]["before"]["Diff(z)"] == "true"
        assert payload["fixtures"]["total"] == 27


class TestValuate:
    def test_compound_is_true_in_singlet(self, capsys):
        code, out, _ = run_cli(
            capsys, "valuate", "--prop", "A.z.up & B.z.down ^ A.z.down & B.z.up"
        )
        assert code == 0 and out == "true\n"

    def test_conjunction_is_gapped_in_singlet(self, capsys):
        for prop in ("A.z.up & B.z.down", "\tA.z.up &\nB.z.down\n"):
            code, out, _ = run_cli(capsys, "valuate", "--prop", prop)
            assert code == 0 and out == "gap\n"

    def test_eigenstate_is_true(self, capsys):
        code, out, _ = run_cli(
            capsys, "valuate", "--prop", "A.z.up & B.z.down", "--state", "0,1,0,0"
        )
        assert code == 0 and out == "true\n"

    def test_outputs_are_stable(self, capsys):
        for args in (
            ("valuate", "--prop", "A.z.up & B.z.down ^ A.z.down & B.z.up"),
            ("valuate", "--prop", "A.z.up & B.z.down"),
            ("valuate", "--prop", "A.z.up & B.z.down", "--state", "0,1,0,0"),
        ):
            _, first, _ = run_cli(capsys, *args)
            _, second, _ = run_cli(capsys, *args)
            assert first == second

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "valuate", "--prop", "A.z.up & B.z.down", "--output", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert json.dumps(payload, indent=2) + "\n" == out
        assert payload["valuation"] == "gap"

    def test_zero_state_is_domain_error(self, capsys):
        code, out, err = run_cli(
            capsys, "valuate", "--prop", "A.z.up", "--state", "0,0,0,0"
        )
        assert code == 1
        assert err.startswith("error:")

    def test_zero_denominator_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "valuate", "--prop", "A.z.up", "--state", "1/0,1,0,0"
        )
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("output", ["table", "json"])
    @pytest.mark.parametrize("state", ["\u0661,0,0,0", "\uff11,0,0,0", "1,0,0,1/\u0662"])
    def test_non_ascii_digit_is_usage_error(self, capsys, output, state):
        code, out, err = run_cli(
            capsys, "valuate", "--prop", "A.z.up", "--state", state, "--output", output
        )
        assert code == 2 and out == ""
        assert err.startswith("usage error: not a Gaussian rational:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("output", ["table", "json"])
    @pytest.mark.parametrize(
        "state, bad", [("1 0,0,0,0", "1 0"), ("0,,1,0,0", ""), ("0,1,0,0,", ""), (",", "")]
    )
    def test_spaced_or_blank_entry_is_usage_error(self, capsys, output, state, bad):
        # A scalar is one token and every comma-separated slot holds one.
        code, out, err = run_cli(
            capsys, "valuate", "--prop", "A.z.up", "--state", state, "--output", output
        )
        assert (code, out) == (2, "")
        assert err == f"usage error: not a Gaussian rational: {bad!r}\n"

    @pytest.mark.parametrize("output", ["table", "json"])
    @pytest.mark.parametrize("argv", [("--state=",), ("--state", "")])
    def test_empty_state_is_usage_error(self, capsys, output, argv):
        # Only an omitted --state means the singlet.
        code, out, err = run_cli(capsys, "valuate", "--prop", "A.z.up", *argv, "--output", output)
        assert (code, out) == (2, "")
        assert err == "usage error: not a Gaussian rational: ''\n"

    @pytest.mark.parametrize("output", ["table", "json"])
    def test_numeral_past_the_int_string_limit_is_usage_error(self, capsys, output):
        state = "1" * 5000 + ",0,0,0"
        code, out, err = run_cli(capsys, "valuate", "--prop", "A.z.up", "--state", state, "--output", output)
        assert (code, out) == (2, "")
        assert err.startswith("usage error: numeral too long") and len(err.splitlines()) == 1

    def test_state_of_wrong_dimension_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "valuate", "--prop", "A.z.up", "--state", "1,0")
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and len(err.splitlines()) == 1

    def test_rational_state_entries(self, capsys):
        code, out, _ = run_cli(
            capsys, "valuate", "--prop", "A.z.up & B.z.down", "--state", "0,1/2,0,0"
        )
        assert code == 0 and out == "true\n"

    def test_bad_proposition_is_usage_error(self, capsys):
        # Only ASCII whitespace separates tokens, so the last three are no propositions.
        for prop in ("A.q.up", "\xa0A.z.up & B.z.down", "A.z.up\xa0& B.z.down", "A.z.up & B.z.down\u2003"):
            code, out, err = run_cli(capsys, "valuate", "--prop", prop)
            assert (code, out) == (2, "")
            assert err.startswith("usage error:")

    @pytest.mark.parametrize("prop", ["A.z.up &", "A.z.up ^", "(A.z.up &"])
    def test_proposition_ending_after_a_connective_is_usage_error(self, capsys, prop):
        code, out, err = run_cli(capsys, "valuate", "--prop", prop)
        assert (code, out) == (2, "")
        assert err.startswith("usage error: expected an atom, got ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("output", ["table", "json"])
    def test_proposition_at_the_operator_bound(self, capsys, output):
        chain = " & ".join(["A.z.up"] * (MAX_OPERATORS + 1))
        code, out, err = run_cli(capsys, "valuate", "--prop", chain, "--output", output)
        assert code == 0 and err == ""
        _, single, _ = run_cli(capsys, "valuate", "--prop", "A.z.up", "--output", output)
        if output == "json":
            out, single = json.loads(out), json.loads(single)
            assert out.pop("proposition") == chain and single.pop("proposition") == "A.z.up"
        assert out == single

    @pytest.mark.parametrize("output", ["table", "json"])
    @pytest.mark.parametrize(
        "prop",
        [
            " & ".join(["A.z.up"] * (MAX_OPERATORS + 2)),
            "(" * 329 + "A.z.up" + ")" * 329,
            " & ".join(["A.z.up"] * 986),
        ],
        ids=["one-past", "deep-nesting", "long-chain"],
    )
    def test_proposition_past_the_operator_bound_is_usage_error(self, capsys, output, prop):
        code, out, err = run_cli(capsys, "valuate", "--prop", prop, "--output", output)
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and len(err.splitlines()) == 1


class TestLattice:
    def test_meet_of_diff_ranges_is_singlet_ray(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "lattice", "--op", "meet", "--a", "0,1,0,0;0,0,1,0", "--b", "1,0,0,-1;0,1,-1,0",
        )
        assert code == 0 and out == "span{[0,1,-1,0]}\n"

    def test_complement(self, capsys):
        code, out, _ = run_cli(capsys, "lattice", "--op", "complement", "--a", "0,1,0,0")
        assert code == 0 and out == "span{[1,0,0,0], [0,0,1,0], [0,0,0,1]}\n"

    def test_leq_and_contains(self, capsys):
        code, out, _ = run_cli(
            capsys, "lattice", "--op", "leq", "--a", "0,1,0,0", "--b", "0,1,0,0;0,0,1,0"
        )
        assert code == 0 and out == "true\n"
        code, out, _ = run_cli(
            capsys, "lattice", "--op", "contains", "--a", "0,1,0,0;0,0,1,0", "--vector", "0,1,-1,0"
        )
        assert code == 0 and out == "true\n"

    @pytest.mark.parametrize("golden", ["meet", "complement", "join", "meet_nested", "meet_lines", "complement_line"])
    def test_height_1000_meet_matches_golden_output(self, capsys, golden):
        # Spans with entries of height up to 1000 whose basis rows start with a
        # negative entry, so given in the --a=... form; the meet has complex,
        # non-unit pivots while it is reduced. The complement of a and the join
        # of b with a's second row were recorded before lattice results were
        # stored without a second canonical-form check. The meet of a with its
        # own second row, where every row left below the block's pivots is
        # kept, and the zero meet of that row with b's second, where no row is
        # left, were recorded before meet eliminated forward only. The
        # complement of a's second row, of dimension 3, was recorded before
        # complements were read off the basis's integer forms.
        a = (
            "-485/106-3/148*i,-216/335+3/422*i,-155/89,475/488-845/256*i;"
            "-261/46,-273/391-358/309*i,-463/468+693/692*i,-258/137-190/339*i;"
            "985/451+761/246*i,-910/597,927/932-363/100*i,839/246-251/791*i"
        )
        b = (
            "-5354203/1649307-14298089/9211224*i,14901008257/5369599090-19087912815/6764091988*i,"
            "149638284221/20986880850+2180697139/471615300*i,-26548842815/13009241616+55466143409/6824520192*i;"
            "121/337-192/419*i,-835/154+223/219*i,79/56+39/16*i,53/9+973/795*i"
        )
        second = a.split(";")[1]
        operands = {
            "meet": (f"--a={a}", f"--b={b}"),
            "complement": (f"--a={a}",),
            "join": (f"--a={b}", f"--b={second}"),
            "meet_nested": (f"--a={a}", f"--b={second}"),
            "meet_lines": (f"--a={second}", f"--b={b.split(';')[1]}"),
            "complement_line": (f"--a={second}",),
        }
        op = golden.split("_")[0]
        code, out, err = run_cli(capsys, "lattice", "--op", op, *operands[golden], "--output", "json")
        assert code == 0 and err == ""
        assert out.encode() == (GOLDEN_DIR / f"lattice_{golden}_h1000_json.txt").read_bytes()

    def test_complement_of_the_zero_space_matches_golden_output(self, capsys):
        # The whole space, recorded before complements were read off the basis's integer forms.
        code, out, err = run_cli(capsys, "lattice", "--op", "complement", "--a", "0,0,0,0", "--output", "json")
        assert code == 0 and err == ""
        assert out.encode() == (GOLDEN_DIR / "lattice_complement_zero_json.txt").read_bytes()

    def test_join_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "lattice", "--op", "join", "--a", "1,1,0,0", "--b", "1,-1,0,0", "--output", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == [["1", "0", "0", "0"], ["0", "1", "0", "0"]]

    @pytest.mark.parametrize(
        "span,expected",
        [
            ("0,0,0,0", "span{[1,0,0,0], [0,1,0,0], [0,0,1,0], [0,0,0,1]}\n"),
            ("1,0,0,0;0,0,0,0", "span{[0,1,0,0], [0,0,1,0], [0,0,0,1]}\n"),
            ("1,0,0,0;", "span{[0,1,0,0], [0,0,1,0], [0,0,0,1]}\n"),
        ],
    )
    def test_zero_vectors_in_a_span_add_nothing(self, capsys, span, expected):
        code, out, err = run_cli(capsys, "lattice", "--op", "complement", "--a", span)
        assert (code, out, err) == (0, expected, "")

    def test_zero_span_is_the_zero_subspace(self, capsys):
        code, out, _ = run_cli(capsys, "lattice", "--op", "join", "--a", "0,0,0,0", "--b", "0,0,0,0")
        assert code == 0 and out == "span{}\n"
        code, out, _ = run_cli(capsys, "lattice", "--op", "contains", "--a", "0,0", "--vector", "1,0")
        assert code == 0 and out == "false\n"

    def test_span_rows_of_different_lengths_are_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "lattice", "--op", "complement", "--a", "1,0;0,0,1")
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "output,expected",
        [("table", "true\n"), ("json", '{\n  "op": "contains",\n  "result": true\n}\n')],
    )
    def test_zero_vector_is_in_every_span(self, capsys, output, expected):
        for span in ("1,0,0,0", "0,0,0,0"):
            code, out, err = run_cli(
                capsys, "lattice", "--op", "contains", "--a", span, "--vector", "0,0,0,0",
                "--output", output,
            )
            assert (code, out, err) == (0, expected, "")

    @pytest.mark.parametrize("output", ["table", "json"])
    @pytest.mark.parametrize("vector", ["1,0", "0,0", "1,0,0,0,0"])
    def test_vector_of_wrong_dimension_is_usage_error(self, capsys, output, vector):
        code, out, err = run_cli(
            capsys, "lattice", "--op", "contains", "--a", "1,0,0,0", "--vector", vector,
            "--output", output,
        )
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("output", ["table", "json"])
    @pytest.mark.parametrize(
        "flags",
        [
            ("--op", "complement", "--a", "1,,0,0,0"),
            ("--op", "complement", "--a", "1,0,0,0,"),
            ("--op", "complement", "--a", "1,0,0,0;0,1 0,0,0"),
            ("--op", "contains", "--a", "1,0,0,0", "--vector", "1,,0,0,0"),
            ("--op", "contains", "--a", "1,0,0,0", "--vector", "1,0,0,0,"),
        ],
    )
    def test_spaced_or_blank_entry_is_usage_error(self, capsys, output, flags):
        code, out, err = run_cli(capsys, "lattice", *flags, "--output", output)
        assert (code, out) == (2, "")
        assert err.startswith("usage error: not a Gaussian rational:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("op", ["meet", "join", "sum", "leq"])
    def test_spans_of_different_ambient_dimension_are_usage_error(self, capsys, op):
        code, out, err = run_cli(capsys, "lattice", "--op", op, "--a", "1,0", "--b", "1,0,0")
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and len(err.splitlines()) == 1

    def test_missing_operand_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "lattice", "--op", "meet", "--a", "0,1,0,0")
        assert code == 2
        assert "needs --b" in err

    @pytest.mark.parametrize("output", ["table", "json"])
    def test_numeral_past_the_int_string_limit_is_usage_error(self, capsys, output):
        span = "1/" + "1" * 5000 + ",0"
        code, out, err = run_cli(capsys, "lattice", "--op", "complement", "--a", span, "--output", output)
        assert (code, out) == (2, "")
        assert err.startswith("usage error: numeral too long") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("output", ["table", "json"])
    def test_result_too_long_to_print_is_domain_error(self, capsys, output):
        # Each 4000-digit entry parses, but the join's canonical basis has
        # entries of about 8000 digits, past the decimal printer's limit.
        rng = random.Random(10)
        a, b = (",".join(str(rng.randrange(10**3999, 10**4000)) for _ in range(3)) for _ in range(2))
        code, out, err = run_cli(capsys, "lattice", "--op", "join", "--a", a, "--b", b, "--output", output)
        assert (code, out) == (1, "")
        assert err == "error: scalar too long to print: more digits than the int-string limit\n"


class TestLeadingMinus:
    """argparse reads a value starting with '-' as a flag; the = form passes it as a value."""

    def test_separate_value_is_read_as_a_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lattice", "--op", "complement", "--a", "-1,0,0,0"])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err

    def test_span_in_the_equals_form(self, capsys):
        assert run_cli(capsys, "lattice", "--op", "complement", "--a=-1,0,0,0") == (
            0,
            "span{[0,1,0,0], [0,0,1,0], [0,0,0,1]}\n",
            "",
        )
        assert run_cli(capsys, "lattice", "--op", "leq", "--a=-1,0,0,0", "--b=-1,1,0,0") == (
            0,
            "false\n",
            "",
        )
        assert run_cli(
            capsys, "lattice", "--op", "contains", "--a=-1,0,0,0", "--vector=-2,0,0,0"
        ) == (0, "true\n", "")

    def test_state_in_the_equals_form(self, capsys):
        assert run_cli(capsys, "valuate", "--prop", "A.z.up", "--state=-1,1,0,0") == (0, "true\n", "")

    @pytest.mark.parametrize(
        "command,flags", [("valuate", ["--state"]), ("lattice", ["--a", "--b", "--vector"])]
    )
    def test_help_names_the_equals_form(self, capsys, command, flags):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for flag in flags:
            assert f"a value starting with '-' needs the = form, e.g. {flag}=-1," in text


class TestPaperCheck:
    def test_exit_zero_despite_mismatches(self, capsys):
        code, out, err = run_cli(capsys, "paper-check")
        assert code == 0 and err == ""
        assert "eq25_matrix" in out
        assert "eq37_final" in out
        assert "27 fixtures: 21 match, 6 mismatch" in out

    def test_json_records(self, capsys):
        code, out, _ = run_cli(capsys, "paper-check", "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert json.dumps(payload, indent=2) + "\n" == out
        assert len(payload["fixtures"]) == 27
        statuses = {f["label"]: f["status"] for f in payload["fixtures"]}
        assert statuses["eq25_matrix"] == "MATCH"
        assert statuses["eq37_final"] == "MISMATCH"

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "paper-check")
        _, second, _ = run_cli(capsys, "paper-check")
        assert first == second

    def test_empty_audit_is_reported_in_both_modes(self, capsys, monkeypatch):
        monkeypatch.setattr(fixtures, "load_fixture_entries", lambda: ())
        audit.cache_clear()
        try:
            code, out, err = run_cli(capsys, "paper-check")
            assert code == 0 and err == ""
            assert out.endswith("0 fixtures: 0 match, 0 mismatch\n")
            code, out, err = run_cli(capsys, "paper-check", "--output", "json")
            assert code == 0 and err == "" and out == '{\n  "fixtures": []\n}\n'
            code, out, err = run_cli(capsys, "epr-run")
            assert code == 0 and err == ""
            assert "fixture audit: 0/0 transcribed displays match" in out
        finally:
            audit.cache_clear()


# Pieces of the CLI grammar, put together into valid input, near misses and
# garbage.
COMMAND_FLAGS = {
    "epr-run": ["--axis", "--query", "--semantics", "--output"],
    "valuate": ["--prop", "--state", "--output"],
    "lattice": ["--op", "--a", "--b", "--vector", "--output"],
    "paper-check": ["--output"],
}
REQUIRED = {"valuate": ["--prop"], "lattice": ["--op", "--a"]}
ATOMS = [f"{p}.{a}.{d}" for p in "AB" for a in "xyz" for d in ("up", "down")] + ["A.w.up"]
CONNECTIVES = [" & ", " ^ ", "&", "^"]
SCALARS = ["0", "1", "-1", "1/2", "i", "-i", "1+i", "2/3-1/2*i", "1/0", "x", " ", "1 0", ",,", "\xa0"]
WORDS = {
    "--axis": ["x", "y", "z", "w"],
    "--semantics": ["super", "classical", "both"],
    "--output": ["table", "json"],
    "--op": ["meet", "join", "sum", "complement", "leq", "contains"],
}
ALL_PIECES = sorted(
    {*ATOMS, *CONNECTIVES, *SCALARS, "(", ")", ",", ";", *itertools.chain(*WORDS.values())}
)

prop_st = st.recursive(
    st.sampled_from(ATOMS),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(CONNECTIVES), inner).map("".join),
        inner.map(lambda text: f"({text})"),
    ),
    max_leaves=6,
)
vector_st = st.lists(st.sampled_from(SCALARS), min_size=1, max_size=5).map(",".join)
VALUES = {
    **{flag: st.sampled_from(words) for flag, words in WORDS.items()},
    "--query": st.lists(st.sampled_from(ATOMS), max_size=6).map(",".join),
    "--prop": prop_st,
    "--state": vector_st,
    "--a": st.lists(vector_st, min_size=1, max_size=3).map(";".join),
    "--b": st.lists(vector_st, min_size=1, max_size=3).map(";".join),
    "--vector": vector_st,
}
garbage_st = st.lists(st.sampled_from(ALL_PIECES), max_size=8).map("".join)


# A flag gets a value by its own rule three times in four, garbage otherwise;
# a command gets one of its own flags three times in four, any flag otherwise.
def _option(flag):
    own = VALUES[flag]
    return st.tuples(st.just(flag), st.one_of(own, own, own, garbage_st))


def _argv(command):
    own = st.sampled_from(COMMAND_FLAGS[command])
    flag_st = st.one_of(own, own, own, st.sampled_from(sorted(VALUES)))
    required = st.tuples(*map(_option, REQUIRED.get(command, [])))
    extra = st.lists(flag_st.flatmap(_option), max_size=3)
    return st.tuples(required, extra).map(
        lambda parts: [command, *(word for option in (*parts[0], *parts[1]) for word in option)]
    )


argv_st = st.one_of(
    st.sampled_from(list(COMMAND_FLAGS)).flatmap(_argv),
    st.just(["frobnicate"]),
    st.just(["valuate", "--help"]),
)


@settings(max_examples=300, deadline=None)
@given(argv_st)
def test_no_argv_gives_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse reports usage errors and --help this way
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
