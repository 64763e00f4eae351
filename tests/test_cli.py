import json
from pathlib import Path

import pytest

from qgap.cli import main

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
        code, out, _ = run_cli(capsys, "valuate", "--prop", "A.z.up & B.z.down")
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

    def test_rational_state_entries(self, capsys):
        code, out, _ = run_cli(
            capsys, "valuate", "--prop", "A.z.up & B.z.down", "--state", "0,1/2,0,0"
        )
        assert code == 0 and out == "true\n"

    def test_bad_proposition_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "valuate", "--prop", "A.q.up")
        assert code == 2
        assert err.startswith("usage error:")


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

    def test_join_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "lattice", "--op", "join", "--a", "1,1,0,0", "--b", "1,-1,0,0", "--output", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == [["1", "0", "0", "0"], ["0", "1", "0", "0"]]

    def test_missing_operand_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "lattice", "--op", "meet", "--a", "0,1,0,0")
        assert code == 2
        assert "needs --b" in err


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
