"""Replay the benchmark's recorded answers and judge them with its own checkers.

``perfbench/reference/cli.json`` holds the exit code, stdout and stderr of
every command the ``cli_cold`` workload runs, and ``epr.json`` the per-atom
value sets that ``epr_mix`` builds its expected reports from. Both are read
here, never written.
"""

import itertools
import subprocess
import sys

import pytest

import workloads
from qgap import Axis, parse_atom, run_epr
from qgap.cli import main

CATALOG = workloads.load_reference("cli.json")["catalog"]
EPR_REFERENCE = workloads.load_reference("epr.json")


def _run_in_process(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse reports usage errors this way
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: " ".join(e["argv"]))
def test_cli_reproduces_the_recorded_answer(monkeypatch, capsys, entry):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to the terminal width
    assert workloads.check_cli(entry, _run_in_process(capsys, entry["argv"]))


def test_cold_process_reproduces_the_recorded_answer():
    entry = next(e for e in CATALOG if e["argv"] == workloads.CLI_COLD_ARGV)
    proc = subprocess.run(
        [sys.executable, "-m", "qgap.cli", *entry["argv"]],
        cwd=workloads.ROOT, env=workloads.child_env(), capture_output=True, text=True, timeout=120,
    )
    assert workloads.check_cli(entry, (proc.returncode, proc.stdout, proc.stderr))


def _judge_epr(axis, query):
    report = run_epr(Axis(axis), [parse_atom(a) for a in query])
    return workloads.check_epr((axis, tuple(query)), workloads.serialize_report(report), EPR_REFERENCE)


@pytest.mark.parametrize("axis", workloads.AXES)
@pytest.mark.parametrize("atom", workloads.ATOMS)
def test_single_atom_run_matches_the_reference(axis, atom):
    assert _judge_epr(axis, (atom,))


def test_benchmark_queries_match_the_reference():
    for axis, query in itertools.islice(workloads.inputs("epr_mix", 1), 3 * len(workloads.EPR_SIZES)):
        assert _judge_epr(axis, query), (axis, query)

