"""Replay the benchmark's recorded answers and judge them with its own checkers.

``perfbench/reference/cli.json`` holds the exit code, stdout and stderr of
every command the ``cli_cold`` workload runs, and ``epr.json`` the per-atom
value sets that ``epr_mix`` builds its expected reports from. Both are read
here, never written.
"""

import importlib
import itertools
import subprocess
import sys

import pytest

import tracer
import workloads
import qgap
from qgap import Axis, GaussianRational, parse_atom, run_epr
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


# Named by the tracer for code that no longer exists; no span can carry them.
STALE_TRACED_NAMES = {"linalg.Matrix.kernel_basis", "linalg.Matrix.inverse"}


def _defined_at(name):
    """Whether a traced name resolves to code whose module and qualname are that name."""
    layer, *path = name.split(".")
    obj = importlib.import_module(f"qgap.{layer}")
    for attr in path:
        obj = getattr(obj, attr, None)
        if obj is None:
            return False
    return obj.__module__ == f"qgap.{layer}" and obj.__qualname__ == ".".join(path)


def test_the_names_the_benchmark_reads_resolve_where_the_tracer_looks():
    traced = {n for names in tracer.SPAN_GROUPS.values() for n in names} | tracer.COUNTED_FUNCTIONS
    assert {n for n in traced if not _defined_at(n)} == STALE_TRACED_NAMES
    assert set(tracer.SCALAR_COUNTS) <= set(GaussianRational.__dict__)
    assert callable(qgap.scenario.atom_projector.cache_info)
    assert run_epr(Axis.Z, []).fixture_summary == qgap.audit_summary()
    assert callable(qgap.scenario.render_report) and callable(qgap.audit)
