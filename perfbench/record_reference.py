"""Record the reference answers that the epr_mix and cli_cold checkers use.

    PYTHONPATH=src python3 perfbench/record_reference.py

Run once, at the commit whose answers are the reference; the output lands in
``perfbench/reference/``. ``epr.json`` holds, per verification axis, the
states and valuations of a run and each atom's classical and
supervaluational value set; any query's populations are cross products of
these. ``cli.json`` holds the cli_cold catalog: for each command its slot,
argv, exit code, stdout and stderr. Known-defect commands carry the
documented answer instead of the recorded one, and what was observed.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys

import exact
import workloads as w
from qgap import Atom, Axis, Direction, Particle, run_epr
from qgap.scenario import render_report

CATALOG_SEED = "cli-catalog"
VARIANTS = 6
MALFORMED = [
    ["valuate", "--prop", "A.z.up &"],
    ["valuate", "--prop", "A.q.up"],
    ["valuate", "--prop", "A.z.up & A.x.up"],
    ["valuate", "--prop", "A.z.up ^ A.x.up", "--output", "json"],
    ["epr-run", "--axis", "w"],
    ["epr-run", "--query", "B.z.sideways"],
    ["lattice", "--op", "meet", "--a", "1,0,0,0"],
    ["lattice", "--op", "contains", "--a", "1,0,0,0;0,1,0,0"],
]


def _atom(text):
    p, a, d = text.split(".")
    return Atom(Particle(p), Axis(a), Direction(d))


def record_epr() -> dict:
    axes = {}
    fixtures = None
    for axis in w.AXES:
        entry = None
        for atom in w.ATOMS:
            out = w.serialize_report(run_epr(Axis(axis), (_atom(atom),)))
            if entry is None:
                entry = {k: out[k] for k in ("verified", "prepared", "post", "pre", "post_vals")}
                entry.update(classical={}, super={})
                fixtures = out["fixtures"]
            assert all(out[k] == entry[k] for k in ("verified", "prepared", "post", "pre", "post_vals"))
            assert out["fixtures"] == fixtures
            entry["classical"][atom] = [t[0] for t in out["classical"][1]]
            entry["super"][atom] = [t[0] for t in out["super"][1]]
        axes[axis] = entry
    ref = {"axes": axes, "fixtures": fixtures}

    # Populations are per-atom cross products; confirm on multi-atom queries.
    rng = random.Random("epr-reference-check")
    for _ in range(20):
        axis, query = _epr_query(rng)
        out = w.serialize_report(run_epr(Axis(axis), tuple(_atom(a) for a in query)))
        assert out == w.expected_epr((axis, query), ref), (axis, query)
    golden = (w.ROOT / "tests" / "golden" / "epr_run_both.txt").read_text()
    report = run_epr(Axis.Z, (_atom("B.z.down"), _atom("B.x.up")))
    assert render_report(report, "both") == golden
    return ref


def _epr_query(rng):
    return rng.choice(w.AXES), tuple(rng.sample(w.ATOMS, rng.randint(1, 6)))


def _valuate_case(rng):
    tree = w.proposition_tree(rng, rng.randint(1, 4))
    return tree, w.valuate_state(rng, rng.choice(w.STATE_KINDS))


def _span_text(vectors):
    return ";".join(",".join(exact.to_text(e) for e in v) for v in vectors)


def catalog_argv(rng):
    """The argv of every catalog command, by slot."""
    argv = []
    for output in ("table", "json"):
        for _ in range(VARIANTS):
            axis, query = _epr_query(rng)
            query = query[: rng.randint(1, 3)]
            semantics = rng.choice(("both", "classical", "super"))
            argv.append((f"epr-run/{output}", [
                "epr-run", "--axis", axis, "--query", ",".join(query),
                "--semantics", semantics, "--output", output,
            ]))
        for _ in range(VARIANTS):
            tree, state = _valuate_case(rng)
            cmd = ["valuate", "--prop", w.tree_text(tree)]
            if rng.random() < 0.5:
                cmd += ["--state", ",".join(exact.to_text(e) for e in state)]
            argv.append((f"valuate/{output}", cmd + ["--output", output]))
        for _ in range(VARIANTS):
            op = rng.choice(("meet", "join", "sum", "complement", "leq", "contains"))
            a = [w.random_vector(rng, 2) for _ in range(rng.randint(1, 3))]
            cmd = ["lattice", "--op", op, "--a", _span_text(a)]
            if op == "contains":
                cmd += ["--vector", _span_text([w.random_vector(rng, 2)])]
            elif op != "complement":
                cmd += ["--b", _span_text([w.random_vector(rng, 2) for _ in range(rng.randint(1, 3))])]
            argv.append((f"lattice/{output}", cmd + ["--output", output]))
        argv.append((f"paper-check/{output}", ["paper-check", "--output", output]))
    argv += [("malformed", cmd) for cmd in MALFORMED]
    for _ in range(VARIANTS):
        rest = ",".join(exact.to_text(w.random_entry(rng, 2)) for _ in range(3))
        argv.append(("known-defect", ["valuate", "--prop", rng.choice(w.ATOMS), "--state", f"1/0,{rest}"]))
    argv.append(("cold", w.CLI_COLD_ARGV))
    return argv


def record_cli() -> dict:
    catalog = []
    env = w.child_env()
    for slot, argv in catalog_argv(random.Random(CATALOG_SEED)):
        proc = subprocess.run(
            [sys.executable, "-m", "qgap.cli", *argv],
            cwd=w.ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        entry = {"slot": slot, "argv": argv}
        if slot == "known-defect":
            # ROADMAP "Known defects": a 1/0 entry must be a usage error (exit 2).
            entry.update(
                known_defect=True, code=2, stdout="", stderr_prefix="usage error:",
                observed={"code": proc.returncode, "stderr_last_line": proc.stderr.strip().splitlines()[-1]},
            )
        else:
            assert "Traceback" not in proc.stderr, (argv, proc.stderr)
            entry.update(code=proc.returncode, stdout=proc.stdout, stderr=proc.stderr)
        catalog.append(entry)
    return {"catalog": catalog}


def main():
    w.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, data in (("epr.json", record_epr()), ("cli.json", record_cli())):
        text = json.dumps(data, indent=1, sort_keys=True) + "\n"
        (w.REFERENCE_DIR / name).write_text(text, "utf-8")


if __name__ == "__main__":
    main()
