"""Run every workload once and print one table of its metrics.

    python3 perfbench/report.py --seed 1 --seconds 20 [--trace 1]

Each workload runs through ``run.py``, one after another; the table has one
row per metric, with its unit, and one column per workload. It ends with
``correct``, ``attempted``, ``failed`` and ``failed_ratio``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("epr_mix", "valuate_mix", "lattice_mix", "cli_cold")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    results = {}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])

    first = results[WORKLOADS[0]]["metrics"]
    print(f"{'metric':<40} {'unit':<9}" + "".join(f"{n:>14}" for n in WORKLOADS))
    for metric, spec in first.items():
        row = "".join(f"{results[n]['metrics'][metric]['value']:>14.4f}" for n in WORKLOADS)
        print(f"{metric:<40} {spec['unit']:<9}{row}")
    for key in ("correct", "attempted", "failed"):
        print(f"{key:<50}" + "".join(f"{str(results[n][key]):>14}" for n in WORKLOADS))
    ratios = (results[n]["failed"] / results[n]["attempted"] for n in WORKLOADS)
    print(f"{'failed_ratio':<50}" + "".join(f"{r:>14.4f}" for r in ratios))
    return 0


if __name__ == "__main__":
    sys.exit(main())
