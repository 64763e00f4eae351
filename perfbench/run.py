"""Benchmark entry point: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload epr_mix --seed 1 --seconds 15 --trace 0

Run it from the root of a qgap checkout; qgap is imported from ``src`` with
no install. With ``--trace 0`` the run is ``ROUNDS`` rounds, each a fresh
interpreter (``worker.py``), one process at a time, each taking the next
whole decks of the seed's inputs for its share of ``--seconds``. Every time
is taken at reference speed (``speed.py``): scaled by a fixed kernel timed
next to it, because the shared host's speed swings for seconds to minutes.
Each round's set-up is one ``setup_s`` sample; the op times of all rounds
are pooled. The result holds the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` one traced worker gives its per-layer metrics. Readable lines come first; the last line of standard
output is the JSON object. The same result, with the Python version, git
SHA and CPU count, is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("epr_mix", "valuate_mix", "lattice_mix", "cli_cold")
ROUNDS = 3
DEADLINE_S = 175.0


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def tail(latencies):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). Nearest-rank percentiles;
    with fewer than twenty samples that percentile would lie below the
    median, so the median (the 50th) is returned instead.
    """
    n = len(latencies)
    ordered = sorted(latencies)
    pct = max(50, (100 * (n - 10)) // n)
    rank = max(1, math.ceil(pct * n / 100))
    return ordered[rank - 1], pct, n - rank


def spawn_worker(args, seconds, skip, env, deadline):
    """Start one worker; return (raw seconds until READY, its JSON report)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        args.workload, str(args.seed), str(seconds), str(args.trace), str(skip),
    ]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - perf_counter()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready.strip() != "READY":
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return setup_s, json.loads(rest.splitlines()[-1])


def setup_at_reference(raw_s, kernel_s):
    """A set-up time less its two kernel passes, scaled by their mean."""
    before, after = kernel_s
    return (raw_s - before - after) * 2 * speed.REFERENCE_S / (before + after)


def combine(rounds, raw_setups):
    """End-to-end metrics from the pooled ops of all rounds."""
    op_s = [t for r in rounds for t in r["scaled"]]
    raw_op_s = [t for r in rounds for t in r["latencies"]]
    good = sum(ok for r in rounds for ok in r["ok"])
    value, pct, beyond = tail(op_s)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    setups = [setup_at_reference(raw, r["setup_kernel_s"]) for raw, r in zip(raw_setups, rounds)]
    metrics = {
        "throughput_ops_s": good / sum(op_s),
        "latency_p50_ms": 1000 * statistics.median(op_s),
        "latency_tail_ms": 1000 * value,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    kernel = [k for r in rounds for k in r["kernel_s"]]
    extra = {
        "failed_ratio": failed / attempted,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "samples": len(op_s),
        "rounds": len(rounds),
        "round_timed_s": [sum(r["latencies"]) for r in rounds],
        "setup_samples_s": setups,
        "raw_setup_samples_s": raw_setups,
        "raw_throughput_ops_s": good / sum(raw_op_s),
        "raw_latency_p50_ms": 1000 * statistics.median(raw_op_s),
        "raw_latency_tail_ms": 1000 * tail(raw_op_s)[0],
        "host_slowdown": statistics.median(kernel) / speed.REFERENCE_S,
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "unexpected": sum(r["unexpected"] for r in rounds),
        "metrics": metrics,
        "extra": extra,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qgap" / "__init__.py").is_file():
        print(f"perfbench: no qgap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    from workloads import child_env

    env = child_env()
    deadline = perf_counter() + DEADLINE_S
    env_info = environment()
    # One CPU for this process and every child, so each op runs where the
    # speed kernel that scales it ran.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.trace:
        _, out = spawn_worker(args, args.seconds, 0, env, deadline)
        cold_ok = out["cold_ok"]
    else:
        setups, rounds, skip = [], [], 0
        for _ in range(ROUNDS):
            setup_s, report = spawn_worker(args, args.seconds / ROUNDS, skip, env, deadline)
            setups.append(setup_s)
            rounds.append(report)
            skip += len(report["latencies"])
        cold_ok = all(r["cold_ok"] for r in rounds)
        out = combine(rounds, setups)
    metrics = {m["name"]: {"value": out["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": cold_ok and out["unexpected"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    extra = out["extra"]

    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
        f" python={env_info['python']} git={env_info['git_sha']} nproc={env_info['nproc']}"
    )
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.4f} {m['unit']}")
    if not args.trace:
        print(
            f"  tail is p{extra['tail_percentile']} of {extra['samples']} samples"
            f" ({extra['tail_samples_beyond']} beyond);"
            f" failed_ratio {extra['failed_ratio']:.4f} ({out['failed']} of {out['attempted']},"
            f" {out['unexpected']} unexpected)"
        )
        print(
            f"  host ran {extra['host_slowdown']:.2f}x the reference kernel time; unscaled:"
            f" throughput {extra['raw_throughput_ops_s']:.4f} 1/s, p50 {extra['raw_latency_p50_ms']:.4f} ms,"
            f" tail {extra['raw_latency_tail_ms']:.4f} ms"
        )
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env_info, extra=extra)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=2) + "\n", "utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
