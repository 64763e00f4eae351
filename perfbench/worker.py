"""One workload in one fresh interpreter: set up, signal, then measure.

    python perfbench/worker.py WORKLOAD SEED SECONDS TRACE SKIP

Set-up is ``import qgap`` and one untimed cold op. The worker then prints
``READY``, and the parent takes the time from spawning it to that line as
one set-up sample, less the two speed-kernel passes (``speed.py``) run
before and after set-up, whose mean scales it. The cold op's answer is
checked after that. The last line printed is one JSON object with
``cold_ok``, the two kernel times and the measurement:

* TRACE 0: one round, a closed loop over whole decks of inputs from input
  SKIP on, until the ops have taken SECONDS at reference speed (or
  ``WALL_CAP`` times that in wall time, on a very slow host); each op is
  timed alone and checked after its timer stops, and every op's time, its
  time at reference speed and its verdict are reported in input order;
* TRACE 1: the workload's first ``trace_ops`` inputs, each run once plain
  and once under the tracer, giving per-layer totals per op and the
  overhead.
"""

from __future__ import annotations

import itertools
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import speed
import tracer as tracing
import workloads

OUT_DIR = workloads.ROOT / ".perfbench_out"
MAX_LOGGED_FAILURES = 5
WALL_CAP = 1.5
CLI_METRICS = ("cli.import_ms", "cli.main_ms", "cli.interpreter_ms")


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


class Outcomes:
    """Counts attempted, failed and unexpectedly failed ops."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = self.failed = self.unexpected = self.logged = 0

    def record(self, inp, result) -> bool:
        ok = False
        if not isinstance(result, BaseException):
            try:
                ok = self.wl.check(inp, self.wl.serialize(result))
            except Exception as exc:  # a malformed answer is a wrong answer
                result = exc
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not self.wl.known_defect(inp):
                self.unexpected += 1
                if self.logged < MAX_LOGGED_FAILURES:
                    self.logged += 1
                    print(f"FAILED {self.wl.name}: {inp!r:.300} -> {result!r:.300}", file=sys.stderr)
        return ok

    def as_dict(self):
        return {"attempted": self.attempted, "failed": self.failed, "unexpected": self.unexpected}


def call(wl, prepared):
    t0 = perf_counter()
    try:
        result = wl.run(prepared)
    except Exception as exc:  # an op that raises has failed
        result = exc
    return result, perf_counter() - t0


def timed_run(wl, seconds, skip):
    outcomes = Outcomes(wl)
    clock = speed.Clock()
    latencies, marks, ok = [], [], []
    stream = itertools.islice(wl.inputs(), skip, None)
    start, at_reference = perf_counter(), 0.0
    while len(latencies) % wl.deck or (
        at_reference < seconds and perf_counter() - start < WALL_CAP * seconds
    ):
        inp = next(stream)
        marks.append(clock.mark())
        result, dt = call(wl, wl.prepare(inp))
        latencies.append(dt)
        at_reference += dt * speed.REFERENCE_S / clock.samples[marks[-1]]
        ok.append(outcomes.record(inp, result))
    clock.close()
    scaled = [dt * clock.scale(m) for dt, m in zip(latencies, marks)]
    rss = peak_rss_mb(children=isinstance(wl, workloads.CliCold))
    return {
        **outcomes.as_dict(),
        "latencies": latencies,
        "scaled": scaled,
        "ok": ok,
        "peak_rss_mb": rss,
        "kernel_s": clock.samples,
    }


def _per_op(totals, n):
    return {k: v / n for k, v in totals.items()}


def _library_trace(wl, prefix, outcomes):
    """Each op once plain and once traced; which goes first alternates."""
    prepared = [wl.prepare(inp) for inp in prefix]
    tr = tracing.Tracer()
    untraced = traced = 0.0
    hits = misses = 0
    for i, (inp, args) in enumerate(zip(prefix, prepared)):
        for under_tracer in (False, True) if i % 2 == 0 else (True, False):
            if under_tracer:
                with tr:
                    tr.op = i
                    lru = tr.originals["scenario.atom_projector"]
                    before = lru.cache_info()
                    result, dt = call(wl, args)
                    after = lru.cache_info()
                traced += dt
                hits += after.hits - before.hits
                misses += after.misses - before.misses
            else:
                result, dt = call(wl, args)
                untraced += dt
            outcomes.record(inp, result)
    layer = {
        **tracing.layer_totals(tr.spans, tr.counts),
        "scenario.atom_projector_hits": hits,
        "scenario.atom_projector_misses": misses,
    }
    return tr.spans, layer, tracing.scalar_timings(tr), dict.fromkeys(CLI_METRICS, 0.0), untraced, traced


def _cli_trace(wl, prefix, outcomes):
    untraced = traced = 0.0
    cli = dict.fromkeys(CLI_METRICS, 0.0)
    spans, counts, hits, misses, mul_ns, add_ns = [], {}, 0, 0, [], []
    for i, entry in enumerate(prefix):
        report, wall = wl.run_child("time", entry["argv"])
        untraced += wall
        outcomes.record(entry, (report["code"], report["stdout"], report["stderr"]))
        cli["cli.import_ms"] += report["import_ms"]
        cli["cli.main_ms"] += report["main_ms"]
        cli["cli.interpreter_ms"] += 1000 * wall - report["import_ms"] - report["main_ms"]

        report, wall = wl.run_child("trace", entry["argv"])
        traced += wall
        outcomes.record(entry, (report["code"], report["stdout"], report["stderr"]))
        offset = len(spans)
        for name, start, end, parent, _ in report["spans"]:
            spans.append([name, start, end, parent + offset if parent >= 0 else -1, i])
        for key, n in report["counts"].items():
            counts[key] = counts.get(key, 0) + n
        hits += report["atom_projector"][0]
        misses += report["atom_projector"][1]
        if report["scalar_ns"]["scalars.mul_ns"]:
            mul_ns.append(report["scalar_ns"]["scalars.mul_ns"])
            add_ns.append(report["scalar_ns"]["scalars.add_ns"])
    layer = {
        **tracing.layer_totals(spans, counts),
        "scenario.atom_projector_hits": hits,
        "scenario.atom_projector_misses": misses,
    }
    scalar_ns = {
        "scalars.mul_ns": statistics.median(mul_ns) if mul_ns else 0.0,
        "scalars.add_ns": statistics.median(add_ns) if add_ns else 0.0,
    }
    return spans, layer, scalar_ns, cli, untraced, traced


def traced_run(wl, audit_ms, seed):
    outcomes = Outcomes(wl)
    prefix = list(itertools.islice(wl.inputs(), wl.trace_ops))
    run = _cli_trace if isinstance(wl, workloads.CliCold) else _library_trace
    spans, layer, scalar_ns, cli, untraced, traced = run(wl, prefix, outcomes)
    n = len(prefix)
    hits, misses = layer["scenario.atom_projector_hits"], layer["scenario.atom_projector_misses"]
    metrics = {
        **_per_op(layer, n),
        **scalar_ns,
        "scenario.atom_projector_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "fixtures.audit_ms": audit_ms or 0.0,
        **_per_op(cli, n),
        "trace.untraced_ops_s": n / untraced,
        "trace.traced_ops_s": n / traced,
        "trace.overhead_pct": 100 * (traced - untraced) / traced,
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl", "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    return {**outcomes.as_dict(), "metrics": metrics, "extra": {"trace_ops": n, "spans": len(spans)}}


def main(argv):
    name, seed, seconds, trace, skip = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", int(argv[4])
    kernel_before = speed.kernel_s()
    wl = workloads.WORKLOADS[name](seed)
    qgap_home = Path(wl.qgap.__file__).resolve().parent
    if qgap_home != workloads.SRC / "qgap":
        raise SystemExit(f"qgap imported from {qgap_home}, expected the checkout's src/qgap")
    audit_ms = None
    if trace and wl.uses_audit:
        t0 = perf_counter()
        wl.qgap.audit()
        audit_ms = 1000 * (perf_counter() - t0)
    result, _ = call(wl, wl.prepare(wl.cold_input))
    setup_kernel_s = [kernel_before, speed.kernel_s()]
    print("READY", flush=True)
    cold_ok = Outcomes(wl).record(wl.cold_input, result)
    out = traced_run(wl, audit_ms, seed) if trace else timed_run(wl, seconds, skip)
    print(json.dumps({"cold_ok": cold_ok, "setup_kernel_s": setup_kernel_s, **out}))


if __name__ == "__main__":
    main(sys.argv[1:])
