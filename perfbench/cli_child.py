"""Run one qgap CLI command in this fresh interpreter and report on it.

    python perfbench/cli_child.py time  ARGV...   # import and main(argv) times
    python perfbench/cli_child.py trace ARGV...   # the same under the tracer

``import qgap.cli`` and ``main(argv)`` are timed separately; the caller
subtracts both from the process wall time to get the interpreter's share.
The command's stdout, stderr and exit code are captured as ``python -m
qgap.cli`` would produce them, and the last line printed is one JSON object.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback
from time import perf_counter


def _run_main(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # an uncaught error is what the CLI would print
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def main(argv: list[str]) -> None:
    mode, cli_argv = argv[0], argv[1:]
    t0 = perf_counter()
    import qgap.cli

    import_s = perf_counter() - t0
    report: dict = {}
    if mode == "trace":
        import tracer as tracing

        tr = tracing.Tracer()
        with tr:
            tr.op = 0
            t1 = perf_counter()
            code, stdout, stderr = _run_main(qgap.cli.main, cli_argv)
            main_s = perf_counter() - t1
        cache = tr.originals["scenario.atom_projector"].cache_info()
        report.update(
            spans=tr.spans,
            counts=dict(tr.counts),
            atom_projector=[cache.hits, cache.misses],
            scalar_ns=tracing.scalar_timings(tr),
        )
    else:
        t1 = perf_counter()
        code, stdout, stderr = _run_main(qgap.cli.main, cli_argv)
        main_s = perf_counter() - t1
    report.update(
        code=code, stdout=stdout, stderr=stderr,
        import_ms=1000 * import_s, main_ms=1000 * main_s,
    )
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
