"""One benchmark operation, run in a fresh interpreter.

    worker.py MODE RESULT_FD OP_ID TRACE [ARGS...]

MODE is ``pipeline`` (ARGS: WINDOW), ``cli`` (ARGS: the d4check command line),
or ``import-pipeline`` / ``import-cli`` (a set-up probe: import, then exit).
The worker first imports the d4check modules the mode uses and notes the
CLOCK_MONOTONIC time, which the harness compares with the time it spawned
the worker. TRACE is ``0``, or a JSON object ``{"distinct": [function ids
whose distinct arguments are counted], "keep_spans": N}`` that installs the
layer tracer and returns its summary with the first N spans. It writes one
JSON object to RESULT_FD; in ``cli`` mode the report goes to stdout and the
exit status is the CLI's.
"""

import os
import sys
import time


def main(argv: list[str]) -> int:
    mode, result_fd, op_id, trace_spec = argv[1], int(argv[2]), int(argv[3]), argv[4]
    if mode.endswith("cli"):
        import d4check.cli
    else:
        import d4check
        import d4check.report
    imported = time.clock_gettime(time.CLOCK_MONOTONIC)

    import json

    out: dict = {"imported": imported}
    code = 0
    if mode in ("pipeline", "cli"):
        tracer = None
        if trace_spec != "0":
            from tracer import Tracer

            spec = json.loads(trace_spec)
            tracer = Tracer(op_id, frozenset(spec["distinct"]))
            tracer.install()
        if mode == "pipeline":
            from d4check import obstruct, report

            window = int(argv[5])
            start = time.perf_counter_ns()
            rep = obstruct.theorem_pipeline(window=window)
            text = report.render(rep, "text")
            js = report.render(rep, "json")
            region_ns = time.perf_counter_ns() - start
            out.update(text=text, json=js)
        else:
            start = time.perf_counter_ns()
            try:
                code = d4check.cli.main(argv[5:])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            region_ns = time.perf_counter_ns() - start
            sys.stdout.flush()
        out["region_ns"] = region_ns
        if tracer is not None:
            out["trace"] = tracer.summary(region_ns, spec["keep_spans"])
    with os.fdopen(result_fd, "w") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
