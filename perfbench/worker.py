"""One measured CLI invocation in a fresh interpreter.

Usage: python3 worker.py SRC_DIR TRACE CLI_ARG...

Imports ``switchcert.cli`` from SRC_DIR first thing, so the parent can time
interpreter start to import done, then runs ``switchcert.cli.main`` on the
given arguments with its standard output captured.  With TRACE = 1 the
layers are wrapped in spans (see ``tracing``) before ``main`` runs.  The last
line of standard output is a JSON report: the monotonic time the import
finished, the exit code, the in-process wall and CPU time of ``main``, the
peak RSS and, when traced, the per-layer metrics.
"""
import sys
import time

sys.path.insert(0, sys.argv[1])
import switchcert.cli  # noqa: E402

IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def main() -> int:
    src, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    if not os.path.realpath(switchcert.cli.__file__).startswith(os.path.realpath(src) + os.sep):
        sys.stderr.write(f"switchcert was imported from {switchcert.cli.__file__}, not {src}\n")
        return 1
    cli_main = switchcert.cli.main
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        cli_main = tracer.wrap(cli_main, tracing.ROOT_SPAN)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        cpu_started = time.process_time()
        started = time.perf_counter()
        code = cli_main(argv)
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu_started
    report = {
        "imported": IMPORTED,
        "exit_code": code,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        report["layers"] = tracing.layer_metrics(tracer)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
