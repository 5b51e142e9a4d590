"""One cold `entwit` invocation, run in a fresh interpreter by run.py.

Usage: python3 bench/child.py RESULT_JSON TRACE(0|1) ARGV...

Times ``import entwit.cli`` (numpy included), then ``entwit.cli.main(ARGV)``
with the clock started after the imports, and writes the timings, exit
code, peak resident memory and CPU time to RESULT_JSON. With TRACE=1 the
tracer from tracer.py wraps the package first and its per-layer metrics go
into the result too. Without ARGV only the import is timed.
"""

import time

T_START = time.perf_counter()
import entwit.cli  # noqa: E402

T_IMPORTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main() -> int:
    out_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(entwit.cli.__file__).startswith(src + os.sep):
        print(f"entwit imported from {entwit.cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    if not argv:
        with open(out_path, "w") as fh:
            json.dump({"import_s": T_IMPORTED - T_START}, fh)
        return 0
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    main_fn = entwit.cli.main
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        rc = main_fn(argv)
    except Exception:  # an escaped exception fails the rows, not the benchmark
        traceback.print_exc()
        rc = -1
    t1 = time.perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    doc = {
        "rc": rc,
        "import_s": T_IMPORTED - T_START,
        "main_s": t1 - t0,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        doc["trace"] = tracer.metrics(t1 - t0)
        doc["missing_hooks"] = tracer.missing
    with open(out_path, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
