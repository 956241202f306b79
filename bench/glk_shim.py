"""Run one ``glk`` command line as the installed entry point does, and
record what the cli workload measures.

Usage: python3 bench/glk_shim.py <glk arguments...>

``GLK_BENCH_RECORD`` names the JSON record to write: time spent in this
process, ``import glkit`` time, peak resident memory and the spans of
the wrapped functions. With ``GLK_BENCH_TRACE=1`` every traced function
is wrapped; otherwise only the learners whose returned SolveTrace gives
the converged flag.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")


def main(argv):
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import glkit.cli
    import_s = time.perf_counter() - start

    import tracer as tr

    traced = os.environ.get("GLK_BENCH_TRACE") == "1"
    tracer = tr.Tracer(None if traced else tr.CLI_LEARNERS)
    tracer.install()
    tracer.phase = 0
    try:
        code = glkit.cli.main(argv)
    finally:
        tracer.phase = None
        path = os.environ.get("GLK_BENCH_RECORD")
        if path:
            record = {
                "import_s": import_s,
                "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "absent": tracer.absent,
                "spans": tracer.spans,
            }
            record["in_child_s"] = time.perf_counter() - T0
            with open(path, "w") as fh:
                json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
