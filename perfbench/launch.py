"""Run one lenspace CLI command in a fresh interpreter and report timings.

    python3 perfbench/launch.py RESULT_JSON MODE [CLI_ARG ...]

MODE is ``0`` (plain run), ``1`` (spans recorded around the lenspace
layers) or ``import`` (import ``lenspace.cli`` and stop).  RESULT_JSON
receives the monotonic clock reading right after the import, the time
spent in ``main()``, the exit code, the peak resident set size and, for
MODE 1, the span summary.  The process exits with ``main()``'s code.
"""

import json
import resource
import sys
import time


def run(result_path: str, mode: str, argv: list) -> int:
    import lenspace.cli

    result = {"imported": time.monotonic(), "code": 0}
    if mode != "import":
        tracer = None
        if mode == "1":
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        try:
            result["code"] = lenspace.cli.main(argv)
        finally:
            result["main_s"] = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        result["ended"] = time.monotonic()
        if tracer is not None:
            from spans import summarize

            result["spans"] = summarize(tracer.spans)
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return result["code"]


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2], sys.argv[3:]))
