"""One benchmarked nntriangles command in a fresh interpreter.

Usage: ``python3 child.py SPEC_JSON`` where the spec has ``src`` (the
source tree the package must come from), ``result`` (where to write the
timings), and optionally ``argv`` (the CLI arguments; without it the
process only imports the package) and ``trace`` (record layer spans).

The package is imported first, so the import time stamp closes the set-up
interval the parent opened just before starting this process.  All time
stamps use ``time.monotonic``, which on Linux is one clock for every
process.
"""

import sys
import time

import nntriangles

IMPORTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(nntriangles.__file__).startswith(src + os.sep):
        print(f"nntriangles imported from {nntriangles.__file__}, not {src}",
              file=sys.stderr)
        return 2
    result = {"imported": IMPORTED}
    argv = spec.get("argv")
    if argv is not None:
        from nntriangles import cli

        tracer = None
        if spec.get("trace"):
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        cpu0 = _cpu_s()
        start = time.monotonic()
        try:
            exit_code = cli.main(argv)
        finally:
            end = time.monotonic()
            if tracer is not None:
                tracer.uninstall()
        out = spec.get("out")
        result.update(
            start=start, end=end, exit=exit_code, cpu_s=_cpu_s() - cpu0,
            bytes_out=os.path.getsize(out) if out and os.path.exists(out) else 0)
        if tracer is not None:
            from tracing import layer_totals

            result["totals"] = layer_totals(tracer.spans)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
