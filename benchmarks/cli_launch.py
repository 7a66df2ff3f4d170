"""Run one solvir CLI command with the tracer installed.

    python3 benchmarks/cli_launch.py TRACE_OUT WORKLOAD_ID <solvir arguments...>

Behaves like ``python -m solvir.cli <arguments>`` (same stdout, same exit
code) and writes the tracer's counters, spans, import time and lru-cache
deltas to TRACE_OUT when the command ends.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    trace_out, workload_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    start = time.perf_counter()
    import solvir.cli

    import_s = time.perf_counter() - start
    from tracer import Tracer, cache_delta, cache_snapshot

    tracer = Tracer(workload_id)
    tracer.install()
    before = cache_snapshot()
    rc = 2
    begin = time.perf_counter()
    try:
        with tracer.span("cli.main"):
            rc = solvir.cli.main(argv)
    finally:
        report = tracer.report()
        report["cli"] = {"import_s": import_s,
                         "main_s": time.perf_counter() - begin,
                         "cache": cache_delta(before, cache_snapshot())}
        with open(trace_out, "w") as fh:
            json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
