"""One benchmark sample: a fresh interpreter runs ``cpd.cli.main(argv)`` once.

    python3 child.py RESULT MEM_MB CPU_S TRACE -- CPD_ARGS...

The resource limits are set on this process before cpd is imported.  The
CLI's own stdout and stderr go wherever the caller pointed them.  When main
returns, the wall and CPU time of the call, the peak RSS of this process
and, with TRACE=1, the spans of the call are written as JSON to RESULT, and
the process exits with main's exit code.  A crash writes no RESULT.
"""

import json
import resource
import sys
import time


def main() -> int:
    result_path, mem_mb, cpu_s, trace = sys.argv[1:5]
    if sys.argv[5] != "--":
        raise SystemExit("usage: child.py RESULT MEM_MB CPU_S TRACE -- CPD_ARGS...")
    argv = sys.argv[6:]
    mem = int(mem_mb) << 20
    resource.setrlimit(resource.RLIMIT_AS, (mem, mem))
    resource.setrlimit(resource.RLIMIT_CPU, (int(cpu_s), int(cpu_s) + 5))

    import cpd.cli

    tracer = None
    if trace == "1":
        from shims import Tracer

        tracer = Tracer()
        for name in tracer.install():
            print(f"perfbench: no {name} to trace", file=sys.stderr)

    wall = time.perf_counter()
    cpu = time.process_time()
    code = cpd.cli.main(argv)
    cpu = time.process_time() - cpu
    wall = time.perf_counter() - wall
    sys.stdout.flush()

    record = {
        "verdict_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        record["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
