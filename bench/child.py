"""Run one pdm-osc command in this fresh interpreter, as a user's call does.

Usage: python3 bench/child.py RESULT_JSON TRACE_0_OR_1 [-- CLI_ARGS...]

Without CLI arguments it only measures set-up: it imports `pdm_osc.cli`,
builds the parser and exits. Otherwise it then calls `pdm_osc.cli.main`
(wrapped by the tracer when TRACE is 1) and writes the call's wall time,
process CPU time, peak RSS and exit code to RESULT_JSON; with tracing the
spans go to RESULT_JSON with an .npz suffix. The set-up timestamp uses the
system-wide monotonic clock so the parent can subtract its spawn time.
"""

import sys
import time


def peak_rss_kb() -> int:
    """Peak resident set of this process image.

    VmHWM belongs to the address space, which exec replaces; ru_maxrss would
    also carry the forking parent's resident set.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    result_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[4:] if len(sys.argv) > 3 and sys.argv[3] == "--" else []

    from pdm_osc import cli

    cli.build_parser()
    ready = time.monotonic()

    import json

    record = {"ready": ready}
    if argv:
        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        rc = tracer.root(cli.main, argv) if tracer else cli.main(argv)
        record["wall_s"] = time.perf_counter() - wall0
        record["cpu_s"] = time.process_time() - cpu0
        record["rc"] = rc
        sys.stdout.flush()
        if tracer:
            tracer.dump(result_path + ".npz")
    record["peak_rss_kb"] = peak_rss_kb()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
