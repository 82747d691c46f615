"""Run one qtmac query in this fresh process and report how it went.

    python3 worker.py SRC_DIR TRACE ARGV_JSON

Import of ``qtmac.cli`` is timed on its own (set-up); the query is timed
from the call to ``qtmac.cli.main(argv)`` until it returns with its document
written.  The report is one JSON line on stdout, written after the query.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    src, trace, argv = sys.argv[1], sys.argv[2] == "1", json.loads(sys.argv[3])
    start = time.perf_counter()
    sys.path.insert(0, src)
    import qtmac.cli
    setup_s = time.perf_counter() - start
    if not os.path.abspath(qtmac.cli.__file__).startswith(
            os.path.join(os.path.abspath(src), "")):
        sys.stderr.write(f"qtmac was imported from {qtmac.cli.__file__}, "
                         f"not from {src}\n")
        return 3
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        begin = time.perf_counter()
        try:
            rc = qtmac.cli.main(argv)
        except Exception:  # reported as a failed query, with its traceback
            rc = -1
            err.write(traceback.format_exc())
        compute_s = time.perf_counter() - begin
    report = {
        "rc": rc,
        "setup_s": setup_s,
        "compute_s": compute_s,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "trace": tracer.report() if tracer else None,
    }
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
