"""Answer the correctness checks' qtmac queries, outside the timed runs.

    python3 oracle.py SRC_DIR < requests.json

Reads a JSON list of command lines and runs each through
``qtmac.cli.main`` in this one process.  Prints a JSON list of
``[argv, exit code, stdout]``.
"""

import contextlib
import io
import json
import sys


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    import qtmac.cli

    answers = []
    for argv in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = qtmac.cli.main(list(argv))
            except Exception:  # the check that needed this answer fails
                rc = -1
        answers.append([argv, rc, out.getvalue()])
    json.dump(answers, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
