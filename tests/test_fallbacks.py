"""The command lines of the benchmark's three workloads never ask sympy for
a factorisation: every denominator they divide by splits into factors that
trial division finds.  So sympy, which ``scalar`` imports only at the first
fallback, stays out of the process: after ``import qtmac.cli`` and after
each of these command lines."""

import json

from helpers import run_python

# the queries of the cli-symbolic and cli-specialized workloads, the latter
# at one fixed point of the kind the workload draws
CLI_SYMBOLIC = (
    ("pieri", "--eta", "0,1,2", "--r", "2"),
    ("pieri", "--eta", "0,0,1", "--r", "3"),
    ("pieri", "--eta", "1,0,1,0", "--r", "1"),
    ("pieri", "--eta", "0,0,1,0", "--r", "2"),
    ("pieri", "--eta", "0,0,0,1", "--r", "3"),
    ("pieri", "--eta", "0,0,0,0", "--r", "4"),
    ("binom", "--eta", "1,0,1", "--nu", "1,2,2"),
    ("e", "--eta", "2,0,1"),
    ("estar", "--eta", "2,0,1"),
    ("innerprod", "--eta", "1,0,1", "--nu", "1,1,0", "--k", "1"),
    ("innerprod", "--eta", "0,1,0", "--nu", "0,1,0", "--k", "2"),
)
POINT = ("--params", "q=11/13,t=17/19")
CLI_SPECIALIZED = tuple(argv + POINT for argv in (
    ("pieri", "--eta", "1,0,2,0,1", "--r", "2"),
    ("pieri", "--eta", "0,1,0,1,0", "--r", "3"),
    ("pieri", "--eta", "1,0,1,0,1", "--r", "3"),
    ("pieri", "--eta", "0,0,1,0,0", "--r", "4"),
    ("pieri", "--eta", "0,0,0,0,0", "--r", "5"),
    ("pieri", "--eta", "2,1,0,1,0", "--r", "1"),
    ("pieri", "--eta", "1,0,2,1", "--r", "2"),
    ("binom", "--eta", "0,1,0,1,0", "--nu", "1,2,0,1,1"),
    ("e", "--eta", "2,1,0,2,1"),
    ("estar", "--eta", "2,1,0,2,1"),
))
# the verify-battery workload: each suite at the battery's (max_n, max_mod)
VERIFY_BATTERY = tuple(
    ("verify", "--suite", suite, "--max-n", str(max_n), "--max-mod", str(max_mod))
    for suite, max_n, max_mod in (
        ("oracle-e", 3, 2),
        ("oracle-estar", 3, 2),
        ("eigen", 2, 3),
        ("vanishing", 2, 3),
        ("pieri-agreement", 2, 3),
        ("pieri-general", 2, 2),
        ("duality", 2, 3),
        ("binomials", 2, 2),
        ("norms", 2, 3),
        ("symmetric-pieri", 3, 1),
    ))

# prints, as JSON, the command lines after which sympy was loaded ("import"
# standing for the import of qtmac.cli) and the fallback counts
RUN = """
import contextlib, io, json, sys
from qtmac import cli
from qtmac.scalar import FALLBACKS
loaded = ["import"] if "sympy" in sys.modules else []
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(list(argv)) != 0:
            sys.exit(f"{{argv}} failed")
    if "sympy" in sys.modules:
        loaded.append(" ".join(argv))
print(json.dumps({{"loaded": loaded, "fallbacks": dict(FALLBACKS)}}))
"""


def run_fresh(commands) -> dict:
    """Run the command lines one after another in a fresh process."""
    return json.loads(run_python(RUN.format(commands=commands)))


def test_import_leaves_sympy_out():
    assert run_fresh(()) == {"loaded": [], "fallbacks": {}}


def test_cli_workloads_never_fall_back_to_sympy():
    assert run_fresh(CLI_SYMBOLIC + CLI_SPECIALIZED) == \
        {"loaded": [], "fallbacks": {}}


def test_verify_battery_never_falls_back_to_sympy():
    assert run_fresh(VERIFY_BATTERY) == {"loaded": [], "fallbacks": {}}
