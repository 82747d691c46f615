"""The command lines of the benchmark's two CLI workloads never ask sympy
for a factorisation: every denominator they divide by splits into factors
that trial division finds.  That is what lets a later change import sympy
only at the first fallback."""

import subprocess
import sys

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

RUN = """
import contextlib, io, sys
from qtmac import cli
from qtmac.algebra import FALLBACKS
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(list(argv)) != 0:
            sys.exit(f"{{argv}} failed")
print(dict(FALLBACKS))
"""


def test_cli_workloads_never_fall_back_to_sympy():
    commands = CLI_SYMBOLIC + CLI_SPECIALIZED
    out = subprocess.run([sys.executable, "-c", RUN.format(commands=commands)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "{}"
