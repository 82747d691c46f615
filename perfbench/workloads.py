"""The benchmark's query sets and the seeded inputs they are built from.

Each workload is a fixed list of qtmac command lines.  The seed chooses what
does not change the amount of work the program does: the rational points
of specialized queries, the points at which the correctness checks evaluate
symbolic results, and the order in which the queries run.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Two-digit primes: four distinct ones give a point (q, t) with
# q^a t^b != 1 for every (a, b) != (0, 0), so no hook-type factor
# 1 - q^a t^b vanishes there, and every point has about the same height,
# so the cost of exact rational arithmetic barely depends on the seed.
_PRIMES = (11, 13, 17, 19, 23, 29, 31, 37)

# (kind, eta, extra arguments)
CLI_SYMBOLIC = (
    ("pieri", "0,1,2", ("--r", "2")),
    ("pieri", "0,0,1", ("--r", "3")),
    ("pieri", "1,0,1,0", ("--r", "1")),
    ("pieri", "0,0,1,0", ("--r", "2")),
    ("pieri", "0,0,0,1", ("--r", "3")),
    ("pieri", "0,0,0,0", ("--r", "4")),
    ("binom", "1,0,1", ("--nu", "1,2,2")),
    ("e", "2,0,1", ()),
    ("estar", "2,0,1", ()),
    ("innerprod", "1,0,1", ("--nu", "1,1,0", "--k", "1")),
    ("innerprod", "0,1,0", ("--nu", "0,1,0", "--k", "2")),
)

CLI_SPECIALIZED = (
    ("pieri", "1,0,2,0,1", ("--r", "2")),
    ("pieri", "0,1,0,1,0", ("--r", "3")),
    ("pieri", "1,0,1,0,1", ("--r", "3")),
    ("pieri", "0,0,1,0,0", ("--r", "4")),
    ("pieri", "0,0,0,0,0", ("--r", "5")),
    ("pieri", "2,1,0,1,0", ("--r", "1")),
    ("pieri", "1,0,2,1", ("--r", "2")),
    ("binom", "0,1,0,1,0", ("--nu", "1,2,0,1,1")),
    ("e", "2,1,0,2,1", ()),
    ("estar", "2,1,0,2,1", ()),
)

# suite -> (max_n, max_mod)
VERIFY_BATTERY = (
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
)

WORKLOADS = ("cli-symbolic", "cli-specialized", "verify-battery")


def params_text(point) -> str:
    return f"q={point[0]},t={point[1]}"


def random_point(rng: random.Random) -> tuple[Fraction, Fraction]:
    a, b, c, d = rng.sample(_PRIMES, 4)
    return Fraction(a, b), Fraction(c, d)


# distinct nonzero rationals with one-digit numerator and denominator
_Z_POOL = sorted({Fraction(s * a, b) for a in range(1, 10) for b in range(1, 10)
                  for s in (1, -1)})


def random_z(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    """A rational evaluation point with distinct nonzero entries."""
    return tuple(rng.sample(_Z_POOL, n))


def make_query(kind: str, eta: str, extra, rng: random.Random,
               specialized: bool) -> dict:
    """A compute query with its seeded point and check point."""
    argv = [kind, "--eta", eta, *extra]
    point = random_point(rng)
    if specialized:
        argv += ["--params", params_text(point)]
    return {
        "kind": kind,
        "argv": argv,
        "eta": eta,
        "args": dict(zip(extra[::2], extra[1::2])),
        "symbolic": not specialized,
        # the query's own point, or the check point of a symbolic result
        "point": point,
        "z": random_z(rng, len(eta.split(","))),
    }


def build(name: str, seed: int) -> list[dict]:
    """The workload's queries for one seed, in the order they run."""
    rng = random.Random(f"{name}:{seed}")
    if name == "cli-symbolic":
        queries = [make_query(k, e, x, rng, False) for k, e, x in CLI_SYMBOLIC]
    elif name == "cli-specialized":
        queries = [make_query(k, e, x, rng, True) for k, e, x in CLI_SPECIALIZED]
    elif name == "verify-battery":
        queries = [{
            "kind": "verify",
            "argv": ["verify", "--suite", suite, "--max-n", str(max_n),
                     "--max-mod", str(max_mod)],
            "suite": suite,
            "max_n": max_n,
            "max_mod": max_mod,
        } for suite, max_n, max_mod in VERIFY_BATTERY]
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    rng.shuffle(queries)
    return queries
