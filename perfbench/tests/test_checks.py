"""The benchmark's correctness checks accept qtmac's output and reject
corrupted output (negative controls).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from qtmac import cli, verify  # noqa: E402


def cli_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def run_checked(query: dict, mutate=None) -> list[str]:
    """Check the genuine output of ``query``, after ``mutate`` edits its
    document, against oracle answers computed from the genuine output."""
    stdout = cli_stdout(query["argv"])
    doc = json.loads(stdout)
    oracle = {argv: cli_stdout(argv)
              for argv in checks.oracle_requests(query, doc)}
    if mutate:
        mutate(doc)
        stdout = json.dumps(doc)
    return checks.check_query(query, stdout, oracle)


def query(kind, eta, *extra, specialized=False, seed=0):
    return workloads.make_query(kind, eta, extra, random.Random(seed), specialized)


def add_one(coeff: dict):
    coeff["num"] = coeff["num"] + " + 1"


PIERI = [query("pieri", "0,1,0", "--r", "2"),
         query("pieri", "1,0,2", "--r", "1", specialized=True)]


def entry_off_chi(q, doc):
    """Index of a table entry other than the one at chi_r(eta)."""
    chi = checks.comp_text(checks.chi_r(checks.comp(q["eta"]), int(q["args"]["--r"])))
    return next(i for i, (lam, _) in enumerate(doc["payload"]["entries"])
                if lam != chi)


@pytest.mark.parametrize("q", PIERI, ids=lambda q: " ".join(q["argv"]))
def test_pieri_genuine_output_passes(q):
    assert run_checked(q) == []


@pytest.mark.parametrize("q", PIERI, ids=lambda q: " ".join(q["argv"]))
def test_pieri_perturbed_coefficient_rejected(q):
    def mutate(doc):
        add_one(doc["payload"]["entries"][entry_off_chi(q, doc)][1])

    errors = run_checked(q, mutate)
    assert any("Pieri identity fails" in e for e in errors)


@pytest.mark.parametrize("q", PIERI, ids=lambda q: " ".join(q["argv"]))
def test_pieri_dropped_entry_rejected(q):
    def mutate(doc):
        del doc["payload"]["entries"][entry_off_chi(q, doc)]

    errors = run_checked(q, mutate)
    assert any("Pieri identity fails" in e for e in errors)


def test_pieri_unity_coefficient_checked():
    q = PIERI[0]
    chi = checks.comp_text(checks.chi_r((0, 1, 0), 2))

    def mutate(doc):
        for lam, coeff in doc["payload"]["entries"]:
            if lam == chi:
                coeff["den"] = "2"

    errors = run_checked(q, mutate)
    assert any("chi_r(eta)" in e for e in errors)


@pytest.mark.parametrize("q", [
    query("binom", "0,1", "--nu", "1,1"),
    query("binom", "1,0,1", "--nu", "1,2,2", specialized=True),
], ids=lambda q: " ".join(q["argv"]))
def test_binom(q):
    assert run_checked(q) == []
    assert run_checked(q, lambda doc: add_one(doc["payload"]))


@pytest.mark.parametrize("q", [
    query("e", "2,0,1"),
    query("e", "1,0,1", specialized=True),
    query("estar", "2,0,1"),
    query("estar", "1,0,1", specialized=True),
], ids=lambda q: " ".join(q["argv"]))
def test_polynomials(q):
    assert run_checked(q) == []

    def mutate(doc):
        doc["payload"] = doc["payload"].replace("z1", "z2", 1)

    assert run_checked(q, mutate)


@pytest.mark.parametrize("q", [
    query("innerprod", "1,0", "--nu", "0,1", "--k", "1"),
    query("innerprod", "0,1", "--nu", "0,1", "--k", "2"),
], ids=lambda q: " ".join(q["argv"]))
def test_innerprod(q):
    assert run_checked(q) == []
    assert run_checked(q, lambda doc: add_one(doc["payload"]))


def test_wrong_header_rejected():
    q = PIERI[1]
    assert run_checked(q, lambda doc: doc.update(params="symbolic"))


VERIFY = [{"kind": "verify", "suite": suite, "max_n": 2, "max_mod": 1,
           "argv": ["verify", "--suite", suite, "--max-n", "2", "--max-mod", "1"]}
          for suite in verify.SUITES]


@pytest.mark.parametrize("q", VERIFY, ids=lambda q: q["suite"])
def test_verify_count_matches_own_enumeration(q):
    assert checks.check_query(q, cli_stdout(q["argv"]), {}) == []


def test_verify_zero_count_rejected():
    q = VERIFY[0]
    assert checks.check_query(q, f"[pass] {q['suite']}: 0 checks\n", {})


def test_verify_failure_line_rejected():
    q = VERIFY[0]
    count = checks.expected_checks(q["suite"], 2, 1)
    assert checks.check_query(
        q, f"[FAIL] {q['suite']}: {count} checks, 1 failures\n", {})

