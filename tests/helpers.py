"""Constructions that only the tests need: variables and substitutions of
``ZPolynomial``, the terms of a scalar, permutations acting on labels, the
exhaustive successor search that ``comb.successor_test`` is checked
against, and a fresh interpreter that imports qtmac from this checkout."""

import itertools
import os
import pathlib
import subprocess
import sys

from qtmac.scalar import GENERIC, _expand
from qtmac.algebra import ZPolynomial
from qtmac.comb import is_defining_permutation, perm_inverse


def variable(nvars, i, ctx=GENERIC):
    """z_i, 1-based."""
    exps = tuple(1 if j == i - 1 else 0 for j in range(nvars))
    return ZPolynomial(nvars, {exps: ctx.one})


def swap_vars(p, i):
    """p with z_i and z_{i+1} exchanged (1-based)."""
    acc = {}
    for e, c in p.terms.items():
        le = list(e)
        le[i - 1], le[i] = le[i], le[i - 1]
        acc[tuple(le)] = c
    return ZPolynomial(p.nvars, acc, p.laurent)


def invert_vars(p):
    """z^mu -> z^(-mu); always Laurent."""
    return ZPolynomial(p.nvars,
                       {tuple(-x for x in e): c for e, c in p.terms.items()},
                       laurent=True)


def constant_term(p):
    """Coefficient of the all-zero exponent vector (bare 0 if absent)."""
    return p.terms.get((0,) * p.nvars, 0)


def numer_terms(x):
    """[((i, j), c)]: the terms of a scalar's numerator, grlex-descending."""
    return _expand(x.num).terms()


def denom_terms(x):
    """[((i, j), c)]: the terms of a scalar's denominator, grlex-descending."""
    return x.den.expand().terms()


def apply_perm(sigma, eta):
    """(sigma eta)_j = eta_{sigma^{-1}(j)}."""
    inv = perm_inverse(sigma)
    return tuple(eta[inv[j] - 1] for j in range(len(eta)))


def successor_search(eta, lam):
    """The first defining permutation of eta <=' lam among all of them, or
    None: the exhaustive reference for ``comb.successor_test``."""
    for perm in itertools.permutations(range(1, len(eta) + 1)):
        if is_defining_permutation(eta, lam, perm):
            return perm
    return None


def maximal_sets_by_masks(eta):
    """The index sets maximal with respect to eta, found by filtering all
    2^n - 1 masks against the definition, in mask order: the reference
    ``comb.one_step`` is checked against."""
    n = len(eta)
    out = []
    for mask in range(1, 1 << n):
        ts = [i + 1 for i in range(n) if mask >> i & 1]
        ok = True
        prev = 0
        for u, tu in enumerate(ts):
            for j in range(prev + 1, tu):
                if eta[j - 1] == eta[tu - 1]:
                    ok = False
                    break
            if not ok:
                break
            prev = tu
        if ok:
            for j in range(ts[-1] + 1, n + 1):
                if eta[j - 1] == eta[ts[0] - 1] + 1:
                    ok = False
                    break
        if ok:
            out.append(tuple(ts))
    return out


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_python(code):
    """The stdout of ``python -c code`` in a fresh process, with this
    checkout's ``src`` first on its path, so that it needs no install."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=path)).stdout
