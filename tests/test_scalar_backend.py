"""The factored scalar backend against sympy's field, the reference.

Every value is built twice by the same arithmetic: once from qtmac's
symbolic context and once from ``tests/sympy_reference.py``.  The two must
print the same canonical text, compare and hash alike and evaluate alike.
"""

import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from qtmac.scalar import (GENERIC, AlgebraError, Poly, SpecializationError,
                          _cyclotomic_indices, _factor_poly, _line_factor,
                          scalar_eval)

import sympy_reference as ref
from helpers import run_python

G = GENERIC
BACKENDS = ((G.q, G.t, G.one), (ref.Q, ref.T, ref.FIELD.one))

# Phi_e(u), low to high, for the line factors Phi_e(q^a t^b)
CYCLOTOMIC = {1: (-1, 1), 2: (1, 1), 3: (1, 1, 1), 4: (1, 0, 1),
              6: (1, -1, 1)}
DIRECTIONS = ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, -1), (2, -1),
              (1, -2))


def line_factor(a, b, e):
    def build(q, t, one):
        u = q ** a * t ** b
        return sum((c * u ** k for k, c in enumerate(CYCLOTOMIC[e])),
                   0 * one)
    return build


def laurent_monomial(c, a, b):
    return lambda q, t, one: c * q ** a * t ** b


def binomial(a, b):
    # 1 - q^a t^b with (a, b) not primitive: a product of line factors
    return lambda q, t, one: one - q ** a * t ** b


def not_a_line(q, t, one):
    return q ** 2 * t + q - 1


# nonzero products of cyclotomic line factors, times Laurent monomials:
# the only leaves a divisor or a negative power is built from
hook_leaves = st.one_of(
    st.builds(lambda d, e: line_factor(*d, e), st.sampled_from(DIRECTIONS),
              st.sampled_from(sorted(CYCLOTOMIC))),
    st.builds(laurent_monomial, st.sampled_from([1, -1, 2, -3]),
              st.integers(-3, 3), st.integers(-3, 3)),
    st.tuples(st.integers(0, 4), st.integers(-2, 4)).filter(any).map(
        lambda ab: binomial(*ab)),
)

# zero and not_a_line, which is no product of line factors, are numerators
# only
leaves = st.one_of(
    hook_leaves,
    st.just(lambda q, t, one: 0 * one),
    st.just(not_a_line),
)

# integer powers of leaves only, so that the degrees stay small; a leaf
# that may be zero takes positive powers, as sympy's ring refuses 0**0
hook_powers = st.tuples(st.just("**"), hook_leaves, st.integers(-2, 3))
powers = st.one_of(st.tuples(st.just("**"), leaves, st.integers(1, 3)),
                   hook_powers)

divisors = st.recursive(
    st.one_of(hook_leaves, hook_powers),
    lambda sub: st.tuples(st.just("*"), sub, sub),
    max_leaves=3)

expressions = st.recursive(
    st.one_of(leaves, powers),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(("+", "-", "*")), sub, sub),
        st.tuples(st.just("/"), sub, divisors)),
    max_leaves=8)


def evaluate(expr, q, t, one):
    """The value of expr in one backend."""
    if callable(expr):
        return expr(q, t, one)
    op, left, right = expr
    x = evaluate(left, q, t, one)
    if op == "**":
        return x ** right
    y = evaluate(right, q, t, one)
    if op == "+":
        return x + y
    if op == "-":
        return x - y
    if op == "*":
        return x * y
    return x / y


def both(expr):
    ours, theirs = (evaluate(expr, *backend) for backend in BACKENDS)
    # a negative power in sympy's field leaves the denominator's sign
    return ours, theirs.new(theirs.numer, theirs.denom)


POINTS = ((Fraction(2, 3), Fraction(5, 7)), (Fraction(-1), Fraction(3)),
          (Fraction(1), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)))


@settings(max_examples=120, deadline=None)
@given(st.lists(expressions, min_size=1, max_size=4))
def test_scalars_agree_with_the_sympy_field(exprs):
    values = list(map(both, exprs))
    for ours, theirs in values:
        assert G.num_den_text(ours) == ref.num_den_text(theirs)
        assert bool(ours) == bool(theirs)
        for qv, tv in POINTS:
            try:
                expected = ref.evaluate(theirs, qv, tv)
            except ZeroDivisionError:
                try:
                    scalar_eval(ours, qv, tv)
                except SpecializationError:
                    continue
                raise AssertionError("scalar_eval divided by zero unnamed")
            assert scalar_eval(ours, qv, tv) == expected
    for ours_a, theirs_a in values:
        for ours_b, theirs_b in values:
            assert (ours_a == ours_b) == (theirs_a == theirs_b)
            if ours_a == ours_b:
                assert hash(ours_a) == hash(ours_b)


@settings(max_examples=40, deadline=None)
@given(expressions, st.integers(-3, 3))
def test_integers_and_ring_views_agree(expr, k):
    ours, theirs = both(expr)
    assert (ours == k) == (theirs == k)
    if ours == k:
        assert hash(ours) == hash(k)
    # the parts multiply back to the value
    num, den = G.parts(ours)
    assert G.quotient(num, den) == ours
    assert G.quotient(num * den, den * den) == ours


def _totient(e):
    """Euler's totient by trial division."""
    result, m, p = e, e, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def test_cyclotomic_indices_are_the_bounded_scan():
    # the scan up to 2 d^2 + 2, from the bound totient(e) >= sqrt(e / 2),
    # finds no index that the sieve up to max(d^2, 6) misses
    phi = [0] + [_totient(e) for e in range(1, 2 * 60 * 60 + 3)]
    for d in range(61):
        assert _cyclotomic_indices(d) == tuple(
            (e, phi[e]) for e in range(1, 2 * d * d + 3) if phi[e] <= d)


def test_a_poly_equals_the_factored_polynomial_it_expands_to():
    # a Poly compares as a dict, and Factored answers the reflected ==
    p = Poly({0: 1, 2 << 32 | 2: -1})  # 1 - q^2 t^2
    f = _factor_poly(p)
    assert len(f.fac) == 2
    assert p == f and f == p and not p != f
    other = _factor_poly(Poly({0: 1, 1 << 32 | 1: -1}))  # 1 - q t
    assert p != other and not p == other


def test_a_denominator_outside_the_hook_class_is_named():
    # q^2 t + q - 1 is no line factor, and q - 2 is a line factor that is
    # not cyclotomic: trial division finds neither, so dividing by either
    # raises, naming it, and sympy is never loaded.  A division after the
    # errors, by (1 - q)(1 - q t) multiplied out, is still exact
    code = (
        "import sys\n"
        "from qtmac.scalar import GENERIC as G, AlgebraError\n"
        "q, t = G.q, G.t\n"
        "for num, den in ((1 - q * t, q ** 2 * t + q - 1), (1, q - 2)):\n"
        "    try:\n"
        "        num / den\n"
        "    except AlgebraError as err:\n"
        "        print(type(err).__name__, err)\n"
        "den = 1 - q - q * t + q ** 2 * t\n"
        "x = (1 - q ** 2 * t ** 2) / den\n"
        "assert x * den == 1 - q ** 2 * t ** 2\n"
        "print(G.text(x))\n"
        "print('sympy' in sys.modules)\n")
    assert run_python(code).splitlines() == [
        "AlgebraError denominator factor q^2*t + q - 1 is not a product of "
        "cyclotomic line factors",
        "AlgebraError denominator factor q - 2 is not a product of "
        "cyclotomic line factors",
        "(-q*t - 1)/(q - 1)",
        "False"]


# denominators outside the hook class, and the cofactor that trial
# division leaves of each: content, monomial and every cyclotomic line
# factor are taken off first, so the error names only what is left
LEFTOVERS = {
    "non-cyclotomic line": (lambda q, t: q - 2, "q - 2"),
    "off every line": (lambda q, t: q ** 2 * t + q - 1, "q^2*t + q - 1"),
    "integer coefficient on a line": (lambda q, t: 2 * q * t - 1,
                                      "2*q*t - 1"),
    "degree two on a line": (lambda q, t: q ** 2 - 2, "q^2 - 2"),
    "three terms": (lambda q, t: 1 + q + t, "q + t + 1"),
    "Laurent": (lambda q, t: q / t - 3, "q - 3*t"),
    "content and monomial": (lambda q, t: 3 * q ** 2 * t * (q - 2), "q - 2"),
    "after a hook factor": (lambda q, t: (1 - q * t) * (q - 2), "q - 2"),
    "after a line factor": (lambda q, t: (q + t) * (q - 2), "q - 2"),
    "along t after a hook": (lambda q, t: (1 - t ** 2) * (t - 3), "t - 3"),
    "after a squared hook": (lambda q, t: (1 - q) ** 2 * (q ** 2 * t + q - 1),
                             "q^2*t + q - 1"),
}


@pytest.mark.parametrize("case", LEFTOVERS)
def test_the_error_names_the_cofactor_trial_division_leaves(case):
    build, leftover = LEFTOVERS[case]
    q, t = G.q, G.t
    den = build(q, t)
    message = (f"denominator factor {leftover} is not a product of "
               f"cyclotomic line factors")
    # division and a negative power both factor the denominator
    with pytest.raises(AlgebraError) as division:
        (1 - q * t) / den
    with pytest.raises(AlgebraError) as power:
        den ** -1
    assert str(division.value) == str(power.value) == message
    # as a numerator it needs no factors, and hook divisions stay exact
    x = den * (1 + q) / (1 - q ** 2)
    assert x * (1 - q) == den


def test_line_factors_are_one_object_per_polynomial():
    # 1 - q^2 t^2 = (1 - q t)(1 + q t): the binomial route and trial
    # division of (1 - q^2 t^2)(1 - q), four terms, find the same objects
    binomial = _factor_poly(Poly({0: 1, 2 << 32 | 2: -1}))
    trial = _factor_poly(Poly({0: 1, 1 << 32: -1, 2 << 32 | 2: -1,
                               3 << 32 | 2: 1}))
    assert len(binomial.fac) == 2 and len(trial.fac) == 3
    for f in binomial.fac:
        assert sum(g is f for g in trial.fac) == 1
    # and distinct primitive directions (a, b) and indices e give distinct
    # polynomials
    seen = {}
    for a in range(4):
        for b in range(-3, 4):
            if math.gcd(a, b) != 1 or (a == 0 and b < 0):
                continue
            for e in range(1, 13):
                key = frozenset(_line_factor(a, b, e).poly.items())
                assert key not in seen, ((a, b, e), seen.get(key))
                seen[key] = (a, b, e)
    assert len(seen) == 16 * 12
