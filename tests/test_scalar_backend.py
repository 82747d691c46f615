"""The factored scalar backend against sympy's field, the reference.

Every value is built twice by the same arithmetic: once from qtmac's
symbolic context and once from ``tests/sympy_reference.py``.  The two must
print the same canonical text, compare and hash alike and evaluate alike.
"""

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

from qtmac.scalar import (GENERIC, Poly, SpecializationError,
                          _cyclotomic_indices, _factor_poly, scalar_eval)

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


leaves = st.one_of(
    st.builds(lambda d, e: line_factor(*d, e), st.sampled_from(DIRECTIONS),
              st.sampled_from(sorted(CYCLOTOMIC))),
    st.builds(laurent_monomial, st.sampled_from([1, -1, 2, -3]),
              st.integers(-3, 3), st.integers(-3, 3)),
    st.builds(binomial, st.integers(0, 4), st.integers(-2, 4)),
    st.just(lambda q, t, one: 0 * one),
    st.just(not_a_line),
)

OPS = ("+", "-", "*", "/")

# integer powers of leaves only, so that the degrees stay small
powers = st.tuples(st.just("**"), leaves, st.integers(-2, 3))

expressions = st.recursive(
    st.one_of(leaves, powers),
    lambda sub: st.tuples(st.sampled_from(OPS), sub, sub),
    max_leaves=8)


def evaluate(expr, q, t, one):
    """The value of expr in one backend, or None where it divides by 0."""
    if callable(expr):
        return expr(q, t, one)
    op, left, right = expr
    x = evaluate(left, q, t, one)
    if x is None:
        return None
    if op == "**":
        if not x and right <= 0:
            return None
        return x ** right
    y = evaluate(right, q, t, one)
    if y is None:
        return None
    if op == "+":
        return x + y
    if op == "-":
        return x - y
    if op == "*":
        return x * y
    try:
        return x / y
    except ZeroDivisionError:
        return None


def both(expr):
    ours, theirs = (evaluate(expr, *backend) for backend in BACKENDS)
    assert (ours is None) == (theirs is None)
    if theirs is not None:
        # a negative power in sympy's field leaves the denominator's sign
        theirs = theirs.new(theirs.numer, theirs.denom)
    return ours, theirs


POINTS = ((Fraction(2, 3), Fraction(5, 7)), (Fraction(-1), Fraction(3)),
          (Fraction(1), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)))


@settings(max_examples=120, deadline=None)
@given(st.lists(expressions, min_size=1, max_size=4))
def test_scalars_agree_with_the_sympy_field(exprs):
    values = [pair for pair in map(both, exprs) if pair[0] is not None]
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
    if ours is None:
        return
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


def test_fallback_is_counted_once():
    # q^2 t + q - 1 is no line factor, so the first division by it imports
    # sympy and asks it for its factors; later ones find it by trial division
    code = (
        "import sys\n"
        "from qtmac.scalar import GENERIC as G, FALLBACKS\n"
        "q, t = G.q, G.t\n"
        "p = q ** 2 * t + q - 1\n"
        "assert 'sympy' not in sys.modules\n"
        "x = (1 - q * t) / p\n"
        "assert 'sympy' in sys.modules\n"
        "y = x / p + 1 / (p * (1 - t))\n"
        "z = y * (q - t) / (p ** 2 * (q * t + 1))\n"
        "assert x * p == 1 - q * t\n"
        "assert z * p ** 2 * (q * t + 1) == y * (q - t)\n"
        "print(dict(FALLBACKS))\n")
    assert run_python(code).strip() == "{'general': 1}"
