"""Coefficient field and sparse polynomial layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qtmac.algebra import (
    GENERIC,
    AlgebraError,
    ExponentLanes,
    Factored,
    ScalarContext,
    ZPolynomial,
    divided_difference,
    elementary_symmetric,
    field_view,
    form_sum,
    memo,
    ring_form,
    scalar_eval,
    specialized,
    subst_t_power,
)

from helpers import constant_term, denom_terms, invert_vars, swap_vars, variable

G = GENERIC
Q, T = G.q, G.t


# ---------------------------------------------------------------------------
# scalar canonical form
# ---------------------------------------------------------------------------

def qt(coeffs):
    """The integer polynomial, sum of c q^i t^j over {(i, j): c}, in Q(q,t)."""
    return sum((G.monomial(i, j) * c for (i, j), c in coeffs.items()), G.zero)


def test_canonicalize_cancels_common_factor():
    # (qt - q)/(t - 1) reduces to q
    assert qt({(1, 1): 1, (1, 0): -1}) / qt({(0, 1): 1, (0, 0): -1}) == Q


def test_canonicalize_zero_numerator():
    assert qt({}) / qt({(0, 1): -1, (0, 0): 1}) == G.zero


def test_canonicalize_sign_rule():
    # (1 - q)/(q - 1) is -1 after gcd and sign normalization
    assert qt({(0, 0): 1, (1, 0): -1}) / qt({(1, 0): 1, (0, 0): -1}) == -G.one


def test_denominator_leading_coefficient_positive():
    x = qt({(1, 0): 1}) / qt({(0, 1): -1, (0, 0): 1})  # q/(1-t)
    (_, lead), *_ = denom_terms(x)
    assert lead > 0
    assert G.text(x) == "-q/(t - 1)"


def test_canonical_text_form():
    x = qt({(2, 1): 1, (1, 0): -3, (0, 0): 1}) / qt({(0, 1): 1, (0, 0): -1})
    num, den = G.num_den_text(x)
    assert num == "q^2*t - 3*q + 1"
    assert den == "t - 1"


def test_common_content_removed():
    x = qt({(0, 0): 6}) / qt({(0, 0): 4})
    assert G.num_den_text(x) == ("3", "2")


def test_text_of_integers_past_the_str_limit():
    # str() refuses an int of more than 4300 digits; the text does not
    ctx = specialized(2, 3)
    assert ctx.text(Fraction(10 ** 4400, 3)) == "1" + "0" * 4400 + "/3"
    assert ctx.num_den_text(-(10 ** 4400) - 7) == ("-1" + "0" * 4399 + "7", "1")


# ---------------------------------------------------------------------------
# random scalars: field axioms, involution, evaluation
# ---------------------------------------------------------------------------

small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(-4, 4), min_size=1, max_size=3)


@st.composite
def scalars(draw):
    num = draw(small_polys)
    den = draw(small_polys.filter(lambda d: any(d.values())))
    return qt(num) / qt(den)


@settings(max_examples=40, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms_spot_checks(a, b, c):
    assert a * (b + c) == a * b + a * c
    if b:
        assert (a / b) * b == a


@settings(max_examples=25, deadline=None)
@given(scalars(), scalars())
def test_eval_commutes_with_arithmetic(a, b):
    qv, tv = Fraction(2, 5), Fraction(7, 3)
    assert scalar_eval(a * b, qv, tv) == scalar_eval(a, qv, tv) * scalar_eval(b, qv, tv)
    assert scalar_eval(a + b, qv, tv) == scalar_eval(a, qv, tv) + scalar_eval(b, qv, tv)


def test_subst_t_power():
    x = (1 - Q * T) / (1 - T ** 2)
    y = subst_t_power(x, 2)  # (1-q^3)/(1-q^4)
    assert y == (1 - Q ** 3) / (1 - Q ** 4)
    with pytest.raises(AlgebraError):
        subst_t_power(G.one / (T - Q), 1)


def test_scalar_eval_names_vanishing_factor():
    x = G.one / (T - Q)
    with pytest.raises(AlgebraError, match="q - t"):
        scalar_eval(x, Fraction(1, 2), Fraction(1, 2))


def test_specialized_context():
    ctx = specialized(Fraction(2, 5), Fraction(7, 3))
    assert ctx.monomial(1, -1) == Fraction(2, 5) * Fraction(3, 7)
    assert ctx.num_den_text(Fraction(-3, 7)) == ("-3", "7")
    with pytest.raises(AlgebraError):
        specialized(0, 1)
    inv = ctx.inverted()
    assert inv.qval == Fraction(5, 2) and inv.tval == Fraction(3, 7)


def test_inverted_is_an_involution():
    for ctx in (G, specialized(Fraction(-2, 3), Fraction(5, 7))):
        inv = ctx.inverted()
        assert inv != ctx
        back = inv.inverted()
        assert back == ctx and hash(back) == hash(ctx)
        assert back.params_label() == ctx.params_label()
    assert G.inverted().params_label() == "q=1/q,t=1/t"

    # one memo entry serves a context and its double inversion
    calls = []

    @memo
    def probe(ctx):
        calls.append(ctx)
        return ctx.q

    assert probe(G) == probe(G.inverted().inverted()) == Q
    assert len(calls) == 1


def test_context_hash_is_the_points():
    # the hash is taken once, from (q, t) alone: equal points hash equal
    # whether or not inverted() made them
    for ctx in (G, specialized(Fraction(-2, 3), Fraction(5, 7))):
        inv = ctx.inverted()
        twin = ScalarContext(inv.qval, inv.tval)
        assert inv.reciprocal and not twin.reciprocal
        assert inv == twin and hash(inv) == hash(twin)
        assert hash(ctx) == hash((ctx.qval, ctx.tval))
        marked = ScalarContext(ctx.qval, ctx.tval, True)
        assert marked == ctx and hash(marked) == hash(ctx)

    # and an inverted() context hits the memo entry of the point it equals
    calls = []

    @memo
    def probe(ctx):
        calls.append(ctx)
        return ctx.q

    given_point = specialized(Fraction(-3, 2), Fraction(7, 5))
    inv = specialized(Fraction(-2, 3), Fraction(5, 7)).inverted()
    assert probe(given_point) == probe(inv) == Fraction(-3, 2)
    assert calls == [given_point]


def test_context_is_immutable():
    # memo tables key on contexts, whose hash is taken once
    ctx = specialized(Fraction(-2, 3), Fraction(5, 7))
    for name in ("qval", "tval", "reciprocal", "other"):
        with pytest.raises(AttributeError):
            setattr(ctx, name, Fraction(1))
        with pytest.raises(AttributeError):
            delattr(ctx, name)
    assert (ctx.qval, ctx.tval, ctx.reciprocal) == \
        (Fraction(-2, 3), Fraction(5, 7), False)
    assert repr(ctx) == ("ScalarContext(qval=Fraction(-2, 3), "
                         "tval=Fraction(5, 7), reciprocal=False)")
    assert repr(G.inverted()) == ("ScalarContext(qval=Scalar(1/q), "
                                  "tval=Scalar(1/t), reciprocal=True)")


def test_one_minus_names_the_factor_at_the_given_point():
    # 1 - q t vanishes at (1/2, 2), the reciprocal of the point given
    ctx = specialized(2, Fraction(1, 2))
    message = "factor 1 - q^-1*t^-1 vanishes at q=2,t=1/2"
    for point, a, b in ((ctx, -1, -1), (ctx.inverted(), 1, 1),
                        (ctx.inverted().inverted(), -1, -1)):
        with pytest.raises(AlgebraError) as err:
            point.one_minus(a, b)
        assert str(err.value) == message
    with pytest.raises(AlgebraError) as err:
        specialized(Fraction(1, 2), 2).one_minus(1, 1)
    assert str(err.value) == "factor 1 - q*t vanishes at q=1/2,t=2"


def test_inverted_context_example():
    # q(1-t)/(1-qt) at reciprocal parameters is (t-1)/(qt-1)
    inv = G.inverted()
    assert (inv.q, inv.t) == (1 / Q, 1 / T)
    assert inv.monomial(2, -1) == T / Q ** 2
    x = inv.q * (1 - inv.t) / (1 - inv.q * inv.t)
    assert x == (T - 1) / (Q * T - 1)


shifts = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


# symbolic, at reciprocal parameters and at two rational points
SUM_CONTEXTS = pytest.mark.parametrize("ctx", [
    G, G.inverted(), specialized(Fraction(-2, 3), Fraction(5, 7)),
    specialized(3, Fraction(-1, 2))], ids=lambda ctx: ctx.params_label())


@SUM_CONTEXTS
@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(scalars(), shifts), max_size=4))
def test_monomial_sum_over_common_denominator(ctx, terms):
    # one normalisation of the summed numerators equals the term-by-term sum
    coeffs = {}
    for k, (c, _) in enumerate(terms):
        if ctx.generic:
            coeffs[k] = c
        else:
            try:
                coeffs[k] = scalar_eval(c, ctx.qval, ctx.tval)
            except AlgebraError:
                continue
    den, nums = ctx.common_denominator(coeffs)
    expected = ctx.zero
    for k, c in coeffs.items():
        assert ctx.monomial_sum(den, [nums[k]], [0], [0]) == c
        expected = expected + c * ctx.monomial(*terms[k][1])
    got = ctx.monomial_sum(den, [nums[k] for k in coeffs],
                           [terms[k][1][0] for k in coeffs],
                           [terms[k][1][1] for k in coeffs])
    assert got == expected


def _columns(terms):
    """(nums, qexps, texps) of [(N, (a, b))], as monomial_sum takes them."""
    nums, exps = zip(*terms) if terms else ((), ())
    qexps, texps = zip(*exps) if exps else ((), ())
    return nums, qexps, texps


@SUM_CONTEXTS
def test_monomial_sum_on_packed_keys(ctx):
    # Laurent exponents, a repeated monomial, the exponent columns read as
    # lanes; symbolically each monomial is a packed key of the sum
    one, den = ctx.parts(ctx.one)
    terms = [(2 * one, (-3, -2)), (-one, (1, -5)), (3 * one, (-2, 4)),
             (one, (-3, -2))]
    expected = (3 * ctx.monomial(-3, -2) - ctx.monomial(1, -5)
                + 3 * ctx.monomial(-2, 4))
    assert ctx.monomial_sum(den, *_columns(terms)) == expected
    assert ctx.monomial_sum(den * 7, *_columns(terms)) == expected / 7
    # the columns as lane sums read them
    lanes = ExponentLanes(2, [exps for _, exps in terms])
    nums, _, _ = _columns(terms)
    assert ctx.monomial_sum(den, nums, lanes.sums((1, 0)),
                            lanes.sums((0, 1))) == expected
    # a sum that cancels to zero, and an empty one
    cancelling = [(one, (2, -3)), (-2 * one, (-1, 1)), (-one, (2, -3)),
                  (2 * one, (-1, 1))]
    assert ctx.monomial_sum(den, *_columns(cancelling)) == ctx.zero
    assert ctx.monomial_sum(den, *_columns([])) == ctx.zero


def test_monomial_key_range():
    # at a rational point an exponent has no range to leave: q^a t^b with
    # |a|, |b| around 2^31 and beyond sum exactly (at q = t = -1, so the
    # powers stay small)
    ctx = specialized(-1, -1)
    for a, b in ((3, -2 ** 31), (2, 2 ** 31 - 1), (-5, -2 ** 31),
                 (-4, 2 ** 31 - 1), (0, 2 ** 31), (2 ** 40, -2 ** 31 - 1)):
        assert ctx.monomial_sum(1, [1], [a], [b]) == \
            Fraction(-1) ** (a + b), (a, b)
    # symbolically the exponent of t fills 32 signed bits of a packed
    # monomial of Q(q,t)
    for b in (2 ** 31 - 1, -(2 ** 31 - 1)):
        assert G.monomial_sum(1, [1], [3], [b]) == G.monomial(3, b)
    for b in (2 ** 31, -2 ** 31):
        with pytest.raises(AlgebraError) as err:
            G.monomial_sum(1, [1], [0], [b])
        assert str(err.value) == (f"an exponent of t of {abs(b)} leaves "
                                  f"the 32 bits of a packed monomial")


@SUM_CONTEXTS
@settings(max_examples=25, deadline=None)
@given(st.lists(shifts.filter(lambda ab: ab != (0, 0)), max_size=5))
def test_one_minus_product_is_the_field_product(ctx, pairs):
    # one normalisation of the multiplied parts equals the running product
    expected = ctx.one
    for a, b in pairs:
        expected = expected * ctx.one_minus(a, b)
    assert ctx.one_minus_product(pairs) == expected


def test_one_minus_product_names_the_first_vanishing_factor():
    # q t = 1 at (2, 1/2), so q^-1 t^-1 and q^2 t^2 are 1 there; at the
    # reciprocal point each is named as a factor at the point given
    ctx = specialized(2, Fraction(1, 2))
    for point, pairs, name in (
            (ctx, [(1, 0), (-1, -1), (2, 2)], "1 - q^-1*t^-1"),
            (ctx.inverted(), [(0, 3), (2, 2), (1, 1)], "1 - q^-2*t^-2")):
        with pytest.raises(AlgebraError) as err:
            point.one_minus_product(pairs)
        assert str(err.value) == f"factor {name} vanishes at q=2,t=1/2"


def test_exponent_lanes_are_the_dot_products():
    exps = [(0, 0, 0), (3, 0, 1), (-2, 5, 0), (1, -1, -4), (7, 2, 2)]
    lanes = ExponentLanes(3, exps)
    for weights in ((2, 0, 1), (-1, -2, 0), (-3, 5, 0), (4, 0, -7),
                    (0, 0, 0)):
        want = [sum(e * w for e, w in zip(exp, weights)) for exp in exps]
        assert list(lanes.sums(weights)) == want, weights
    assert list(ExponentLanes(2, []).sums([1, 2])) == []


def test_exponent_lanes_guard_their_range():
    # a sum that could reach 2^63 in absolute value leaves its lane; one
    # just below is read back exactly, at either sign
    lanes = ExponentLanes(2, [(1, 0), (2 ** 31, 2 ** 31)])
    top = 2 ** 31 - 1
    assert list(lanes.sums([top, -top])) == [top, 0]
    assert list(lanes.sums([top, top])) == [top, 2 ** 63 - 2 ** 32]
    assert list(lanes.sums([-top, -top])) == [-top, -(2 ** 63 - 2 ** 32)]
    for weights in ((2 ** 32, 0), (0, -2 ** 32), (-2 ** 31, 2 ** 31)):
        with pytest.raises(AlgebraError, match="leave their 64-bit lanes"):
            lanes.sums(weights)
    with pytest.raises(AlgebraError) as err:
        ExponentLanes(1, [(2 ** 63,)])
    assert str(err.value) == \
        "an exponent of 9223372036854775808 leaves its 64-bit lane"


@SUM_CONTEXTS
@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(scalars(), max_size=3), max_size=4),
       st.lists(scalars().filter(bool), max_size=2))
def test_fsum_is_the_running_sum(ctx, terms, inverse):
    # ScalarContext.product_sum: the products summed in parts over one
    # denominator and normalised once equal the field sum of field products
    terms = [factors for factors in ([in_context(x, ctx) for x in factors]
                                     for factors in terms)
             if None not in factors]
    inverse = [x for x in (in_context(x, ctx) for x in inverse) if x]
    expected = ctx.zero
    for factors in terms:
        product = ctx.one
        for x in factors:
            product = product * x
        expected = expected + product
    for x in inverse:
        expected = expected / x
    assert ctx.product_sum(terms, inverse) == expected


def test_product_sum_keeps_a_lone_term_factored():
    # a sum started from zero would expand the product of the binomials
    factors = [G.one_minus(1, 0), G.one_minus(0, 1), G.one_minus(2, -1)]
    value = G.product_sum([factors], [G.one_minus(1, 1)])
    assert type(value.num) is Factored
    assert value == (factors[0] * factors[1] * factors[2]
                     / G.one_minus(1, 1))
    assert G.product_sum([]) == G.zero


def term_by_term(poly, point, ctx):
    # the evaluator at_point replaced: one field operation per step
    total = ctx.zero
    for e, c in poly.terms.items():
        v = c
        for x, k in zip(point, e):
            if k:
                v = v * x ** k
        total = total + v
    return total


def in_context(c, ctx):
    """c as a scalar of ctx, or None where its denominator vanishes."""
    if ctx.generic:
        return c
    try:
        return scalar_eval(c, ctx.qval, ctx.tval)
    except AlgebraError:
        return None


@st.composite
def evaluations(draw):
    """(n, {exponents: scalar}, point): exponents of either sign, entries of
    the point arbitrary scalars or None for zero."""
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-2, 3)] * n)
    terms = draw(st.dictionaries(exps, scalars(), max_size=4))
    point = draw(st.tuples(*[st.one_of(scalars(), st.none())] * n))
    return n, terms, point


@SUM_CONTEXTS
@settings(max_examples=25, deadline=None)
@given(evaluations())
def test_at_point_is_the_term_by_term_sum(ctx, case):
    # one normalisation over the common denominator equals the running sum,
    # for Laurent polynomials, non-monomial points and the zero polynomial
    n, terms, point = case
    coeffs = {e: c for e, c in ((e, in_context(c, ctx)) for e, c in terms.items())
              if c is not None}
    pt = tuple(ctx.zero if x is None else in_context(x, ctx) or ctx.one
               for x in point)
    plain = ZPolynomial(n, {tuple(map(abs, e)): c for e, c in coeffs.items()})
    for poly in (ZPolynomial(n, coeffs, laurent=True), plain,
                 invert_vars(plain), ZPolynomial.zero(n)):
        try:
            expected = term_by_term(poly, pt, ctx)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                poly.at_point(pt, ctx)
            continue
        assert poly.at_point(pt, ctx) == expected


@SUM_CONTEXTS
def test_at_point_of_a_zero_entry(ctx):
    # z1^-1 z2 at (0, 1) divides by zero; z1^0 z2 = z2 there is 1
    laurent = ZPolynomial(2, {(-1, 1): ctx.one}, laurent=True)
    with pytest.raises(ZeroDivisionError):
        laurent.at_point((ctx.zero, ctx.one), ctx)
    plain = ZPolynomial(2, {(0, 1): ctx.one, (2, 0): ctx.q})
    assert plain.at_point((ctx.zero, ctx.one), ctx) == ctx.one


@SUM_CONTEXTS
@settings(max_examples=25, deadline=None)
@given(st.lists(evaluations(), min_size=1, max_size=3))
def test_forms_view_back_and_sum_like_the_field(ctx, cases):
    # (D, P) views back to the polynomial; a form sum over the running lcm
    # views to the field sum; a zero sum has an empty numerator
    polys = [ZPolynomial(3, {(*e, 0, 0)[:3]: c for e, c in (
        (e, in_context(c, ctx)) for e, c in terms.items()) if c is not None},
        laurent=True) for _, terms, _ in cases]
    forms = [ring_form(p, ctx) for p in polys]
    for p, (den, num) in zip(polys, forms):
        assert field_view(den, num, ctx) == p
    expected = ZPolynomial.zero(3)
    for p in polys:
        expected = expected + p
    assert field_view(*form_sum(forms, ctx), ctx) == expected
    den, num = form_sum([*forms, *((d, p.scale(-1)) for d, p in forms)], ctx)
    assert num.is_zero


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def z(i, n=2):
    return variable(n, i)


def test_poly_arith_examples():
    p = (z(1) + z(2)) * (z(1) - z(2))
    assert p == ZPolynomial(2, {(2, 0): G.one, (0, 2): -G.one})
    some = ZPolynomial(2, {(1, 0): G.one, (0, 1): T})
    assert (some + some.scale(-G.one)).is_zero
    assert (some - some).is_zero
    one = ZPolynomial.constant(2, G.one)
    assert some * one == some


def test_poly_arith_rejects_mismatched_arity():
    two, three = ZPolynomial.constant(2, G.one), ZPolynomial.constant(3, G.one)
    for op in (ZPolynomial.__add__, ZPolynomial.__sub__, ZPolynomial.__mul__):
        with pytest.raises(AlgebraError):
            op(two, three)


def test_non_laurent_rejects_negative_exponents():
    with pytest.raises(AlgebraError):
        ZPolynomial(2, {(-1, 0): G.one})
    ZPolynomial(2, {(-1, 0): G.one}, laurent=True)


@pytest.mark.parametrize("nvars, terms, laurent, message", [
    (2, {(1, 0): 1, (2, -1): 1}, False,
     "negative exponent in non-Laurent polynomial: (2, -1)"),
    (2, {(1, 0): 1, (1, 0, 0): 1}, False,
     "exponent vector (1, 0, 0) has length 3, expected 2"),
    (2, {(1,): 1}, True, "exponent vector (1,) has length 1, expected 2"),
    # a zero coefficient is checked too
    (1, {(-1,): 0}, False,
     "negative exponent in non-Laurent polynomial: (-1,)"),
    # the first bad term, in order, is the one named
    (2, {(-1, 0): 1, (1,): 1}, False,
     "negative exponent in non-Laurent polynomial: (-1, 0)"),
    (2, {(1,): 1, (-1, 0): 1}, False,
     "exponent vector (1,) has length 1, expected 2"),
])
def test_zpolynomial_names_the_first_bad_term(nvars, terms, laurent, message):
    with pytest.raises(AlgebraError) as err:
        ZPolynomial(nvars, {e: G.one * c for e, c in terms.items()}, laurent)
    assert str(err.value) == message


def test_elementary_symmetric():
    assert elementary_symmetric(2, 1) == z(1) + z(2)
    assert elementary_symmetric(2, 2) == ZPolynomial(2, {(1, 1): G.one})
    assert elementary_symmetric(3, 0) == ZPolynomial.constant(3, G.one)
    assert len(elementary_symmetric(4, 2).terms) == 6
    with pytest.raises(AlgebraError):
        elementary_symmetric(2, 3)


def test_substitute_modes():
    lp = ZPolynomial(2, {(1, -1): G.one}, laurent=True)
    assert invert_vars(lp) == ZPolynomial(
        2, {(-1, 1): G.one}, laurent=True)

    # z2 - 1/t at (1, 1/t) vanishes
    p2 = ZPolynomial(2, {(0, 1): G.one, (0, 0): -G.monomial(0, -1)})
    val = p2.at_point((G.one, G.monomial(0, -1)))
    assert val == G.zero
    with pytest.raises(AlgebraError):
        p2.at_point((G.one,))


def test_top_homogeneous():
    p = ZPolynomial(2, {(0, 1): G.one, (0, 0): -G.monomial(0, -1)})
    assert p.top_homogeneous() == ZPolynomial(2, {(0, 1): G.one})
    one = ZPolynomial.constant(2, G.one)
    assert one.top_homogeneous() == one
    with pytest.raises(AlgebraError):
        ZPolynomial.zero(2).top_homogeneous()


def test_constant_term():
    # 1 - z1/z2 - q z2/z1 + q
    p = ZPolynomial(2, {
        (0, 0): G.one + Q,
        (1, -1): -G.one,
        (-1, 1): -Q,
    }, laurent=True)
    assert constant_term(p) == 1 + Q
    assert constant_term(ZPolynomial(2, {(1, 0): G.one})) == 0
    assert constant_term(ZPolynomial.constant(2, G.from_int(5))) == G.from_int(5)


def test_poly_text():
    p = ZPolynomial(2, {(0, 1): G.one, (0, 0): -G.monomial(0, -1)})
    assert p.text(G) == "z2 - 1/t"
    p2 = ZPolynomial(2, {(1, 0): G.one, (0, 1): (T - 1) / (Q * T - 1)})
    assert p2.text(G) == "z1 + ((t - 1)/(q*t - 1))*z2"


small_zpolys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.sampled_from([1, -1, 2]),
    min_size=1, max_size=3,
).map(lambda d: ZPolynomial(2, {e: G.from_int(c) for e, c in d.items()}))


@settings(max_examples=30, deadline=None)
@given(small_zpolys, small_zpolys)
def test_top_homogeneous_multiplicative(p, q_poly):
    prod = p * q_poly
    if prod.is_zero:
        return
    assert prod.top_homogeneous() == p.top_homogeneous() * q_poly.top_homogeneous()


@settings(max_examples=30, deadline=None)
@given(small_zpolys, st.integers(1, 1))
def test_divided_difference_is_exact_division(p, i):
    # (z_i - z_{i+1}) * DD(p) reconstructs s_i p - p
    diff = swap_vars(p, i) - p
    mult = ZPolynomial(2, {(1, 0): G.one, (0, 1): -G.one})
    assert mult * divided_difference(p, i) == diff
