"""Interpolation Macdonald polynomials and binomial coefficients."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qtmac.scalar import GENERIC, AlgebraError, specialized
from qtmac.algebra import ZPolynomial, field_view, ring_form
from qtmac import comb, emac, istar

from field_operators import (beta_factor, delta_factor, expand_eigenword,
                             field_H, field_phi_star)
from helpers import variable
from test_algebra import SUM_CONTEXTS
from test_emac import hecke_view

G = GENERIC
Q, T = G.q, G.t
TINV = G.monomial(0, -1)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def phi_view(p, ctx=G):
    """Phi p: the view of emac.phi_form on the form of p."""
    return field_view(*emac.phi_form(*ring_form(p, ctx), ctx), ctx)


def xi_view(i, p, ctx=G):
    """Xi_i p: the view of xi_form on the form of p."""
    return field_view(*istar.xi_form(i, *ring_form(p, ctx), ctx), ctx)


def test_apply_H_examples():
    one = ZPolynomial.constant(2, G.one)
    assert hecke_view(1, one, star=True) == one.scale(T)
    z2 = variable(2, 2)
    assert hecke_view(1, z2, star=True) == variable(2, 1)


def test_H_quadratic_relation():
    z1 = variable(2, 1)
    step = hecke_view(1, z1, star=True) - z1.scale(T)
    assert (hecke_view(1, step, star=True) + step).is_zero


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.sampled_from([1, -1, 2]),
    min_size=1, max_size=3,
).map(lambda d: ZPolynomial(3, {e: G.from_int(c) for e, c in d.items()}))


@settings(max_examples=20, deadline=None)
@given(small_polys)
def test_H_hecke_relations(p):
    def h(i, r):
        return hecke_view(i, r, star=True)

    for i in (1, 2):
        hi = h(i, p)
        assert h(i, hi) == hi.scale(T - 1) + p.scale(T)
    assert h(1, h(2, h(1, p))) == h(2, h(1, h(2, p)))


def test_apply_phi_star_examples():
    one = ZPolynomial.constant(2, G.one)
    assert phi_view(one) == ZPolynomial(
        2, {(0, 1): G.one, (0, 0): -TINV})
    # a second application builds the (1,1) polynomial
    p = phi_view(phi_view(one))
    expected = (ZPolynomial(2, {(0, 1): G.one, (0, 0): -TINV})
                * ZPolynomial(2, {(1, 0): G.one, (0, 0): -TINV}))
    assert p == expected
    c = ZPolynomial.constant(2, Q)
    assert phi_view(c) == ZPolynomial(
        2, {(0, 1): Q, (0, 0): -Q * TINV})


def test_xi_examples():
    one = ZPolynomial.constant(2, G.one)
    assert xi_view(1, one) == one
    p01 = istar.generate_Estar((0, 1))
    assert xi_view(2, p01) == p01.scale(Q ** -1)
    for n in (2, 3):
        zero = ZPolynomial.constant(n, G.one)
        for i in range(1, n + 1):
            assert xi_view(i, zero) == zero.scale(G.monomial(0, i - 1))


# the eigenoperator word in field arithmetic, normalising after every
# operation: the reference for the ring word of xi_form and phi_form

def field_xi(i, p, ctx):
    """z_i^-1 p + z_i^-1 H_i ... H_{n-1} Phi H_1 ... H_{i-1} p."""
    n = p.nvars
    word = p
    for j in range(i - 1, 0, -1):
        word = field_H(j, word, ctx)
    word = field_phi_star(word, ctx)
    for j in range(n - 1, i - 1, -1):
        word = field_H(j, word, ctx)
    zi_inv = ZPolynomial.monomial(
        n, tuple(-1 if j == i - 1 else 0 for j in range(n)), ctx.one,
        laurent=True)
    return zi_inv * (p + word)


@SUM_CONTEXTS
def test_ring_eigenword_is_the_field_word_on_Estar(ctx):
    for n in (1, 2, 3):
        for eta in comb.compositions_up_to(n, 3):
            p = istar.generate_Estar(eta, ctx)
            assert phi_view(p, ctx) == field_phi_star(p, ctx), eta
            for i in range(1, n + 1):
                assert xi_view(i, p, ctx) == field_xi(i, p, ctx), \
                    (eta, i)


# n, then {exponents: (k, a, b, c, d)} for the coefficient
# k q^a t^b / (1 - q^c t^d); exponents from -1 make a Laurent polynomial
laurent_specs = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n),
    st.dictionaries(
        st.tuples(*[st.integers(-1, 2)] * n),
        st.tuples(st.sampled_from([1, -1, 2]), st.integers(-2, 2),
                  st.integers(-2, 2), st.integers(1, 2), st.integers(0, 2)),
        max_size=4)))


@SUM_CONTEXTS
@settings(max_examples=20, deadline=None)
@given(laurent_specs)
def test_ring_eigenword_is_the_field_word_on_any_polynomial(ctx, spec):
    # not eigenfunctions, denominators that differ from term to term,
    # Laurent exponents, and the zero polynomial
    n, terms = spec
    p = ZPolynomial(n, {
        e: ctx.from_int(k) * ctx.monomial(a, b) / ctx.one_minus(c, d)
        for e, (k, a, b, c, d) in terms.items()},
        laurent=any(x < 0 for e in terms for x in e))
    assert phi_view(p, ctx) == field_phi_star(p, ctx)
    for i in range(1, n + 1):
        assert xi_view(i, p, ctx) == field_xi(i, p, ctx), i


# ---------------------------------------------------------------------------
# generation and evaluations
# ---------------------------------------------------------------------------

def test_generate_Estar_examples():
    assert istar.generate_Estar((0, 0)) == ZPolynomial.constant(2, G.one)
    assert istar.generate_Estar((0, 1)) == ZPolynomial(
        2, {(0, 1): G.one, (0, 0): -TINV})
    expected = ZPolynomial(2, {
        (1, 0): G.one,
        (0, 1): (T - 1) / (Q * T - 1),
        (0, 0): -(Q * T ** 2 - 1) / (T * (Q * T - 1)),
    })
    assert istar.generate_Estar((1, 0)) == expected


def test_generate_Estar_triangular():
    for n, maxmod in ((2, 4), (3, 3)):
        for eta in comb.compositions_up_to(n, maxmod):
            poly = istar.generate_Estar(eta)
            assert poly.coefficient(eta) == G.one
            assert poly.total_degree() == comb.modulus(eta)
            for mu in poly.terms:
                if mu != eta:
                    assert comb.prec(mu, eta), (eta, mu)


def test_principal_value_examples():
    assert istar.principal_value((0, 0, 0)) == G.one
    assert istar.principal_value((0, 1)) == Q - TINV
    assert istar.principal_value((1, 1)) == (Q - 1) * (Q * T - 1) / T ** 2


def test_spectral_evaluate_examples():
    assert istar.spectral_evaluate((0, 1), (0, 0)) == G.zero
    assert istar.spectral_evaluate((0, 1), (1, 1)) == TINV * (Q - 1)
    assert istar.spectral_evaluate((0, 1), (2, 0)) == G.zero


# symbolic, and two rational points with their reciprocal points
EVALUATION_CONTEXTS = [G, *(point for ctx in (
    specialized(Fraction(-2, 3), Fraction(5, 7)),
    specialized(3, Fraction(1, 2))) for point in (ctx, ctx.inverted()))]


@pytest.mark.parametrize("ctx", EVALUATION_CONTEXTS,
                         ids=lambda ctx: ctx.params_label())
def test_spectral_evaluate_matches_at_point(ctx):
    # the packed-key fast path against the general evaluator: |eta| <= 3 up
    # to n = 3, and |eta| <= 2 at n = 4 and 5, the sizes of the benchmark's
    # specialized queries
    for n, max_mod in ((1, 3), (2, 3), (3, 3), (4, 2), (5, 2)):
        for eta in comb.compositions_up_to(n, max_mod):
            poly = istar.generate_Estar(eta, ctx)
            for mu in comb.compositions_up_to(n, comb.modulus(eta) + 2):
                expected = poly.at_point(comb.spectral_vector(mu, ctx), ctx)
                assert istar.spectral_evaluate(eta, mu, ctx) == expected, \
                    (eta, mu)


def test_principal_value_matches_direct_evaluation():
    # the closed form, one product of hook factors, against the spectral
    # evaluation and the general evaluator at every kind of point: |eta| <= 3
    # up to n = 3, and |eta| <= 2 at n = 4 and 5
    for ctx in EVALUATION_CONTEXTS:
        for n, max_mod in ((1, 3), (2, 3), (3, 3), (4, 2), (5, 2)):
            for eta in comb.compositions_up_to(n, max_mod):
                value = istar.principal_value(eta, ctx)
                assert value == istar.spectral_evaluate(eta, eta, ctx), \
                    (ctx, eta)
                poly = istar.generate_Estar(eta, ctx)
                assert value == poly.at_point(comb.spectral_vector(eta, ctx),
                                              ctx), (ctx, eta)


def test_vanishing_solve_oracle_examples():
    assert istar.vanishing_solve_oracle((0, 0)) == \
        ZPolynomial.constant(2, G.one)
    assert istar.vanishing_solve_oracle((0, 1)) == \
        istar.generate_Estar((0, 1))
    assert istar.vanishing_solve_oracle((1, 0)) == \
        istar.generate_Estar((1, 0))


def test_extra_vanishing_examples():
    assert istar.extra_vanishing_test((0, 1), (2, 0)) is True
    assert istar.extra_vanishing_test((1, 2, 1), (1, 2, 2)) is False
    assert istar.extra_vanishing_test((1, 2), (1, 2)) is False
    with pytest.raises(AlgebraError):
        istar.extra_vanishing_test((1, 1), (0, 0))


# ---------------------------------------------------------------------------
# one-step ratio
# ---------------------------------------------------------------------------

def test_one_step_ratio_closed_form_matches_evaluations():
    for eta in comb.compositions_up_to(3, 3):
        for lam in comb.one_step(eta):
            lhs = istar.spectral_evaluate(eta, lam) / istar.principal_value(lam)
            assert istar.one_step_ratio(eta, lam) == lhs, (eta, lam)


def test_one_step_ratio_zero_off_successors():
    assert istar.one_step_ratio((0, 2), (3, 0)) == G.zero


# the moduli differ by one, so only a length check refuses this pair
@pytest.mark.parametrize("read", [istar.one_step_ratio,
                                  istar.spectral_evaluate],
                         ids=lambda read: read.__name__)
def test_labels_of_different_lengths_are_refused(read):
    with pytest.raises(AlgebraError) as err:
        read((0, 0), (1, 0, 0))
    assert str(err.value) == f"{read.__name__} requires equal lengths"


def field_delta_beta(eta, index_set, ctx):
    # delta(eta, I) and beta(eta, I) replaced: one field operation per step
    lam = comb.c_I_apply(eta, index_set)
    ez, lz = comb.spectral_exponents(eta), comb.spectral_exponents(lam)
    ts = sorted(index_set)
    delta = ctx.one
    for tu in ts:
        (la, lb), (ea, eb) = lz[tu - 1], ez[tu - 1]
        delta = delta * (ctx.t - ctx.one) / (ctx.one - ctx.monomial(la - ea, lb - eb))
    beta = ctx.one
    for i in range(1, len(eta) + 1):
        if i in ts:
            continue
        if i < ts[-1]:
            tu = min(tt for tt in ts if tt > i)
            if eta[i - 1] <= eta[tu - 1]:
                continue
            a, b = ez[tu - 1]
        else:
            if eta[i - 1] <= eta[ts[0] - 1] + 1:
                continue
            a, b = ez[ts[0] - 1][0] + 1, ez[ts[0] - 1][1]
        x = ctx.monomial(a - ez[i - 1][0], b - ez[i - 1][1])
        beta = beta * (x - ctx.t) * (ctx.t * x - ctx.one) / (x - ctx.one) ** 2
    return delta, beta


@pytest.mark.parametrize("ctx", [
    G, G.inverted(), specialized(Fraction(-2, 3), Fraction(5, 7)),
    specialized(3, Fraction(-1, 2))], ids=lambda ctx: ctx.params_label())
def test_one_step_ratio_is_the_field_product_and_the_binomial(ctx):
    # multiplied out in parts and normalised once, the one-step ratio is the
    # field product of its factors and Estar_eta(lam-bar)/Estar_lam(lam-bar)
    for n in range(1, 5):
        for eta in comb.compositions_up_to(n, 3):
            for lam, index_set in comb.one_step(eta).items():
                delta, beta = field_delta_beta(eta, index_set, ctx)
                assert delta_factor(eta, lam, index_set, ctx) == delta
                assert beta_factor(eta, index_set, ctx) == beta
                ratio = istar.one_step_ratio(eta, lam, ctx)
                assert ratio == (ctx.monomial(-eta[min(index_set) - 1], 0)
                                 * delta * beta / (ctx.one - ctx.t)), (eta, lam)
                assert ratio == istar.binomial_direct(eta, lam, ctx), (eta, lam)


# ---------------------------------------------------------------------------
# binomial coefficients
# ---------------------------------------------------------------------------

def test_binomial_direct_examples():
    assert istar.binomial_direct((0, 1), (0, 1)) == G.one
    assert istar.binomial_direct((0, 1), (1, 1)) == T / (Q * T - 1)
    assert istar.binomial_direct((0, 0), (0, 1)) == T / (Q * T - 1)


def test_binomial_recursive_examples():
    assert istar.binomial_recursive((0, 0), (1, 0)) == \
        istar.binomial_direct((0, 0), (1, 0))
    assert istar.binomial_recursive((0, 1), (1, 1)) == T / (Q * T - 1)
    assert istar.binomial_recursive((0, 0), (1, 1)) == \
        istar.binomial_direct((0, 0), (1, 1))


# the recursion in field arithmetic, normalising after every operation, over
# the expansion of the eigenoperator word itself: the reference for the sum
# in parts over the maximal index sets

def field_binomial_recursive(eta, nu, ctx):
    gap = comb.modulus(nu) - comb.modulus(eta)
    if not comb.is_successor(eta, nu):
        return ctx.zero
    if gap == 1:
        return istar.one_step_ratio(eta, nu, ctx)
    pos = istar.recursion_position(eta, nu, ctx)
    eb = comb.spectral_vector(eta, ctx)
    nb = comb.spectral_vector(nu, ctx)
    denom = nb[pos - 1] / eb[pos - 1] - ctx.one
    total = ctx.zero
    # the word's coefficient of lab is (lab-bar_k/eta-bar_k - 1) binom(eta, lab)
    for lab, coeff in expand_eigenword(eta, pos, ctx).items():
        if comb.is_successor(lab, nu):
            total = total + (coeff / denom
                             * field_binomial_recursive(lab, nu, ctx))
    return total


@SUM_CONTEXTS
def test_binomial_recursive_is_the_field_recursion_and_the_binomial(ctx):
    for n in range(1, 4):
        labels = list(comb.compositions_up_to(n, 4))
        for nu in labels:
            for eta in labels:
                if comb.modulus(eta) >= comb.modulus(nu):
                    continue
                got = istar.binomial_recursive(eta, nu, ctx)
                assert got == field_binomial_recursive(eta, nu, ctx), (eta, nu)
                assert got == istar.binomial_direct(eta, nu, ctx), (eta, nu)


def test_binomial_recursive_requires_larger_modulus():
    with pytest.raises(AlgebraError):
        istar.binomial_recursive((1, 0), (1, 0))


def test_recursion_position_guard():
    # position 1 has equal value and leg colength in both labels, so the
    # default frequency rule must not be used blindly
    assert istar.leftmost_frequency_mismatch((2, 0), (2, 2)) == 1
    assert istar.recursion_position((2, 0), (2, 2)) == 2
    assert comb.spectral_vector((2, 0))[0] == comb.spectral_vector((2, 2))[0]
    assert istar.binomial_recursive((2, 0), (2, 2)) == \
        istar.binomial_direct((2, 0), (2, 2))


def test_expand_eigenword_labels_are_one_step_successors():
    # exactly the c_I(eta), I maximal, whose spectral entry at k is not
    # eta's: the labels that binomial_recursive sums over
    for n in range(1, 5):
        for eta in comb.compositions_up_to(n, 3):
            succ = set(comb.one_step(eta))
            at = comb.spectral_exponents(eta)
            for k in range(1, n + 1):
                labels = set(expand_eigenword(eta, k))
                assert labels == {
                    lab for lab in succ
                    if comb.spectral_exponents(lab)[k - 1] != at[k - 1]}, \
                    (eta, k)


def test_expand_eigenword_matches_eigenoperator_coefficients():
    # the word coefficients satisfy c = (nu-bar_k/eta-bar_k - 1) binom(eta,nu)
    for eta in [(0, 0), (1, 0), (0, 2)]:
        n = len(eta)
        eb = comb.spectral_vector(eta)
        for k in range(1, n + 1):
            for nu, c in expand_eigenword(eta, k).items():
                nb = comb.spectral_vector(nu)
                expected = (nb[k - 1] / eb[k - 1] - G.one) * \
                    istar.binomial_direct(eta, nu)
                assert c == expected, (eta, k, nu)
