"""Constant-term inner product at t = q^k."""

import pytest

from qtmac.scalar import GENERIC, AlgebraError, subst_t_power
from qtmac.algebra import ZPolynomial
from qtmac import comb, ctnorm, emac, verify

from helpers import constant_term, denom_terms, invert_vars, numer_terms

G = GENERIC
Q = G.q


def test_weight_examples():
    w = ctnorm.specialized_weight(2, 1)
    expected = (ZPolynomial(2, {(0, 0): G.one, (1, -1): -G.one}, laurent=True)
                * ZPolynomial(2, {(0, 0): G.one, (-1, 1): -Q}, laurent=True))
    assert w == expected

    assert ctnorm.specialized_weight(2, 0) == \
        ZPolynomial.constant(2, G.one, laurent=True)

    # k = 2 equals the direct Pochhammer product
    w2 = ctnorm.specialized_weight(2, 2)
    a = ZPolynomial(2, {(0, 0): G.one, (1, -1): -G.one}, laurent=True)
    aq = ZPolynomial(2, {(0, 0): G.one, (1, -1): -Q}, laurent=True)
    b = ZPolynomial(2, {(0, 0): G.one, (-1, 1): -Q}, laurent=True)
    bq = ZPolynomial(2, {(0, 0): G.one, (-1, 1): -Q * Q}, laurent=True)
    assert w2 == a * aq * b * bq


def test_weight_rejects_bad_arguments():
    with pytest.raises(AlgebraError):
        ctnorm.specialized_weight(1, 1)
    with pytest.raises(AlgebraError):
        ctnorm.specialized_weight(2, -1)


def test_one_one_example():
    w = ctnorm.specialized_weight(2, 1)
    one = ZPolynomial.constant(2, G.one)
    assert ctnorm.ct_inner_product(one, one, w) == 1 + Q


def test_orthogonality_example():
    # the second argument is given at reciprocal parameters
    w = ctnorm.specialized_weight(2, 1)
    e10 = ctnorm.specialize_E((1, 0), 1)
    e01 = ctnorm.specialize_E((0, 1), 1)
    e10_bar = ctnorm.specialize_E((1, 0), 1, G.inverted())
    e01_bar = ctnorm.specialize_E((0, 1), 1, G.inverted())
    assert e10_bar != e10
    assert ctnorm.ct_inner_product(e10, e01_bar, w) == G.zero
    assert ctnorm.ct_inner_product(e01, e10_bar, w) == G.zero
    # norm of E_(0,1) equals <1,1> since its hook-product norm is 1
    assert ctnorm.ct_inner_product(e01, e01_bar, w) == 1 + Q
    assert ctnorm.ct_inner_product(e10, e10_bar, w) == \
        subst_t_power(emac.norm_N((1, 0)), 1) * (1 + Q)


def test_term_pairs_are_the_expanded_product():
    # ct_inner_product sums coefficient products over term pairs; the
    # reference expands f(z) g_bar(1/z) W(z) and reads off its constant term
    for n, k, maxmod in [(2, 1, 2), (2, 2, 2), (3, 1, 1), (3, 2, 1)]:
        w = ctnorm.specialized_weight(n, k)
        labels = list(comb.compositions_up_to(n, maxmod))
        for eta in labels:
            f = ctnorm.specialize_E(eta, k)
            for nu in labels:
                g_bar = ctnorm.specialize_E(nu, k, G.inverted())
                expanded = constant_term(f * invert_vars(g_bar) * w)
                assert ctnorm.ct_inner_product(f, g_bar, w) == expanded, \
                    (n, k, eta, nu)


def test_verify_orthogonality_norms_reports():
    for n, k, maxmod in [(2, 1, 2), (2, 2, 2), (3, 1, 1)]:
        report = verify.suite_norms(n, maxmod, ks=(k,))
        assert report.ok, report.failures[:3]
        assert report.checked > 0


def test_one_one_has_nonnegative_integer_coefficients():
    for n, k in [(2, 1), (2, 2), (3, 1)]:
        w = ctnorm.specialized_weight(n, k)
        one = ZPolynomial.constant(n, G.one)
        val = ctnorm.ct_inner_product(one, one, w)
        assert denom_terms(val) == [((0, 0), 1)]
        assert all(int(c) > 0 for _, c in numer_terms(val))


def test_norm_symmetry_under_parameter_inversion():
    # specialized norm at (q, q^k) equals its value at (1/q, q^-k)
    for k in (1, 2):
        for eta in comb.compositions_up_to(2, 2):
            spec = subst_t_power(emac.norm_N(eta), k)
            inv = subst_t_power(emac.norm_N(eta, G.inverted()), k)
            assert inv == spec, (eta, k)
