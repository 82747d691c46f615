"""Constant-term inner product at t = q^k.

At nonnegative integer k the infinite-product weight truncates to a finite
Laurent polynomial: each Pochhammer ratio collapses to a length-k product.
This makes the inner product
    <f, g> = CT[ f(z) g(1/z; 1/q, 1/t) W(z) ]
exactly computable, which validates both the orthogonality of the E basis
and the closed-form norms.
"""

from __future__ import annotations

from .scalar import GENERIC, AlgebraError, ScalarContext, subst_t_power
from .algebra import ZPolynomial
from . import emac
from .comb import Composition


def _ratio_monomial(n: int, i: int, j: int, ctx: ScalarContext,
                    qpow: int) -> ZPolynomial:
    """q^qpow * z_i / z_j as a Laurent monomial (1-based i, j)."""
    exps = tuple(1 if v == i - 1 else (-1 if v == j - 1 else 0)
                 for v in range(n))
    return ZPolynomial.monomial(n, exps, ctx.monomial(qpow, 0), laurent=True)


def specialized_weight(n: int, k: int,
                       ctx: ScalarContext = GENERIC) -> ZPolynomial:
    """The truncated weight: product over i<j of
    (z_i/z_j; q)_k (q z_j/z_i; q)_k, expanded exactly."""
    if n < 2:
        raise AlgebraError("the weight needs at least two variables")
    if k < 0:
        raise AlgebraError("k must be a nonnegative integer")
    weight = ZPolynomial.constant(n, ctx.one, laurent=True)
    one = ZPolynomial.constant(n, ctx.one, laurent=True)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for p in range(k):
                weight = weight * (one - _ratio_monomial(n, i, j, ctx, p))
                weight = weight * (one - _ratio_monomial(n, j, i, ctx, p + 1))
    return weight


def ct_inner_product(f: ZPolynomial, g_bar: ZPolynomial, w: ZPolynomial,
                     ctx: ScalarContext = GENERIC):
    """CT[f(z) g(1/z; 1/q, 1/t) W], where ``g_bar`` is g computed at the
    reciprocal parameters already (in ``ctx.inverted()``); f and g_bar are
    expected to be specialized at t = q^k.

    The product is never expanded: the constant term is the sum of
    cf cg W[eg - ef] over the terms cf z^ef of f and cg z^eg of g_bar, in
    one ``ctx.product_sum``.
    """
    if f.nvars != w.nvars or g_bar.nvars != w.nvars:
        raise AlgebraError("variable count mismatch with the weight")
    return ctx.product_sum(
        (cf, cg, w.terms[gap])
        for ef, cf in f.terms.items() for eg, cg in g_bar.terms.items()
        if (gap := tuple(b - a for a, b in zip(ef, eg))) in w.terms)


def specialize_E(eta: Composition, k: int,
                 ctx: ScalarContext = GENERIC) -> ZPolynomial:
    """E_eta with every coefficient restricted to t = q^k."""
    poly = emac.generate_E(eta, ctx)
    if ctx.generic:
        return poly.map_coeffs(lambda c: subst_t_power(c, k))
    raise AlgebraError("specialize_E at t=q^k is a symbolic-mode operation")
