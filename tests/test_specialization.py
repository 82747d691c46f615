"""Specialisation commutes with the computation.

Each symbolic E, Estar, A^(r), binomial, N and psi, evaluated at a rational
point with ``scalar_eval``, equals the value computed at that point, and
the symbolic value at reciprocal parameters equals the value computed in
the point's ``inverted()`` context.  Labels are drawn beyond the bounds of
the acceptance tests.  The points are quotients of distinct primes, so no
factor 1 - q^a t^b vanishes at them.
"""

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

from qtmac import comb, emac, istar, pieri
from qtmac.scalar import GENERIC, scalar_eval, specialized

PRIMES = (11, 13, 17, 19, 23, 29, 31, 37)


@st.composite
def points(draw):
    a, b, c, d = draw(st.permutations(PRIMES))[:4]
    return Fraction(a, b), Fraction(c, d)


@st.composite
def labels(draw, max_n=4, max_mod=4):
    n = draw(st.integers(1, max_n))
    top = max_mod if n < 4 else 3
    eta = draw(st.lists(st.integers(0, top), min_size=n, max_size=n)
               .filter(lambda eta: sum(eta) <= top))
    return tuple(eta)


def contexts(point):
    """(symbolic, at the point) and the same pair at reciprocal parameters."""
    ctx = specialized(*point)
    return (GENERIC, ctx), (GENERIC.inverted(), ctx.inverted())


def at(value, point):
    return scalar_eval(value, *point)


def table_at(table, point):
    """A table or polynomial's terms of symbolic values at the point, with
    the entries that vanish there dropped, as a computation there drops
    them."""
    evaluated = {key: at(c, point) for key, c in table.items()}
    return {key: c for key, c in evaluated.items() if c}


@settings(max_examples=20, deadline=None)
@given(labels(), points())
def test_polynomials_specialise(eta, point):
    for sym, ctx in contexts(point):
        for generate in (emac.generate_E, istar.generate_Estar):
            assert table_at(generate(eta, sym).terms, point) \
                == generate(eta, ctx).terms, (generate.__name__, eta)


@settings(max_examples=20, deadline=None)
@given(labels(max_mod=3), points())
def test_pieri_coefficients_specialise(eta, point):
    for sym, ctx in contexts(point):
        for r in range(1, len(eta) + 1):
            assert table_at(pieri.pieri_homogeneous(eta, r, sym), point) \
                == pieri.pieri_homogeneous(eta, r, ctx), (eta, r)


@settings(max_examples=25, deadline=None)
@given(labels(), st.data(), points())
def test_binomials_and_norms_specialise(eta, data, point):
    nu = data.draw(st.lists(st.integers(0, 4), min_size=len(eta),
                            max_size=len(eta))
                   .filter(lambda nu: sum(eta) < sum(nu) <= sum(eta) + 3)
                   .map(tuple), label="nu")
    for sym, ctx in contexts(point):
        assert at(istar.binomial_direct(eta, nu, sym), point) \
            == istar.binomial_direct(eta, nu, ctx), (eta, nu)
        assert at(emac.norm_N(eta, sym), point) == emac.norm_N(eta, ctx), eta


@settings(max_examples=20, deadline=None)
@given(labels(max_n=3), st.data(), points())
def test_psi_specialises(eta, data, point):
    kappa = comb.partition_of(eta)
    strips = [lam for lam in comb.compositions(len(kappa), sum(kappa) + 1)
              if emac.is_vertical_strip(kappa, lam)]
    strips += [lam for r in range(2, len(kappa) + 1)
               for lam in comb.compositions(len(kappa), sum(kappa) + r)
               if emac.is_vertical_strip(kappa, lam)]
    lam = data.draw(st.sampled_from(strips), label="lam")
    for sym, ctx in contexts(point):
        assert at(emac.psi_coefficient(kappa, lam, None, sym), point) \
            == emac.psi_coefficient(kappa, lam, None, ctx), (kappa, lam)
