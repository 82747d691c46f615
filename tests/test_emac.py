"""Nonsymmetric Macdonald polynomials, norms, symmetrization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qtmac.algebra import (GENERIC, AlgebraError, ZPolynomial,
                           elementary_symmetric, field_view, ring_form,
                           specialized)
from qtmac import comb, emac

from field_operators import apply_phi_q, field_phi_q, field_T, field_T_inverse
from helpers import swap_vars, variable
from test_algebra import SUM_CONTEXTS

G = GENERIC
Q, T = G.q, G.t


def zvar(i, n=2):
    return variable(n, i)


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.sampled_from([1, -1, 2]),
    min_size=1, max_size=3,
).map(lambda d: ZPolynomial(3, {e: G.from_int(c) for e, c in d.items()}))


# ---------------------------------------------------------------------------
# the switching operators on forms
# ---------------------------------------------------------------------------

def hecke_view(i, p, ctx=G, star=False):
    """T_i p, or H_i p when ``star``: the view of td T_i (td H_i) on the
    form of p."""
    den, num = ring_form(p, ctx)
    _, td = ctx.parts(ctx.t)
    return field_view(den * td, emac.hecke_step(i, num, ctx, star), ctx)


def test_apply_T_examples():
    one = ZPolynomial.constant(2, G.one)
    assert hecke_view(1, one) == one.scale(T)
    assert hecke_view(1, zvar(2)) == ZPolynomial(2, {(1, 0): T, (0, 1): T - 1})


def test_quadratic_hecke_relation_on_z1():
    p = zvar(1)
    step = hecke_view(1, p) - p.scale(T)      # (T_1 - t) z1
    out = hecke_view(1, step) + step          # (T_1 + 1)(T_1 - t) z1
    assert out.is_zero


@settings(max_examples=20, deadline=None)
@given(small_polys)
def test_hecke_relations_on_random_polynomials(p):
    for i in (1, 2):
        ti = hecke_view(i, p)
        assert hecke_view(i, ti) == ti.scale(T - 1) + p.scale(T)  # quadratic
    lhs = hecke_view(1, hecke_view(2, hecke_view(1, p)))
    rhs = hecke_view(2, hecke_view(1, hecke_view(2, p)))
    assert lhs == rhs  # braid


def test_commuting_relation_distant_indices():
    p = ZPolynomial(4, {(1, 0, 2, 0): G.one, (0, 1, 0, 1): T})
    assert hecke_view(1, hecke_view(3, p)) == hecke_view(3, hecke_view(1, p))


def test_apply_T_inverse():
    # the reference T_1^-1 inverts the T_1 that the package runs
    p = zvar(1) + zvar(2).scale(Q)
    assert hecke_view(1, field_T_inverse(1, p, G)) == p


# n = 4, then {exponents: (k, a, b, c, d)} for the coefficient
# k q^a t^b / (1 - q^c t^d); exponents from -1 make a Laurent polynomial
laurent_terms = st.dictionaries(
    st.tuples(*[st.integers(-1, 2)] * 4),
    st.tuples(st.sampled_from([1, -1, 2]), st.integers(-2, 2),
              st.integers(-2, 2), st.integers(1, 2), st.integers(0, 2)),
    max_size=4)


def laurent_form(ctx, terms, n=4):
    """The form of the polynomial that ``terms`` describes."""
    p = ZPolynomial(n, {
        e: ctx.from_int(k) * ctx.monomial(a, b) / ctx.one_minus(c, d)
        for e, (k, a, b, c, d) in terms.items()}, laurent=True)
    return ring_form(p, ctx)


@SUM_CONTEXTS
@settings(max_examples=20, deadline=None)
@given(laurent_terms)
def test_hecke_step_satisfies_the_hecke_relations_on_ring_forms(ctx, terms):
    # X = td T_i (td H_i when star): X^2 = (tn - td) X + tn td, the braid
    # relation, and X_1 X_3 = X_3 X_1, on ring numerators
    _, p = laurent_form(ctx, terms)
    tn, td = ctx.parts(ctx.t)
    for star in (False, True):
        def x(i, r):
            return emac.hecke_step(i, r, ctx, star)

        for i in (1, 2, 3):
            xp = x(i, p)
            assert x(i, xp) == xp.scale(tn - td) + p.scale(tn * td), (star, i)
        for i in (1, 2):
            assert x(i, x(i + 1, x(i, p))) == x(i + 1, x(i, x(i + 1, p))), \
                (star, i)
        assert x(1, x(3, p)) == x(3, x(1, p)), star


@SUM_CONTEXTS
@settings(max_examples=20, deadline=None)
@given(laurent_terms, st.integers(-3, 3))
def test_phi_form_power_of_q_is_a_scale(ctx, terms, k):
    den, p = laurent_form(ctx, terms)
    raised = field_view(*emac.phi_form(den, p, ctx, k), ctx)
    assert raised == field_view(*emac.phi_form(den, p, ctx), ctx).scale(
        ctx.monomial(k, 0))


# ---------------------------------------------------------------------------
# basis action tables
# ---------------------------------------------------------------------------

def test_act_T_basis_examples():
    table = comb.basis_action(1, (0, 1), T, G)
    assert table == {(0, 1): (T - 1) / (1 - Q * T), (1, 0): T}
    assert comb.basis_action(1, (1, 1), T, G) == {(1, 1): T}
    table = comb.basis_action(1, (1, 0), T, G)
    delta = Q * T
    assert table[(1, 0)] == (T - 1) / (1 - 1 / delta)
    assert table[(0, 1)] == (1 - T * delta) * (1 - delta / T) / (1 - delta) ** 2


def test_act_T_basis_consistency_with_operator():
    for eta in comb.compositions_up_to(3, 3):
        p = emac.generate_E(eta)
        for i in (1, 2):
            table = comb.basis_action(i, eta, T, G)
            expected = ZPolynomial.zero(3)
            for lam, c in table.items():
                expected = expected + emac.generate_E(lam).scale(c)
            assert hecke_view(i, p) == expected, (eta, i)


def test_apply_phi_q_examples():
    scalar, label = apply_phi_q((0, 0))
    assert scalar == G.monomial(0, -1) and label == (0, 1)
    scalar, label = apply_phi_q((1, 0))
    assert scalar == G.monomial(0, -1) and label == (0, 2)
    scalar, label = apply_phi_q((0, 3, 3))
    assert scalar == G.one and label == (3, 3, 1)


def test_phi_q_operator_matches_basis_action():
    for eta in comb.compositions_up_to(2, 2):
        scalar, label = apply_phi_q(eta)
        lhs = field_phi_q(emac.generate_E(eta), G)
        assert lhs == emac.generate_E(label).scale(scalar), eta


@SUM_CONTEXTS
@settings(max_examples=20, deadline=None)
@given(laurent_terms, st.integers(-3, 3))
def test_cycle_form_is_the_field_cycle(ctx, terms, k):
    # q^k Delta p = q^k p(z_n/q, z_1, ..., z_{n-1}), term by term
    den, p = laurent_form(ctx, terms)
    view = field_view(den, p, ctx)
    expected = ZPolynomial(4, {e[1:] + e[:1]: c * ctx.monomial(k - e[0], 0)
                               for e, c in view.terms.items()}, laurent=True)
    assert field_view(*emac.cycle_form(den, p, ctx, k), ctx) == expected


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_generate_E_examples():
    assert emac.generate_E((0, 0)) == ZPolynomial.constant(2, G.one)
    assert emac.generate_E((0, 1)) == ZPolynomial(2, {(0, 1): G.one})
    expected = ZPolynomial(2, {
        (1, 0): G.one,
        (0, 1): Q * (1 - T) / (1 - Q * T),
    })
    assert emac.generate_E((1, 0)) == expected


def test_E_raise_builds_no_term_it_drops(monkeypatch):
    # E raises by z_n times the cycle, so no top degree is cut out of a
    # wider polynomial (at a point no other test computes at)
    calls = []
    top = ZPolynomial.top_homogeneous

    def counted(self):
        calls.append(self)
        return top(self)

    monkeypatch.setattr(ZPolynomial, "top_homogeneous", counted)
    ctx = specialized(Fraction(41, 43), Fraction(47, 53))
    poly = emac.generate_E((2, 1, 0, 2, 1), ctx)
    assert poly.coefficient((2, 1, 0, 2, 1)) == 1
    assert calls == []


def test_generate_E_monic_triangular():
    for n, maxmod in ((2, 4), (3, 4)):
        for eta in comb.compositions_up_to(n, maxmod):
            poly = emac.generate_E(eta)
            assert poly.coefficient(eta) == G.one, eta
            for mu in poly.terms:
                if mu != eta:
                    assert comb.prec(mu, eta), (eta, mu)


def test_generate_E_specialized_matches_generic():
    from qtmac.algebra import scalar_eval
    ctx = specialized(Fraction(2, 5), Fraction(7, 2))
    for eta in comb.compositions_up_to(2, 3):
        num = emac.generate_E(eta, ctx)
        sym = emac.generate_E(eta)
        assert num == sym.map_coeffs(lambda c: scalar_eval(c, ctx.qval, ctx.tval))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_norm_examples():
    one = G.one
    assert emac.norm_N((0, 0, 0)) == one
    assert emac.norm_N((0, 1)) == one
    assert emac.norm_N((1, 0)) == (1 - Q) * (1 - Q * T ** 2) / (1 - Q * T) ** 2


def test_norm_invariant_under_parameter_inversion():
    for eta in comb.compositions_up_to(2, 3):
        assert emac.norm_N(eta, G.inverted()) == emac.norm_N(eta), eta


def test_norm_invariant_under_box_addition():
    for eta in comb.compositions_up_to(2, 2):
        assert emac.norm_N(eta) == emac.norm_N(comb.add_box_everywhere(eta))


# ---------------------------------------------------------------------------
# symmetrization
# ---------------------------------------------------------------------------

def test_symmetrize_P_examples():
    assert emac.symmetrize_P((), 2) == ZPolynomial.constant(2, G.one)
    assert emac.symmetrize_P((1,), 2) == ZPolynomial(
        2, {(1, 0): G.one, (0, 1): G.one})
    # P_(2) = m_2 + (1+q)(1-t)/(1-qt) m_11
    c = (1 + Q) * (1 - T) / (1 - Q * T)
    assert emac.symmetrize_P((2,), 2) == ZPolynomial(
        2, {(2, 0): G.one, (0, 2): G.one, (1, 1): c})


def test_symmetrize_P_is_symmetric():
    for kappa in [(1,), (2,), (1, 1), (2, 1), (3,)]:
        p = emac.symmetrize_P(kappa, 3)
        for i in (1, 2):
            assert swap_vars(p, i) == p, kappa


def test_symmetrize_P_hall_littlewood_and_schur_degenerations():
    from qtmac.algebra import scalar_eval
    coeff = emac.symmetrize_P((2,), 2).coefficient((1, 1))
    # q = 0: coefficient of m_11 in P_(2) becomes 1 - t
    assert scalar_eval(coeff, Fraction(0), Fraction(3, 7)) == 1 - Fraction(3, 7)
    # q = t: Schur, coefficient 1
    assert scalar_eval(coeff, Fraction(3, 7), Fraction(3, 7)) == 1


def field_hecke_symmetrize(p, ctx):
    """Sum of T_w p over all permutations w, one reduced word per w, in
    field arithmetic: the reference for the ring sum."""
    n = p.nvars
    frontier = {tuple(range(1, n + 1)): p}
    total = p
    while frontier:
        nxt = {}
        for w, tw in frontier.items():
            for i in range(1, n):
                if w.index(i) < w.index(i + 1):
                    sw = tuple(i + 1 if v == i else (i if v == i + 1 else v)
                               for v in w)
                    if sw not in nxt:
                        nxt[sw] = field_T(i, tw, ctx)
        for v in nxt.values():
            total = total + v
        frontier = nxt
    return total


@SUM_CONTEXTS
def test_ring_symmetrization_is_the_field_sum(ctx):
    # on every E_eta, symmetric or not, and P_kappa = S / S[kappa]; n = 4
    # is the first n whose coset product has three factors
    for n, size in ((1, 3), (2, 3), (3, 3), (4, 2)):
        for eta in comb.compositions_up_to(n, size):
            p = emac.generate_E(eta, ctx)
            expected = field_hecke_symmetrize(p, ctx)
            got = field_view(*emac.hecke_symmetrize(*ring_form(p, ctx), ctx),
                             ctx)
            assert got == expected, eta
            if comb.is_partition(eta):
                assert emac.symmetrize_P(eta, n, ctx) == expected.scale(
                    expected.coefficient(eta) ** -1), eta


@pytest.mark.parametrize("n", range(1, 7))
def test_symmetrization_takes_one_hecke_step_per_pair(n, monkeypatch):
    # the coset product C_1 ... C_(n-1) makes n(n-1)/2 steps, not n! - 1
    form = emac.common_form((1,) + (0,) * (n - 1))
    calls = []
    step = emac.hecke_step

    def counted(*args, **kwargs):
        calls.append(args)
        return step(*args, **kwargs)

    monkeypatch.setattr(emac, "hecke_step", counted)
    emac.hecke_symmetrize(*form)
    assert len(calls) == n * (n - 1) // 2


def test_symmetrize_P_rejects_non_partition():
    with pytest.raises(AlgebraError):
        emac.symmetrize_P((1, 2), 2)


# ---------------------------------------------------------------------------
# vertical-strip branching coefficients
# ---------------------------------------------------------------------------

def test_psi_examples():
    assert emac.psi_coefficient((1, 0), (2, 0), 2) == G.one
    assert emac.psi_coefficient((1, 0), (1, 1), 2) == \
        (1 + T) * (1 - Q) / (1 - Q * T)
    assert emac.psi_coefficient((), (1,), 1) == G.one


def test_psi_rejects_non_vertical_strip():
    with pytest.raises(AlgebraError):
        emac.psi_coefficient((1, 0), (3, 0), 2)
    with pytest.raises(AlgebraError):
        emac.psi_coefficient((2, 0), (1, 0), 2)


def test_symmetric_pieri_small():
    # e_1 P_(1) = psi_{(2)/(1)} P_(2) + psi_{(1,1)/(1)} P_(1,1)
    table = emac.symmetric_pieri_table((1,), 1, 2)
    assert set(table) == {(2, 0), (1, 1)}
    assert table[(2, 0)] == emac.psi_coefficient((1, 0), (2, 0), 2)
    assert table[(1, 1)] == emac.psi_coefficient((1, 0), (1, 1), 2)


def test_er_times_E_shifts_by_one_box():
    # e_n E_eta = E_{eta+(1^n)} exactly
    for eta in comb.compositions_up_to(2, 2):
        lhs = elementary_symmetric(2, 2) * emac.generate_E(eta)
        assert lhs == emac.generate_E(comb.add_box_everywhere(eta))
