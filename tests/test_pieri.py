"""Pieri-type branching coefficients: all four routes and their contracts."""

import re
from fractions import Fraction

import pytest

from qtmac.scalar import (GENERIC, AlgebraError, SpecializationError,
                          scalar_eval, specialized)
from qtmac.algebra import ZPolynomial, elementary_symmetric
from qtmac import comb, emac, istar, pieri

from field_operators import beta_factor, delta_factor
from test_algebra import SUM_CONTEXTS

G = GENERIC
Q, T = G.q, G.t


# ---------------------------------------------------------------------------
# interpolation expansion
# ---------------------------------------------------------------------------

def test_interpolation_expansion_layer1_example():
    table = pieri.interpolation_expansion((0, 0), 1)
    assert table.layers[0] == {
        (1, 0): G.one,
        (0, 1): T * (Q - 1) / (Q * T - 1),
    }
    assert pieri.interpolation_residual(table).is_zero


def test_interpolation_expansion_r2_top_layer():
    table = pieri.interpolation_expansion((0, 0), 2)
    assert table.layers[1][(1, 1)] == G.one
    assert pieri.interpolation_residual(table).is_zero


def test_interpolation_expansion_example_01():
    table = pieri.interpolation_expansion((0, 1), 1)
    assert table.layers[0] == {
        (0, 2): G.one,
        (1, 1): (Q - 1) / (Q * T - 1),
    }


def test_interpolation_expansion_keys_are_successors():
    table = pieri.interpolation_expansion((1, 0), 2)
    for i, layer in enumerate(table.layers, start=1):
        for lam in layer:
            assert comb.modulus(lam) == 1 + i
            assert comb.is_successor((1, 0), lam)


def test_interpolation_expansion_rejects_bad_r():
    with pytest.raises(AlgebraError):
        pieri.interpolation_expansion((0, 0), 3)


# ---------------------------------------------------------------------------
# homogeneous table
# ---------------------------------------------------------------------------

def test_pieri_homogeneous_examples():
    assert pieri.pieri_homogeneous((0, 0), 1) == {
        (1, 0): G.one,
        (0, 1): T * (Q - 1) / (Q * T - 1),
    }
    table = pieri.pieri_homogeneous((1, 0), 1)
    assert table[(2, 0)] == G.one
    assert pieri.pieri_homogeneous((1, 2), 2) == {(2, 3): G.one}


def test_pieri_homogeneous_residual_is_zero():
    for eta in [(0, 0), (1, 0), (0, 1)]:
        for r in (1, 2):
            table = pieri.pieri_homogeneous(eta, r)
            assert pieri.homogeneous_residual(eta, r, table).is_zero, (eta, r)


# the layered recursion in field arithmetic, normalising after every
# operation: the reference for the sums in parts over a running lcm

def field_interpolation_expansion(eta, r, ctx, ceiling=None):
    layers = []
    front = {eta}
    for _ in range(r):
        front = {lam for mu in front for lam in comb.one_step(mu)}
        if ceiling is not None:
            front = {lam for lam in front if comb.is_successor(lam, ceiling)}
        layer = {}
        for lam in sorted(front):
            principal = istar.principal_value(lam, ctx)
            total = (comb.spectral_e_gap(eta, lam, r, ctx)
                     * istar.spectral_evaluate(eta, lam, ctx))
            for prev_layer in layers:
                for mu, a in prev_layer.items():
                    if comb.is_successor(mu, lam):
                        total = total - a * istar.spectral_evaluate(mu, lam, ctx)
            if total:
                layer[lam] = total / principal
        layers.append(layer)
    return tuple(layers)


# (ctx, sizes, max_mod): every eta with n in sizes and |eta| <= max_mod;
# n = 4 symbolically to |eta| <= 1, since |eta| = 2 takes some 15 s more
FIELD_RANGES = [
    *(pytest.param(ctx, range(1, 4), 3, id=ctx.params_label())
      for ctx in (G, G.inverted(),
                  specialized(Fraction(-2, 3), Fraction(5, 7)),
                  specialized(3, Fraction(-1, 2)))),
    pytest.param(G, (4,), 1, id="n=4,symbolic"),
    pytest.param(specialized(Fraction(-2, 3), Fraction(5, 7)), (4,), 2,
                 id="n=4,q=-2/3,t=5/7")]


@pytest.mark.parametrize("ctx, sizes, max_mod", FIELD_RANGES)
def test_expansion_is_the_field_recursion(ctx, sizes, max_mod):
    # the recursion that tests comb.is_successor for every pair
    for eta in (eta for n in sizes
                for eta in comb.compositions_up_to(n, max_mod)):
        ceiling = comb.add_box_everywhere(eta)
        for r in range(1, len(eta) + 1):
            for top in (None, ceiling):
                got = pieri.interpolation_expansion(eta, r, ctx, top).layers
                want = field_interpolation_expansion(eta, r, ctx, top)
                for i, (layer, expected) in enumerate(zip(got, want)):
                    assert layer == expected, (eta, r, top, i + 1)
                assert len(got) == len(want) == r


# the two residuals in field arithmetic, normalising after every operation:
# the reference for the sums over a running lcm

def field_interpolation_residual(table, ctx):
    eta, r = table.base, table.r
    n = len(eta)
    er = elementary_symmetric(n, r, ctx)
    er_eta = er.at_point(comb.spectral_vector(eta, ctx), ctx)
    lhs = ((er - ZPolynomial.constant(n, er_eta))
           * istar.generate_Estar(eta, ctx))
    for layer in table.layers:
        for lam, a in layer.items():
            lhs = lhs - istar.generate_Estar(lam, ctx).scale(a)
    return lhs


def field_homogeneous_residual(eta, r, table, ctx):
    inv = ctx.inverted()
    lhs = elementary_symmetric(len(eta), r, ctx) * emac.generate_E(eta, inv)
    for lam, a in table.items():
        lhs = lhs - emac.generate_E(lam, inv).scale(a)
    return lhs


def _bumped(table, ctx):
    """table with its last coefficient moved by 1/(1 - qt), a denominator
    no coefficient has, so the residual is nonzero."""
    lam = max(table)
    return {**table, lam: table[lam] + ctx.one / ctx.one_minus(1, 1)}


@SUM_CONTEXTS
def test_residuals_are_the_field_residuals(ctx):
    for eta in [*comb.compositions_up_to(2, 2), *comb.compositions_up_to(3, 1)]:
        for r in range(1, len(eta) + 1):
            full = pieri.interpolation_expansion(eta, r, ctx)
            table = pieri.pieri_homogeneous(eta, r, ctx)
            assert pieri.interpolation_residual(full, ctx).is_zero, (eta, r)
            assert pieri.homogeneous_residual(eta, r, table, ctx).is_zero, \
                (eta, r)
            layers = (*full.layers[:-1], _bumped(full.layers[-1], ctx))
            bumped = pieri.ExpansionTable(eta, r, layers)
            got = pieri.interpolation_residual(bumped, ctx)
            assert not got.is_zero, (eta, r)
            assert got == field_interpolation_residual(bumped, ctx), (eta, r)
            got = pieri.homogeneous_residual(eta, r, _bumped(table, ctx), ctx)
            assert not got.is_zero, (eta, r)
            assert got == field_homogeneous_residual(
                eta, r, _bumped(table, ctx), ctx), (eta, r)


def _below(layer, ceiling):
    return {lam: c for lam, c in layer.items() if comb.is_successor(lam, ceiling)}


def test_top_layer_supports_the_ceiling_filter():
    # the pruned top layer is the full one restricted to lam <=' eta + (1^n),
    # and the full layer's labels above the ceiling carry zero
    eta = (1, 0)
    ceiling = comb.add_box_everywhere(eta)
    full = pieri.interpolation_expansion(eta, 2).layers[1]
    homog = pieri.pieri_homogeneous(eta, 2)
    assert homog == _below(full, ceiling)
    assert homog == pieri.interpolation_expansion(eta, 2, G, ceiling).layers[1]
    assert full == homog


def test_unity_coefficient():
    for eta in [(0, 0), (1, 0), (0, 1, 2), (2, 1)]:
        n = len(eta)
        for r in range(1, n + 1):
            table = pieri.pieri_homogeneous(eta, r)
            assert table[comb.chi_r(eta, r)] == G.one, (eta, r)


# ---------------------------------------------------------------------------
# the expansion pruned to the ceiling eta + (1^n)
# ---------------------------------------------------------------------------

# (ctx, max_n, max_mod): every eta with n <= max_n and |eta| <= max_mod
PRUNING_RANGES = [
    pytest.param(ctx, max_n, max_mod, id=ctx.params_label())
    for ctx, max_n, max_mod in (
        (G, 3, 3),
        (G.inverted(), 3, 3),
        (specialized(Fraction(-2, 3), Fraction(5, 7)), 4, 2),
        (specialized(3, Fraction(1, 2)), 4, 2))]


def _labels(max_n, max_mod):
    for n in range(1, max_n + 1):
        yield from comb.compositions_up_to(n, max_mod)


@pytest.mark.parametrize("ctx, max_n, max_mod", PRUNING_RANGES)
def test_pruned_expansion_is_the_full_one_below_the_ceiling(ctx, max_n,
                                                            max_mod):
    for eta in _labels(max_n, max_mod):
        ceiling = comb.add_box_everywhere(eta)
        for r in range(1, len(eta) + 1):
            full = pieri.interpolation_expansion(eta, r, ctx)
            pruned = pieri.interpolation_expansion(eta, r, ctx, ceiling)
            assert pruned.layers == tuple(_below(layer, ceiling)
                                          for layer in full.layers), (eta, r)


@pytest.mark.parametrize("pruned", [False, True], ids=["full", "pruned"])
def test_labels_below_are_the_successor_filter(pruned):
    # the sets read off the layered front are the successor test over the
    # same layers, and the fronts are the layered successors, filtered
    for eta in _labels(4, 2):
        ceiling = comb.add_box_everywhere(eta) if pruned else None
        for r in range(1, len(eta) + 1):
            earlier = [eta]
            fronts = list(pieri._kept_fronts(eta, r, ceiling))
            assert len(fronts) == r
            for k, below in enumerate(fronts, start=1):
                layered = comb.successors_layered(eta, k)
                assert sorted(below) == [
                    lam for lam in layered
                    if ceiling is None or comb.is_successor(lam, ceiling)]
                for lam, under in below.items():
                    assert under == {mu for mu in earlier
                                     if comb.is_successor(mu, lam)}, \
                        (eta, r, lam)
                earlier += below


@pytest.mark.parametrize("ctx, max_n, max_mod", PRUNING_RANGES)
def test_spectral_e_gap_is_a_difference_of_elementary_values(ctx, max_n,
                                                             max_mod):
    for eta in _labels(max_n, max_mod):
        n = len(eta)
        eb = comb.spectral_vector(eta, ctx)
        for r in range(1, n + 1):
            er = elementary_symmetric(n, r, ctx)
            for lam in comb.successors_layered(eta, r):
                lb = comb.spectral_vector(lam, ctx)
                assert comb.spectral_e_gap(eta, lam, r, ctx) == \
                    er.at_point(lb, ctx) - er.at_point(eb, ctx), (eta, lam, r)


# ---------------------------------------------------------------------------
# closed forms at r = 1
# ---------------------------------------------------------------------------

def test_pieri_r1_closed_hand_values():
    table = pieri.pieri_r1_closed((0, 0))
    assert table[(0, 1)] == T * (Q - 1) / (Q * T - 1)
    assert table[(1, 0)] == G.one
    assert pieri.pieri_r1_closed((0, 1))[(1, 1)] == (Q - 1) / (Q * T - 1)


def test_pieri_r1_closed_building_blocks():
    # eta=(0,0), lam=(0,1): gap q-1, delta = t(t-1)/(1-qt), beta = 1
    eta = (0, 0)
    eb = comb.spectral_vector(eta)
    lb = comb.spectral_vector((0, 1))
    assert sum(lb, G.zero) - sum(eb, G.zero) == Q - 1
    assert delta_factor(eta, (0, 1), (1, 2)) == T * (T - 1) / (1 - Q * T)
    assert beta_factor(eta, (1, 2)) == G.one
    assert delta_factor(eta, (1, 0), (1,)) == (T - 1) / (1 - Q)
    assert beta_factor(eta, (1,)) == G.one


@pytest.mark.parametrize("call, factor", [
    # delta's 1 - lam-bar/eta-bar and a-hat's 1 - y/x at q = 1
    (lambda: delta_factor((0, 0), (1, 0), (1,), specialized(1, 5)), "1 - q"),
    (lambda: pieri.pieri_r1_product_form((0, 0), specialized(1, 5)), "1 - q"),
    # beta's (X - 1)^2 and b-hat's 1 - y/x at q t = 1
    (lambda: beta_factor((1, 0), (2,), specialized(2, Fraction(1, 2))),
     "1 - q^-1*t^-1"),
    (lambda: pieri.pieri_r1_product_form((1, 0), specialized(2, Fraction(1, 2))),
     "1 - q*t"),
    # d' of lam, divided by in the product form
    (lambda: pieri.pieri_r1_product_form((1, 0), specialized(-1, Fraction(1, 2))),
     "1 - q^-2"),
    (lambda: pieri.pieri_r1_product_form((0, 1), specialized(Fraction(1, 2), 4)),
     "1 - q^-2*t^-1"),
    # d' of eta, a factor taken before any index set
    (lambda: pieri.pieri_r1_product_form((0, 1), specialized(2, Fraction(1, 2))),
     "1 - q^-1*t^-1"),
    # a b-hat's 1 - y/x with both exponents negative
    (lambda: pieri.pieri_r1_product_form((1, 0, 0),
                                         specialized(2, Fraction(1, 2))),
     "1 - q^-2*t^-2"),
], ids=["delta", "a-hat", "beta", "b-hat", "d-prime-lam", "d-prime-lam-t",
        "d-prime-eta", "b-hat-negative"])
def test_r1_factors_name_the_vanishing_factor(call, factor):
    with pytest.raises(SpecializationError,
                       match=f"^factor {re.escape(factor)} vanishes"):
        call()


def test_pieri_r1_product_form_hand_values():
    # A_I B~_I for eta = (0, 0), I = {1}
    factors, divisors = pieri._product_factors((0, 0), (1,), GENERIC)
    assert GENERIC.product_sum([factors], divisors) == -(T - 1)
    assert pieri.pieri_r1_product_form((0, 0)) == {
        (1, 0): G.one,
        (0, 1): T * (Q - 1) / (Q * T - 1),
    }
    assert pieri.pieri_r1_product_form((0, 1)) == {
        (0, 2): G.one,
        (1, 1): (Q - 1) / (Q * T - 1),
    }


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def test_duality_hand_verified_instance():
    # n = 2: the dual route reproduces t(q-1)/(qt-1), with unit norm ratio
    assert pieri.duality_transfer((0, 0), (0, 1), 1) == \
        T * (Q - 1) / (Q * T - 1)
    assert pieri.duality_transfer((0, 0), (1, 0), 1) == G.one


def test_duality_vanishes_off_successors():
    assert comb.successor_test((0, 2), (3, 0)) is None
    assert pieri.duality_transfer((0, 2), (3, 0), 1) == G.zero


def test_duality_matches_direct():
    for eta in comb.compositions_up_to(3, 2):
        if len(eta) < 2:
            continue
        n = len(eta)
        for r in range(1, n):
            direct = pieri.pieri_homogeneous(eta, r)
            for lam in comb.successors_layered(eta, r):
                assert pieri.duality_transfer(eta, lam, r) == \
                    direct.get(lam, G.zero), (eta, lam, r)


def test_duality_rejects_bad_inputs():
    with pytest.raises(AlgebraError):
        pieri.duality_transfer((0, 0), (1, 1), 1)  # modulus gap 2 with r=1
    with pytest.raises(AlgebraError):
        pieri.duality_transfer((0, 0), (1, 1), 2)  # r = n


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def test_product_expand_oracle_examples():
    assert pieri.product_expand_oracle((0, 0), 1) == {
        (1, 0): G.one,
        (0, 1): T * (Q - 1) / (Q * T - 1),
    }
    assert pieri.product_expand_oracle((0, 0), 2) == {(1, 1): G.one}
    assert pieri.product_expand_oracle((0, 1), 1) == {
        (0, 2): G.one,
        (1, 1): (Q - 1) / (Q * T - 1),
    }


def test_oracle_support_law():
    for eta in [(0, 0), (1, 0), (0, 1, 0)]:
        n = len(eta)
        for r in range(1, n + 1):
            ceiling = comb.add_box_everywhere(eta)
            for lam, c in pieri.product_expand_oracle(eta, r).items():
                assert comb.is_successor(eta, lam), (eta, r, lam)
                assert comb.is_successor(lam, ceiling), (eta, r, lam)
                sigma = comb.successor_test(eta, lam)
                for i in range(1, n + 1):
                    assert lam[sigma[i - 1] - 1] - eta[i - 1] in (0, 1)


def test_four_way_agreement_small():
    for eta in [(0, 0), (1, 0), (0, 1), (1, 1), (0, 0, 0), (1, 0, 2)]:
        oracle = pieri.product_expand_oracle(eta, 1)
        assert pieri.pieri_r1_closed(eta) == oracle, eta
        assert pieri.pieri_homogeneous(eta, 1) == oracle, eta
        assert pieri.pieri_r1_product_form(eta) == oracle, eta


def test_general_r_agreement_small():
    for eta in [(0, 0), (1, 0), (0, 1, 1)]:
        n = len(eta)
        for r in range(1, n + 1):
            assert pieri.pieri_homogeneous(eta, r) == \
                pieri.product_expand_oracle(eta, r), (eta, r)



# ---------------------------------------------------------------------------
# reciprocal parameters
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("point", [(Fraction(-2, 3), Fraction(5, 7)),
                                   (Fraction(3), Fraction(1, 2))],
                         ids=lambda point: f"q={point[0]},t={point[1]}")
def test_inverted_contexts_commute_with_evaluation(point):
    # a result at GENERIC.inverted(), evaluated at (q, t), is the same result
    # computed at specialized(q, t).inverted(), i.e. at (1/q, 1/t)
    sym, num = G.inverted(), specialized(*point).inverted()

    def ev(x):
        return scalar_eval(sym.coerce(x), *point)

    for n in (1, 2, 3):
        for eta in comb.compositions_up_to(n, 3):
            for generate in (emac.generate_E, istar.generate_Estar):
                assert generate(eta, sym).map_coeffs(ev) == \
                    generate(eta, num), (generate.__name__, eta)
            for mu in comb.compositions_up_to(n, comb.modulus(eta) + 1):
                assert ev(istar.spectral_evaluate(eta, mu, sym)) == \
                    istar.spectral_evaluate(eta, mu, num), (eta, mu)
            for r in range(1, n + 1):
                table = pieri.pieri_homogeneous(eta, r, sym)
                assert {lam: ev(c) for lam, c in table.items()} == \
                    pieri.pieri_homogeneous(eta, r, num), (eta, r)
