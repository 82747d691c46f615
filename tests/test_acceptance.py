"""Acceptance criteria, one test per criterion at its stated bounds.

Every identity is exact: comparisons are equality of canonical scalars or of
whole polynomials, never numerical tolerances.  Run with

    pytest tests/test_acceptance.py -v -s

to see one pass line per criterion (prefixed [criterion NN]).
"""

import random
import time
from fractions import Fraction

from qtmac.scalar import GENERIC, specialized
from qtmac import comb, ctnorm, emac, istar, pieri, verify

from field_operators import c_I_operator_word

G = GENERIC
Q, T = G.q, G.t


def report(cid: int, desc: str):
    print(f"[criterion {cid:02d}] PASS - {desc}")


def random_points(count=3, seed=90481):
    """Deterministic exact rational (q,t) points, multiplicatively
    independent by prime support (q uses 2,3,5; t always involves 7)."""
    rng = random.Random(seed)
    q_pool = [Fraction(2, 5), Fraction(3, 5), Fraction(5, 2), Fraction(2, 3),
              Fraction(5, 3), Fraction(4, 3)]
    t_pool = [Fraction(7, 2), Fraction(2, 7), Fraction(7, 5), Fraction(3, 7),
              Fraction(7, 3), Fraction(7, 6)]
    points = set()
    while len(points) < count:
        points.add((rng.choice(q_pool), rng.choice(t_pool)))
    return sorted(points)


def test_criterion_01_oracle_estar():
    start = time.time()
    rep = verify.suite_oracle_estar(3, 4)
    assert rep.ok, rep.failures[:3]
    total = rep.checked
    for qv, tv in random_points():
        ctx = specialized(qv, tv)
        rep4 = verify.suite_oracle_estar(4, 3, ctx=ctx)
        assert rep4.ok, rep4.failures[:3]
        total += rep4.checked
    elapsed = time.time() - start
    assert elapsed < 300, f"runtime target exceeded: {elapsed:.0f}s"
    report(1, f"generate_Estar == vanishing_solve_oracle on {total} labels "
              f"(n<=3 symbolic, n=4 at 3 rational points) in {elapsed:.0f}s")


def test_criterion_02_top_degree_bridge():
    rep = verify.suite_oracle_e(3, 4)
    assert rep.ok, rep.failures[:3]
    total = rep.checked
    for qv, tv in random_points():
        ctx = specialized(qv, tv)
        rep4 = verify.suite_oracle_e(4, 3, ctx=ctx)
        assert rep4.ok, rep4.failures[:3]
        total += rep4.checked
    report(2, f"top homogeneous Estar at reciprocal parameters == E on "
              f"{total} labels")


def test_criterion_03_eigenrelations():
    rep = verify.suite_eigen(3, 3)
    assert rep.ok, rep.failures[:3]
    report(3, f"Xi_i Estar = spectral^-1 Estar for every i ({rep.checked} checks)")


def test_criterion_04_extra_vanishing_iff():
    rep = verify.suite_vanishing(3, 3)
    assert rep.ok, rep.failures[:3]
    report(4, f"Estar_eta(lam-bar) = 0 iff lam is not a successor "
              f"({rep.checked} base labels, gaps 1..3)")


def test_criterion_05_pieri_residuals():
    rep = verify.suite_pieri_general(3, 3)
    assert rep.ok, rep.failures[:3]
    report(5, f"both Pieri residual identities vanish exactly for n<=3, "
              f"all r, |eta|<=3 ({rep.checked} labels)")


def test_criterion_06_four_way_r1_agreement():
    # includes the hand-checked value A_{(0,0),(0,1)} = t(q-1)/(qt-1)
    assert pieri.pieri_r1_closed((0, 0))[(0, 1)] == T * (Q - 1) / (Q * T - 1)
    rep = verify.suite_pieri_agreement(4, 3)
    assert rep.ok, rep.failures[:3]
    report(6, f"recursion, delta-beta closed form, product form and oracle "
              f"agree at r=1 for n<=4, |eta|<=3 ({rep.checked} labels)")


def test_criterion_07_unity_coefficient():
    checked = 0
    for n, maxmod in ((2, 3), (3, 3)):
        for eta in comb.compositions_up_to(n, maxmod):
            for r in range(1, n + 1):
                table = pieri.pieri_homogeneous(eta, r)
                assert table[comb.chi_r(eta, r)] == G.one, (eta, r)
                checked += 1
    for eta in comb.compositions_up_to(4, 2):
        table = pieri.pieri_homogeneous(eta, 1)
        assert table[comb.chi_r(eta, 1)] == G.one, eta
        checked += 1
    report(7, f"A at eta+chi_r is exactly 1 for all {checked} tested (eta, r)")


def test_criterion_08_duality():
    # hand-verified instance: unit norm ratio
    assert pieri.duality_transfer((0, 0), (0, 1), 1) == T * (Q - 1) / (Q * T - 1)
    rep = verify.suite_duality(3, 2)
    assert rep.ok, rep.failures[:3]
    report(8, f"duality route equals the direct coefficients "
              f"({rep.checked} (eta, r) pairs, n<=3, |eta|<=2)")


def test_criterion_09_binomials():
    assert istar.binomial_recursive((0, 1), (1, 1)) == T / (Q * T - 1)
    rep = verify.suite_binomials(3, 3)
    assert rep.ok, rep.failures[:3]
    report(9, f"binomial_recursive == binomial_direct for n<=3, |eta|<=3, "
              f"gaps 1..3 ({rep.checked} base labels)")


def test_criterion_10_norms_orthogonality():
    start = time.time()
    w = ctnorm.specialized_weight(2, 1)
    from qtmac.algebra import ZPolynomial
    one = ZPolynomial.constant(2, G.one)
    assert ctnorm.ct_inner_product(one, one, w) == 1 + Q
    rep = verify.suite_norms(3, 2, ks=(1, 2))
    assert rep.ok, rep.failures[:3]
    elapsed = time.time() - start
    assert elapsed < 120, f"runtime target exceeded: {elapsed:.0f}s"
    report(10, f"<E_eta, E_nu> = delta * norm * <1,1> at t=q^k, k in {{1,2}}, "
               f"n in {{2,3}} ({rep.checked} pairs) in {elapsed:.0f}s")


def test_criterion_11_symmetric_pieri():
    assert emac.psi_coefficient((1, 0), (2, 0), 2) == G.one
    assert emac.psi_coefficient((1, 0), (1, 1), 2) == \
        (1 + T) * (1 - Q) / (1 - Q * T)
    rep = verify.suite_symmetric_pieri(3, 3)
    assert rep.ok, rep.failures[:3]
    report(11, f"e_r P_kappa matches the vertical-strip coefficients for "
               f"n<=3, |kappa|<=3, r<=n ({rep.checked} (kappa, r) pairs)")


def test_criterion_12_worked_example():
    eta = (1, 3, 5, 7, 9, 11, 13, 15)
    index_set = (3, 4, 5, 7)
    assert comb.c_I_apply(eta, index_set) == (1, 3, 7, 9, 13, 11, 6, 15)
    steps = c_I_operator_word(eta, index_set)
    assert steps == [
        (1, 5, 3, 7, 9, 11, 13, 15),
        (5, 1, 3, 7, 9, 11, 13, 15),
        (1, 3, 7, 9, 11, 13, 15, 6),
        (1, 3, 7, 9, 11, 13, 6, 15),
        (1, 3, 7, 9, 13, 11, 6, 15),
    ]
    report(12, "worked c_I example and every operator-word intermediate "
               "reproduced exactly")
