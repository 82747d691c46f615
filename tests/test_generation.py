"""E and Estar over one common denominator, against the field recursion.

``emac.common_form`` generates both families in ring arithmetic and
normalises each coefficient once.  The reference here is the recursion it
replaced: the same steps along ``comb.generation_step``, in field
arithmetic over the reference operators of ``field_operators``,
normalising after every operation.
"""

import pathlib
from fractions import Fraction

import pytest

from qtmac import cli, comb, emac, istar
from qtmac.scalar import GENERIC, specialized
from qtmac.algebra import ZPolynomial

from field_operators import (apply_phi_q, field_H, field_phi_q, field_phi_star,
                             field_T)

CONTEXTS = [
    GENERIC,
    GENERIC.inverted(),
    specialized(Fraction(-2, 3), Fraction(5, 7)),
    specialized(3, Fraction(1, 2)).inverted(),
]

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def field_generate(eta, star, ctx, table):
    """E_eta, or Estar_eta when ``star``, by field arithmetic; ``table``
    memoises the labels generated so far."""
    if eta in table:
        return table[eta]
    step = comb.generation_step(eta)
    if step is None:
        poly = ZPolynomial.constant(len(eta), ctx.one)
    else:
        mu, i = step
        p = field_generate(mu, star, ctx, table)
        if i is None and star:
            poly = field_phi_star(p, ctx).scale(ctx.monomial(mu[0], 0))
        elif i is None:
            scalar, _ = apply_phi_q(mu, ctx)
            poly = field_phi_q(p, ctx).scale(scalar ** -1)
        else:
            action = comb.basis_action(i, mu, ctx.one if star else ctx.t, ctx)
            op = field_H if star else field_T
            poly = (op(i, p, ctx) - p.scale(action[mu])) \
                .scale(action[eta] ** -1)
    table[eta] = poly
    return poly


@pytest.mark.parametrize("ctx", CONTEXTS, ids=lambda ctx: ctx.params_label())
def test_ring_generation_is_the_field_recursion(ctx):
    generators = {False: emac.generate_E, True: istar.generate_Estar}
    for star, generate in generators.items():
        table = {}
        for n in range(1, 6):
            for eta in comb.compositions_up_to(n, 3):
                expected = field_generate(eta, star, ctx, table)
                assert generate(eta, ctx) == expected, (star, eta)


@pytest.mark.parametrize("argv, golden", [
    (["estar", "--eta", "2,1,0,2,1", "--params", "q=31/19,t=37/23"],
     "estar_2-1-0-2-1_q31-19_t37-23.txt"),
    (["e", "--eta", "2,0,1"], "e_2-0-1.txt"),
    (["e", "--eta", "2,1,0,2,1", "--params", "q=11/13,t=17/19"],
     "e_2-1-0-2-1_q11-13_t17-19.txt"),
    (["e", "--eta", "3,1,2,0,2"], "e_3-1-2-0-2.txt"),
    (["innerprod", "--eta", "0,1,0", "--nu", "0,1,0", "--k", "2"],
     "innerprod_0-1-0_0-1-0_k2.txt"),
    (["psi", "--eta", "2,1,1,0,0", "--lam", "2,2,1,1,0"],
     "psi_2-1-1-0-0_2-2-1-1-0.txt"),
    (["psi", "--eta", "1,1,0,0,0,0", "--lam", "1,1,1,0,0,0", "--params",
      "q=11/13,t=17/19"], "psi_1-1-0-0-0-0_1-1-1-0-0-0_q11-13_t17-19.txt"),
    (["pieri", "--eta", "1,0,1,0,1,0", "--r", "3", "--params",
      "q=11/13,t=17/19"], "pieri_1-0-1-0-1-0_r3_q11-13_t17-19.txt"),
], ids=lambda value: value[0] if isinstance(value, list) else None)
def test_stdout_matches_the_field_recursion(argv, golden, capsys):
    # stdout captured from the field recursion and the expanded
    # constant-term product, byte for byte; the two e documents at n = 5
    # were captured when E was still raised by z_n T_{n-1}^-1 ... T_1^-1,
    # and the two psi documents when P_kappa still summed T_w by a walk
    # over all n! permutations; the n = 6 pieri table was captured while
    # the maximal index sets were still found by filtering all 2^n - 1
    # masks and each Pieri coefficient scanned every earlier layer for the
    # labels below it
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()
