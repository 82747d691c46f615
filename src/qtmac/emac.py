"""Nonsymmetric Macdonald polynomials.

E_eta is the monic basis element labelled by the composition eta: it equals
z^eta plus strictly lower monomials, and the family is generated recursively
from E_0 = 1 by the Demazure-Lustig switching operators T_i and the
Knop-Sahi raise E_eta(z) = q^(-mu_1) z_n E_mu(q z_n, z_1, ..., z_{n-1})
for eta = (mu_2, ..., mu_n, mu_1 + 1).  One recursion, :func:`common_form`,
generates both E_eta and the interpolation polynomials Estar_eta of
:mod:`qtmac.istar`, over a common denominator in ring arithmetic, and both
families raise through the one cycle :func:`cycle_form`.

The operators on such forms live here alone, and the recursion, the Hecke
symmetrization and the eigenoperators of :mod:`qtmac.istar` run them:
:func:`hecke_step` (T_i, or H_i of the Estar_eta), :func:`cycle_form` and
:func:`phi_form`.

Also here: the norms N_eta (up to the common <1,1> factor), Hecke
symmetrization to the symmetric Macdonald polynomial P_kappa by a coset
product in n(n-1)/2 Hecke steps, and the classical vertical-strip
branching coefficients used as a cross-check.
"""

from __future__ import annotations

from .scalar import (
    GENERIC,
    AlgebraError,
    ScalarContext,
    SpecializationError,
    memo,
)
from .algebra import (
    ZPolynomial,
    demazure_lustig,
    elementary_symmetric,
    field_view,
)
from . import comb
from .comb import Composition


# ---------------------------------------------------------------------------
# operators on forms
# ---------------------------------------------------------------------------
# A form (D, P) stands for P / D (see ``algebra.ring_form``); the operators
# act on P with the parts tn / td of t and qn / qd of q.

def hecke_step(i: int, p: ZPolynomial, ctx: ScalarContext = GENERIC,
               star: bool = False) -> ZPolynomial:
    """td T_i P, or td H_i P when ``star``, for ring numerators P.

    T_i p = t p + (t z_i - z_{i+1}) (s_i p - p)/(z_i - z_{i+1}) switches
    the E_eta, and H_i p = t p + (z_i - t z_{i+1}) (s_i p - p)/(z_i - z_{i+1})
    the Estar_eta; both satisfy (X - t)(X + 1) = 0.
    """
    tn, td = ctx.parts(ctx.t)
    a, b = (td, -tn) if star else (tn, -td)
    return demazure_lustig(i, p, tn, a, b)


def cycle_form(den, p: ZPolynomial, ctx: ScalarContext = GENERIC,
               qpower: int = 0) -> tuple[object, ZPolynomial]:
    """q^qpower Delta (P / D) as a form, from the form (D, P), in one pass
    over P, for the cycle Delta p = p(z_n/q, z_1, ..., z_{n-1}).  Both
    raises start from it: Phi = (z_n - t^(1-n)) Delta raises the Estar_eta
    (:func:`phi_form`), and z_n Delta at the reciprocal parameters the E_eta
    (:func:`common_form`)."""
    if p.is_zero:
        return den, p
    qn, qd = ctx.parts(ctx.q)
    # with lo..hi the range of the exponents e_1 of z_1 in P, q^(k - e_1)
    # = q^(k - hi) qn^(hi - e_1) qd^(e_1 - lo) / qd^(hi - lo), k = qpower
    firsts = [e[0] for e in p.terms]
    lo, hi = min(firsts), max(firsts)
    sn, sd = ctx.parts(ctx.monomial(qpower - hi, 0))
    terms = {e[1:] + e[:1]: c * sn * qn ** (hi - e[0]) * qd ** (e[0] - lo)
             for e, c in p.terms.items()}
    return den * sd * qd ** (hi - lo), ZPolynomial(p.nvars, terms, p.laurent)


def phi_form(den, p: ZPolynomial, ctx: ScalarContext = GENERIC,
             qpower: int = 0) -> tuple[object, ZPolynomial]:
    """q^qpower Phi (P / D) as a form, from the form (D, P), for the
    raising operator Phi = (z_n - t^(1-n)) Delta of the Estar_eta
    (:func:`cycle_form`)."""
    den, p = cycle_form(den, p, ctx, qpower)
    n = p.nvars
    tn, td = ctx.parts(ctx.t)
    # z_n - t^(1-n) = (tn^(n-1) z_n - td^(n-1)) / tn^(n-1)
    up, down = tn ** (n - 1), -td ** (n - 1)
    terms = {e[:-1] + (e[-1] + 1,): c * up for e, c in p.terms.items()}
    get = terms.get
    for e, c in p.terms.items():
        terms[e] = get(e, 0) + c * down
    return den * up, ZPolynomial(n, terms, p.laurent)


# ---------------------------------------------------------------------------
# recursive generation
# ---------------------------------------------------------------------------

@memo
def common_form(eta: Composition, star: bool = False,
                ctx: ScalarContext = GENERIC) -> tuple[object, ZPolynomial]:
    """(D, P) with E_eta == P / D, or Estar_eta == P / D when ``star``.

    One memoised recursion along :func:`comb.generation_step` builds both
    families in ring arithmetic: D and the coefficients of P are integer
    polynomials in q,t symbolically and ints at a rational point
    (``ScalarContext.parts``).  A step multiplies P by the numerators of
    its scalars and D by their denominators, so no step normalises a
    coefficient.  ``ScalarContext.cancel_common`` then divides out what D
    shares with P: the integer gcd at a rational point; symbolically each
    factor of D, which stays factored, as often as it divides every
    numerator exactly.

    Switching from mu = s_i eta is E_eta = (T_i - c) E_mu / t and
    Estar_eta = (H_i - c) Estar_mu (:func:`hecke_step`), with c the
    diagonal coefficient of :func:`comb.basis_action`.  Raising from mu is
    Estar_eta = q^(mu_1) Phi Estar_mu (:func:`phi_form`).  E_eta is the
    Knop-Sahi raise q^(-mu_1) z_n E_mu(q z_n, z_1, ..., z_{n-1}), which is
    z_n times the cycle of the same step taken at the reciprocal parameters
    (1/q, 1/t) (:func:`cycle_form`).
    """
    eta = comb.as_composition(eta)
    n = len(eta)
    step = comb.generation_step(eta)
    if step is None:
        one, _ = ctx.parts(ctx.one)
        return one, ZPolynomial.constant(n, one)
    mu, i = step
    den, p = common_form(mu, star, ctx)
    if i is not None:
        _, td = ctx.parts(ctx.t)
        table = comb.basis_action(i, mu, ctx.one if star else ctx.t, ctx)
        cn, factor = ctx.parts(table[mu])
        p = hecke_step(i, p, ctx, star).scale(factor) - p.scale(td * cn)
        den = den * td * factor
        if not star:
            fn, fd = ctx.parts(table[eta])
            p, den = p.scale(fd), den * fn
    elif star:
        den, p = phi_form(den, p, ctx, mu[0])
    else:
        den, p = cycle_form(den, p, ctx.inverted(), mu[0])
        p = ZPolynomial(n, {e[:-1] + (e[-1] + 1,): c
                            for e, c in p.terms.items()})
    den, terms = ctx.cancel_common(den, p.terms)
    return den, ZPolynomial(n, terms)


@memo
def generate_E(eta: Composition, ctx: ScalarContext = GENERIC) -> ZPolynomial:
    """The monic polynomial E_eta: :func:`common_form` with each
    coefficient normalised once, memoised."""
    return field_view(*common_form(eta, False, ctx), ctx)


def norm_N(eta: Composition, ctx: ScalarContext = GENERIC):
    """N_eta divided by the common <1,1> factor: d' e / (d e')
    (:func:`comb.hook_products`), one ``ScalarContext.product_sum``.

    d and e' are only ever divisors, so where a factor of theirs vanishes
    at ctx's point, SpecializationError names the first, node by node and
    d before e'."""
    d, d_prime, e, e_prime = comb.hook_products(eta)
    return ctx.product_sum(
        [[ctx.one - ctx.monomial(a, b) for a, b in d_prime + e]],
        [ctx.one_minus(a, b) for node in zip(d, e_prime) for a, b in node])


# ---------------------------------------------------------------------------
# symmetrization
# ---------------------------------------------------------------------------

def hecke_symmetrize(den, p: ZPolynomial,
                     ctx: ScalarContext = GENERIC) -> tuple[object, ZPolynomial]:
    """The sum of T_w (P / D) over all w in S_n as a form (D', S), from the
    form (D, P) (see ``algebra.ring_form``).

    Each w in S_(k+1) is u c, lengths adding, with u in S_k and c one of the
    coset representatives 1, s_k, s_k s_(k-1), ..., s_k ... s_1, so the sum
    is C_1 C_2 ... C_(n-1) with C_k = 1 + T_k (1 + T_(k-1) (... (1 + T_1))).
    C_(n-1) acts first.  Inside C_k, steps i = 1..k set term = f + T_i term
    for the factor's input f (:func:`hecke_step`): n(n-1)/2 steps in all,
    each multiplying D by td.
    """
    _, td = ctx.parts(ctx.t)
    total = p
    for k in range(p.nvars - 1, 0, -1):
        f = total
        for i in range(1, k + 1):
            f, den = f.scale(td), den * td
            total = f + hecke_step(i, total, ctx)
    return den, total


@memo
def symmetrize_P(kappa, n: int | None = None,
                 ctx: ScalarContext = GENERIC) -> ZPolynomial:
    """The symmetric Macdonald polynomial P_kappa in n variables, memoised.

    Hecke-symmetrizes E_kappa in ring arithmetic, over the cosets in
    n(n-1)/2 Hecke steps, to a form (D, S) and divides by the coefficient
    of the dominant monomial z^kappa: P_kappa is S / S[kappa], so D
    cancels and each coefficient is normalised once.
    Where that coefficient vanishes at ctx's point, SpecializationError
    names its value over Q(q,t).
    """
    kappa = tuple(comb._part(x, "partition parts") for x in kappa)
    if n is None:
        n = len(kappa)
    if len(kappa) > n:
        raise AlgebraError("partition longer than the number of variables")
    kappa = kappa + (0,) * (n - len(kappa))
    if not comb.is_partition(kappa):
        raise AlgebraError(f"{kappa} is not weakly decreasing")
    _, sym = hecke_symmetrize(*common_form(kappa, False, ctx), ctx)
    lead = sym.coefficient(kappa)
    if not lead:
        den, generic = hecke_symmetrize(*common_form(kappa, False, GENERIC),
                                        GENERIC)
        if not generic.coefficient(kappa):
            raise AlgebraError("symmetrization lost the dominant monomial")
        value = GENERIC.quotient(generic.coefficient(kappa), den)
        raise SpecializationError(
            f"factor {GENERIC.text(value)} vanishes at {ctx.params_label()}: "
            f"it is the coefficient of z^({comb.comp_str(kappa)}) in the "
            f"Hecke symmetrization of E_{comb.comp_str(kappa)}")
    return field_view(lead, sym, ctx)


# ---------------------------------------------------------------------------
# classical vertical-strip branching coefficients
# ---------------------------------------------------------------------------

def is_vertical_strip(kappa: Composition, lam: Composition) -> bool:
    """lam/kappa a vertical strip: both partitions, increments in {0,1}."""
    return (comb.is_partition(kappa) and comb.is_partition(lam)
            and all(0 <= b - a <= 1 for a, b in zip(kappa, lam)))


def psi_coefficient(kappa, lam, n: int | None = None,
                    ctx: ScalarContext = GENERIC):
    """Branching coefficient of P_lam in e_r(z) P_kappa for a vertical strip.

    t^(n(lam)-n(kappa)) * P_kappa(t^delta)/P_lam(t^delta) times the product
    over pairs i<j of
    (1 - q^(k_i-k_j) t^(j-i+theta_i-theta_j)) / (1 - q^(k_i-k_j) t^(j-i)),
    with theta = lam - kappa and t^delta = (t^(n-1),...,t,1).
    """
    kappa = tuple(comb._part(x, "partition parts") for x in kappa)
    lam = tuple(comb._part(x, "partition parts") for x in lam)
    if n is None:
        n = max(len(kappa), len(lam))
    kap = kappa + (0,) * (n - len(kappa))
    lm = lam + (0,) * (n - len(lam))
    if not is_vertical_strip(kap, lm):
        raise AlgebraError(f"{lm}/{kap} is not a vertical strip")
    theta = tuple(b - a for a, b in zip(kap, lm))
    principal = tuple(ctx.monomial(0, n - 1 - i) for i in range(n))
    value = symmetrize_P(kap, n, ctx).at_point(principal, ctx)
    divisor = symmetrize_P(lm, n, ctx).at_point(principal, ctx)
    if not divisor:
        raise SpecializationError(
            f"factor P_{comb.comp_str(lm)}(t^delta) vanishes at "
            f"{ctx.params_label()}")
    factors = [ctx.monomial(0, comb.n_stat(lm) - comb.n_stat(kap)), value]
    divisors = [divisor]
    for i in range(n):
        for j in range(i + 1, n):
            a = kap[i] - kap[j]
            factors.append(ctx.one - ctx.monomial(a, j - i + theta[i] - theta[j]))
            divisors.append(ctx.one_minus(a, j - i))
    return ctx.product_sum([factors], divisors)


def expand_in_P_basis(p: ZPolynomial, ctx: ScalarContext = GENERIC) -> dict:
    """Expand a symmetric homogeneous polynomial over the P basis.

    Peels dominance-maximal monomials; returns {partition: coefficient}.
    """
    def basis(lam):
        if not comb.is_partition(lam):
            raise AlgebraError(
                f"dominant monomial {lam} of a symmetric polynomial "
                "is not a partition")
        return symmetrize_P(lam, p.nvars, ctx)

    return comb.expand_triangular(p, basis)


def symmetric_pieri_table(kappa, r: int, n: int,
                          ctx: ScalarContext = GENERIC) -> dict:
    """Coefficients of e_r(z) P_kappa expanded in the P basis (oracle side)."""
    kap = tuple(kappa) + (0,) * (n - len(kappa))
    product = elementary_symmetric(n, r, ctx) * symmetrize_P(kap, n, ctx)
    if product.is_zero:
        return {}
    return expand_in_P_basis(product, ctx)
