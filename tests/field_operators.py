"""The Hecke and raising operators in field arithmetic, normalising after
every operation: the references for the operators on forms of
``qtmac.emac``; the raising map on labels; and the pieces of a one-step
successor c_I(eta) that only tests read: its operator word and the delta
and beta factors of ``istar.one_step_ratio``."""

from qtmac import comb, istar
from qtmac.scalar import GENERIC
from qtmac.algebra import ZPolynomial, demazure_lustig


def field_T(i, p, ctx):
    """T_i p = t p + (t z_i - z_{i+1}) (s_i p - p)/(z_i - z_{i+1})."""
    return demazure_lustig(i, p, ctx.t, ctx.t, -ctx.one)


def field_H(i, p, ctx):
    """H_i p = t p + (z_i - t z_{i+1}) (s_i p - p)/(z_i - z_{i+1})."""
    return demazure_lustig(i, p, ctx.t, ctx.one, -ctx.t)


def field_T_inverse(i, p, ctx):
    """T_i^{-1} = t^{-1} - 1 + t^{-1} T_i, from the quadratic relation."""
    tinv = ctx.monomial(0, -1)
    return p.scale(tinv - ctx.one) + field_T(i, p, ctx).scale(tinv)


def field_phi_q(p, ctx):
    """The raising operator of E: z_n T_{n-1}^{-1} ... T_1^{-1}."""
    n = p.nvars
    for i in range(1, n):
        p = field_T_inverse(i, p, ctx)
    zn = ZPolynomial.monomial(n, (0,) * (n - 1) + (1,), ctx.one, p.laurent)
    return zn * p


def phi_shift(eta):
    """The raising map on labels: (eta_2,...,eta_n, eta_1 + 1)."""
    return eta[1:] + (eta[0] + 1,)


def apply_phi_q(eta, ctx=GENERIC):
    """Action of field_phi_q on the basis: (scalar, raised label), with
    field_phi_q E_eta == scalar E_(raised label)."""
    count = sum(1 for x in eta[1:] if x <= eta[0])
    return ctx.monomial(0, -count), phi_shift(eta)


def field_phi_star(p, ctx):
    """The raising operator of Estar:
    (z_n - t^(1-n)) * p(z_n/q, z_1, ..., z_{n-1})."""
    n = p.nvars
    moved = ZPolynomial(n, {e[1:] + e[:1]: c * ctx.monomial(-e[0], 0)
                            for e, c in p.terms.items()}, p.laurent)
    zn = tuple(0 if j < n - 1 else 1 for j in range(n))
    mult = ZPolynomial(n, {zn: ctx.one, (0,) * n: -ctx.monomial(0, 1 - n)},
                       p.laurent)
    return mult * moved


def expand_eigenword(eta, k, ctx=GENERIC):
    """H_k ... H_{n-1} Phi H_1 ... H_{k-1} Estar_eta expanded in the Estar
    basis through :func:`comb.basis_action` and the raise
    Phi Estar_mu = q^(-mu_1) Estar_(phi_shift mu): {label: coefficient},
    zero coefficients dropped."""
    n = len(eta)
    table = {eta: ctx.one}

    def apply_h(i, tab):
        out = {}
        for lab, coeff in tab.items():
            for lab2, c2 in comb.basis_action(i, lab, ctx.one, ctx).items():
                out[lab2] = out.get(lab2, ctx.zero) + coeff * c2
        return {lab: c for lab, c in out.items() if c}

    for j in range(k - 1, 0, -1):
        table = apply_h(j, table)
    table = {phi_shift(lab): coeff * ctx.monomial(-lab[0], 0)
             for lab, coeff in table.items()}
    for j in range(n - 1, k - 1, -1):
        table = apply_h(j, table)
    return table


def c_I_operator_word(eta, index_set):
    """Intermediate compositions of the operator word realizing c_I.

    Applies s_{t_1 - 1},...,s_1, then the raising map, then for
    i = n,...,t_1 + 1 the switch s_{i-1} whenever i is outside I; returns
    every intermediate composition in order (the last equals c_I(eta)).
    """
    n = len(eta)
    ts = comb._index_set(index_set, n)
    t1 = ts[0]
    steps = []
    cur = eta
    for j in range(t1 - 1, 0, -1):
        cur = comb.swap_entries(cur, j)
        steps.append(cur)
    cur = phi_shift(cur)
    steps.append(cur)
    in_set = set(ts)
    for i in range(n, t1, -1):
        if i not in in_set:
            cur = comb.swap_entries(cur, i - 1)
            steps.append(cur)
    return steps


def delta_factor(eta, lam, index_set, ctx=GENERIC):
    """delta(eta, I) for lam = c_I(eta), multiplied out: see
    ``istar._delta_factors``."""
    factors, divisors = istar._delta_factors(eta, lam, index_set, ctx)
    return ctx.product_sum([factors], divisors)


def beta_factor(eta, index_set, ctx=GENERIC):
    """beta(eta, I), multiplied out: see ``istar._beta_factors``."""
    factors, divisors = istar._beta_factors(eta, index_set, ctx)
    return ctx.product_sum([factors], divisors)
