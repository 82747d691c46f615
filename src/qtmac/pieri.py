"""Pieri-type branching coefficients.

The coefficients A^(r)_{eta,lam} expand e_r(z) E_eta(z; 1/q, 1/t) over the
E_lam(z; 1/q, 1/t) with |lam| = |eta| + r.  They are produced four ways:

* the layered recursion through interpolation polynomial evaluations,
* the r = 1 closed form through the one-step ratio,
* the r = 1 product form through the a-hat/b-hat factors,
* a brute-force expansion oracle over the monic triangular basis.

Duality transfers a coefficient to the complementary one at reciprocal
parameters: the check of acceptance criterion 08, not a route to the tables.
"""

from __future__ import annotations

from collections import namedtuple

from .scalar import GENERIC, AlgebraError, ScalarContext, memo
from .algebra import (
    ZPolynomial,
    elementary_symmetric,
    field_view,
    form_sum,
    ring_form,
)
from . import comb, emac, istar
from .comb import Composition


ExpansionTable = namedtuple("ExpansionTable", "base r layers")
ExpansionTable.__doc__ = """Layers of branching coefficients over successor
compositions.

layers[i-1] maps each lam with |lam| = |base| + i to its coefficient;
zero coefficients are never stored.
"""


def interpolation_expansion(eta: Composition, r: int,
                            ctx: ScalarContext = GENERIC,
                            ceiling: Composition | None = None) -> ExpansionTable:
    """The layers of the expansion of (e_r(z) - e_r(eta-bar)) Estar_eta.

    Layer one is a pure evaluation ratio; layer i subtracts the contributions
    of every earlier layer that stays below the target.  Each coefficient is
    one ``ScalarContext.product_sum``: the e_r gap times the spectral value,
    less a_mu times the spectral value of every earlier mu below the target,
    over the principal value of the target.  Every kept target's principal
    value is taken, zero sum or not, so a point where one vanishes raises
    instead of dropping coefficients.

    With a ``ceiling``, only the targets lam <=' ceiling are kept.  This is
    exact for them: the successor order is transitive, so a label above the
    ceiling never precedes a kept target and its coefficient never enters
    one.  Without it every successor of eta is kept, which the residual
    check needs.  The earlier labels below each target are read off the
    layered front (:func:`_kept_fronts`).
    """
    eta = comb.as_composition(eta)
    n = len(eta)
    if not 1 <= r <= n:
        raise AlgebraError(f"r={r} out of range for n={n}")
    layers: list[dict] = []
    earlier: dict = {}
    for below in _kept_fronts(eta, r, ceiling):
        layer = {}
        for lam in sorted(below):
            principal = istar.principal_value(lam, ctx)
            coeff = ctx.product_sum(
                [(comb.spectral_e_gap(eta, lam, r, ctx),
                  istar.spectral_evaluate(eta, lam, ctx)),
                 *((-earlier[mu], istar.spectral_evaluate(mu, lam, ctx))
                   for mu in below[lam].intersection(earlier))],
                [principal])
            if coeff:
                layer[lam] = coeff
        layers.append(layer)
        earlier.update(layer)
    return ExpansionTable(eta, r, tuple(layers))


def _kept_fronts(eta: Composition, r: int, ceiling: Composition | None):
    """For each gap 1..r, {lam: the kept labels below lam} over the kept
    labels lam of that gap: the successors of eta, those <=' ceiling if one
    is given.

    Every chain of one-step successors from eta to a kept label stays below
    it, hence below the ceiling, so each front is the one-step image of the
    last one, filtered.  Each successor mu <=' lam with
    |lam| = |mu| + k is a chain of k one-step successors
    (:func:`comb.successors_layered`), and every label on the chain lies
    between two kept labels, so it is kept.  The labels below lam are
    therefore its one-step predecessors and the labels below those.
    """
    below = {eta: frozenset()}
    for _ in range(r):
        preds: dict = {}
        for mu in below:
            for lam in comb.one_step(mu):
                preds.setdefault(lam, []).append(mu)
        if ceiling is not None:
            preds = {lam: ps for lam, ps in preds.items()
                     if comb.is_successor(lam, ceiling)}
        below = {lam: frozenset(ps).union(*(below[mu] for mu in ps))
                 for lam, ps in preds.items()}
        yield below


@memo
def _label_form(eta: Composition, star: bool, ctx: ScalarContext = GENERIC):
    """Estar_eta when ``star``, else E_eta, as a form over the least common
    denominator of its coefficients, memoised."""
    poly = istar.generate_Estar(eta, ctx) if star else emac.generate_E(eta, ctx)
    return ring_form(poly, ctx)


def _residual(first, entries, basis, ctx: ScalarContext) -> ZPolynomial:
    """The view of the form ``first`` minus the sum of a B_lam over the
    entries (lam, a), with basis(lam) the form of B_lam.  The sum runs over
    the running lcm of the denominators, one lcm per label, so a residual
    that vanishes normalises no coefficient."""
    forms = [first]
    for lam, a in entries:
        an, ad = ctx.parts(a)
        den, p = basis(lam)
        forms.append((ad * den, p.scale(-an)))
    return field_view(*form_sum(forms, ctx), ctx)


def interpolation_residual(table: ExpansionTable,
                           ctx: ScalarContext = GENERIC) -> ZPolynomial:
    """(e_r(z) - e_r(eta-bar)) Estar_eta - sum of A Estar_lam; must be zero."""
    eta, r = table.base, table.r
    n = len(eta)
    er = elementary_symmetric(n, r, ctx)
    er_eta = er.at_point(comb.spectral_vector(eta, ctx), ctx)
    gap_den, gap = ring_form(er - ZPolynomial.constant(n, er_eta), ctx)
    den, p = _label_form(eta, True, ctx)
    entries = [entry for layer in table.layers for entry in layer.items()]
    return _residual((gap_den * den, gap * p), entries,
                     lambda lam: _label_form(lam, True, ctx), ctx)


def pieri_homogeneous(eta: Composition, r: int,
                      ctx: ScalarContext = GENERIC) -> dict:
    """The coefficients of e_r(z) E_eta(z; 1/q, 1/t): the top layer of the
    interpolation expansion pruned to the ceiling eta + (1^n)."""
    eta = comb.as_composition(eta)
    ceiling = comb.add_box_everywhere(eta)
    return interpolation_expansion(eta, r, ctx, ceiling).layers[r - 1]


def pieri_r1_closed(eta: Composition, ctx: ScalarContext = GENERIC) -> dict:
    """r = 1 coefficients in closed form, one per one-step successor lam
    of :func:`comb.one_step`: (|lam-bar| - |eta-bar|) times
    :func:`istar.one_step_ratio`, which is
    q^(-eta_{t1}) delta(eta,I) beta(eta,I) / (1-t)."""
    eta = comb.as_composition(eta)
    out = {}
    for lam in comb.one_step(eta):
        coeff = (comb.spectral_e_gap(eta, lam, 1, ctx)
                 * istar.one_step_ratio(eta, lam, ctx))
        if coeff:
            out[lam] = coeff
    return out


# ---------------------------------------------------------------------------
# r = 1 product form
# ---------------------------------------------------------------------------

def _product_factors(eta: Composition, ts, ctx: ScalarContext):
    """(factors, divisors) of A_I B-tilde_I at the spectral point of eta,
    for I = {t_1 < ... < t_s} given as the increasing tuple ts.

    For spectral monomials x = q^x0 t^x1 and y = q^y0 t^y1, each a-hat
    (t - 1) x / (x - y) is taken as (t - 1) / (1 - y/x) and each b-hat
    (x - t y) / (x - y) as (1 - t y/x) / (1 - y/x); every divisor is built
    with ``ctx.one_minus``, so the first that vanishes is named.
    """
    n = len(eta)
    z = comb.spectral_exponents(eta)
    first, last = z[ts[0] - 1], z[ts[-1] - 1]
    raised = (first[0] + 1, first[1])  # q times the first selected entry
    # the (x, y) of each a-hat, then of each b-hat
    a_pairs = [((last[0] - 1, last[1]), first)]
    a_pairs += [(z[ts[u] - 1], z[ts[u + 1] - 1]) for u in range(len(ts) - 1)]
    b_pairs = []
    prev = 0
    for tu in ts:
        b_pairs += [(z[tu - 1], z[j - 1]) for j in range(prev + 1, tu)]
        prev = tu
    b_pairs += [(raised, z[j - 1]) for j in range(ts[-1] + 1, n + 1)]
    factors, divisors = [], []
    for x, y in a_pairs:
        factors.append(ctx.t - ctx.one)
        divisors.append(ctx.one_minus(y[0] - x[0], y[1] - x[1]))
    for x, y in b_pairs:
        a, b = y[0] - x[0], y[1] - x[1]
        factors.append(ctx.one - ctx.monomial(a, b + 1))
        divisors.append(ctx.one_minus(a, b))
    factors.append(ctx.monomial(*raised) - ctx.monomial(0, 1 - n))
    return factors, divisors


def pieri_r1_product_form(eta: Composition,
                          ctx: ScalarContext = GENERIC) -> dict:
    """r = 1 coefficients in product form, one per one-step successor
    lam = c_I(eta) of :func:`comb.one_step`:

    (1-q) d'_eta(1/q,1/t) A_I B~_I / (d'_lam(1/q,1/t) q^(eta_{t1}+1) (t-1)),

    one ``ctx.product_sum`` term.  Zero coefficients are dropped.
    """
    eta = comb.as_composition(eta)
    dpr_eta = comb.hook_d_prime_inverted(eta, ctx)
    out = {}
    for lam, index_set in comb.one_step(eta).items():
        factors, divisors = _product_factors(eta, index_set, ctx)
        coeff = ctx.product_sum(
            [(ctx.q - ctx.one, dpr_eta, *factors)],
            [*divisors, comb.hook_d_prime_inverted(lam, ctx),
             ctx.monomial(eta[index_set[0] - 1] + 1, 0), ctx.one_minus(0, 1)])
        if coeff:
            out[lam] = coeff
    return out


# ---------------------------------------------------------------------------
# duality and the brute-force oracle
# ---------------------------------------------------------------------------

def duality_transfer(eta: Composition, lam: Composition, r: int,
                     ctx: ScalarContext = GENERIC):
    """A^(r)_{eta,lam} computed from the complementary coefficient:
    A^(n-r)_{lam, eta+(1^n)} at reciprocal parameters times N_eta/N_lam.

    N_eta/N_lam is d'_eta e_eta d_lam e'_lam / (d_eta e'_eta d'_lam e_lam)
    (:func:`emac.norm_N`), one ``ScalarContext.product_sum``.  Where a
    factor vanishes that divides either norm, SpecializationError names it
    as ``norm_N`` does, eta's first; then it names a vanishing factor of
    d'_lam or e_lam, which divide here."""
    eta = comb.as_composition(eta)
    lam = comb.as_composition(lam)
    n = len(eta)
    if not 1 <= r <= n - 1:
        raise AlgebraError(f"duality requires 1 <= r <= n-1, got r={r}")
    if comb.modulus(lam) != comb.modulus(eta) + r:
        raise AlgebraError("duality requires |lam| = |eta| + r")
    if not comb.is_successor(eta, lam):
        return ctx.zero
    target = comb.add_box_everywhere(eta)
    a_dual = pieri_homogeneous(lam, n - r, ctx.inverted()).get(target, ctx.zero)
    d, d_prime, e, e_prime = comb.hook_products(eta)
    ld, ld_prime, le, le_prime = comb.hook_products(lam)
    divisors = [ctx.one_minus(a, b) for node in zip(d, e_prime)
                for a, b in node]
    factors = [ctx.one_minus(a, b) for node in zip(ld, le_prime)
               for a, b in node]
    return ctx.product_sum(
        [(a_dual, *factors,
          *(ctx.one - ctx.monomial(a, b) for a, b in d_prime + e))],
        [*divisors, *(ctx.one_minus(a, b) for a, b in ld_prime + le)])


def product_expand_oracle(eta: Composition, r: int,
                          ctx: ScalarContext = GENERIC) -> dict:
    """Ground truth: expand e_r(z) E_eta(z; 1/q, 1/t) over the full monic
    basis at modulus |eta| + r by peeling order-maximal monomials."""
    eta = comb.as_composition(eta)
    n = len(eta)
    if not 1 <= r <= n:
        raise AlgebraError(f"r={r} out of range for n={n}")
    inv = ctx.inverted()
    product = elementary_symmetric(n, r, ctx) * emac.generate_E(eta, inv)
    return comb.expand_triangular(product, lambda lam: emac.generate_E(lam, inv))


def homogeneous_residual(eta: Composition, r: int, table: dict,
                         ctx: ScalarContext = GENERIC) -> ZPolynomial:
    """e_r(z) E_eta(z;1/q,1/t) - sum A E_lam(z;1/q,1/t); must be zero."""
    eta = comb.as_composition(eta)
    n = len(eta)
    inv = ctx.inverted()
    _, er = ring_form(elementary_symmetric(n, r, ctx), ctx)
    den, p = _label_form(eta, False, inv)
    return _residual((den, er * p), table.items(),
                     lambda lam: _label_form(lam, False, inv), ctx)
