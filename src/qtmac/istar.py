"""Interpolation Macdonald polynomials.

Estar_eta is the unique polynomial of degree <= |eta| that is monic on
z^eta and vanishes at every spectral point mu-bar with |mu| <= |eta|,
mu != eta.  The family is generated recursively from 1 by the Hecke
operators H_i and the inhomogeneous raising operator
Phi = (z_n - t^(1-n)) Delta, where Delta cycles the variables and divides
the new last variable by q; :func:`emac.common_form` runs that recursion,
and :mod:`qtmac.emac` holds these operators on forms.

Also here: the eigenoperators Xi_i as words in those operators, spectral
evaluation, the independent linear-algebra construction from the vanishing
conditions, the extra vanishing predicate, and the generalized
q,t-binomial coefficients.
"""

from __future__ import annotations

from .scalar import (
    GENERIC,
    AlgebraError,
    ScalarContext,
    SpecializationError,
    memo,
)
from .algebra import ExponentLanes, ZPolynomial, field_view
from . import comb, emac
from .comb import Composition


# ---------------------------------------------------------------------------
# eigenoperators
# ---------------------------------------------------------------------------

def xi_form(i: int, den, p: ZPolynomial,
            ctx: ScalarContext = GENERIC) -> tuple[object, ZPolynomial]:
    """Xi_i (P / D) as a form, from the form (D, P), for
    Xi_i p = z_i^-1 p + z_i^-1 H_i ... H_{n-1} Phi H_1 ... H_{i-1} p.

    The word runs on P alone through :func:`emac.hecke_step` and
    :func:`emac.phi_form`, and collects what it divides by in one factor F;
    then Xi_i (P / D) = z_i^-1 (F P + word) / (D F).
    """
    n = p.nvars
    if not 1 <= i <= n:
        raise AlgebraError(f"eigenoperator index {i} out of range for n={n}")
    _, td = ctx.parts(ctx.t)
    factor, _ = ctx.parts(ctx.one)
    word = p
    for j in range(i - 1, 0, -1):
        factor, word = factor * td, emac.hecke_step(j, word, ctx, star=True)
    factor, word = emac.phi_form(factor, word, ctx)
    for j in range(n - 1, i - 1, -1):
        factor, word = factor * td, emac.hecke_step(j, word, ctx, star=True)
    total = p.scale(factor) + word
    return den * factor, ZPolynomial(n, {
        e[:i - 1] + (e[i - 1] - 1,) + e[i:]: c for e, c in total.terms.items()},
        laurent=True)


# ---------------------------------------------------------------------------
# recursive generation
# ---------------------------------------------------------------------------

@memo
def generate_Estar(eta: Composition, ctx: ScalarContext = GENERIC) -> ZPolynomial:
    """Estar_eta: :func:`emac.common_form` with each coefficient normalised
    once, memoised."""
    return field_view(*emac.common_form(eta, True, ctx), ctx)


@memo
def _lane_form(eta: Composition, ctx: ScalarContext = GENERIC):
    """(D, numerators, lanes) for Estar_eta == P / D: the numerators of P
    and their exponent vectors packed into :class:`algebra.ExponentLanes`,
    in the same order; memoised."""
    den, p = emac.common_form(eta, True, ctx)
    return den, list(p.terms.values()), ExponentLanes(p.nvars, p.terms)


def spectral_evaluate(eta: Composition, mu: Composition,
                      ctx: ScalarContext = GENERIC):
    """Estar_eta evaluated at the spectral point of mu.

    There z^e is the monomial q^(sum e_i mu_i) t^(-sum e_i l'_i(mu)).  The
    lanes of Estar_eta give both exponent sums of all its terms at once,
    one lane sum per column of :func:`comb.spectral_weights`, and the value
    is one sum of numerators times monomials over the common denominator
    of Estar_eta (:func:`emac.common_form`), normalised once.  ``at_point``
    on the spectral vector is the general evaluator that checks this one.
    """
    if len(eta) != len(mu):
        raise AlgebraError("spectral_evaluate requires equal lengths")
    den, nums, lanes = _lane_form(eta, ctx)
    qweights, tweights = comb.spectral_weights(mu)
    return ctx.monomial_sum(den, nums, lanes.sums(qweights),
                            lanes.sums(tweights))


def principal_value(eta: Composition, ctx: ScalarContext = GENERIC):
    """Estar_eta at its own spectral point, in closed form:
    d'_eta at reciprocal parameters times the product of eta-bar_i^(eta_i).

    Where it vanishes at ctx's point, SpecializationError names the factor
    1 - q^a t^b of d' that does."""
    eta, tweights = comb.spectral_weights(eta)
    return comb.hook_d_prime_inverted(eta, ctx) * ctx.monomial(
        sum(x * x for x in eta), sum(x * l for x, l in zip(eta, tweights)))


def extra_vanishing_test(eta: Composition, lam: Composition) -> bool:
    """Whether Estar_eta vanishes at the spectral point of lam: exactly when
    lam is not a successor of eta."""
    if comb.modulus(lam) < comb.modulus(eta):
        raise AlgebraError("extra vanishing requires |lam| >= |eta|")
    return not comb.is_successor(eta, lam)


# ---------------------------------------------------------------------------
# independent construction from the vanishing conditions
# ---------------------------------------------------------------------------

def vanishing_solve_oracle(eta: Composition,
                           ctx: ScalarContext = GENERIC) -> ZPolynomial:
    """Solve for Estar_eta directly from its defining vanishing conditions.

    Unknowns: coefficients of all monomials strictly below z^eta (any modulus
    up to |eta|); equations: vanishing at every spectral point mu-bar with
    |mu| <= |eta|, mu != eta.  Forward elimination over the scalar field
    and back substitution; the (overdetermined) system must be consistent
    with full rank.
    """
    eta = comb.as_composition(eta)
    n = len(eta)
    m = comb.modulus(eta)
    unknowns = [mu for mu in comb.compositions_up_to(n, m)
                if mu != eta and comb.prec(mu, eta)]
    points = [mu for mu in comb.compositions_up_to(n, m) if mu != eta]
    rows = []
    for mu in points:
        pt = comb.spectral_vector(mu, ctx)

        def mono_at(nu):
            v = ctx.one
            for x, k in zip(pt, nu):
                if k:
                    v = v * x ** k
            return v

        rows.append([mono_at(nu) for nu in unknowns] + [-mono_at(eta)])
    ncols = len(unknowns)
    # forward elimination with partial pivoting on nonzero entries
    for col in range(ncols):
        sel = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if sel is None:
            raise AlgebraError("singular vanishing system (implementation bug)")
        rows[col], rows[sel] = rows[sel], rows[col]
        prow = rows[col]
        inv = prow[col] ** -1
        for row in rows[col + 1:]:
            if not row[col]:
                continue
            factor = row[col] * inv
            for c in range(col + 1, ncols + 1):
                if prow[c]:
                    row[c] = row[c] - factor * prow[c]
    # consistency of the remaining equations
    for row in rows[ncols:]:
        if row[ncols]:
            raise AlgebraError("inconsistent vanishing system (implementation bug)")
    # back substitution
    values = [ctx.zero] * ncols
    for col in range(ncols - 1, -1, -1):
        row = rows[col]
        acc = row[ncols]
        for c in range(col + 1, ncols):
            if row[c] and values[c]:
                acc = acc - row[c] * values[c]
        values[col] = acc / row[col]
    terms = {eta: ctx.one}
    terms.update((nu, c) for nu, c in zip(unknowns, values) if c)
    return ZPolynomial(n, terms)


# ---------------------------------------------------------------------------
# one-step evaluation ratio and binomial coefficients
# ---------------------------------------------------------------------------

def _delta_factors(eta: Composition, lam: Composition, ts,
                   ctx: ScalarContext):
    """(factors, divisors) of delta(eta, I) for lam = c_I(eta), I given as
    the tuple ts: the product over the selected positions of
    (t-1)/(1 - lam-bar/eta-bar), each divisor built with
    ``ctx.one_minus``."""
    ez = comb.spectral_exponents(eta)
    lz = comb.spectral_exponents(lam)
    factors, divisors = [], []
    for tu in ts:
        (la, lb), (ea, eb) = lz[tu - 1], ez[tu - 1]
        factors.append(ctx.t - ctx.one)
        divisors.append(ctx.one_minus(la - ea, lb - eb))
    return factors, divisors


def _beta_factors(eta: Composition, ts, ctx: ScalarContext):
    """(factors, divisors) of beta(eta, I), for I = {t_1 < ... < t_s} given
    as the increasing tuple ts, each divisor built with
    ``ctx.one_minus``: the product of (X-t)(tX-1)/(X-1)^2 over unselected
    positions that carry an entry larger than the selected entry about to
    pass them.

    For i below the last selected position, X(i) compares eta-bar at the next
    selected position above i with eta-bar at i; beyond the last selected
    position the raised entry contributes q times the spectral value at the
    first selected position.
    """
    t1, tlast = ts[0], ts[-1]
    ez = comb.spectral_exponents(eta)
    in_set = set(ts)
    factors, divisors = [], []
    for i in range(1, len(eta) + 1):
        if i in in_set:
            continue
        if i < tlast:
            tu = min(tt for tt in ts if tt > i)
            if eta[i - 1] <= eta[tu - 1]:
                continue
            a, b = ez[tu - 1]
        else:
            if eta[i - 1] <= eta[t1 - 1] + 1:
                continue
            a, b = ez[t1 - 1][0] + 1, ez[t1 - 1][1]
        # X is q^a t^b over eta-bar_i
        a, b = a - ez[i - 1][0], b - ez[i - 1][1]
        x = ctx.monomial(a, b)
        one_minus_x = ctx.one_minus(a, b)
        factors += [x - ctx.t, ctx.t * x - ctx.one]
        divisors += [one_minus_x, one_minus_x]
    return factors, divisors


@memo
def one_step_ratio(eta: Composition, lam: Composition,
                   ctx: ScalarContext = GENERIC):
    """Estar_eta(lam-bar) / Estar_lam(lam-bar) for |lam| = |eta| + 1,
    memoised: q^(-eta_{t1}) delta(eta,I) beta(eta,I) / (1 - t), one
    ``ctx.product_sum`` term, when lam = c_I(eta) for a maximal I
    (:func:`comb.one_step`); zero otherwise."""
    eta, lam = comb.as_composition(eta), comb.as_composition(lam)
    if len(eta) != len(lam):
        raise AlgebraError("one_step_ratio requires equal lengths")
    if comb.modulus(lam) != comb.modulus(eta) + 1:
        raise AlgebraError("one_step_ratio requires a modulus gap of one")
    index_set = comb.one_step(eta).get(lam)
    if index_set is None:
        return ctx.zero
    delta, delta_div = _delta_factors(eta, lam, index_set, ctx)
    beta, beta_div = _beta_factors(eta, index_set, ctx)
    return ctx.product_sum(
        [(ctx.monomial(-eta[index_set[0] - 1], 0), *delta, *beta)],
        [*delta_div, *beta_div, ctx.one_minus(0, 1)])


def leftmost_frequency_mismatch(eta: Composition, nu: Composition) -> int:
    """1-based position of the leftmost entry of eta whose value occurs with
    different multiplicity in nu."""
    for i, x in enumerate(eta):
        if eta.count(x) != nu.count(x):
            return i + 1
    raise AlgebraError(f"{eta} and {nu} have identical content")


def recursion_position(eta: Composition, nu: Composition,
                       ctx: ScalarContext = GENERIC) -> int:
    """Position k driving the binomial recursion.

    Default is the leftmost frequency mismatch; the derivation additionally
    needs the spectral entries of eta and nu to differ at k (the prefactor
    divides by their ratio minus one), so when they coincide the leftmost
    spectral mismatch is used instead.
    """
    eb = comb.spectral_vector(eta, ctx)
    nb = comb.spectral_vector(nu, ctx)
    pos = leftmost_frequency_mismatch(eta, nu)
    if nb[pos - 1] != eb[pos - 1]:
        return pos
    for i in range(len(eta)):
        if nb[i] != eb[i]:
            return i + 1
    raise SpecializationError(
        f"{comb.comp_str(eta)} and {comb.comp_str(nu)} share their "
        f"spectral point at {ctx.params_label()}")


def binomial_direct(eta: Composition, nu: Composition,
                    ctx: ScalarContext = GENERIC):
    """The generalized binomial coefficient Estar_eta(nu-bar)/Estar_nu(nu-bar)."""
    return spectral_evaluate(eta, nu, ctx) / principal_value(nu, ctx)


@memo
def binomial_recursive(eta: Composition, nu: Composition,
                       ctx: ScalarContext = GENERIC):
    """The binomial coefficient through the layered recursion, memoised.

    A gap of one is the closed-form one-step ratio.  For larger gaps, with
    k = :func:`recursion_position`, the eigenoperator word of
    :func:`xi_form` at k takes Estar_eta to a sum over the one-step
    successors nu' of :func:`comb.one_step`, with coefficient
    (nu'-bar_k/eta-bar_k - 1) times :func:`one_step_ratio`.  The value is
    the sum over the nu' below nu of that coefficient times the recursive
    coefficient from nu' to nu, over nu-bar_k/eta-bar_k - 1, in one
    ``ScalarContext.product_sum``.  A nu' with eta's spectral entry at
    k has coefficient 0 over Q(q,t) and is skipped; every other one is
    kept, so at a point where its coefficient vanishes its term may still
    be 0 times a pole, which raises.
    """
    eta, nu = comb.as_composition(eta), comb.as_composition(nu)
    gap = comb.modulus(nu) - comb.modulus(eta)
    if gap <= 0:
        raise AlgebraError("binomial_recursive requires |nu| > |eta|")
    if not comb.is_successor(eta, nu):
        return ctx.zero
    if gap == 1:
        return one_step_ratio(eta, nu, ctx)
    pos = recursion_position(eta, nu, ctx)
    # nu'-bar_k / eta-bar_k is the monomial q^a t^b of the exponent difference
    ea, eb = comb.spectral_exponents(eta)[pos - 1]
    na, nb = comb.spectral_exponents(nu)[pos - 1]
    # nonzero: recursion_position picks a k where the entries differ
    denom = ctx.monomial(na - ea, nb - eb) - ctx.one
    terms = []
    for lab in comb.one_step(eta):
        la, lb = comb.spectral_exponents(lab)[pos - 1]
        if (la, lb) != (ea, eb) and comb.is_successor(lab, nu):
            terms.append((ctx.monomial(la - ea, lb - eb) - ctx.one,
                          one_step_ratio(eta, lab, ctx),
                          binomial_recursive(lab, nu, ctx)))
    return ctx.product_sum(terms, [denom])
