"""Composition combinatorics.

Compositions are plain tuples of nonnegative integers.  All public indices
(positions in compositions, entries of permutations, index sets I) are
1-based.  Permutations are tuples of images: sigma = (sigma(1),...,sigma(n)).
"""

from __future__ import annotations

import itertools

from .algebra import GENERIC, AlgebraError, ScalarContext, memo

Composition = tuple[int, ...]


def as_composition(parts) -> Composition:
    """The label ``parts`` as a new tuple of nonnegative ints, each part
    read by :func:`_part`.  A memoised function calls it in its body, so it
    runs when a value is computed, not on a memo hit."""
    eta = tuple(_part(x) for x in parts)
    if not eta:
        raise AlgebraError("compositions must have length >= 1")
    if any(x < 0 for x in eta):
        raise AlgebraError(f"composition parts must be nonnegative: {eta}")
    return eta


def _part(x, noun: str = "composition parts") -> int:
    """x as an int: a numeral string, or an integral number; int() alone
    would round 1.5 toward zero.  ``noun`` names what x was read as."""
    k = int(x)
    if k != x and not isinstance(x, str):
        raise AlgebraError(f"{noun} must be integers: {x!r}")
    return k


def modulus(eta: Composition) -> int:
    return sum(eta)


def comp_str(eta: Composition) -> str:
    return ",".join(str(x) for x in eta)


def parse_comp(s: str) -> Composition:
    try:
        return as_composition(s.split(","))
    except (ValueError, AlgebraError) as exc:
        raise AlgebraError(f"cannot parse composition {s!r}") from exc


def compositions(n: int, m: int):
    """All length-n compositions of modulus m, lexicographically: none when
    m < 0."""
    if n < 1:
        raise AlgebraError("compositions must have length >= 1")
    if n == 1:
        if m >= 0:
            yield (m,)
        return
    for first in range(m + 1):
        for rest in compositions(n - 1, m - first):
            yield (first,) + rest


def compositions_up_to(n: int, maxmod: int):
    for m in range(maxmod + 1):
        yield from compositions(n, m)


def partition_of(eta: Composition) -> Composition:
    """eta+: the weakly decreasing rearrangement."""
    return tuple(sorted(eta, reverse=True))


def is_partition(eta: Composition) -> bool:
    return all(eta[i] >= eta[i + 1] for i in range(len(eta) - 1))


# ---------------------------------------------------------------------------
# orderings
# ---------------------------------------------------------------------------

def dominance_lt(mu: Composition, eta: Composition) -> bool:
    """Strict dominance on equal-modulus compositions: every prefix sum of mu
    is <= the matching prefix sum of eta, and mu != eta."""
    if mu == eta:
        return False
    s_mu = s_eta = 0
    for a, b in zip(mu, eta):
        s_mu += a
        s_eta += b
        if s_mu > s_eta:
            return False
    return s_mu == s_eta


def prec(mu: Composition, eta: Composition) -> bool:
    """mu strictly below eta: rearranged partitions compared by dominance
    first, equal rearrangements broken by composition dominance.
    Compositions of strictly smaller modulus always compare below."""
    if len(mu) != len(eta):
        raise AlgebraError("prec compares compositions of equal length")
    if modulus(mu) != modulus(eta):
        return modulus(mu) < modulus(eta)
    mp, ep = partition_of(mu), partition_of(eta)
    if mp == ep:
        return dominance_lt(mu, eta)
    return dominance_lt(mp, ep)


def expand_triangular(p, basis) -> dict:
    """Expand p over a monic basis triangular for prec: {label: coefficient}.

    Repeatedly takes the prec-maximal monomial z^lam of what is left, records
    its coefficient c and subtracts c * basis(lam).
    """
    coeffs = {}
    work = p
    while not work.is_zero:
        support = list(work.terms)
        lam = support[0]
        for mu in support[1:]:
            if prec(lam, mu):
                lam = mu
        c = work.terms[lam]
        coeffs[lam] = c
        work = work - basis(lam).scale(c)
    return coeffs


# ---------------------------------------------------------------------------
# statistics and spectral data
# ---------------------------------------------------------------------------

def leg_colength_vector(eta: Composition) -> tuple[int, ...]:
    """l'(i) = #{j<i: eta_j >= eta_i} + #{j>i: eta_j > eta_i}."""
    n = len(eta)
    return tuple(
        sum(1 for j in range(i) if eta[j] >= eta[i])
        + sum(1 for j in range(i + 1, n) if eta[j] > eta[i])
        for i in range(n)
    )


@memo
def spectral_weights(eta: Composition) -> tuple[Composition, tuple[int, ...]]:
    """(eta, -l'(eta)): the exponents of q and of t in the entries of the
    spectral point, q^(eta_i) t^(-l'(i)), as two columns; memoised."""
    eta = as_composition(eta)
    return eta, tuple(-l for l in leg_colength_vector(eta))


def spectral_exponents(eta: Composition) -> tuple[tuple[int, int], ...]:
    """(a, b) per position, with q^a t^b the entry of the spectral point:
    a = eta_i and b = -l'(i)."""
    return tuple(zip(*spectral_weights(eta)))


def spectral_vector(eta: Composition, ctx: ScalarContext = GENERIC):
    """The evaluation point attached to eta: entry i is q^(eta_i) t^(-l'(i))."""
    return tuple(ctx.monomial(a, b) for a, b in spectral_exponents(eta))


def spectral_e_gap(eta: Composition, lam: Composition, r: int,
                   ctx: ScalarContext = GENERIC):
    """e_r(lam-bar) - e_r(eta-bar), normalised once.

    At a spectral point each r-subset of positions contributes one monomial,
    whose exponents of q and of t are the sums of those of its entries
    (:func:`spectral_weights`), so the gap is one monomial sum over
    denominator 1: sign +1 for the subsets of lam, -1 for those of eta.
    """
    one, den = ctx.parts(ctx.one)
    qexps, texps = [], []
    for mu in (lam, eta):
        for column, weights in zip((qexps, texps), spectral_weights(mu)):
            column += map(sum, itertools.combinations(weights, r))
    count = len(qexps) // 2
    return ctx.monomial_sum(den, [one] * count + [-one] * count, qexps, texps)


def n_stat(lam: Composition) -> int:
    """sum_i (i-1) lam_i."""
    return sum(i * x for i, x in enumerate(lam))


def hook_nodes(eta: Composition):
    """Yield (i, j, arm, leg) for every node (i, j) of the diagram, 1-based.

    Node (i,j) has arm eta_i - j and
    leg #{k<i: j <= eta_k + 1 <= eta_i} + #{k>i: j <= eta_k <= eta_i}.
    """
    n = len(eta)
    for i in range(1, n + 1):
        for j in range(1, eta[i - 1] + 1):
            leg = sum(1 for k in range(1, i) if j <= eta[k - 1] + 1 <= eta[i - 1]) \
                + sum(1 for k in range(i + 1, n + 1) if j <= eta[k - 1] <= eta[i - 1])
            yield i, j, eta[i - 1] - j, leg


def hook_products(eta: Composition):
    """The products (d, d', e, e') over the nodes of the diagram, as four
    lists of exponent pairs (a, b), one per node in the order of
    :func:`hook_nodes`, each pair the factor 1 - q^a t^b.

    Node (i,j) of the diagram has the arm and leg of :func:`hook_nodes`, arm
    colength j - 1, and leg colength equal to the row statistic l'(i).
    """
    n = len(eta)
    lp = leg_colength_vector(eta)
    d, d_prime, e, e_prime = [], [], [], []
    for i, j, arm, leg in hook_nodes(eta):
        arm_co, leg_co = j - 1, lp[i - 1]
        d.append((arm + 1, leg + 1))
        d_prime.append((arm + 1, leg))
        e.append((arm_co + 1, n - leg_co))
        e_prime.append((arm_co + 1, n - 1 - leg_co))
    return d, d_prime, e, e_prime


def hook_d_prime_inverted(eta: Composition, ctx: ScalarContext = GENERIC):
    """d' evaluated at reciprocal parameters, built directly; a factor
    that vanishes at ctx's point raises SpecializationError naming it."""
    return ctx.one_minus_product((-(arm + 1), -leg)
                                 for _, _, arm, leg in hook_nodes(eta))


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

def perm_inverse(sigma: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(sigma)
    for i, v in enumerate(sigma, start=1):
        inv[v - 1] = i
    return tuple(inv)


def perm_compose(sigma: tuple[int, ...], rho: tuple[int, ...]) -> tuple[int, ...]:
    """(sigma o rho)(i) = sigma(rho(i))."""
    return tuple(sigma[r - 1] for r in rho)


def sorting_permutation(eta: Composition) -> tuple[int, ...]:
    """The shortest permutation w with w^{-1}(eta) = eta+.

    Realized by a stable descending sort: w(j) is the position in eta of the
    j-th entry of eta+, equal entries keeping their left-to-right order.
    """
    order = sorted(range(len(eta)), key=lambda i: (-eta[i], i))
    return tuple(i + 1 for i in order)


# ---------------------------------------------------------------------------
# the successor order
# ---------------------------------------------------------------------------

def is_defining_permutation(eta: Composition, lam: Composition,
                            sigma: tuple[int, ...]) -> bool:
    for i in range(1, len(eta) + 1):
        j = sigma[i - 1]
        if i < j:
            if not eta[i - 1] < lam[j - 1]:
                return False
        else:
            if not eta[i - 1] <= lam[j - 1]:
                return False
    return True


def successor_test(eta: Composition, lam: Composition) -> tuple[int, ...] | None:
    """The permutation w_lam o w_eta^{-1} if it defines eta <=' lam, else
    None, since it does whenever any permutation does."""
    if len(eta) != len(lam):
        raise AlgebraError("successor_test requires equal lengths")
    sigma = perm_compose(sorting_permutation(lam),
                         perm_inverse(sorting_permutation(eta)))
    if is_defining_permutation(eta, lam, sigma):
        return sigma
    return None


def is_successor(eta: Composition, lam: Composition) -> bool:
    return successor_test(eta, lam) is not None


# ---------------------------------------------------------------------------
# minimal raises c_I and maximal index sets
# ---------------------------------------------------------------------------

def _index_set(index_set, n: int) -> tuple[int, ...]:
    """I as its positions t_1 < ... < t_s: nonempty, distinct integers in
    1..n."""
    ts = tuple(sorted(_part(x, "index set entries") for x in index_set))
    if not ts or ts[0] < 1 or ts[-1] > n or len(set(ts)) != len(ts):
        raise AlgebraError(f"invalid index set {index_set} for n={n}")
    return ts


def c_I_apply(eta: Composition, index_set) -> Composition:
    """Cycle the selected entries down one slot and raise the first by one.

    Position t_k receives eta_{t_{k+1}} (k < s), position t_s receives
    eta_{t_1} + 1, and positions outside I are untouched.
    """
    ts = _index_set(index_set, len(eta))
    out = list(eta)
    s = len(ts)
    for k in range(s - 1):
        out[ts[k] - 1] = eta[ts[k + 1] - 1]
    out[ts[-1] - 1] = eta[ts[0] - 1] + 1
    return tuple(out)


def swap_entries(eta: Composition, i: int) -> Composition:
    """s_i on compositions (1-based)."""
    le = list(eta)
    le[i - 1], le[i] = le[i], le[i - 1]
    return tuple(le)


def generation_step(eta: Composition):
    """The last step of the recursive generation of E_eta and Estar_eta.

    None for the zero composition, whose polynomial is 1.  Otherwise
    (mu, i): when eta_n >= 1, i is None and eta = (mu_2, ..., mu_n, mu_1 + 1)
    is raised from mu = (eta_n - 1, eta_1, ..., eta_{n-1}); when eta_n = 0,
    i is the last descent of eta and eta is switched from mu = s_i eta.
    Either step strictly reduces (modulus, inversions), so the recursion
    ends at zero.
    """
    if eta[-1] >= 1:
        return (eta[-1] - 1,) + eta[:-1], None
    descents = [j for j in range(1, len(eta)) if eta[j - 1] > eta[j]]
    if not descents:
        return None
    i = descents[-1]
    return swap_entries(eta, i), i


def basis_action(i: int, eta: Composition, up,
                 ctx: ScalarContext = GENERIC) -> dict:
    """Expansion of a Hecke operator on a spectral basis vector over
    {eta, s_i eta}: T_i on E_eta with up = t, H_i on Estar_eta with up = 1.

    The coefficient of eta is diag = (t - 1)/(1 - delta^-1), with delta the
    spectral ratio at i; where 1 - delta^-1 vanishes, SpecializationError
    names it.  The coefficient of s_i eta is up when
    eta_i < eta_{i+1}, and (1 - t delta)(t - delta)/(up (1 - delta)^2)
    when eta_i > eta_{i+1}; the latter is computed as the equal
    (t - diag)(1 + diag)/up, which takes fewer field operations.
    """
    n = len(eta)
    if not 1 <= i <= n - 1:
        raise AlgebraError(f"operator index {i} out of range for n={n}")
    if eta[i - 1] == eta[i]:
        return {eta: ctx.t}
    (a, b), (c, d) = spectral_exponents(eta)[i - 1:i + 1]
    diag = (ctx.t - ctx.one) / ctx.one_minus(c - a, d - b)
    flip = swap_entries(eta, i)
    if eta[i - 1] < eta[i]:
        return {eta: diag, flip: up}
    return {eta: diag, flip: (ctx.t - diag) * (ctx.one + diag) / up}


def one_step(eta: Composition) -> dict[Composition, tuple[int, ...]]:
    """The one-step successors of eta, {c_I(eta): I} over the index sets I
    maximal with respect to eta, in the order of their masks
    sum_{t in I} 2^(t-1).  c_I is a bijection from the maximal sets onto
    the lam with |lam| = |eta| + 1 and eta <=' lam.

    I = {t_1 < ... < t_s} qualifies when no entry before t_1, or strictly
    between consecutive selected positions, equals the next selected entry,
    and no entry after t_s equals eta_{t_1} + 1.  The first condition says
    that each t_u is the first occurrence of its value after t_{u-1}, so
    the sets that meet it are walked, each reached once from the set without
    its last position; those that meet the second condition are kept.
    """
    kept, chains = [], [()]
    while chains:
        ts = chains.pop()
        last = ts[-1] if ts else 0
        after = eta[last:]
        chains += [ts + (last + after.index(v) + 1,) for v in set(after)]
        if ts and eta[ts[0] - 1] + 1 not in after:
            kept.append(ts)
    kept.sort(key=lambda ts: sum(1 << (t - 1) for t in ts))
    return {c_I_apply(eta, ts): ts for ts in kept}


def successors_layered(eta: Composition, k: int) -> list[Composition]:
    """All lam with |lam| = |eta| + k and eta <=' lam (k-fold one-step image)."""
    if k < 1:
        raise AlgebraError("layer index k must be >= 1")
    layer = {eta}
    for _ in range(k):
        layer = {lam for mu in layer for lam in one_step(mu)}
    return sorted(layer)


def chi_r(eta: Composition, r: int) -> Composition:
    """Add one exactly to the entries whose leg colength is below r."""
    n = len(eta)
    if not 1 <= r <= n:
        raise AlgebraError(f"chi index r={r} out of range for n={n}")
    lp = leg_colength_vector(eta)
    return tuple(eta[i] + (1 if lp[i] < r else 0) for i in range(n))


def add_box_everywhere(eta: Composition) -> Composition:
    """eta + (1^n)."""
    return tuple(x + 1 for x in eta)
