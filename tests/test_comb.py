"""Composition combinatorics: statistics, orders, successors, index sets."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qtmac.scalar import GENERIC, AlgebraError
from qtmac import comb, emac

from field_operators import c_I_operator_word, phi_shift
from helpers import apply_perm, maximal_sets_by_masks, successor_search

G = GENERIC

comps = st.lists(st.integers(0, 3), min_size=1, max_size=4).map(tuple)
comps3 = st.lists(st.integers(0, 3), min_size=3, max_size=3).map(tuple)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def test_leg_colength_examples():
    assert comb.leg_colength_vector((0, 0, 0, 0)) == (0, 1, 2, 3)
    assert comb.leg_colength_vector((0, 1)) == (1, 0)
    assert comb.leg_colength_vector((1, 0)) == (0, 1)


def test_spectral_vector_examples():
    assert comb.spectral_vector((0, 0)) == (G.one, G.monomial(0, -1))
    assert comb.spectral_vector((0, 1)) == (G.monomial(0, -1), G.q)
    assert comb.spectral_vector((1, 1)) == (G.q, G.q * G.monomial(0, -1))


@settings(max_examples=60, deadline=None)
@given(comps)
def test_spectral_entries_pairwise_distinct(eta):
    vec = comb.spectral_vector(eta)
    assert len(set(vec)) == len(vec)


def _hook_values(eta, ctx=G):
    """The products (d, d', e, e') of eta as scalars, multiplied out one
    factor at a time."""
    values = []
    for pairs in comb.hook_products(eta):
        value = ctx.one
        for a, b in pairs:
            value = value * (ctx.one - ctx.monomial(a, b))
        values.append(value)
    return tuple(values)


def test_hook_products_examples():
    q, t, one = G.q, G.t, G.one
    # each node (i, j, arm, leg) has arm colength j - 1 and leg colength l'(i)
    assert comb.hook_products((0, 1)) == ([(1, 2)], [(1, 1)], [(1, 2)], [(1, 1)])
    assert _hook_values((0, 1)) == \
        (one - q * t ** 2, one - q * t, one - q * t ** 2, one - q * t)
    assert list(comb.hook_nodes((0, 1))) == [(2, 1, 0, 1)]
    assert comb.leg_colength_vector((0, 1))[1] == 0

    assert comb.hook_products((1, 0)) == ([(1, 1)], [(1, 0)], [(1, 2)], [(1, 1)])
    assert _hook_values((1, 0)) == \
        (one - q * t, one - q, one - q * t ** 2, one - q * t)
    assert list(comb.hook_nodes((1, 0))) == [(1, 1, 0, 0)]
    assert comb.leg_colength_vector((1, 0))[0] == 0

    assert comb.hook_products((0, 0, 0)) == ([], [], [], [])
    assert _hook_values((0, 0, 0)) == (one, one, one, one)
    assert not list(comb.hook_nodes((0, 0, 0)))


def test_hook_d_prime_inverted_consistent():
    for eta in comb.compositions_up_to(3, 3):
        _, direct, _, _ = _hook_values(eta, G.inverted())
        assert comb.hook_d_prime_inverted(eta) == direct


def test_basis_action_matches_closed_form():
    t, one = G.t, G.one
    for eta in comb.compositions_up_to(3, 3):
        for i in range(1, len(eta)):
            vec = comb.spectral_vector(eta)
            delta = vec[i - 1] / vec[i]
            diag = (t - one) / (one - delta ** -1)
            flip = comb.swap_entries(eta, i)
            for up in (t, one):
                table = comb.basis_action(i, eta, up)
                if eta[i - 1] == eta[i]:
                    assert table == {eta: t}
                elif eta[i - 1] < eta[i]:
                    assert table == {eta: diag, flip: up}
                else:
                    down = (one - t * delta) * (t - delta) / (up * (one - delta) ** 2)
                    assert table == {eta: diag, flip: down}


def test_generation_step_sources():
    for n in range(1, 5):
        for eta in comb.compositions_up_to(n, 4):
            step = comb.generation_step(eta)
            if not any(eta):
                assert step is None
                continue
            mu, i = step
            if eta[-1] >= 1:
                assert i is None
                assert phi_shift(mu) == eta
            else:
                assert eta[i - 1] > eta[i]
                assert all(eta[j - 1] <= eta[j] for j in range(i + 1, n))
                assert comb.swap_entries(mu, i) == eta


def test_n_stat():
    assert comb.n_stat((0, 0)) == 0
    assert comb.n_stat((2, 0)) == 0
    assert comb.n_stat((1, 1)) == 1


# ---------------------------------------------------------------------------
# sorting permutation
# ---------------------------------------------------------------------------

def test_sorting_permutation_examples():
    assert comb.sorting_permutation((2, 1, 0)) == (1, 2, 3)
    assert comb.sorting_permutation((0, 1)) == (2, 1)
    assert comb.sorting_permutation((1, 0, 1)) == (1, 3, 2)


def inversions(sigma):
    return sum(1 for a, b in itertools.combinations(range(len(sigma)), 2)
               if sigma[a] > sigma[b])


@settings(max_examples=60, deadline=None)
@given(comps)
def test_sorting_permutation_is_shortest(eta):
    w = comb.sorting_permutation(eta)
    assert apply_perm(comb.perm_inverse(w), eta) == comb.partition_of(eta)
    best = min(
        (inversions(p) for p in itertools.permutations(range(1, len(eta) + 1))
         if apply_perm(comb.perm_inverse(p), eta) == comb.partition_of(eta)),
    )
    assert inversions(w) == best


# ---------------------------------------------------------------------------
# the successor order
# ---------------------------------------------------------------------------

def test_successor_example_with_two_defining_permutations():
    eta, lam = (1, 2, 1), (1, 2, 2)
    assert comb.is_defining_permutation(eta, lam, (1, 2, 3))
    assert comb.is_defining_permutation(eta, lam, (3, 2, 1))
    sigma = comb.successor_test(eta, lam)
    assert sigma is not None
    # the canonical witness fixes a position only when the entries agree
    assert all(eta[i - 1] == lam[i - 1]
               for i in range(1, 4) if sigma[i - 1] == i)


def test_successor_reflexive_and_absent():
    assert comb.successor_test((1, 2), (1, 2)) == (1, 2)
    assert comb.successor_test((0, 2), (2, 0)) is None
    with pytest.raises(AlgebraError):
        comb.successor_test((0, 1), (0, 1, 2))


@settings(max_examples=40, deadline=None)
@given(comps3, st.lists(st.integers(0, 4), min_size=3, max_size=3).map(tuple))
def test_successor_fast_path_matches_exhaustive(eta, lam):
    fast = comb.successor_test(eta, lam)
    slow = successor_search(eta, lam)
    assert (fast is None) == (slow is None)


def test_successor_fast_path_matches_exhaustive_dense():
    for eta in comb.compositions_up_to(3, 3):
        m = comb.modulus(eta)
        for gap in range(0, 4):
            for lam in comb.compositions(3, m + gap):
                fast = comb.successor_test(eta, lam)
                slow = successor_search(eta, lam)
                assert (fast is None) == (slow is None), (eta, lam)


@settings(max_examples=40, deadline=None)
@given(comps3)
def test_transitivity_witness_composition(eta):
    for mu in comb.one_step(eta):
        sigma = comb.successor_test(eta, mu)
        for lam in comb.one_step(mu):
            rho = comb.successor_test(mu, lam)
            assert comb.is_defining_permutation(
                eta, lam, comb.perm_compose(rho, sigma))


# ---------------------------------------------------------------------------
# c_I and maximal sets
# ---------------------------------------------------------------------------

def test_c_I_worked_example():
    eta = (1, 3, 5, 7, 9, 11, 13, 15)
    assert comb.c_I_apply(eta, (3, 4, 5, 7)) == (1, 3, 7, 9, 13, 11, 6, 15)


def test_c_I_operator_word_intermediates():
    eta = (1, 3, 5, 7, 9, 11, 13, 15)
    steps = c_I_operator_word(eta, (3, 4, 5, 7))
    assert steps == [
        (1, 5, 3, 7, 9, 11, 13, 15),
        (5, 1, 3, 7, 9, 11, 13, 15),
        (1, 3, 7, 9, 11, 13, 15, 6),
        (1, 3, 7, 9, 11, 13, 6, 15),
        (1, 3, 7, 9, 13, 11, 6, 15),
    ]
    assert steps[-1] == comb.c_I_apply(eta, (3, 4, 5, 7))


def test_c_I_small_examples():
    assert comb.c_I_apply((0, 0), (1,)) == (1, 0)
    assert comb.c_I_apply((0, 0), (1, 2)) == (0, 1)
    with pytest.raises(AlgebraError):
        comb.c_I_apply((0, 0), ())
    with pytest.raises(AlgebraError):
        comb.c_I_apply((0, 0), (3,))


@pytest.mark.parametrize("index_set, message", [
    ((1, 1), "invalid index set (1, 1) for n=3"),
    ((2, 3, 2), "invalid index set (2, 3, 2) for n=3"),
    ((0, 1), "invalid index set (0, 1) for n=3"),
    ((4,), "invalid index set (4,) for n=3"),
    ((), "invalid index set () for n=3"),
    ((1.5,), "index set entries must be integers: 1.5"),
], ids=["repeated", "repeated-unsorted", "zero", "above-n", "empty",
        "non-integral"])
def test_c_I_readers_refuse_the_same_index_sets(index_set, message):
    # c_I_apply and c_I_operator_word read I the same way: a repeated
    # entry is refused, not read as the set without its repeat
    for read in (comb.c_I_apply, c_I_operator_word):
        with pytest.raises(AlgebraError) as err:
            read((0, 1, 0), index_set)
        assert str(err.value) == message, read.__name__


def test_one_step_examples():
    assert list(comb.one_step((1, 1, 1)).values()) == [(1,), (1, 2), (1, 2, 3)]
    assert list(comb.one_step((0, 0)).values()) == [(1,), (1, 2)]
    assert comb.one_step((1, 0)) == {(2, 0): (1,), (1, 1): (2,), (0, 2): (1, 2)}


def test_one_step_keys_are_the_one_step_successors():
    # c_I is a bijection from the maximal sets onto the successors of
    # modulus one more, so no two sets share a key
    for n in range(1, 5):
        for eta in comb.compositions_up_to(n, 4):
            graph = comb.one_step(eta)
            assert len(graph) == len(maximal_sets_by_masks(eta)), eta
            filt = {lam for lam in comb.compositions(n, comb.modulus(eta) + 1)
                    if successor_search(eta, lam)}
            assert set(graph) == filt, eta


def test_one_step_walk_is_the_mask_filter():
    # every label of the sizes the Pieri route runs at: the same sets, in
    # the same (mask) order
    for n in range(1, 7):
        for eta in comb.compositions_up_to(n, 4):
            assert list(comb.one_step(eta).values()) == \
                maximal_sets_by_masks(eta), eta


def test_c_I_equals_operator_word_for_maximal_sets():
    for n in range(1, 5):
        for eta in comb.compositions_up_to(n, 4):
            for lam, I in comb.one_step(eta).items():
                steps = c_I_operator_word(eta, I)
                assert steps[-1] == lam, (eta, I)


def test_successors_layered_matches_filter():
    for eta in [(0, 0), (1, 0), (0, 1, 2), (2, 1)]:
        n = len(eta)
        for k in (1, 2, 3):
            layered = comb.successors_layered(eta, k)
            filt = sorted(
                lam for lam in comb.compositions(n, comb.modulus(eta) + k)
                if successor_search(eta, lam))
            assert layered == filt, (eta, k)


def test_successors_layered_examples():
    assert comb.successors_layered((0, 0), 1) == [(0, 1), (1, 0)]
    assert comb.successors_layered((1, 0), 1) == [(0, 2), (1, 1), (2, 0)]


# ---------------------------------------------------------------------------
# chi_r
# ---------------------------------------------------------------------------

def test_chi_r_examples():
    assert comb.chi_r((0, 0), 1) == (1, 0)
    assert comb.chi_r((0, 1), 1) == (0, 2)
    assert comb.chi_r((0, 0), 2) == (1, 1)
    with pytest.raises(AlgebraError):
        comb.chi_r((0, 0), 3)


def test_chi_n_adds_one_everywhere():
    for eta in comb.compositions_up_to(3, 3):
        assert comb.chi_r(eta, len(eta)) == comb.add_box_everywhere(eta)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_comp_str_roundtrip():
    eta = (1, 3, 7)
    assert comb.comp_str(eta) == "1,3,7"
    assert comb.parse_comp("1,3,7") == eta
    with pytest.raises(AlgebraError):
        comb.parse_comp("1,x")
    with pytest.raises(AlgebraError):
        comb.parse_comp("1,-2")
    with pytest.raises(AlgebraError, match="cannot parse composition '1.5,0'"):
        comb.parse_comp("1.5,0")


def test_compositions_at_the_edges():
    assert list(comb.compositions(1, 0)) == [(0,)]
    assert list(comb.compositions(3, 0)) == [(0, 0, 0)]
    # a negative modulus has no composition, whatever the length
    for n in (1, 2, 3):
        assert list(comb.compositions(n, -1)) == [], n
    assert list(comb.compositions_up_to(2, -1)) == []
    # no label has no parts, as as_composition says
    for n in (0, -1):
        with pytest.raises(AlgebraError) as err:
            list(comb.compositions(n, 0))
        assert str(err.value) == "compositions must have length >= 1"


def test_as_composition_normalises_and_keeps_labels():
    eta = (1, 0, 2)
    assert comb.as_composition([1, 0, 2]) == eta
    assert comb.as_composition(("1", "0", "2")) == eta
    assert comb.as_composition((1.0, 0, Fraction(2))) == eta
    # bools are ints to Python, but a label holds plain ints
    got = comb.as_composition((True, False))
    assert got == (1, 0) and {type(x) for x in got} == {int}


@pytest.mark.parametrize("parts, error, message", [
    ((), AlgebraError, "compositions must have length >= 1"),
    ([], AlgebraError, "compositions must have length >= 1"),
    ((1, -2), AlgebraError, "composition parts must be nonnegative: (1, -2)"),
    (["1", "-2"], AlgebraError,
     "composition parts must be nonnegative: (1, -2)"),
    (("1", "x"), ValueError, "invalid literal for int() with base 10: 'x'"),
    # Python words this one differently from version to version
    ((1, None), TypeError, None),
    # int() would round these toward zero, to another label
    ((1.5, 0), AlgebraError, "composition parts must be integers: 1.5"),
    ([0.9, 2], AlgebraError, "composition parts must be integers: 0.9"),
    ((Fraction(3, 2),), AlgebraError,
     "composition parts must be integers: Fraction(3, 2)"),
])
def test_as_composition_errors(parts, error, message):
    with pytest.raises(error) as err:
        comb.as_composition(parts)
    assert type(err.value) is error
    assert message is None or str(err.value) == message


# int() would round 1.5 down to 1 and answer for that input instead; the
# error names what the number was read as
@pytest.mark.parametrize("call, noun", [
    (lambda: emac.symmetrize_P((1.5, 0)), "partition parts"),
    (lambda: emac.psi_coefficient((1.5,), (2.5,), 1), "partition parts"),
    (lambda: comb.c_I_apply((0, 0), (1.5,)), "index set entries"),
    (lambda: c_I_operator_word((0, 0), (1.5,)), "index set entries"),
], ids=["symmetrize_P", "psi_coefficient", "c_I_apply", "c_I_operator_word"])
def test_non_integral_parts_are_refused(call, noun):
    with pytest.raises(AlgebraError, match=r"must be integers: 1\.5$") as err:
        call()
    assert str(err.value) == f"{noun} must be integers: 1.5"
