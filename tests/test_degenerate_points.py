"""The degenerate-point contract, checked on every small label.

At a point (q, t) where some q^a t^b = 1, each computation does one of three
things:

* it raises SpecializationError naming a factor 1 - q^a*t^b that vanishes
  at the point;
* it raises naming two labels whose spectral points coincide at the point;
* it returns its value over Q(q,t) specialised to the point with
  ``scalar_eval``, and never where that value has a pole.

The symmetric routes, ``symmetrize_P`` and ``psi_coefficient``, may also
name a value over Q(q,t) that vanishes at the point: P_lam(t^delta), or the
coefficient of z^kappa in the Hecke symmetrization of E_kappa.

The labels are every composition with n <= 3 and |eta| <= 3, and for the
binomials every nu of the same length with |eta| < |nu| <= |eta| + 2; for
``duality_transfer`` with r = 1 every eta with n = 2 and |eta| <= 2, or
n = 3 and |eta| <= 1, and every lam with |lam| = |eta| + 1; for the
symmetric routes every partition kappa with n <= 3 and |kappa| <= 3, and
every vertical strip lam/kappa.
"""

import functools
import itertools
import re
from fractions import Fraction

import pytest

from qtmac import comb, emac, istar, pieri
from qtmac.scalar import GENERIC, SpecializationError, scalar_eval, specialized
from qtmac.algebra import ZPolynomial

from test_emac import field_hecke_symmetrize

# each point has some q^a t^b = 1
POINTS = [(1, 1), (-1, -1), (2, Fraction(1, 2)), (1, 5), (Fraction(1, 4), 2),
          (-1, Fraction(1, 2)), (Fraction(1, 2), 4), (3, Fraction(1, 9)),
          (-1, 3), (2, -1), (1, -1), (-1, 1), (2, Fraction(1, 4)), (5, 5),
          (Fraction(1, 2), 8)]


def _cases():
    """(route, arguments before ctx) of every call the contract covers."""
    for n in (1, 2, 3):
        for eta in comb.compositions_up_to(n, 3):
            for r in range(1, n + 1):
                yield pieri.pieri_homogeneous, (eta, r)
            for route in (pieri.pieri_r1_closed, pieri.pieri_r1_product_form,
                          emac.norm_N, emac.generate_E, istar.generate_Estar):
                yield route, (eta,)
            for gap in (1, 2):
                for nu in comb.compositions(n, sum(eta) + gap):
                    yield istar.binomial_direct, (eta, nu)
                    yield istar.binomial_recursive, (eta, nu)
            if comb.is_partition(eta):
                yield emac.symmetrize_P, (eta, n)
                for strip in itertools.product((0, 1), repeat=n):
                    lam = tuple(map(sum, zip(eta, strip)))
                    if any(strip) and comb.is_partition(lam):
                        yield emac.psi_coefficient, (eta, lam, n)
    for n, size in ((2, 2), (3, 1)):
        for eta in comb.compositions_up_to(n, size):
            for lam in comb.compositions(n, sum(eta) + 1):
                yield pieri.duality_transfer, (eta, lam, 1)


CASES = list(_cases())


def _plain(value):
    """A table or polynomial as its dict of coefficients, a scalar as is."""
    return value.terms if isinstance(value, ZPolynomial) else value


@functools.lru_cache(maxsize=None)
def _symbolic(route, args):
    return _plain(route(*args, GENERIC))


def _specialised(value, point):
    """The symbolic value at the point, a dict with its zero entries
    dropped, as a computation at the point drops them; None where it has a
    pole."""
    try:
        if isinstance(value, dict):
            evaluated = {key: scalar_eval(c, *point)
                         for key, c in value.items()}
            return {key: c for key, c in evaluated.items() if c}
        return scalar_eval(value, *point)
    except SpecializationError:
        return None


FACTOR = re.compile(r"factor 1 - (\S+) vanishes at (\S+)")
COINCIDENT = re.compile(r"(\S+) and (\S+) share their spectral point at (\S+)")


def _names_a_degeneracy(message, ctx):
    """Whether message names a factor 1 - q^a*t^b that vanishes at ctx's
    point, or two labels whose spectral points coincide there."""
    if match := FACTOR.fullmatch(message):
        exps = {"q": 0, "t": 0}
        for power in match[1].split("*"):
            var, _, exp = power.partition("^")
            exps[var] = int(exp or 1)
        return (match[2] == ctx.params_label() and set(exps) == {"q", "t"}
                and ctx.monomial(exps["q"], exps["t"]) == 1)
    if match := COINCIDENT.fullmatch(message):
        eta, nu = (tuple(map(int, label.split(",")))
                   for label in match.group(1, 2))
        return (match[3] == ctx.params_label() and eta != nu
                and comb.spectral_vector(eta, ctx)
                == comb.spectral_vector(nu, ctx))
    return False


PRINCIPAL = re.compile(r"factor P_(\S+)\(t\^delta\) vanishes at (\S+)")
HECKE = re.compile(r"factor (.+) vanishes at (\S+): it is the coefficient "
                   r"of z\^\((\S+)\) in the Hecke symmetrization of E_(\S+)")


def _label(text):
    return tuple(map(int, text.split(",")))


def _vanishes(value, point):
    try:
        return scalar_eval(value, *point) == 0
    except SpecializationError:
        return False


def _names_a_vanishing_value(message, ctx):
    """Whether message names P_lam(t^delta), or the coefficient of z^kappa
    in the Hecke symmetrization of E_kappa, and that value over Q(q,t)
    vanishes at ctx's point."""
    point = (ctx.q, ctx.t)
    if match := PRINCIPAL.fullmatch(message):
        lam = _label(match[1])
        n = len(lam)
        value = emac.symmetrize_P(lam, n).at_point(
            tuple(GENERIC.monomial(0, n - 1 - i) for i in range(n)))
        return match[2] == ctx.params_label() and _vanishes(value, point)
    if match := HECKE.fullmatch(message):
        kappa = _label(match[3])
        value = field_hecke_symmetrize(emac.generate_E(kappa),
                                       GENERIC).coefficient(kappa)
        return (match[2] == ctx.params_label() and match[4] == match[3]
                and match[1] == GENERIC.text(value) and _vanishes(value, point))
    return False


# the routes whose errors may also name a value that vanishes at the point
VALUE_ROUTES = (emac.symmetrize_P, emac.psi_coefficient)


@pytest.mark.parametrize("point", POINTS,
                         ids=lambda point: f"q={point[0]},t={point[1]}")
def test_degenerate_point_contract(point):
    ctx = specialized(*point)
    answered = 0
    for route, args in CASES:
        case = (route.__name__, args)
        expected = _specialised(_symbolic(route, args), point)
        try:
            value = _plain(route(*args, ctx))
        except SpecializationError as err:
            assert (_names_a_degeneracy(str(err), ctx)
                    or (route in VALUE_ROUTES
                        and _names_a_vanishing_value(str(err), ctx))), \
                (case, str(err))
            continue
        assert expected is not None, (case, "answered at a pole")
        assert value == expected, case
        answered += 1
    assert answered
