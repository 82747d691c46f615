"""Exact coefficient arithmetic.

Scalars live in the field Q(q,t) of rational functions in the two parameters,
kept in canonical reduced form: numerator and denominator are integer
polynomials with no common factor and no common content, and the denominator
has positive leading coefficient under the graded-lexicographic term order
with q before t.  The heavy lifting (multivariate gcd, cancellation) is
delegated to sympy's low-level ``polys`` layer; everything downstream only
sees opaque scalar values.

A "specialized" mode replaces the symbolic field by exact ``Fraction``
arithmetic after substituting rational values for (q,t).  Both modes expose
the same operations through :class:`ScalarContext`, whose ``inverted()``
computes at the reciprocal parameters (1/q, 1/t) in either mode.

Every field operation normalises, and symbolically that is a multivariate
gcd.  Code that combines many scalars therefore works one level down, in
the ring: ``ScalarContext.parts`` splits a scalar into a numerator and a
denominator (integer polynomials in q,t symbolically, ints at a rational
point), ring sums and products of parts need no normalisation,
``ScalarContext.cancel_common`` divides out what a denominator shares with
its numerators without a gcd of polynomials, and ``ScalarContext.quotient``
normalises the result once.

Polynomials in the main variables z1..zn are sparse dictionaries from
exponent vectors to scalars (:class:`ZPolynomial`), optionally Laurent.
The same holds for them: :func:`ring_form` takes a polynomial to one
common denominator, operators and sums act on the ring numerators, and
:func:`field_view` normalises each coefficient once.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from sympy.polys.domains import ZZ
from sympy.polys.fields import field as _sym_field
from sympy.polys.orderings import grlex

_FIELD, _Q, _T = _sym_field("q,t", ZZ, grlex)
_RING = _FIELD.to_ring()


class AlgebraError(ValueError):
    """Invalid algebraic operation (zero denominator, arity mismatch, ...)."""


class SpecializationError(AlgebraError):
    """A denominator vanishes at the chosen (q,t) point."""


# ---------------------------------------------------------------------------
# bivariate integer polynomials (numerators / denominators)
# ---------------------------------------------------------------------------

def _ring_poly_text(p) -> str:
    """Canonical text of an integer polynomial, grlex-descending terms."""
    if not p:
        return "0"
    chunks = []
    for (eq, et), c in p.terms():
        c = int(c)
        mono = "*".join(
            s for s in (
                "" if eq == 0 else ("q" if eq == 1 else f"q^{eq}"),
                "" if et == 0 else ("t" if et == 1 else f"t^{et}"),
            ) if s
        )
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if not chunks:
            chunks.append(("-" if c < 0 else "") + body)
        else:
            chunks.append((" - " if c < 0 else " + ") + body)
    return "".join(chunks)


def _monomial_text(a: int, b: int) -> str:
    """q^a*t^b, (a, b) != (0, 0), in the canonical text style."""
    return "*".join(v if e == 1 else f"{v}^{e}"
                    for v, e in (("q", a), ("t", b)) if e)


def subst_t_power(x, k: int):
    """Substitute t = q**k in a generic scalar; raises if the denominator dies."""
    def sub(poly):
        acc: dict[tuple[int, int], int] = {}
        for (eq, et), c in poly.terms():
            key = (eq + k * et, 0)
            acc[key] = acc.get(key, 0) + int(c)
        return _RING.from_dict({e: c for e, c in acc.items() if c})

    num = sub(x.numer)
    den = sub(x.denom)
    if not den:
        raise SpecializationError(
            f"denominator {_ring_poly_text(x.denom)} vanishes under t = q^{k}")
    return _FIELD.new(num, den)


def scalar_eval(x, qval: Fraction, tval: Fraction) -> Fraction:
    """Evaluate a generic scalar at an exact rational point."""
    def ev(poly):
        return sum(
            (Fraction(int(c)) * qval ** e[0] * tval ** e[1] for e, c in poly.terms()),
            Fraction(0),
        )

    den = ev(x.denom)
    if den == 0:
        raise SpecializationError(
            f"denominator {_ring_poly_text(x.denom)} vanishes at q={qval}, t={tval}")
    return ev(x.numer) / den


def memo(normalize):
    """Decorator memoising a function on its normalised arguments.

    ``normalize`` maps the arguments of a call to the tuple of positional
    arguments the function then runs with; that tuple is also the key, so
    one value spelt two ways (a list or a tuple label) shares one entry.
    The wrapper is a plain function made with ``functools.wraps``, so tools
    that look functions up by name and signature still find it.
    """
    def decorate(fn):
        table = {}

        @functools.wraps(fn)
        def cached(*args, **kwargs):
            key = normalize(*args, **kwargs)
            try:
                return table[key]
            except KeyError:
                return table.setdefault(key, fn(*key))

        return cached

    return decorate


@memo(lambda q, t, a, b: (q, t, a, b))
def _monomial(q, t, a: int, b: int):
    return q ** a * t ** b


def _exponents(x) -> tuple[int, int]:
    """(i, j) with x == q^i t^j, for a Laurent monomial x of Q(q,t)."""
    (i, j), = x.numer
    (k, m), = x.denom
    return i - k, j - m


def _exact_quotients(nums: dict, factor):
    """{k: N / factor} for the ring elements N of nums, or None unless
    factor divides every one; the smallest numerators are tried first."""
    quotients = {}
    for k in sorted(nums, key=lambda k: len(nums[k])):
        quo, rem = nums[k].div(factor)
        if rem:
            return None
        quotients[k] = quo
    return quotients


# ---------------------------------------------------------------------------
# scalar contexts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarContext:
    """The point (q, t) that coefficients are computed at.

    ``qval`` and ``tval`` are the generators q, t of Q(q,t) (symbolic
    arithmetic), their reciprocals (symbolic arithmetic at reciprocal
    parameters), or two nonzero ``Fraction``s (exact rational arithmetic).
    ``reciprocal`` marks a context that :meth:`inverted` made from the
    point the caller gave; it takes no part in equality.
    """

    qval: object
    tval: object
    reciprocal: bool = field(default=False, compare=False)

    @property
    def generic(self) -> bool:
        return not isinstance(self.qval, Fraction)

    @property
    def zero(self):
        return _FIELD.zero if self.generic else Fraction(0)

    @property
    def one(self):
        return _FIELD.one if self.generic else Fraction(1)

    @property
    def q(self):
        return self.qval

    @property
    def t(self):
        return self.tval

    def monomial(self, a: int, b: int):
        """The scalar q^a * t^b (a, b may be negative)."""
        return _monomial(self.qval, self.tval, a, b)

    def one_minus(self, a: int, b: int):
        """The factor 1 - q^a t^b; raises SpecializationError naming it
        where it vanishes, so that no division by it fails unnamed."""
        x = self.one - self.monomial(a, b)
        if not x:
            # at reciprocal parameters q^a t^b is q^-a t^-b at the given point
            point, sign = (self.inverted(), -1) if self.reciprocal else (self, 1)
            raise SpecializationError(
                f"factor 1 - {_monomial_text(sign * a, sign * b)} "
                f"vanishes at {point.params_label()}")
        return x

    def from_int(self, k: int):
        return self.one * k

    def coerce(self, x):
        """Promote a bare int (e.g. a default 0) to a scalar of this context."""
        if isinstance(x, int):
            return self.from_int(x)
        return x

    def inverted(self) -> "ScalarContext":
        """The context at the reciprocal point (1/q, 1/t); an involution."""
        return ScalarContext(1 / self.qval, 1 / self.tval, not self.reciprocal)

    def parts(self, x) -> tuple[object, object]:
        """(N, D) with x == N / D: integer polynomials in q,t symbolically,
        ints at a rational point.  Sums and products of parts are exact
        without normalising; :meth:`quotient` turns them back into a
        scalar."""
        if self.generic:
            return x.numer, x.denom
        return x.numerator, x.denominator

    def quotient(self, num, den):
        """The scalar num / den of ring elements as :meth:`parts` returns
        them, normalised once."""
        if self.generic:
            return _FIELD.new(num, den)
        return Fraction(num, den)

    def product(self, factors, inverse=()):
        """The scalar prod(factors) / prod(inverse), multiplied out in parts
        and normalised once.  Entries of ``inverse`` are divisors, built
        where they can vanish with :meth:`one_minus`, which names them."""
        num, den = self.parts(self.one)
        for x in factors:
            n, d = self.parts(x)
            num, den = num * n, den * d
        for x in inverse:
            n, d = self.parts(x)
            num, den = num * d, den * n
        if not den:
            raise ZeroDivisionError("division by zero in a product")
        return self.quotient(num, den)

    def cancel_common(self, den, nums: dict, factors=()) -> tuple:
        """(den, nums, left): den and every numerator divided by what they
        share, so that the quotients N / den are unchanged.

        At a rational point that is the integer gcd, so den becomes the
        least common denominator and ``left`` is empty.  Symbolically no
        polynomial gcd is taken: the monomial q^a t^b common to den and the
        numerators is divided out, and then each of ``factors``, divisors
        of den, by exact trial division where it divides every numerator;
        ``left`` holds the factors that did not.
        """
        if not self.generic:
            g = math.gcd(den, *nums.values())
            if g != 1:
                den, nums = den // g, {k: num // g for k, num in nums.items()}
            return den, nums, ()
        keys = (*den, *(e for num in nums.values() for e in num))
        a, b = min(i for i, _ in keys), min(j for _, j in keys)
        if a or b:
            def lower(p):
                return p.new([((i - a, j - b), c) for (i, j), c in p.items()])

            den, nums = lower(den), {k: lower(num) for k, num in nums.items()}
        left = []
        for factor in factors:
            quotients = _exact_quotients(nums, factor)
            if quotients is None:
                left.append(factor)
            else:
                den, nums = den.exquo(factor), quotients
        return den, nums, tuple(left)

    def common_denominator(self, coeffs: dict) -> tuple[object, dict]:
        """(D, {key: N}) with coeffs[key] == N / D for every key.

        D is the lcm of the denominators: an integer polynomial in q,t
        symbolically, a positive int at a rational point.  The numerators
        are of the same kind as D, so sums of them need no normalisation.
        """
        if self.generic:
            den = _RING.one
            for c in coeffs.values():
                if c.denom != den:
                    den = den.lcm(c.denom)
            return den, {k: c.numer * den.exquo(c.denom)
                         for k, c in coeffs.items()}
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        return den, {k: c.numerator * (den // c.denominator)
                     for k, c in coeffs.items()}

    def lcm_cofactors(self, a, b) -> tuple[object, object, object]:
        """(L, L / a, L / b) for L the lcm of the ring elements a and b, as
        :meth:`parts` returns them: one gcd."""
        if self.generic:
            _, ca, cb = a.cofactors(b)
            return ca * b, cb, ca
        g = math.gcd(a, b)
        return a // g * b, b // g, a // g

    def fsum(self, values):
        """The sum of the scalars in values.  From three values on it is
        reduced once over their common denominator rather than once per
        addition; two values take one reduction either way."""
        values = list(values)
        if len(values) < 3:
            return sum(values, self.zero)
        den, nums = self.common_denominator(dict(enumerate(values)))
        return self.quotient(sum(nums.values()), den)

    def monomial_sum(self, den, terms):
        """The scalar sum of N q^a t^b over (N, a, b) in terms, over den.

        ``den`` and every N are as :meth:`common_denominator` returns them;
        a and b may be negative.  The sum is accumulated exactly without
        normalising and reduced once at the end.
        """
        acc: dict = {}
        if self.generic:
            # q^a t^b of this context is q^(a qi + b ti) t^(a qj + b tj) in Q(q,t)
            (qi, qj), (ti, tj) = _exponents(self.qval), _exponents(self.tval)
            for num, a, b in terms:
                si, sj = a * qi + b * ti, a * qj + b * tj
                for (i, j), c in num.items():
                    key = (i + si, j + sj)
                    acc[key] = acc.get(key, 0) + c
            acc = {k: c for k, c in acc.items() if c}
            if not acc:
                return _FIELD.zero
            # shift both exponents to >= 0 and put the shift into den
            sq = -min(0, min(i for i, _ in acc))
            st = -min(0, min(j for _, j in acc))
            num = _RING.from_dict({(i + sq, j + st): c
                                   for (i, j), c in acc.items()})
            return _FIELD.new(num, den.mul_monom((sq, st)))
        for num, a, b in terms:
            key = (a, b)
            acc[key] = acc.get(key, 0) + num
        acc = {k: c for k, c in acc.items() if c}
        if not acc:
            return Fraction(0)
        # q^a t^b = qn^a qd^-a tn^b td^-b: with qn^alo qd^-ahi tn^blo td^-bhi
        # factored out every term is an integer, so one Fraction reduces it
        qn, qd = self.qval.numerator, self.qval.denominator
        tn, td = self.tval.numerator, self.tval.denominator
        alo, ahi = min(a for a, _ in acc), max(a for a, _ in acc)
        blo, bhi = min(b for _, b in acc), max(b for _, b in acc)
        total = sum(c * qn ** (a - alo) * qd ** (ahi - a)
                    * tn ** (b - blo) * td ** (bhi - b)
                    for (a, b), c in acc.items())
        for base, exp in ((qn, alo), (qd, -ahi), (tn, blo), (td, -bhi)):
            if exp >= 0:
                total *= base ** exp
            else:
                den *= base ** -exp
        return Fraction(total, den)

    def num_den_text(self, x) -> tuple[str, str]:
        x = self.coerce(x)
        if self.generic:
            return _ring_poly_text(x.numer), _ring_poly_text(x.denom)
        return str(x.numerator), str(x.denominator)

    def text(self, x) -> str:
        """Compact canonical rendering, also used inside polynomial strings."""
        num, den = self.num_den_text(x)
        if den == "1":
            return num
        np = f"({num})" if (" + " in num or " - " in num) else num
        dp = f"({den})" if (" + " in den or " - " in den) else den
        return f"{np}/{dp}"

    def params_label(self) -> str:
        if self == GENERIC:
            return "symbolic"
        return f"q={self.text(self.qval)},t={self.text(self.tval)}"


GENERIC = ScalarContext(_Q, _T)


def specialized(qval, tval) -> ScalarContext:
    qv, tv = Fraction(qval), Fraction(tval)
    if qv == 0 or tv == 0:
        raise AlgebraError("specialized q and t must be nonzero")
    return ScalarContext(qv, tv)


# ---------------------------------------------------------------------------
# sparse polynomials in z1..zn over the scalar field
# ---------------------------------------------------------------------------

class ZPolynomial:
    """Sparse n-variable polynomial with scalar coefficients.

    Terms map exponent tuples to nonzero scalars.  In Laurent mode exponents
    may be negative; otherwise construction rejects them, which catches
    accidental variable inversions early.
    """

    __slots__ = ("nvars", "terms", "laurent")

    def __init__(self, nvars: int, terms=None, laurent: bool = False):
        if nvars < 1:
            raise AlgebraError("nvars must be positive")
        clean: dict[tuple[int, ...], object] = {}
        for exps, c in (terms or {}).items():
            if len(exps) != nvars:
                raise AlgebraError(
                    f"exponent vector {exps} has length {len(exps)}, expected {nvars}")
            if not laurent and any(e < 0 for e in exps):
                raise AlgebraError(
                    f"negative exponent in non-Laurent polynomial: {exps}")
            if c:
                clean[tuple(exps)] = c
        self.nvars = nvars
        self.terms = clean
        self.laurent = laurent

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, laurent: bool = False) -> "ZPolynomial":
        return cls(nvars, {}, laurent)

    @classmethod
    def constant(cls, nvars: int, c, laurent: bool = False) -> "ZPolynomial":
        return cls(nvars, {(0,) * nvars: c}, laurent)

    @classmethod
    def monomial(cls, nvars: int, exps, c, laurent: bool = False) -> "ZPolynomial":
        return cls(nvars, {tuple(exps): c}, laurent)

    @classmethod
    def variable(cls, nvars: int, i: int, ctx: ScalarContext = GENERIC) -> "ZPolynomial":
        """z_i, 1-based."""
        exps = tuple(1 if j == i - 1 else 0 for j in range(nvars))
        return cls(nvars, {exps: ctx.one})

    # -- basic structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"ZPolynomial({self.nvars}, {len(self.terms)} terms)"

    def _check_compatible(self, other: "ZPolynomial"):
        if self.nvars != other.nvars:
            raise AlgebraError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def total_degree(self) -> int:
        if self.is_zero:
            raise AlgebraError("zero polynomial has no degree")
        return max(sum(e) for e in self.terms)

    def coefficient(self, exps):
        """Scalar coefficient of z^exps; a bare 0 when absent."""
        return self.terms.get(tuple(exps), 0)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "ZPolynomial") -> "ZPolynomial":
        self._check_compatible(other)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            s = acc.get(e, 0) + c
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
        return ZPolynomial(self.nvars, acc, self.laurent or other.laurent)

    def __sub__(self, other: "ZPolynomial") -> "ZPolynomial":
        return self + (-other)

    def __neg__(self) -> "ZPolynomial":
        return ZPolynomial(self.nvars, {e: -c for e, c in self.terms.items()},
                           self.laurent)

    def __mul__(self, other: "ZPolynomial") -> "ZPolynomial":
        self._check_compatible(other)
        acc: dict[tuple[int, ...], object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = acc.get(e, 0) + c1 * c2
                if s:
                    acc[e] = s
                else:
                    acc.pop(e, None)
        return ZPolynomial(self.nvars, acc, self.laurent or other.laurent)

    def scale(self, c) -> "ZPolynomial":
        if not c:
            return ZPolynomial.zero(self.nvars, self.laurent)
        return ZPolynomial(self.nvars, {e: co * c for e, co in self.terms.items()},
                           self.laurent)

    # -- substitutions ------------------------------------------------------

    def swap_vars(self, i: int) -> "ZPolynomial":
        """Exchange z_i and z_{i+1} (1-based)."""
        acc = {}
        for e, c in self.terms.items():
            le = list(e)
            le[i - 1], le[i] = le[i], le[i - 1]
            acc[tuple(le)] = c
        return ZPolynomial(self.nvars, acc, self.laurent)

    def invert_vars(self) -> "ZPolynomial":
        """z^mu -> z^(-mu); always Laurent."""
        return ZPolynomial(self.nvars,
                           {tuple(-x for x in e): c for e, c in self.terms.items()},
                           laurent=True)

    def at_point(self, point, ctx: ScalarContext = GENERIC):
        """Exact evaluation at a tuple of scalars, normalised once.

        The coefficients are taken over their common denominator and each
        entry x_i of the point as parts n_i / d_i.  With lo_i and hi_i the
        least and largest exponent of z_i, a term's x_i^k is
        n_i^lo_i d_i^-hi_i times the ring element n_i^(k-lo_i) d_i^(hi_i-k),
        so the terms are summed in the ring (Laurent exponents included)
        and the common factors go into the one final quotient.  A zero
        entry raised to a negative power raises ZeroDivisionError.
        """
        if len(point) != self.nvars:
            raise AlgebraError(
                f"point length {len(point)} does not match nvars {self.nvars}")
        if not self.terms:
            return ctx.zero
        den, nums = ctx.common_denominator(self.terms)
        one, _ = ctx.parts(ctx.one)
        num = one
        tables = []
        for i, x in enumerate(point):
            n, d = ctx.parts(ctx.coerce(x))
            lo = min(e[i] for e in nums)
            hi = max(e[i] for e in nums)
            npow, dpow = [one], [one]
            for _ in range(hi - lo):
                npow.append(npow[-1] * n)
                dpow.append(dpow[-1] * d)
            tables.append((lo, npow, hi, dpow))
            if lo > 0:
                num *= n ** lo
            elif lo < 0:
                den *= n ** -lo
            if hi > 0:
                den *= d ** hi
            elif hi < 0:
                num *= d ** -hi
        if not den:
            raise ZeroDivisionError("a zero entry raised to a negative power")
        total = 0
        for e, v in nums.items():
            for k, (lo, npow, hi, dpow) in zip(e, tables):
                if k != lo:
                    v *= npow[k - lo]
                if k != hi:
                    v *= dpow[hi - k]
            total += v
        return ctx.quotient(total * num, den)

    def map_coeffs(self, fn) -> "ZPolynomial":
        return ZPolynomial(self.nvars,
                           {e: fn(c) for e, c in self.terms.items()}, self.laurent)

    # -- structural extractions ---------------------------------------------

    def top_homogeneous(self) -> "ZPolynomial":
        """Sum of terms of maximal total degree; input must be nonzero."""
        if self.is_zero:
            raise AlgebraError("zero polynomial has no top homogeneous part")
        d = self.total_degree()
        return ZPolynomial(self.nvars,
                           {e: c for e, c in self.terms.items() if sum(e) == d},
                           self.laurent)

    def constant_term(self):
        """Coefficient of the all-zero exponent vector (bare 0 if absent)."""
        return self.terms.get((0,) * self.nvars, 0)

    # -- printing ------------------------------------------------------------

    def sorted_terms(self):
        """Terms in canonical order: total degree then exponents, descending."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]),
                      reverse=True)

    def text(self, ctx: ScalarContext = GENERIC) -> str:
        if self.is_zero:
            return "0"
        chunks = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                (f"z{i + 1}" if k == 1 else f"z{i + 1}^{k}")
                for i, k in enumerate(e) if k
            )
            ct = ctx.text(c)
            if not mono:
                body = ct
            elif ct == "1":
                body = mono
            elif ct == "-1":
                body = "-" + mono
            else:
                cp = f"({ct})" if (" + " in ct or " - " in ct) else ct
                body = f"{cp}*{mono}"
            if not chunks:
                chunks.append(body)
            elif body.startswith("-"):
                chunks.append(" - " + body[1:])
            else:
                chunks.append(" + " + body)
        return "".join(chunks)


def elementary_symmetric(n: int, r: int, ctx: ScalarContext = GENERIC) -> ZPolynomial:
    """e_r(z1..zn): sum of all squarefree degree-r monomials."""
    if not 0 <= r <= n:
        raise AlgebraError(f"elementary symmetric index r={r} out of range for n={n}")
    terms = {}
    for subset in itertools.combinations(range(n), r):
        exps = tuple(1 if i in subset else 0 for i in range(n))
        terms[exps] = ctx.one
    return ZPolynomial(n, terms)


def elementary_symmetric_at(values, r: int, ctx: ScalarContext = GENERIC):
    """e_r evaluated at a tuple of scalars, without building the polynomial."""
    n = len(values)
    if not 0 <= r <= n:
        raise AlgebraError(f"elementary symmetric index r={r} out of range for n={n}")
    total = ctx.zero
    for subset in itertools.combinations(values, r):
        v = ctx.one
        for x in subset:
            v = v * x
        total = total + v
    return total


def divided_difference(p: ZPolynomial, i: int) -> ZPolynomial:
    """(s_i p - p) / (z_i - z_{i+1}), computed exactly term by term.

    For a monomial with exponents (a, b) at positions (i, i+1) the quotient
    is a geometric sum between the swapped exponents, so no remainder can
    arise.  Works for Laurent exponents as well.
    """
    if not 1 <= i <= p.nvars - 1:
        raise AlgebraError(f"divided difference index {i} out of range")
    acc: dict[tuple[int, ...], object] = {}

    def bump(exps, c):
        s = acc.get(exps, 0) + c
        if s:
            acc[exps] = s
        else:
            acc.pop(exps, None)

    for e, c in p.terms.items():
        a, b = e[i - 1], e[i]
        if a == b:
            continue
        le = list(e)
        if a > b:
            for k in range(a - b):
                le[i - 1], le[i] = b + k, a - 1 - k
                bump(tuple(le), -c)
        else:
            for k in range(b - a):
                le[i - 1], le[i] = a + k, b - 1 - k
                bump(tuple(le), c)
    return ZPolynomial(p.nvars, acc, p.laurent)


def demazure_lustig(i: int, p: ZPolynomial, c, a, b) -> ZPolynomial:
    """c p + (a z_i + b z_{i+1}) * (s_i p - p)/(z_i - z_{i+1}).

    The Demazure-Lustig operator T_i takes (c, a, b) = (t, t, -1) and the
    Hecke operator H_i of the interpolation polynomials takes (t, 1, -t).
    The scalars may also be ring elements, as ``ScalarContext.parts``
    returns them, acting on a polynomial with ring coefficients.
    """
    if not 1 <= i <= p.nvars - 1:
        raise AlgebraError(f"operator index {i} out of range for n={p.nvars}")
    mult = ZPolynomial(p.nvars, {
        tuple(1 if j == i - 1 else 0 for j in range(p.nvars)): a,
        tuple(1 if j == i else 0 for j in range(p.nvars)): b,
    }, p.laurent)
    return p.scale(c) + mult * divided_difference(p, i)


# ---------------------------------------------------------------------------
# polynomials over one common denominator
# ---------------------------------------------------------------------------
#
# A form (D, P) stands for the polynomial P / D: D and the coefficients of P
# are ring elements as ScalarContext.parts returns them.  Operators act on P
# with the parts of their scalars (see demazure_lustig) and multiply D by
# what they leave over, two forms are compared by cross-multiplying, and
# field_view normalises each coefficient once at the end.

def ring_form(p: ZPolynomial,
              ctx: ScalarContext = GENERIC) -> tuple[object, ZPolynomial]:
    """(D, P) with p == P / D, D the common denominator of p's coefficients."""
    den, nums = ctx.common_denominator(p.terms)
    return den, ZPolynomial(p.nvars, nums, p.laurent)


def field_view(den, p: ZPolynomial,
               ctx: ScalarContext = GENERIC) -> ZPolynomial:
    """The polynomial P / D of the form (D, P), each coefficient normalised
    once."""
    return p.map_coeffs(lambda num: ctx.quotient(num, den))


def form_sum(forms,
             ctx: ScalarContext = GENERIC) -> tuple[object, ZPolynomial]:
    """The sum of the forms (D_k, P_k), itself a form over the running lcm
    of the D_k: one gcd per form, none per coefficient."""
    forms = iter(forms)
    den, total = next(forms)
    for d, p in forms:
        den, up, across = ctx.lcm_cofactors(den, d)
        total = total.scale(up) + p.scale(across)
    return den, total
