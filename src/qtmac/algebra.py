"""Sparse polynomials in the main variables z1..zn over the scalar field.

A :class:`ZPolynomial` is a sparse dictionary from exponent vectors to
scalars of a :class:`~qtmac.scalar.ScalarContext`, optionally Laurent.
Every field operation normalises, so code that combines many coefficients
works in the ring: :func:`ring_form` takes a polynomial to one common
denominator, operators and sums act on the ring numerators, and
:func:`field_view` normalises each coefficient once.
"""

from __future__ import annotations

import itertools
import operator
import struct
import sys

from .scalar import GENERIC, AlgebraError, ScalarContext


# dot products of many exponent vectors at once: 64 bits per term
_LANE = 64
_LANE_LIMIT = 1 << _LANE - 1


class ExponentLanes:
    """The exponent vectors of a list of terms, one int per variable.

    The int of variable i holds the i-th exponent of term k in lane k, the
    bits 64k to 64k + 63.  For weights w_i, the int sum_i w_i column_i then
    holds in lane k the dot product sum_i e_i w_i of the exponent vector e
    of term k: n big-int multiply-adds give it for all terms.  At the point
    z_i = q^a_i t^b_i, z^e is q^(sum_i e_i a_i) t^(sum_i e_i b_i), so the
    weights a and then b give the exponents of q and of t of every term.
    Lanes convert to and from ints through bytes.  A signed lane x is held
    as x + 2^63, which lies in [0, 2^64), so no lane borrows from the next;
    its bits are those of x in two's complement with the top bit flipped,
    and one xor with the top bits flips them back.
    """

    __slots__ = ("count", "columns", "reach", "_top")

    def __init__(self, nvars: int, exps):
        exps = list(exps)
        columns = list(zip(*exps)) or [()] * nvars
        # the largest |e_i| over the terms
        self.reach = tuple(max(map(abs, col), default=0) for col in columns)
        if max(self.reach) >= _LANE_LIMIT:
            raise AlgebraError(f"an exponent of {max(self.reach)} leaves "
                               f"its {_LANE}-bit lane")
        self.count = len(exps)
        top = self._top = int.from_bytes(
            _LANE_LIMIT.to_bytes(_LANE // 8, sys.byteorder) * self.count,
            sys.byteorder)
        self.columns = tuple(
            (int.from_bytes(struct.pack(f"={len(col)}q", *col), sys.byteorder)
             ^ top) - top for col in columns)

    def sums(self, weights) -> memoryview:
        """The dot product sum_i e_i w_i of every term, in the order of the
        terms.

        Raises AlgebraError where one could reach 2^63 in absolute value,
        which would leave its lane."""
        reach = sum(map(operator.mul, map(abs, weights), self.reach))
        if reach >= _LANE_LIMIT:
            raise AlgebraError(
                f"exponent sums up to {reach} leave their {_LANE}-bit lanes")
        total = sum(map(operator.mul, weights, self.columns), self._top)
        return memoryview((total ^ self._top).to_bytes(
            _LANE // 8 * self.count, sys.byteorder)).cast("q")


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
        terms = terms or {}
        # one pass over all terms at C speed; the first bad term, in order,
        # is named as a per-term check would name it
        if terms and (set(map(len, terms)) != {nvars}
                      or not laurent and min(map(min, terms)) < 0):
            for exps in terms:
                if len(exps) != nvars:
                    raise AlgebraError(
                        f"exponent vector {exps} has length {len(exps)}, "
                        f"expected {nvars}")
                if not laurent and any(e < 0 for e in exps):
                    raise AlgebraError(
                        f"negative exponent in non-Laurent polynomial: {exps}")
        self.nvars = nvars
        self.terms = {tuple(exps): c for exps, c in terms.items() if c}
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

    # -- basic structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

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
    return ZPolynomial(p.nvars, ctx.quotients(den, p.terms), p.laurent)


def form_sum(forms,
             ctx: ScalarContext = GENERIC) -> tuple[object, ZPolynomial]:
    """The sum of the forms (D_k, P_k), itself a form over the running lcm
    of the D_k: one lcm per form, none per coefficient."""
    forms = iter(forms)
    den, total = next(forms)
    for d, p in forms:
        den, up, across = ctx.lcm_cofactors(den, d)
        total = total.scale(up) + p.scale(across)
    return den, total
