"""Exact coefficient arithmetic.

Scalars live in the field Q(q,t) of rational functions in the two parameters,
kept in canonical reduced form: numerator and denominator are integer
polynomials with no common factor and no common content, and the denominator
has positive leading coefficient under the graded-lexicographic term order
with q before t.

Every denominator the paper's objects meet is a monomial times hook-type
factors such as 1 - q^a t^b, so a :class:`Scalar` keeps its denominator
factored (:class:`Factored`): an integer content, a monomial q^i t^j and a
multiset of irreducible factors.  Products add the multisets, sums take
their lcm, and a fraction is reduced by exact division of the numerator by
each factor of the denominator, never by a polynomial gcd.  Most factors are
*line factors* g(q^a t^b) with g univariate and gcd(a, b) = 1; after a
unimodular change of variables, dividing by one is univariate synthetic
division along each line of the numerator's support.  A polynomial that
becomes a denominator is factored by trial division: by the cyclotomic
factors of the edge polynomials of its Newton polygon (every line factor
divides one of those), then by the factors sympy found before.  Only a
cofactor left over after that goes to sympy's ``factor_list``, which is
imported at the first such call; the calls are counted by reason in
:data:`FALLBACKS`.

A "specialized" mode replaces the symbolic field by exact ``Fraction``
arithmetic after substituting rational values for (q,t).  Both modes expose
the same operations through :class:`ScalarContext`, whose ``inverted()``
computes at the reciprocal parameters (1/q, 1/t) in either mode.

Every field operation normalises.  Code that combines many scalars
therefore works one level down, in the ring: ``ScalarContext.parts`` splits
a scalar into a numerator and a denominator (integer polynomials in q,t
symbolically, a denominator kept factored; ints at a rational point), ring
sums and products of parts need no normalisation,
``ScalarContext.cancel_common`` divides out what a denominator shares with
its numerators, and ``ScalarContext.quotient`` normalises the result once.

Polynomials in the main variables z1..zn are sparse dictionaries from
exponent vectors to scalars (:class:`ZPolynomial`), optionally Laurent.
The same holds for them: :func:`ring_form` takes a polynomial to one
common denominator, operators and sums act on the ring numerators, and
:func:`field_view` normalises each coefficient once.
"""

from __future__ import annotations

import cmath
import collections
import functools
import heapq
import itertools
import math
import operator
import struct
import sys
from fractions import Fraction


class AlgebraError(ValueError):
    """Invalid algebraic operation (zero denominator, arity mismatch, ...)."""


class SpecializationError(AlgebraError):
    """A denominator vanishes at the chosen (q,t) point."""


# ---------------------------------------------------------------------------
# bivariate integer polynomials (numerators / denominators)
# ---------------------------------------------------------------------------
#
# A monomial q^i t^j (i, j >= 0) is packed into the int i << _SHIFT | j, so
# that multiplying monomials is adding ints.

_SHIFT = 32
_MASK = (1 << _SHIFT) - 1
# added to a packed exponent of t that may go negative for a while
_OFFSET = 1 << (_SHIFT - 1)


def _pack(i: int, j: int) -> int:
    return i << _SHIFT | j


def _grlex_key(k: int) -> int:
    """An int that orders packed monomials as grlex with q before t does."""
    i = k >> _SHIFT
    return (i + (k & _MASK)) << _SHIFT | i


class Poly(dict):
    """An integer polynomial in q, t: {packed monomial: nonzero int}.

    Supports the ring operations with other polynomials, :class:`Factored`
    polynomials and ints; treat it as immutable.
    """

    __slots__ = ()

    def __add__(self, other):
        if type(other) is not Poly:
            other = _ring_operand(other)
            if other is NotImplemented:
                return NotImplemented
        if len(self) < len(other):
            self, other = other, self
        acc = Poly(self)
        for k, c in other.items():
            s = acc.get(k, 0) + c
            if s:
                acc[k] = s
            else:
                del acc[k]
        return acc

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Poly:
            other = _ring_operand(other)
            if other is NotImplemented:
                return NotImplemented
        acc = Poly(self)
        for k, c in other.items():
            s = acc.get(k, 0) - c
            if s:
                acc[k] = s
            else:
                del acc[k]
        return acc

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Poly({k: -c for k, c in self.items()})

    def __mul__(self, other):
        kind = type(other)
        if kind is Poly:
            return _poly_mul(self, other)
        if kind is Factored:
            return other * self
        if kind is int:
            if not other:
                return Poly()
            return Poly({k: c * other for k, c in self.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int):
        result, base = _ONE_POLY, self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, dict):
            return dict.__eq__(self, other)
        if isinstance(other, int):
            return dict.__eq__(self, _const(other))
        if isinstance(other, Factored):
            return dict.__eq__(self, other.expand())
        return NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash(frozenset(self.items()))

    def terms(self) -> list:
        """[((i, j), c)] in grlex-descending order."""
        return [((k >> _SHIFT, k & _MASK), self[k])
                for k in sorted(self, key=_grlex_key, reverse=True)]


def _const(c: int) -> Poly:
    return Poly({0: c}) if c else Poly()


_ONE_POLY = Poly({0: 1})


def _poly_mul(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return Poly()
    if len(b) == 1:
        (kb, cb), = b.items()
        if cb == 1:
            return Poly({k + kb: c for k, c in a.items()})
        return Poly({k + kb: c * cb for k, c in a.items()})
    (kb, cb), *others = b.items()
    acc = {ka + kb: ca * cb for ka, ca in a.items()}
    get = acc.get
    for kb, cb in others:
        for ka, ca in a.items():
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb
    return Poly({k: c for k, c in acc.items() if c})


def _ring_operand(x):
    """x as a Poly for a ring operation, or NotImplemented."""
    if isinstance(x, Factored):
        return x.expand()
    if isinstance(x, int):
        return _const(x)
    return NotImplemented


def _expand(x) -> Poly:
    """The ring element x (Poly, Factored or int) as a Poly."""
    if type(x) is Poly:
        return x
    if type(x) is Factored:
        return x.expand()
    return _const(x)


# ---------------------------------------------------------------------------
# irreducible factors and exact division
# ---------------------------------------------------------------------------

def _unimodular(a: int, b: int) -> tuple[int, int]:
    """(c, d) with a d - b c = 1, for coprime a, b."""
    x0, x1, y0, y1, r0, r1 = 1, 0, 0, 1, a, b
    while r1:
        k = r0 // r1
        r0, r1 = r1, r0 - k * r1
        x0, x1 = x1, x0 - k * x1
        y0, y1 = y1, y0 - k * y1
    if r0 < 0:
        x0, y0 = -x0, -y0
    return -y0, x0


def _direction(di: int, dj: int) -> tuple[int, int]:
    """The primitive vector along (di, dj), pointing to a > 0 or to
    (0, b > 0)."""
    g = math.gcd(di, dj)
    a, b = di // g, dj // g
    return (a, b) if a > 0 or (a == 0 and b > 0) else (-a, -b)


class Factor:
    """An irreducible, primitive integer polynomial with no monomial factor
    and positive leading coefficient, interned: one object per polynomial,
    so factors compare and hash by identity.

    ``line`` is (a, b, c, d, x0, y0, g) for a line factor, whose terms all
    lie on one line q^i t^j = q^(a x + c y) t^(b x + d y), y = y0: it is
    q^(a x0 + c y0) t^(b x0 + d y0) g(q^a t^b) with g[k] the coefficient
    at x = x0 + k.  It is None for any other factor.
    """

    __slots__ = ("poly", "line", "_powers")

    def __init__(self, poly: Poly):
        self.poly = poly
        self._powers = {1: poly}
        self.line = None
        if _on_one_line(poly):
            (k0, k1, *_) = poly
            i0, j0 = k0 >> _SHIFT, k0 & _MASK
            a, b = _direction((k1 >> _SHIFT) - i0, (k1 & _MASK) - j0)
            c, d = _unimodular(a, b)
            xs = {d * (k >> _SHIFT) - c * (k & _MASK): v for k, v in poly.items()}
            x0 = min(xs)
            coeffs = [0] * (max(xs) - x0 + 1)
            for x, v in xs.items():
                coeffs[x - x0] = v
            self.line = (a, b, c, d, x0, a * j0 - b * i0, coeffs)

    def power(self, m: int) -> Poly:
        p = self._powers.get(m)
        if p is None:
            p = self._powers[m] = self.poly ** m
        return p

    def __repr__(self):
        return f"Factor({_ring_poly_text(self.poly)})"


def _on_one_line(p: Poly) -> bool:
    """Whether the terms of p, two or more, lie on one line."""
    (k0, k1, *others) = p
    i0, j0 = k0 >> _SHIFT, k0 & _MASK
    di, dj = (k1 >> _SHIFT) - i0, (k1 & _MASK) - j0
    return all(((k >> _SHIFT) - i0) * dj == ((k & _MASK) - j0) * di
               for k in others)


_FACTORS: dict = {}         # frozenset of terms -> Factor
_SYMPY_FOUND: list = []     # the factors that only sympy found, in order


def _intern(poly: Poly) -> Factor:
    key = frozenset(poly.items())
    f = _FACTORS.get(key)
    if f is None:
        f = _FACTORS[key] = Factor(poly)
    return f


def _divide(p: Poly, f: Factor) -> Poly | None:
    """p / f if f divides p exactly, else None."""
    if f.line is None:
        return _divide_general(p, f.poly)
    a, b, c, d, x0, y0, g = f.line
    lines: dict = {}
    for k, v in p.items():
        i, j = k >> _SHIFT, k & _MASK
        y = a * j - b * i
        line = lines.get(y)
        if line is None:
            lines[y] = {d * i - c * j: v}
        else:
            line[d * i - c * j] = v
    out = Poly()
    for y, line in lines.items():
        lo = min(line)
        coeffs = [0] * (max(line) - lo + 1)
        for x, v in line.items():
            coeffs[x - lo] = v
        quo = _udiv(coeffs, g)
        if quo is None:
            return None
        yy = y - y0
        base_i, base_j = c * yy, d * yy
        for s, qc in enumerate(quo, lo - x0):
            if qc:
                out[(a * s + base_i) << _SHIFT | (b * s + base_j)] = qc
    return out


def _divide_general(p: Poly, f: Poly) -> Poly | None:
    """p / f by division with remainder in grlex order, None unless exact."""
    kf = max(f, key=_grlex_key)
    cf = f[kf]
    fi, fj = kf >> _SHIFT, kf & _MASK
    tail = [(k - kf, c) for k, c in f.items() if k != kf]
    rem = Poly(p)
    heap = [-_grlex_key(k) for k in rem]
    heapq.heapify(heap)
    keys = {_grlex_key(k): k for k in rem}
    out = Poly()
    while rem:
        k = keys[-heapq.heappop(heap)]
        c = rem.pop(k, 0)
        if not c:
            continue
        if (k >> _SHIFT) < fi or (k & _MASK) < fj:
            return None
        qc, r = divmod(c, cf)
        if r:
            return None
        shift = k - kf
        out[shift] = qc
        for kk, cc in tail:
            k2 = kk + k
            v = rem.get(k2, 0) - qc * cc
            if v:
                if k2 not in rem:
                    g2 = _grlex_key(k2)
                    keys[g2] = k2
                    heapq.heappush(heap, -g2)
                rem[k2] = v
            else:
                rem.pop(k2, None)
    return out


# ---------------------------------------------------------------------------
# factoring by trial division
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _totient(e: int) -> int:
    result, m, p = e, e, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@functools.lru_cache(maxsize=None)
def _cyclotomic_indices(degree: int) -> tuple[int, ...]:
    """Every e with totient(e) <= degree; totient(e) >= sqrt(e/2) bounds e."""
    return tuple(e for e in range(1, 2 * degree * degree + 3)
                 if _totient(e) <= degree)


def _udiv(g: list, h) -> list | None:
    """g / h for univariate integer coefficient lists (low to high), or None
    unless exact."""
    dg = len(h) - 1
    span = len(g) - 1
    if span < dg:
        return None
    rem = list(g)
    quo = [0] * (span - dg + 1)
    lead = h[-1]
    for s in range(span - dg, -1, -1):
        r = rem[s + dg]
        if r:
            qc, rr = divmod(r, lead)
            if rr:
                return None
            quo[s] = qc
            for m in range(dg):
                rem[s + m] -= qc * h[m]
    if any(rem[:dg]):
        return None
    return quo


@functools.lru_cache(maxsize=None)
def _cyclotomic(e: int) -> tuple[int, ...]:
    """The coefficients of the cyclotomic polynomial Phi_e, low to high."""
    g = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            g = _udiv(g, _cyclotomic(d))
    return tuple(g)


@functools.lru_cache(maxsize=None)
def _cyclotomic_factors(coeffs: tuple) -> tuple:
    """((e, multiplicity), ...) for the cyclotomic Phi_e dividing the
    univariate polynomial with these coefficients (low to high).  A root
    test in floating point picks the candidates, exact division decides."""
    g = list(coeffs)
    out = []
    for e in _cyclotomic_indices(len(g) - 1):
        if _totient(e) > len(g) - 1:
            continue
        z = cmath.exp(2j * math.pi / e)
        value = 0
        for c in reversed(g):
            value = value * z + c
        if abs(value) > 1e-7 * sum(map(abs, g)):
            continue
        m = 0
        while True:
            quo = _udiv(g, _cyclotomic(e))
            if quo is None:
                break
            g, m = quo, m + 1
        if m:
            out.append((e, m))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _line_factor(a: int, b: int, e: int) -> Factor:
    """Phi_e(q^a t^b) as a Factor (times the power of t that makes it a
    polynomial when b < 0)."""
    g = _cyclotomic(e)
    shift = -b * (len(g) - 1) if b < 0 else 0
    poly = Poly({_pack(a * k, b * k + shift): c for k, c in enumerate(g) if c})
    if poly[max(poly, key=_grlex_key)] < 0:
        poly = -poly
    return _intern(poly)


def _hull(points: list) -> list:
    """The vertices of the convex hull of distinct points, in order."""
    points = sorted(points)
    if len(points) < 3:
        return points

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                    (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                    - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out

    lower, upper = half(points), half(reversed(points))
    return lower[:-1] + upper[:-1]


def _edge_factors(p: Poly) -> list:
    """The line factors Phi_e(q^a t^b) that divide an edge polynomial of the
    Newton polygon of p: the candidates for its line factors."""
    points = [(k >> _SHIFT, k & _MASK) for k in p]
    hull = _hull(points)
    found = []
    for v, w in zip(hull, hull[1:] + hull[:1]):
        if v == w:
            continue
        a, b = _direction(w[0] - v[0], w[1] - v[1])
        c, d = _unimodular(a, b)
        y0 = a * v[1] - b * v[0]
        edge = {d * i - c * j: p[_pack(i, j)] for i, j in points
                if a * j - b * i == y0}
        lo = min(edge)
        coeffs = [0] * (max(edge) - lo + 1)
        for x, v_ in edge.items():
            coeffs[x - lo] = v_
        for e, _ in _cyclotomic_factors(tuple(coeffs)):
            f = _line_factor(a, b, e)
            if f not in found:
                found.append(f)
    return found


# sympy factor_list calls, by reason: a cofactor left after trial division
# whose terms lie on one line ("line") or not ("general")
FALLBACKS: collections.Counter = collections.Counter()


@functools.lru_cache(maxsize=None)
def _sympy_ring():
    """sympy's ring Z[q,t] in grlex order, imported at the first fallback."""
    from sympy.polys.domains import ZZ
    from sympy.polys.orderings import grlex
    from sympy.polys.rings import ring

    return ring("q,t", ZZ, grlex)[0]


def _sympy_factors(p: Poly) -> list:
    """[(Factor, multiplicity)] of a primitive p with no monomial factor,
    from sympy's factor_list, counted in FALLBACKS.  Each factor is kept in
    _SYMPY_FOUND, so trial division finds it in any later cofactor."""
    FALLBACKS["line" if _on_one_line(p) else "general"] += 1
    _, pairs = _sympy_ring().from_dict(
        {(k >> _SHIFT, k & _MASK): c for k, c in p.items()}).factor_list()
    found = []
    for f, m in pairs:
        poly = Poly({_pack(i, j): int(c) for (i, j), c in f.items()})
        if poly[max(poly, key=_grlex_key)] < 0:
            poly = -poly
        f = _intern(poly)
        if f not in _SYMPY_FOUND:
            _SYMPY_FOUND.append(f)
        found.append((f, m))
    return found


@functools.lru_cache(maxsize=None)
def _binomial_factors(a: int, b: int, e: int, plus: bool):
    """({Phi_d(q^a t^b): 1}, the sum of their leading monomials) over the d
    with u^e - 1, or u^e + 1 when ``plus``, the product of the Phi_d(u)."""
    ds = [d for d in range(1, 2 * e + 1)
          if (2 * e) % d == 0 and (e % d != 0) == plus]
    fac = {_line_factor(a, b, d): 1 for d in ds}
    return fac, sum(max(f.poly, key=_grlex_key) for f in fac)


def _factor_poly(p: Poly) -> "Factored":
    """The nonzero polynomial p as a Factored with every factor irreducible."""
    if len(p) == 1:
        (k, c), = p.items()
        return Factored(c, k, _NO_FACTORS)
    if len(p) == 2:
        (k1, c1), (k2, c2) = p.items()
        if abs(c1) == abs(c2):
            # c (m1 + m2) or c (m1 - m2): a binomial u^e +- 1 along a line
            di, dj = (k2 >> _SHIFT) - (k1 >> _SHIFT), (k2 & _MASK) - (k1 & _MASK)
            a, b = _direction(di, dj)
            fac, lead = _binomial_factors(a, b, math.gcd(di, dj), c1 == c2)
            k = max(k1, k2, key=_grlex_key)
            return Factored(p[k], k - lead, fac)
    mi = min(k >> _SHIFT for k in p)
    mj = min(k & _MASK for k in p)
    mono = _pack(mi, mj)
    content = math.gcd(*p.values())
    if p[max(p, key=_grlex_key)] < 0:
        content = -content
    rest = Poly({k - mono: c // content for k, c in p.items()})
    fac: dict = {}

    def peel(candidates):
        nonlocal rest
        for f in candidates:
            while len(rest) > 1:
                quo = _divide(rest, f)
                if quo is None:
                    break
                rest = quo
                fac[f] = fac.get(f, 0) + 1

    peel(_edge_factors(rest))
    if len(rest) > 1:
        peel(list(_SYMPY_FOUND))
    if len(rest) > 1:
        for f, m in _sympy_factors(rest):
            fac[f] = fac.get(f, 0) + m
    return Factored(content, mono, fac)


# ---------------------------------------------------------------------------
# factored polynomials
# ---------------------------------------------------------------------------

_NO_FACTORS: dict = {}


class Factored:
    """The integer polynomial c q^i t^j prod f^m, times ``rest``.

    c is a nonzero int, ``mono`` the packed monomial q^i t^j, ``fac`` maps
    irreducible :class:`Factor`s to multiplicities, and ``rest`` is a
    :class:`Poly` whose factors are not known yet, or None.  Products stay
    factored; sums expand.  Treat it as immutable.
    """

    __slots__ = ("c", "mono", "fac", "rest", "_terms")

    def __init__(self, c: int, mono: int, fac: dict, rest: Poly | None = None):
        if rest is not None and len(rest) == 1:
            (k, v), = rest.items()
            c, mono, rest = c * v, mono + k, None
        self.c = c
        self.mono = mono
        self.fac = fac
        self.rest = rest
        self._terms = None

    @property
    def trivial(self) -> bool:
        """Whether this is the constant 1."""
        return self.c == 1 and not self.mono and not self.fac \
            and self.rest is None

    def expand(self) -> Poly:
        if self._terms is None:
            p = self.rest if self.rest is not None else _ONE_POLY
            for f, m in self.fac.items():
                p = p * f.power(m)
            mono, c = self.mono, self.c
            if mono or c != 1:
                p = Poly({k + mono: v * c for k, v in p.items()})
            self._terms = p
        return self._terms

    def full(self) -> "Factored":
        """The same polynomial with ``rest`` factored too."""
        if self.rest is None:
            return self
        r = _factor_poly(self.rest)
        return Factored(self.c * r.c, self.mono + r.mono,
                        _merge(self.fac, r.fac))

    def __mul__(self, other):
        kind = type(other)
        if kind is Factored:
            if other.rest is None:
                rest = self.rest
            elif self.rest is None:
                rest = other.rest
            else:
                rest = self.rest * other.rest
            return Factored(self.c * other.c, self.mono + other.mono,
                            _merge(self.fac, other.fac), rest)
        if kind is Poly:
            if not other:
                return Poly()
            if not self.fac and self.rest is None:
                mono, c = self.mono, self.c
                return Poly({k + mono: v * c for k, v in other.items()})
            return Factored(self.c, self.mono, self.fac,
                            other if self.rest is None else self.rest * other)
        if kind is int:
            if not other:
                return Poly()
            return Factored(self.c * other, self.mono, self.fac, self.rest)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return Factored(self.c ** k, self.mono * k,
                        {f: m * k for f, m in self.fac.items()} if k else
                        _NO_FACTORS,
                        None if self.rest is None else self.rest ** k)

    def __neg__(self):
        return Factored(-self.c, self.mono, self.fac, self.rest)

    def __add__(self, other):
        return self.expand() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self.expand() - other

    def __rsub__(self, other):
        return other - self.expand()

    def __bool__(self):
        return True

    def __eq__(self, other):
        if type(other) is Factored and self.rest is None \
                and other.rest is None:
            # factorisations into irreducibles are unique
            return (self.c == other.c and self.mono == other.mono
                    and self.fac == other.fac)
        if isinstance(other, (Factored, Poly, int)):
            return self.expand() == _expand(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.expand())

    def __repr__(self):
        return f"Factored({_ring_poly_text(self.expand())})"


def _merge(a: dict, b: dict) -> dict:
    if not b:
        return a
    if not a:
        return b
    out = dict(a)
    for f, m in b.items():
        out[f] = out.get(f, 0) + m
    return out


_ONE_F = Factored(1, 0, _NO_FACTORS)


def _as_factored(x) -> Factored:
    """The nonzero ring element x as a Factored with every factor known."""
    if type(x) is Factored:
        return x.full()
    if type(x) is Poly:
        return _factor_poly(x)
    return Factored(x, 0, _NO_FACTORS)


def _lcm_cofactors(a: Factored, b: Factored):
    """(L, L / a, L / b) for the lcm L of two fully factored a, b with
    positive content."""
    fac = dict(a.fac)
    for f, m in b.fac.items():
        if m > fac.get(f, 0):
            fac[f] = m
    mono = _pack(max(a.mono >> _SHIFT, b.mono >> _SHIFT),
                 max(a.mono & _MASK, b.mono & _MASK))
    lcm = Factored(math.lcm(a.c, b.c), mono, fac)
    return lcm, _cofactor(lcm, a), _cofactor(lcm, b)


def _cofactor(big: Factored, x: Factored) -> Factored:
    """big / x for fully factored x dividing big."""
    if x.trivial:
        return big
    return Factored(big.c // x.c, big.mono - x.mono,
                    {f: m - x.fac.get(f, 0) for f, m in big.fac.items()
                     if m > x.fac.get(f, 0)})


def _cancel(num, den: Factored, only=None):
    """(num', den') = (num, den) divided by their gcd.

    num is a nonzero Poly or Factored, den a fully factored Factored with
    positive content.  The factors of den are divided out of num by exact
    division (or read off num's known factors); with ``only`` given, only
    the factors of den in it are tried.  num' is a Poly if num was.
    """
    if den.trivial:
        return num, den
    if type(num) is Factored:
        nc, nm, nfac, rest = num.c, num.mono, num.fac, num.rest
    else:
        nc, nm, nfac, rest = 1, 0, _NO_FACTORS, num
    dc, dm, dfac = den.c, den.mono, den.fac
    if dc != 1:
        g = math.gcd(dc, nc)
        if g != 1:
            nc, dc = nc // g, dc // g
        if dc != 1 and rest is not None:
            g = math.gcd(dc, *rest.values())
            if g != 1:
                rest = Poly({k: v // g for k, v in rest.items()})
                dc //= g
    if dm:
        di, dj = dm >> _SHIFT, dm & _MASK
        ni, nj = nm >> _SHIFT, nm & _MASK
        ri = rj = 0
        if rest is not None and (di > ni or dj > nj):
            ri = min(k >> _SHIFT for k in rest)
            rj = min(k & _MASK for k in rest)
        ci, cj = min(di, ni + ri), min(dj, nj + rj)
        if ci or cj:
            ti, tj = min(ci, ni), min(cj, nj)
            shift = _pack(ci - ti, cj - tj)
            if shift:
                rest = Poly({k - shift: v for k, v in rest.items()})
            nm = _pack(ni - ti, nj - tj)
            dm = _pack(di - ci, dj - cj)
    if dfac:
        newd = nfacs = None
        for f, m in dfac.items():
            if only is not None and f not in only:
                continue
            left = m
            k = nfac.get(f, 0)
            if k:
                used = min(k, m)
                if nfacs is None:
                    nfacs = dict(nfac)
                if k == used:
                    del nfacs[f]
                else:
                    nfacs[f] = k - used
                left -= used
            while left and rest is not None and len(rest) > 1:
                quo = _divide(rest, f)
                if quo is None:
                    break
                rest, left = quo, left - 1
            if left != m:
                if newd is None:
                    newd = dict(dfac)
                if left:
                    newd[f] = left
                else:
                    del newd[f]
        if nfacs is not None:
            nfac = nfacs
        if newd is not None:
            dfac = newd
    den = Factored(dc, dm, dfac)
    if type(num) is Poly:
        return rest, den
    return Factored(nc, nm, nfac, rest), den


# ---------------------------------------------------------------------------
# scalars of Q(q,t)
# ---------------------------------------------------------------------------

class Scalar:
    """An element num / den of Q(q,t) in canonical reduced form.

    ``num`` is a :class:`Poly`, or a :class:`Factored` where its factors
    are known; ``den`` is a fully factored :class:`Factored` with positive
    content, so its leading coefficient is positive.  Immutable.
    """

    __slots__ = ("num", "den", "_hash", "_num_factored")

    def __init__(self, num, den: Factored):
        self.num = num
        self.den = den
        self._hash = None
        self._num_factored = None

    # -- views ---------------------------------------------------------------

    def _factored_num(self) -> Factored:
        if self._num_factored is None:
            self._num_factored = _as_factored(self.num)
        return self._num_factored

    def __repr__(self):
        return f"Scalar({GENERIC.text(self)})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _lift(other)
            if other is NotImplemented:
                return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        a, b = self.den, other.den
        if a == b:
            return _quotient(_expand(self.num) + _expand(other.num), a)
        den, ca, cb = _lcm_cofactors(a, b)
        num = _expand(self.num) * ca + _expand(other.num) * cb
        if not num:
            return ZERO
        # a factor whose multiplicities in a and b differ cannot divide num
        only = {f for f, m in a.fac.items() if b.fac.get(f) == m}
        return _scalar(*_cancel(num, den, only))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.num, self.den)

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = _lift(other)
            if other is NotImplemented:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = _lift(other)
            if other is NotImplemented:
                return NotImplemented
        if not self.num or not other.num:
            return ZERO
        n1, d2 = _cancel(self.num, other.den)
        n2, d1 = _cancel(other.num, self.den)
        return _scalar(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def _inverse(self) -> "Scalar":
        if not self.num:
            raise ZeroDivisionError("division by zero in Q(q,t)")
        n = self._factored_num()
        if n.c < 0:
            return Scalar(-self.den, -n)
        return Scalar(self.den, n)

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = _lift(other)
            if other is NotImplemented:
                return NotImplemented
        return self * other._inverse()

    def __rtruediv__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self._inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self._inverse() ** -k
        if k == 0:
            return ONE
        return Scalar(self.num ** k, self.den ** k)

    # -- comparison ----------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if type(other) is not Scalar:
            if not isinstance(other, int):
                return NotImplemented
            other = _lift(other)
        return self is other or (self.den == other.den
                                 and _expand(self.num) == _expand(other.num))

    def __hash__(self):
        if self._hash is None:
            num = _expand(self.num)
            if self.den.trivial and set(num) <= {0}:
                # an integer hashes as that int, which it equals
                self._hash = hash(num.get(0, 0))
            else:
                den = self.den
                self._hash = hash((frozenset(num.items()), den.c, den.mono,
                                   frozenset(den.fac.items())))
        return self._hash


def _scalar(num, den: Factored) -> Scalar:
    """The Scalar of a reduced pair; a numerator of at most two terms is
    factored at once (cheaply), so that products of binomials such as
    1 - q^a t^b keep their factors."""
    if type(num) is Poly and 0 < len(num) <= 2:
        c1, *c2 = num.values()
        if not c2 or abs(c1) == abs(c2[0]):
            num = _factor_poly(num)
    return Scalar(num, den)


def _quotient(num, den) -> Scalar:
    """The canonical Scalar num / den of ring elements (Poly, Factored or
    int), den nonzero."""
    if not den:
        raise ZeroDivisionError("division by zero in Q(q,t)")
    if type(num) is int:
        num = _const(num)
    if not num:
        return ZERO
    den = _as_factored(den)
    if den.c < 0:
        num, den = -num, -den
    return _scalar(*_cancel(num, den))


def _lift(x):
    """An int as a Scalar; NotImplemented for anything else."""
    if isinstance(x, int):
        return Scalar(_const(x), _ONE_F)
    return NotImplemented


ZERO = Scalar(Poly(), _ONE_F)
ONE = Scalar(Factored(1, 0, _NO_FACTORS), _ONE_F)
_Q = Scalar(Factored(1, _pack(1, 0), _NO_FACTORS), _ONE_F)
_T = Scalar(Factored(1, _pack(0, 1), _NO_FACTORS), _ONE_F)


def _ring_poly_text(p) -> str:
    """Canonical text of an integer polynomial, grlex-descending terms."""
    if not p:
        return "0"
    chunks = []
    for (eq, et), c in _expand(p).terms():
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


def subst_t_power(x: Scalar, k: int) -> Scalar:
    """Substitute t = q**k in a generic scalar; raises if the denominator dies."""
    def sub(poly):
        acc: dict[int, int] = {}
        for (eq, et), c in poly.terms():
            e = eq + k * et
            acc[e] = acc.get(e, 0) + c
        return {e: c for e, c in acc.items() if c}

    num, den = sub(_expand(x.num)), sub(x.den.expand())
    if not den:
        raise SpecializationError(
            f"denominator {_ring_poly_text(x.den)} vanishes under t = q^{k}")
    low = min(0, *num, *den)
    return _quotient(Poly({_pack(e - low, 0): c for e, c in num.items()}),
                     Poly({_pack(e - low, 0): c for e, c in den.items()}))


def scalar_eval(x: Scalar, qval, tval):
    """Evaluate a generic scalar at an exact rational point (or at scalars
    of Q(q,t))."""
    if not isinstance(qval, Scalar):
        qval, tval = Fraction(qval), Fraction(tval)

    def ev(poly):
        total = 0
        for (eq, et), c in poly.terms():
            total = total + c * qval ** eq * tval ** et
        return total

    den = ev(x.den.expand())
    if den == 0:
        raise SpecializationError(
            f"denominator {_ring_poly_text(x.den)} vanishes at q={qval}, t={tval}")
    return ev(_expand(x.num)) / den


def memo(fn):
    """Decorator memoising fn on each call's arguments as given, so a hit
    runs no code of fn, which reads its labels in its body.  An unhashable
    argument, such as a list label, is computed and not stored."""
    table = {}

    @functools.wraps(fn)  # not functools.cache: tracers wrap functions only
    def cached(*args, **kwargs):
        key = (args, *kwargs.items()) if kwargs else args
        try:
            return table[key]
        except KeyError:
            return table.setdefault(key, fn(*args, **kwargs))
        except TypeError:
            return fn(*args, **kwargs)

    return cached


@memo
def _monomial(q, t, a: int, b: int):
    return q ** a * t ** b


def _exponents(x: Scalar) -> tuple[int, int]:
    """(i, j) with x == q^i t^j, for a Laurent monomial x of Q(q,t)."""
    (k, _), = _expand(x.num).items()
    m = x.den.mono
    return (k >> _SHIFT) - (m >> _SHIFT), (k & _MASK) - (m & _MASK)


# ---------------------------------------------------------------------------
# scalar contexts
# ---------------------------------------------------------------------------


class ScalarContext:
    """The point (q, t) that coefficients are computed at.

    ``qval`` and ``tval`` are the generators q, t of Q(q,t) (symbolic
    arithmetic), their reciprocals (symbolic arithmetic at reciprocal
    parameters), or two nonzero ``Fraction``s (exact rational arithmetic).
    ``reciprocal`` marks a context that :meth:`inverted` made from the
    point the caller gave; it takes no part in equality or the hash.
    Immutable, since every memo table keys on it.
    """

    __slots__ = ("qval", "tval", "reciprocal", "_hash")

    def __init__(self, qval, tval, reciprocal: bool = False):
        init = object.__setattr__
        init(self, "qval", qval)
        init(self, "tval", tval)
        init(self, "reciprocal", reciprocal)
        # every memo lookup hashes its context, and a Fraction's hash takes
        # a modular inverse, so the point is hashed once
        init(self, "_hash", hash((qval, tval)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not ScalarContext:
            return NotImplemented
        return (self.qval, self.tval) == (other.qval, other.tval)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"ScalarContext(qval={self.qval!r}, tval={self.tval!r}, "
                f"reciprocal={self.reciprocal!r})")

    @property
    def generic(self) -> bool:
        return not isinstance(self.qval, Fraction)

    @property
    def zero(self):
        return ZERO if self.generic else Fraction(0)

    @property
    def one(self):
        return ONE if self.generic else Fraction(1)

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
        """(N, D) with x == N / D: integer polynomials in q,t symbolically
        (:class:`Poly`, or :class:`Factored` where the factors are known, as
        they always are for D), ints at a rational point.  Sums and products
        of parts are exact without normalising, and products keep their
        factors; :meth:`quotient` turns them back into a scalar."""
        if self.generic:
            return x.num, x.den
        return x.numerator, x.denominator

    def quotient(self, num, den):
        """The scalar num / den of ring elements as :meth:`parts` returns
        them, normalised once."""
        if self.generic:
            return _quotient(num, den)
        return Fraction(num, den)

    def cancel_common(self, den, nums: dict) -> tuple:
        """(den, nums): den and every numerator divided by what they all
        share, so that the quotients N / den are unchanged.

        At a rational point that is the integer gcd.  Symbolically it is
        the common content and monomial, and then each factor of den (kept
        factored) as often as it divides every numerator exactly; no
        polynomial gcd is taken.  Either way den becomes the least common
        denominator of the quotients.
        """
        if not self.generic:
            g = math.gcd(den, *nums.values())
            if g != 1:
                den, nums = den // g, {k: num // g for k, num in nums.items()}
            return den, nums
        den = _as_factored(den)
        nums = {k: _expand(num) for k, num in nums.items()}
        values = [num for num in nums.values() if num]
        if not values:
            return den, nums
        c = math.gcd(den.c, *(v for num in values for v in num.values()))
        di, dj = den.mono >> _SHIFT, den.mono & _MASK
        mi = min(di, *(k >> _SHIFT for num in values for k in num))
        mj = min(dj, *(k & _MASK for num in values for k in num))
        shift = _pack(mi, mj)
        if c != 1 or shift:
            nums = {key: Poly({k - shift: v // c for k, v in num.items()})
                    for key, num in nums.items()}
        fac = dict(den.fac)
        order = sorted(nums, key=lambda key: len(nums[key]))
        for f, m in den.fac.items():
            for _ in range(m):
                quotients = {}
                for key in order:
                    quo = _divide(nums[key], f)
                    if quo is None:
                        break
                    quotients[key] = quo
                else:
                    nums = quotients
                    fac[f] -= 1
                    continue
                break
        return Factored(den.c // c, _pack(di - mi, dj - mj),
                        {f: m for f, m in fac.items() if m}), nums

    def common_denominator(self, coeffs: dict) -> tuple[object, dict]:
        """(D, {key: N}) with coeffs[key] == N / D for every key.

        D is the lcm of the denominators: a :class:`Factored` polynomial in
        q,t symbolically, a positive int at a rational point.  The
        numerators are of the same kind as D, so sums of them need no
        normalisation.
        """
        if self.generic:
            den = _ONE_F
            for c in coeffs.values():
                if not (c.den is den or c.den == den):
                    den = _lcm_cofactors(den, c.den)[0]
            return den, {k: _expand(c.num * _cofactor(den, c.den))
                         for k, c in coeffs.items()}
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        return den, {k: c.numerator * (den // c.denominator)
                     for k, c in coeffs.items()}

    def lcm_cofactors(self, a, b) -> tuple[object, object, object]:
        """(L, L / a, L / b) for L the lcm of the ring elements a and b, as
        :meth:`parts` returns them: symbolically from their factors, with
        no gcd."""
        if self.generic:
            return _lcm_cofactors(_as_factored(a), _as_factored(b))
        g = math.gcd(a, b)
        return a // g * b, b // g, a // g

    def product_sum(self, terms, inverse=()):
        """The sum over ``terms`` of the product of each term's factors,
        over the product of ``inverse`` (divisors, built with
        :meth:`one_minus` where they can vanish): summed in parts over the
        running lcm of the term denominators and normalised once."""
        one, num = self.parts(self.one), None
        for factors in terms:
            n, d = one
            for x in factors:
                xn, xd = self.parts(x)
                n, d = n * xn, d * xd
            if num is None:  # a lone term keeps its factors
                num, den = n, d
            else:
                den, up, across = self.lcm_cofactors(den, d)
                num = num * up + n * across
        if num is None:
            return self.zero
        for x in inverse:
            n, d = self.parts(x)
            num, den = num * d, den * n
        return self.quotient(num, den)

    def one_minus_product(self, pairs):
        """The product of the factors 1 - q^a t^b over the exponent pairs
        (a, b), multiplied out in parts and normalised once.  The first
        factor that vanishes is named as :meth:`one_minus` names it."""
        if self.generic:
            return self.product_sum([[self.one_minus(a, b) for a, b in pairs]])
        qn, qd = self.qval.numerator, self.qval.denominator
        tn, td = self.tval.numerator, self.tval.denominator
        num = den = 1
        for a, b in pairs:
            # q^a t^b = n / d
            n, d = (qn ** a, qd ** a) if a >= 0 else (qd ** -a, qn ** -a)
            m, e = (tn ** b, td ** b) if b >= 0 else (td ** -b, tn ** -b)
            n, d = n * m, d * e
            if n == d:
                self.one_minus(a, b)  # raises, naming the factor
            num *= d - n
            den *= d
        return Fraction(num, den)

    def monomial_sum(self, den, nums, qexps, texps):
        """The scalar sum of N q^a t^b over den, for the entries N, a and b
        of nums, qexps and texps taken in step.

        ``den`` and every N are as :meth:`common_denominator` returns them;
        a and b may be negative.  Equal monomials are not grouped: at a
        rational point the sum is one pass over the terms, at C speed, and
        either way it is accumulated exactly and reduced once at the end.
        """
        if self.generic:
            # q^a t^b of this context is q^(a qi + b ti) t^(a qj + b tj) in
            # Q(q,t); the exponent of t is offset by _OFFSET while packed, so
            # that it may go negative
            (qi, qj), (ti, tj) = _exponents(self.qval), _exponents(self.tval)
            reach = max(map(abs, texps), default=0)
            if reach >= _OFFSET:
                raise AlgebraError(f"an exponent of t of {reach} leaves the "
                                   f"32 bits of a packed monomial")
            acc: dict = {}
            get = acc.get
            for num, a, b in zip(nums, qexps, texps):
                shift = ((a * qi + b * ti) << _SHIFT) + a * qj + b * tj \
                    + _OFFSET
                for k, c in _expand(num).items():
                    k += shift
                    acc[k] = get(k, 0) + c
            acc = {k: c for k, c in acc.items() if c}
            if not acc:
                return ZERO
            # shift both exponents to >= 0 and put the shift into den
            sq = -min(0, min(k >> _SHIFT for k in acc))
            st = -min(0, min((k & _MASK) - _OFFSET for k in acc))
            shift = (sq << _SHIFT) + st - _OFFSET
            return _quotient(Poly({k + shift: c for k, c in acc.items()}),
                             den * Factored(1, _pack(sq, st), _NO_FACTORS))
        if not len(qexps):
            return Fraction(0)
        # q^a t^b = qn^a qd^-a tn^b td^-b: with qn^alo qd^-ahi tn^blo td^-bhi
        # factored out, every monomial is one entry of each power table, so
        # the sum is an integer and one Fraction reduces it
        qn, qd = self.qval.numerator, self.qval.denominator
        tn, td = self.tval.numerator, self.tval.denominator
        alo, ahi, blo, bhi = min(qexps), max(qexps), min(texps), max(texps)
        qpow = _powers(qn, qd, alo, ahi)
        tpow = _powers(tn, td, blo, bhi)
        total = sum(map(operator.mul, nums,
                        map(operator.mul, map(qpow.__getitem__, qexps),
                            map(tpow.__getitem__, texps))))
        for base, exp in ((qn, alo), (qd, -ahi), (tn, blo), (td, -bhi)):
            if exp >= 0:
                total *= base ** exp
            else:
                den *= base ** -exp
        return Fraction(total, den)

    def num_den_text(self, x) -> tuple[str, str]:
        x = self.coerce(x)
        if self.generic:
            return _ring_poly_text(x.num), _ring_poly_text(x.den)
        try:
            return str(x.numerator), str(x.denominator)
        except ValueError:  # str() stops at 4300 digits by default
            import decimal
            return (str(decimal.Decimal(x.numerator)),
                    str(decimal.Decimal(x.denominator)))

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


@functools.lru_cache(maxsize=None)
def _powers(n: int, d: int, lo: int, hi: int) -> dict:
    """{k: n^(k - lo) d^(hi - k) for lo <= k <= hi}, each entry the last
    times n divided exactly by d; memoised."""
    table = [d ** (hi - lo)]
    for _ in range(hi - lo):
        table.append(table[-1] // d * n)
    return dict(zip(range(lo, hi + 1), table))


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
    if ctx.generic:
        den = _as_factored(den)
    return p.map_coeffs(lambda num: ctx.quotient(num, den))


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
